"""Reconciliation arithmetic: self times and the per-layer ledger."""

import threading

import pytest

from perfbench.spans import (Tracer, children_index, ledger, ledger_shares,
                             self_time, union_length)


def span(name, start, end, parent, op="a"):
    return [name, start, end, parent, op, {}]


def test_union_length_merges_overlaps_and_keeps_gaps():
    assert union_length([]) == 0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10), (2, 3)]) == 10


def test_self_time_counts_parallel_children_once():
    spans = [
        span("op", 0.0, 10.0, None),
        span("exec.threads", 1.0, 9.0, 0),
        span("stencil.kernel", 2.0, 6.0, 1),
        span("stencil.kernel", 3.0, 7.0, 1),  # runs beside the first
    ]
    kids = children_index(spans)
    assert self_time(spans, 1, kids) == pytest.approx(8.0 - 5.0)
    assert self_time(spans, 0, kids) == pytest.approx(2.0)


def test_ledger_rows_add_up_to_the_operation_wall_time():
    spans = [
        span("op", 0.0, 10.0, None),
        span("core.build", 0.5, 2.0, 0),
        span("runtime.engine", 2.0, 9.0, 0),
        span("stencil.kernel", 3.0, 5.0, 2),
        span("stencil.kernel", 4.0, 6.0, 2),
        span("op", 20.0, 24.0, None, op="b"),
        span("serve.submit", 20.0, 21.0, 5, op="b"),
        span("obs.lifecycle", 20.2, 20.4, 6, op="b"),
    ]
    rows = ledger(spans)
    assert rows["wall"] == pytest.approx(14.0)
    assert rows["core"] == pytest.approx(1.5)
    assert rows["stencil"] == pytest.approx(3.0)  # union of 3-5 and 4-6
    assert rows["runtime"] == pytest.approx(7.0 - 3.0)
    assert rows["serve"] == pytest.approx(0.8)
    assert rows["obs"] == pytest.approx(0.2)
    assert rows["unattributed"] == pytest.approx(0.5 + 1.0 + 3.0)
    total = sum(v for k, v in rows.items() if k != "wall")
    assert total == pytest.approx(rows["wall"])
    shares = ledger_shares(rows)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["unattributed"] == pytest.approx(4.5 / 14.0)


def test_ledger_clips_children_to_their_operation_and_skips_open_spans():
    spans = [
        span("op", 0.0, 4.0, None),
        span("exec.procs", -1.0, 2.0, 0),
        span("core.build", 3.0, None, 0),  # never closed
        span("runtime.engine", 1.0, 3.0, None, op="orphan"),
    ]
    rows = ledger(spans)
    assert rows["wall"] == pytest.approx(4.0)
    assert rows["exec"] == pytest.approx(2.0)
    assert rows["core"] == 0.0 and rows["runtime"] == 0.0
    assert rows["unattributed"] == pytest.approx(2.0)


def test_tracer_nests_spans_and_records_nothing_outside_an_operation():
    tracer = Tracer()
    with tracer.span("core.build") as outside:
        assert outside is None
    with tracer.operation("op1"):
        with tracer.span("core.build"):
            with tracer.span("ir.passes"):
                pass
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("op", None, "op1"), ("core.build", 0, "op1"),
                     ("ir.passes", 1, "op1")]
    assert all(s[2] is not None for s in tracer.spans)


def test_wrapped_kernels_report_to_the_span_open_on_the_calling_thread():
    class Task:
        def __init__(self, kernel):
            self.kernel = kernel

    calls = []
    graph = [Task(lambda inputs, t: calls.append(t) or {"tile": 1}), Task(None)]
    tracer = Tracer()
    with tracer.operation("op1"):
        assert tracer.wrap_kernels(graph) == 1
        with tracer.span("exec.threads"):
            worker = threading.Thread(target=graph[0].kernel, args=({}, graph[0]))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
    kernel = [s for s in tracer.spans if s[0] == "stencil.kernel"]
    assert len(kernel) == 1 and calls == [graph[0]]
    assert tracer.spans[kernel[0][3]][0] == "exec.threads"
    assert kernel[0][4] == "op1"
