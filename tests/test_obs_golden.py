"""Byte-for-byte pins on every telemetry serializer.

The other obs tests check shapes; these check exact bytes, so a
refactor of the exporters, the lifecycle tracer or the series store
cannot silently change what a viewer, scraper or replay reads.  Every
input is fixed and no clock is read: the execution trace is built from
literal spans, the lifecycle tracer gets explicit admit/span/finish
times, and the series store is fed with explicit ``t``/``wall``.

Regenerate the files under ``tests/data/obs_golden/`` (only when an
output change is intended) with ``PYTHONPATH=src python
tests/test_obs_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.critpath import critical_path
from repro.obs.export import (
    build_trace,
    dumps,
    metrics_jsonl,
    prometheus_text,
    spans_jsonl,
    to_otel,
)
from repro.obs.lifecycle import (
    LifecycleTracer,
    SpanLog,
    format_postmortem,
    write_timeline,
)
from repro.obs.metrics import MetricRegistry
from repro.obs.timeseries import TimeSeriesStore

GOLDEN = Path(__file__).parent / "data" / "obs_golden"

SIG_A = "a" * 64
SIG_B = "b" * 64


def _trace():
    """Two nodes, two compute lanes on node 0, one on node 1, comm
    lanes on both, labels and task ids."""
    return build_trace([
        (0, 0, "init", 0.0, 0.25, ("init", 0, 0), ("init", 0)),
        (0, 1, "init", 0.0, 0.25, ("init", 0, 1), ("init", 1)),
        (1, 0, "init", 0.0, 0.3, ("init", 1, 0), ("init", 2)),
        (0, 0, "interior", 0.25, 1.0, ("i", 0, 1), ("task", 0, 1)),
        (0, 1, "boundary", 0.25, 0.75, ("b", 0, 1), ("task", 1, 1)),
        (0, -1, "send", 0.75, 0.875, ("msg", 1, 1)),
        (1, -1, "recv", 0.8, 0.95, ("msg", 1, 1)),
        (1, 0, "boundary", 0.95, 1.5, ("b", 2, 1), ("task", 2, 1)),
        (1, 0, "interior", 1.5, 2.0, None, ("task", 2, 2)),
    ])


def _registry() -> MetricRegistry:
    reg = MetricRegistry()
    jobs = reg.counter("serve_jobs_submitted_total",
                       "requests admitted, by tenant", "jobs")
    jobs.inc(3, tenant="tenant-a")
    jobs.inc(2, tenant="tenant-b")
    reg.counter("tasks_executed_total", "kernels run").inc(12, kind="interior")
    done = reg.counter("serve_jobs_completed_total", "requests finished")
    done.inc(4, status="ok", tenant="tenant-a")
    done.inc(status="error", tenant="tenant-b")
    depth = reg.gauge("serve_queue_depth", "jobs waiting", "jobs")
    depth.set(4)
    depth.set(1)
    lat = reg.histogram("slo_e2e_seconds", "end-to-end latency", "seconds",
                        buckets=(0.01, 0.1, 1.0))
    for value, tenant in ((0.005, "tenant-a"), (0.05, "tenant-a"),
                          (0.5, "tenant-b"), (2.0, "tenant-b")):
        lat.observe(value, tenant=tenant)
    reg.gauge("untyped.metric-name").set(2.5)
    return reg


def _lifecycle():
    """Two finished requests on explicit times; the first has a
    worker-recorded ``execute`` span and a captured execution trace."""
    reg = MetricRegistry()
    tracer = LifecycleTracer(metrics=reg)
    tid_a = tracer.begin(SIG_A, 1, tenant="tenant-a", t_admit=10.0)
    tracer.span(tid_a, "admit", 10.0, 10.001)
    tracer.span(tid_a, "cache_probe", 10.001, 10.002, hit=False)
    tracer.span(tid_a, "queued", 10.002, 10.25, depth=2)
    log = SpanLog("worker-0")
    exec_id = log.allocate(tid_a, "execute")
    log.span(tid_a, "ir_passes", 10.25, 10.3, tenant="tenant-a",
             parent_span_id=exec_id, passes="fuse")
    log.span(tid_a, "execute", 10.25, 12.25, tenant="tenant-a",
             span_id=exec_id, impl="ca-parsec", tasks=9, ratio=1.0,
             warm=True, note=None)
    tracer.adopt(log.spans)
    tracer.finish(tid_a, "ok", now=12.5)

    tid_b = tracer.begin(SIG_B, 2, tenant="tenant-b", t_admit=11.0)
    tracer.span(tid_b, "admit", 11.0, 11.001)
    tracer.span(tid_b, "execute", 11.1, 11.6, status="error",
                error="NodeLostError('node 1')")
    tracer.finish(tid_b, "error", now=11.75)
    return tracer, reg, {tid_a: _trace()}


def _series(tmp: Path) -> str:
    reg = _registry()
    store = TimeSeriesStore(capacity=4)
    for k in range(5):
        reg.counter("serve_jobs_submitted_total").inc(tenant="tenant-a")
        reg.histogram("slo_e2e_seconds").observe(0.02 * k, tenant="tenant-b")
        reg.gauge("serve_queue_depth").set(k)
        snap = reg.snapshot()
        store.observe(snap, live={"done": k, "total": 4, "phase": "run"},
                      t=100.0 + 0.5 * k, wall=1.7e9 + 0.5 * k)
    path = store.to_jsonl(tmp / "series.jsonl")
    return path.read_text()


def _postmortem_doc() -> dict:
    tid = "c" * 32
    other = "d" * 32

    def span(trace_id, name, start, end, status="ok", **attrs):
        return {"event": "span", "trace_id": trace_id, "span_id": name[:4],
                "parent_span_id": None, "name": name, "start": start,
                "end": end, "status": status, "tenant": "tenant-a",
                "attrs": attrs}

    return {
        "kind": "repro-postmortem", "schema": 1, "reason": "node-lost",
        "error": "NodeLostError('node 1 lost at step 1')",
        "trace_ids": [tid], "monotonic": 50.0,
        "events": [
            span(tid, "admit", 20.0, 20.001),
            span(tid, "queued", 20.001, 20.5, depth=3),
            span(tid, "execute", 20.5, 21.75, "error",
                 error="NodeLostError", signature="f" * 64),
            {"event": "retry", "t": 21.8, "attempt": 1},
            span(tid, "respond", 21.9, 21.9, "error", outcome="error"),
            span(tid, "request", 20.0, 21.9, "error", outcome="error"),
            span(other, "admit", 22.0, 22.1),
        ],
    }


def render(tmp: Path) -> dict[str, str]:
    """Every pinned output, by golden file name."""
    trace = _trace()
    tracer, life_reg, exec_traces = _lifecycle()
    spans = tracer.all_spans()
    out = {
        "chrome_critpath.json": dumps(trace, critpath=critical_path(trace)),
        "otel_derived.json": json.dumps(
            to_otel(trace, service_name="golden", epoch_unix_nanos=7)
        ),
        "otel_injected.json": json.dumps(to_otel(
            trace, trace_id="e" * 32, parent_span_id="f" * 16,
        )),
        "spans.jsonl": spans_jsonl(trace),
        "metrics.jsonl": metrics_jsonl(_registry().snapshot()),
        "metrics.prom": prometheus_text(_registry().snapshot()),
        "lifecycle_slo.prom": prometheus_text(life_reg.snapshot()),
        "series.jsonl": _series(tmp),
        "postmortem.txt": format_postmortem(_postmortem_doc()),
    }
    write_timeline(spans, exec_traces, chrome_path=tmp / "c.json",
                   otel_path=tmp / "o.json")
    out["timeline_combined.json"] = (tmp / "c.json").read_text()
    out["timeline_combined_otel.json"] = (tmp / "o.json").read_text()
    write_timeline(spans, None, chrome_path=tmp / "lc.json",
                   otel_path=tmp / "lo.json")
    out["timeline_lifecycle.json"] = (tmp / "lc.json").read_text()
    out["timeline_lifecycle_otel.json"] = (tmp / "lo.json").read_text()
    return out


NAMES = sorted(p.name for p in GOLDEN.glob("*")) if GOLDEN.exists() else []


def test_golden_set_is_complete(tmp_path):
    assert NAMES == sorted(render(tmp_path))


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_golden_bytes(name, tmp_path):
    assert render(tmp_path)[name] == (GOLDEN / name).read_text()


if __name__ == "__main__":  # regenerate the golden files
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in render(Path(tmp)).items():
            (GOLDEN / name).write_text(text)
            print(f"wrote {GOLDEN / name}")
