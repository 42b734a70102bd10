"""The bounded time-series store (``repro.obs.timeseries``) in
isolation: ingest discipline, ring eviction, the derived signals the
alert engine consumes (increase / rate / ewma / windowed quantiles /
MAD z-scores), the deterministic JSONL export, and the sampler thread
that feeds the store from a live registry.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import MetricRegistry, TelemetrySampler, TimeSeriesStore
from repro.obs.timeseries import SERIES_KIND, read_series_jsonl


def _snap(counter=None, gauge=None, hist=None):
    """One registry snapshot with the given cumulative state."""
    reg = MetricRegistry()
    if counter:
        for labels, value in counter.items():
            reg.counter("req_total").inc(value, **dict(labels))
    if gauge is not None:
        reg.gauge("depth").set(gauge)
    if hist:
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for labels, values in hist.items():
            for v in values:
                h.observe(v, **dict(labels))
    return reg.snapshot()


def _feed(store, frames):
    """Ingest ``frames`` of ``(t, snapshot)`` in order."""
    for t, snap in frames:
        store.observe(snap, t=t, wall=1000.0 + t)


# -- ingest discipline -----------------------------------------------------


def test_capacity_floor_and_monotone_sample_times():
    with pytest.raises(ValueError):
        TimeSeriesStore(capacity=1)
    store = TimeSeriesStore(capacity=4)
    store.observe(_snap(gauge=1.0), t=1.0)
    with pytest.raises(ValueError):
        store.observe(_snap(gauge=2.0), t=1.0)  # same instant
    with pytest.raises(ValueError):
        store.observe(_snap(gauge=2.0), t=0.5)  # going backwards
    store.observe(_snap(gauge=2.0), t=1.5)
    assert len(store) == 2


def test_ring_evicts_but_samples_counts_everything():
    store = TimeSeriesStore(capacity=4)
    for i in range(10):
        store.observe(_snap(gauge=float(i)), t=float(i))
    assert len(store) == 4
    assert store.samples == 10
    assert [t for t, _ in store.points("depth")] == [6.0, 7.0, 8.0, 9.0]
    assert store.latest_time() == 9.0
    assert store.latest("depth") == 9.0


def test_observe_records_live_progress_as_gauges():
    store = TimeSeriesStore()
    snap = _snap(gauge=1.0)
    store.observe(snap, live={"workers": 2, "phase": "solve"}, t=1.0)
    assert store.kind("live_workers") == "gauge"
    assert store.latest("live_workers") == 2.0
    assert "live_phase" not in store.names()  # non-numeric fields dropped


# -- derived signals --------------------------------------------------------


def test_increase_and_rate_over_trailing_window():
    store = TimeSeriesStore()
    _feed(store, [
        (0.0, _snap(counter={(("tenant", "a"),): 10})),
        (1.0, _snap(counter={(("tenant", "a"),): 14})),
        (2.0, _snap(counter={(("tenant", "a"),): 20})),
    ])
    # the series is born inside a 10 s window: its whole cumulative
    # value counts (the counter started from zero inside the window)
    assert store.increase("req_total", 10.0) == 20.0
    assert store.rate("req_total", 10.0) == pytest.approx(10.0)
    # a window that starts after the birth sees only the delta
    assert store.increase("req_total", 1.9) == 6.0
    assert store.rate("req_total", 1.9) == pytest.approx(6.0)
    # labels select one cell; a missing cell is None
    assert store.increase("req_total", 1.9, tenant="a") == 6.0
    assert store.increase("req_total", 10.0, tenant="zz") is None
    with pytest.raises(ValueError):
        store.increase("req_total", 0.0)


def test_counter_born_inside_window_counts_from_zero():
    store = TimeSeriesStore()
    store.observe(_snap(counter={(("tenant", "a"),): 5}), t=0.0)
    reg = MetricRegistry()
    reg.counter("req_total").inc(5, tenant="a")
    reg.counter("req_total").inc(7, tenant="b")  # born at t=10
    store.observe(reg.snapshot(), t=10.0)
    per_cell = store.cell_increases("req_total", 5.0, now=10.0)
    # tenant-b was born inside the window: its cumulative 7 all counts;
    # tenant-a predates the window and did not move inside it
    assert per_cell == {(("tenant", "a"),): 0.0, (("tenant", "b"),): 7.0}
    # a window containing both births counts both from zero
    assert store.increase("req_total", 20.0, now=10.0) == 12.0
    # kind mismatch raises instead of returning a wrong number
    store.observe(_snap(gauge=3.0), t=11.0)
    with pytest.raises(ValueError):
        store.increase("depth", 5.0)


def test_ewma_weights_irregular_intervals():
    store = TimeSeriesStore()
    _feed(store, [
        (0.0, _snap(gauge=0.0)),
        (1.0, _snap(gauge=10.0)),
        (100.0, _snap(gauge=4.0)),  # long gap: old state forgotten
    ])
    smoothed = store.ewma("depth", tau_s=5.0)
    assert smoothed == pytest.approx(4.0, abs=0.01)
    # multi-cell gauges are ambiguous without labels
    reg = MetricRegistry()
    reg.gauge("inflight").set(1, tenant="a")
    reg.gauge("inflight").set(2, tenant="b")
    store.observe(reg.snapshot(), t=101.0)
    with pytest.raises(ValueError):
        store.ewma("inflight")
    assert store.ewma("inflight", tenant="b") == 2.0


def test_window_quantile_sees_only_in_window_observations():
    store = TimeSeriesStore()
    # cumulative states: fast observations early, slow ones late
    _feed(store, [
        (0.0, _snap(hist={(): [0.05, 0.05, 0.05]})),
        (10.0, _snap(hist={(): [0.05, 0.05, 0.05, 5.0, 5.0, 5.0]})),
    ])
    lifetime = store.window_quantile("lat_seconds", 0.5, window_s=100.0)
    recent = store.window_quantile("lat_seconds", 0.5, window_s=5.0)
    # the trailing window holds only the three slow points
    assert recent > 1.0 >= lifetime
    # nothing new in the window -> None, not a stale number
    store.observe(_snap(hist={(): [0.05, 0.05, 0.05, 5.0, 5.0, 5.0]}),
                  t=20.0)
    assert store.window_quantile("lat_seconds", 0.5, window_s=5.0,
                                 now=20.0) is None


def test_window_quantile_merges_labelled_cells():
    store = TimeSeriesStore()
    store.observe(_snap(hist={
        (("tenant", "a"),): [0.05, 0.05],
        (("tenant", "b"),): [5.0, 5.0],
    }), t=1.0)
    merged = store.window_quantile("lat_seconds", 0.75, window_s=10.0)
    only_a = store.window_quantile("lat_seconds", 0.75, window_s=10.0,
                                   tenant="a")
    assert only_a <= 0.1 < 1.0 < merged


def test_mad_z_flags_the_spike_and_tolerates_flat_history():
    store = TimeSeriesStore()
    for i in range(8):
        store.observe(_snap(gauge=2.0 + 0.1 * (i % 2)), t=float(i))
    calm = store.mad_z("depth")
    store.observe(_snap(gauge=50.0), t=8.0)
    spiked = store.mad_z("depth")
    assert abs(calm) < 3.5 < spiked
    # dead-flat history: nothing is anomalous against a flat line
    flat = TimeSeriesStore()
    for i in range(6):
        flat.observe(_snap(gauge=1.0), t=float(i))
    assert flat.mad_z("depth") == 0.0
    # below 4 points the score is undefined
    short = TimeSeriesStore()
    for i in range(3):
        short.observe(_snap(gauge=float(i)), t=float(i))
    assert short.mad_z("depth") is None


def test_mad_z_scores_counters_on_per_interval_increments():
    store = TimeSeriesStore()
    # steady +1/s for 8 samples, then a +50 burst
    for i in range(8):
        store.observe(_snap(counter={(): i}), t=float(i))
    store.observe(_snap(counter={(): 7 + 50}), t=8.0)
    assert store.mad_z("req_total") > 3.5


# -- export / import ---------------------------------------------------------


def test_jsonl_round_trip_is_byte_identical(tmp_path):
    store = TimeSeriesStore(capacity=16)
    _feed(store, [
        (0.0, _snap(counter={(("tenant", "a"),): 1}, gauge=2.0,
                    hist={(): [0.5]})),
        (1.0, _snap(counter={(("tenant", "a"),): 3}, gauge=1.0,
                    hist={(): [0.5, 2.0]})),
    ])
    first = store.to_jsonl(tmp_path / "series.jsonl")
    text = first.read_text()
    header, samples = read_series_jsonl(first)
    assert header["kind"] == SERIES_KIND and len(samples) == 2
    rebuilt = TimeSeriesStore.from_jsonl(first)
    assert rebuilt.to_jsonl(tmp_path / "again.jsonl").read_text() == text
    # derived signals survive the round trip
    assert rebuilt.increase("req_total", 10.0) == store.increase(
        "req_total", 10.0
    )


def test_jsonl_round_trip_keeps_label_sets_with_separator_characters(
    tmp_path,
):
    # Label values are client input (tenants): commas, equals signs
    # and percent signs must survive export + reload unchanged, so a
    # replay sees the same series the live run recorded.
    reg = MetricRegistry()
    odd = ("a,b", "k=v", "50%", "%2C", "plain")
    for tenant in odd:
        reg.counter("slo_requests_total").inc(tenant=tenant, status="ok")
    store = TimeSeriesStore(capacity=4)
    store.observe(reg.snapshot(), t=1.0, wall=1.0)
    path = store.to_jsonl(tmp_path / "series.jsonl")
    rebuilt = TimeSeriesStore.from_jsonl(path)
    assert rebuilt.labelsets("slo_requests_total") == store.labelsets(
        "slo_requests_total"
    )
    assert rebuilt.latest("slo_requests_total", tenant="a,b",
                          status="ok") == 1.0
    assert '"status=ok,tenant=plain": 1' in path.read_text()


def test_read_series_jsonl_rejects_foreign_files(tmp_path):
    bogus = tmp_path / "x.jsonl"
    bogus.write_text('{"kind": "something-else"}\n')
    with pytest.raises(ValueError):
        read_series_jsonl(bogus)
    (tmp_path / "empty.jsonl").write_text("")
    with pytest.raises(ValueError):
        read_series_jsonl(tmp_path / "empty.jsonl")


# -- the sampler --------------------------------------------------------------


def test_sampler_feeds_store_and_fires_on_sample():
    reg = MetricRegistry()
    reg.counter("req_total").inc(3)
    store = TimeSeriesStore()
    seen: list[float] = []
    got_two = threading.Event()

    def on_sample(t: float) -> None:
        seen.append(t)
        if len(seen) >= 2:
            got_two.set()

    sampler = TelemetrySampler(
        reg, store, interval_s=0.02,
        progress=lambda: {"workers": 2}, on_sample=on_sample,
    )
    with sampler:
        assert got_two.wait(5.0)
    # stop() took a final sample on top of the periodic ones
    assert store.samples >= 3
    assert store.latest("req_total") == 3.0
    assert store.latest("live_workers") == 2.0
    assert seen == sorted(seen)  # monotonic sample times
    with pytest.raises(ValueError):
        TelemetrySampler(reg, store, interval_s=0.0)


def test_sampler_survives_progress_failures():
    reg = MetricRegistry()
    store = TimeSeriesStore()

    def bad_progress():
        raise RuntimeError("service tearing down")

    sampler = TelemetrySampler(reg, store, interval_s=0.01,
                               progress=bad_progress)
    assert sampler.sample() is not None
    assert len(store) == 1  # the snapshot still landed, sans live gauges
    assert store.names() == []  # empty registry, no live_* series
