"""Command-line interface."""

import json
import re
import time

import pytest

from repro.cli import build_parser, main


def test_machines_lists_presets(capsys):
    assert main(["machines"]) == 0
    out = capsys.readouterr().out
    assert "nacl" in out and "stampede2" in out and "summit-like" in out


def test_run_simulate(capsys):
    rc = main(["run", "--impl", "base-parsec", "--machine", "nacl",
               "--nodes", "4", "--n", "576", "--iterations", "5",
               "--tile", "144"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "GFLOP/s" in out and "base-parsec" in out


def test_run_execute_validates(capsys):
    rc = main(["run", "--impl", "ca-parsec", "--n", "48", "--iterations", "6",
               "--tile", "12", "--steps", "4", "--execute"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max |error| vs reference: 0.000e+00" in out


def test_run_writes_chrome_trace(tmp_path, capsys):
    path = tmp_path / "t.json"
    rc = main(["run", "--n", "288", "--iterations", "4", "--tile", "96",
               "--steps", "4", "--trace-out", str(path)])
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]


def test_validate_command(capsys):
    rc = main(["validate", "--n", "24", "--iterations", "4",
               "--tile", "6", "--steps", "2"])
    assert rc == 0
    assert "OK" in capsys.readouterr().out


def test_experiment_list(capsys):
    assert main(["experiment", "list"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "headlines" in out


def test_experiment_table1(capsys):
    assert main(["experiment", "table1"]) == 0
    out = capsys.readouterr().out
    assert "9,814.2" in out and "paper (MB/s)" in out


def test_experiment_roofline(capsys):
    assert main(["experiment", "roofline"]) == 0
    assert "paper brackets" in capsys.readouterr().out


def test_experiment_unknown():
    with pytest.raises(KeyError):
        main(["experiment", "fig99"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_threads_backend(capsys):
    rc = main(["run", "--impl", "ca-parsec", "--n", "48", "--iterations", "6",
               "--tile", "12", "--steps", "3", "--backend", "threads",
               "--jobs", "2", "--execute"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "worker threads" in out and "ms wall" in out
    assert "max |error| vs reference: 0.000e+00" in out


def test_run_threads_writes_chrome_trace(tmp_path, capsys):
    path = tmp_path / "wall.json"
    rc = main(["run", "--n", "48", "--iterations", "4", "--tile", "12",
               "--steps", "2", "--backend", "threads", "--jobs", "2",
               "--trace-out", str(path)])
    assert rc == 0
    doc = json.loads(path.read_text())
    assert any(e.get("ph") == "X" for e in doc["traceEvents"])


def test_compare_command(capsys):
    rc = main(["compare", "--impl", "ca-parsec", "--n", "32",
               "--iterations", "4", "--tile", "8", "--steps", "2",
               "--jobs", "2", "--curve"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "model ms" in out and "wall ms" in out
    assert "measured strong scaling" in out


# -- live monitoring -----------------------------------------------------


@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_monitor_prints_the_final_sample_after_stop(backend, capsys):
    # The interval outlasts the whole run, so the periodic loop never
    # fires: the one status line is the final sample stop() takes.
    rc = main(["monitor", "--impl", "ca-parsec", "--n", "48",
               "--iterations", "4", "--tile", "12", "--steps", "2",
               "--backend", backend, "--jobs", "2", "--interval", "60"])
    assert rc == 0
    out = capsys.readouterr().out
    status = [line for line in out.splitlines() if line.startswith("t=")]
    assert len(status) == 1
    done = re.search(r"tasks (\d+)/(\d+)", status[0])
    assert done and done.group(1) == done.group(2)
    assert "run summary" in out


def test_run_monitor_samples_periodically_and_once_more_on_stop():
    from repro.obs import RunMonitor

    class Target:
        calls = 0

        def progress(self):
            Target.calls += 1
            return {"done": Target.calls, "total": 1000}

    mon = RunMonitor(interval=0.01)
    with mon:
        mon.attach(Target())
        deadline = time.monotonic() + 10.0
        while len(mon.samples) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
    taken = len(mon.samples)
    assert taken >= 3  # two periodic samples, then the final one
    # the final sample is the last progress() call, made by stop()
    assert mon.samples[-1]["done"] == Target.calls == taken
    time.sleep(0.05)
    assert len(mon.samples) == taken  # the loop is gone after stop()


# -- the serving face ----------------------------------------------------


def test_serve_synthetic_traffic(capsys):
    rc = main(["serve", "--n", "48", "--iterations", "3", "--tile", "12",
               "--requests", "4", "--tenants", "2", "--workers", "2",
               "--interval", "0.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "serve summary" in out
    assert "result cache hit-rate" in out
    assert "tenant-a" in out and "tenant-b" in out
    assert "0 rejected, 0 failed" in out


def test_submit_repeat_hits_disk_cache(tmp_path, capsys):
    args = ["submit", "--n", "48", "--iterations", "3", "--tile", "12",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "served by      cold executor" in first
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "served by      result cache" in second
    assert "tasks executed 0" in second
    # bit-identical signature across invocations (same content key)
    sig_line = [l for l in first.splitlines() if l.startswith("signature")]
    assert sig_line[0] in second


def test_submit_no_cache_always_executes(tmp_path, capsys):
    args = ["submit", "--n", "48", "--iterations", "3", "--tile", "12",
            "--no-cache"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "served by      cold executor" in out


def test_stats_section_serve_writes_and_checks_baseline(tmp_path, capsys):
    base = tmp_path / "serve-base.json"
    rc = main(["stats", "--section", "serve", "--n", "48", "--iterations",
               "3", "--tile", "12", "--impl", "base-parsec",
               "--write-baseline", str(base)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "serve summary" in out and base.exists()
    doc = json.loads(base.read_text())
    assert doc["kind"] == "serve-baseline"
    assert "serve_cache_hit_rate" in doc["metrics"]
    rc = main(["stats", "--section", "serve", "--n", "48", "--iterations",
               "3", "--tile", "12", "--impl", "base-parsec",
               "--check", str(base), "--tolerance", "0.5"])
    out = capsys.readouterr().out
    assert "serve_cache_hit_rate" in out
    assert rc == 0


def _recorded_series(tmp_path):
    """A small synthetic series: queue depth spikes, then drains."""
    from repro.obs import MetricRegistry, TimeSeriesStore

    store = TimeSeriesStore(capacity=64)
    for i, depth in enumerate([0, 1, 0, 1, 0, 1, 0, 12, 12, 0, 0, 0]):
        reg = MetricRegistry()
        reg.gauge("serve_queue_depth").set(depth)
        reg.counter("serve_jobs_submitted_total").inc(i + 1)
        reg.counter("slo_requests_total").inc(i + 1, tenant="a",
                                              status="ok")
        store.observe(reg.snapshot(), t=float(i), wall=100.0 + i)
    return store.to_jsonl(tmp_path / "series.jsonl")


def test_alerts_replay_is_byte_identical(tmp_path, capsys):
    series = _recorded_series(tmp_path)
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": [{
        "name": "queue-deep", "metric": "serve_queue_depth",
        "signal": "latest", "op": ">", "threshold": 5.0,
    }]}))

    def replay(log_name):
        rc = main(["alerts", "--series", str(series), "--rules",
                   str(rules), "--log-out", str(tmp_path / log_name)])
        assert rc == 0
        return (tmp_path / log_name).read_text()

    first = replay("a.jsonl")
    out = capsys.readouterr().out
    assert "ALERT queue-deep" in out and "inactive -> firing" in out
    assert "firing -> resolved" in out
    assert "2 transitions (1 firing, 1 resolved)" in out
    # a second replay of the same series is byte-identical
    assert replay("b.jsonl") == first
    events = [json.loads(line) for line in first.splitlines()]
    assert [e["to"] for e in events] == ["firing", "resolved"]


def test_alerts_replay_rejects_foreign_series(tmp_path):
    bogus = tmp_path / "x.jsonl"
    bogus.write_text('{"kind": "not-a-series"}\n')
    with pytest.raises(ValueError):
        main(["alerts", "--series", str(bogus)])


def test_top_renders_a_recorded_series(tmp_path, capsys):
    series = _recorded_series(tmp_path)
    assert main(["top", "--series", str(series)]) == 0
    out = capsys.readouterr().out
    assert "repro top" in out and "queue depth" in out
    assert "requests/s" in out
