"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload halo-bound --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the program under test is
imported from ``src/`` next to this directory and nowhere else, so a
directory without it fails instead of measuring an installed copy.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the instrumented replay instead and reports the
per-layer metrics, the reconciliation ledger and the tracing overhead;
its spans are written to ``.perfbench-out/``.  Both print a
human-readable report and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Scratch files (the serve result cache, flight-recorder dumps) live in
``.perfbench-work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-sweep", "halo-bound", "serve-mix")
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def bootstrap(workdir: Path) -> None:
    """Import the program from this checkout's ``src/`` and keep every
    scratch file inside the checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}/repro")
    # Drop this script's own directory: its module names must not
    # shadow anything the program imports.
    if sys.path and Path(sys.path[0]).resolve() == HERE:
        sys.path.pop(0)
    sys.path[:0] = [str(src), str(ROOT)]
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    import tempfile

    tempfile.tempdir = str(workdir)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def make_workload(name: str, seed: int, workdir: Path):
    from perfbench import workloads

    if name == "paper-sweep":
        return workloads.PaperSweep(seed)
    if name == "halo-bound":
        return workloads.HaloBound(seed)
    return workloads.ServeMix(seed, workdir)


def probe_main(args) -> int:
    """Child side of a set-up probe: set up, report ready, tear down."""
    workdir = Path(args.workdir)
    bootstrap(workdir)
    wl = make_workload(args.workload, args.seed, workdir)
    try:
        wl.setup()
        print("ready", flush=True)
    finally:
        wl.close()
    return 0


def time_setup(workload: str, workdir: Path) -> list[float]:
    """Wall time from launching a fresh interpreter to the end of its
    set-up, for ``SETUP_PROBES`` interpreters run one after another."""
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe-{i}"
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--workdir", str(probe_dir)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        )
        try:
            if select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                line = proc.stdout.readline()
            else:
                line = ""
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe {i} failed (exit {code})")
        samples.append(ready - t0)
    return samples


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, workdir: Path):
    """``--trace 0``: the end-to-end metrics, no instrumentation."""
    from perfbench.stats import median

    setup = time_setup(args.workload, workdir)
    wl = make_workload(args.workload, args.seed, workdir)
    try:
        wl.setup()
        wl.prepare(args.seconds)
        result = wl.measure(args.seconds)
    finally:
        wl.close()
    if result.op_p50_s is None:
        raise RuntimeError(f"no operation succeeded: {result.errors}")
    metrics = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_p50_ms": (result.op_p50_s * 1e3, "ms"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "op_p50_ms": result.op_note,
    }
    return metrics, notes, result


def print_report(title: str, metrics: dict, notes: dict, extra: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:8s} {notes.get(name, '')}")
    if extra:
        print("  -- detail")
        for name, (value, unit, note) in extra.items():
            shown = "n/a" if value is None else f"{value:14.6g}"
            print(f"  {name:40s} {shown:>14s} {unit:8s} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return probe_main(args)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bootstrap(workdir)
        if args.trace:
            from perfbench import layers

            metrics, notes, result = layers.traced(
                args.workload, args.seed, args.seconds, workdir,
                make_workload(args.workload, args.seed, workdir),
                ROOT / ".perfbench-out",
            )
        else:
            metrics, notes, result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    correct = not result.wrong
    print_report(
        f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: correct={correct} attempted={result.attempted} "
        f"failed={result.failed}",
        metrics, notes, result.report,
    )
    for err in result.errors:
        print(f"  ! {err}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
