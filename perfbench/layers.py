"""The traced run: per-layer metrics, the reconciliation ledger and the
cost of tracing itself.

Layers are timed from outside: :func:`instrument` wraps the public
functions each layer exposes -- the graph builders and
``BuildResult.assemble_grid`` (``core``), ``PassManager.run`` (``ir``),
``Engine.run`` (``runtime``), ``ThreadedExecutor.run`` and
``ProcessExecutor.run`` (``exec``), ``SolverService.submit``,
``SolveRequest.signature``, ``ResultCache.get``/``put`` and
``execute_request`` (``serve``), the ``LifecycleTracer`` hooks
(``obs``) -- and every built task's kernel callable (``stencil``).
The wrappers are installed only around traced operations, so the
untraced operations of the same run are the program as shipped.

A workload that bypasses a layer cannot time it, so every traced run
also replays the *other* workloads at a small scale ("probes", built
from the same seed); the per-layer metrics of bypassed layers come
from those probes, and the report marks them.  The ledger rows
(``*.wall_share``, ``unattributed_share``) and the overhead metrics
always describe the workload itself.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from pathlib import Path

import numpy as np

from . import gen
from .spans import (KERNEL, LAYERS, Tracer, children_index, ledger, ledger_shares,
                    patch, self_time)
from .stats import median
from .workloads import HaloBound, PaperSweep, Result, ServeMix, clock

#: Every per-layer metric and its unit, in report order.
PER_LAYER = {
    "stencil.kernel_gflops": "GFLOP/s",
    "stencil.kernel_flop_per_byte": "flop/B",
    "stencil.kernel_bytes_per_call": "B",
    "stencil.kernel_s": "s",
    "stencil.kernel_us_per_task": "us",
    "stencil.kernel_share": "ratio",
    "core.build_s": "s",
    "core.build_tasks_per_s": "1/s",
    "core.assemble_s": "s",
    "core.wall_share": "ratio",
    "ir.pass_s.fuse": "s",
    "ir.pass_s.coarsen": "s",
    "ir.pass_s.latency": "s",
    "ir.verify_s": "s",
    "ir.tasks_removed": "count",
    "ir.messages_saved": "count",
    "ir.wall_share": "ratio",
    "runtime.sim_tasks_per_s": "1/s",
    "runtime.overhead_us_per_task": "us",
    "runtime.messages": "count",
    "runtime.sim_makespan_sum_s": "sim_s",
    "runtime.wall_share": "ratio",
    "exec.threads_overhead_us_per_task": "us",
    "exec.threads_occupancy": "ratio",
    "exec.procs_overhead_us_per_task": "us",
    "exec.procs_messages": "count",
    "exec.procs_wire_bytes": "B",
    "exec.procs_comm_us_per_message": "us",
    "exec.wall_share": "ratio",
    "serve.submit_hit_ms": "ms",
    "serve.submit_miss_ms": "ms",
    "serve.signature_ms": "ms",
    "serve.cache_get_ms": "ms",
    "serve.cache_put_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.batch_jobs_mean": "jobs",
    "serve.cache_hit_ratio": "ratio",
    "serve.wall_share": "ratio",
    "obs.lifecycle_overhead_pct": "%",
    "obs.trace_overhead_pct": "%",
    "obs.wall_share": "ratio",
    "bench.wall_share": "ratio",
    "unattributed_share": "ratio",
}

# -- instrumentation ---------------------------------------------------------


def _timed(tracer: Tracer, name: str, after=None):
    """Wrapper factory: run the original inside a ``name`` span of the
    calling thread's operation; ``after(span, result)`` may add
    attributes."""

    def factory(original):
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
                if span is not None and after is not None:
                    after(span, result)
            return result

        return wrapper

    return factory


def _traced_build(tracer: Tracer):
    def factory(original):
        def wrapper(*args, **kwargs):
            with tracer.span("core.build") as span:
                built = original(*args, **kwargs)
            if span is not None:
                span[5]["tasks"] = len(built.graph)
                with tracer.span("bench.wrap_kernels"):
                    tracer.wrap_kernels(built.graph)
            return built

        return wrapper

    return factory


def _engine_attrs(span, report) -> None:
    span[5].update(tasks=report.tasks_run, messages=report.messages,
                   makespan=report.elapsed)


def _passes_attrs(span, result) -> None:
    _, report = result
    pass_s: dict[str, float] = defaultdict(float)
    for p in report.passes:
        pass_s[p.name] += p.elapsed_s
    span[5].update(pass_s=dict(pass_s), tasks_removed=report.tasks_removed,
                   messages_saved=report.messages_saved)


def _threads_attrs(span, report) -> None:
    span[5].update(tasks=report.tasks_run, occupancy=report.worker_occupancy)


def _traced_procs(tracer: Tracer):
    """``ProcessExecutor.run``: kernels run in the node processes, out
    of reach of the kernel wrappers, so their spans come from the
    executor's own trace (compute lanes), placed on this process's
    clock from the call's start; the comm lanes give the per-message
    cost."""

    def factory(original):
        def wrapper(self, *args, **kwargs):
            with tracer.span("exec.procs") as span:
                report = original(self, *args, **kwargs)
                if span is not None:
                    comm = 0.0
                    if report.trace is not None:
                        op, sid = tracer.current()
                        for s in report.trace.compute_spans():
                            tracer.record(KERNEL, span[1] + s.start,
                                          span[1] + s.end, sid, op)
                        comm = sum(s.duration for s in report.trace.comm_spans())
                    span[5].update(tasks=report.tasks_run, messages=report.messages,
                                   wire_bytes=report.wire_bytes, comm_s=comm)
            return report

        return wrapper

    return factory


def _serve_hooks(tracer: Tracer, stack: contextlib.ExitStack) -> None:
    """Serve-side wrappers.  Work a request causes on the service's
    runner thread is found again through the request object (execute)
    or its signature / lifecycle trace id (cache writes, lifecycle
    calls made after the execution)."""
    from repro.obs.lifecycle import LifecycleTracer
    from repro.serve import pool as serve_pool
    from repro.serve.cache import ResultCache
    from repro.serve.request import SolveRequest
    from repro.serve.service import SolverService

    by_key: dict = {}  # signature or trace id -> (op, root index)

    def execute(original):
        def wrapper(request, *args, **kwargs):
            found = tracer.lookup(request)
            if found is None:
                return original(request, *args, **kwargs)
            op, root = found
            with tracer.under(op, root), tracer.span("serve.execute"):
                outcome = original(request, *args, **kwargs)
            by_key[outcome.signature] = found
            return outcome

        return wrapper

    def resolved(name, key_of):
        """A span on this thread's operation, or on the operation
        ``key_of(args)`` names when the thread is outside one."""

        def factory(original):
            def wrapper(*args, **kwargs):
                found = None if tracer.current() else by_key.get(key_of(args))
                with contextlib.ExitStack() as inner:
                    if found is not None:
                        inner.enter_context(tracer.under(*found))
                    inner.enter_context(tracer.span(name))
                    return original(*args, **kwargs)

            return wrapper

        return factory

    def remember_trace(original):
        def wrapper(*args, **kwargs):
            with tracer.span("obs.lifecycle"):
                trace_id = original(*args, **kwargs)
            top = tracer.current()
            if top is not None:
                by_key[trace_id] = (top[0], _root_of(tracer, top[1]))
            return trace_id

        return wrapper

    def trace_key(args):
        return args[1] if len(args) > 1 else None

    def adopted_key(args):
        spans = args[1] if len(args) > 1 else None
        return spans[0].trace_id if isinstance(spans, list) and spans else None

    patch(stack, serve_pool, "execute_request", execute)
    patch(stack, SolverService, "submit", _timed(tracer, "serve.submit"))
    patch(stack, SolveRequest, "signature", _timed(tracer, "serve.signature"))
    patch(stack, ResultCache, "get", _timed(tracer, "serve.cache_get"))
    patch(stack, ResultCache, "put", resolved("serve.cache_put", trace_key))
    patch(stack, LifecycleTracer, "begin", remember_trace)
    patch(stack, LifecycleTracer, "span", resolved("obs.lifecycle", trace_key))
    patch(stack, LifecycleTracer, "finish", resolved("obs.lifecycle", trace_key))
    patch(stack, LifecycleTracer, "adopt", resolved("obs.lifecycle", adopted_key))


def _root_of(tracer: Tracer, sid: int) -> int:
    while tracer.spans[sid][3] is not None:
        sid = tracer.spans[sid][3]
    return sid


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install every layer wrapper until the block exits."""
    from repro.core import dataflow, runner
    from repro.exec.executor import ThreadedExecutor
    from repro.exec.procs import ProcessExecutor
    from repro.ir import PassManager
    from repro.runtime.engine import Engine

    with contextlib.ExitStack() as stack:
        for builder in ("build_base_graph", "build_ca_graph", "build_petsc_graph"):
            patch(stack, runner, builder, _traced_build(tracer))
        patch(stack, PassManager, "run", _timed(tracer, "ir.passes", _passes_attrs))
        patch(stack, Engine, "run", _timed(tracer, "runtime.engine", _engine_attrs))
        patch(stack, ThreadedExecutor, "run",
              _timed(tracer, "exec.threads", _threads_attrs))
        patch(stack, ProcessExecutor, "run", _traced_procs(tracer))
        patch(stack, dataflow.BuildResult, "assemble_grid",
              _timed(tracer, "core.assemble"))
        _serve_hooks(tracer, stack)
        yield


# -- metrics from spans ----------------------------------------------------------


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else None


def layer_metrics(spans, passes: int = 1) -> dict:
    """Per-layer metrics of every layer the spans show working.
    Counts are per pass over the workload's operations."""
    children = children_index(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[2] is not None:
            by_name[span[0]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def attr(i, key, default=0):
        return spans[i][5].get(key, default)

    out: dict = {}
    kernels = by_name.get(KERNEL, [])
    if kernels:
        per_op: dict = defaultdict(float)
        for i in kernels:
            per_op[spans[i][4]] += dur(i)
        out["stencil.kernel_s"] = _mean(per_op.values())
        out["stencil.kernel_us_per_task"] = sum(map(dur, kernels)) / len(kernels) * 1e6
    builds = by_name.get("core.build", [])
    if builds:
        out["core.build_s"] = _mean(map(dur, builds))
        out["core.build_tasks_per_s"] = (
            sum(attr(i, "tasks") for i in builds) / sum(map(dur, builds)))
    if by_name.get("core.assemble"):
        out["core.assemble_s"] = _mean(map(dur, by_name["core.assemble"]))
    pipelines = by_name.get("ir.passes", [])
    if pipelines:
        pass_s: dict[str, list[float]] = defaultdict(list)
        verify = []
        for i in pipelines:
            for name, s in attr(i, "pass_s", {}).items():
                pass_s[name].append(s)
            verify.append(dur(i) - sum(attr(i, "pass_s", {}).values()))
        for name, values in pass_s.items():
            out[f"ir.pass_s.{name}"] = _mean(values)
        out["ir.verify_s"] = _mean(verify)
        out["ir.tasks_removed"] = sum(attr(i, "tasks_removed") for i in pipelines) / passes
        out["ir.messages_saved"] = sum(attr(i, "messages_saved") for i in pipelines) / passes
    engines = by_name.get("runtime.engine", [])
    if engines:
        tasks = sum(attr(i, "tasks") for i in engines)
        out["runtime.sim_tasks_per_s"] = tasks / sum(map(dur, engines))
        out["runtime.overhead_us_per_task"] = (
            sum(self_time(spans, i, children) for i in engines) / tasks * 1e6)
        out["runtime.messages"] = sum(attr(i, "messages") for i in engines) / passes
        out["runtime.sim_makespan_sum_s"] = (
            sum(attr(i, "makespan") for i in engines) / passes)
    threads = by_name.get("exec.threads", [])
    if threads:
        tasks = sum(attr(i, "tasks") for i in threads)
        out["exec.threads_overhead_us_per_task"] = (
            sum(self_time(spans, i, children) for i in threads) / tasks * 1e6)
        out["exec.threads_occupancy"] = _mean(attr(i, "occupancy") for i in threads)
    procs = by_name.get("exec.procs", [])
    if procs:
        tasks = sum(attr(i, "tasks") for i in procs)
        messages = sum(attr(i, "messages") for i in procs)
        out["exec.procs_overhead_us_per_task"] = (
            sum(self_time(spans, i, children) for i in procs) / tasks * 1e6)
        out["exec.procs_messages"] = messages / passes
        out["exec.procs_wire_bytes"] = sum(attr(i, "wire_bytes") for i in procs) / passes
        if messages:
            out["exec.procs_comm_us_per_message"] = (
                sum(attr(i, "comm_s") for i in procs) / messages * 1e6)
    for name, key in (("serve.signature", "serve.signature_ms"),
                      ("serve.cache_get", "serve.cache_get_ms"),
                      ("serve.cache_put", "serve.cache_put_ms"),
                      ("serve.queue_wait", "serve.queue_wait_ms"),
                      ("serve.execute", "serve.exec_ms")):
        if by_name.get(name):
            out[key] = _mean(map(dur, by_name[name])) * 1e3
    submits = by_name.get("serve.submit", [])
    if submits:
        roots = {spans[i][4]: i for i in by_name.get("op", ())}
        for cached, key in ((True, "serve.submit_hit_ms"), (False, "serve.submit_miss_ms")):
            values = [dur(i) for i in submits if spans[i][4] in roots
                      and spans[roots[spans[i][4]]][5].get("cached") is cached]
            if values:
                out[key] = _mean(values) * 1e3
    return out


def ledger_metrics(rows: dict) -> dict:
    shares = ledger_shares(rows)
    out = {f"{layer}.wall_share": shares[layer] for layer in LAYERS if layer != "stencil"}
    out["stencil.kernel_share"] = shares["stencil"]
    out["unattributed_share"] = shares["unattributed"]
    return out


# -- kernel roofline context --------------------------------------------------------


def kernel_metrics(shapes, seconds_per_shape: float = 0.3) -> dict:
    """``jacobi_update_region`` at each tile shape: achieved GFLOP/s
    (median over repetitions) and the *computed* compulsory traffic --
    read the (h+2) x (w+2) extended tile once, write h x w results --
    with its flop/byte.  Cache misses and numpy temporaries are not in
    the computed bytes.  No STREAM ratio: a bandwidth measurement needs
    arrays four times the last-level cache, and four times the 300 MiB
    L3 of the benchmark host does not fit its shared 7 GB."""
    from repro.stencil.kernels import (FLOP_PER_POINT, StencilWeights,
                                       jacobi_update_region)

    weights = StencilWeights.laplace_jacobi()
    rng = np.random.default_rng(0)
    gflops, intensity, nbytes = [], [], []
    for h, w in sorted(set(shapes)):
        ext = rng.random((h + 2, w + 2))
        rows, cols = slice(1, h + 1), slice(1, w + 1)
        calls = max(1, int(2e6 / (h * w)))
        samples = []
        t_end = clock() + seconds_per_shape
        while len(samples) < 5 or clock() < t_end:
            t0 = clock()
            for _ in range(calls):
                jacobi_update_region(ext, weights, rows, cols)
            samples.append(clock() - t0)
        flops = FLOP_PER_POINT * h * w
        gflops.append(flops * calls / median(samples) / 1e9)
        moved = 8 * ((h + 2) * (w + 2) + h * w)  # float64
        nbytes.append(moved)
        intensity.append(flops / moved)
    return {
        "stencil.kernel_gflops": median(gflops),
        "stencil.kernel_flop_per_byte": median(intensity),
        "stencil.kernel_bytes_per_call": median(nbytes),
    }


# -- traced replays -------------------------------------------------------------------


def _paired(untraced, traced, index: int):
    """Run one operation untraced and traced, alternating which goes
    first; returns (untraced result, traced result)."""
    if index % 2:
        b = traced()
        a = untraced()
    else:
        a = untraced()
        b = traced()
    return a, b


def replay_sweep(wl: PaperSweep, tracer: Tracer, out: Result, paired: bool) -> dict:
    """One traced pass over the sample (each point also run untraced
    right before or after, when ``paired``); the traced pass must
    reproduce the untraced makespan sum exactly."""
    plain_s = traced_s = 0.0
    sums = [0.0, 0.0]
    for i, point in enumerate(wl.points):
        op = f"sweep:{i}"

        def traced(point=point, op=op):
            with instrument(tracer):
                return wl.call(point, tracer, op)

        try:
            if paired:
                (pe, pr), (te, tr) = _paired(lambda: wl.call(point), traced, i)
                plain_s += pe
                sums[0] += pr.engine.elapsed
            else:
                te, tr = traced()
        except Exception as exc:  # noqa: BLE001 - counted, reported
            out.attempted += 1
            out.fail(f"{point}: {exc!r}")
            continue
        out.attempted += 1
        traced_s += te
        sums[1] += tr.engine.elapsed
        problem = wl.check(point, tr)
        if problem:
            out.fail(problem, wrong=True)
    if paired and sums[0] != sums[1]:
        out.fail(f"traced makespan sum {sums[1]} != untraced {sums[0]}", wrong=True)
    return {"plain_s": plain_s, "traced_s": traced_s}


def replay_halo(wl: HaloBound, tracer: Tracer, out: Result, paired: bool,
                seconds: float = 0.0) -> dict:
    """Traced rounds until ``seconds`` are spent (at least one); the
    processes backend runs with its trace on, which gives the kernel
    and comm-lane spans."""
    plain_s = traced_s = 0.0
    sums = []
    t_end = clock() + seconds
    r = -1
    while r < 0 or clock() < t_end:
        r += 1
        makespans = 0.0
        for j, (impl, backend) in enumerate(wl.calls()):
            op = f"halo:{r}:{impl}:{backend}"
            want_trace = backend == "processes"

            def traced(impl=impl, backend=backend, op=op, want_trace=want_trace):
                with instrument(tracer):
                    return wl.call(impl, backend, tracer, op, trace=want_trace)

            out.attempted += 1
            try:
                if paired:
                    (pe, _), (te, tr) = _paired(
                        lambda impl=impl, backend=backend: wl.call(impl, backend),
                        traced, r + j)
                    plain_s += pe
                else:
                    te, tr = traced()
            except Exception as exc:  # noqa: BLE001 - counted, reported
                out.fail(f"{impl}/{backend}: {exc!r}")
                continue
            traced_s += te
            if backend == "sim":
                makespans += tr.engine.elapsed
            problem = wl.check(impl, backend, tr)
            if problem:
                out.fail(problem, wrong=True)
        sums.append(makespans)
    if any(s != sums[0] for s in sums):
        out.fail(f"sim makespan sum differs between rounds: {sums}", wrong=True)
    return {"plain_s": plain_s, "traced_s": traced_s, "rounds": r + 1}


def _post_serve_spans(tracer: Tracer, records) -> None:
    """Queue wait (submit returned -> execution began) and generator
    lag (due -> sent) as spans, once every request is finished."""
    ops = {r["op"]: r for r in records}
    first: dict = {}
    for i, span in enumerate(tracer.spans):
        if span[4] in ops and span[0] in ("serve.submit", "serve.execute", "op"):
            first.setdefault((span[4], span[0]), i)
    for op, rec in ops.items():
        root = first.get((op, "op"))
        if root is None:
            continue
        tracer.spans[root][5]["cached"] = rec.get("cached")
        tracer.record("bench.generator_lag", rec["due"], rec["sent"], root, op)
        sub, exe = first.get((op, "serve.submit")), first.get((op, "serve.execute"))
        if sub is not None and exe is not None:
            start, end = tracer.spans[sub][2], tracer.spans[exe][1]
            if end > start:
                tracer.record("serve.queue_wait", start, end, root, op)


def lifecycle_overhead(wl: ServeMix, workdir: Path, pairs: int = 20,
                       repeats: int = 12) -> float:
    """Paired, interleaved hit-stream repetitions against two services
    that differ only in ``lifecycle``: the median over pairs of
    (on / off - 1), in percent, with no absolute slack."""
    services = {
        on: ServeMix.start_service(workdir / f"lifecycle-{int(on)}", lifecycle=on)
        for on in (True, False)
    }
    try:
        hot = range(min(gen.SERVE_HOT_SET, len(wl.schedule["problems"])))
        problems = [wl.problem(i) for i in hot]
        for svc in services.values():
            for p in problems:
                svc.submit(wl.request(p)).result(timeout=120)

        def stream(svc) -> float:
            t0 = clock()
            for _ in range(repeats):
                for p in problems:
                    outcome = svc.submit(wl.request(p)).result()
                    if not outcome.cached:
                        raise RuntimeError("hit stream missed the cache")
            return clock() - t0

        ratios = []
        for i in range(pairs):
            order = (True, False) if i % 2 else (False, True)
            times = {on: stream(services[on]) for on in order}
            ratios.append(times[True] / times[False] - 1.0)
        return median(ratios) * 100.0
    finally:
        for svc in services.values():
            svc.stop()


def _timed_latency(records) -> float:
    """Summed latency of the requests past the warm-up."""
    return sum(r["done"] - r["due"] for r in records
               if not r["warmup"] and "error" not in r)


def replay_serve(wl: ServeMix, tracer: Tracer, out: Result, workdir: Path,
                 paired: bool) -> dict:
    """The schedule against a fresh service traced (and, when
    ``paired``, first against another fresh service untraced); every
    grid is checked in both."""
    result = {}
    if paired:
        svc = ServeMix.start_service(workdir / "plain")
        try:
            records = wl.send(svc)
        finally:
            svc.stop()
        wl.check(records, out)
        result["plain_s"] = _timed_latency(records)
    svc = ServeMix.start_service(workdir / "traced")
    try:
        with instrument(tracer):
            records = wl.send(svc, tracer, op_prefix="serve")
        stats = svc.metrics
        batches = stats.get("serve_batches_total")
        jobs = stats.get("serve_batched_jobs_total")
        if batches is not None and batches.total():
            result["serve.batch_jobs_mean"] = jobs.total() / batches.total()
    finally:
        svc.stop()
    wl.check(records, out)
    _post_serve_spans(tracer, records)
    ok = [r for r in records if "error" not in r]
    result["traced_s"] = _timed_latency(records)
    result["serve.cache_hit_ratio"] = sum(1 for r in ok if r["cached"]) / max(1, len(records))
    result["obs.lifecycle_overhead_pct"] = lifecycle_overhead(wl, workdir)
    return result


# -- orchestration ------------------------------------------------------------------------


class _SmallServe(ServeMix):
    """serve-mix at probe scale: a short schedule of small solves."""

    n, tile, iterations = 192, 96, 8


def _small_sweep(seed: int) -> PaperSweep:
    wl = PaperSweep(seed)
    wl.prepare(0)
    picked = {}
    for point in wl.points:
        picked.setdefault(point["passes"], point)
    wl.points = []
    for point in picked.values():
        small = dict(point, n=6 * point["tile"], iterations=6,
                     steps=min(point["steps"], 3))
        if small["impl"] == "petsc":
            small["iterations"] = 2
        wl.points.append(small)
    return wl


def _small_halo(seed: int) -> HaloBound:
    wl = HaloBound(seed)
    inputs = gen.halo_inputs(seed)
    n = 4 * inputs["tile"]
    wl.use_inputs(dict(inputs, n=n, iterations=8, init=inputs["init"][:n, :n]))
    return wl


def _tile_shapes(workload: str, wl) -> list[tuple[int, int]]:
    if workload == "paper-sweep":
        return [(p["tile"], p["tile"]) for p in wl.points if p["impl"] != "petsc"]
    if workload == "halo-bound":
        return [(gen.HALO_TILE, gen.HALO_TILE)]
    return [(gen.SERVE_TILE, gen.SERVE_TILE)]


def traced(workload: str, seed: int, seconds: float, workdir: Path, wl,
           outdir: Path):
    """``--trace 1``: replay the workload instrumented, probe the
    layers it bypasses, and report every per-layer metric."""
    out = Result()
    own = Tracer()
    wl.prepare(seconds)
    if workload == "paper-sweep":
        wl.setup()
        times = replay_sweep(wl, own, out, paired=True)
        passes = 1
    elif workload == "halo-bound":
        wl.setup()
        times = replay_halo(wl, own, out, paired=True, seconds=seconds)
        passes = times["rounds"]
    else:
        # The replay starts (and warms) its own services.
        times = replay_serve(wl, own, out, workdir, paired=True)
        passes = 1

    # Probes: the other workloads at small scale, same seed.
    probe = Tracer()
    probe_out = Result()
    extra_metrics = {}
    if workload != "paper-sweep":
        replay_sweep(_small_sweep(seed), probe, probe_out, paired=False)
    if workload != "halo-bound":
        replay_halo(_small_halo(seed), probe, probe_out, paired=False)
    if workload != "serve-mix":
        small = _SmallServe(seed, workdir)
        small.prepare(2.0)
        served = replay_serve(small, probe, probe_out, workdir / "probe", paired=False)
        extra_metrics.update({k: v for k, v in served.items() if "." in k})
    out.attempted += probe_out.attempted
    out.failed += probe_out.failed
    out.wrong += probe_out.wrong
    out.errors += probe_out.errors

    metrics = {}
    metrics.update(extra_metrics)
    metrics.update(layer_metrics(probe.spans))
    sourced = {k: "probe" for k in metrics}
    own_metrics = layer_metrics(own.spans, passes=passes)
    own_metrics.update({k: v for k, v in times.items() if "." in k})
    rows = ledger(own.spans)
    own_metrics.update(ledger_metrics(rows))
    own_metrics.update(kernel_metrics(_tile_shapes(workload, wl)))
    if times.get("plain_s"):
        own_metrics["obs.trace_overhead_pct"] = (
            (times["traced_s"] - times["plain_s"]) / times["plain_s"] * 100.0)
    metrics.update(own_metrics)
    sourced.update({k: "workload" for k in own_metrics})

    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"spans-{workload}-seed{seed}.jsonl"
    own.write_jsonl(path)
    missing = [k for k in PER_LAYER if k not in metrics]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    out.report["ledger.wall_s"] = (rows["wall"], "s", "summed operation wall time, traced")
    for layer in (*LAYERS, "unattributed"):
        out.report[f"ledger.{layer}_s"] = (rows[layer], "s", "")
    out.report["spans"] = (len(own.spans), "count", str(path.relative_to(outdir.parent)))
    notes = {k: f"({sourced[k]})" for k in PER_LAYER}
    return {k: (metrics[k], PER_LAYER[k]) for k in PER_LAYER}, notes, out
