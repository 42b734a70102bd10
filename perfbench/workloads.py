"""The three workloads: set-up, seeded inputs, the measured loop and
the correctness checks.

Each workload has one *operation*, the unit a user waits for, and the
end-to-end latency metric is its median (for a closed loop, built part
by part: see :func:`stats.median_by_part`):

* ``paper-sweep`` -- one pass of the sweep: every sampled point's
  simulate-mode ``run()`` call, back to back (closed loop, one client);
* ``halo-bound`` -- one round: the same problem solved with
  execute-mode ``run()`` on the sim, threads and processes backends,
  for both PaRSEC implementations, each grid checked (closed loop,
  one client);
* ``serve-mix`` -- one request to a ``SolverService``, from the time
  it was due to its outcome (open loop, fixed rate).

Every operation can run traced: ``tracer`` opens one root span per
``run()`` call or request, and :func:`layers.instrument` (installed
by the caller) records the layer spans under it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import time
from pathlib import Path

import numpy as np

from . import gen
from .stats import median, median_by_part, tail_percentile

clock = time.perf_counter


def settle() -> None:
    """Collect the previous call's garbage before the next timed call,
    so no call pays for collecting what another one left behind."""
    gc.collect()


#: Fewest repeats of each part of a closed-loop operation, so each
#: part's median can drop a slow repeat.
MIN_REPEATS = 3

#: Sizes of the tiny problems the set-up phase runs once to warm pools
#: and finish lazy imports; they are not the workload's inputs.
WARM_N = 48
WARM_TILE = 24


class FieldInit:
    """Initial values read from a seeded array (a module-level class,
    so a problem stays picklable)."""

    def __init__(self, field: np.ndarray) -> None:
        self.field = field

    def __call__(self, rows, cols):
        return self.field[rows, cols]


def bit_identical(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape and a.dtype == b.dtype
        and a.tobytes() == b.tobytes()
    )


def grid_digest(grid) -> str:
    arr = np.ascontiguousarray(grid)
    return f"{arr.dtype.str}{arr.shape}" + hashlib.sha256(memoryview(arr)).hexdigest()


def machine(name: str, nodes: int):
    from repro.machine.machine import nacl, stampede2

    return {"nacl": nacl, "stampede2": stampede2}[name](nodes)


class Result:
    """What a measured loop produced."""

    def __init__(self) -> None:
        self.op_s: list[float] = []
        #: the reported operation latency; None when no operation succeeded
        self.op_p50_s: float | None = None
        self.op_note = ""
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: failures that are wrong outputs, not errors
        self.wrong = 0
        #: name -> (value, unit, note) lines for the human-readable report
        self.report: dict[str, tuple] = {}

    def fail(self, message: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.errors) < 20:
            self.errors.append(message)


# -- paper-sweep -------------------------------------------------------------


class PaperSweep:
    """Closed loop over passes of the seeded sweep sample."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.points: list[dict] = []

    def setup(self) -> None:
        """Finish lazy imports with one tiny run per implementation and
        pipeline."""
        from repro.core.runner import run
        from repro.stencil.problem import JacobiProblem

        problem = JacobiProblem(n=4 * WARM_TILE, iterations=2)
        for impl in gen.SWEEP_IMPLS:
            for passes in gen.SWEEP_PIPELINES:
                run(problem, impl=impl, machine=machine("nacl", 4),
                    tile=WARM_TILE, steps=2, passes=passes)

    def prepare(self, seconds: float) -> None:
        self.points = gen.sweep_points(self.seed)

    def call(self, point: dict, tracer=None, op=None):
        """One sweep point; returns (seconds, RunResult)."""
        from repro.core.runner import run
        from repro.stencil.problem import JacobiProblem

        problem = JacobiProblem(n=point["n"], iterations=point["iterations"])
        spec = machine(point["machine"], point["nodes"])
        kwargs = dict(
            impl=point["impl"], machine=spec, tile=point["tile"],
            steps=point["steps"], ratio=point["ratio"], mode="simulate",
            passes=point["passes"],
        )
        settle()
        with _maybe_op(tracer, op):
            t0 = clock()
            result = run(problem, **kwargs)
            elapsed = clock() - t0
        return elapsed, result

    @staticmethod
    def check(point: dict, result) -> str | None:
        graph = result.graph
        if result.engine.tasks_run != len(graph):
            return (f"{point}: ran {result.engine.tasks_run} of "
                    f"{len(graph)} tasks")
        census = graph.census().remote_messages
        if result.engine.messages != census:
            return (f"{point}: {result.engine.messages} messages, "
                    f"census says {census}")
        return None

    def measure(self, seconds: float) -> Result:
        """Whole passes over the sample until ``seconds`` are spent.
        The operation is one pass (a whole sweep), and its latency is
        the sum over points of each point's median ``run()`` time.
        Every pass must reproduce the first one's makespan sum."""
        out = Result()
        sums: list[float] = []
        per_point: dict[int, list[float]] = {}
        t_end = clock() + seconds
        while len(sums) < MIN_REPEATS or clock() < t_end:
            makespans = 0.0
            spent = 0.0
            for i, point in enumerate(self.points):
                out.attempted += 1
                try:
                    elapsed, result = self.call(point)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    out.fail(f"{point}: {exc!r}")
                    continue
                per_point.setdefault(i, []).append(elapsed)
                spent += elapsed
                makespans += result.engine.elapsed
                problem = self.check(point, result)
                if problem:
                    out.fail(problem, wrong=True)
            sums.append(makespans)
            out.op_s.append(spent)
        if any(s != sums[0] for s in sums):
            out.fail(f"makespan sum differs between passes: {sums}", wrong=True)
        if per_point:
            out.op_p50_s = median_by_part(per_point)
        out.op_note = (f"n={len(out.op_s)} passes of {len(self.points)} points; "
                       "sum of per-point medians")
        out.report["sweep_s"] = (median(out.op_s), "s", f"n={len(out.op_s)} passes, "
                                 "median of whole passes")
        point_s = [t for values in per_point.values() for t in values]
        if point_s:
            out.report["point_p50_ms"] = (median(point_s) * 1e3, "ms",
                                          f"n={len(point_s)} run() calls")
        out.report["runtime.sim_makespan_sum_s"] = (
            sums[0], "sim_s", "simulated, must repeat exactly")
        return out

    def close(self) -> None:
        pass


# -- halo-bound ----------------------------------------------------------------


HALO_BACKENDS = ("sim", "threads", "processes")


class HaloBound:
    """Closed loop over rounds: one problem on every backend."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs: dict = {}
        self.problem = None
        self.reference = None

    @staticmethod
    def backend_kwargs(backend: str, nodes: int) -> dict:
        """At most two worker threads or processes in total."""
        if backend == "sim":
            return {"backend": "sim", "mode": "execute"}
        if backend == "threads":
            return {"backend": "threads", "jobs": 2}
        return {"backend": "processes", "procs": nodes, "jobs": 1}

    def setup(self) -> None:
        """Finish lazy imports and start each backend once on a tiny
        problem."""
        from repro.core.runner import run
        from repro.stencil.problem import JacobiProblem

        problem = JacobiProblem(n=WARM_N, iterations=2)
        for impl in gen.HALO_IMPLS:
            for backend in HALO_BACKENDS:
                run(problem, impl=impl, machine=machine("nacl", gen.HALO_NODES),
                    tile=WARM_TILE, steps=2,
                    **self.backend_kwargs(backend, gen.HALO_NODES))

    def prepare(self, seconds: float) -> None:
        self.use_inputs(gen.halo_inputs(self.seed))

    def use_inputs(self, inputs: dict) -> None:
        """Build the problem and its reference grid from generated
        inputs."""
        from repro.distgrid.boundary import DirichletBC
        from repro.stencil.problem import JacobiProblem

        self.inputs = inputs
        self.problem = JacobiProblem(
            n=inputs["n"], iterations=inputs["iterations"],
            init=FieldInit(inputs["init"]), bc=DirichletBC(inputs["bc"]),
        )
        self.reference = self.problem.reference_solution()

    def calls(self):
        """The (impl, backend) pairs of one round."""
        return [(impl, backend) for impl in self.inputs["impls"]
                for backend in HALO_BACKENDS]

    def call(self, impl: str, backend: str, tracer=None, op=None, trace=False):
        """One solve; returns (seconds from the call to the grid, RunResult)."""
        from repro.core.runner import run

        nodes = self.inputs["nodes"]
        kwargs = self.backend_kwargs(backend, nodes)
        settle()
        with _maybe_op(tracer, op, impl=impl, backend=backend):
            t0 = clock()
            result = run(
                self.problem, impl=impl, machine=machine("nacl", nodes),
                tile=self.inputs["tile"], steps=self.inputs["steps"],
                trace=trace, **kwargs,
            )
            elapsed = clock() - t0
        return elapsed, result

    def check(self, impl: str, backend: str, result) -> str | None:
        where = f"{impl}/{backend}"
        if result.grid is None or not bit_identical(result.grid, self.reference):
            return f"{where}: grid differs from the reference solution"
        if result.engine.tasks_run != len(result.graph):
            return f"{where}: ran {result.engine.tasks_run} of {len(result.graph)} tasks"
        if backend != "threads":
            census = result.graph.census().remote_messages
            if result.engine.messages != census:
                return f"{where}: {result.engine.messages} messages, census {census}"
        return None

    def measure(self, seconds: float) -> Result:
        out = Result()
        per_call: dict[tuple, list[float]] = {}
        t_end = clock() + seconds
        while len(out.op_s) < MIN_REPEATS or clock() < t_end:
            round_s = 0.0
            for impl, backend in self.calls():
                out.attempted += 1
                try:
                    elapsed, result = self.call(impl, backend)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    out.fail(f"{impl}/{backend}: {exc!r}")
                    continue
                round_s += elapsed
                per_call.setdefault((impl, backend), []).append(elapsed)
                problem = self.check(impl, backend, result)
                if problem:
                    out.fail(problem, wrong=True)
            out.op_s.append(round_s)
        if per_call:
            out.op_p50_s = median_by_part(per_call)
        out.op_note = (f"n={len(out.op_s)} rounds of {len(self.calls())} solves; "
                       "sum of per-solve medians")
        out.report["round_s"] = (median(out.op_s), "s", f"n={len(out.op_s)} rounds, "
                                 "median of whole rounds")
        per_backend = {b: [t for (_, be), values in per_call.items() if be == b
                           for t in values] for b in HALO_BACKENDS}
        for backend, values in per_backend.items():
            key = {"sim": "solve_sim_s", "threads": "solve_threads_s",
                   "processes": "solve_procs_s"}[backend]
            if values:
                out.report[key] = (median(values), "s", f"n={len(values)} solves")
        return out

    def close(self) -> None:
        pass


# -- serve-mix -------------------------------------------------------------------


class ServeMix:
    """Open-loop schedule of tenants' requests into one service."""

    #: problem size of every request in the schedule
    n, tile, iterations = gen.SERVE_N, gen.SERVE_TILE, gen.SERVE_ITERATIONS

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.schedule: dict = {}
        self.service = None

    @staticmethod
    def config(workdir: Path, lifecycle: bool = True):
        from repro.serve import ServiceConfig

        # One runner with two solver threads: workers x jobs <= 2.
        return ServiceConfig(
            workers=1, cache=str(workdir / "cache"),
            dump_dir=str(workdir / "dumps"), lifecycle=lifecycle,
        )

    @classmethod
    def request(cls, problem, tenant: str = "default"):
        from repro.machine.machine import nacl
        from repro.serve import SolveRequest

        # The warm-up problem is smaller than one schedule tile.
        tile = cls.tile if problem.n >= cls.tile else WARM_TILE
        return SolveRequest(
            problem, impl="base-parsec", machine=nacl(4), tile=tile,
            backend="threads", jobs=2, tenant=tenant,
        )

    @classmethod
    def start_service(cls, workdir: Path, lifecycle: bool = True):
        """Start a service, warm its pool slot with one tiny solve and
        empty its result cache again."""
        from repro.serve import SolverService
        from repro.stencil.problem import JacobiProblem

        service = SolverService(cls.config(workdir, lifecycle)).start()
        warm = JacobiProblem(n=WARM_N, iterations=2)
        service.submit(cls.request(warm)).result(timeout=60)
        service.cache.clear()
        return service

    def setup(self) -> None:
        self.service = self.start_service(self.workdir)

    def prepare(self, seconds: float) -> None:
        self.schedule = gen.serve_schedule(self.seed, seconds)

    def problem(self, index: int):
        from repro.distgrid.boundary import DirichletBC
        from repro.stencil.problem import JacobiProblem

        consts = self.schedule["problems"][index]
        return JacobiProblem(
            n=self.n, iterations=self.iterations,
            init=consts["init"], bc=DirichletBC(consts["bc"]),
        )

    def send(self, service, tracer=None, op_prefix="serve"):
        """Send the schedule open-loop; returns per-request records
        ``{"due", "sent", "done", "outcome"|"error", ...}`` in schedule
        order.  Grids are digested while the sender idles, so no run
        keeps every grid alive."""
        from repro.serve import ServeError

        records = []
        pending: list[dict] = []
        # Cache hits share one grid object per entry: digest it once.
        digests: dict[int, tuple] = {}

        def digest_one() -> None:
            rec = pending.pop(0)
            fut = rec.pop("future")
            try:
                outcome = fut.result()
            except Exception as exc:  # noqa: BLE001 - counted, reported
                rec["error"] = repr(exc)
                return
            rec["cached"] = outcome.cached
            grid = outcome.grid
            if grid is None:
                rec["digest"] = None
                return
            if not outcome.cached:
                rec["digest"] = grid_digest(grid)
                return
            known = digests.get(id(grid))
            if known is None or known[0] is not grid:
                known = digests[id(grid)] = (grid, grid_digest(grid))
            rec["digest"] = known[1]

        t0 = clock() + 0.05
        for i, item in enumerate(self.schedule["requests"]):
            due = t0 + item["due"]
            request = self.request(self.problem(item["problem"]), item["tenant"])
            while pending and pending[0]["future"].done() and due - clock() > 0.015:
                digest_one()
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            rec = {"due": due, "hot": item["hot"], "problem": item["problem"],
                   "tenant": item["tenant"], "warmup": item["warmup"]}
            op = f"{op_prefix}:{i}"
            rec["op"] = op
            root = None
            if tracer is not None:
                root = tracer.open_root(op, due, request)
            rec["sent"] = clock()
            try:
                with _under(tracer, op, root):
                    fut = service.submit(request)
            except ServeError as exc:
                rec["error"] = repr(exc)
                rec["done"] = clock()
                if tracer is not None:
                    tracer.close_root(root, rec["done"])
                records.append(rec)
                continue
            rec["submit_s"] = clock() - rec["sent"]

            def done(_fut, rec=rec, root=root):
                rec["done"] = clock()
                if tracer is not None:
                    tracer.close_root(root, rec["done"])

            fut.add_done_callback(done)
            rec["future"] = fut
            records.append(rec)
            pending.append(rec)
        while pending:
            pending[0]["future"].result(timeout=120)
            digest_one()
        return records

    def check(self, records, out: Result) -> None:
        """Every grid, hit or miss, bit-identical to the reference."""
        refs: dict[int, str] = {}
        for rec in records:
            out.attempted += 1
            if "error" in rec:
                out.fail(f"request {rec['op']}: {rec['error']}")
                continue
            index = rec["problem"]
            if index not in refs:
                refs[index] = grid_digest(self.problem(index).reference_solution())
            if rec.get("digest") != refs[index]:
                out.fail(f"request {rec['op']}: grid differs from the reference",
                         wrong=True)

    def measure(self, seconds: float) -> Result:
        out = Result()
        records = self.send(self.service)
        self.check(records, out)
        timed = [r for r in records if not r["warmup"]]
        ok = [r for r in timed if "error" not in r]
        out.op_s = [r["done"] - r["due"] for r in ok]
        if out.op_s:
            out.op_p50_s = median(out.op_s)
        out.op_note = f"n={len(out.op_s)} requests"
        hits = [r["done"] - r["due"] for r in ok if r["cached"]]
        misses = [r["done"] - r["due"] for r in ok if not r["cached"]]
        lag = [r["sent"] - r["due"] for r in timed]
        # A failed or rejected request misses any latency limit.
        everything = out.op_s + [float("inf")] * (len(timed) - len(ok))
        for key, values in (("serve_hit_p50_ms", hits), ("serve_miss_p50_ms", misses)):
            if values:
                out.report[key] = (median(values) * 1e3, "ms", f"n={len(values)}")
        p95 = tail_percentile(everything, 95)
        out.report["serve_p95_ms"] = (
            p95 * 1e3 if p95 is not None else None, "ms",
            f"n={len(everything)}" + ("" if p95 is not None else
                                      ", fewer than 10 samples beyond p95"))
        out.report["generator_lag_p50_ms"] = (median(lag) * 1e3, "ms",
                                              f"max {max(lag) * 1e3:.2f} ms")
        return out

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None


@contextlib.contextmanager
def _maybe_op(tracer, op, **attrs):
    if tracer is None:
        yield
    else:
        with tracer.operation(op, **attrs):
            yield


@contextlib.contextmanager
def _under(tracer, op, root):
    if tracer is None:
        yield
    else:
        with tracer.under(op, root):
            yield
