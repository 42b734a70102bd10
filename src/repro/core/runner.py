"""Unified front door: run any of the three implementations.

``run(problem, impl=..., machine=..., ...)`` builds the task graph,
runs it on the selected backend and returns a
:class:`~repro.core.report.RunResult`.  Two orthogonal knobs select
how much is real:

``mode`` -- fidelity of the *simulated* backend:

* ``"simulate"`` -- timing-only graph (no numpy kernels), any problem
  size: this is what the benchmark sweeps use;
* ``"execute"`` -- real kernels on real data (small/medium problems),
  same virtual-clock timing, plus the final grid in ``result.grid``.

``backend`` -- what executes the graph:

* ``"sim"`` -- the discrete-event engine (virtual clock, modelled
  cluster), the default;
* ``"threads"`` -- :class:`repro.exec.ThreadedExecutor`: the same
  graph on ``jobs`` real worker threads of this host, wall-clock
  timing, always with real kernels (``mode`` is ignored).
"""

from __future__ import annotations

from typing import Any

from ..exec.backends import BACKENDS
from ..machine.machine import MachineSpec, nacl
from ..petsclite.cost import SpMVCostModel
from ..runtime.engine import Engine
from ..runtime.scheduler import POLICIES
from ..stencil.cost import KernelCostModel
from ..stencil.problem import JacobiProblem
from .base_parsec import build_base_graph
from .ca_parsec import build_ca_graph
from .petsc_jacobi import build_petsc_graph
from .report import RunResult

IMPLEMENTATIONS = ("petsc", "base-parsec", "ca-parsec")
MODES = ("simulate", "execute")


def default_tile(problem: JacobiProblem, machine: MachineSpec) -> int:
    """A reasonable tile size when the caller does not tune one: aim
    for ~25 tiles per node side-dimension-balanced, clamped to the
    paper's sweet-spot range."""
    import math

    per_node_rows = problem.shape[0] / max(1, math.isqrt(machine.nodes))
    guess = int(per_node_rows // 5) or 1
    return max(1, min(guess, 1024))


def _publish_critpath(metrics, report, graph) -> None:
    """When a run was both instrumented and traced, mirror its causal
    critical-path analysis into the registry (critpath_seconds,
    critpath_ratio, critpath_comm_share, per-blame seconds) and refresh
    the report's snapshot so ``result.metrics`` carries the gauges the
    regression gate tracks."""
    if metrics is None or getattr(report, "trace", None) is None:
        return
    from ..obs.critpath import critical_path, publish_critpath_metrics

    publish_critpath_metrics(metrics, critical_path(report.trace, graph))
    report.metrics = metrics.snapshot()


def _publish_ir_metrics(metrics, report) -> None:
    """Mirror a pipeline's per-pass deltas into the registry so the
    regression gate and ``repro trace-diff`` can prove what each pass
    bought (counters only go up: negative deltas clamp to zero and the
    signed totals live on the gauges)."""
    if metrics is None:
        return
    for p in report.passes:
        labels = {"pass": p.name}
        metrics.counter(
            "ir_pass_applied", help="rewrite passes applied"
        ).inc(1, **labels)
        metrics.counter(
            "ir_pass_tasks_removed", help="tasks removed by rewrite passes"
        ).inc(max(0, p.tasks_removed), **labels)
        metrics.counter(
            "ir_pass_messages_saved",
            help="remote messages removed by rewrite passes",
        ).inc(max(0, p.messages_saved), **labels)
        metrics.counter(
            "ir_pass_local_edges_removed",
            help="local edges internalised by rewrite passes",
        ).inc(max(0, p.local_edges_removed), **labels)
    metrics.gauge(
        "ir_tasks_removed", help="pipeline-total task delta (signed)"
    ).set(report.tasks_removed)
    metrics.gauge(
        "ir_messages_saved", help="pipeline-total remote message delta (signed)"
    ).set(report.messages_saved)
    metrics.gauge(
        "ir_remote_bytes_delta", unit="bytes",
        help="pipeline-total remote byte delta (after - before)",
    ).set(report.after.remote_bytes - report.before.remote_bytes)


def run(
    problem: JacobiProblem,
    impl: str = "base-parsec",
    machine: MachineSpec | None = None,
    tile: int | str | None = None,
    steps: int | str = 15,
    ratio: float = 1.0,
    mode: str = "simulate",
    policy: str = "priority",
    overlap: bool | None = None,
    trace: bool = False,
    boundary_priority: bool = True,
    include_redundant: bool | None = None,
    pgrid=None,
    backend: str = "sim",
    jobs: int | None = None,
    procs: int | None = None,
    tune: bool = False,
    tune_budget: int | None = None,
    tune_backend: str | None = None,
    tune_cache=None,
    tune_seed: int = 0,
    metrics=None,
    on_executor=None,
    executor_factory=None,
    chaos=None,
    passes: str | None = None,
) -> RunResult:
    """Run ``problem`` with one implementation on one machine model.

    Parameters mirror the paper's experiment knobs: ``tile`` (Fig. 6),
    ``steps`` (Fig. 9, CA only), ``ratio`` (Fig. 8's kernel adjustment),
    ``trace`` (Fig. 10).  ``overlap`` defaults to the implementation's
    natural setting: a dedicated comm thread for the PaRSEC versions,
    blocking worker-side MPI for PETSc.  ``backend="threads"`` executes
    the graph for real on ``jobs`` worker threads (defaults to every
    core of this host) and reports wall-clock performance.
    ``backend="processes"`` runs each simulated node as a real OS
    process (``procs`` of them, defaulting to ``machine.nodes``, each
    with ``jobs`` worker threads) and exchanges node-boundary halos as
    real pickled messages over pipes; passing ``procs`` resizes the
    machine so the process count *is* the node count.

    ``tile="auto"`` / ``steps="auto"`` hand the knob to the autotuner
    (:mod:`repro.tuning`): a cached winner for this (machine
    fingerprint, problem, impl) is consumed directly; otherwise
    ``tune=True`` spends ``tune_budget`` runs (default 16) on a
    successive-halving search via ``tune_backend`` (default the
    simulator), while without ``tune`` the resolution falls back to
    the free model-only pick with a warning.  ``tune_cache`` is a
    cache path/object, or ``False`` to disable persistence.

    ``metrics`` accepts a :class:`repro.obs.MetricRegistry`; every
    backend publishes its end-of-run counters/gauges into it and the
    resulting snapshot is exposed as ``result.metrics``.
    ``on_executor`` is called with the live engine/executor just
    before the run starts, so a monitor can poll its ``progress()``.

    ``executor_factory`` is the warm-pool reuse hook for the real
    backends: when given, it is called as ``factory(graph, backend=...,
    jobs=..., procs=..., policy=..., trace=..., metrics=...)`` and must
    return a ready executor (typically a pooled instance re-armed via
    its ``reset()`` contract) instead of this function constructing a
    fresh one.  The simulator builds no pool, so combining a factory
    with ``backend="sim"`` is an error.

    ``chaos`` accepts a :class:`repro.chaos.ChaosContext`: the built
    graph is instrumented in place (fault injection at kernel entry
    and message delivery, grid checkpoints at CA exchange boundaries)
    before the backend runs it.  A fault-free run pays nothing -- the
    backends only consult the context when one is attached.

    ``passes`` rewrites the built graph through the IR pass pipeline
    (:mod:`repro.ir`) before any backend sees it -- e.g.
    ``passes="fuse,coarsen:factor=4"``.  Every pass is verified
    against its declared invariants, the per-pass evidence lands in
    ``result.pass_reports``, and the canonical pipeline spec is
    recorded in ``result.params["passes"]``.  Mutually exclusive with
    ``chaos`` (fault hooks instrument the original kernels, which a
    rewrite may merge away).

    All selector strings are validated here, before any graph is
    built, so a typo fails with the list of choices instead of a
    confusing error deep in graph construction.
    """
    machine = machine or nacl(4)
    if impl not in IMPLEMENTATIONS:
        raise ValueError(f"unknown impl {impl!r}; choices: {IMPLEMENTATIONS}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choices: {MODES}")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choices: {BACKENDS}")
    if policy not in POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; choices: {tuple(sorted(POLICIES))}"
        )
    pass_list = None
    if passes:
        from ..ir import parse_pipeline

        # Parsed up front so a typo fails here, not after the build.
        pass_list = parse_pipeline(passes) or None
    if pass_list is not None and chaos is not None:
        raise ValueError(
            "passes and chaos cannot combine: chaos instruments the "
            "builder's original kernels and checkpoint boundaries, which "
            "a rewrite pass may merge or wrap away"
        )
    if isinstance(tile, str) and tile != "auto":
        raise ValueError(f"tile must be an int, None or 'auto', got {tile!r}")
    if isinstance(steps, str) and steps != "auto":
        raise ValueError(f"steps must be an int or 'auto', got {steps!r}")
    tune_source = None
    if tune or tile == "auto" or steps == "auto":
        if impl == "petsc":
            raise ValueError(
                "autotuning applies to the PaRSEC implementations; "
                "petsc has no tile/step knobs"
            )
        from ..tuning.search import resolve_auto

        budget = tune_budget if tune_budget is not None else (16 if tune else 0)
        tile, steps, tune_info = resolve_auto(
            problem, impl=impl, machine=machine, tile=tile, steps=steps,
            backend=tune_backend or "sim", budget=budget, cache=tune_cache,
            seed=tune_seed, jobs=jobs, metrics=metrics,
        )
        tune_source = tune_info["source"]
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be a positive worker count, got {jobs}")
    if procs is not None:
        if backend != "processes":
            raise ValueError(
                "procs selects the node-process count of backend='processes'; "
                f"it does not apply to backend={backend!r}"
            )
        if procs < 1:
            raise ValueError(f"procs must be a positive process count, got {procs}")
        if procs != machine.nodes:
            machine = machine.with_nodes(procs)
    with_kernels = mode == "execute" or backend in ("threads", "processes")

    params: dict[str, Any] = {"mode": mode, "policy": policy}
    if tune_source is not None:
        params["tune_source"] = tune_source
    if impl == "petsc":
        if ratio != 1.0:
            raise ValueError("the kernel adjustment ratio applies to the "
                             "PaRSEC versions only (paper section VI-D)")
        overlap = False if overlap is None else overlap
        built = build_petsc_graph(
            problem, machine, cost=SpMVCostModel(machine), with_kernels=with_kernels
        )
        params.update(ranks=machine.nodes * machine.node.cores, overlap=overlap)
    else:
        overlap = True if overlap is None else overlap
        tile = tile if tile is not None else default_tile(problem, machine)
        cost = KernelCostModel(
            machine, ratio=ratio, include_redundant=include_redundant
        )
        if impl == "base-parsec":
            built = build_base_graph(
                problem,
                machine,
                tile=tile,
                cost=cost,
                with_kernels=with_kernels,
                boundary_priority=boundary_priority,
                pgrid=pgrid,
            )
            params.update(tile=tile, ratio=ratio, overlap=overlap)
        else:
            built = build_ca_graph(
                problem,
                machine,
                tile=tile,
                steps=steps,
                cost=cost,
                with_kernels=with_kernels,
                boundary_priority=boundary_priority,
                pgrid=pgrid,
            )
            params.update(tile=tile, steps=steps, ratio=ratio, overlap=overlap)

    pipe_report = None
    if pass_list is not None:
        from ..ir import PassContext, PassManager

        manager = PassManager(pass_list)
        ctx = PassContext(
            machine=machine,
            with_kernels=with_kernels,
            ratio=ratio,
            include_redundant=include_redundant,
        )
        built, pipe_report = manager.run(built, ctx)
        params["passes"] = manager.spec
        _publish_ir_metrics(metrics, pipe_report)

    if metrics is not None:
        # The static census is the ground truth the dynamic message
        # counters are judged against (`repro stats` prints both).
        census = built.graph.census()
        metrics.gauge(
            "census_messages", help="remote messages the graph implies"
        ).set(census.remote_messages)
        metrics.gauge(
            "census_message_bytes", unit="bytes",
            help="remote payload the graph implies",
        ).set(census.remote_bytes)

    if executor_factory is not None and backend == "sim":
        raise ValueError(
            "executor_factory is the warm-pool hook of the real backends; "
            "it does not apply to backend='sim'"
        )

    if chaos is not None:
        if not with_kernels:
            raise ValueError(
                "chaos needs executable kernels; use mode='execute' or a "
                "real backend"
            )
        chaos.attach(built, backend=backend, machine=machine)

    if backend == "sim":
        executor = Engine(
            built.graph,
            machine,
            policy=policy,
            execute=with_kernels,
            overlap=overlap,
            trace=trace,
            metrics=metrics,
            chaos=chaos,
        )
    else:
        mesh = {"procs": machine.nodes} if backend == "processes" else {}
        if executor_factory is not None:
            executor = executor_factory(
                built.graph, backend=backend, jobs=jobs, policy=policy,
                trace=trace, metrics=metrics, **mesh,
            )
        else:
            from ..exec import ProcessExecutor, ThreadedExecutor

            executor = (ProcessExecutor if mesh else ThreadedExecutor)(
                built.graph, jobs=jobs, policy=policy, trace=trace,
                metrics=metrics, **mesh,
            )
        params["backend"] = backend
        if mesh:
            if chaos is not None:
                # Forked node processes inherit the context (and its
                # wrapped kernels) in memory; couriers consult it for
                # drop faults and the watcher stamps NodeLostError with
                # the latest checkpoint.
                executor.chaos = chaos
                executor.checkpoint_store = chaos.store
            params["procs"] = executor.procs
        params["jobs"] = executor.jobs
    if on_executor is not None:
        on_executor(executor)
    report = executor.run()
    _publish_critpath(metrics, report, built.graph)
    grid = built.assemble_grid(report.results) if with_kernels else None
    return RunResult(
        impl=impl,
        problem=problem,
        machine=machine,
        engine=report,
        params=params,
        grid=grid,
        graph=built.graph,
        pass_reports=pipe_report,
    )
