"""The dataflow core every backend drives.

PaRSEC has one dataflow engine -- count dependencies, route versioned
payloads, coalesce one message per (producer, tag, destination node) --
and only the transport varies.  This module is that bookkeeping,
written once:

* :class:`FlowPlan` and :func:`control_outputs` -- per-graph facts,
  memoised on the finalized graph: each producer's remote messages
  under the one size rule, the local edge tally, and the outputs that
  carry no payload;
* :class:`FlowState` -- one run's state over a scope of tasks: pending
  counts, local release lists, remote waiters, payload refcounts, the
  payload store and the terminal results.

The simulator drives a whole-graph scope with node-split edges, the
thread pool a whole-graph scope with every edge local, and each process
of the process mesh one node's tasks.  The backends add only timing and
transport, so their message counts equal :meth:`TaskGraph.census` by
construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from .task import Task, TaskKey

if TYPE_CHECKING:
    from .graph import TaskGraph


class KernelError(RuntimeError):
    """A task kernel raised during execution; the message carries the
    task identity so distributed failures are debuggable."""


class NodeLostError(KernelError):
    """A node was lost mid-run -- its process died, or a fault plan
    killed it.  Carries the lost node id and the last *complete*
    checkpoint step (None when no checkpoint exists), so a recovery
    layer can restart the remaining iterations on the survivors
    instead of rerunning from scratch.

    Subclasses :class:`KernelError` so every backend's existing
    pass-through of kernel failures propagates it untouched, and it
    pickles across the procs backend's control pipes.
    """

    def __init__(
        self,
        message: str,
        node: int | None = None,
        checkpoint_step: int | None = None,
    ) -> None:
        super().__init__(message)
        self.node = node
        self.checkpoint_step = checkpoint_step

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.node, self.checkpoint_step))


def message_size(producer: Task, tag: str, nbytes: int) -> int:
    """Size of a flow of ``producer``'s output ``tag`` declared with
    ``nbytes``: the larger of that and the producer's ``out_nbytes``.
    A message carries the largest size over the flows it serves."""
    declared = producer.out_nbytes.get(tag, 0)
    return nbytes if nbytes > declared else declared


class FlowPlan:
    """Schedule-independent dataflow facts of one finalized graph.

    Attributes
    ----------
    messages:
        producer key -> ``[(tag, dst node, nbytes)]``: one entry per
        remote message its completion emits.  Consumers on the same
        node share a message (PaRSEC's coalescing), sized by
        :func:`message_size` over their flows.
    local_edges, local_bytes:
        Same-node flows and their declared bytes.
    """

    __slots__ = ("messages", "local_edges", "local_bytes")

    def __init__(self, graph: TaskGraph) -> None:
        tasks = graph.tasks
        sizes: dict[TaskKey, dict[tuple[str, int], int]] = {}
        local_edges = local_bytes = 0
        for task in tasks.values():
            node = task.node
            for flow in task.inputs:
                producer = tasks[flow.producer]
                if producer.node == node:
                    local_edges += 1
                    local_bytes += flow.nbytes
                    continue
                nbytes = message_size(producer, flow.tag, flow.nbytes)
                per_dst = sizes.setdefault(flow.producer, {})
                mkey = (flow.tag, node)
                prev = per_dst.get(mkey)
                if prev is None or nbytes > prev:
                    per_dst[mkey] = nbytes
        self.messages: dict[TaskKey, list[tuple[str, int, int]]] = {
            key: [(tag, dst, nbytes) for (tag, dst), nbytes in per_dst.items()]
            for key, per_dst in sizes.items()
        }
        self.local_edges = local_edges
        self.local_bytes = local_bytes


def control_outputs(graph: TaskGraph) -> frozenset[tuple[TaskKey, str]]:
    """The ``(producer, tag)`` outputs every party sized zero -- pure
    ordering edges (DTD WAR/WAW) whose payload is ``None``.  Read it
    through the graph's memo, :meth:`TaskGraph.control_outputs`."""
    tasks = graph.tasks
    biggest: dict[tuple[TaskKey, str], int] = {}
    for task in tasks.values():
        for flow in task.inputs:
            key = (flow.producer, flow.tag)
            biggest[key] = max(biggest.get(key, 0), flow.nbytes)
    return frozenset(
        (key, tag)
        for key, tags in graph.out_tags.items()
        for tag in tags
        if not message_size(tasks[key], tag, biggest.get((key, tag), 0))
    )


def run_kernel(task: Task, inputs: dict) -> dict:
    """Call ``task.kernel`` (read now: fault injection and profilers
    wrap kernels after the build) and type its failure."""
    if task.kernel is None:
        return {}
    try:
        return dict(task.kernel(inputs, task))
    except KernelError:
        raise
    except Exception as exc:
        raise KernelError(
            f"kernel of task {task.key!r} (kind {task.kind!r}) failed: {exc}"
        ) from exc


class FlowState:
    """One run's dataflow state over a scope of a finalized graph.

    ``FlowState(graph)`` covers every task and splits edges by node
    (the simulator); ``local=True`` treats every edge as local (the
    thread pool); ``node=n`` covers only node ``n``'s tasks, whose
    remote inputs arrive through :meth:`deliver` (a process of the
    process mesh).  ``payloads=False`` skips the payload refcounts of a
    run that executes no kernels.  Not thread-safe: callers hold their
    own lock.
    """

    def __init__(
        self, graph: TaskGraph, node: int | None = None, local: bool = False,
        payloads: bool = True,
    ) -> None:
        self.graph = graph
        self.node = node
        self.out_tags = graph.out_tags
        self.consumers = graph.consumers
        self.tasks: list[Task] = (
            list(graph.tasks.values()) if node is None
            else [t for t in graph.tasks.values() if t.node == node]
        )
        tasks = graph.tasks
        release: dict[TaskKey, list[Task]] = {}
        waiters: dict[tuple[TaskKey, str, int], list[Task]] = {}
        refs: dict[tuple[TaskKey, str], int] = {}
        local_edges = local_bytes = 0
        for task in self.tasks:
            here = task.node
            for flow in task.inputs:
                producer = flow.producer
                if payloads:
                    key = (producer, flow.tag)
                    refs[key] = refs.get(key, 0) + 1
                if local or tasks[producer].node == here:
                    release.setdefault(producer, []).append(task)
                    local_edges += 1
                    local_bytes += flow.nbytes
                else:
                    waiters.setdefault((producer, flow.tag, here), []).append(task)
        #: task -> inputs not yet satisfied (tasks hash by identity,
        #: cheaper than their keys)
        self.pending: dict[Task, int] = {task: len(task.inputs) for task in self.tasks}
        #: producer -> same-scope consumers, one entry per flow
        self.release_lists = release
        #: (producer, tag, node) -> consumers waiting on that message
        self.waiters = waiters
        #: (producer, tag) -> consumers in scope that will read it
        self.refs = refs
        #: (producer, tag) -> [payload, remaining reads]
        self.store: dict[tuple[TaskKey, str], list] = {}
        #: terminal outputs: (producer, tag) nobody consumes
        self.results: dict[tuple[TaskKey, str], Any] = {}
        self.local_edges = local_edges
        self.local_bytes = local_bytes

    def seeds(self) -> list[Task]:
        """The scope's in-degree-0 tasks, in graph order."""
        return [task for task in self.tasks if not task.inputs]

    def gather(self, task: Task) -> dict[tuple[TaskKey, str], Any]:
        """``task``'s input payloads, keyed (producer, tag)."""
        store = self.store
        inputs: dict[tuple[TaskKey, str], Any] = {}
        for flow in task.inputs:
            key = (flow.producer, flow.tag)
            entry = store.get(key)
            if entry is None:
                raise RuntimeError(
                    f"payload {key!r} missing when task {task.key!r} started"
                )
            inputs[key] = entry[0]
        return inputs

    def check(self, task: Task, outputs: dict) -> dict:
        """Hold a kernel's outputs to the contract: every consumed tag
        is produced, control outputs missing from ``outputs`` are
        filled with ``None``, and arrays are frozen so a consumer that
        mutates its input fails loudly.  Needs no lock."""
        expected = self.out_tags.get(task.key, ())
        missing = [tag for tag in expected if tag not in outputs]
        if missing:
            produced = sorted(outputs)
            for tag in missing:
                if (task.key, tag) not in self.graph.control_outputs():
                    raise RuntimeError(
                        f"task {task.key!r} produced tags {produced} but "
                        f"consumers expect {sorted(expected)}"
                    )
                outputs[tag] = None
        for payload in outputs.values():
            if isinstance(payload, np.ndarray):
                payload.setflags(write=False)
        return outputs

    def publish(self, task: Task, outputs: dict) -> None:
        """Store ``task``'s checked outputs for the consumers in scope,
        keep terminal ones as results, and free its inputs."""
        store = self.store
        refs = self.refs
        for tag, payload in outputs.items():
            key = (task.key, tag)
            count = refs.get(key, 0)
            if count:
                store[key] = [payload, count]
            elif key not in self.consumers:
                self.results[key] = payload
        for flow in task.inputs:
            key = (flow.producer, flow.tag)
            entry = store[key]
            entry[1] -= 1
            if not entry[1]:
                del store[key]

    def release(self, producer: TaskKey) -> list[Task]:
        """``producer`` finished: count it off its same-scope consumers
        and return those now ready, in release order."""
        return self._satisfy(self.release_lists.get(producer, ()))

    def deliver(
        self, producer: TaskKey, tag: str, node: int, payload: Any = None
    ) -> list[Task] | None:
        """The message (producer, tag) reached ``node``: keep its
        payload (a one-node scope; a whole-graph scope already holds
        it) and return the consumers now ready -- ``None`` when nobody
        waits on it (a duplicate or a message for another scope)."""
        waiting = self.waiters.pop((producer, tag, node), None)
        if waiting is None:
            return None
        if self.node is not None:
            key = (producer, tag)
            self.store[key] = [payload, self.refs[key]]
        return self._satisfy(waiting)

    def _satisfy(self, consumers) -> list[Task]:
        pending = self.pending
        ready = []
        for consumer in consumers:
            left = pending[consumer] - 1
            pending[consumer] = left
            if not left:
                ready.append(consumer)
        return ready

    def stuck(self) -> list[TaskKey]:
        """Keys of tasks still waiting on inputs."""
        return [task.key for task, left in self.pending.items() if left]


def publish_counts(registry, state: FlowState) -> None:
    """Fold the counts a completed run's graph already knows into
    ``registry``: tasks executed by kind, the graph's task total, and
    the scope's local edges and bytes."""
    kinds: dict[str, int] = {}
    for task in state.tasks:
        kinds[task.kind] = kinds.get(task.kind, 0) + 1
    executed = registry.counter("tasks_executed_total",
                                "tasks executed, by kind", "tasks")
    for kind, count in kinds.items():
        executed.inc(count, kind=kind)
    registry.counter("local_edges_total",
                     "same-node producer-consumer flows", "edges").inc(
        state.local_edges)
    registry.counter("local_bytes_total",
                     "same-node flow payload bytes", "bytes").inc(
        state.local_bytes)
    registry.gauge("tasks_total", "tasks in the executed graph",
                   "tasks").set(len(state.graph))


__all__ = [
    "FlowPlan",
    "FlowState",
    "KernelError",
    "NodeLostError",
    "control_outputs",
    "message_size",
    "publish_counts",
    "run_kernel",
]
