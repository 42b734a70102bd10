"""In-memory spans recorded around calls into the program's layers,
and the reconciliation ledger built from them.

A span is ``[name, start, end, parent, op, attrs]``: ``name`` is
``"<layer>.<what>"`` with the layer one of the program's modules
(``stencil``, ``core``, ``ir``, ``runtime``, ``exec``, ``serve``,
``obs``) or ``bench`` for the benchmark's own time; ``parent`` is the
index of the enclosing span (None for an operation's root span,
named ``"op"``); ``op`` is one id per ``run()`` call or request.
Times are ``time.perf_counter`` seconds.

Spans are recorded only from outside the program: the benchmark
wraps the public functions of each layer (:func:`instrument` in
``layers.py``) and each built task's kernel callable.  Nothing is
written until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections import defaultdict

ROOT = "op"
KERNEL = "stencil.kernel"
#: Ledger rows, in print order; "unattributed" is what no span covers.
LAYERS = ("stencil", "core", "ir", "runtime", "exec", "serve", "obs", "bench")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans of one benchmark run, plus a per-thread stack of open
    spans so wrapped calls find their parent and operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        # Every append takes this lock, so a span's index is known.
        self._lock = threading.Lock()
        #: id(key) -> (key, op, root index) for roots opened with a key
        self._keyed: dict[int, tuple] = {}

    def _append(self, span: list) -> int:
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    # -- recording -----------------------------------------------------

    def record(self, name, start, end, parent, op, **attrs) -> int:
        """Append a finished span; returns its index."""
        return self._append([name, start, end, parent, op, attrs])

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple | None:
        """``(op, span index)`` of the innermost open span of this
        thread, or None outside any operation."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open_root(self, op, start: float, key=None) -> int:
        """Open an operation's root span without entering it (an
        open-loop request: it starts when it was due and ends when
        another thread completes it).  ``key`` lets code running
        elsewhere find the operation again with :meth:`lookup`."""
        sid = self._append([ROOT, start, None, None, op, {}])
        if key is not None:
            self._keyed[id(key)] = (key, op, sid)
        return sid

    def close_root(self, sid: int, end: float) -> None:
        self.spans[sid][2] = end

    def lookup(self, key) -> tuple | None:
        """``(op, root index)`` of the root opened with ``key``."""
        entry = self._keyed.get(id(key))
        return None if entry is None or entry[0] is not key else entry[1:]

    @contextlib.contextmanager
    def under(self, op, sid: int):
        """Make span ``sid`` of ``op`` this thread's innermost span."""
        stack = self._stack()
        stack.append((op, sid))
        try:
            yield
        finally:
            stack.pop()

    @contextlib.contextmanager
    def operation(self, op, start: float | None = None, **attrs):
        """Open an operation's root span on this thread."""
        with self.frame(ROOT, None, op, start=start, **attrs) as span:
            yield span

    @contextlib.contextmanager
    def frame(self, name, parent, op, start: float | None = None, **attrs):
        """Open a span with an explicit parent and make it this
        thread's innermost span; yields the span list so callers can
        add attributes."""
        span = [name, time.perf_counter() if start is None else start,
                None, parent, op, attrs]
        sid = self._append(span)
        stack = self._stack()
        stack.append((op, sid))
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """A child of this thread's innermost span; records nothing
        when the thread is outside any operation."""
        top = self.current()
        if top is None:
            yield None
            return
        op, parent = top
        with self.frame(name, parent, op, **attrs) as span:
            yield span

    # -- kernels -------------------------------------------------------

    def wrap_kernels(self, graph) -> int:
        """Time every task kernel of ``graph``.  A kernel span's
        parent is whatever span is innermost on the *calling* thread
        of the operation when the kernel runs (the engine or executor
        span), read through the stack captured here.  Returns the
        number of wrapped kernels."""
        stack = self._stack()
        if not stack:
            return 0
        append = self._append
        clock = time.perf_counter
        pid = os.getpid()
        wrapped = 0
        for task in graph:
            kernel = task.kernel
            if kernel is None:
                continue

            def timed(inputs, t, _kernel=kernel, _stack=stack):
                if os.getpid() != pid:
                    # A forked node process: its spans could never reach
                    # this tracer, and its copy of the lock may be stale.
                    return _kernel(inputs, t)
                start = clock()
                try:
                    return _kernel(inputs, t)
                finally:
                    op, parent = _stack[-1] if _stack else (None, None)
                    append([KERNEL, start, clock(), parent, op, {}])

            task.kernel = timed
            wrapped += 1
        return wrapped

    # -- output --------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "attrs": attrs,
                }, default=str) + "\n")


def patch(stack: contextlib.ExitStack, owner, attr: str, wrapper) -> None:
    """Replace ``owner.attr`` by ``wrapper(original)`` until ``stack``
    closes."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper(original))
    stack.callback(setattr, owner, attr, original)


# -- arithmetic ---------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_index(spans) -> dict[int, list[int]]:
    out: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            out[span[3]].append(i)
    return out


def self_time(spans, sid: int, children: dict) -> float:
    """A span's duration minus the part of its interval its child
    spans cover (children running in parallel count once)."""
    _, start, end, *_ = spans[sid]
    end = start if end is None else end
    covered = [
        (max(start, spans[c][1]), min(end, spans[c][2]))
        for c in children.get(sid, ())
        if spans[c][2] is not None and spans[c][2] > start and spans[c][1] < end
    ]
    return (end - start) - union_length(covered)


def ledger(spans) -> dict:
    """Partition each operation's wall time among the layers.

    At every instant inside an operation's root span, the time goes
    to the layer of the deepest span of that operation open at that
    instant (parallel kernels share one layer, so ties are harmless);
    instants no span covers are ``unattributed``.  The rows therefore
    add up exactly to the summed operation wall time, which is
    returned as ``wall``.
    """
    depth: dict[int, int] = {}

    def depth_of(i: int) -> int:
        d = depth.get(i)
        if d is None:
            parent = spans[i][3]
            d = 0 if parent is None else depth_of(parent) + 1
            depth[i] = d
        return d

    by_op: dict = defaultdict(list)
    roots: dict = {}
    for i, span in enumerate(spans):
        if span[2] is None:
            continue
        if span[0] == ROOT and span[3] is None:
            roots[span[4]] = i
        else:
            by_op[span[4]].append(i)

    rows = {layer: 0.0 for layer in LAYERS}
    rows["unattributed"] = 0.0
    wall = 0.0
    for op, root in roots.items():
        r_start, r_end = spans[root][1], spans[root][2]
        wall += r_end - r_start
        events = []
        for i in by_op.get(op, ()):
            start = max(r_start, spans[i][1])
            end = min(r_end, spans[i][2])
            if end > start:
                events.append((start, 1, i))
                events.append((end, 0, i))
        events.sort()
        active: dict[int, int] = {}
        cursor = r_start
        for t, kind, i in events:
            if t > cursor:
                if active:
                    deepest = max(active, key=active.__getitem__)
                    layer = layer_of(spans[deepest][0])
                    rows[layer if layer in rows else "unattributed"] += t - cursor
                else:
                    rows["unattributed"] += t - cursor
                cursor = t
            if kind:
                active[i] = depth_of(i)
            else:
                active.pop(i, None)
        if r_end > cursor:
            rows["unattributed"] += r_end - cursor
    rows["wall"] = wall
    return rows


def ledger_shares(rows: dict) -> dict:
    """Each ledger row as a share of the summed operation wall time."""
    wall = rows["wall"]
    if wall <= 0:
        return {k: 0.0 for k in rows if k != "wall"}
    return {k: v / wall for k, v in rows.items() if k != "wall"}
