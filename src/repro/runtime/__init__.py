"""A PaRSEC-style distributed dataflow task runtime (simulated).

Layers:

* :mod:`~repro.runtime.task` / :mod:`~repro.runtime.graph` -- the task
  and DAG model (tagged flows, like PaRSEC's named dataflows).
* :mod:`~repro.runtime.flow` -- the dataflow core every backend
  drives: the graph's message plan, dependency counts and the
  refcounted payload store.
* :mod:`~repro.runtime.engine` -- the discrete-event engine: per-node
  worker pools, a dedicated communication thread per node and a
  NIC/wire network model around the dataflow core.
* :mod:`~repro.runtime.scheduler` -- pluggable ready-queue policies.
* :mod:`~repro.runtime.ptg` / :mod:`~repro.runtime.dtd` -- the two
  PaRSEC programming front-ends (Parameterized Task Graph and Dynamic
  Task Discovery).
* :mod:`~repro.runtime.trace` -- PaRSEC-profiling-style trace capture.
"""

from . import chrome_trace, dot
from .ca_transform import CAPlan, apply_communication_avoidance, plan as ca_plan, transform_build
from .dtd import IN, INOUT, OUT, DataHandle, DTDRuntime
from .engine import Engine, EngineReport, KernelError
from .graph import GraphError, TaskGraph
from .ptg import PTG, Dependency, TaskClass
from .scheduler import FifoQueue, LifoQueue, PriorityQueue, make_queue
from .task import EdgeCensus, Flow, Task, TaskKey
from .trace import KindStats, Span, Trace, idle_fraction_timeline, kind_statistics

__all__ = [
    "CAPlan",
    "DTDRuntime",
    "apply_communication_avoidance",
    "ca_plan",
    "chrome_trace",
    "dot",
    "transform_build",
    "DataHandle",
    "Dependency",
    "EdgeCensus",
    "Engine",
    "EngineReport",
    "FifoQueue",
    "Flow",
    "GraphError",
    "KernelError",
    "IN",
    "INOUT",
    "KindStats",
    "LifoQueue",
    "OUT",
    "PTG",
    "PriorityQueue",
    "Span",
    "Task",
    "TaskClass",
    "TaskGraph",
    "TaskKey",
    "Trace",
    "idle_fraction_timeline",
    "kind_statistics",
    "make_queue",
]
