"""Unified telemetry: metrics registry, exporters, monitor, gate.

PaRSEC's profiling system is the instrument the paper's validation
rests on (Fig. 10's traces, worker occupancy, median kernel times).
This package is our software-counter equivalent:

* :mod:`repro.obs.metrics` -- counters / gauges / histograms in one
  process-mergeable registry every execution layer emits into;
* :mod:`repro.obs.export` -- one serializer per format (Chrome/Perfetto,
  OTel, JSON lines, Prometheus, flamegraphs) for execution traces and
  lifecycle spans alike;
* :mod:`repro.obs.lifecycle` -- request-scoped lifecycle spans, SLO
  fold-in and the flight recorder;
* :mod:`repro.obs.timeseries` -- the one sampling loop, bounded metric
  history and derived signals, with a replayable JSONL export;
* :mod:`repro.obs.monitor` -- live backend progress on that loop and
  post-run summaries (``repro monitor`` / ``repro stats`` / ``repro
  top``);
* :mod:`repro.obs.alerts` / :mod:`repro.obs.slo` /
  :mod:`repro.obs.regress` -- alert rules, SLO reports and the
  perf-regression gate;
* :mod:`repro.obs.critpath` / :mod:`repro.obs.diff` -- causal
  critical-path analysis and trace diffs.
"""

from __future__ import annotations

import os

from .alerts import (
    AlertEngine,
    AlertRule,
    JsonlSink,
    default_rules,
    load_rules,
    parse_rules,
    replay_rules,
)
from .critpath import (
    CritPathReport,
    critical_path,
    find_stragglers,
    publish_critpath_metrics,
    robust_scores,
)
from .diff import TraceDiff, diff_results, diff_traces
from .lifecycle import (
    FlightRecorder,
    LifecycleTracer,
    LifeSpan,
    format_postmortem,
    load_postmortem,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    MetricsSnapshot,
)
from .monitor import (
    RunMonitor,
    format_serve_summary,
    format_summary,
    format_top,
)
from .regress import (
    RegressReport,
    compare,
    load_baseline,
    metrics_from_serve,
)
from .slo import format_slo_report, slo_gate_metrics, slo_report
from .timeseries import TelemetrySampler, TimeSeriesStore, read_series_jsonl

#: Environment variable enabling the debug-mode trace validation the
#: engine and both real backends run after a traced run.
DEBUG_TRACE_ENV = "REPRO_DEBUG_TRACE"


def trace_validation_enabled() -> bool:
    """Whether the debug flag asking for post-run ``Trace.validate()``
    is set (any non-empty value that is not ``"0"``)."""
    value = os.environ.get(DEBUG_TRACE_ENV, "")
    return bool(value) and value != "0"


__all__ = [
    "AlertEngine",
    "AlertRule",
    "Counter",
    "CritPathReport",
    "DEBUG_TRACE_ENV",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "LifeSpan",
    "LifecycleTracer",
    "MetricRegistry",
    "MetricsSnapshot",
    "RegressReport",
    "RunMonitor",
    "TelemetrySampler",
    "TimeSeriesStore",
    "TraceDiff",
    "compare",
    "critical_path",
    "default_rules",
    "diff_results",
    "diff_traces",
    "find_stragglers",
    "format_postmortem",
    "format_serve_summary",
    "format_slo_report",
    "format_summary",
    "format_top",
    "load_baseline",
    "load_postmortem",
    "load_rules",
    "metrics_from_serve",
    "parse_rules",
    "publish_critpath_metrics",
    "read_series_jsonl",
    "replay_rules",
    "robust_scores",
    "slo_gate_metrics",
    "slo_report",
    "trace_validation_enabled",
]
