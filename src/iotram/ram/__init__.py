"""IPv6-gated RAM model, RTL reconciliation, and trace driver."""

from .core import (
    KEY_BITS,
    KEY_MASK,
    WORD_BITS,
    WORD_MASK,
    InvalidConfig,
    IotRam,
    RamConfig,
    Status,
)
from .rtl import RtlStatsReport, rtl_stats
from .trace import TraceError, TraceOp, TraceSummary, parse_trace, render_outcome, run_trace

__all__ = [
    "InvalidConfig",
    "IotRam",
    "KEY_BITS",
    "KEY_MASK",
    "RamConfig",
    "RtlStatsReport",
    "Status",
    "TraceError",
    "TraceOp",
    "TraceSummary",
    "WORD_BITS",
    "WORD_MASK",
    "parse_trace",
    "render_outcome",
    "rtl_stats",
    "run_trace",
]
