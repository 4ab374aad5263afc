"""IPv6-gated RAM model, its energy ledger, and trace driver."""

from .core import (
    KEY_BITS,
    KEY_MASK,
    WORD_BITS,
    WORD_MASK,
    EnergyLedger,
    InvalidConfig,
    IotRam,
    RamConfig,
    Status,
)
from .trace import TraceError, TraceOp, parse_trace, render_outcome, run_trace

__all__ = [
    "EnergyLedger",
    "InvalidConfig",
    "IotRam",
    "KEY_BITS",
    "KEY_MASK",
    "RamConfig",
    "Status",
    "TraceError",
    "TraceOp",
    "WORD_BITS",
    "WORD_MASK",
    "parse_trace",
    "render_outcome",
    "run_trace",
]
