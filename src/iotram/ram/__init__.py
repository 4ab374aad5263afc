"""IPv6-gated RAM model, its energy ledger, and trace driver.

The word and key widths and `TraceOp` are imported from `core` and `trace`.
"""

from .core import EnergyLedger, InvalidConfig, IotRam, RamConfig, Status
from .trace import TraceError, parse_trace, run_trace

__all__ = [
    "EnergyLedger",
    "InvalidConfig",
    "IotRam",
    "RamConfig",
    "Status",
    "TraceError",
    "parse_trace",
    "run_trace",
]
