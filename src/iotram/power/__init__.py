"""Power calibration grid, per-rail scaling model, and reduction reports.

The layer's entry points; the rest (diagnostics, fit internals, published
claims) is imported from `dataset`, `model`, `reductions` or `standards`.
"""

from .dataset import (
    CalibrationDataset,
    MissingCell,
    PowerBreakdown,
    builtin_dataset,
    load_calibration_file,
    read_calibration,
    validate_dataset,
    write_calibration,
)
from .model import DegenerateFit, NonPositiveFrequency, energy_per_cycle, fit, power_at, predict
from .reductions import ZeroBase, reduction
from .standards import CHANNELS, STANDARDS, IoStandard, Rail, WlanChannel

__all__ = [
    "CHANNELS",
    "CalibrationDataset",
    "DegenerateFit",
    "IoStandard",
    "MissingCell",
    "NonPositiveFrequency",
    "PowerBreakdown",
    "Rail",
    "STANDARDS",
    "WlanChannel",
    "ZeroBase",
    "builtin_dataset",
    "energy_per_cycle",
    "fit",
    "load_calibration_file",
    "power_at",
    "predict",
    "read_calibration",
    "reduction",
    "validate_dataset",
    "write_calibration",
]
