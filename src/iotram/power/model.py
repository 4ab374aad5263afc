"""Per-rail frequency-scaling laws fitted to a calibration grid.

Dynamic rails (clock, BRAM, IO) scale essentially proportionally to clock
frequency, so they get through-origin least-squares lines; signal and leakage
carry a static component and get affine lines. Clock, BRAM and signal values
are identical across IO standards in the calibration grid, so those rails
share one fit; IO and leakage differ per standard and are fitted per standard.

All fits are exact ordinary-least-squares minimizers computed from the normal
equations. Prediction clamps each rail at zero (a fitted affine intercept can
be slightly negative) and reports the total as the sum of the clamped rails.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import types
from collections.abc import Mapping

from .dataset import CalibrationDataset, MissingCell, PowerBreakdown
from .standards import IoStandard, Rail, WlanChannel


class DegenerateFit(ValueError):
    """Raised when the grid, or one fitted series of it, does not span enough
    distinct frequencies to fit, or its values overflow the fit."""


class NonPositiveFrequency(ValueError):
    """Raised for predictions or energy queries at f <= 0, NaN or infinity,
    and at a frequency where the fitted laws or the joules per cycle overflow."""


class FitKind(enum.Enum):
    THROUGH_ORIGIN = "through-origin"
    AFFINE = "affine"


@dataclasses.dataclass(frozen=True)
class RailFit:
    slope_w_per_ghz: float
    intercept_w: float
    fit_kind: FitKind

    def __post_init__(self):
        if not (math.isfinite(self.slope_w_per_ghz) and math.isfinite(self.intercept_w)):
            raise DegenerateFit(
                f"{self.fit_kind.value} fit overflows: slope {self.slope_w_per_ghz}, "
                f"intercept {self.intercept_w}"
            )

    def at(self, f_ghz: float) -> float:
        return self.slope_w_per_ghz * f_ghz + self.intercept_w


@dataclasses.dataclass(frozen=True)
class ModelCoefficients:
    """One grid's fit. `io` and `leakage` are read-only mappings, because the
    grid keeps its fit and hands the same coefficients to every caller."""

    clock: RailFit
    signal: RailFit
    bram: RailFit
    io: Mapping[IoStandard, RailFit]
    leakage: Mapping[IoStandard, RailFit]

    def __post_init__(self):
        object.__setattr__(self, "io", types.MappingProxyType(dict(self.io)))
        object.__setattr__(self, "leakage", types.MappingProxyType(dict(self.leakage)))


def _through_origin(points: list[tuple[float, float]]) -> RailFit:
    # OLS through (0, 0): slope = sum(f*y) / sum(f^2)
    sfy = sum(f * y for f, y in points)
    sf2 = sum(f * f for f, _ in points)
    return RailFit(sfy / sf2, 0.0, FitKind.THROUGH_ORIGIN)


def _affine(points: list[tuple[float, float]]) -> RailFit:
    # Standard normal equations for y = slope*f + intercept; they have one
    # solution only when the series holds two or more distinct frequencies.
    distinct = {f for f, _ in points}
    if len(distinct) < 2:
        raise DegenerateFit(f"affine fit needs 2 distinct frequencies, got {sorted(distinct)}")
    n = len(points)
    sf = sum(f for f, _ in points)
    sy = sum(y for _, y in points)
    sfy = sum(f * y for f, y in points)
    sf2 = sum(f * f for f, _ in points)
    denom = n * sf2 - sf * sf
    slope = (n * sfy - sf * sy) / denom
    intercept = (sy - slope * sf) / n
    return RailFit(slope, intercept, FitKind.AFFINE)


def _series(ds: CalibrationDataset, rail: Rail, std: IoStandard) -> list[tuple[float, float]]:
    cells, field = ds.cells, rail.field
    points = [
        (ch.carrier_ghz, getattr(cell, field))
        for ch in ds.channels()
        if (cell := cells.get((std, ch))) is not None
    ]
    if not points:
        raise MissingCell(f"no cells for {std.name}; cannot fit its {rail.name.lower()} rail")
    return points


def fit(ds: CalibrationDataset) -> ModelCoefficients:
    """Fit all rail scaling laws to a grid.

    Shared rails pool every standard's points (their values coincide anyway);
    IO and leakage are fitted per standard. Raises DegenerateFit when the grid
    holds fewer than two distinct frequencies, or one standard's cells do.
    The grid is read-only, so the fit is kept on it for `power_at`; a fit
    that raises keeps nothing.
    """
    distinct = {ch.carrier_ghz for _, ch in ds.cells}
    if len(distinct) < 2:
        raise DegenerateFit(
            f"need at least 2 distinct frequencies, grid has {sorted(distinct)}"
        )

    shared: dict[Rail, list[tuple[float, float]]] = {
        Rail.CLOCK: [],
        Rail.SIGNAL: [],
        Rail.BRAM: [],
    }
    for std in ds.standards():
        for rail in shared:
            shared[rail].extend(_series(ds, rail, std))

    coeffs = ModelCoefficients(
        clock=_through_origin(shared[Rail.CLOCK]),
        signal=_affine(shared[Rail.SIGNAL]),
        bram=_through_origin(shared[Rail.BRAM]),
        io={std: _through_origin(_series(ds, Rail.IO, std)) for std in ds.standards()},
        leakage={std: _affine(_series(ds, Rail.LEAKAGE, std)) for std in ds.standards()},
    )
    object.__setattr__(ds, "_fit", coeffs)
    return coeffs


def predict(coeffs: ModelCoefficients, std: IoStandard, f_ghz: float) -> PowerBreakdown:
    """Evaluate the fitted laws at an arbitrary positive, finite frequency.

    Raises MissingCell for a standard the grid had no cells for, and
    NonPositiveFrequency where the predicted total overflows.
    """
    if not 0 < f_ghz < math.inf:
        raise NonPositiveFrequency(f"frequency must be finite and > 0 GHz, got {f_ghz}")
    if std not in coeffs.io:
        raise MissingCell(f"no cells for {std.name}; cannot predict it")
    clock = max(0.0, coeffs.clock.at(f_ghz))
    signal = max(0.0, coeffs.signal.at(f_ghz))
    bram = max(0.0, coeffs.bram.at(f_ghz))
    io = max(0.0, coeffs.io[std].at(f_ghz))
    leakage = max(0.0, coeffs.leakage[std].at(f_ghz))
    total = clock + signal + bram + io + leakage
    if not total < math.inf:
        raise NonPositiveFrequency(f"frequency {f_ghz} GHz overflows the fitted laws")
    return PowerBreakdown(
        clock_w=clock,
        signal_w=signal,
        bram_w=bram,
        io_w=io,
        leakage_w=leakage,
        total_w=total,
    )


def max_relative_residuals(
    ds: CalibrationDataset, coeffs: ModelCoefficients
) -> dict[str, float]:
    """Worst |fit - value| / value per fitted series, keyed like "io[LVCMOS12]"."""
    out: dict[str, float] = {}

    def worst(fit_: RailFit, points: list[tuple[float, float]]) -> float:
        # An all-zero series has no point to divide by, and none is needed: it
        # fits exactly with slope 0 and intercept 0.
        return max((abs(fit_.at(f) - y) / y for f, y in points if y > 0), default=0.0)

    pooled = lambda rail: [p for std in ds.standards() for p in _series(ds, rail, std)]
    out["clock"] = worst(coeffs.clock, pooled(Rail.CLOCK))
    out["signal"] = worst(coeffs.signal, pooled(Rail.SIGNAL))
    out["bram"] = worst(coeffs.bram, pooled(Rail.BRAM))
    for std in ds.standards():
        out[f"io[{std.name}]"] = worst(coeffs.io[std], _series(ds, Rail.IO, std))
        out[f"leakage[{std.name}]"] = worst(coeffs.leakage[std], _series(ds, Rail.LEAKAGE, std))
    return out


def io_slope_voltage_scaling(coeffs: ModelCoefficients) -> dict[IoStandard, float]:
    """Fitted IO slope divided by supply voltage squared, per standard.

    A pure CV^2f law would make these equal; on the builtin grid they spread
    by roughly a third, which is why IO slopes are empirical per standard.
    Informational only.
    """
    return {
        std: coeffs.io[std].slope_w_per_ghz / std.supply_voltage**2
        for std in coeffs.io
    }


def power_at(ds: CalibrationDataset, std: IoStandard, f_ghz: float) -> PowerBreakdown:
    """Breakdown at a frequency: grid cell when on-grid, fitted prediction otherwise.

    Off grid, the fit kept on `ds` is used; the first such call fits the grid.
    """
    if not 0 < f_ghz < math.inf:
        raise NonPositiveFrequency(f"frequency must be finite and > 0 GHz, got {f_ghz}")
    try:
        cell = ds.cells.get((std, WlanChannel.from_ghz(f_ghz)))
    except ValueError:
        cell = None
    if cell is not None:
        return cell
    coeffs = ds._fit
    if coeffs is None:
        coeffs = fit(ds)
    return predict(coeffs, std, f_ghz)


def energy_per_cycle(pb: PowerBreakdown, f_ghz: float) -> float:
    """Joules drawn per clock cycle: total watts over cycles per second."""
    if not 0 < f_ghz < math.inf:
        raise NonPositiveFrequency(f"frequency must be finite and > 0 GHz, got {f_ghz}")
    hz = f_ghz * 1e9
    per_cycle = pb.total_w / hz
    if not (hz < math.inf and per_cycle < math.inf):
        raise NonPositiveFrequency(f"frequency {f_ghz} GHz overflows joules per cycle")
    return per_cycle
