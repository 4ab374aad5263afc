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

import enum
import math
import types
from collections.abc import Mapping

from .._record import checked_record
from .dataset import CalibrationDataset, MissingCell, PowerBreakdown
from .standards import IoStandard, Rail, channel_at


class DegenerateFit(ValueError):
    """Raised when the grid, or one fitted series of it, does not span enough
    distinct frequencies to fit, or its values overflow the fit."""


class NonPositiveFrequency(ValueError):
    """Raised for predictions or energy queries at f <= 0, NaN or infinity,
    and at a frequency where the fitted laws or the joules per cycle overflow."""


class FitKind(enum.Enum):
    THROUGH_ORIGIN = "through-origin"
    AFFINE = "affine"


class RailFit(checked_record("RailFit", "slope_w_per_ghz intercept_w fit_kind")):
    """One fitted line. `__new__` raises DegenerateFit for a slope or
    intercept that is not finite; every way of building one goes through it
    (see `checked_record`)."""

    __slots__ = ()

    def __new__(cls, slope_w_per_ghz: float, intercept_w: float, fit_kind: FitKind):
        if not (math.isfinite(slope_w_per_ghz) and math.isfinite(intercept_w)):
            raise DegenerateFit(
                f"{fit_kind.value} fit overflows: slope {slope_w_per_ghz}, "
                f"intercept {intercept_w}"
            )
        return tuple.__new__(cls, (slope_w_per_ghz, intercept_w, fit_kind))

    def at(self, f_ghz: float) -> float:
        return self.slope_w_per_ghz * f_ghz + self.intercept_w


class ModelCoefficients(checked_record("ModelCoefficients", "clock signal bram io leakage")):
    """One grid's fit. `io` and `leakage` are read-only mappings, because the
    grid keeps its fit and hands the same coefficients to every caller;
    `__new__`, which every way of building one goes through (see
    `checked_record`), copies them so."""

    __slots__ = ()

    def __new__(
        cls, clock: RailFit, signal: RailFit, bram: RailFit,
        io: Mapping[IoStandard, RailFit], leakage: Mapping[IoStandard, RailFit],
    ):
        return tuple.__new__(cls, (
            clock, signal, bram,
            types.MappingProxyType(dict(io)), types.MappingProxyType(dict(leakage)),
        ))

    def __reduce__(self):
        # A read-only mapping cannot be pickled, so copies are built from dicts.
        return ModelCoefficients, (
            self.clock, self.signal, self.bram, dict(self.io), dict(self.leakage)
        )


def _through_origin(sfy: float, sf2: float) -> RailFit:
    # OLS through (0, 0): slope = sum(f*y) / sum(f^2)
    return RailFit(sfy / sf2, 0.0, FitKind.THROUGH_ORIGIN)


def _affine(fs: list[float], sf: float, sf2: float, sy: float, sfy: float) -> RailFit:
    # Standard normal equations for y = slope*f + intercept, from the sums of
    # f, f^2, y and f*y over the frequencies `fs`; they have one solution
    # only when the series holds two or more distinct frequencies.
    distinct = set(fs)
    if len(distinct) < 2:
        raise DegenerateFit(f"affine fit needs 2 distinct frequencies, got {sorted(distinct)}")
    n = len(fs)
    denom = n * sf2 - sf * sf
    slope = (n * sfy - sf * sy) / denom
    intercept = (sy - slope * sf) / n
    return RailFit(slope, intercept, FitKind.AFFINE)


def _series(ds: CalibrationDataset, rail: Rail, std: IoStandard) -> list[tuple[float, float]]:
    cells, field = ds.cells, rail.field
    return [
        (ch.carrier_ghz, getattr(cell, field))
        for ch in ds.channels()
        if (cell := cells.get((std, ch))) is not None
    ]


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

    # One pass over the cells, standard-major and channel-minor: the order in
    # which the shared rails pool their points. Every sum is a `+=` of floats
    # in that order, so it rounds the same on every Python; sum() would not,
    # as it compensates from 3.12 on.
    cells, channels = ds.cells, ds.channels()
    pooled_f: list[float] = []
    sf = sf2 = clock_fy = signal_y = signal_fy = bram_fy = 0.0
    # Per standard: its frequencies, the sums of f and f^2, of f*io, and of
    # leakage and f*leakage.
    per_std: dict[IoStandard, tuple] = {}
    for std in ds.standards():
        fs: list[float] = []
        std_f = std_f2 = io_fy = leakage_y = leakage_fy = 0.0
        for ch in channels:
            cell = cells.get((std, ch))
            if cell is None:
                continue
            f = ch.carrier_ghz
            f2 = f * f
            fs.append(f)
            sf += f
            sf2 += f2
            clock_fy += f * cell.clock_w
            signal_y += cell.signal_w
            signal_fy += f * cell.signal_w
            bram_fy += f * cell.bram_w
            std_f += f
            std_f2 += f2
            io_fy += f * cell.io_w
            leakage_y += cell.leakage_w
            leakage_fy += f * cell.leakage_w
        per_std[std] = (fs, std_f, std_f2, io_fy, leakage_y, leakage_fy)
        pooled_f += fs

    # Built in a fixed order, clock, signal, bram, io then leakage, so the
    # first fit to raise DegenerateFit is the same for every grid.
    coeffs = ModelCoefficients(
        clock=_through_origin(clock_fy, sf2),
        signal=_affine(pooled_f, sf, sf2, signal_y, signal_fy),
        bram=_through_origin(bram_fy, sf2),
        io={std: _through_origin(fy, f2) for std, (_, _, f2, fy, _, _) in per_std.items()},
        leakage={std: _affine(fs, f, f2, y, fy) for std, (fs, f, f2, _, y, fy) in per_std.items()},
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
    io_fit = coeffs.io.get(std)
    if io_fit is None:
        raise MissingCell(f"no cells for {std.name}; cannot predict it")
    # RailFit.at, written out for each rail: this runs on every off-grid call.
    clock_fit, signal_fit, bram_fit = coeffs.clock, coeffs.signal, coeffs.bram
    leakage_fit = coeffs.leakage[std]
    clock = clock_fit.slope_w_per_ghz * f_ghz + clock_fit.intercept_w
    signal = signal_fit.slope_w_per_ghz * f_ghz + signal_fit.intercept_w
    bram = bram_fit.slope_w_per_ghz * f_ghz + bram_fit.intercept_w
    io = io_fit.slope_w_per_ghz * f_ghz + io_fit.intercept_w
    leakage = leakage_fit.slope_w_per_ghz * f_ghz + leakage_fit.intercept_w
    # Clamp at zero: `x if x > 0.0 else 0.0` is max(0.0, x), also for -0.0 and NaN.
    clock = clock if clock > 0.0 else 0.0
    signal = signal if signal > 0.0 else 0.0
    bram = bram if bram > 0.0 else 0.0
    io = io if io > 0.0 else 0.0
    leakage = leakage if leakage > 0.0 else 0.0
    total = clock + signal + bram + io + leakage
    if not total < math.inf:
        raise NonPositiveFrequency(f"frequency {f_ghz} GHz overflows the fitted laws")
    return PowerBreakdown(clock, signal, bram, io, leakage, total)


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
    # Off the grid the channel is None, which keys no cell.
    cell = ds.cells.get((std, channel_at(f_ghz)))
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
