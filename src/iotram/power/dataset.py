"""Calibration grid of per-rail power measurements.

The builtin grid holds the published power tables for the IoT-RAM design on
the 40nm FPGA: one six-field cell per (LVCMOS standard, WLAN channel) pair,
stored at milliwatt precision exactly as printed. Printed totals round each
rail independently, so a cell's rails may sum up to 5 mW away from its total;
`validate_dataset` checks that tolerance rather than the constructor, so that
broken user-supplied grids can still be loaded and diagnosed.
"""

from __future__ import annotations

import collections
import enum
import functools
import math
import types
from collections.abc import Mapping

from .._record import checked_record
from .standards import CHANNELS, STANDARDS, IoStandard, Rail, WlanChannel, channel_at

#: Printed totals round per-rail; a stored total may differ from the rail sum
#: by up to this many watts.
ROW_SUM_TOLERANCE_W = 0.005

_INF = math.inf


class MissingCell(KeyError):
    """A (standard, channel) pair absent from a user-supplied grid."""

    def __str__(self) -> str:
        # KeyError quotes its argument as a key; this one carries a message.
        return str(self.args[0])


class PowerBreakdown(checked_record(
    "PowerBreakdown", "clock_w signal_w bram_w io_w leakage_w total_w"
)):
    """The five power rails plus the reported total, in watts. `__new__`
    checks every field; every way of building one goes through it (see
    `checked_record`).
    """

    __slots__ = ()

    def __new__(
        cls, clock_w: float, signal_w: float, bram_w: float,
        io_w: float, leakage_w: float, total_w: float,
    ):
        if not (
            0 <= clock_w < _INF and 0 <= signal_w < _INF and 0 <= bram_w < _INF
            and 0 <= io_w < _INF and 0 <= leakage_w < _INF and 0 <= total_w < _INF
        ):
            # Some field is negative, NaN or infinite: name the first one.
            values = (clock_w, signal_w, bram_w, io_w, leakage_w, total_w)
            for field, value in zip(cls._fields, values):
                if not 0 <= value < _INF:
                    if value < 0:
                        raise ValueError(f"{field} must be >= 0, got {value}")
                    raise ValueError(f"{field} must be finite, got {value}")
        return tuple.__new__(cls, (clock_w, signal_w, bram_w, io_w, leakage_w, total_w))

    def rail(self, rail: Rail) -> float:
        return getattr(self, rail.field)

    @property
    def rail_sum_w(self) -> float:
        return self.clock_w + self.signal_w + self.bram_w + self.io_w + self.leakage_w

    @property
    def row_sum_error_w(self) -> float:
        """Absolute gap between the stored total and the sum of the rails."""
        return abs(self.total_w - self.rail_sum_w)


class DiagnosticCode(enum.Enum):
    """Closed set of findings a grid check can raise."""

    ROW_SUM = "ROW_SUM"
    MONOTONIC_FREQ = "MONOTONIC_FREQ"
    MONOTONIC_VOLT = "MONOTONIC_VOLT"
    TABLE7_MISMATCH = "TABLE7_MISMATCH"
    CLAIM_MISMATCH = "CLAIM_MISMATCH"

    @property
    def documented(self) -> bool:
        """True for a known discrepancy in the published source rather than a
        defect of the grid; such findings do not fail validation."""
        return self in (DiagnosticCode.TABLE7_MISMATCH, DiagnosticCode.CLAIM_MISMATCH)


class Diagnostic(collections.namedtuple("Diagnostic", "code message location")):
    __slots__ = ()

    def render(self) -> str:
        return f"INCONSISTENCY {self.code.value:<16} {self.location}: {self.message}"


class CalibrationDataset:
    """Read-only grid of breakdown cells keyed by (standard, channel).

    The builtin grid is complete (all 20 pairs); user grids loaded from file
    may be partial, in which case `lookup` raises MissingCell. `cells` is a
    read-only view of a copy of the mapping given, so what depends only on
    the cells is computed once: the standards and channels present here, and
    the fit that `model.fit` keeps on the grid. Two grids are equal when
    their cells and provenance are; the kept fit takes no part in equality
    or `repr`, and a grid is not hashable.
    """

    __slots__ = ("cells", "provenance", "_standards", "_channels", "_fit")

    def __init__(
        self, cells: Mapping[tuple[IoStandard, WlanChannel], PowerBreakdown],
        provenance: str = "user",
    ):
        cells = types.MappingProxyType(dict(cells))
        stds = {s for s, _ in cells}
        chs = {c for _, c in cells}
        init = object.__setattr__
        init(self, "cells", cells)
        init(self, "provenance", provenance)
        init(self, "_standards", tuple(s for s in STANDARDS if s in stds))
        init(self, "_channels", tuple(c for c in CHANNELS if c in chs))
        # The ModelCoefficients of each `model.fit` of this grid that succeeds.
        init(self, "_fit", None)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: a CalibrationDataset is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.cells, self.provenance) == (other.cells, other.provenance)

    def __repr__(self) -> str:
        return f"CalibrationDataset(cells={self.cells!r}, provenance={self.provenance!r})"

    def __reduce__(self):
        # Copies are built by __init__, as the read-only attributes cannot be
        # set, from a dict, as a read-only mapping cannot be pickled.
        return CalibrationDataset, (dict(self.cells), self.provenance)

    def channels(self) -> tuple[WlanChannel, ...]:
        return self._channels

    def standards(self) -> tuple[IoStandard, ...]:
        return self._standards

    def lookup(self, std: IoStandard, ch: WlanChannel) -> PowerBreakdown:
        try:
            return self.cells[(std, ch)]
        except KeyError:
            raise MissingCell(f"no cell for ({std.name}, {ch.carrier_ghz} GHz)") from None


# Per-channel blocks mirroring the published tables: each row is one standard's
# (clock, signal, bram, io, leakage, total) in watts, exactly as printed.
_GRID: dict[float, dict[str, tuple[float, float, float, float, float, float]]] = {
    0.9: {
        "LVCMOS12": (0.061, 0.033, 1.148, 0.060, 1.321, 2.624),
        "LVCMOS15": (0.061, 0.033, 1.148, 0.086, 1.322, 2.651),
        "LVCMOS18": (0.061, 0.033, 1.148, 0.109, 1.323, 2.675),
        "LVCMOS25": (0.061, 0.033, 1.148, 0.171, 1.325, 2.739),
    },
    2.4: {
        "LVCMOS12": (0.161, 0.091, 3.062, 0.160, 1.374, 4.849),
        "LVCMOS15": (0.161, 0.091, 3.062, 0.229, 1.376, 4.920),
        "LVCMOS18": (0.161, 0.091, 3.062, 0.292, 1.378, 4.985),
        "LVCMOS25": (0.161, 0.091, 3.062, 0.457, 1.383, 5.155),
    },
    3.6: {
        "LVCMOS12": (0.246, 0.138, 4.593, 0.240, 1.419, 6.637),
        "LVCMOS15": (0.246, 0.138, 4.593, 0.343, 1.422, 6.744),
        "LVCMOS18": (0.246, 0.138, 4.593, 0.437, 1.425, 6.841),
        "LVCMOS25": (0.246, 0.138, 4.593, 0.686, 1.433, 7.096),
    },
    5.0: {
        "LVCMOS12": (0.341, 0.192, 6.380, 0.333, 1.476, 8.724),
        "LVCMOS15": (0.341, 0.192, 6.380, 0.477, 1.480, 8.872),
        "LVCMOS18": (0.341, 0.192, 6.380, 0.608, 1.485, 9.007),
        "LVCMOS25": (0.341, 0.192, 6.380, 0.952, 1.496, 9.363),
    },
    5.9: {
        "LVCMOS12": (0.403, 0.226, 7.528, 0.393, 1.515, 10.067),
        "LVCMOS15": (0.403, 0.226, 7.528, 0.563, 1.520, 10.242),
        "LVCMOS18": (0.403, 0.226, 7.528, 0.717, 1.525, 10.402),
        "LVCMOS25": (0.403, 0.226, 7.528, 1.124, 1.539, 10.822),
    },
}

BUILTIN_PROVENANCE = "builtin: 40nm FPGA IoT-RAM power tables, LVCMOS12-25 x 0.9-5.9 GHz"


@functools.cache
def _builtin_cells() -> dict[tuple[IoStandard, WlanChannel], PowerBreakdown]:
    return {
        (IoStandard[std_name], WlanChannel.from_ghz(ghz)): PowerBreakdown(*row)
        for ghz, rows in _GRID.items()
        for std_name, row in rows.items()
    }


def builtin_dataset() -> CalibrationDataset:
    """The embedded 20-cell calibration grid: a fresh grid, with a fit of its
    own, on every call. Its cells are built once per process."""
    return CalibrationDataset(_builtin_cells(), BUILTIN_PROVENANCE)


def validate_dataset(ds: CalibrationDataset) -> list[Diagnostic]:
    """Check grid-intrinsic invariants: row sums and both monotonicity axes.

    Frequency monotonicity expects every rail of a standard to strictly
    increase with the carrier; voltage monotonicity expects io and total to
    strictly increase with supply voltage at a fixed channel (clock, signal
    and BRAM are bank-independent, so only those two rails are checked).
    Findings come as every ROW_SUM, then the frequency breaks by (standard,
    rail, pair), then the supply-voltage breaks by (channel, rail, pair).
    """
    out: list[Diagnostic] = []
    cells, stds, chs, tol = ds.cells, ds.standards(), ds.channels(), ROW_SUM_TOLERANCE_W
    # One sweep along each standard's cells: a row sum (added in the order of
    # `rail_sum_w`) is phrased where it is found, and a pair of neighbours in
    # which some rail does not rise is kept, to be phrased rail by rail below.
    freq_breaks: dict[str, list] = {}
    for std in stds:
        prev = None
        for ch in chs:
            cell = cells.get((std, ch))
            if cell is None:
                continue
            c, s, b, i, l, t = cell
            if abs(t - (c + s + b + i + l)) > tol:
                out.append(Diagnostic(
                    DiagnosticCode.ROW_SUM,
                    f"rails sum to {cell.rail_sum_w:.3f} W but total is "
                    f"{cell.total_w:.3f} W (tolerance {tol} W)",
                    f"({std.name}, {ch.carrier_ghz} GHz)",
                ))
            if prev is not None:
                c0, s0, b0, i0, l0, t0 = prev
                if not (c0 < c and s0 < s and b0 < b and i0 < i and l0 < l and t0 < t):
                    freq_breaks.setdefault(std.name, []).append((prev_ch, prev, ch, cell))
            prev_ch, prev = ch, cell
    # The same sweep down each channel's cells, on io and total only.
    volt_breaks: dict[str, list] = {}
    for ch in chs:
        prev = None
        for std in stds:
            cell = cells.get((std, ch))
            if cell is None:
                continue
            if prev is not None and not (prev[3] < cell[3] and prev[5] < cell[5]):
                volt_breaks.setdefault(f"{ch.carrier_ghz} GHz", []).append((prev_std, prev, std, cell))
            prev_std, prev = std, cell
    _phrase_breaks(out, DiagnosticCode.MONOTONIC_FREQ, "frequency", freq_breaks,
                   Rail, lambda ch: f"at {ch.carrier_ghz} GHz")
    _phrase_breaks(out, DiagnosticCode.MONOTONIC_VOLT, "supply voltage", volt_breaks,
                   (Rail.IO, Rail.TOTAL), lambda std: f"for {std.name}")
    return out


def _phrase_breaks(out, code, axis, breaks, rails, name) -> None:
    """Append, for each place in `breaks` and each of `rails` in turn, one
    finding per kept pair (key_a, cell_a, key_b, cell_b) across which that
    rail does not rise; `name` phrases a key."""
    for place, pairs in breaks.items():
        for rail in rails:
            field, rail_name = rail.field, rail.name.lower()
            for key_a, cell_a, key_b, cell_b in pairs:
                w_a, w_b = getattr(cell_a, field), getattr(cell_b, field)
                if w_b <= w_a:
                    out.append(Diagnostic(
                        code,
                        f"{rail_name} does not increase with {axis}: "
                        f"{w_a:.3f} W {name(key_a)} vs {w_b:.3f} W {name(key_b)}",
                        f"({place}, {rail_name})",
                    ))


CALIBRATION_HEADER = "standard,channel_ghz,clock_w,signal_w,bram_w,io_w,leakage_w,total_w"


def write_calibration(ds: CalibrationDataset) -> str:
    """Render a grid in the flat calibration text format (header + one line
    per cell). A value is printed to the milliwatt, as the published tables
    are, when that text reads back as the same float, and by `repr` when it
    does not, so `read_calibration` gives back the same cells."""
    lines = [CALIBRATION_HEADER]
    for std in ds.standards():
        for ch in ds.channels():
            cell = ds.cells.get((std, ch))
            if cell is None:
                continue
            lines.append(f"{std.name},{ch.carrier_ghz}," + ",".join(map(_value_text, cell)))
    return "\n".join(lines) + "\n"


def _value_text(value: float) -> str:
    text = f"{value:.3f}"
    return text if float(text) == value else repr(value)


#: Standards by their exact names, the spelling `write_calibration` uses.
_STANDARDS_BY_NAME = {std.name: std for std in IoStandard}


def read_calibration(text: str, provenance: str = "user") -> CalibrationDataset:
    """Parse the flat calibration format. Raises ValueError on malformed
    content, naming its line as counted with comment and blank lines.

    Each data line is stripped and split once, and `float()` reads the raw
    fields: it accepts the blanks `str.strip()` removes, except U+001C to
    U+001F. A standard spelled exactly is found in a dict, others by
    `IoStandard.parse`. A line the loop does not take whole, such as one
    with U+001F around a number, goes to `_parse_cell`, which reads its
    stripped fields by the rules in their order; only that path builds
    message text."""
    lines = enumerate(text.splitlines(), start=1)
    for _, raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            if line.replace(" ", "") != CALIBRATION_HEADER:
                raise ValueError(f"bad calibration header: {line!r}")
            break
    else:
        raise ValueError("empty calibration file")
    cells: dict[tuple[IoStandard, WlanChannel], PowerBreakdown] = {}
    by_name = _STANDARDS_BY_NAME
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split(",")
        try:
            name, ghz, clock, signal, bram, io, leakage, total = parts
            std = by_name.get(name)
            if std is None:
                std = IoStandard.parse(name)
            ch = channel_at(float(ghz))
            cell = PowerBreakdown(
                float(clock), float(signal), float(bram), float(io), float(leakage), float(total)
            )
        except ValueError:
            ch = None
        if ch is None:
            std, ch, cell = _parse_cell(lineno, parts)
        key = (std, ch)
        if key in cells:
            raise ValueError(f"line {lineno}: duplicate cell ({std.name}, {ch.carrier_ghz})")
        cells[key] = cell
    return CalibrationDataset(cells=cells, provenance=provenance)


def _parse_cell(lineno: int, parts: list[str]) -> tuple[IoStandard, WlanChannel, PowerBreakdown]:
    """A data line's standard, channel and cell, read from its stripped
    fields in the order a well-formed line is checked, or a ValueError
    naming the first rule it breaks."""
    parts = [p.strip() for p in parts]
    if len(parts) != 8:
        raise ValueError(f"line {lineno}: expected 8 fields, got {len(parts)}")
    try:
        std = IoStandard.parse(parts[0])
        ch = WlanChannel.from_ghz(float(parts[1]))
        cell = PowerBreakdown(*map(float, parts[2:]))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return std, ch, cell


def load_calibration_file(path: str) -> CalibrationDataset:
    with open(path, "r", encoding="utf-8") as fh:
        return read_calibration(fh.read(), provenance=f"file: {path}")
