"""Property tests of the two untrusted boundaries, calibration text and argv,
and of the checks of the records built from them.

Every command line gives a documented exit code with one `iotram:` (or
argparse) line on stderr and never a traceback; a calibration text the
reader rejects is refused at the physical line of its first bad value, and
every text it accepts either fits with finite coefficients, and then prices
every off-grid frequency as that fit predicts, or raises one of the fit's
documented errors. The fit is also held to a reference written here, the
pooled series summed left to right, to the bit, and the reader and the grid
check to their first versions, copied here: the same cells or error text
for texts written loosely, and the same diagnostics for perturbed grids. A
grid of any finite non-negative floats reads back from its CSV exactly. A
checked record (a `PowerBreakdown`, `RailFit` or `RamConfig`) accepts and
rejects the same fields, with the same message, however it is built, and
every record that checks in `__new__` is built on `checked_record`. Every
named tuple class in `iotram` has no instance `__dict__`, keeps its fields in
their declared order, equals the plain tuple of its fields and comes back
equal from pickle and deep copy. Example
counts are fixed, and the profile in conftest.py derandomizes every property
test and lifts its deadline, so the run time is bounded and nothing depends
on timing.
"""

import copy
import importlib
import math
import pickle
import pkgutil
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iotram
from iotram.net.service import RamService
from iotram.power import (
    CHANNELS,
    STANDARDS,
    CalibrationDataset,
    DegenerateFit,
    IoStandard,
    MissingCell,
    NonPositiveFrequency,
    PowerBreakdown,
    Rail,
    WlanChannel,
    builtin_dataset,
    fit,
    power_at,
    predict,
    read_calibration,
    validate_dataset,
    write_calibration,
)
from iotram.power.dataset import (
    CALIBRATION_HEADER,
    ROW_SUM_TOLERANCE_W,
    Diagnostic,
    DiagnosticCode,
)
from iotram.net.frames import Opcode, RequestFrame, ResponseFrame
from iotram.power.model import FitKind, ModelCoefficients, RailFit
from iotram.power.reductions import PUBLISHED_CLAIMS, reduction
from iotram.ram import InvalidConfig, RamConfig, Status
from iotram.ram.trace import TraceOp
from golden_transcripts import run_cli

STANDARD_NAMES = ("LVCMOS12", "LVCMOS15", "LVCMOS18", "LVCMOS25")
CARRIERS_GHZ = (0.9, 2.4, 3.6, 5.0, 5.9)

# Plausible watts, and a few extreme values in some grids: zero, the smallest
# subnormal and values whose sums overflow. Extremes are drawn per grid, not
# per value: with one chance in two per value nearly every grid overflowed
# its fit, and no drawn grid reached the checks on a fit that succeeds.
_WATTS = st.floats(0.0, 20.0)
_EXTREME = st.sampled_from([0.0, 5e-324, 1e308, 1.7e308])
_REJECTED = st.sampled_from([-1.0, -math.inf, math.inf, math.nan])
#: Lines the reader skips, wherever they stand.
_IGNORED = st.sampled_from(["", "   ", "# note", "  # indented note"])


@st.composite
def calibration_texts(draw) -> str:
    """A grid of some standards at two or more channels, less one cell in some
    grids (so a standard may have a single channel, or the grid a single
    frequency), with up to two extreme values in some, one rail all zero in
    some, one value the reader rejects in others, and comment and blank lines
    anywhere, the header's place included."""
    stds = draw(st.lists(st.sampled_from(STANDARD_NAMES), min_size=1, max_size=3, unique=True))
    ghzs = draw(st.lists(st.sampled_from(CARRIERS_GHZ), min_size=2, max_size=4, unique=True))
    cells = [(std, ghz) for std in stds for ghz in ghzs]
    if draw(st.booleans()):
        cells.remove(draw(st.sampled_from(cells)))
    values = draw(st.lists(_WATTS, min_size=6 * len(cells), max_size=6 * len(cells)))
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, len(values) - 1))] = draw(_EXTREME)
    zero_rail = draw(st.one_of(st.none(), st.integers(0, 5)))
    if zero_rail is not None:
        values[zero_rail::6] = [0.0] * len(cells)
    if values and draw(st.integers(0, 3)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(_REJECTED)
    lines = [CALIBRATION_HEADER]
    for i, (std, ghz) in enumerate(cells):
        lines.append(f"{std},{ghz}," + ",".join(map(repr, values[6 * i:6 * i + 6])))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_IGNORED))
    return "\n".join(lines) + "\n"


def _rejected_lines(text: str) -> list[int]:
    """The 1-based physical lines of the cells holding a value the reader
    rejects: negative, infinite or NaN."""
    return [
        lineno for lineno, line in enumerate(text.splitlines(), start=1)
        if line.startswith("LVCMOS")
        and not all(0 <= float(value) < math.inf for value in line.split(",")[2:])
    ]


_STANDARD = st.sampled_from(["LVCMOS12", "LVCMOS15", "LVCMOS18", "lvcmos25", "all", "LVCMOS33", ""])
_CHANNEL = st.sampled_from(["2.4", "802.11p", "0.9", "5.0", "all", "7.0", "nan", "-1"])
_RAIL = st.sampled_from(["io", "total", "leakage", "signal", "bogus"])
_FREQ = st.one_of(
    st.sampled_from(["3.0", "2.4", "0.5", "0", "-1", "nan", "inf", "-inf", "1.7e308", "1e300", "5e-324"]),
    st.floats().map(repr),
)
_KEY = st.sampled_from(
    ["2001:db8::2", "ff", "not-a-key", "1" + "0" * 32, "0xff", "0XFF", "+ff", "de_ad", "-0", "\u0661\u0662", "-1"]
)
_DEPTH = st.sampled_from(["16", "4294967296", "0", "-1", "x", "16", "4294967297"])
_INPUT = st.sampled_from([None, "{dir}/grid.csv", "{dir}/grid.csv", "{dir}/grid.csv", "{dir}/missing.csv"])


SUBCOMMANDS = ("table", "compare", "fit", "predict", "validate", "ram-run", "serve")


@st.composite
def command_lines(draw, sub: str) -> list[str]:
    """One argv of a subcommand that runs to completion, with `{dir}` for
    the directory of its input files."""

    def opt(name: str, strategy, present=None) -> list[str]:
        if present is None:
            present = draw(st.booleans())
        return [f"--{name}={draw(strategy)}"] if present else []

    def formats(*choices: str) -> list[str]:
        return opt("format", st.sampled_from(choices))

    if sub == "table":
        argv = opt("standard", _STANDARD) + opt("channel", _CHANNEL) + formats("text", "csv", "json")
    elif sub == "compare":
        argv = (opt("rail", _RAIL, True) + opt("from", _STANDARD, True) + opt("to", _STANDARD, True)
                + opt("channel", _CHANNEL) + formats("text", "csv", "json"))
    elif sub == "fit":
        argv = formats("text", "json")
    elif sub == "predict":
        argv = opt("standard", _STANDARD, True) + opt("freq-ghz", _FREQ, True) + formats("text", "json")
    elif sub == "validate":
        argv = []
    elif sub == "ram-run":
        priced = draw(st.booleans())
        argv = (opt("trace", st.sampled_from(["{dir}/ops.trace"] * 3 + ["{dir}/bad.trace"]), True)
                + opt("key", _KEY) + opt("depth", _DEPTH)
                + opt("standard", _STANDARD, priced) + opt("channel", _CHANNEL, priced))
    else:
        binds = ["127.0.0.1:0"] * 3 + ["nonsense", "127.0.0.1:70000", "[::1"]
        argv = (opt("bind", st.sampled_from(binds), True) + opt("standard", _STANDARD)
                + opt("channel", _CHANNEL) + opt("device-key", _KEY) + opt("depth", _DEPTH))
    path = draw(_INPUT)
    return [sub] + argv + ([f"--input={path}"] if path else [])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("properties")
    (path / "ops.trace").write_text("W 0 DEADBEEF\nR 0\nR 999\n", encoding="utf-8")
    (path / "bad.trace").write_text("R 0\nW 0\n", encoding="utf-8")
    return path


def _check_documented_exit(workdir, argv: list[str]) -> None:
    code, out, err = run_cli([arg.replace("{dir}", str(workdir)) for arg in argv])
    assert code in ((0, 2, 3, 4, 5) if argv[0] == "serve" else (0, 2, 3, 4)), err
    assert "Traceback" not in err
    if argv[0] == "serve" and not code:
        # It bound, was stopped at once, and printed the ledger of no requests.
        assert err == "", err
        ledger = re.escape("ops_total=0 [] cycles=0 energy=0.000000e+00 J")
        assert re.fullmatch(rf"listening on 127\.0\.0\.1:\d+ \(.*\)\n{ledger}\n", out), out
    elif code and not err:
        # validate reports the defects it finds on stdout, then exits 4.
        assert argv[0] == "validate" and code == 4 and "dataset defect(s)" in out
    elif code:
        lines = err.splitlines()
        assert [ln for ln in lines if ln.startswith("iotram")] == lines[-1:], err
        assert re.match(r"iotram(: | [\w-]+: error: )", lines[-1]), err


@pytest.mark.parametrize("sub", SUBCOMMANDS)
@settings(max_examples=50)
@given(data=st.data(), grid=calibration_texts())
def test_every_command_line_exits_with_a_documented_code(workdir, sub, data, grid):
    argv = data.draw(command_lines(sub), label="argv")
    (workdir / "grid.csv").write_text(grid, encoding="utf-8")
    # A `serve` that binds is stopped at once, as a Ctrl-C would stop it.
    with mock.patch.object(RamService, "serve_forever", side_effect=KeyboardInterrupt):
        _check_documented_exit(workdir, argv)


# The 50 drawn ram-run command lines never reach these depths: the deepest
# RAM that 32-bit addresses reach, and one word more.
@pytest.mark.parametrize("depth", [str(2**32), str(2**32 + 1)])
def test_ram_run_at_the_edge_of_the_address_space_exits_with_a_documented_code(workdir, depth):
    _check_documented_exit(workdir, ["ram-run", "--trace={dir}/ops.trace", f"--depth={depth}"])


@settings(max_examples=100)
@given(text=calibration_texts())
def test_accepted_grids_fit_finite_or_raise_documented_errors(text):
    rejected = _rejected_lines(text)
    if rejected:
        with pytest.raises(ValueError, match=rf"^line {rejected[0]}: "):
            read_calibration(text)
        return
    ds = read_calibration(text)
    try:
        coeffs = fit(ds)
    except (DegenerateFit, MissingCell):
        return
    fits = [coeffs.clock, coeffs.signal, coeffs.bram, *coeffs.io.values(), *coeffs.leakage.values()]
    for rail_fit in fits:
        assert math.isfinite(rail_fit.slope_w_per_ghz), rail_fit
        assert math.isfinite(rail_fit.intercept_w), rail_fit

    # A fresh read of the same text, so that power_at's first call fits it and
    # the repeat call uses the fit kept on the grid.
    fresh = read_calibration(text)
    for std in ds.standards():
        for f_ghz in OFF_GRID_GHZ:
            want = _outcome(predict, coeffs, std, f_ghz)
            assert _outcome(power_at, fresh, std, f_ghz) == want, (std, f_ghz)
            assert _outcome(power_at, fresh, std, f_ghz) == want, (std, f_ghz)


#: Frequencies between and beyond the table channels.
OFF_GRID_GHZ = (0.5, 3.0, 5.5, 7.0)


def _outcome(fn, *args):
    """fn(*args), or the type of the documented error it raised."""
    try:
        return fn(*args)
    except NonPositiveFrequency:
        return NonPositiveFrequency


def _total(xs) -> float:
    """Floats added left to right: `sum()` up to Python 3.11, which from 3.12
    on compensates and so rounds differently."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _reference_fit(ds) -> dict[str, RailFit]:
    """The fit as first written: each series built from the grid on its own,
    the shared rails pooled standard by standard, and every sum added left to
    right. A fit that adds the same floats in another order differs from it
    in the last bits."""
    distinct = {ch.carrier_ghz for _, ch in ds.cells}
    if len(distinct) < 2:
        raise DegenerateFit(f"need at least 2 distinct frequencies, grid has {sorted(distinct)}")

    def series(rail, std):
        return [(ch.carrier_ghz, getattr(ds.cells[(std, ch)], rail.field))
                for ch in ds.channels() if (std, ch) in ds.cells]

    def through_origin(points):
        sfy = _total(f * y for f, y in points)
        sf2 = _total(f * f for f, _ in points)
        return RailFit(sfy / sf2, 0.0, FitKind.THROUGH_ORIGIN)

    def affine(points):
        distinct = {f for f, _ in points}
        if len(distinct) < 2:
            raise DegenerateFit(f"affine fit needs 2 distinct frequencies, got {sorted(distinct)}")
        n = len(points)
        sf = _total(f for f, _ in points)
        sy = _total(y for _, y in points)
        sfy = _total(f * y for f, y in points)
        sf2 = _total(f * f for f, _ in points)
        slope = (n * sfy - sf * sy) / (n * sf2 - sf * sf)
        return RailFit(slope, (sy - slope * sf) / n, FitKind.AFFINE)

    pooled = lambda rail: [p for std in ds.standards() for p in series(rail, std)]
    fits = {
        "clock": through_origin(pooled(Rail.CLOCK)),
        "signal": affine(pooled(Rail.SIGNAL)),
        "bram": through_origin(pooled(Rail.BRAM)),
    }
    for std in ds.standards():
        fits[f"io[{std.name}]"] = through_origin(series(Rail.IO, std))
    for std in ds.standards():
        fits[f"leakage[{std.name}]"] = affine(series(Rail.LEAKAGE, std))
    return fits


def _bits(rail_fit: RailFit) -> tuple:
    return rail_fit.slope_w_per_ghz.hex(), rail_fit.intercept_w.hex(), rail_fit.fit_kind


@settings(max_examples=300)
@given(text=calibration_texts())
def test_fit_matches_the_pooled_series_reference_to_the_bit(text):
    try:
        ds = read_calibration(text)
    except ValueError:
        return
    try:
        want = _reference_fit(ds)
    except DegenerateFit as exc:
        with pytest.raises(DegenerateFit) as err:
            fit(ds)
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
        return
    coeffs = fit(ds)
    got = {"clock": coeffs.clock, "signal": coeffs.signal, "bram": coeffs.bram}
    got.update({f"io[{std.name}]": rf for std, rf in coeffs.io.items()})
    got.update({f"leakage[{std.name}]": rf for std, rf in coeffs.leakage.items()})
    assert {name: _bits(rf) for name, rf in got.items()} == {
        name: _bits(rf) for name, rf in want.items()
    }


# The reader as first written, before its one-pass loop: every field
# stripped, the standard through `IoStandard.parse` and the channel through
# `WlanChannel.from_ghz`. It is the oracle for every text, taken or refused.
def _reference_read_calibration(text: str) -> CalibrationDataset:
    lines = enumerate(text.splitlines(), start=1)
    for _, raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            if line.replace(" ", "") != CALIBRATION_HEADER:
                raise ValueError(f"bad calibration header: {line!r}")
            break
    else:
        raise ValueError("empty calibration file")
    cells = {}
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 8:
            raise ValueError(f"line {lineno}: expected 8 fields, got {len(parts)}")
        try:
            std = IoStandard.parse(parts[0])
            ch = WlanChannel.from_ghz(float(parts[1]))
            cell = PowerBreakdown(*map(float, parts[2:]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        key = (std, ch)
        if key in cells:
            raise ValueError(f"line {lineno}: duplicate cell ({std.name}, {ch.carrier_ghz})")
        cells[key] = cell
    return CalibrationDataset(cells=cells)


#: Blanks around a field, mostly none: those `str.strip()` and `float()`
#: both take, and U+001F, which `str.strip()` takes and `float()` refuses.
_BLANK = st.sampled_from([""] * 30 + [" ", "\t", "　", " \t ", "\xa0", "\x1f"])
#: Each field as the reader takes it, and as it refuses it. Standards come
#: in other spellings, carriers written another way or within 1e-9 GHz of
#: 3.6, and values that `float()` reads unusually.
_TAKEN_STANDARDS = ["LVCMOS12", "LVCMOS25", "lvcmos12", "LVCMOS_15", " LVCMOS 18", "LvCmOs25"]
_REFUSED_STANDARDS = ["LVCMOS33", ""]
_TAKEN_CHANNELS = ["0.9", "2.4", "2.40", " 2.4", "5.9", "3.6000000001"]
_REFUSED_CHANNELS = ["3.600000002", "nan", "7.0", "x", ""]
_TAKEN_VALUES = ["1_0", "-0.0", "0", "٣.5"]
_REFUSED_VALUES = ["1e309", "-1", "nan", "1__0", "x", ""]


@st.composite
def loose_calibration_texts(draw) -> str:
    """Texts a person might write: fields with blanks around them, standards,
    carriers and values written unusually, repeated cells, and comment and
    blank lines anywhere. In half the texts every field is one the reader
    takes, so that later lines and repeated cells are reached; in the other
    half any field may be refused, and a line may have 7 or 9 fields."""
    refused = draw(st.booleans())
    standards = st.sampled_from(_TAKEN_STANDARDS + _REFUSED_STANDARDS * refused)
    channels = st.sampled_from(_TAKEN_CHANNELS + _REFUSED_CHANNELS * refused)
    values = st.one_of(
        _WATTS.map(repr), _WATTS.map("{:.3f}".format),
        st.sampled_from(_TAKEN_VALUES + _REFUSED_VALUES * refused),
    )
    widths = st.sampled_from([6, 6, 6, 6, 5, 7] if refused else [6])
    lines = [draw(st.sampled_from([CALIBRATION_HEADER, " " + CALIBRATION_HEADER.replace(",", ", ")]))]
    for _ in range(draw(st.integers(0, 6))):
        fields = [draw(standards), draw(channels)]
        fields += [draw(values) for _ in range(draw(widths))]
        lines.append(",".join(draw(_BLANK) + f + draw(_BLANK) for f in fields))
        if draw(st.integers(0, 5)) == 0:
            lines.append(lines[-1])
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_IGNORED))
    return "\n".join(lines) + "\n"


def _cell_bits(ds) -> list:
    """A grid's cells in order, each value to the bit (-0.0 is not 0.0)."""
    return [(key, tuple(map(float.hex, cell))) for key, cell in ds.cells.items()]


def _read_outcome(read, text):
    """The cells a reader gives, or its error."""
    try:
        return _cell_bits(read(text))
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(text=st.one_of(loose_calibration_texts(), calibration_texts()))
def test_read_calibration_agrees_with_the_field_by_field_reader(text):
    assert _read_outcome(read_calibration, text) == _read_outcome(_reference_read_calibration, text)


# The oracle of `validate_dataset`'s one sweep: each rule in a walk of its
# own, in the order of the findings. It pins every diagnostic, its text and
# its place in the list.
def _reference_validate(ds) -> list[Diagnostic]:
    out = []
    cells = ds.cells
    rows = [
        (std, [(ch, cell) for ch in ds.channels() if (cell := cells.get((std, ch))) is not None])
        for std in ds.standards()
    ]
    for std, row in rows:
        for ch, cell in row:
            if cell.row_sum_error_w > ROW_SUM_TOLERANCE_W:
                out.append(Diagnostic(
                    DiagnosticCode.ROW_SUM,
                    f"rails sum to {cell.rail_sum_w:.3f} W but total is "
                    f"{cell.total_w:.3f} W (tolerance {ROW_SUM_TOLERANCE_W} W)",
                    f"({std.name}, {ch.carrier_ghz} GHz)",
                ))
    for std, row in rows:
        for rail in Rail:
            for (ch_a, cell_a), (ch_b, cell_b) in zip(row, row[1:]):
                w_a, w_b = getattr(cell_a, rail.field), getattr(cell_b, rail.field)
                if w_b <= w_a:
                    out.append(Diagnostic(
                        DiagnosticCode.MONOTONIC_FREQ,
                        f"{rail.name.lower()} does not increase with frequency: "
                        f"{w_a:.3f} W at {ch_a.carrier_ghz} GHz vs "
                        f"{w_b:.3f} W at {ch_b.carrier_ghz} GHz",
                        f"({std.name}, {rail.name.lower()})",
                    ))
    for ch in ds.channels():
        column = [(std, cell) for std in ds.standards() if (cell := cells.get((std, ch))) is not None]
        for rail in (Rail.IO, Rail.TOTAL):
            for (std_a, cell_a), (std_b, cell_b) in zip(column, column[1:]):
                w_a, w_b = getattr(cell_a, rail.field), getattr(cell_b, rail.field)
                if w_b <= w_a:
                    out.append(Diagnostic(
                        DiagnosticCode.MONOTONIC_VOLT,
                        f"{rail.name.lower()} does not increase with supply voltage: "
                        f"{w_a:.3f} W for {std_a.name} vs "
                        f"{w_b:.3f} W for {std_b.name}",
                        f"({ch.carrier_ghz} GHz, {rail.name.lower()})",
                    ))
    return out


#: "equal" is listed thrice: a tie is the finding the sweep may most easily miss.
_PERTURBATIONS = ("equal", "equal", "equal", "swap", "row_sum", "row_sum_past", "drop", "single")


def _edge_total(rail_sum: float, sign: float) -> float:
    """The total farthest from `rail_sum` on one side that the 5 mW check
    still passes, as it subtracts: at most one ulp from `rail_sum` plus or
    minus the tolerance."""
    total = rail_sum + sign * ROW_SUM_TOLERANCE_W
    while abs(total - rail_sum) > ROW_SUM_TOLERANCE_W:
        total = math.nextafter(total, rail_sum)
    while abs((past := math.nextafter(total, sign * math.inf)) - rail_sum) <= ROW_SUM_TOLERANCE_W:
        total = past
    return total


@st.composite
def perturbed_builtin_grids(draw) -> CalibrationDataset:
    """The builtin grid, in some draws scaled down so that the 5 mW
    tolerance spans neighbouring totals, with up to three changes: a field
    set equal to its neighbour's along the channels or the standards (a rail
    with the total re-summed in some), two cells swapped, a total at the
    edge of the 5 mW tolerance or one ulp past it, a cell dropped, or the
    grid cut to one standard or one channel."""
    scale = draw(st.sampled_from([1.0, 0.01, 0.001]))
    cells = {key: PowerBreakdown(*(v * scale for v in cell))
             for key, cell in builtin_dataset().cells.items()}
    for kind in draw(st.lists(st.sampled_from(_PERTURBATIONS), max_size=3)):
        key = draw(st.sampled_from(list(cells)))
        std, ch = key
        cell = cells[key]
        if kind == "equal":
            i, j = STANDARDS.index(std), CHANNELS.index(ch)
            other = draw(st.sampled_from([
                (STANDARDS[(i + 1) % len(STANDARDS)], ch), (std, CHANNELS[(j + 1) % len(CHANNELS)]),
            ]))
            if other in cells:
                field = draw(st.sampled_from(BREAKDOWN_FIELDS))
                cell = cell._replace(**{field: getattr(cells[other], field)})
                if field != "total_w" and draw(st.booleans()):
                    cell = cell._replace(total_w=cell.rail_sum_w)
                cells[key] = cell
        elif kind == "swap":
            other = draw(st.sampled_from(list(cells)))
            cells[key], cells[other] = cells[other], cell
        elif kind in ("row_sum", "row_sum_past"):
            sign = draw(st.sampled_from([1.0, -1.0]))
            total = _edge_total(cell.rail_sum_w, sign)
            if kind == "row_sum_past":
                total = math.nextafter(total, sign * math.inf)
            cells[key] = cell._replace(total_w=max(total, 0.0))
        elif kind == "drop" and len(cells) > 1:
            del cells[key]
        elif kind == "single":
            axis = draw(st.integers(0, 1))
            cells = {k: v for k, v in cells.items() if k[axis] is key[axis]}
    return CalibrationDataset(cells)


@settings(max_examples=500)
@given(ds=perturbed_builtin_grids())
def test_validate_dataset_agrees_with_the_walk_it_replaced(ds):
    assert validate_dataset(ds) == _reference_validate(ds)


@pytest.mark.parametrize("scale", [1.0, 0.01, 0.001])
def test_validate_dataset_agrees_at_the_edge_of_the_row_sum_tolerance(scale):
    # Each cell of the scaled builtin grid in turn, its total at the edge of
    # the tolerance and one ulp past it, on both sides.
    base = {key: PowerBreakdown(*(v * scale for v in cell))
            for key, cell in builtin_dataset().cells.items()}
    for key, cell in base.items():
        for sign in (1.0, -1.0):
            edge = _edge_total(cell.rail_sum_w, sign)
            for total in (edge, math.nextafter(edge, sign * math.inf)):
                if total >= 0:
                    ds = CalibrationDataset({**base, key: cell._replace(total_w=total)})
                    assert validate_dataset(ds) == _reference_validate(ds), (key, total)


#: Finite, non-negative floats, with the values the milliwatt format used
#: to round and the extremes drawn often.
_GRID_VALUES = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 0.1612, 4.8492, 1e300, 1.7976931348623157e308]),
)


@settings(max_examples=100)
@given(
    keys=st.lists(st.tuples(st.sampled_from(STANDARDS), st.sampled_from(CHANNELS)), unique=True),
    data=st.data(),
)
def test_written_grids_read_back_exactly(keys, data):
    ds = CalibrationDataset({
        key: PowerBreakdown(*data.draw(st.tuples(*[_GRID_VALUES] * 6))) for key in keys
    })
    again = read_calibration(write_calibration(ds))
    assert again.cells == ds.cells
    assert dict(_cell_bits(again)) == dict(_cell_bits(ds))


# Field values for the checked records: any float, and the edges of each
# check drawn often. The reference errors below are the rules of the checks
# as first written, when each record was a frozen dataclass that checked on
# construction and on `dataclasses.replace`.
_FIELD_FLOATS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -1.0, math.nan, math.inf, -math.inf])
)
_FIELD_INTS = st.one_of(
    st.integers(), st.sampled_from([-1, 0, 1, 2**32, 2**32 + 1, 2**128 - 1, 2**128])
)
BREAKDOWN_FIELDS = ("clock_w", "signal_w", "bram_w", "io_w", "leakage_w", "total_w")


def _breakdown_error(values):
    """The first field in declaration order that is negative, NaN or infinite."""
    for name, value in zip(BREAKDOWN_FIELDS, values):
        if value < 0:
            return ValueError, f"{name} must be >= 0, got {value}"
        if not value < math.inf:
            return ValueError, f"{name} must be finite, got {value}"
    return None


def _rail_fit_error(slope, intercept, kind):
    if math.isfinite(slope) and math.isfinite(intercept):
        return None
    return DegenerateFit, f"{kind.value} fit overflows: slope {slope}, intercept {intercept}"


def _config_error(depth, key):
    if depth < 1:
        return InvalidConfig, f"depth_words must be >= 1, got {depth}"
    if depth > 2**32:
        return InvalidConfig, f"depth_words must be <= 2**32 (32-bit addresses), got {depth}"
    if not 0 <= key < 2**128:
        return InvalidConfig, "device_ipv6 must fit in 128 bits"
    return None


def _check_every_build(cls, names, values, base, forged, want_error):
    """Build a `cls` with these field values every way there is: by position,
    by keyword, with `_make` (a named tuple's), with `_replace` of the valid
    `base`, and as a pickle under every protocol, copy and deep copy of
    `forged`, an instance made past the checks. Each must give the field
    values unchanged, or raise `want_error`, a (type, message) pair."""
    kwargs = dict(zip(names, values))
    builds = {
        "positional": lambda: cls(*values),
        "keyword": lambda: cls(**kwargs),
        "_replace": lambda: base._replace(**kwargs),
        "copy": lambda: copy.copy(forged),
        "deepcopy": lambda: copy.deepcopy(forged),
    }
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        builds[f"pickle {protocol}"] = lambda p=protocol: pickle.loads(pickle.dumps(forged, p))
    if hasattr(cls, "_make"):
        builds["_make"] = lambda: cls._make(values)
    want_repr = f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in kwargs.items())})"
    for how, build in builds.items():
        if want_error is None:
            record = build()
            assert type(record) is cls and repr(record) == want_repr, how
        else:
            with pytest.raises(want_error[0]) as err:
                build()
            assert (type(err.value), str(err.value)) == want_error, how


@settings(max_examples=300)
@given(values=st.tuples(*[_FIELD_FLOATS] * 6))
def test_every_way_to_build_a_breakdown_checks_it(values):
    base = PowerBreakdown(0.1, 0.2, 0.3, 0.4, 0.5, 1.5)
    forged = tuple.__new__(PowerBreakdown, values)
    want = _breakdown_error(values)
    _check_every_build(PowerBreakdown, BREAKDOWN_FIELDS, values, base, forged, want)
    # `_replace` of one field checks the record it makes.
    for name, value in zip(BREAKDOWN_FIELDS, values):
        one = tuple(value if n == name else v for n, v in zip(BREAKDOWN_FIELDS, base))
        want_one = _breakdown_error(one)
        if want_one is None:
            assert list(map(repr, base._replace(**{name: value}))) == list(map(repr, one))
        else:
            with pytest.raises(ValueError) as err:
                base._replace(**{name: value})
            assert str(err.value) == want_one[1]


@settings(max_examples=200)
@given(slope=_FIELD_FLOATS, intercept=_FIELD_FLOATS, kind=st.sampled_from(FitKind))
def test_every_way_to_build_a_rail_fit_checks_it(slope, intercept, kind):
    values = (slope, intercept, kind)
    _check_every_build(
        RailFit, ("slope_w_per_ghz", "intercept_w", "fit_kind"), values,
        RailFit(1.0, 0.0, FitKind.THROUGH_ORIGIN), tuple.__new__(RailFit, values),
        _rail_fit_error(*values),
    )


@settings(max_examples=200)
@given(depth=_FIELD_INTS, key=_FIELD_INTS)
def test_every_way_to_build_a_ram_config_checks_it(depth, key):
    _check_every_build(
        RamConfig, ("depth_words", "device_ipv6"), (depth, key), RamConfig(),
        tuple.__new__(RamConfig, (depth, key)),
        _config_error(depth, key),
    )


def _records() -> dict[str, type]:
    """Every named tuple class that a module of `iotram` defines, by name."""
    records = {}
    for info in pkgutil.walk_packages(iotram.__path__, "iotram."):
        for cls in vars(importlib.import_module(info.name)).values():
            if (
                isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")
                and cls.__module__.startswith("iotram.")
            ):
                records[cls.__qualname__] = cls
    return records


def test_checked_records_build_through_checked_record():
    # A record that checks in `__new__` but keeps the namedtuple's `_make`,
    # or the default pickling, can be built past its check.
    records = {}
    for name, cls in _records().items():
        generated = next(c for c in cls.__mro__ if "_fields" in vars(c))
        if cls.__new__ is not generated.__new__:
            records[name] = cls
    assert set(records) == {"RamConfig", "PowerBreakdown", "RailFit", "ModelCoefficients"}
    for name, cls in records.items():
        assert cls._make.__func__.__module__ == "iotram._record", name
        # A read-only mapping cannot be pickled, so a fit pickles its own way.
        home = "iotram.power.model" if name == "ModelCoefficients" else "iotram._record"
        assert cls.__reduce__.__module__ == home, name


def test_every_record_is_a_slotted_tuple_of_its_fields():
    # One record of each class, with its fields in their declared order.
    ds = builtin_dataset()
    coeffs = fit(ds)
    samples = {
        "TraceOp": (TraceOp(7, False, 3), "lineno is_write addr data"),
        "RequestFrame": (RequestFrame(Opcode.WRITE, 2**128 - 1, 3, 4, 5),
                         "opcode target_key addr data seq"),
        "ResponseFrame": (ResponseFrame(Status.OK, 0xDEADBEEF, 9), "status data seq"),
        "Diagnostic": (Diagnostic(DiagnosticCode.ROW_SUM, "off by 1 W", "LVCMOS12 @ 0.9 GHz"),
                       "code message location"),
        "ReductionReport": (
            reduction(ds, Rail.IO, IoStandard.LVCMOS25, IoStandard.LVCMOS12, WlanChannel.GHZ_2_4),
            "rail base_std alt_std channel base_w alt_w",
        ),
        "PublishedClaim": (PUBLISHED_CLAIMS[0], "rail channel quoted_percent source"),
        "RamConfig": (RamConfig(16, 5), "depth_words device_ipv6"),
        "PowerBreakdown": (ds.cells[IoStandard.LVCMOS12, WlanChannel.GHZ_0_9],
                           "clock_w signal_w bram_w io_w leakage_w total_w"),
        "RailFit": (coeffs.signal, "slope_w_per_ghz intercept_w fit_kind"),
        "ModelCoefficients": (coeffs, "clock signal bram io leakage"),
    }
    assert set(_records()) == set(samples)
    for name, (record, fields) in samples.items():
        cls, fields = type(record), tuple(fields.split())
        assert cls.__name__ == name and cls._fields == fields, name
        assert not hasattr(record, "__dict__"), name
        values = tuple(getattr(record, field) for field in fields)
        assert record == values and list(record._asdict().items()) == list(zip(fields, values))
        assert repr(record) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
        copies = [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in [*copies, copy.deepcopy(record)]:
            assert type(again) is cls and again == record, name
    assert TraceOp(7, False, 3).data is None
