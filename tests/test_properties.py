"""Property tests of the two untrusted boundaries, calibration text and argv,
and of the checks of the records built from them.

Every command line gives a documented exit code with one `iotram:` (or
argparse) line on stderr and never a traceback; a calibration text the
reader rejects is refused at the physical line of its first bad value, and
every text it accepts either fits with finite coefficients, and then prices
every off-grid frequency as that fit predicts, or raises one of the fit's
documented errors. The fit is also held to a reference written here, the
pooled series summed with `sum()`, to the bit. A checked record (a
`PowerBreakdown`, `RailFit` or `RamConfig`) accepts and rejects the same
fields, with the same message, however it is built. Example counts are
fixed, and the profile in conftest.py derandomizes every property test and
lifts its deadline, so the run time is bounded and nothing depends on timing.
"""

import copy
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotram.power import (
    DegenerateFit,
    MissingCell,
    NonPositiveFrequency,
    PowerBreakdown,
    Rail,
    fit,
    power_at,
    predict,
    read_calibration,
)
from iotram.power.dataset import CALIBRATION_HEADER
from iotram.power.model import FitKind, RailFit
from iotram.ram import InvalidConfig, RamConfig
from test_golden import run_cli

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
_INPUT = st.sampled_from([None, "{dir}/grid.csv", "{dir}/grid.csv", "{dir}/grid.csv", "{dir}/missing.csv"])


SUBCOMMANDS = ("table", "compare", "fit", "predict", "validate", "ram-run")


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
    else:
        priced = draw(st.booleans())
        argv = (opt("trace", st.sampled_from(["{dir}/ops.trace"] * 3 + ["{dir}/bad.trace"]), True)
                + opt("key", st.sampled_from(["2001:db8::2", "ff", "not-a-key"]))
                + opt("depth", st.sampled_from(["16", "4294967296", "0", "-1", "x", "16", "4294967297"]))
                + opt("standard", _STANDARD, priced) + opt("channel", _CHANNEL, priced))
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
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code and not err:
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


def _reference_fit(ds) -> dict[str, RailFit]:
    """The fit as first written: each series built from the grid on its own,
    the shared rails pooled standard by standard, and every sum a `sum()`. A
    fit that adds the same floats in another order differs from it in the
    last bits."""
    distinct = {ch.carrier_ghz for _, ch in ds.cells}
    if len(distinct) < 2:
        raise DegenerateFit(f"need at least 2 distinct frequencies, grid has {sorted(distinct)}")

    def series(rail, std):
        return [(ch.carrier_ghz, getattr(ds.cells[(std, ch)], rail.field))
                for ch in ds.channels() if (std, ch) in ds.cells]

    def through_origin(points):
        sfy = sum(f * y for f, y in points)
        sf2 = sum(f * f for f, _ in points)
        return RailFit(sfy / sf2, 0.0, FitKind.THROUGH_ORIGIN)

    def affine(points):
        distinct = {f for f, _ in points}
        if len(distinct) < 2:
            raise DegenerateFit(f"affine fit needs 2 distinct frequencies, got {sorted(distinct)}")
        n = len(points)
        sf = sum(f for f, _ in points)
        sy = sum(y for _, y in points)
        sfy = sum(f * y for f, y in points)
        sf2 = sum(f * f for f, _ in points)
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
    by keyword, with `_make` (a NamedTuple's), with `_replace` of the valid
    `base`, and as a pickle, copy and deep copy of `forged`, an instance made
    past the checks. Each must give the field values unchanged, or raise
    `want_error`, a (type, message) pair."""
    kwargs = dict(zip(names, values))
    builds = {
        "positional": lambda: cls(*values),
        "keyword": lambda: cls(**kwargs),
        "_replace": lambda: base._replace(**kwargs),
        "pickle": lambda: pickle.loads(pickle.dumps(forged)),
        "copy": lambda: copy.copy(forged),
        "deepcopy": lambda: copy.deepcopy(forged),
    }
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
    forged = object.__new__(RamConfig)
    object.__setattr__(forged, "depth_words", depth)
    object.__setattr__(forged, "device_ipv6", key)
    _check_every_build(
        RamConfig, ("depth_words", "device_ipv6"), (depth, key), RamConfig(), forged,
        _config_error(depth, key),
    )
