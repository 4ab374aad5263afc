"""Golden checks of the builtin calibration grid and the file format."""

import copy
import math
import pickle

import pytest

from iotram.power import (
    CHANNELS,
    CalibrationDataset,
    IoStandard,
    MissingCell,
    PowerBreakdown,
    Rail,
    STANDARDS,
    WlanChannel,
    builtin_dataset,
    read_calibration,
    validate_dataset,
    write_calibration,
)
from iotram.power.dataset import CALIBRATION_HEADER, ROW_SUM_TOLERANCE_W, DiagnosticCode

@pytest.fixture
def ds():
    return builtin_dataset()


def test_builtin_matches_golden_transcription(ds, golden_grid):
    checked = 0
    for ghz, block in golden_grid.items():
        ch = WlanChannel.from_ghz(ghz)
        for rail_name, row in block.items():
            rail = Rail.parse(rail_name)
            for std, expected in zip(STANDARDS, row):
                assert ds.lookup(std, ch).rail(rail) == expected, (
                    f"({std.name}, {ghz} GHz, {rail_name})"
                )
                checked += 1
    assert checked == 120


def test_builtin_complete(ds):
    assert set(ds.cells) == {(s, c) for s in STANDARDS for c in CHANNELS}
    assert len(ds.cells) == 20
    assert len(ds.channels()) == 5
    assert len(ds.standards()) == 4


def test_builtin_returns_fresh_copies():
    a = builtin_dataset()
    b = builtin_dataset()
    assert a.cells == b.cells
    assert a.cells is not b.cells


def test_row_sums_within_tolerance(ds):
    worst = max(cell.row_sum_error_w for cell in ds.cells.values())
    assert worst <= ROW_SUM_TOLERANCE_W


def test_known_rounding_gap(ds):
    # This printed total rounds up from the rail sum by a milliwatt.
    cell = ds.lookup(IoStandard.LVCMOS12, WlanChannel.GHZ_0_9)
    assert math.isclose(cell.rail_sum_w, 2.623, abs_tol=1e-9)
    assert cell.total_w == 2.624


def test_lookup_missing_cell():
    ds = CalibrationDataset(cells={}, provenance="test")
    with pytest.raises(MissingCell):
        ds.lookup(IoStandard.LVCMOS12, WlanChannel.GHZ_2_4)
    assert not ds.cells


@pytest.mark.parametrize(
    "value,message",
    [
        (-0.1, "io_w must be >= 0, got -0.1"),
        (-math.inf, "io_w must be >= 0, got -inf"),
        (math.nan, "io_w must be finite, got nan"),
        (math.inf, "io_w must be finite, got inf"),
    ],
)
def test_breakdown_rejects_negative(value, message):
    with pytest.raises(ValueError) as err:
        PowerBreakdown(0.1, 0.1, 0.1, value, 0.1, 0.3)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "row,message",
    [
        ((0.1, math.nan, 0.1, -1, 0.1, 0.3), "signal_w must be finite, got nan"),
        ((0.1, 0.1, 0.1, -1, math.inf, 0.3), "io_w must be >= 0, got -1"),
        ((0.1, 0.1, 0.1, 0.1, 0.1, -0.3), "total_w must be >= 0, got -0.3"),
        ((math.inf, -1, math.nan, -1, math.nan, -1), "clock_w must be finite, got inf"),
        ((0.0, -math.inf, math.nan, 0.1, 0.1, math.inf), "signal_w must be >= 0, got -inf"),
        ((0.1, 0.1, math.nan, 0.1, 0.1, -0.0), "bram_w must be finite, got nan"),
    ],
)
def test_breakdown_names_first_bad_field(row, message):
    # Several fields are bad; the message names the first in declaration order.
    with pytest.raises(ValueError) as err:
        PowerBreakdown(*row)
    assert str(err.value) == message


def test_breakdown_accepts_zero_and_large():
    cell = PowerBreakdown(0.0, -0.0, 5e-324, 1.7e308, 0, 1)
    assert cell.rail(Rail.SIGNAL) == 0.0 and cell.rail(Rail.IO) == 1.7e308


def test_breakdown_is_an_immutable_record():
    cell = PowerBreakdown(clock_w=0.1, signal_w=0.2, bram_w=0.3, io_w=0.4, leakage_w=0.5, total_w=1.5)
    assert cell == PowerBreakdown(0.1, 0.2, 0.3, 0.4, 0.5, 1.5)
    assert hash(cell) == hash(PowerBreakdown(0.1, 0.2, 0.3, 0.4, 0.5, 1.5))
    assert repr(cell) == (
        "PowerBreakdown(clock_w=0.1, signal_w=0.2, bram_w=0.3, io_w=0.4, leakage_w=0.5, total_w=1.5)"
    )
    assert PowerBreakdown._fields == ("clock_w", "signal_w", "bram_w", "io_w", "leakage_w", "total_w")
    assert cell._asdict() == {
        "clock_w": 0.1, "signal_w": 0.2, "bram_w": 0.3, "io_w": 0.4, "leakage_w": 0.5, "total_w": 1.5,
    }
    # A NamedTuple: equal to the plain tuple of its fields, and iterable.
    assert cell == (0.1, 0.2, 0.3, 0.4, 0.5, 1.5)
    assert list(cell) == [0.1, 0.2, 0.3, 0.4, 0.5, 1.5]
    replaced = cell._replace(io_w=0.0)
    assert type(replaced) is PowerBreakdown and replaced.io_w == 0.0
    # `_replace` and `_make` check again.
    with pytest.raises(ValueError) as err:
        cell._replace(io_w=-1)
    assert str(err.value) == "io_w must be >= 0, got -1"
    with pytest.raises(ValueError) as err:
        PowerBreakdown._make((0.1, 0.2, math.nan, 0.4, 0.5, 1.5))
    assert str(err.value) == "bram_w must be finite, got nan"
    with pytest.raises(AttributeError):
        cell.io_w = 0.0
    with pytest.raises(AttributeError):
        cell.extra = 0.0
    with pytest.raises(TypeError):
        PowerBreakdown(0.1, 0.2, 0.3, 0.4, 0.5)
    for clone in (pickle.loads(pickle.dumps(cell)), copy.deepcopy(cell), copy.copy(cell)):
        assert type(clone) is PowerBreakdown and clone == cell


def test_validate_builtin_is_clean(ds):
    assert validate_dataset(ds) == []


def _with_cell(ds, std, ch, **overrides):
    cell = ds.lookup(std, ch)
    fields = {f: getattr(cell, f) for f in ("clock_w", "signal_w", "bram_w", "io_w", "leakage_w", "total_w")}
    fields.update(overrides)
    cells = dict(ds.cells)
    cells[(std, ch)] = PowerBreakdown(**fields)
    return CalibrationDataset(cells=cells, provenance="perturbed")


def test_validate_flags_broken_row_sum(ds):
    broken = _with_cell(ds, IoStandard.LVCMOS12, WlanChannel.GHZ_2_4, total_w=9.999)
    codes = [d.code for d in validate_dataset(broken)]
    assert DiagnosticCode.ROW_SUM in codes


def test_validate_flags_comparison_table_value_as_non_monotonic(ds):
    # Adopting the comparison table's 1.383 W entry for (LVCMOS25, 2.4 GHz)
    # would break IO monotonicity in both axes; the grid's 0.457 W does not.
    poisoned = _with_cell(ds, IoStandard.LVCMOS25, WlanChannel.GHZ_2_4, io_w=1.383)
    codes = {d.code for d in validate_dataset(poisoned)}
    assert DiagnosticCode.MONOTONIC_FREQ in codes


def test_validate_flags_voltage_inversion(ds):
    # Swap the io cells of LVCMOS15 and LVCMOS18 at one channel.
    ch = WlanChannel.GHZ_5_0
    lo = ds.lookup(IoStandard.LVCMOS15, ch).io_w
    hi = ds.lookup(IoStandard.LVCMOS18, ch).io_w
    swapped = _with_cell(ds, IoStandard.LVCMOS15, ch, io_w=hi)
    swapped = _with_cell(swapped, IoStandard.LVCMOS18, ch, io_w=lo)
    codes = {d.code for d in validate_dataset(swapped)}
    assert DiagnosticCode.MONOTONIC_VOLT in codes


def test_diagnostic_render_mentions_code(ds):
    broken = _with_cell(ds, IoStandard.LVCMOS15, WlanChannel.GHZ_3_6, total_w=0.0)
    diags = validate_dataset(broken)
    assert any("ROW_SUM" in d.render() for d in diags)


def test_calibration_round_trip(ds):
    text = write_calibration(ds)
    assert text.startswith(CALIBRATION_HEADER + "\n")
    again = read_calibration(text)
    assert again.cells == ds.cells


def test_calibration_partial_grid():
    text = CALIBRATION_HEADER + "\nLVCMOS12,2.4,0.161,0.091,3.062,0.160,1.374,4.849\n"
    ds = read_calibration(text)
    assert set(ds.cells) == {(IoStandard.LVCMOS12, WlanChannel.GHZ_2_4)}
    assert ds.lookup(IoStandard.LVCMOS12, WlanChannel.GHZ_2_4).total_w == 4.849


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("nonsense\n", "header"),
        (CALIBRATION_HEADER + "\nLVCMOS12,2.4,0.1\n", "8 fields"),
        (CALIBRATION_HEADER + "\nLVCMOS33,2.4,1,1,1,1,1,5\n", "line 2"),
        (CALIBRATION_HEADER + "\nLVCMOS12,7.5,1,1,1,1,1,5\n", "line 2"),
        (CALIBRATION_HEADER + "\nLVCMOS12,2.4,x,1,1,1,1,5\n", "line 2"),
        (CALIBRATION_HEADER + "\nLVCMOS12,2.4,-1,1,1,1,1,5\n", "line 2"),
        (
            CALIBRATION_HEADER
            + "\nLVCMOS12,2.4,1,1,1,1,1,5\nLVCMOS12,2.4,1,1,1,1,1,5\n",
            "duplicate",
        ),
    ],
)
def test_calibration_rejects_malformed(text, fragment):
    with pytest.raises(ValueError) as err:
        read_calibration(text)
    assert fragment in str(err.value)


_ROW = "LVCMOS12,2.4,0.161,0.091,3.062,0.160,1.374,4.849"


@pytest.mark.parametrize(
    "text,prefix",
    [
        (f"# notes\n{CALIBRATION_HEADER}\nLVCMOS12,2.4,0.1\n", "line 3: expected 8 fields"),
        (f"\n\n{CALIBRATION_HEADER}\nLVCMOS33,2.4,1,1,1,1,1,5\n", "line 4: "),
        (f"{CALIBRATION_HEADER}\n# notes\n\nLVCMOS12,7.5,1,1,1,1,1,5\n", "line 4: "),
        (f"{CALIBRATION_HEADER}\n{_ROW}\n  # notes\nLVCMOS12,0.9,x,1,1,1,1,5\n", "line 4: "),
        (f"# a\n{CALIBRATION_HEADER}\n{_ROW}\n\n{_ROW}\n", "line 5: duplicate cell"),
    ],
    ids=["comment-before-header", "blanks-before-header", "comment-and-blank-before-row",
         "indented-comment-between-rows", "blank-before-duplicate"],
)
def test_calibration_errors_name_the_physical_line(text, prefix):
    with pytest.raises(ValueError) as err:
        read_calibration(text)
    assert str(err.value).startswith(prefix)


def test_calibration_skips_comments_and_blanks(ds):
    text = "# comment\n\n" + write_calibration(ds) + "\n# trailing\n"
    assert read_calibration(text).cells == ds.cells
