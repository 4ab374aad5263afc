"""Reduction percentages and the published-figure cross-checks."""

import math

import pytest

from iotram.power import (
    CHANNELS,
    STANDARDS,
    CalibrationDataset,
    IoStandard,
    MissingCell,
    Rail,
    WlanChannel,
    ZeroBase,
    builtin_dataset,
    reduction,
)
from iotram.power.dataset import DiagnosticCode
from iotram.power.reductions import (
    CLAIM_TOLERANCE_PP,
    PUBLISHED_IO_COMPARISON,
    ReductionReport,
    cross_check,
)


@pytest.fixture(scope="module")
def ds():
    return builtin_dataset()


def _pct(ds, rail, ch):
    return reduction(ds, rail, IoStandard.LVCMOS25, IoStandard.LVCMOS12, ch).percent


# Each quoted figure recomputes from the grid to within 0.06 percentage
# points, except the two flagged in test_unreachable_quotes below.
@pytest.mark.parametrize(
    "rail,ghz,expected",
    [
        (Rail.IO, 0.9, 64.91),
        (Rail.IO, 2.4, 64.99),
        (Rail.IO, 3.6, 65.01),
        (Rail.IO, 5.0, 65.02),
        (Rail.IO, 5.9, 65.04),
        (Rail.TOTAL, 3.6, 6.47),
        (Rail.LEAKAGE, 0.9, 0.30),
        (Rail.LEAKAGE, 5.0, 1.34),
    ],
)
def test_reduction_figures(ds, rail, ghz, expected):
    actual = _pct(ds, rail, WlanChannel.from_ghz(ghz))
    assert abs(actual - expected) <= CLAIM_TOLERANCE_PP


def test_reduction_exact_arithmetic(ds):
    r = reduction(ds, Rail.IO, IoStandard.LVCMOS25, IoStandard.LVCMOS12, WlanChannel.GHZ_2_4)
    assert r.base_w == 0.457
    assert r.alt_w == 0.160
    assert math.isclose(r.percent, 100 * (1 - 0.160 / 0.457), rel_tol=1e-12)


def test_reduction_identity_is_zero(ds):
    r = reduction(ds, Rail.IO, IoStandard.LVCMOS18, IoStandard.LVCMOS18, WlanChannel.GHZ_3_6)
    assert r.percent == 0.0


def test_reduction_reversed_is_negative(ds):
    r = reduction(ds, Rail.IO, IoStandard.LVCMOS12, IoStandard.LVCMOS25, WlanChannel.GHZ_0_9)
    assert r.percent < 0


def test_reduction_missing_cell():
    import iotram.power as power

    empty = power.CalibrationDataset(cells={}, provenance="empty")
    with pytest.raises(MissingCell):
        reduction(empty, Rail.IO, IoStandard.LVCMOS25, IoStandard.LVCMOS12, WlanChannel.GHZ_0_9)


def test_reduction_zero_base(ds):
    import iotram.power as power

    # A subnormal base is positive, but the ratio to it overflows.
    for base_w in (0.0, 5e-324):
        cells = dict(ds.cells)
        cells[(IoStandard.LVCMOS25, WlanChannel.GHZ_0_9)] = power.PowerBreakdown(
            base_w, base_w, base_w, base_w, base_w, base_w
        )
        zeroed = power.CalibrationDataset(cells=cells, provenance="zeroed")
        with pytest.raises(ZeroBase):
            reduction(
                zeroed, Rail.IO, IoStandard.LVCMOS25, IoStandard.LVCMOS12, WlanChannel.GHZ_0_9
            )


_12, _25, _0_9 = IoStandard.LVCMOS12, IoStandard.LVCMOS25, WlanChannel.GHZ_0_9


@pytest.mark.parametrize(
    "dropped,message",
    [
        ([(_25, _0_9)], "no cell for (LVCMOS25, 0.9 GHz)"),
        ([(_12, _0_9)], "no cell for (LVCMOS12, 0.9 GHz)"),
        ([(_12, _0_9), (_25, _0_9)], "no cell for (LVCMOS25, 0.9 GHz)"),
    ],
    ids=["base", "alt", "both"],
)
def test_reduction_on_a_partial_grid_names_the_base_cell_first(ds, dropped, message):
    partial = CalibrationDataset({k: v for k, v in ds.cells.items() if k not in dropped})
    with pytest.raises(MissingCell) as err:
        reduction(partial, Rail.IO, _25, _12, _0_9)
    assert str(err.value) == message


@pytest.mark.parametrize("base_w", [0.0, 5e-324])
def test_reduction_zero_base_message(ds, base_w):
    cells = dict(ds.cells)
    cells[(_25, _0_9)] = cells[(_25, _0_9)]._replace(leakage_w=base_w)
    with pytest.raises(ZeroBase) as err:
        reduction(CalibrationDataset(cells), Rail.LEAKAGE, _25, _12, _0_9)
    assert str(err.value) == f"leakage base for LVCMOS25 at 0.9 GHz is {base_w}"


def test_reduction_report_equals_the_class_call(ds):
    for rail in Rail:
        for ch in CHANNELS:
            for base_std in STANDARDS:
                for alt_std in STANDARDS:
                    got = reduction(ds, rail, base_std, alt_std, ch)
                    want = ReductionReport(
                        rail, base_std, alt_std, ch,
                        ds.lookup(base_std, ch).rail(rail), ds.lookup(alt_std, ch).rail(rail),
                    )
                    assert type(got) is ReductionReport
                    assert got == want and got.render() == want.render()


def test_render_mentions_both_standards(ds):
    text = reduction(
        ds, Rail.LEAKAGE, IoStandard.LVCMOS25, IoStandard.LVCMOS12, WlanChannel.GHZ_5_0
    ).render()
    assert "LVCMOS25" in text and "LVCMOS12" in text and "%" in text


def _claims(diags):
    return [d for d in diags if d.code is DiagnosticCode.CLAIM_MISMATCH]


def test_unreachable_quotes(ds):
    # The two quoted 2.4 GHz IO figures cannot be derived from the grid; every
    # other quoted figure passes.
    flagged = _claims(cross_check(ds))
    assert len(flagged) == 2
    quoted = sorted(float(d.message.split("%")[0].split()[-1]) for d in flagged)
    assert quoted == [85.0, 88.45]
    assert all("% io reduction" in d.message and "(2.4 GHz)" in d.location for d in flagged)


def test_other_rails_claims_pass(ds):
    assert [d for d in _claims(cross_check(ds)) if "% io reduction" not in d.message] == []


def test_cross_check_uses_grid_not_printed_table(ds):
    # The grid carries the per-channel tables' 0.457, never the comparison
    # table's 1.383, and the cross-check reports the grid's value.
    assert ds.lookup(IoStandard.LVCMOS25, WlanChannel.GHZ_2_4).io_w == 0.457
    table = [d for d in cross_check(ds) if d.code is DiagnosticCode.TABLE7_MISMATCH]
    assert "the calibration cell holds 0.457 W" in table[0].message
    # Given the printed value, the grid agrees with the table everywhere.
    cells = dict(ds.cells)
    cell = cells[(IoStandard.LVCMOS25, WlanChannel.GHZ_2_4)]
    cells[(IoStandard.LVCMOS25, WlanChannel.GHZ_2_4)] = cell._replace(io_w=1.383)
    codes = [d.code for d in cross_check(CalibrationDataset(cells))]
    assert DiagnosticCode.TABLE7_MISMATCH not in codes


def test_cross_check_flags_exactly_one_table_mismatch(ds):
    diags = cross_check(ds)
    # The table's mismatch comes first, then the claims'.
    assert [d.code for d in diags] == [
        DiagnosticCode.TABLE7_MISMATCH, DiagnosticCode.CLAIM_MISMATCH, DiagnosticCode.CLAIM_MISMATCH
    ]
    assert "1.383" in diags[0].message and "0.457" in diags[0].message
    assert diags[0].location == "io comparison table (LVCMOS25, 2.4 GHz)"


def test_cross_check_needs_a_complete_grid(ds):
    partial = CalibrationDataset(
        {k: v for k, v in ds.cells.items() if k != (IoStandard.LVCMOS18, WlanChannel.GHZ_5_0)}
    )
    with pytest.raises(MissingCell, match=r"no cell for \(LVCMOS18, 5.0 GHz\)"):
        cross_check(partial)


def test_published_table_matches_grid_except_one_cell(ds):
    mismatches = [
        (std, ch)
        for std, row in PUBLISHED_IO_COMPARISON.items()
        for ch, printed in row.items()
        if abs(printed - ds.lookup(std, ch).io_w) > 0.0005
    ]
    assert mismatches == [(IoStandard.LVCMOS25, WlanChannel.GHZ_2_4)]
