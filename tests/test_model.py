"""Least-squares rail fits against an independent numpy oracle.

The package computes both fit shapes in closed form from the normal
equations; here every fitted series is re-solved with numpy.linalg.lstsq and
the coefficients must agree to floating precision. A few slopes derived by
hand from the grid are also frozen as literals.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from iotram.power import model
from iotram.power import (
    CalibrationDataset,
    DegenerateFit,
    IoStandard,
    MissingCell,
    NonPositiveFrequency,
    Rail,
    WlanChannel,
    builtin_dataset,
    energy_per_cycle,
    fit,
    power_at,
    predict,
)
from iotram.power.model import (
    FitKind,
    ModelCoefficients,
    io_slope_voltage_scaling,
    max_relative_residuals,
)

FREQS = (0.9, 2.4, 3.6, 5.0, 5.9)


@pytest.fixture(scope="module")
def ds():
    return builtin_dataset()


@pytest.fixture(scope="module")
def coeffs(ds):
    return fit(ds)


def _series(ds, rail, std):
    f = np.array(FREQS)
    y = np.array([ds.lookup(std, WlanChannel.from_ghz(g)).rail(rail) for g in FREQS])
    return f, y


def _pooled(ds, rail):
    fs, ys = [], []
    for std in ds.standards():
        f, y = _series(ds, rail, std)
        fs.append(f)
        ys.append(y)
    return np.concatenate(fs), np.concatenate(ys)


def _lstsq_through_origin(f, y):
    slope, *_ = np.linalg.lstsq(f[:, None], y, rcond=None)
    return slope[0]


def _lstsq_affine(f, y):
    design = np.column_stack([f, np.ones_like(f)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    return slope, intercept


def test_through_origin_rails_match_numpy(ds, coeffs):
    for rail, railfit in ((Rail.CLOCK, coeffs.clock), (Rail.BRAM, coeffs.bram)):
        f, y = _pooled(ds, rail)
        assert railfit.fit_kind is FitKind.THROUGH_ORIGIN
        assert railfit.intercept_w == 0.0
        assert math.isclose(railfit.slope_w_per_ghz, _lstsq_through_origin(f, y), rel_tol=1e-12)


def test_affine_signal_matches_numpy(ds, coeffs):
    f, y = _pooled(ds, Rail.SIGNAL)
    slope, intercept = _lstsq_affine(f, y)
    assert coeffs.signal.fit_kind is FitKind.AFFINE
    assert math.isclose(coeffs.signal.slope_w_per_ghz, slope, rel_tol=1e-12)
    assert math.isclose(coeffs.signal.intercept_w, intercept, rel_tol=1e-9)


def test_per_standard_rails_match_numpy(ds, coeffs):
    for std in ds.standards():
        f, y = _series(ds, Rail.IO, std)
        assert math.isclose(
            coeffs.io[std].slope_w_per_ghz, _lstsq_through_origin(f, y), rel_tol=1e-12
        )
        f, y = _series(ds, Rail.LEAKAGE, std)
        slope, intercept = _lstsq_affine(f, y)
        assert math.isclose(coeffs.leakage[std].slope_w_per_ghz, slope, rel_tol=1e-12)
        assert math.isclose(coeffs.leakage[std].intercept_w, intercept, rel_tol=1e-9)


def test_frozen_slopes(coeffs):
    # BRAM: sum(f*y)/sum(f^2) per standard = 101.232/79.34 (identical columns).
    assert math.isclose(coeffs.bram.slope_w_per_ghz, 101.232 / 79.34, rel_tol=1e-12)
    assert round(coeffs.bram.slope_w_per_ghz, 4) == 1.2759
    assert round(coeffs.io[IoStandard.LVCMOS12].slope_w_per_ghz, 4) == 0.0666
    assert round(coeffs.clock.slope_w_per_ghz, 6) == 0.068183
    assert round(coeffs.signal.slope_w_per_ghz, 6) == 0.038661


def test_residual_bounds(ds, coeffs):
    res = max_relative_residuals(ds, coeffs)
    assert res["bram"] < 0.002
    assert res["clock"] < 0.02
    assert res["signal"] < 0.01
    for std in ds.standards():
        assert res[f"io[{std.name}]"] < 0.01
        assert res[f"leakage[{std.name}]"] < 0.01


def test_through_origin_homogeneity(coeffs):
    # No intercept means doubling the frequency doubles the prediction.
    for railfit in (coeffs.clock, coeffs.bram, coeffs.io[IoStandard.LVCMOS18]):
        assert math.isclose(railfit.at(4.2), 2 * railfit.at(2.1), rel_tol=1e-12)


def test_degenerate_single_frequency(ds):
    ch = WlanChannel.GHZ_2_4
    narrow = CalibrationDataset(
        cells={(s, c): cell for (s, c), cell in ds.cells.items() if c is ch},
        provenance="one channel",
    )
    with pytest.raises(DegenerateFit):
        fit(narrow)


def test_degenerate_series_in_partial_grid(ds):
    # The grid spans five frequencies, but LVCMOS25 has one cell, so its
    # affine leakage line is undetermined.
    keep = {
        (s, c): cell
        for (s, c), cell in ds.cells.items()
        if s is IoStandard.LVCMOS12 or c is WlanChannel.GHZ_2_4
    }
    partial = CalibrationDataset(cells=keep, provenance="partial")
    with pytest.raises(DegenerateFit):
        fit(partial)
    with pytest.raises(DegenerateFit):
        power_at(partial, IoStandard.LVCMOS25, 4.2)
    on_grid = power_at(partial, IoStandard.LVCMOS25, 2.4)
    assert on_grid == partial.lookup(IoStandard.LVCMOS25, WlanChannel.GHZ_2_4)


def test_fit_accepts_partial_grid(ds):
    # Two channels for one standard still span two frequencies.
    keep = {
        (s, c): cell
        for (s, c), cell in ds.cells.items()
        if s is IoStandard.LVCMOS12 and c in (WlanChannel.GHZ_0_9, WlanChannel.GHZ_5_9)
    }
    partial = CalibrationDataset(cells=keep, provenance="partial")
    coeffs = fit(partial)
    assert set(coeffs.io) == {IoStandard.LVCMOS12}
    # A standard with no cells has no fit to predict from.
    with pytest.raises(MissingCell):
        predict(coeffs, IoStandard.LVCMOS15, 3.0)
    with pytest.raises(MissingCell):
        power_at(partial, IoStandard.LVCMOS15, 2.4)


def test_fit_overflow_is_degenerate(ds):
    huge = CalibrationDataset(
        cells={key: cell._replace(bram_w=1e308) for key, cell in ds.cells.items()},
        provenance="huge",
    )
    with pytest.raises(DegenerateFit):
        fit(huge)


def test_residuals_of_all_zero_series(ds):
    zero_io = CalibrationDataset(
        cells={key: cell._replace(io_w=0.0) for key, cell in ds.cells.items()},
        provenance="zero io",
    )
    coeffs = fit(zero_io)
    assert coeffs.io[IoStandard.LVCMOS12].slope_w_per_ghz == 0.0
    assert max_relative_residuals(zero_io, coeffs)["io[LVCMOS12]"] == 0.0


def test_predict_totals_sum_of_rails(coeffs):
    pb = predict(coeffs, IoStandard.LVCMOS15, 4.4)
    assert math.isclose(pb.total_w, pb.rail_sum_w, rel_tol=1e-12)


def test_predict_clamps_at_zero(coeffs):
    # The fitted signal intercept is slightly negative; near zero frequency the
    # raw line dips below zero and the prediction must clamp instead.
    assert coeffs.signal.intercept_w < 0
    f = 1e-6
    assert coeffs.signal.at(f) < 0
    pb = predict(coeffs, IoStandard.LVCMOS12, f)
    assert pb.signal_w == 0.0
    assert pb.total_w >= 0.0


NOT_POSITIVE_FINITE = (0.0, -2.4, math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("f_ghz", NOT_POSITIVE_FINITE)
def test_predict_rejects_nonpositive(ds, coeffs, f_ghz):
    with pytest.raises(NonPositiveFrequency):
        predict(coeffs, IoStandard.LVCMOS12, f_ghz)
    with pytest.raises(NonPositiveFrequency):
        power_at(ds, IoStandard.LVCMOS12, f_ghz)


def test_predict_rejects_overflowing_frequency(ds, coeffs):
    with pytest.raises(NonPositiveFrequency, match="overflows"):
        predict(coeffs, IoStandard.LVCMOS25, 1.7e308)
    with pytest.raises(NonPositiveFrequency, match="overflows"):
        power_at(ds, IoStandard.LVCMOS25, 1.7e308)


def test_power_at_prefers_grid_cell(ds):
    pb = power_at(ds, IoStandard.LVCMOS12, 2.4)
    assert pb == ds.lookup(IoStandard.LVCMOS12, WlanChannel.GHZ_2_4)


def test_power_at_off_grid_predicts(ds, coeffs):
    assert power_at(ds, IoStandard.LVCMOS18, 4.2) == predict(
        coeffs, IoStandard.LVCMOS18, 4.2
    )


def test_power_at_returns_the_cell_within_the_channel_tolerance(ds, coeffs):
    cell = ds.lookup(IoStandard.LVCMOS12, WlanChannel.GHZ_2_4)
    assert power_at(ds, IoStandard.LVCMOS12, 2.4 + 5e-10) is cell
    assert power_at(ds, IoStandard.LVCMOS12, 2.4 - 5e-10) is cell
    assert power_at(ds, IoStandard.LVCMOS12, 2.4 + 1e-8) == predict(
        coeffs, IoStandard.LVCMOS12, 2.4 + 1e-8
    )


@pytest.fixture
def fit_calls(monkeypatch):
    """The grids passed to `iotram.power.model.fit` from here on, in order.

    `power_at` looks `fit` up by its module-global name, so the counter sees
    every fit it makes; the `fit` imported above stays uncounted.
    """
    calls = []

    def counted(ds):
        calls.append(ds)
        return fit(ds)

    monkeypatch.setattr(model, "fit", counted)
    return calls


def test_off_grid_power_at_fits_a_grid_once(fit_calls):
    ds = builtin_dataset()
    first = power_at(ds, IoStandard.LVCMOS18, 4.2)
    for f_ghz in (1.0, 3.0, 4.2, 1.0):
        power_at(ds, IoStandard.LVCMOS12, f_ghz)
    assert power_at(ds, IoStandard.LVCMOS18, 4.2) == first
    assert fit_calls == [ds]


def test_fit_is_kept_for_power_at(fit_calls):
    ds = builtin_dataset()
    coeffs = fit(ds)
    for std in IoStandard:
        assert power_at(ds, std, 4.2) == predict(coeffs, std, 4.2)
    assert fit_calls == []
    # Every caller gets the kept coefficients, so none may change them.
    with pytest.raises(TypeError):
        coeffs.io[IoStandard.LVCMOS12] = coeffs.clock
    with pytest.raises(TypeError):
        del coeffs.leakage[IoStandard.LVCMOS12]


def test_every_way_to_build_coefficients_makes_read_only_mappings(coeffs):
    builds = (
        ModelCoefficients(*coeffs), ModelCoefficients._make(coeffs), copy.copy(coeffs),
        coeffs._replace(io=dict(coeffs.io), leakage=dict(coeffs.leakage)),
        pickle.loads(pickle.dumps(coeffs)), copy.deepcopy(coeffs),
    )
    for built in builds:
        assert type(built) is ModelCoefficients and built == coeffs
        with pytest.raises(TypeError):
            built.io[IoStandard.LVCMOS12] = coeffs.clock
        with pytest.raises(TypeError):
            del built.leakage[IoStandard.LVCMOS12]


def test_a_fit_that_raises_is_not_kept(ds, fit_calls):
    keep = {
        (s, c): cell
        for (s, c), cell in ds.cells.items()
        if s is IoStandard.LVCMOS12 or c is WlanChannel.GHZ_2_4
    }
    partial = CalibrationDataset(cells=keep, provenance="partial")
    for _ in range(2):
        with pytest.raises(DegenerateFit):
            power_at(partial, IoStandard.LVCMOS12, 4.2)
    assert fit_calls == [partial, partial]
    assert partial._fit is None


def test_cells_are_read_only():
    ds = builtin_dataset()
    key = (IoStandard.LVCMOS12, WlanChannel.GHZ_2_4)
    with pytest.raises(TypeError):
        ds.cells[key] = ds.cells[(IoStandard.LVCMOS25, WlanChannel.GHZ_2_4)]
    with pytest.raises(TypeError):
        del ds.cells[key]
    # The grid holds a copy: the mapping it was built from may change freely.
    cells = dict(ds.cells)
    grid = CalibrationDataset(cells)
    cells.clear()
    assert grid.cells == ds.cells


def test_a_grid_is_read_only_and_unhashable():
    ds = builtin_dataset()
    for name in ("cells", "provenance", "_fit", "extra"):
        with pytest.raises(AttributeError):
            setattr(ds, name, None)
        with pytest.raises(AttributeError):
            delattr(ds, name)
    with pytest.raises(TypeError):
        hash(ds)
    assert repr(ds) == f"CalibrationDataset(cells={ds.cells!r}, provenance={ds.provenance!r})"
    assert ds != CalibrationDataset(ds.cells, "other") and ds != (ds.cells, ds.provenance)
    for clone in (copy.copy(ds), copy.deepcopy(ds), pickle.loads(pickle.dumps(ds))):
        assert type(clone) is CalibrationDataset and clone == ds
        assert clone.cells is not ds.cells


def test_each_builtin_grid_keeps_its_own_fit(fit_calls):
    a, b = builtin_dataset(), builtin_dataset()
    power_at(a, IoStandard.LVCMOS12, 4.2)
    assert a._fit is not None and b._fit is None
    power_at(b, IoStandard.LVCMOS12, 4.2)
    assert fit_calls == [a, b] and a._fit is not b._fit


def test_a_fitted_grid_equals_an_unfitted_copy(fit_calls):
    ds = builtin_dataset()
    fit(ds)
    power_at(ds, IoStandard.LVCMOS12, 4.2)
    assert fit_calls == []
    unfitted = CalibrationDataset(ds.cells, ds.provenance)
    assert ds == unfitted
    assert repr(ds) == repr(unfitted)


def test_energy_per_cycle_from_grid(ds):
    cell = ds.lookup(IoStandard.LVCMOS12, WlanChannel.GHZ_2_4)
    assert math.isclose(energy_per_cycle(cell, 2.4), 4.849 / 2.4e9, rel_tol=1e-12)
    assert abs(energy_per_cycle(cell, 2.4) - 2.0204e-9) < 1e-13

    cell = ds.lookup(IoStandard.LVCMOS25, WlanChannel.GHZ_0_9)
    assert math.isclose(energy_per_cycle(cell, 0.9), 2.739 / 0.9e9, rel_tol=1e-12)
    assert abs(energy_per_cycle(cell, 0.9) - 3.0433e-9) < 1e-12

    # 1e300 GHz overflows the cycles per second, and 5e-324 GHz the joules
    # per cycle.
    for f_ghz in NOT_POSITIVE_FINITE + (1e300, 5e-324):
        with pytest.raises(NonPositiveFrequency):
            energy_per_cycle(cell, f_ghz)


def test_io_slope_scaling_is_not_flat(coeffs):
    # If IO power followed CV^2f with one capacitance, these would coincide.
    ratios = io_slope_voltage_scaling(coeffs)
    spread = max(ratios.values()) - min(ratios.values())
    assert spread / max(ratios.values()) > 0.25
