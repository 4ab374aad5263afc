"""Workload `power-sweep`: `iotram.power` library calls in one process.

A round reads GRIDS calibration texts (the published grid and seeded
perturbations of it), validates and fits each, evaluates `power_at` and
`energy_per_cycle` for all four standards over a seeded mix of on-grid and
off-grid frequencies, and computes the LVCMOS25 -> LVCMOS12 reductions. It
also reads `builtin_dataset()` and makes three calls on a fixed partial grid,
two of which fail today (see sweep.PARTIAL_OPS).

Expected results are computed here, apart from the program: on-grid cells
from the text written, off-grid values and fit coefficients from an OLS fit
by `numpy.linalg.lstsq`.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
from statistics import median

import numpy as np

import common
from common import CHANNEL_GHZ, PUBLISHED, RAILS, STANDARD_NAMES, CheckFailed

GRIDS = 4
OFF_GRID_PER_GRID = 7
#: The partial grid keeps LVCMOS25 at one channel only; its frequencies are
#: fixed so that the failing calls do not depend on the seed.
PARTIAL_STANDARD_KEPT = ("LVCMOS25", 2.4)
PARTIAL_OFFGRID_GHZ = 3.0
PARTIAL_ONGRID_GHZ = 2.4
HEADER = "standard,channel_ghz,clock_w,signal_w,bram_w,io_w,leakage_w,total_w"


def _text(cells: dict) -> str:
    lines = [HEADER]
    for (std, ghz), row in cells.items():
        lines.append(f"{std},{ghz}," + ",".join(f"{v:.3f}" for v in row))
    return "\n".join(lines) + "\n"


def _perturbed(rng: random.Random) -> dict:
    """The published grid with each rail scaled by its own factor.

    One factor per rail keeps both monotonic orders and the row sums, so the
    grid is valid; totals are re-summed from the rounded rails.
    """
    factors = [rng.uniform(0.9, 1.1) for _ in range(5)]
    cells = {}
    for std in STANDARD_NAMES:
        for ghz in CHANNEL_GHZ:
            rails = [round(v * k, 3) for v, k in zip(PUBLISHED[ghz][std][:5], factors)]
            cells[(std, ghz)] = (*rails, round(sum(rails), 3))
    return cells


def _published() -> dict:
    return {(std, ghz): PUBLISHED[ghz][std] for std in STANDARD_NAMES for ghz in CHANNEL_GHZ}


def _lstsq(points, affine: bool) -> tuple[float, float]:
    f = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    a = np.column_stack([f, np.ones_like(f)]) if affine else f[:, None]
    sol = np.linalg.lstsq(a, y, rcond=None)[0]
    return float(sol[0]), float(sol[1]) if affine else 0.0


def _reference_fit(cells: dict) -> dict:
    """Slope and intercept per fitted series, as the power model defines them."""
    def series(std, rail):
        return [(ghz, cells[(s, ghz)][rail]) for (s, ghz) in cells if s == std]

    present = [s for s in STANDARD_NAMES if any(k[0] == s for k in cells)]
    pooled = lambda rail: [p for s in present for p in series(s, rail)]
    coeffs = {"clock": _lstsq(pooled(0), False), "signal": _lstsq(pooled(1), True),
              "bram": _lstsq(pooled(2), False)}
    for s in present:
        coeffs[f"io[{s}]"] = _lstsq(series(s, 3), False)
        if len(series(s, 4)) > 1:
            coeffs[f"leakage[{s}]"] = _lstsq(series(s, 4), True)
    return coeffs


def _predict(coeffs: dict, std: str, ghz: float) -> list[float]:
    rails = []
    for series in ("clock", "signal", "bram", f"io[{std}]", f"leakage[{std}]"):
        slope, intercept = coeffs[series]
        rails.append(max(0.0, slope * ghz + intercept))
    return [*rails, sum(rails)]


def _valid(cells: dict) -> bool:
    """The grid checks that validate_dataset makes, done here independently."""
    for (std, ghz), row in cells.items():
        if abs(row[5] - sum(row[:5])) > 0.005 + 1e-12:
            return False
    for std in STANDARD_NAMES:
        for a, b in zip(CHANNEL_GHZ, CHANNEL_GHZ[1:]):
            if any(cells[(std, b)][r] <= cells[(std, a)][r] for r in range(6)):
                return False
    for ghz in CHANNEL_GHZ:
        for a, b in zip(STANDARD_NAMES, STANDARD_NAMES[1:]):
            if any(cells[(b, ghz)][r] <= cells[(a, ghz)][r] for r in (3, 5)):
                return False
    return True


def _off_grid(rng: random.Random) -> list[float]:
    out: list[float] = []
    while len(out) < OFF_GRID_PER_GRID:
        f = round(rng.uniform(0.5, 7.0), 4)
        if all(abs(f - c) > 0.01 for c in CHANNEL_GHZ):
            out.append(f)
    return out


def build_spec(seed: int) -> dict:
    rng = random.Random(seed)
    grids = []
    for g in range(GRIDS):
        cells = _published() if g == 0 else _perturbed(rng)
        if not _valid(cells):
            raise CheckFailed(f"generated grid {g} is not valid")
        # Values as the program will parse them from the text.
        cells = {k: tuple(float(f"{v:.3f}") for v in row) for k, row in cells.items()}
        coeffs = _reference_fit(cells)
        freqs = [(ghz, True) for ghz in CHANNEL_GHZ] + [(f, False) for f in _off_grid(rng)]
        rng.shuffle(freqs)
        expect = [list(cells[(std, f)]) if on else _predict(coeffs, std, f)
                  for std in STANDARD_NAMES for f, on in freqs]
        reductions = []
        for r in range(6):
            for ghz in CHANNEL_GHZ:
                base, alt = cells[("LVCMOS25", ghz)][r], cells[("LVCMOS12", ghz)][r]
                reductions.append((base, alt, 100.0 * (1.0 - alt / base)))
        grids.append({"name": "builtin" if g == 0 else f"perturbed-{g}", "text": _text(cells),
                      "freqs": freqs, "expect": expect, "coeffs": coeffs,
                      "reductions": reductions})
    kept_std, kept_ghz = PARTIAL_STANDARD_KEPT
    partial = {k: v for k, v in _published().items() if k[0] != kept_std or k[1] == kept_ghz}
    return {
        "standards": STANDARD_NAMES,
        "rails": RAILS,
        "builtin": {f"{std}@{ghz}": row for (std, ghz), row in _published().items()},
        "grids": grids,
        "partial": {
            "text": _text(partial), "standard": "LVCMOS12",
            "offgrid_ghz": PARTIAL_OFFGRID_GHZ, "ongrid_ghz": PARTIAL_ONGRID_GHZ,
            "offgrid_expect": _predict(_reference_fit(partial), "LVCMOS12", PARTIAL_OFFGRID_GHZ),
            "ongrid_expect": list(PUBLISHED[PARTIAL_ONGRID_GHZ]["LVCMOS12"]),
        },
    }


def _sweep(args: list[str], timeout: float) -> str:
    """Run bench/sweep.py with `args` and return its standard output."""
    proc = common.spawn([str(common.BENCH_DIR / "sweep.py"), *args],
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise CheckFailed(f"sweep worker did not exit within {timeout} s") from None
    if proc.returncode != 0:
        raise CheckFailed(f"sweep worker exited {proc.returncode}: {err[-800:]}")
    return out


def _worker(spec_path: str, out_path: str, seconds: float, extra: list[str]) -> dict:
    _sweep([spec_path, out_path, str(seconds), *extra], seconds + 60)
    return common.read_json(out_path)


def _setup_s(spec: dict) -> float:
    """Set-up time of one fresh sweep process, for the grid of `spec`."""
    args = ["--setup-only", ",".join(spec["standards"]),
            *(",".join(repr(f) for f, _ in grid["freqs"]) for grid in spec["grids"])]
    setup_ns, n_points = _sweep(args, 60).split()
    want = len(spec["standards"]) * sum(len(grid["freqs"]) for grid in spec["grids"])
    if int(n_points) != want:
        raise CheckFailed(f"set-up built {n_points} operating points, not {want}")
    return int(setup_ns) / 1e9


def run(seed: int, seconds: float, traced: bool) -> dict:
    spec_path = str(common.WORK / f"sweep-{seed}.json")
    out_path = str(common.WORK / f"sweep-{seed}.out.json")
    spec = build_spec(seed)
    common.write_json(spec_path, spec)
    _setup_s(spec)  # warm-up, not measured
    doc = _worker(spec_path, out_path, seconds / 2 if traced else seconds, [])
    setups = [_setup_s(spec) for _ in range(common.MIN_SETUP_SAMPLES)]
    if doc["check_count"]:
        raise CheckFailed(f"{doc['check_count']} power-sweep checks failed, first: "
                          f"{doc['check_first']}")
    if len(doc["failed_per_round"]) != 1:
        raise CheckFailed(f"rounds failed unequal numbers of calls: {doc['failed_per_round']}")
    rounds = len(doc["round_ns"])
    round_rates = [doc["evals_per_round"] / (ns / 1e9) for ns in doc["round_ns"]]
    notes = [f"power-sweep: {rounds} rounds of {doc['ops_per_round']} calls, "
             f"{doc['evals_per_round']} of them operating-point evaluations; per-round rate "
             "deciles " + " / ".join(f"{q:.0f}" for q in statistics.quantiles(round_rates, n=10))]
    rate = common.sustained_rate(round_rates)
    notes += [f"failed every round: {name}: {why}" for name, why in doc["failures"].items()]
    result = {
        "attempted": rounds * doc["ops_per_round"],
        "failed": rounds * doc["failed_per_round"][0],
        "notes": notes,
        "metrics": {
            "setup_s": (median(setups), "s"),
            "throughput_per_s": (rate, "1/s"),
            "latency_p50_us": (median(doc["grid_ns"]) / 1e3, "us"),
            "peak_rss_mb": (doc["rss_mb"], "MB"),
        },
    }
    if traced:
        spans_path = str(common.WORK / f"spans-sweep-{seed}.json")
        tdoc = _worker(spec_path, out_path, seconds / 2, ["--spans", spans_path])
        if tdoc["check_count"]:
            raise CheckFailed(f"traced power-sweep checks failed: {tdoc['check_first']}")
        traced_rate = common.sustained_rate(
            [tdoc["evals_per_round"] / (ns / 1e9) for ns in tdoc["round_ns"]])
        layers = layer_metrics(spans_path)
        overhead = 100.0 * (1.0 - traced_rate / rate)
        layers["trace.overhead_pct"] = (overhead, "%")
        notes.append(f"tracing overhead on sweep throughput: {overhead:.1f}%")
        result["layers"] = layers
    os.unlink(spec_path)
    os.unlink(out_path)
    return result


def layer_metrics(spans_path: str) -> dict:
    from tracing import Spans

    s = Spans.load(spans_path)
    os.unlink(spans_path)
    layers = {}
    for name in ("power.dataset.read_calibration", "power.dataset.validate_dataset",
                 "power.dataset.builtin_dataset", "power.model.fit",
                 "power.model.power_at_ongrid", "power.model.power_at_offgrid",
                 "power.model.energy_per_cycle", "power.reductions.reduction"):
        layers[f"{name}_us"] = (median(s.durations(name)) / 1e3, "us")
    offgrid = set(s.by_name["power.model.power_at_offgrid"])
    fits_inside = sum(1 for i in s.by_name["power.model.fit"] if s.parents[i] in offgrid)
    layers["power.model.fits_per_offgrid_eval"] = (fits_inside / len(offgrid), "ratio")
    return layers
