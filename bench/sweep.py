"""The `power-sweep` process: library calls into `iotram.power`, in rounds.

    python bench/sweep.py IN OUT SECONDS [--spans FILE]
    python bench/sweep.py --setup-only STANDARDS FREQS [FREQS ...]

IN is the JSON the parent wrote: calibration texts, operating points and the
expected results computed apart from the program. Every round makes the same
calls, times them, and is then checked against IN outside the timed part.
OUT receives the timings, the operations attempted and failed per round, and
any check that did not hold.

With `--setup-only` the process measures set-up and prints it, in ns, with
the number of operating points built, on standard output: from just before `import iotram.power` until the
operating-point grid is built, every standard of the comma-separated
STANDARDS at every frequency of each comma-separated FREQS (one argument per
calibration). Until it stops the clock the process has imported only `sys`
and `time`, and its inputs come from the command line, so the figure is
iotram's own import and grid cost; the other mode imports the program first
for the same reason, so that its peak memory is the program's.
"""

import sys
import time

#: The one fault kept in the workload: on a partial grid where one standard
#: has a single channel, `fit` and off-grid `power_at` raise
#: ZeroDivisionError from the affine fit. The documented outcome is DegenerateFit.
PARTIAL_OPS = ("fit(partial grid)", "power_at(partial grid, LVCMOS12, off-grid)")


class Checker:
    def __init__(self) -> None:
        self.count = 0
        self.first: list[str] = []

    def fail(self, message: str) -> None:
        self.count += 1
        if len(self.first) < 5:
            self.first.append(message)

    def close(self, got: float, want: float, tol: float, what: str) -> None:
        if not abs(got - want) <= tol:
            self.fail(f"{what}: got {got!r}, expected {want!r}")


def _peak_rss_mb() -> float:
    # As launch._peak_rss_mb, and kept local for the same reason.
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def setup_only(argv: list[str]) -> int:
    standards = argv[0].split(",")
    grids = [[float(f) for f in arg.split(",")] for arg in argv[1:]]

    t0 = time.monotonic_ns()
    import iotram.power as power

    points = [[(power.IoStandard[name], f) for name in standards for f in freqs]
              for freqs in grids]
    setup_ns = time.monotonic_ns() - t0
    print(setup_ns, sum(map(len, points)))
    return 0


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] == ["--setup-only"]:
        return setup_only(argv[1:])
    spans_path = None
    if "--spans" in argv:
        i = argv.index("--spans")
        spans_path = argv[i + 1]
        del argv[i:i + 2]
    in_path, out_path, seconds = argv[0], argv[1], float(argv[2])

    import iotram.power as power
    import json

    with open(in_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    rails = spec["rails"]
    # The operating-point grid: per calibration, every standard at every frequency.
    points = [
        [(power.IoStandard[name], f, on_grid) for name in spec["standards"]
         for f, on_grid in grid["freqs"]]
        for grid in spec["grids"]
    ]

    from iotram.power import dataset, model, reductions

    tracer = None
    on_fn = off_fn = model.power_at
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.wrap(dataset, "read_calibration", "power.dataset.read_calibration")
        tracer.wrap(dataset, "validate_dataset", "power.dataset.validate_dataset")
        tracer.wrap(dataset, "builtin_dataset", "power.dataset.builtin_dataset")
        tracer.wrap(model, "fit", "power.model.fit")
        tracer.wrap(model, "energy_per_cycle", "power.model.energy_per_cycle")
        tracer.wrap(reductions, "reduction", "power.reductions.reduction")
        on_fn = tracer.traced(model.power_at, "power.model.power_at_ongrid")
        off_fn = tracer.traced(model.power_at, "power.model.power_at_offgrid")

    calls = [[(std, f, on_fn if on_grid else off_fn) for std, f, on_grid in grid]
             for grid in points]
    base, alt = power.IoStandard.LVCMOS25, power.IoStandard.LVCMOS12
    red_points = [(rail, ch) for rail in power.Rail for ch in power.CHANNELS]
    partial = spec["partial"]
    builtin_want = {name: tuple(row) for name, row in spec["builtin"].items()}
    p_std = power.IoStandard[partial["standard"]]
    clock = time.perf_counter_ns

    def one_round():
        grid_ns, results = [], []
        for grid, grid_calls in zip(spec["grids"], calls):
            t = clock()
            ds = dataset.read_calibration(grid["text"])
            diags = dataset.validate_dataset(ds)
            coeffs = model.fit(ds)
            evals = []
            for std, f, fn in grid_calls:
                pb = fn(ds, std, f)
                evals.append((pb, model.energy_per_cycle(pb, f)))
            reds = [reductions.reduction(ds, rail, base, alt, ch) for rail, ch in red_points]
            grid_ns.append(clock() - t)
            results.append((diags, coeffs, evals, reds))
        builtin = dataset.builtin_dataset()
        ds_p = dataset.read_calibration(partial["text"])
        outcomes = []
        for call in (lambda: model.fit(ds_p),
                     lambda: off_fn(ds_p, p_std, partial["offgrid_ghz"]),
                     lambda: on_fn(ds_p, p_std, partial["ongrid_ghz"])):
            try:
                outcomes.append(call())
            except Exception as exc:  # a fault in the program is counted, not fatal
                outcomes.append(exc)
        return grid_ns, results, builtin, outcomes

    check = Checker()
    round_ns, grid_ns, failures = [], [], {}
    failed_per_round = set()
    evals_per_round = sum(len(c) for c in calls)
    ops_per_round = len(spec["grids"]) * 3 + evals_per_round \
        + len(spec["grids"]) * len(red_points) + 1 + 4
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or not round_ns:
        t = clock()
        g_ns, results, builtin, outcomes = one_round()
        round_ns.append(clock() - t)
        grid_ns.extend(g_ns)
        for grid, grid_points, (diags, coeffs, evals, reds) in zip(spec["grids"], points, results):
            check_grid(check, power, rails, grid, grid_points, diags, coeffs, evals, reds)
        builtin_got = {f"{s.name}@{c.carrier_ghz}": tuple(getattr(row, r) for r in rails)
                       for (s, c), row in builtin.cells.items()}
        if builtin_got != builtin_want:
            wrong = sorted(k for k in builtin_got.keys() | builtin_want.keys()
                           if builtin_got.get(k) != builtin_want.get(k))
            check.fail(f"builtin_dataset differs from the published table at {wrong}")
        failed = check_partial(check, power, rails, partial, outcomes, failures)
        failed_per_round.add(failed)

    doc = {
        "rss_mb": _peak_rss_mb(), "round_ns": round_ns, "grid_ns": grid_ns,
        "evals_per_round": evals_per_round, "ops_per_round": ops_per_round,
        "failed_per_round": sorted(failed_per_round), "failures": failures,
        "check_count": check.count, "check_first": check.first,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


def check_grid(check, power, rails, grid, grid_points, diags, coeffs, evals, reds) -> None:
    tag = grid["name"]
    if diags:
        check.fail(f"{tag}: validate_dataset found {[d.render() for d in diags]}")
    want = grid["coeffs"]
    for series, got in (("clock", coeffs.clock), ("signal", coeffs.signal),
                        ("bram", coeffs.bram),
                        *((f"io[{s.name}]", f) for s, f in coeffs.io.items()),
                        *((f"leakage[{s.name}]", f) for s, f in coeffs.leakage.items())):
        slope, intercept = want[series]
        check.close(got.slope_w_per_ghz, slope, 1e-9, f"{tag} {series} slope")
        check.close(got.intercept_w, intercept, 1e-9, f"{tag} {series} intercept")
    io_at: dict[float, list[float]] = {}
    for (std, f, on_grid), (pb, joules), want_row in zip(grid_points, evals, grid["expect"]):
        got_row = tuple(getattr(pb, r) for r in rails)
        what = f"{tag} power_at({std.name}, {f})"
        if on_grid:
            if got_row != tuple(want_row):
                check.fail(f"{what} = {got_row}, published cell {want_row}")
        else:
            for g, w, rail in zip(got_row, want_row, rails):
                check.close(g, w, 1e-9, f"{what}.{rail}")
        check.close(joules * f * 1e9, pb.total_w, 1e-12 * pb.total_w,
                    f"{tag} energy_per_cycle({std.name}, {f}) * f")
        io_at.setdefault(f, []).append(pb.io_w)
    for f, ios in io_at.items():
        if not all(a < b for a, b in zip(ios, ios[1:])):
            check.fail(f"{tag}: io does not rise with supply voltage at {f} GHz: {ios}")
    for report, (base_w, alt_w, percent) in zip(reds, grid["reductions"]):
        if (report.base_w, report.alt_w) != (base_w, alt_w):
            check.fail(f"{tag} reduction {report.render()} != {base_w} -> {alt_w}")
        check.close(report.percent, percent, 1e-9, f"{tag} {report.render()}")
    if grid["name"] == "builtin":
        io_24 = reds[[r.rail is power.Rail.IO and r.channel.carrier_ghz == 2.4
                      for r in reds].index(True)]
        if round(io_24.percent, 2) != 64.99:
            check.fail(f"IO reduction at 2.4 GHz is {io_24.percent}, not 64.99%")


def check_partial(check, power, rails, partial, outcomes, failures) -> int:
    """Count the partial-grid calls that failed; check the ones that did not."""
    failed = 0
    fit_out, off_out, on_out = outcomes
    for name, out in zip(PARTIAL_OPS, (fit_out, off_out)):
        if isinstance(out, power.DegenerateFit):
            continue
        if name.startswith("power_at") and not isinstance(out, Exception):
            got = tuple(getattr(out, r) for r in rails)
            for g, w, rail in zip(got, partial["offgrid_expect"], rails):
                check.close(g, w, 1e-9, f"{name}.{rail}")
            continue
        failed += 1
        failures[name] = f"{type(out).__name__}: {out}" if isinstance(out, Exception) \
            else "returned instead of raising DegenerateFit"
    if isinstance(on_out, Exception):
        failed += 1
        failures["power_at(partial grid, on-grid)"] = f"{type(on_out).__name__}: {on_out}"
    elif tuple(getattr(on_out, r) for r in rails) != tuple(partial["ongrid_expect"]):
        check.fail(f"power_at on the partial grid's own cell gave {on_out}")
    return failed


if __name__ == "__main__":
    sys.exit(main())
