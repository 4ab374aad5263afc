"""Record sets of benchmark runs, and compare two sets.

    python3 bench/compare.py record OUT.jsonl [--seeds 1-10]
    python3 bench/compare.py compare BASE.jsonl NEW.jsonl

`record` runs bench/run.py once per seed for every workload of
BENCHMARK.json, with its run length and tracing off, and appends one JSON
line per run to OUT. Workloads alternate within each seed, so that slow spells on the host
fall on all of them.

`compare` prints, for each workload and end-to-end metric, the median and
quartiles of each set, the spread (quartile distance over the median), and
the change of NEW against BASE in the metric's worse direction. The verdict
is `ok` when the change, either way, is within the metric's bound in
BENCHMARK.json and each set's spread is too; `WORSE` when NEW is worse by
more than the bound, `BETTER` when it is better by more than the bound, and
`UNSTEADY` when a spread exceeds it. The share of failed operations must be
identical in both sets. The last line says whether the two sets agree: every
verdict `ok`, as two sets of the same code must. The exit status is 1 when a
verdict is `WORSE` or `UNSTEADY`, a run is incorrect or the failed shares
differ, so that a change which only makes metrics better passes against its
parent; otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, ROOT


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def record(out: Path, seeds: list[int]) -> int:
    spec = _spec()
    status = 0
    for seed in seeds:
        for name in (w["name"] for w in spec["workloads"]):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, "result": result}) + "\n")
            values = ", ".join(f"{m} {v['value']:.6g}" for m, v in result["metrics"].items())
            print(f"{name} seed {seed}: {values}", flush=True)
    return status


def _load(path: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            doc = json.loads(line)
            runs.setdefault(doc["workload"], []).append(doc["result"])
    return runs


def _summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med


def compare(base_path: Path, new_path: Path) -> int:
    spec = _spec()
    base, new = _load(base_path), _load(new_path)
    status, agree = 0, True
    print(f"{'workload':<13} {'metric':<17} {'base median [q1, q3]':>34} {'spread':>7} "
          f"{'new median [q1, q3]':>34} {'spread':>7} {'worse by':>9} {'bound':>6}  verdict")
    for workload in sorted(set(base) | set(new)):
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        if not b_runs or not n_runs:
            print(f"{workload:<13} present in one set only")
            status, agree = 1, False
            continue
        if not all(r["correct"] for r in b_runs + n_runs):
            print(f"{workload:<13} has runs with correct = false")
            status, agree = 1, False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            b = _summary([r["metrics"][name]["value"] for r in b_runs])
            n = _summary([r["metrics"][name]["value"] for r in n_runs])
            worse = sign * (n[0] - b[0]) / b[0]
            verdict = "ok"
            if worse > bound:
                verdict = "WORSE"
            elif max(b[3], n[3]) > bound:
                verdict = "UNSTEADY"
            elif -worse > bound:
                verdict = "BETTER"
            if verdict != "ok":
                agree = False
                if verdict != "BETTER":
                    status = 1
            print(f"{workload:<13} {name:<17} "
                  f"{b[0]:>12.6g} [{b[1]:.6g}, {b[2]:.6g}]".ljust(66)
                  + f"{b[3]:>7.2%} " + f"{n[0]:>12.6g} [{n[1]:.6g}, {n[2]:.6g}]".rjust(34)
                  + f" {n[3]:>7.2%} {worse:>+9.2%} {bound:>6.0%}  {verdict}")
        shares = {
            label: {r["failed"] / r["attempted"] for r in runs}
            for label, runs in (("base", b_runs), ("new", n_runs))
        }
        line = f"{workload:<13} failed share: base {sorted(shares['base'])}, new {sorted(shares['new'])}"
        if len(shares["base"] | shares["new"]) != 1:
            line += "  DIFFERS"
            status, agree = 1, False
        print(line)
    print(f"the two sets agree within every bound: {'yes' if agree else 'no'}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="run every workload once per seed")
    p.add_argument("out", type=Path)
    p.add_argument("--seeds", default="1-10", help="range 'a-b' or list 'a,b,c'")
    p = sub.add_parser("compare", help="compare two recorded sets")
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = parser.parse_args()
    if args.command == "record":
        args.out.parent.mkdir(parents=True, exist_ok=True)
        return record(args.out, _seeds(args.seeds))
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
