"""Benchmark of iotram: one workload, one seed, one run.

    python3 bench/run.py --workload udp-serve|trace-replay|power-sweep \
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; the program is imported from the
checkout's `src/`. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics named
in BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Lines before it describe the run. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys

import common
import power_sweep
import trace_replay
import udp_serve

WORKLOADS = {"udp-serve": udp_serve, "trace-replay": trace_replay, "power-sweep": power_sweep}
#: Seconds given to each of the other workloads in a traced run, for the
#: per-layer metrics that only they exercise.
COMPANION_SECONDS = 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.require_checkout()
    spec = common.read_json(common.ROOT / "BENCHMARK.json")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    traced = bool(args.trace)
    try:
        result = WORKLOADS[args.workload].run(args.seed, args.seconds, traced)
        metrics = result["layers"] if traced else result["metrics"]
        if traced:
            for name, other in WORKLOADS.items():
                if name != args.workload and any(m not in metrics for m in wanted):
                    extra = other.run(args.seed, COMPANION_SECONDS, True)["layers"]
                    for m, value in extra.items():
                        metrics.setdefault(m, value)
                    result["notes"].append(f"per-layer metrics missing from {args.workload} "
                                           f"taken from a traced pass of {name}")
        missing = [m for m in wanted if m not in metrics]
        if missing:
            raise common.CheckFailed(f"no measurement for {missing}")
    except common.CheckFailed as exc:
        print(f"check failed: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    for note in result["notes"]:
        print(note)
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": metrics[m][0], "unit": metrics[m][1]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
