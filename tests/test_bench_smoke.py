"""One short benchmark run per workload, checked for correctness only.

Every workload of `bench/run.py` checks each output against a model it
computes apart from the program: power-sweep fits seeded perturbations of the
published grid with `numpy.linalg.lstsq`, trace-replay replays its traces
through its own RAM model, and udp-serve checks every reply datagram. A run
that reports `"correct": true` has compared the program with those models on
inputs no other test builds. The runs' timings are not checked.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

RUN_PY = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"
METRICS = {"setup_s", "throughput_per_s", "latency_p50_us", "peak_rss_mb"}
NO_NUMPY = importlib.util.find_spec("numpy") is None


@pytest.mark.parametrize("workload", [
    "udp-serve",
    "trace-replay",
    pytest.param("power-sweep", marks=pytest.mark.skipif(NO_NUMPY, reason="needs numpy")),
])
def test_one_second_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert set(result["metrics"]) == METRICS
