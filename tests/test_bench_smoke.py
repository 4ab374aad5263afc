"""One short power-sweep benchmark run, checked for correctness only.

`bench/run.py --workload power-sweep` reads, validates and fits seeded
perturbations of the published grid and checks every result against its own
`numpy.linalg.lstsq` model, so a run that reports `"correct": true` has
compared the library with an independent fit on grids no other test builds.
The run's timings are not checked.
"""

import json
import pathlib
import subprocess
import sys

import pytest

pytest.importorskip("numpy")

RUN_PY = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"
METRICS = {"setup_s", "throughput_per_s", "latency_p50_us", "peak_rss_mb"}


def test_power_sweep_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", "power-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert set(result["metrics"]) == METRICS
