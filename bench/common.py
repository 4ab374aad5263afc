"""Helpers shared by the benchmark's workload modules.

The benchmark never imports iotram in its own process: the program runs
in child processes started from the checkout's own `src/`, so that set-up
time and peak memory are those of a process that runs iotram and nothing
else.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Generated inputs, program outputs and span dumps; listed in .gitignore.
WORK = ROOT / ".bench_work"

#: The published per-channel power tables, transcribed in the benchmark as
#: the oracle for on-grid results: (clock, signal, bram, io, leakage, total)
#: in watts, per channel in GHz and standard.
STANDARD_NAMES = ("LVCMOS12", "LVCMOS15", "LVCMOS18", "LVCMOS25")
CHANNEL_GHZ = (0.9, 2.4, 3.6, 5.0, 5.9)
RAILS = ("clock_w", "signal_w", "bram_w", "io_w", "leakage_w", "total_w")
PUBLISHED = {
    0.9: {
        "LVCMOS12": (0.061, 0.033, 1.148, 0.060, 1.321, 2.624),
        "LVCMOS15": (0.061, 0.033, 1.148, 0.086, 1.322, 2.651),
        "LVCMOS18": (0.061, 0.033, 1.148, 0.109, 1.323, 2.675),
        "LVCMOS25": (0.061, 0.033, 1.148, 0.171, 1.325, 2.739),
    },
    2.4: {
        "LVCMOS12": (0.161, 0.091, 3.062, 0.160, 1.374, 4.849),
        "LVCMOS15": (0.161, 0.091, 3.062, 0.229, 1.376, 4.920),
        "LVCMOS18": (0.161, 0.091, 3.062, 0.292, 1.378, 4.985),
        "LVCMOS25": (0.161, 0.091, 3.062, 0.457, 1.383, 5.155),
    },
    3.6: {
        "LVCMOS12": (0.246, 0.138, 4.593, 0.240, 1.419, 6.637),
        "LVCMOS15": (0.246, 0.138, 4.593, 0.343, 1.422, 6.744),
        "LVCMOS18": (0.246, 0.138, 4.593, 0.437, 1.425, 6.841),
        "LVCMOS25": (0.246, 0.138, 4.593, 0.686, 1.433, 7.096),
    },
    5.0: {
        "LVCMOS12": (0.341, 0.192, 6.380, 0.333, 1.476, 8.724),
        "LVCMOS15": (0.341, 0.192, 6.380, 0.477, 1.480, 8.872),
        "LVCMOS18": (0.341, 0.192, 6.380, 0.608, 1.485, 9.007),
        "LVCMOS25": (0.341, 0.192, 6.380, 0.952, 1.496, 9.363),
    },
    5.9: {
        "LVCMOS12": (0.403, 0.226, 7.528, 0.393, 1.515, 10.067),
        "LVCMOS15": (0.403, 0.226, 7.528, 0.563, 1.520, 10.242),
        "LVCMOS18": (0.403, 0.226, 7.528, 0.717, 1.525, 10.402),
        "LVCMOS25": (0.403, 0.226, 7.528, 1.124, 1.539, 10.822),
    },
}

#: Both CLI workloads price cycles at LVCMOS12 on the 2.4 GHz channel.
SESSION_STANDARD = "LVCMOS12"
SESSION_CHANNEL = "2.4"
PER_CYCLE_J = PUBLISHED[2.4]["LVCMOS12"][5] / 2.4e9

#: Fewest set-up samples a run takes, whatever its length, so that the
#: reported set-up time is always a median.
MIN_SETUP_SAMPLES = 10


class CheckFailed(Exception):
    """The program produced an output the benchmark's model does not predict."""


def require_checkout() -> None:
    """Exit with status 2 unless the program's sources are beside the benchmark."""
    if not (SRC / "iotram" / "__init__.py").is_file():
        print(f"benchmark: no iotram sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    WORK.mkdir(exist_ok=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # A fixed string hash keeps dict layouts, and so timings, alike across runs.
    env["PYTHONHASHSEED"] = "0"
    # Set-up time is measured with compiled bytecode cached, as users run it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args: list[str], **kw) -> subprocess.Popen:
    """Start a benchmark helper script under this interpreter."""
    return subprocess.Popen(
        [sys.executable, *args], env=child_env(), cwd=ROOT, **kw
    )


def reap(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for a child and return its exit status; kill it after `timeout`."""
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise CheckFailed(f"child {proc.args[1:3]} did not exit within {timeout} s") from None


def check_energy(printed: float, expected: float, what: str) -> None:
    """A figure the program printed with `%.6e`, against the expected joules."""
    if abs(printed - expected) > 5.01e-7 * expected:
        raise CheckFailed(f"{what}: printed {printed!r}, expected {expected!r}")


def sustained_rate(rates: list[float]) -> float:
    """The rate reached or beaten by four intervals in five (their 20th percentile).

    On a 2-vCPU Xeon virtual machine, speed changed by up to a quarter from
    one second to the next. Across ten 30-second power-sweep runs the median
    per-round rate spread by 9.5% (quartile distance over median), the 20th
    percentile by 3.7%: the slow end of the distribution repeats, the share
    of fast spells does not.
    """
    if len(rates) < 2:
        return rates[0]
    return statistics.quantiles(rates, n=5)[0]


def read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
