"""Shared oracle data and Hypothesis settings for the test suite.

Every property test runs under one Hypothesis profile: derandomized, so each
run draws the same examples, and with no deadline, so a slow host cannot fail
an example for its timing. Tests set only their example counts.

GOLDEN_TABLES re-transcribes the published power tables in their printed
layout: one block per channel, one row per rail, columns in ascending supply
voltage (LVCMOS12, LVCMOS15, LVCMOS18, LVCMOS25). The package embeds the same
numbers keyed per standard, so agreement catches transcription slips in
either copy. Values in watts.

`render_outcome` is the word `ram-run` prints for one executed op, written
plainly: the oracle that the CLI's per-op line formats are held to.

`each_other_python` runs a test once under each other CPython 3.1x that
pyenv holds, passing the interpreter's path as `python`.
"""

import pathlib
import platform

import pytest
from hypothesis import settings

from iotram.ram import Status

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

# The interpreters themselves, not the pyenv shims, which may resolve to
# another Python or to none.
_OTHER_PYTHONS = sorted(
    path for path in pathlib.Path.home().glob(".pyenv/versions/3.1*/bin/python3")
    if path.parents[1].name != platform.python_version()
)
each_other_python = pytest.mark.parametrize(
    "python",
    _OTHER_PYTHONS or [pytest.param(None, marks=pytest.mark.skip(reason="no other CPython 3.1x"))],
    ids=lambda path: path.parents[1].name if path else "none",
)

GOLDEN_TABLES = {
    0.9: {
        "clock": (0.061, 0.061, 0.061, 0.061),
        "signal": (0.033, 0.033, 0.033, 0.033),
        "bram": (1.148, 1.148, 1.148, 1.148),
        "io": (0.060, 0.086, 0.109, 0.171),
        "leakage": (1.321, 1.322, 1.323, 1.325),
        "total": (2.624, 2.651, 2.675, 2.739),
    },
    2.4: {
        "clock": (0.161, 0.161, 0.161, 0.161),
        "signal": (0.091, 0.091, 0.091, 0.091),
        "bram": (3.062, 3.062, 3.062, 3.062),
        "io": (0.160, 0.229, 0.292, 0.457),
        "leakage": (1.374, 1.376, 1.378, 1.383),
        "total": (4.849, 4.920, 4.985, 5.155),
    },
    3.6: {
        "clock": (0.246, 0.246, 0.246, 0.246),
        "signal": (0.138, 0.138, 0.138, 0.138),
        "bram": (4.593, 4.593, 4.593, 4.593),
        "io": (0.240, 0.343, 0.437, 0.686),
        "leakage": (1.419, 1.422, 1.425, 1.433),
        "total": (6.637, 6.744, 6.841, 7.096),
    },
    5.0: {
        "clock": (0.341, 0.341, 0.341, 0.341),
        "signal": (0.192, 0.192, 0.192, 0.192),
        "bram": (6.380, 6.380, 6.380, 6.380),
        "io": (0.333, 0.477, 0.608, 0.952),
        "leakage": (1.476, 1.480, 1.485, 1.496),
        "total": (8.724, 8.872, 9.007, 9.363),
    },
    5.9: {
        "clock": (0.403, 0.403, 0.403, 0.403),
        "signal": (0.226, 0.226, 0.226, 0.226),
        "bram": (7.528, 7.528, 7.528, 7.528),
        "io": (0.393, 0.563, 0.717, 1.124),
        "leakage": (1.515, 1.520, 1.525, 1.539),
        "total": (10.067, 10.242, 10.402, 10.822),
    },
}


@pytest.fixture(scope="session")
def golden_grid():
    return GOLDEN_TABLES


def render_outcome(op, status: Status, data: int) -> str:
    """The word `ram-run` prints for one executed op (a `TraceOp`)."""
    if status is Status.AUTH_FAIL:
        return "AuthFail"
    if status is Status.ADDR_RANGE:
        return "AddrRange"
    return "WriteOk" if op.is_write else f"ReadOk {data:08X}"
