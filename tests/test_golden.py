"""Golden transcripts of the command line and the wire protocol, replayed
byte for byte: case by case under this interpreter, and whole under each
other CPython 3.1x that pyenv holds, where the float sums of `fit` must round
the same. `golden_transcripts` says what the file holds and how to re-record
it."""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess

import pytest

import iotram
from golden_transcripts import load, replay_wire, run_case, write_files

GOLDEN = load()


@pytest.mark.parametrize("case", GOLDEN["cli"], ids=lambda case: " ".join(case["argv"]))
def test_cli_transcript(case, tmp_path):
    write_files(GOLDEN["files"], tmp_path)
    assert run_case(case["argv"], tmp_path) == case


def test_wire_transcript():
    wire = GOLDEN["wire"]
    assert len(wire["exchanges"]) >= 500
    requests = [bytes.fromhex(exchange.split(" ")[0]) for exchange in wire["exchanges"]]
    exchanges, ledger = replay_wire(requests)
    assert exchanges == wire["exchanges"]
    assert ledger == wire["ledger"]


# The interpreters themselves, not the pyenv shims, which may resolve to
# another Python or to none.
_OTHER_PYTHONS = sorted(
    path for path in pathlib.Path.home().glob(".pyenv/versions/3.1*/bin/python3")
    if path.parents[1].name != platform.python_version()
)


@pytest.mark.parametrize(
    "python",
    _OTHER_PYTHONS or [pytest.param(None, marks=pytest.mark.skip(reason="no other CPython 3.1x"))],
    ids=lambda path: path.parents[1].name if path else "none",
)
def test_transcripts_replay_under_another_python(python):
    script = pathlib.Path(__file__).with_name("golden_transcripts.py")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(iotram.__file__).parents[1])}
    proc = subprocess.run(
        [str(python), str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
