"""CLI subcommands, output formats, and the exit-code contract."""

import contextlib
import gc
import io
import json
import os
import pathlib
import random
import re
import socket
import subprocess
import sys
import tracemalloc

import pytest

import iotram

from iotram.cli import (
    EXIT_BIND,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from iotram.net import parse_endpoint
from iotram.net.service import RamService
from iotram.power import read_calibration, builtin_dataset
from iotram.power.dataset import CALIBRATION_HEADER
from test_service import _ipv6_loopback


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text_digits(capsys):
    code, out, _ = run(capsys, "table", "--channel", "2.4")
    assert code == EXIT_OK
    assert "Power consumption at 2.4 GHz (802.11b/g/n), watts" in out
    # One spot check per rail, digit for digit.
    assert "bram           3.062     3.062     3.062     3.062" in out
    assert "io             0.160     0.229     0.292     0.457" in out
    assert "total          4.849     4.920     4.985     5.155" in out


def test_table_csv_round_trips(capsys):
    code, out, _ = run(capsys, "table", "--format", "csv")
    assert code == EXIT_OK
    ds = read_calibration(out)
    assert ds.cells == builtin_dataset().cells


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--format", "json", "--standard", "LVCMOS15", "--channel", "5.0")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["cells"]) == 1
    assert doc["cells"][0]["total_w"] == 8.872


def test_table_single_cell(capsys):
    code, out, _ = run(capsys, "table", "--standard", "LVCMOS25", "--channel", "802.11p")
    assert code == EXIT_OK
    assert "5.9 GHz" in out
    assert "1.124" in out


def test_table_rejects_unknown_channel(capsys):
    code, _, err = run(capsys, "table", "--channel", "7.0")
    assert code == EXIT_USAGE
    assert "7.0" in err


def test_table_from_file(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text(
        CALIBRATION_HEADER + "\nLVCMOS12,2.4,0.161,0.091,3.062,0.160,1.374,4.849\n"
    )
    code, out, _ = run(capsys, "table", "--input", str(path), "--standard", "LVCMOS12", "--channel", "2.4")
    assert code == EXIT_OK
    assert "4.849" in out


def test_table_csv_of_a_finer_file_reads_back_exactly(capsys, tmp_path):
    # Values the milliwatt format would round are written by repr instead.
    path = tmp_path / "grid.csv"
    path.write_text(CALIBRATION_HEADER + "\nLVCMOS12,2.4,0.1612,0.091,3.062,0.160,1.374,4.8492\n")
    code, out, _ = run(capsys, "table", "--input", str(path), "--standard", "LVCMOS12",
                       "--channel", "2.4", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[1] == "LVCMOS12,2.4,0.1612,0.091,3.062,0.160,1.374,4.8492"
    assert read_calibration(out).cells == read_calibration(path.read_text()).cells


def test_table_incomplete_file_cell(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text(
        CALIBRATION_HEADER + "\nLVCMOS12,2.4,0.161,0.091,3.062,0.160,1.374,4.849\n"
    )
    code, _, err = run(capsys, "table", "--input", str(path), "--standard", "LVCMOS25", "--channel", "2.4")
    assert code == EXIT_VALIDATION
    assert "incomplete" in err


def test_compare_text_and_flags(capsys):
    code, out, err = run(capsys, "compare", "--rail", "io", "--from", "LVCMOS25", "--to", "LVCMOS12")
    assert code == EXIT_OK
    assert "64.91% reduction" in out
    assert "65.04% reduction" in out
    # Unreachable published figures are flagged on stderr, not silently adopted.
    assert "88.45" in err and "85.00" in err
    assert "88.45" not in out


def test_compare_csv(capsys):
    code, out, _ = run(
        capsys, "compare", "--rail", "total", "--from", "LVCMOS25", "--to", "LVCMOS12",
        "--channel", "3.6", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("channel_ghz,")
    assert lines[1] == "3.6,total,LVCMOS25,LVCMOS12,7.096,6.637,6.47"


def test_compare_json_no_flags_for_clean_rails(capsys):
    code, out, err = run(
        capsys, "compare", "--rail", "leakage", "--from", "LVCMOS25", "--to", "LVCMOS12",
        "--format", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc) == 5
    assert doc[0]["percent"] == 0.30
    assert err == ""


def test_compare_requires_both_standards():
    assert main(["compare", "--rail", "io", "--from", "LVCMOS25", "--to", "nope"]) == EXIT_USAGE


def test_fit_text(capsys):
    code, out, _ = run(capsys, "fit")
    assert code == EXIT_OK
    assert "bram" in out and "0.068183" in out and "1.275926" in out
    assert "through-origin" in out and "affine" in out
    assert "info: io slope / supply^2" in out


def test_fit_json(capsys):
    code, out, _ = run(capsys, "fit", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert round(doc["coefficients"]["bram"]["slope_w_per_ghz"], 4) == 1.2759
    assert round(doc["coefficients"]["io"]["LVCMOS12"]["slope_w_per_ghz"], 4) == 0.0666
    assert doc["max_relative_residuals"]["clock"] < 0.02


def test_fit_degenerate_grid(capsys, tmp_path):
    path = tmp_path / "one.csv"
    path.write_text(
        CALIBRATION_HEADER + "\nLVCMOS12,2.4,0.161,0.091,3.062,0.160,1.374,4.849\n"
    )
    code, _, err = run(capsys, "fit", "--input", str(path))
    assert code == EXIT_VALIDATION
    assert "degenerate" in err


def test_fit_degenerate_series(capsys, tmp_path):
    # Two frequencies in the grid, but LVCMOS25 has a single cell.
    path = tmp_path / "partial.csv"
    path.write_text(
        CALIBRATION_HEADER
        + "\nLVCMOS12,0.9,0.061,0.033,1.148,0.060,1.321,2.624"
        + "\nLVCMOS12,2.4,0.161,0.091,3.062,0.160,1.374,4.849"
        + "\nLVCMOS25,2.4,0.161,0.091,3.062,0.457,1.383,5.155\n"
    )
    code, out, err = run(capsys, "fit", "--input", str(path))
    assert code == EXIT_VALIDATION
    assert err.startswith("iotram: degenerate fit: ")
    assert out == ""



@pytest.mark.parametrize("fmt", ["text", "json"])
def test_fit_subnormal_cell_is_degenerate(capsys, tmp_path, fmt):
    # The relative residual against a subnormal io value overflows; neither
    # format may print it as `inf%` or as a JSON `Infinity`.
    _, grid, _ = run(capsys, "table", "--format", "csv")
    row = "LVCMOS12,0.9,0.061,0.033,1.148,0.060,"
    assert row in grid
    path = tmp_path / "sub.csv"
    path.write_text(grid.replace(row, "LVCMOS12,0.9,0.061,0.033,1.148,5e-324,"))
    code, out, err = run(capsys, "fit", "--input", str(path), "--format", fmt)
    assert code == EXIT_VALIDATION
    assert err == "iotram: degenerate fit: relative residual of io[LVCMOS12] overflows\n"
    assert out == ""

def test_predict_on_grid_frequency(capsys):
    code, out, _ = run(capsys, "predict", "--standard", "LVCMOS12", "--freq-ghz", "2.4", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    # Model output, close to but not equal to the grid cell.
    assert abs(doc["total_w"] - 4.849) < 0.05


@pytest.mark.parametrize("freq", ["0", "-1", "nan", "inf", "-inf", "1.7e308"])
def test_predict_rejects_nonpositive(capsys, freq):
    code, out, err = run(capsys, "predict", "--standard", "LVCMOS12", f"--freq-ghz={freq}")
    assert code == EXIT_USAGE
    assert "freq" in err
    assert out == ""


def test_validate_builtin_documents_discrepancies(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == EXIT_OK
    assert out.count("TABLE7_MISMATCH") == 1
    assert out.count("CLAIM_MISMATCH") == 2
    assert "88.45" in out and "85.00" in out
    assert "0 dataset defect(s)" in out


def test_validate_clean_file(capsys, tmp_path):
    path = tmp_path / "clean.csv"
    path.write_text(
        CALIBRATION_HEADER + "\nLVCMOS12,2.4,0.161,0.091,3.062,0.160,1.374,4.849\n"
    )
    code, out, _ = run(capsys, "validate", "--input", str(path))
    assert code == EXIT_OK
    assert "0 dataset defect(s)" in out


def test_validate_broken_row_sum(capsys, tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text(
        CALIBRATION_HEADER + "\nLVCMOS12,2.4,0.161,0.091,3.062,0.160,1.374,9.999\n"
    )
    code, out, _ = run(capsys, "validate", "--input", str(path))
    assert code == EXIT_VALIDATION
    assert "ROW_SUM" in out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "--input", "/no/such/file.csv")
    assert code == EXIT_IO
    assert "cannot read" in err


def test_ram_run_trace(capsys, tmp_path):
    trace = tmp_path / "ops.trace"
    trace.write_text("# demo\nW 0 DEADBEEF\nR 0\nR 999\n")
    code, out, _ = run(capsys, "ram-run", "--trace", str(trace))
    assert code == EXIT_OK
    assert "-> WriteOk" in out
    assert "-> ReadOk DEADBEEF" in out
    assert "-> AddrRange" in out
    assert "cycles=3 writes=1 reads=1 auth_fails=0 range_errors=1" in out
    assert "energy" not in out


def test_ram_run_wrong_key(capsys, tmp_path):
    trace = tmp_path / "ops.trace"
    trace.write_text("W 0 1\nR 0\n")
    code, out, _ = run(capsys, "ram-run", "--trace", str(trace), "--key", "2001:db8::2")
    assert code == EXIT_OK
    assert out.count("AuthFail") == 2
    assert "auth_fails=2" in out


def test_ram_run_hex_key(capsys, tmp_path):
    trace = tmp_path / "ops.trace"
    trace.write_text("R 0\n")
    code, out, _ = run(
        capsys, "ram-run", "--trace", str(trace), "--device-key", "ff", "--key", "ff",
    )
    assert code == EXIT_OK
    assert "ReadOk" in out


def test_ram_run_rejects_bad_key(capsys, tmp_path):
    trace = tmp_path / "ops.trace"
    trace.write_text("R 0\n")
    code, _, err = run(capsys, "ram-run", "--trace", str(trace), "--key", "not-a-key")
    assert code == EXIT_USAGE
    assert "key" in err


# Forms `int(text, 16)` takes that are not plain ASCII hex: a prefix, a sign,
# an underscore and Arabic-Indic digits (which `int` reads as 0x12).
@pytest.mark.parametrize("form", ["0xff", "0XFF", "+ff", "de_ad", "-0", "\u0661\u0662", "-1"])
@pytest.mark.parametrize("option", ["--key", "--device-key"])
def test_ram_run_takes_only_plain_hex_keys(capsys, tmp_path, option, form):
    trace = tmp_path / "ops.trace"
    trace.write_text("R 0\n")
    other = "--device-key" if option == "--key" else "--key"
    code, out, err = run(capsys, "ram-run", "--trace", str(trace), f"{option}={form}", other, "ff")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"iotram: bad 128-bit key {form!r}\n"


def test_ram_run_rejects_a_key_with_a_zone_index(capsys, tmp_path):
    # A zone index is not part of the address: dropping it would take
    # "fe80::1%eth0" for the device key "fe80::1".
    trace = tmp_path / "ops.trace"
    trace.write_text("R 0\n")
    code, out, err = run(
        capsys, "ram-run", "--trace", str(trace), "--key", "fe80::1%eth0", "--device-key", "fe80::1",
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "iotram: bad 128-bit key 'fe80::1%eth0'\n"


def test_ram_run_energy_line(capsys, tmp_path):
    trace = tmp_path / "ops.trace"
    trace.write_text("".join(f"W {i % 256} 1\n" for i in range(10)))
    code, out, _ = run(
        capsys, "ram-run", "--trace", str(trace), "--standard", "LVCMOS12", "--channel", "2.4",
    )
    assert code == EXIT_OK
    assert "energy: 2.020417e-08 J" in out
    assert "2.020417e-09 J/cycle" in out


def test_ram_run_counts_only_ok_ops_as_writes_and_reads(capsys, tmp_path):
    trace = tmp_path / "ops.trace"
    trace.write_text("W 0 1\nW 999 2\nR 0\nR 999\nR 1\n")
    code, out, _ = run(capsys, "ram-run", "--trace", str(trace))
    assert code == EXIT_OK
    assert "cycles=5 writes=1 reads=2 auth_fails=0 range_errors=2" in out


def test_ram_run_prices_denied_cycles_too(capsys, tmp_path):
    trace = tmp_path / "ops.trace"
    trace.write_text("".join(f"W {i % 256} 1\n" for i in range(10)))
    code, out, _ = run(
        capsys, "ram-run", "--trace", str(trace), "--key", "2001:db8::2",
        "--standard", "LVCMOS12", "--channel", "2.4",
    )
    assert code == EXIT_OK
    assert "cycles=10 writes=0 reads=0 auth_fails=10 range_errors=0" in out
    assert "energy: 2.020417e-08 J" in out


def test_ram_run_standard_requires_channel(capsys, tmp_path):
    trace = tmp_path / "ops.trace"
    trace.write_text("R 0\n")
    code, _, err = run(capsys, "ram-run", "--trace", str(trace), "--standard", "LVCMOS12")
    assert code == EXIT_USAGE
    assert "together" in err


@pytest.mark.parametrize("calibration", ["/no/such.csv", "grid.csv"])
def test_ram_run_input_requires_pricing(capsys, tmp_path, calibration):
    trace = tmp_path / "ops.trace"
    trace.write_text("W 0 1\nR 0\n")
    (tmp_path / "grid.csv").write_text(CALIBRATION_HEADER + "\n")
    code, out, err = run(
        capsys, "ram-run", "--trace", str(trace), "--input", str(tmp_path / calibration)
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "--input" in err and "--standard and --channel" in err


def test_ram_run_missing_trace(capsys):
    code, _, err = run(capsys, "ram-run", "--trace", "/no/such.trace")
    assert code == EXIT_IO


def test_ram_run_trace_not_utf8(capsys, tmp_path):
    trace = tmp_path / "bad.trace"
    trace.write_bytes(b"W 0 FF\n\xff\xfe R 0\n")
    code, out, err = run(capsys, "ram-run", "--trace", str(trace))
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith(f"iotram: trace {trace} is not UTF-8: ")
    assert len(err.splitlines()) == 1


def test_ram_run_malformed_trace(capsys, tmp_path):
    trace = tmp_path / "bad.trace"
    trace.write_text("W 0\n")
    code, _, err = run(capsys, "ram-run", "--trace", str(trace))
    assert code == EXIT_VALIDATION
    assert "line 1" in err


@pytest.mark.parametrize("text,want", [("W 0 1\nR 0\n", EXIT_OK), ("R 0\nW 0\n", EXIT_VALIDATION)])
def test_ram_run_leaves_the_cyclic_collector_as_it_found_it(capsys, tmp_path, text, want):
    # ram-run pauses the collector while it runs a trace, also when the
    # trace is rejected half way, and must restore it either way.
    trace = tmp_path / "ops.trace"
    trace.write_text(text)
    try:
        gc.disable()
        assert run(capsys, "ram-run", "--trace", str(trace))[0] == want
        assert not gc.isenabled()
        gc.enable()
        assert run(capsys, "ram-run", "--trace", str(trace))[0] == want
        assert gc.isenabled()
    finally:
        gc.enable()


def test_ram_run_keeps_one_piece_of_a_trace_alive(tmp_path):
    # The trace is read a piece at a time, and output past 64 KiB waits in a
    # temporary file, so only one piece's text, ops and results are alive:
    # about 27 bytes an op here, against 85 when the trace text and the
    # output were held whole, and 250 when every op's tuples lived until the
    # first line was written.
    rng = random.Random(20)
    n_ops = 20000
    lines = [
        f"W {rng.randrange(600)} {rng.getrandbits(32):08X}" if rng.random() < 0.55
        else f"R {rng.randrange(600)}"
        for _ in range(n_ops)
    ]
    trace = tmp_path / "ops.trace"
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    del lines
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(["ram-run", "--trace", str(trace), "--depth", "512"]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peak - before) / n_ops < 150


def _ram_run_peak(trace: pathlib.Path) -> int:
    """The tracemalloc peak of a `ram-run` of `trace`, output discarded."""
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(["ram-run", "--trace", str(trace), "--depth", "512"]) == EXIT_OK
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()


def test_ram_run_memory_does_not_grow_with_the_trace(tmp_path):
    # Five times the ops take no more memory at the peak: a piece's working
    # set bounds it. It took about 2.9 times as much when the trace text and
    # the output were held whole. (20,000 against 100,000 ops would take
    # three times as long under tracemalloc, and show the same.)
    rng = random.Random(28)
    lines = [f"W {rng.randrange(600)} {rng.getrandbits(32):08X}\n" for _ in range(500)]
    lines += [f"R {rng.randrange(600)}\n" for _ in range(500)]
    rng.shuffle(lines)
    block = "".join(lines)
    peaks = []
    for name, blocks in (("warm-up", 2), ("short", 8), ("long", 40)):
        trace = tmp_path / f"{name}.trace"
        trace.write_text(block * blocks, encoding="utf-8")
        peaks.append(_ram_run_peak(trace))
    _, short, long = peaks
    assert long <= 1.2 * short, (short, long)


# Runs a `ram-run` whose output spills, one that meets a malformed line after
# its output spilled, and one whose spill file has no room, then collects
# what is left: a file that one of them left open warns as it is freed.
_SPILLS = """
import contextlib, gc, io, sys, tempfile
from iotram.cli import main

def ram_run(trace):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        return main(["ram-run", "--trace", trace]), out.getvalue()

spilled, malformed = sys.argv[1:]
code, out = ram_run(spilled)
assert code == 0 and out.count("\\n") == 10001, code
assert ram_run(malformed) == (4, "")
tempfile.TemporaryFile = lambda *args, **kwargs: open("/dev/full", *args, **kwargs)
assert ram_run(spilled) == (3, "")
gc.collect()
"""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_ram_run_leaves_no_file_open(tmp_path):
    spilled, malformed = tmp_path / "spilled.trace", tmp_path / "malformed.trace"
    spilled.write_text("W 0 1\nR 0\n" * 5000, encoding="utf-8")
    malformed.write_text("W 0 1\nR 0\n" * 5000 + "W 0\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(iotram.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", _SPILLS,
         str(spilled), str(malformed)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr


def test_ram_run_bad_depth(capsys, tmp_path):
    trace = tmp_path / "ops.trace"
    trace.write_text("R 0\n")
    code, _, err = run(capsys, "ram-run", "--trace", str(trace), "--depth", "0")
    assert code == EXIT_USAGE


# Runs `iotram` under a 1 GB address-space limit that the child process sets
# on itself, so that a depth allocated up front fails there and not here.
_UNDER_1GB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from iotram.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("depth,code", [("4294967296", EXIT_OK), ("4294967297", EXIT_USAGE)])
def test_ram_run_depth_limits_under_1gb(tmp_path, depth, code):
    trace = tmp_path / "ops.trace"
    trace.write_text("W 4294967295 DEADBEEF\nR 4294967295\n")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(iotram.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _UNDER_1GB, "ram-run", "--trace", str(trace), "--depth", depth],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == EXIT_OK:
        assert "ReadOk DEADBEEF" in proc.stdout
    else:
        assert proc.stderr == "iotram: depth_words must be <= 2**32 (32-bit addresses), got 4294967297\n"


def test_serve_bind_failure(capsys):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
        holder.bind(("127.0.0.1", 0))
        port = holder.getsockname()[1]
        code, _, err = run(capsys, "serve", "--bind", f"127.0.0.1:{port}")
        assert code == EXIT_BIND
        assert "cannot bind" in err


def test_serve_bad_endpoint(capsys):
    code, _, err = run(capsys, "serve", "--bind", "127.0.0.1:99999")
    assert code == EXIT_USAGE


def test_serve_honors_bind_env_var(capsys, monkeypatch):
    # The env endpoint is used when --bind is absent; proven by it failing.
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
        holder.bind(("127.0.0.1", 0))
        port = holder.getsockname()[1]
        monkeypatch.setenv("IOTRAM_BIND", f"127.0.0.1:{port}")
        code, _, err = run(capsys, "serve")
        assert code == EXIT_BIND
        assert str(port) in err


def test_serve_empty_bind_is_a_bad_endpoint(capsys, monkeypatch):
    # An empty --bind is not an absent one: it must not fall through to
    # IOTRAM_BIND, here an endpoint that cannot be bound.
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
        holder.bind(("127.0.0.1", 0))
        monkeypatch.setenv("IOTRAM_BIND", f"127.0.0.1:{holder.getsockname()[1]}")
        code, out, err = run(capsys, "serve", "--bind", "")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "iotram: bad endpoint '' (expected host:port)\n"


def test_serve_empty_bind_env_var_means_unset(capsys, monkeypatch):
    # The default is used; proven by it failing.
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
        holder.bind(("127.0.0.1", 0))
        port = holder.getsockname()[1]
        monkeypatch.setenv("IOTRAM_BIND", "")
        monkeypatch.setattr(iotram.cli, "DEFAULT_BIND", f"127.0.0.1:{port}")
        code, _, err = run(capsys, "serve")
        assert code == EXIT_BIND
        assert str(port) in err


# A host the socket layer cannot encode: an argv or environment byte that is
# not UTF-8, and a name whose IDNA label is longer than 63 characters.
@pytest.mark.parametrize("host", [b"\xff", "\u00e9" * 70], ids=["non-utf8-byte", "long-idna-label"])
@pytest.mark.parametrize("source", ["argv", "env"])
def test_serve_unencodable_host_is_a_usage_error(host, source):
    endpoint = host + b":0" if isinstance(host, bytes) else host + ":0"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(iotram.__file__).parents[1])}
    argv = [sys.executable, "-m", "iotram.cli", "serve"]
    if source == "argv":
        argv += ["--bind", endpoint]
    else:
        env["IOTRAM_BIND"] = endpoint
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("iotram: bad host in endpoint ")
    assert proc.stderr.count("\n") == 1


class _InterruptedStdout(io.StringIO):
    """Stdout whose first write raises KeyboardInterrupt, as a Ctrl-C would."""

    def __init__(self):
        super().__init__()
        self.interrupted = False

    def write(self, text):
        if not self.interrupted:
            self.interrupted = True
            raise KeyboardInterrupt
        return super().write(text)


def test_serve_ctrl_c_during_listening_line(monkeypatch):
    stdout = _InterruptedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = main(["serve", "--bind", "127.0.0.1:0"])
    except KeyboardInterrupt:
        pytest.fail("a Ctrl-C during the listening line escaped main")
    assert code == EXIT_OK
    assert stdout.interrupted
    assert stdout.getvalue() == "ops_total=0 [] cycles=0 energy=0.000000e+00 J\n"


def test_serve_receive_error_exits_3(capsys, monkeypatch):
    def fail(self):
        raise OSError("receive failed")

    monkeypatch.setattr(RamService, "serve_forever", fail)
    code, out, err = run(capsys, "serve", "--bind", "127.0.0.1:0")
    assert code == EXIT_IO
    assert out.endswith("ops_total=0 [] cycles=0 energy=0.000000e+00 J\n")
    assert err == "iotram: receive failed\n"


@pytest.mark.skipif(not _ipv6_loopback(), reason="::1 cannot be bound")
def test_serve_brackets_an_ipv6_host_in_the_listening_line(capsys, monkeypatch):
    # "::1:80" would itself read as one IPv6 literal; the line gives the
    # endpoint as --bind takes it.
    monkeypatch.setattr(RamService, "serve_forever", lambda self: None)
    code, out, _ = run(capsys, "serve", "--bind", "[::1]:0")
    assert code == EXIT_OK
    line = out.splitlines()[0]
    assert re.fullmatch(r"listening on \[::1\]:\d+ \(LVCMOS12, 2\.4 GHz, \S+ J/cycle\)", line), line
    host, port = parse_endpoint(line.split()[2])
    assert host == "::1" and port > 0


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == EXIT_USAGE


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["predict", "--standard", "LVCMOS12"])
    assert err.value.code == EXIT_USAGE
