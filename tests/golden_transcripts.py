"""Golden transcripts of the command line and the wire protocol: their
replay and their recording. The module imports only the standard library and
`iotram`, so any Python the package supports can run it.

`golden/transcripts.json` holds what the program did when it was recorded:

- for each command line, the exit code, stdout and stderr of
  `iotram.cli.main`, with the temporary directory of its input files written
  as `{tmp}`;
- a seeded sequence of request datagrams, each with the response bytes that
  `handle_datagram` gave it, and the final `EnergyLedger.render()` line.

A replay runs the stored inputs again and requires every byte back;
`tests/test_golden.py` does so case by case. A refactor that must not change
behaviour keeps the file as it is. To replay it all, printing what differs
(exit status 1 if anything does):

    PYTHONPATH=src python tests/golden_transcripts.py

A change of behaviour made on purpose re-records it with

    PYTHONPATH=src python tests/golden_transcripts.py --record
"""

from __future__ import annotations

import contextlib
import io
import ipaddress
import json
import os
import pathlib
import random
import sys
import tempfile
from unittest import mock

from iotram.cli import main
from iotram.net import encode_request
from iotram.net.service import handle_datagram, make_ledger
from iotram.power import IoStandard, WlanChannel, builtin_dataset
from iotram.power.dataset import CALIBRATION_HEADER
from iotram.ram import IotRam, RamConfig

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden") / "transcripts.json"

WIRE_SEED = 20151121
WIRE_COUNT = 520
WIRE_DEPTH = 64
WIRE_KEY = int(ipaddress.IPv6Address("2001:db8::1"))


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one `iotram` command line."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage line to the terminal width; fix it.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_case(argv: list[str], tmp: pathlib.Path) -> dict:
    """The transcript of one command line, run on the files written to `tmp`."""
    code, out, err = run_cli([arg.replace("{tmp}", str(tmp)) for arg in argv])
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.replace(str(tmp), "{tmp}"),
        "stderr": err.replace(str(tmp), "{tmp}"),
    }


def write_files(files: dict[str, str], tmp: pathlib.Path) -> None:
    for name, text in files.items():
        (tmp / name).write_text(text, encoding="utf-8")


def replay_wire(requests: list[bytes]) -> tuple[list[str], str]:
    """Each request with the response `handle_datagram` gives it, as stored
    ("<request hex> <response hex>"), in one session; then its ledger line."""
    ram = IotRam(RamConfig(depth_words=WIRE_DEPTH, device_ipv6=WIRE_KEY))
    ledger = make_ledger(IoStandard.LVCMOS12, WlanChannel.GHZ_2_4, builtin_dataset())
    exchanges = [f"{req.hex()} {handle_datagram(req, ram, ledger).hex()}" for req in requests]
    return exchanges, ledger.render()


def replay(golden: dict) -> list[str]:
    """What differs from the stored transcripts: the argv of each command
    line whose transcript differs, then "wire" if the datagrams' do."""
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        write_files(golden["files"], pathlib.Path(tmp))
        for case in golden["cli"]:
            if run_case(case["argv"], pathlib.Path(tmp)) != case:
                differ.append(" ".join(case["argv"]))
    wire = golden["wire"]
    requests = [bytes.fromhex(exchange.split(" ")[0]) for exchange in wire["exchanges"]]
    if replay_wire(requests) != (wire["exchanges"], wire["ledger"]):
        differ.append("wire")
    return differ


# ---------------------------------------------------------------- recording

_CELL_12_24 = "LVCMOS12,2.4,0.161,0.091,3.062,0.160,1.374,4.849"

LONG_TRACE_SEED = 20151122
LONG_TRACE_OPS = 2500
LONG_TRACE_DEPTH = 300


def _long_trace(rng: random.Random) -> str:
    """A trace of LONG_TRACE_OPS operations in every spelling the parser
    accepts: either case of op, hex data with or without `0x`, in either
    case, with leading zeros or underscores, decimal addresses with leading
    zeros, a sign or underscores, addresses past LONG_TRACE_DEPTH, inline
    and whole-line comments, blank and whitespace-only lines, tabs, and
    `\\n`, `\\r\\n` and form-feed line ends."""

    def addr() -> str:
        roll = rng.random()
        if roll < 0.08:
            return str(rng.choice((LONG_TRACE_DEPTH, LONG_TRACE_DEPTH + rng.randrange(5000),
                                   10**12 + rng.randrange(10))))
        value = rng.randrange(48) if roll < 0.6 else rng.randrange(LONG_TRACE_DEPTH)
        return rng.choice((str(value),) * 6 + (f"0{value}", f"+{value}", "_".join(str(value))))

    def data() -> str:
        value = rng.getrandbits(rng.choice((32, 32, 32, 16, 4)))
        return rng.choice((
            f"{value:08X}", f"{value:08X}", f"{value:x}", f"0x{value:X}", f"0X{value:x}",
            f"{value:X}", f"{value:010x}", f"{value:_x}", f"+{value:x}",
        ))

    lines, ops = ["# long trace: every accepted spelling"], 0
    while ops < LONG_TRACE_OPS:
        roll = rng.random()
        if roll < 0.02:
            lines.append(rng.choice(("", "   ", "\t")))
            continue
        if roll < 0.03:
            lines.append(f"# block {ops}")
            continue
        sep = rng.choice((" ",) * 8 + ("  ", "\t"))
        if rng.random() < 0.55:
            line = f"{rng.choice('WWWw')}{sep}{addr()}{sep}{data()}"
        else:
            line = f"{rng.choice('RRRr')}{sep}{addr()}"
        if rng.random() < 0.03:
            line = rng.choice(("  ", "\t")) + line + rng.choice(("", "  "))
        if rng.random() < 0.04:
            line += rng.choice(("  # inline", "# tight", "\t#tab"))
        lines.append(line)
        ops += 1
    ends = [rng.choice(("\n",) * 12 + ("\r\n",) * 3 + ("\f",)) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


FILES = {
    "one.csv": f"{CALIBRATION_HEADER}\n{_CELL_12_24}\n",
    "two.csv": (
        f"# LVCMOS12 at two channels only\n{CALIBRATION_HEADER}\n"
        "LVCMOS12,0.9,0.061,0.033,1.148,0.060,1.321,2.624\n"
        "LVCMOS12,5.9,0.403,0.226,7.528,0.393,1.515,10.067\n"
    ),
    "broken.csv": f"{CALIBRATION_HEADER}\nLVCMOS12,2.4,0.161,0.091,3.062,0.160,1.374,9.999\n",
    "nonmono.csv": (
        f"{CALIBRATION_HEADER}\n"
        "LVCMOS12,0.9,0.061,0.033,1.148,0.200,1.321,2.763\n"
        f"{_CELL_12_24}\n"
        "LVCMOS15,0.9,0.061,0.033,1.148,0.100,1.322,2.664\n"
    ),
    "zerobase.csv": (
        f"{CALIBRATION_HEADER}\n{_CELL_12_24}\n"
        "LVCMOS25,2.4,0.161,0.091,3.062,0.000,1.383,4.697\n"
    ),
    "badheader.csv": "standard,channel,clock\n",
    "badfield.csv": f"{CALIBRATION_HEADER}\nLVCMOS12,2.4,x,0.091,3.062,0.160,1.374,4.849\n",
    "negative.csv": f"{CALIBRATION_HEADER}\nLVCMOS12,2.4,-0.161,0.091,3.062,0.160,1.374,4.849\n",
    "nan.csv": f"{CALIBRATION_HEADER}\nLVCMOS12,2.4,0.161,0.091,3.062,nan,1.374,4.849\n",
    # Comment and blank lines around the header: the short row is line 5.
    "commented.csv": (
        f"# a grid with notes\n\n{CALIBRATION_HEADER}\n# LVCMOS12 only\n"
        "LVCMOS12,2.4,0.161,0.091,3.062,0.160,1.374\n"
    ),
    # A partial grid, rows out of order, with gaps in both axes: two row-sum
    # errors, frequency breaks on signal (falling) and clock (equal), and
    # supply-voltage breaks across a missing standard.
    "tangled.csv": (
        f"{CALIBRATION_HEADER}\n"
        "LVCMOS25,5.0,0.341,0.192,6.380,0.952,1.496,9.363\n"
        "LVCMOS12,0.9,0.061,0.033,1.148,0.060,1.321,2.624\n"
        "LVCMOS12,3.6,0.246,0.138,4.593,0.240,1.419,7.000\n"
        "LVCMOS12,5.0,0.246,0.120,6.380,0.333,1.476,8.555\n"
        "LVCMOS18,0.9,0.061,0.033,1.148,0.050,1.323,2.615\n"
        "LVCMOS18,5.0,0.341,0.192,6.380,0.608,1.485,9.500\n"
    ),
    "zeroio.csv": (
        f"{CALIBRATION_HEADER}\n"
        "LVCMOS12,0.9,0.061,0.033,1.148,0.000,1.321,2.563\n"
        "LVCMOS12,2.4,0.161,0.091,3.062,0.000,1.374,4.689\n"
    ),
    # The benchmark's partial grid in small: LVCMOS25 at one channel only, so
    # its leakage fit is degenerate while every other series fits.
    "single.csv": (
        f"{CALIBRATION_HEADER}\n"
        "LVCMOS12,0.9,0.061,0.033,1.148,0.060,1.321,2.624\n"
        "LVCMOS12,5.9,0.403,0.226,7.528,0.393,1.515,10.067\n"
        "LVCMOS25,2.4,0.161,0.091,3.062,0.457,1.383,5.155\n"
    ),
    # Watts that overflow two fits: LVCMOS12's leakage (affine) and
    # LVCMOS25's io (through-origin). The io fits are made before the leakage
    # fits, so the io overflow is the one reported.
    "overflow.csv": (
        f"{CALIBRATION_HEADER}\n"
        "LVCMOS12,0.9,0.061,0.033,1.148,0.060,1.321,2.624\n"
        "LVCMOS12,2.4,0.161,0.091,3.062,0.160,1.7e308,4.849\n"
        "LVCMOS25,0.9,0.061,0.033,1.148,0.171,1.325,2.739\n"
        "LVCMOS25,5.9,0.403,0.226,7.528,1.7e308,1.539,10.822\n"
    ),
    "ops.trace": "# demo\nW 0 DEADBEEF\nR 0\nR 999\n  w 1 ff   # inline\n\nr 1\nR 2\n",
    "wide.trace": "".join(
        f"W {a} {a * 0x01010101:08X}\nR {a}\n" for a in range(12, 20)
    ) + "R 15\nW 16 0\n",
    "energy.trace": "".join(f"W {i % 256} 1\n" for i in range(10)),
    "bad.trace": "R 0\nW 0\n",
    "long.trace": _long_trace(random.Random(LONG_TRACE_SEED)),
}

_T = "{tmp}/"
CLI_CASES = [
    ["table"],
    ["table", "--format", "csv"],
    ["table", "--format", "json"],
    ["table", "--standard", "LVCMOS25", "--channel", "802.11p"],
    ["table", "--standard", "LVCMOS15", "--format", "csv"],
    ["table", "--channel", "3.6", "--format", "json"],
    ["table", "--input", _T + "two.csv", "--standard", "LVCMOS12", "--channel", "0.9", "--format", "csv"],
    ["table", "--input", _T + "two.csv", "--standard", "LVCMOS12", "--format", "csv"],
    ["table", "--input", _T + "one.csv", "--standard", "LVCMOS12", "--channel", "2.4", "--format", "json"],
    ["table", "--input", _T + "one.csv", "--standard", "LVCMOS12", "--channel", "2.4"],
    ["table", "--channel", "7.0"],
    ["table", "--standard", "LVCMOS33"],
    ["table", "--input", _T + "missing.csv"],
    ["table", "--input", _T + "badheader.csv"],
    ["table", "--input", _T + "badfield.csv", "--format", "csv"],
    ["table", "--input", _T + "negative.csv"],
    ["table", "--input", _T + "nan.csv"],
    ["compare", "--rail", "io", "--from", "LVCMOS25", "--to", "LVCMOS12"],
    ["compare", "--rail", "io", "--from", "LVCMOS25", "--to", "LVCMOS12", "--format", "csv"],
    ["compare", "--rail", "io", "--from", "LVCMOS25", "--to", "LVCMOS12", "--format", "json"],
    ["compare", "--rail", "total", "--from", "LVCMOS25", "--to", "LVCMOS12", "--channel", "3.6", "--format", "csv"],
    ["compare", "--rail", "leakage", "--from", "LVCMOS25", "--to", "LVCMOS12", "--format", "json"],
    ["compare", "--rail", "io", "--from", "LVCMOS12", "--to", "LVCMOS25"],
    ["compare", "--rail", "io", "--from", "LVCMOS25", "--to", "LVCMOS12", "--channel", "2.4", "--format", "json"],
    ["compare", "--rail", "clock", "--from", "LVCMOS18", "--to", "LVCMOS15", "--channel", "802.11ah"],
    ["compare", "--rail", "leakage", "--from", "LVCMOS25", "--to", "LVCMOS12",
     "--input", _T + "zerobase.csv", "--channel", "2.4", "--format", "csv"],
    ["compare", "--rail", "bogus", "--from", "LVCMOS25", "--to", "LVCMOS12"],
    ["compare", "--rail", "io", "--from", "LVCMOS25", "--to", "nope"],
    ["compare", "--rail", "io", "--from", "all", "--to", "LVCMOS12"],
    ["compare", "--rail", "io", "--from", "LVCMOS25", "--to", "LVCMOS12", "--input", _T + "two.csv"],
    ["compare", "--rail", "io", "--from", "LVCMOS25", "--to", "LVCMOS12",
     "--input", _T + "zerobase.csv", "--channel", "2.4"],
    ["fit"],
    ["fit", "--format", "json"],
    ["fit", "--input", _T + "two.csv"],
    ["fit", "--input", _T + "two.csv", "--format", "json"],
    ["fit", "--input", _T + "one.csv"],
    ["fit", "--input", _T + "missing.csv"],
    ["fit", "--input", _T + "zeroio.csv"],
    ["fit", "--input", _T + "single.csv"],
    ["fit", "--input", _T + "single.csv", "--format", "json"],
    ["fit", "--input", _T + "overflow.csv"],
    ["fit", "--input", _T + "overflow.csv", "--format", "json"],
    ["predict", "--standard", "LVCMOS12", "--freq-ghz", "2.4"],
    ["predict", "--standard", "LVCMOS25", "--freq-ghz", "4.2", "--format", "json"],
    ["predict", "--standard", "lvcmos18", "--freq-ghz", "1e-06"],
    ["predict", "--standard", "LVCMOS12", "--freq-ghz", "3.0", "--input", _T + "two.csv", "--format", "json"],
    ["predict", "--standard", "all", "--freq-ghz", "2.4"],
    ["predict", "--standard", "LVCMOS12", "--freq-ghz", "2.4", "--input", _T + "one.csv"],
    ["predict", "--standard", "LVCMOS15", "--freq-ghz", "3.0", "--input", _T + "two.csv"],
    ["predict", "--standard", "LVCMOS25", "--freq-ghz", "1.7e308"],
    ["predict", "--standard", "LVCMOS12", "--freq-ghz", "3.0", "--input", _T + "single.csv", "--format", "json"],
    ["predict", "--standard", "LVCMOS12", "--freq-ghz", "3.0", "--input", _T + "overflow.csv", "--format", "json"],
    ["validate"],
    ["validate", "--input", _T + "one.csv"],
    ["validate", "--input", _T + "broken.csv"],
    ["validate", "--input", _T + "nonmono.csv"],
    ["validate", "--input", _T + "missing.csv"],
    ["validate", "--input", _T + "tangled.csv"],
    ["validate", "--input", _T + "commented.csv"],
    ["ram-run", "--trace", _T + "ops.trace"],
    ["ram-run", "--trace", _T + "ops.trace", "--key", "2001:db8::2"],
    ["ram-run", "--trace", _T + "wide.trace", "--depth", "16"],
    ["ram-run", "--trace", _T + "energy.trace", "--standard", "LVCMOS12", "--channel", "2.4"],
    ["ram-run", "--trace", _T + "ops.trace", "--standard", "lvcmos25", "--channel", "802.11p"],
    ["ram-run", "--trace", _T + "ops.trace", "--standard", "LVCMOS12", "--channel", "2.4",
     "--input", _T + "two.csv"],
    ["ram-run", "--trace", _T + "ops.trace", "--device-key", "ff", "--key", "FF"],
    ["ram-run", "--trace", _T + "ops.trace", "--key", "not-a-key"],
    ["ram-run", "--trace", _T + "ops.trace", "--key", "1" + "0" * 32],
    ["ram-run", "--trace", _T + "ops.trace", "--standard", "LVCMOS12"],
    ["ram-run", "--trace", _T + "missing.trace"],
    ["ram-run", "--trace", _T + "bad.trace"],
    ["ram-run", "--trace", _T + "ops.trace", "--depth", "0"],
    ["ram-run", "--trace", _T + "ops.trace", "--standard", "LVCMOS25", "--channel", "7"],
    ["ram-run", "--trace", _T + "ops.trace", "--standard", "all", "--channel", "2.4"],
    ["ram-run", "--trace", _T + "ops.trace", "--standard", "LVCMOS12", "--channel", "2.4",
     "--input", _T + "missing.csv"],
    ["ram-run", "--trace", _T + "ops.trace", "--standard", "LVCMOS25", "--channel", "2.4",
     "--input", _T + "one.csv"],
    ["ram-run", "--trace", _T + "ops.trace", "--standard", "LVCMOS15", "--channel", "2.4",
     "--input", _T + "two.csv"],
    # Two whole pieces of the trace plus a remainder.
    ["ram-run", "--trace", _T + "long.trace", "--depth", str(LONG_TRACE_DEPTH),
     "--standard", "LVCMOS18", "--channel", "5.0"],
    ["ram-run", "--trace", _T + "long.trace", "--depth", str(LONG_TRACE_DEPTH), "--key", "2001:db8::2"],
    # serve cases that fail before the socket is bound.
    ["serve", "--standard", "LVCMOS15", "--input", _T + "two.csv"],
    ["serve", "--channel", "5.0", "--input", _T + "one.csv"],
    ["serve", "--bind", "nonsense"],
    [],
    ["frobnicate"],
    ["predict", "--standard", "LVCMOS12"],
    ["table", "--format", "xml"],
    # Help text: `serve --help` names the bind variable and default endpoint.
    ["--help"],
    ["serve", "--help"],
]


def _wire_requests(rng: random.Random) -> list[bytes]:
    """Requests covering every status, STATUS, and each kind of bad datagram."""

    def valid(opcode: int, key: int) -> bytes:
        addr = rng.randrange(WIRE_DEPTH + 8) if rng.random() < 0.9 else 0xFFFFFFFF
        return encode_request(opcode, key, addr, rng.getrandbits(32), rng.getrandbits(16))

    kinds = (
        ["read"] * 6 + ["write"] * 6 + ["wrong_key"] * 3 + ["status"] * 2
        + ["opcode", "short", "long", "magic", "version", "noise"]
    )
    out = []
    for _ in range(WIRE_COUNT):
        kind = rng.choice(kinds)
        if kind in ("read", "write"):
            out.append(valid(0 if kind == "read" else 1, WIRE_KEY))
        elif kind == "wrong_key":
            out.append(valid(rng.randrange(2), rng.choice((WIRE_KEY ^ 1, 0, rng.getrandbits(128)))))
        elif kind == "status":
            out.append(valid(2, rng.choice((WIRE_KEY, 0))))
        elif kind == "opcode":
            frame = valid(0, WIRE_KEY)
            out.append(frame[:3] + bytes([rng.randrange(3, 256)]) + frame[4:])
        elif kind == "short":
            out.append(valid(rng.randrange(3), WIRE_KEY)[:29])
        elif kind == "long":
            out.append(valid(rng.randrange(3), WIRE_KEY) + bytes([rng.randrange(256)]))
        elif kind == "magic":
            out.append(b"RI" + valid(rng.randrange(3), WIRE_KEY)[2:])
        elif kind == "version":
            frame = valid(rng.randrange(3), WIRE_KEY)
            out.append(frame[:2] + bytes([rng.choice((0, 2, 255))]) + frame[3:])
        else:
            out.append(rng.randbytes(rng.randrange(41)))
    return out


def record(tmp: pathlib.Path) -> dict:
    write_files(FILES, tmp)
    cli = [run_case(argv, tmp) for argv in CLI_CASES]
    exchanges, ledger = replay_wire(_wire_requests(random.Random(WIRE_SEED)))
    return {
        "files": FILES,
        "cli": cli,
        "wire": {"exchanges": exchanges, "ledger": ledger},
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        with tempfile.TemporaryDirectory() as tmp:
            doc = record(pathlib.Path(tmp))
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN_PATH}: {len(doc['cli'])} command lines, "
              f"{len(doc['wire']['exchanges'])} datagrams")
    elif sys.argv[1:]:
        sys.exit("usage: python tests/golden_transcripts.py [--record]")
    else:
        golden = load()
        differ = replay(golden)
        for what in differ:
            print(f"differs: {what}")
        print(f"Python {sys.version.split()[0]}: {len(differ)} of "
              f"{len(golden['cli']) + 1} transcripts differ")
        sys.exit(1 if differ else 0)
