"""Trace parsing and execution, with properties that check both, and the
text `ram-run` prints for them, against a dict model over generated trace
texts."""

import contextlib
import io
import ipaddress
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotram import cli
from iotram.cli import EXIT_OK, EXIT_VALIDATION, main
from iotram.ram import EnergyLedger, IotRam, RamConfig, Status, TraceError, parse_trace, run_trace
from iotram.ram.trace import TraceOp

from conftest import render_outcome

KEY = int(ipaddress.IPv6Address("2001:db8::1"))


def test_parse_basic():
    ops = parse_trace("W 0 DEADBEEF\nR 0\n")
    assert len(ops) == 2
    assert ops[0].is_write and ops[0].addr == 0 and ops[0].data == 0xDEADBEEF
    assert not ops[1].is_write and ops[1].addr == 0 and ops[1].data is None


def test_parse_comments_blanks_case():
    text = "# header\n\n  w 1 ff   # inline\n\nr 1\n"
    ops = parse_trace(text)
    assert [(op.lineno, op.is_write) for op in ops] == [(3, True), (5, False)]
    assert ops[0].data == 0xFF


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("W 5", "write needs"),
        ("W 5 11 22", "write needs"),
        ("R", "read needs"),
        ("R 1 2", "read needs"),
        ("X 1", "unknown op"),
        ("W zz FF", "decimal address"),
        ("W 0x10 FF", "decimal address"),
        ("W -3 FF", "negative address"),
        ("W 1 GG", "bad hex"),
        ("W 1 1FFFFFFFF", "exceeds 32 bits"),
        ("R banana", "decimal address"),
    ],
)
def test_parse_rejects(line, fragment):
    with pytest.raises(TraceError) as err:
        parse_trace("# pad\n" + line + "\n")
    assert err.value.lineno == 2
    assert fragment in str(err.value)
    assert "line 2" in str(err.value)


#: Lines parse_trace rejects, each written the way the parser sees it, with
#: the message that follows "line N: ". A message quotes the line without its
#: comment and surrounding blanks.
_BAD_MESSAGES = {
    "W 5": "write needs '<addr> <hex32>', got 'W 5'",
    "W 5 11 22": "write needs '<addr> <hex32>', got 'W 5 11 22'",
    "R": "read needs '<addr>', got 'R'",
    "R 1 2": "read needs '<addr>', got 'R 1 2'",
    "X 1": "unknown op 'X' (expected W or R)",
    "W zz FF": "bad decimal address 'zz'",
    "W 0x10 FF": "bad decimal address '0x10'",
    "W -3 FF": "negative address -3",
    "W 1 GG": "bad hex data 'GG'",
    "W 1 1FFFFFFFF": "data '1FFFFFFFF' exceeds 32 bits",
    "W 1 0x": "bad hex data '0x'",
    "R banana": "bad decimal address 'banana'",
    "R -1": "negative address -1",
    "R 1.5": "bad decimal address '1.5'",
    "WR 1": "unknown op 'WR' (expected W or R)",
}


@pytest.mark.parametrize("line", list(_BAD_MESSAGES))
def test_a_rejected_line_is_quoted_without_its_indent_and_note(line):
    with pytest.raises(TraceError) as err:
        parse_trace("# pad\n" + " \t" + line + "  # note\n")
    assert err.value.lineno == 2
    assert str(err.value) == "line 2: " + _BAD_MESSAGES[line]


def test_run_trace_counts():
    ram = IotRam(RamConfig(device_ipv6=KEY))
    ops = parse_trace("W 0 1\nW 1 2\nR 0\nR 1\nR 300\n")
    ledger = EnergyLedger(2e-9)
    results = run_trace(ram, ops, KEY, ledger)
    assert [render_outcome(*result) for result in results] == [
        "WriteOk",
        "WriteOk",
        "ReadOk 00000001",
        "ReadOk 00000002",
        "AddrRange",
    ]
    assert ledger.ops_by_status == {Status.OK: 4, Status.ADDR_RANGE: 1}
    assert ledger.ops_total == 5
    assert ledger.cycles == ram.cycle_count == 5
    assert ledger.energy_j == 5 * 2e-9


def test_run_trace_wrong_key():
    ram = IotRam(RamConfig(device_ipv6=KEY))
    ledger = EnergyLedger(0.0)
    results = run_trace(ram, parse_trace("W 0 1\nR 0\n"), KEY + 1, ledger)
    assert [status for _, status, _ in results] == [Status.AUTH_FAIL, Status.AUTH_FAIL]
    assert ledger.ops_by_status == {Status.AUTH_FAIL: 2}
    assert (ledger.ops_total, ledger.cycles) == (2, 2)
    assert ram.read(KEY, 0)[1] == 0


def test_run_trace_adds_to_a_shared_ledger():
    ram = IotRam(RamConfig(device_ipv6=KEY))
    ledger = EnergyLedger(3e-9)
    run_trace(ram, parse_trace("W 0 1\nR 0\n"), KEY, ledger)
    run_trace(ram, parse_trace("R 0\nR 300\n"), KEY + 1, ledger)
    assert ledger.ops_by_status == {Status.OK: 2, Status.AUTH_FAIL: 2}
    assert (ledger.ops_total, ledger.cycles) == (4, ram.cycle_count)
    assert ledger.energy_j == 4 * 3e-9


def test_run_trace_of_no_ops_records_nothing():
    ram = IotRam(RamConfig(device_ipv6=KEY))
    ledger = EnergyLedger(1e-9)
    assert run_trace(ram, parse_trace("# nothing to do\n\n"), KEY, ledger) == []
    assert (ledger.ops_by_status, ledger.ops_total, ledger.cycles) == ({}, 0, 0)
    assert ledger.energy_j == 0.0


# ------------------------------------------------- parse and run, as a model

DEPTH = 64
WRONG = KEY ^ 1

_SEP = st.sampled_from([" ", "  ", "\t"])
# Mostly a few hot words, so that reads see earlier writes; 10**20 makes a
# write's text, and 10**23 a read's, wider than the 24 columns ram-run pads to.
_ADDR = st.one_of(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, DEPTH + 8),
    st.sampled_from([10**12, 2**32 - 1, 10**20, 10**23]),
)
_NOTE = st.sampled_from(["", "", "", "  # note", "#tight", "\t# tab"])
_IGNORED = st.sampled_from(["", "   ", "\t", "# comment", "  # indented comment"])
#: Lines parse_trace rejects.
_BAD = st.sampled_from(list(_BAD_MESSAGES))


@st.composite
def _addr_text(draw) -> tuple[int, str]:
    addr = draw(_ADDR)
    return addr, draw(st.sampled_from([str(addr), f"0{addr}", f"+{addr}"]))


@st.composite
def _data_text(draw) -> tuple[int, str]:
    data = draw(st.integers(0, 2**32 - 1))
    spelling = draw(st.sampled_from(["{:08X}", "{:x}", "0x{:X}", "0X{:x}", "{:010x}"]))
    return data, spelling.format(data)


@st.composite
def trace_lines(draw) -> tuple[str, tuple | None]:
    """One trace line and what it means: ("W", addr, data), ("R", addr),
    ("bad",), or None for a line the parser skips."""
    roll = draw(st.integers(0, 99))
    if roll < 10:
        return draw(_IGNORED), None
    if roll < 13:
        return draw(_BAD) + draw(_NOTE), ("bad",)
    sep = draw(_SEP)
    addr, addr_text = draw(_addr_text())
    if roll < 60:
        data, data_text = draw(_data_text())
        line = f"{draw(st.sampled_from('Ww'))}{sep}{addr_text}{sep}{data_text}"
        meaning = ("W", addr, data)
    else:
        line, meaning = f"{draw(st.sampled_from('Rr'))}{sep}{addr_text}", ("R", addr)
    indent = draw(st.sampled_from(["", "", " ", "\t"]))
    return indent + line + draw(_NOTE), meaning


@st.composite
def trace_texts(draw) -> tuple[str, list]:
    lines = draw(st.lists(trace_lines(), max_size=40))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for (line, _), end in zip(lines, ends))
    return text, [meaning for _, meaning in lines]


def _model(meanings: list, key_ok: bool):
    """What parse_trace and run_trace must give, from a plain dict: the line
    number of the first bad line, or the per-op results with the count of
    each status and the last word read."""
    words: dict[int, int] = {}
    results, last_dout = [], 0
    tally: dict[Status, int] = {}
    for lineno, meaning in enumerate(meanings, start=1):
        if meaning is None:
            continue
        if meaning[0] == "bad":
            return lineno, None
        is_write, addr = meaning[0] == "W", meaning[1]
        data = meaning[2] if is_write else None
        if not key_ok:
            status, out = Status.AUTH_FAIL, 0
        elif addr >= DEPTH:
            status, out = Status.ADDR_RANGE, 0
        elif is_write:
            words[addr] = data
            status, out = Status.OK, 0
        else:
            status, out = Status.OK, words.get(addr, 0)
            last_dout = out
        tally[status] = tally.get(status, 0) + 1
        results.append(((lineno, is_write, addr, data), status, out))
    return None, (results, tally, last_dout)


@settings(max_examples=300)
@given(trace=trace_texts(), key_ok=st.sampled_from([True, True, True, False]))
def test_parse_and_run_match_a_dict_model(trace, key_ok):
    text, meanings = trace
    bad_lineno, want = _model(meanings, key_ok)
    ram = IotRam(RamConfig(depth_words=DEPTH, device_ipv6=KEY))
    try:
        ops = parse_trace(text)
    except TraceError as err:
        assert err.lineno == bad_lineno, (err, text)
        return
    assert bad_lineno is None, text
    ledger = EnergyLedger(1e-9)
    results = run_trace(ram, ops, KEY if key_ok else WRONG, ledger)
    want_results, tally, last_dout = want
    assert results == want_results
    assert all(type(op) is TraceOp and status is want_status
               for (op, status, _), (_, want_status, _) in zip(results, want_results))
    assert ledger.ops_by_status == tally
    assert ledger.ops_total == ledger.cycles == len(want_results)
    assert ram.cycle_count == len(want_results)
    assert ram.last_dout == last_dout


# ------------------------------------------------------- ram-run, as printed


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ram-run") / "ops.trace"


def _printed(results: list, tally: dict) -> str:
    """What `ram-run` prints for the model's results, unpriced: each line
    written as an f-string with the outcome word from `render_outcome`, then
    the tally line."""
    lines, writes = [], 0
    for fields, status, data in results:
        op = TraceOp(*fields)
        if op.is_write:
            mnemonic = f"W {op.addr} {op.data:08X}"
            writes += status is Status.OK
        else:
            mnemonic = f"R {op.addr}"
        lines.append(f"{op.lineno:>5}  {mnemonic:<24} -> {render_outcome(op, status, data)}\n")
    reads = tally.get(Status.OK, 0) - writes
    lines.append(
        f"cycles={len(results)} writes={writes} reads={reads} "
        f"auth_fails={tally.get(Status.AUTH_FAIL, 0)} "
        f"range_errors={tally.get(Status.ADDR_RANGE, 0)}\n"
    )
    return "".join(lines)


def _ram_run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_ram_run_prints_the_model(trace_path, trace, key_ok):
    text, meanings = trace
    bad_lineno, want = _model(meanings, key_ok)
    trace_path.write_bytes(text.encode("utf-8"))
    argv = ["ram-run", "--trace", str(trace_path), "--depth", str(DEPTH)]
    if not key_ok:
        argv += ["--key", f"{WRONG:x}"]
    code, out, err = _ram_run(argv)
    if bad_lineno is not None:
        assert (code, out) == (EXIT_VALIDATION, ""), text
        assert err.startswith(f"iotram: malformed trace: line {bad_lineno}: ")
        return
    results, tally, _ = want
    assert (code, err) == (EXIT_OK, "")
    assert out == _printed(results, tally)


@settings(max_examples=150)
@given(trace=trace_texts(), key_ok=st.booleans())
def test_ram_run_prints_the_model_byte_for_byte(trace_path, trace, key_ok):
    _check_ram_run_prints_the_model(trace_path, trace, key_ok)


@settings(max_examples=150)
@given(trace=trace_texts(), key_ok=st.booleans())
def test_ram_run_prints_the_model_byte_for_byte_in_pieces(trace_path, trace, key_ok):
    # Pieces of a line or two, so that most traces span many of them.
    with mock.patch.object(cli, "_PIECE_CHARS", 8):
        _check_ram_run_prints_the_model(trace_path, trace, key_ok)


@pytest.mark.parametrize("piece_chars", [cli._PIECE_CHARS, 8])
@pytest.mark.parametrize("depth", ["64", "0"])
def test_a_malformed_line_in_a_later_piece_prints_nothing(trace_path, piece_chars, depth):
    # The line is also reported before a bad depth, as when the whole trace
    # was parsed before the RAM was built.
    trace_path.write_text("W 0 1\nR 0\n" * 50 + "R 0\nW 0\n", encoding="utf-8")
    with mock.patch.object(cli, "_PIECE_CHARS", piece_chars):
        code, out, err = _ram_run(["ram-run", "--trace", str(trace_path), "--depth", depth])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == "iotram: malformed trace: line 102: write needs '<addr> <hex32>', got 'W 0'\n"


# ------------------------------------------------- a trace cut into pieces

#: Line ends that `str.splitlines` breaks at. A lone `\r` before the `\n` of
#: an empty next line makes one `\r\n` break, which a cut must not split.
_BREAKS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"])


@st.composite
def mixed_break_texts(draw) -> str:
    lines = draw(st.lists(trace_lines(), max_size=30))
    ends = draw(st.lists(_BREAKS, min_size=len(lines), max_size=len(lines)))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for (line, _), end in zip(lines, ends))


def _parsed(text: str, start: int = 1):
    """The ops of `text`, or the line number and message of its TraceError."""
    try:
        return parse_trace(text, start)
    except TraceError as err:
        return err.lineno, str(err)


@settings(max_examples=300)
@given(text=mixed_break_texts(), data=st.data())
def test_a_trace_cut_after_a_line_feed_parses_as_its_two_halves(text, data):
    cut = data.draw(st.sampled_from([0] + [i + 1 for i, c in enumerate(text) if c == "\n"]))
    a, b = text[:cut], text[cut:]
    whole, first = _parsed(text), _parsed(a)
    if type(first) is not list:
        assert first == whole
        return
    second = _parsed(b, 1 + len(a.splitlines()))
    assert (first + second if type(second) is list else second) == whole


@settings(max_examples=150)
@given(text=mixed_break_texts(), piece_chars=st.integers(1, 40), key_ok=st.booleans())
def test_ram_run_prints_the_same_in_pieces_of_any_size(trace_path, text, piece_chars, key_ok):
    trace_path.write_bytes(text.encode("utf-8"))
    argv = ["ram-run", "--trace", str(trace_path), "--depth", str(DEPTH)]
    if not key_ok:
        argv += ["--key", f"{WRONG:x}"]
    whole = _ram_run(argv)
    with mock.patch.object(cli, "_PIECE_CHARS", piece_chars):
        assert _ram_run(argv) == whole


@settings(max_examples=150)
@given(trace=trace_texts(), key_ok=st.booleans())
def test_ram_run_prints_the_model_byte_for_byte_when_its_output_spills(trace_path, trace, key_ok):
    # With no output held in memory, every piece's lines go through the
    # temporary file.
    with mock.patch.object(cli, "_PIECE_CHARS", 8), mock.patch.object(cli, "_HELD_OUTPUT_CHARS", 0):
        _check_ram_run_prints_the_model(trace_path, trace, key_ok)


@settings(max_examples=150)
@given(text=mixed_break_texts(), piece_chars=st.integers(1, 40), key_ok=st.booleans())
def test_ram_run_prints_the_same_when_its_output_spills(trace_path, text, piece_chars, key_ok):
    trace_path.write_bytes(text.encode("utf-8"))
    argv = ["ram-run", "--trace", str(trace_path), "--depth", str(DEPTH)]
    if not key_ok:
        argv += ["--key", f"{WRONG:x}"]
    whole = _ram_run(argv)
    with mock.patch.object(cli, "_PIECE_CHARS", piece_chars), \
            mock.patch.object(cli, "_HELD_OUTPUT_CHARS", 0):
        assert _ram_run(argv) == whole


# ------------------------------------------------- a trace read in pieces

def _not_utf8(data: bytes) -> str:
    """The message of one decode of all of `data`, which must fail."""
    with pytest.raises(UnicodeDecodeError) as err:
        data.decode("utf-8")
    return str(err.value)


#: A byte that starts no character, a lead byte with a bad continuation, and
#: sequences that the end of the file, or a line feed, cuts short.
@pytest.mark.parametrize("bad", [b"\xff", b"\xe0\x80", b"\xe2\x82", b"\xf0\x9f\x98"])
@pytest.mark.parametrize("tail", [b"", b"\nR 0\n"])
@pytest.mark.parametrize("piece_chars", [cli._PIECE_CHARS, 7])
def test_a_byte_that_is_not_utf8_is_placed_from_the_start_of_the_file(
    trace_path, bad, tail, piece_chars
):
    # Past the first 64 KiB, after line ends of two bytes and characters of
    # two, so that neither a count of characters nor one from the start of
    # a read would give the file's offset.
    good = "W 1 2\r\nR 1  # é\n".encode("utf-8") * 5000
    data = good + bad + tail
    trace_path.write_bytes(data)
    with mock.patch.object(cli, "_PIECE_CHARS", piece_chars):
        code, out, err = _ram_run(["ram-run", "--trace", str(trace_path)])
    assert (code, out) == (cli.EXIT_IO, "")
    assert err == f"iotram: trace {trace_path} is not UTF-8: {_not_utf8(data)}\n"
    assert f"in position {len(good)}" in err


@pytest.mark.parametrize("first", ["R 0\n", "W 0\n"])
@pytest.mark.parametrize("depth", ["64", "0"])
@pytest.mark.parametrize(
    "piece_chars,repeats", [(8, 50), (cli._PIECE_CHARS, 5000)], ids=["held", "spilled"]
)
def test_a_later_byte_that_is_not_utf8_is_reported_first(trace_path, first, depth, piece_chars, repeats):
    # Before the bad byte the trace has a valid or a malformed first line,
    # then lines whose output is held in memory or spilled to a file; the
    # byte comes before the malformed line and the bad depth.
    trace_path.write_bytes((first + "W 0 1\nR 0\n" * repeats).encode("utf-8") + b"\xff\n")
    with mock.patch.object(cli, "_PIECE_CHARS", piece_chars):
        code, out, err = _ram_run(["ram-run", "--trace", str(trace_path), "--depth", depth])
    assert (code, out) == (cli.EXIT_IO, "")
    assert err.startswith(f"iotram: trace {trace_path} is not UTF-8: ")
    assert err.count("\n") == 1


def test_a_trace_whose_lines_end_in_cr_alone_is_cut_into_bounded_pieces(trace_path, monkeypatch):
    # A piece is cut after a line feed of the decoded text, in which universal
    # newlines have turned each lone `\r` into one. A cut sought among the
    # bytes, at `b"\n"`, would take such a trace whole as one piece.
    lengths = []

    def parse(text, start=1):
        lengths.append(len(text))
        return parse_trace(text, start)

    monkeypatch.setattr(cli, "_PIECE_CHARS", 64)
    monkeypatch.setattr(cli, "parse_trace", parse)
    trace_path.write_bytes(b"R 1\r" * 2000)
    code, out, err = _ram_run(["ram-run", "--trace", str(trace_path)])
    assert (code, err) == (EXIT_OK, "")
    assert out.count(" -> ReadOk ") == 2000
    assert sum(lengths) == 2000 * len("R 1\n")
    assert max(lengths) <= 64 + len("R 1\n")


#: `python -m iotram.cli` with `src` on the path, for a trace piped in.
_CLI = [sys.executable, "-m", "iotram.cli"]
_SRC_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_a_trace_read_from_a_pipe(trace_path):
    # A pipe cannot seek or tell: a byte that is not UTF-8 is still placed
    # from the start of the input, past the first read, and a clean pipe
    # prints what the same trace prints from a file.
    good = b"W 1 2\r\nR 1\n" * 2000
    argv = [*_CLI, "ram-run", "--trace", "/dev/stdin"]
    data = good + b"\xff\nR 1\n"
    bad = subprocess.run(argv, input=data, capture_output=True, env=_SRC_ENV, timeout=60)
    assert (bad.returncode, bad.stdout) == (cli.EXIT_IO, b"")
    assert bad.stderr.decode() == f"iotram: trace /dev/stdin is not UTF-8: {_not_utf8(data)}\n"
    assert f"position {len(good)}:" in bad.stderr.decode()

    clean = subprocess.run(argv, input=good, capture_output=True, env=_SRC_ENV, timeout=60)
    trace_path.write_bytes(good)
    from_file = subprocess.run([*_CLI, "ram-run", "--trace", str(trace_path)],
                               capture_output=True, env=_SRC_ENV, timeout=60)
    assert (clean.returncode, clean.stderr) == (EXIT_OK, b"")
    assert clean.stdout == from_file.stdout
    assert clean.stdout.count(b"\n") == 4001


def _full_disk(*args, **kwargs):
    """A stand-in for `tempfile.TemporaryFile` whose writes fail for want of
    space."""
    return open("/dev/full", *args, **kwargs)


@pytest.mark.parametrize("errno", ["ENOSPC", "ENOENT"])
def test_a_spill_that_fails_is_an_io_error(trace_path, tmp_path, monkeypatch, errno):
    import tempfile

    if errno == "ENOSPC":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        monkeypatch.setattr(tempfile, "TemporaryFile", _full_disk)
        want = "[Errno 28] "
    else:
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        want = "[Errno 2] "
    trace_path.write_text("W 0 1\nR 0\n" * 5000, encoding="utf-8")
    code, out, err = _ram_run(["ram-run", "--trace", str(trace_path)])
    assert (code, out) == (cli.EXIT_IO, "")
    assert err.startswith(f"iotram: cannot hold ram-run output in a temporary file: {want}")
    assert err.count("\n") == 1


def test_a_short_output_is_held_in_memory(trace_path, monkeypatch):
    import tempfile

    def no_file(*args, **kwargs):
        raise AssertionError("a temporary file was created")

    monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
    trace_path.write_text("W 0 1\nR 0\n" * 500, encoding="utf-8")
    code, out, err = _ram_run(["ram-run", "--trace", str(trace_path)])
    assert (code, err) == (EXIT_OK, "")
    assert len(out) < cli._HELD_OUTPUT_CHARS
    assert out.count("\n") == 1001


def test_a_piece_is_freed_before_the_next_is_parsed(trace_path, monkeypatch):
    # When a piece is parsed, only this test still holds the last piece's
    # ops and results: a reference from the dict, and one from the call.
    last, counts = {}, []

    def parse(piece, start):
        counts.extend(sys.getrefcount(last[name]) for name in sorted(last))
        last["ops"] = parse_trace(piece, start)
        return last["ops"]

    def run(*args):
        last["results"] = run_trace(*args)
        return last["results"]

    monkeypatch.setattr(cli, "parse_trace", parse)
    monkeypatch.setattr(cli, "run_trace", run)
    monkeypatch.setattr(cli, "_PIECE_CHARS", 1)
    trace_path.write_text("W 0 1\nR 0\n" * 5, encoding="utf-8")
    code, out, _ = _ram_run(["ram-run", "--trace", str(trace_path)])
    assert (code, out.count("\n")) == (EXIT_OK, 11)
    assert counts == [2, 2] * 9


def test_a_long_stretch_with_no_line_feed_is_scanned_once(trace_path):
    # 125,000 reads of 64 bytes into one 8 MB piece: a search for its cut
    # that started over at each read took 19 s on a 2-vCPU host, against
    # 0.2 s for one that resumes where the last one stopped.
    trace_path.write_text("R 1" + " " * 8_000_000 + "\nR 2\n", encoding="utf-8")
    with mock.patch.object(cli, "_PIECE_CHARS", 64):
        began = time.perf_counter()
        code, out, _ = _ram_run(["ram-run", "--trace", str(trace_path)])
        elapsed = time.perf_counter() - began
    assert (code, out.count("ReadOk")) == (EXIT_OK, 2)
    assert elapsed < 5, elapsed
