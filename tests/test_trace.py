"""Trace parsing and execution, with properties that check both, and the
text `ram-run` prints for them, against a dict model over generated trace
texts."""

import contextlib
import io
import ipaddress
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
