"""Trace parsing and execution."""

import ipaddress

import pytest

from iotram.ram import IotRam, RamConfig, TraceError, parse_trace, render_outcome, run_trace

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


def test_run_trace_counts():
    ram = IotRam(RamConfig(device_ipv6=KEY))
    ops = parse_trace("W 0 1\nW 1 2\nR 0\nR 1\nR 300\n")
    results, summary = run_trace(ram, ops, KEY)
    assert [render_outcome(*result) for result in results] == [
        "WriteOk",
        "WriteOk",
        "ReadOk 00000001",
        "ReadOk 00000002",
        "AddrRange",
    ]
    assert (summary.cycles, summary.writes, summary.reads) == (5, 2, 2)
    assert summary.range_errors == 1
    assert summary.auth_fails == 0
    assert summary.cycles == ram.cycle_count


def test_run_trace_wrong_key():
    ram = IotRam(RamConfig(device_ipv6=KEY))
    results, summary = run_trace(ram, parse_trace("W 0 1\nR 0\n"), KEY + 1)
    assert summary.auth_fails == 2
    assert summary.writes == 0
    assert ram.read(KEY, 0)[1] == 0
