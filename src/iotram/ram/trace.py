"""Trace-file driver for the RAM model.

Format: one operation per line, `W <addr> <hex32>` or `R <addr>`, addresses in
decimal, data in hex; `#` starts a comment, blank lines are skipped.
"""

from __future__ import annotations

import dataclasses

from .core import WORD_MASK, IotRam, Status


class TraceError(ValueError):
    """Malformed trace line; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclasses.dataclass(frozen=True)
class TraceOp:
    lineno: int
    is_write: bool
    addr: int
    data: int | None = None  # writes only


@dataclasses.dataclass
class TraceSummary:
    cycles: int = 0
    writes: int = 0
    reads: int = 0
    auth_fails: int = 0
    range_errors: int = 0


def parse_trace(text: str) -> list[TraceOp]:
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op = parts[0].upper()
        if op == "W":
            if len(parts) != 3:
                raise TraceError(lineno, f"write needs '<addr> <hex32>', got {line!r}")
            addr = _parse_addr(lineno, parts[1])
            try:
                data = int(parts[2], 16)
            except ValueError:
                raise TraceError(lineno, f"bad hex data {parts[2]!r}") from None
            if not 0 <= data <= WORD_MASK:
                raise TraceError(lineno, f"data {parts[2]!r} exceeds 32 bits")
            ops.append(TraceOp(lineno, True, addr, data))
        elif op == "R":
            if len(parts) != 2:
                raise TraceError(lineno, f"read needs '<addr>', got {line!r}")
            ops.append(TraceOp(lineno, False, _parse_addr(lineno, parts[1])))
        else:
            raise TraceError(lineno, f"unknown op {parts[0]!r} (expected W or R)")
    return ops


def _parse_addr(lineno: int, text: str) -> int:
    try:
        addr = int(text, 10)
    except ValueError:
        raise TraceError(lineno, f"bad decimal address {text!r}") from None
    if addr < 0:
        raise TraceError(lineno, f"negative address {addr}")
    return addr


def run_trace(
    ram: IotRam, ops: list[TraceOp], key: int
) -> tuple[list[tuple[TraceOp, Status, int]], TraceSummary]:
    """Execute parsed ops in order; returns (op, status, data) per op and tallies."""
    results = []
    summary = TraceSummary()
    for op in ops:
        if op.is_write:
            status, data = ram.write(key, op.addr, op.data)
        else:
            status, data = ram.read(key, op.addr)
        results.append((op, status, data))
        summary.cycles += 1
        if status is Status.AUTH_FAIL:
            summary.auth_fails += 1
        elif status is Status.ADDR_RANGE:
            summary.range_errors += 1
        elif op.is_write:
            summary.writes += 1
        else:
            summary.reads += 1
    return results, summary


def render_outcome(op: TraceOp, status: Status, data: int) -> str:
    """The word `ram-run` prints for one executed op."""
    if status is Status.AUTH_FAIL:
        return "AuthFail"
    if status is Status.ADDR_RANGE:
        return "AddrRange"
    return "WriteOk" if op.is_write else f"ReadOk {data:08X}"
