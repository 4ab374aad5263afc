"""Trace-file driver for the RAM model.

Format: one operation per line, `W <addr> <hex32>` or `R <addr>`, addresses in
decimal, data in hex; `#` starts a comment, blank lines are skipped.
"""

from __future__ import annotations

import typing

from .core import WORD_MASK, EnergyLedger, IotRam, Status


# Aliases for the per-op code; see the note in `core`.
_AUTH_FAIL, _ADDR_RANGE = Status.AUTH_FAIL, Status.ADDR_RANGE


class TraceError(ValueError):
    """Malformed trace line; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class TraceOp(typing.NamedTuple):
    lineno: int
    is_write: bool
    addr: int
    data: int | None = None  # writes only


def parse_trace(text: str) -> list[TraceOp]:
    ops = []
    append = ops.append
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
            append(TraceOp(lineno, True, addr, data))
        elif op == "R":
            if len(parts) != 2:
                raise TraceError(lineno, f"read needs '<addr>', got {line!r}")
            append(TraceOp(lineno, False, _parse_addr(lineno, parts[1])))
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
    ram: IotRam, ops: list[TraceOp], key: int, ledger: EnergyLedger
) -> list[tuple[TraceOp, Status, int]]:
    """Execute parsed ops in order, recording each in the ledger as one
    cycle; returns (op, status, data) per op."""
    read, write = ram.read, ram.write
    record = ledger.record
    results = []
    append = results.append
    for op in ops:
        _, is_write, addr, word = op
        status, data = write(key, addr, word) if is_write else read(key, addr)
        append((op, status, data))
        record(status, 1)
    return results


def render_outcome(op: TraceOp, status: Status, data: int) -> str:
    """The word `ram-run` prints for one executed op."""
    if status is _AUTH_FAIL:
        return "AuthFail"
    if status is _ADDR_RANGE:
        return "AddrRange"
    return "WriteOk" if op.is_write else f"ReadOk {data:08X}"
