"""Trace-file driver for the RAM model.

Format: one operation per line, `W <addr> <hex32>` or `R <addr>`, addresses in
decimal, data in hex; `#` starts a comment, blank lines are skipped.
"""

from __future__ import annotations

import typing

from .core import WORD_MASK, EnergyLedger, IotRam, Status


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


def parse_trace(text: str, start: int = 1) -> list[TraceOp]:
    """The ops of a trace text, in order; TraceError for the first bad line.
    `start` is the number of the text's first line, so that a piece of a
    file cut right after a line feed keeps the file's line numbers.

    Each line is split once: `str.split()` drops the blanks that `strip()`
    would, and `w` and `r` are the only code points besides `W` and `R`
    that upper-case to them. A line the loop does not take whole goes to
    `_line_error`, which says why; only that path builds message text."""
    ops = []
    append = ops.append
    new = tuple.__new__
    for lineno, line in enumerate(text.splitlines(), start=start):
        if "#" in line:
            line = line[:line.index("#")]
        parts = line.split()
        n = len(parts)
        try:
            if n == 3:
                op, addr, data = parts
                if op == "W" or op == "w":
                    addr = int(addr)
                    data = int(data, 16)
                    if addr >= 0 and 0 <= data <= WORD_MASK:
                        append(new(TraceOp, (lineno, True, addr, data)))
                        continue
            elif n == 2:
                op, addr = parts
                if op == "R" or op == "r":
                    addr = int(addr)
                    if addr >= 0:
                        append(new(TraceOp, (lineno, False, addr, None)))
                        continue
            elif not n:
                continue
        except ValueError:
            pass
        raise _line_error(lineno, line)
    return ops


def _line_error(lineno: int, line: str) -> TraceError:
    """The first rule a line breaks, checked in the order a well-formed line
    is read; `line` is the text before any `#`."""
    line = line.strip()
    parts = line.split()
    op = parts[0].upper()
    if op == "W":
        if len(parts) != 3:
            return TraceError(lineno, f"write needs '<addr> <hex32>', got {line!r}")
    elif op == "R":
        if len(parts) != 2:
            return TraceError(lineno, f"read needs '<addr>', got {line!r}")
    else:
        return TraceError(lineno, f"unknown op {parts[0]!r} (expected W or R)")
    try:
        addr = int(parts[1], 10)
    except ValueError:
        return TraceError(lineno, f"bad decimal address {parts[1]!r}")
    if addr < 0:
        return TraceError(lineno, f"negative address {addr}")
    # Only a write gets here: a read with a good address is well formed.
    try:
        int(parts[2], 16)
    except ValueError:
        return TraceError(lineno, f"bad hex data {parts[2]!r}")
    return TraceError(lineno, f"data {parts[2]!r} exceeds 32 bits")


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

