"""Behavioral model of the IPv6-gated synchronous RAM.

Word-addressable 32-bit memory whose read and write ports only act when the
caller presents the device's configured 128-bit key; a wrong key denies the
access without touching memory. Every submitted operation, accepted or
denied, costs exactly one clock cycle, and the cycle counter feeds energy
accounting: `EnergyLedger` tallies accesses by status and prices the cycles.
The read port is registered: last_dout holds its previous value across
denied accesses.

An instance is owned by one execution context at a time; callers that share
one across threads must serialize operations themselves.
"""

from __future__ import annotations

import enum

from .._record import checked_record

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1
KEY_BITS = 128
KEY_MASK = (1 << KEY_BITS) - 1
#: Addresses are 32-bit, so no RAM holds more words than this.
MAX_DEPTH_WORDS = 1 << 32


class InvalidConfig(ValueError):
    """Rejected RAM configuration (depth outside 1..2**32, bad key)."""


class RamConfig(checked_record("RamConfig", "depth_words device_ipv6")):
    """Depth in 32-bit words plus the gate key. `__new__` raises
    InvalidConfig for a depth outside 1..2**32 or a key outside 128 bits;
    every way of building one goes through it (see `checked_record`).
    """

    __slots__ = ()

    def __new__(cls, depth_words: int = 256, device_ipv6: int = 0):
        if depth_words < 1:
            raise InvalidConfig(f"depth_words must be >= 1, got {depth_words}")
        if depth_words > MAX_DEPTH_WORDS:
            raise InvalidConfig(
                f"depth_words must be <= 2**32 (32-bit addresses), got {depth_words}"
            )
        if not 0 <= device_ipv6 <= KEY_MASK:
            raise InvalidConfig("device_ipv6 must fit in 128 bits")
        return tuple.__new__(cls, (depth_words, device_ipv6))


class Status(enum.IntEnum):
    """Outcome of one access; each value is also a response frame's status byte."""

    OK = 0
    AUTH_FAIL = 1
    ADDR_RANGE = 2
    MALFORMED = 3
    BAD_OPCODE = 4


# The per-access code names the members through these aliases: `Status.X`
# costs about 0.2 µs on CPython 3.11 (EnumType.__getattr__) and, with less
# to gain, 0.05 µs on 3.12 and 3.13, against 0.02 µs for a module name.
_OK, _AUTH_FAIL, _ADDR_RANGE = Status.OK, Status.AUTH_FAIL, Status.ADDR_RANGE


class EnergyLedger:
    """Counts accesses by status and prices RAM cycles in joules: each op of
    `run_trace`, or each frame the datagram service handles."""

    def __init__(self, per_cycle_j: float):
        self.per_cycle_j = per_cycle_j
        self.ops_by_status: dict[Status, int] = {}
        self.cycles = 0

    @property
    def ops_total(self) -> int:
        return sum(self.ops_by_status.values())

    @property
    def energy_j(self) -> float:
        return self.cycles * self.per_cycle_j

    def record(self, status: Status, cycle_delta: int) -> None:
        self.ops_by_status[status] = self.ops_by_status.get(status, 0) + 1
        self.cycles += cycle_delta

    def render(self) -> str:
        by_status = ", ".join(
            f"{status.name}={count}" for status, count in sorted(self.ops_by_status.items())
        )
        return (
            f"ops_total={self.ops_total} [{by_status}] "
            f"cycles={self.cycles} energy={self.energy_j:.6e} J"
        )


class IotRam:
    """One RAM instance: zeroed words, a cycle counter, a registered output.

    Words are stored sparsely, by address, as they are written; a word never
    written reads 0. So a RAM of any depth allocates nothing up front.

    `read` and `write` each gate the access themselves: they charge the
    cycle, then check the key, then the address. The key and depth are read
    from `config` once, here, so no access reads a record field.
    """

    def __init__(self, config: RamConfig):
        self.config = config
        self._key = config.device_ipv6
        self._depth = config.depth_words
        self.words: dict[int, int] = {}
        self.cycle_count = 0
        self.last_dout = 0

    def write(self, key: int, addr: int, data: int) -> tuple[Status, int]:
        """Store a word; returns (status, 0), status being OK, AUTH_FAIL or ADDR_RANGE."""
        self.cycle_count += 1
        if key != self._key:
            return _AUTH_FAIL, 0
        if not 0 <= addr < self._depth:
            return _ADDR_RANGE, 0
        self.words[addr] = data & WORD_MASK
        return _OK, 0

    def read(self, key: int, addr: int) -> tuple[Status, int]:
        """Load a word; returns (OK, word), or (AUTH_FAIL or ADDR_RANGE, 0)."""
        self.cycle_count += 1
        if key != self._key:
            return _AUTH_FAIL, 0
        if not 0 <= addr < self._depth:
            return _ADDR_RANGE, 0
        value = self.words.get(addr, 0)
        self.last_dout = value
        return _OK, value
