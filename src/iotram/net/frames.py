"""Bit-exact datagram frames for remote RAM access.

Request (30 bytes): magic "IR", version, opcode, 128-bit target key, 32-bit
address, 32-bit data, 16-bit sequence number. Response (10 bytes): magic,
version, status, 32-bit data, echoed sequence number. All multi-byte fields
are big-endian; the key rides in the frame so the gate is testable without
real IPv6 routing.
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple

from ..ram.core import Status

MAGIC = b"IR"
VERSION = 1

REQUEST_LEN = 30
RESPONSE_LEN = 10

_REQUEST = struct.Struct(">2sBB16sIIH")
_RESPONSE = struct.Struct(">2sBBIH")

# Offset of the sequence field in a request, for best-effort echo on
# malformed-but-full-length frames.
_REQ_SEQ_OFFSET = 28


class MalformedFrame(ValueError):
    """Datagram that is not a structurally valid request."""


class Opcode(enum.IntEnum):
    READ = 0
    WRITE = 1
    STATUS = 2


class RequestFrame(NamedTuple):
    opcode: int
    target_key: int  # 128-bit unsigned
    addr: int
    data: int
    seq: int


class ResponseFrame(NamedTuple):
    status: Status
    data: int
    seq: int


def encode_request(opcode: int, target_key: int, addr: int, data: int, seq: int) -> bytes:
    """Build a request; ValueError for an unknown opcode or a field too wide for its slot."""
    if opcode not in (Opcode.READ, Opcode.WRITE, Opcode.STATUS):
        raise ValueError(f"opcode must be 0, 1 or 2, got {opcode}")
    try:
        return _REQUEST.pack(
            MAGIC,
            VERSION,
            opcode,
            target_key.to_bytes(16, "big"),
            addr,
            data,
            seq,
        )
    except (OverflowError, struct.error) as exc:
        raise ValueError(f"request field out of range: {exc}") from None


def decode_request(buf: bytes) -> RequestFrame:
    """Parse a request. The opcode byte is passed through unvalidated; an
    unknown opcode is a semantic error answered with BAD_OPCODE, not a
    malformed frame."""
    if len(buf) != REQUEST_LEN:
        raise MalformedFrame(f"request must be {REQUEST_LEN} bytes, got {len(buf)}")
    magic, version, opcode, key, addr, data, seq = _REQUEST.unpack(buf)
    if magic != MAGIC:
        raise MalformedFrame(f"bad magic {magic!r}")
    if version != VERSION:
        raise MalformedFrame(f"unsupported version {version}")
    # Built positionally through `tuple.__new__`: a class call with keywords
    # cost about three times as much (1.3 against 0.4 µs in timeit).
    return tuple.__new__(RequestFrame, (opcode, int.from_bytes(key, "big"), addr, data, seq))


def salvage_seq(buf: bytes) -> int:
    """Sequence number of a rejected datagram when readable, else 0."""
    if len(buf) == REQUEST_LEN:
        return int.from_bytes(buf[_REQ_SEQ_OFFSET : _REQ_SEQ_OFFSET + 2], "big")
    return 0


def encode_response(status: Status, data: int, seq: int) -> bytes:
    return _RESPONSE.pack(MAGIC, VERSION, status, data, seq)


def decode_response(buf: bytes) -> ResponseFrame:
    if len(buf) != RESPONSE_LEN:
        raise MalformedFrame(f"response must be {RESPONSE_LEN} bytes, got {len(buf)}")
    magic, version, status, data, seq = _RESPONSE.unpack(buf)
    if magic != MAGIC:
        raise MalformedFrame(f"bad magic {magic!r}")
    if version != VERSION:
        raise MalformedFrame(f"unsupported version {version}")
    try:
        parsed = Status(status)
    except ValueError:
        raise MalformedFrame(f"unknown status {status}") from None
    return ResponseFrame(status=parsed, data=data, seq=seq)
