"""Datagram service exposing one RAM instance, with energy accounting.

Each received datagram yields exactly one response; malformed input and
unknown opcodes become status codes, never crashes. READ/WRITE delegate to
the RAM with the frame's key as the gate key and cost one RAM cycle whatever
the outcome; STATUS reports the cycle counter without consuming a cycle. The
session's energy ledger prices accumulated cycles at the configured
(IO standard, WLAN channel) operating point.
"""

from __future__ import annotations

# The service calls only methods of the C socket type, so it builds that type
# from `_socket` itself. The `socket` module's class adds file-object helpers
# and enum-typed properties that the service does not use, and importing the
# module runs four `IntEnum._convert_` scans and loads `selectors`, `select`
# and `array`: 4-8 ms of `serve` start-up under `-X importtime` (CPython
# 3.11.7 and 3.12.1, 2-vCPU Linux host), against under 1 ms for `_socket`.
import _socket
import errno
import sys
import threading

from ..power.dataset import CalibrationDataset
from ..power.model import energy_per_cycle, power_at
from ..power.standards import IoStandard, WlanChannel
from ..ram.core import EnergyLedger, IotRam, Status
from .endpoint import DEFAULT_BIND, BindFailure, parse_endpoint
from .frames import (
    REQUEST_LEN,
    RESPONSE_LEN,
    MalformedFrame,
    Opcode,
    decode_request,
    encode_response,
    salvage_seq,
)


# handle_datagram names the members through these aliases, as ram.core does:
# an `Opcode.X` or `Status.X` lookup costs about 0.2 µs on CPython 3.11 and
# about 0.05 µs on 3.12 and 3.13, against about 0.02 µs for a module name.
_READ, _WRITE, _STATUS = Opcode.READ, Opcode.WRITE, Opcode.STATUS
_OK, _BAD_OPCODE, _MALFORMED = Status.OK, Status.BAD_OPCODE, Status.MALFORMED

# The most replies serve_forever holds back before it sends them. The limit
# bounds how long a held reply waits (the handling of the requests queued
# behind it) and how many replies are held at once, as the per-poll budget of
# 64 bounds a receive batch in Linux NAPI. It also keeps a segmented send
# within UDP_MAX_SEGMENTS, the 64 segments Linux has taken since 4.18.
BATCH_LIMIT = 64

# The control message of a segmented send: Linux's UDP_SEGMENT option (103 in
# linux/udp.h, which `_socket` does not name) at level SOL_UDP, with
# the segment size as a native-order u16. The kernel cuts the send into one
# RESPONSE_LEN-byte datagram per reply, in order (UDP GSO, Linux 4.18).
_UDP_SEGMENT = 103
_SEGMENT_REPLIES = [(_socket.SOL_UDP, _UDP_SEGMENT, RESPONSE_LEN.to_bytes(2, sys.byteorder))]

# Errors of a segmented send that say the socket's path cannot segment: EIO
# for a route through xfrm or, on older kernels, a device without checksum
# offload, and the option unknown. Any other error, such as EINVAL for a peer
# on port 0, belongs to that run alone.
_CANNOT_SEGMENT = frozenset({errno.EIO, errno.ENOPROTOOPT, errno.EOPNOTSUPP})


def make_ledger(std: IoStandard, channel: WlanChannel, ds: CalibrationDataset) -> EnergyLedger:
    """Ledger priced at one operating point: the grid cell of the channel."""
    breakdown = power_at(ds, std, channel.carrier_ghz)
    return EnergyLedger(energy_per_cycle(breakdown, channel.carrier_ghz))


def handle_datagram(datagram: bytes, ram: IotRam, ledger: EnergyLedger) -> bytes:
    """Process one request datagram and build its response."""
    cycles_before = ram.cycle_count
    try:
        opcode, key, addr, data, seq = decode_request(datagram)
    except MalformedFrame:
        ledger.record(_MALFORMED, 0)
        return encode_response(_MALFORMED, 0, salvage_seq(datagram))

    if opcode == _READ:
        status, data = ram.read(key, addr)
    elif opcode == _WRITE:
        status, data = ram.write(key, addr, data)
    elif opcode == _STATUS:
        status, data = _OK, ram.cycle_count & 0xFFFFFFFF
    else:
        status, data = _BAD_OPCODE, 0

    ledger.record(status, ram.cycle_count - cycles_before)
    return encode_response(status, data, seq)


class RamService:
    """UDP request/response loop over one RAM and one ledger.

    Requests are processed whole, in arrival order, under a single lock, so
    observable behavior always matches a sequential interleaving. Each
    request gets exactly one reply datagram, and replies are sent in that
    same order; serve_forever holds at most BATCH_LIMIT of them back while it
    handles the requests already queued, then sends them. Where the kernel
    takes UDP_SEGMENT (Linux 4.18 on), consecutive held replies to one peer
    leave in one segmented send, which the kernel cuts into one datagram per
    reply, still in arrival order.
    """

    def __init__(self, ram: IotRam, ledger: EnergyLedger, bind_endpoint: str = DEFAULT_BIND):
        self.ram = ram
        self.ledger = ledger
        self._lock = threading.Lock()
        self._stop = threading.Event()
        host, port = parse_endpoint(bind_endpoint)
        family = _socket.AF_INET6 if ":" in host else _socket.AF_INET
        self._sock = _socket.socket(family, _socket.SOCK_DGRAM)
        try:
            self._sock.bind((host, port))
        except OSError as exc:
            self._sock.close()
            raise BindFailure(f"cannot bind {bind_endpoint}: {exc}") from exc
        # Segment only where the kernel knows UDP_SEGMENT: one older than
        # 4.18 ignores the control message and would send a run as one
        # datagram. Setting the option to 0, its default, asks without
        # segmenting any send. Cleared for good when a segmented send shows
        # the path cannot segment.
        try:
            self._sock.setsockopt(_socket.SOL_UDP, _UDP_SEGMENT, 0)
            self._segmented = True
        except OSError:
            self._segmented = False

    @property
    def address(self) -> tuple[str, int]:
        addr = self._sock.getsockname()
        return addr[0], addr[1]

    def handle(self, datagram: bytes) -> bytes:
        with self._lock:
            return handle_datagram(datagram, self.ram, self.ledger)

    def serve_forever(self) -> None:
        """Answer datagrams until close() is called. Per-frame errors never
        terminate the loop; a receive error that close() did not cause is
        raised.

        The datagram that wakes the loop is answered at once. Those already
        queued behind it are then received without blocking and handled in
        turn, and their replies sent in the same order once a receive finds
        the queue empty or BATCH_LIMIT replies are held. Each run of held
        replies to one peer is one segmented send, if the service segments;
        if that send fails, the run goes one reply at a time, and if it failed
        because the path cannot segment, every reply does from then on."""
        handle, stop = self.handle, self._stop
        recvfrom, sendto = self._sock.recvfrom, self._sock.sendto
        # A request is REQUEST_LEN bytes; a longer datagram arrives cut to
        # one byte more, which is still malformed.
        size = REQUEST_LEN + 1
        while True:
            try:
                datagram, peer = recvfrom(size)
            except OSError:
                if stop.is_set():
                    return
                raise
            if stop.is_set():
                return
            try:
                sendto(handle(datagram), peer)
            except OSError:
                pass
            # Held replies as runs: (peer, its consecutive replies).
            runs, last, held = [], None, 0
            while held < BATCH_LIMIT:
                try:
                    datagram, peer = recvfrom(size, _socket.MSG_DONTWAIT)
                except BlockingIOError:
                    break
                except OSError:
                    if stop.is_set():
                        return
                    raise
                if stop.is_set():
                    return
                if peer == last:
                    replies.append(handle(datagram))
                else:
                    replies = [handle(datagram)]
                    runs.append((peer, replies))
                    last = peer
                held += 1
            for peer, replies in runs:
                if len(replies) > 1 and self._segmented:
                    try:
                        self._sock.sendmsg([b"".join(replies)], _SEGMENT_REPLIES, 0, peer)
                        continue
                    except OSError as exc:
                        if exc.errno in _CANNOT_SEGMENT:
                            self._segmented = False
                for reply in replies:
                    try:
                        sendto(reply, peer)
                    except OSError:
                        pass

    def close(self) -> None:
        """Stop serve_forever, from any thread, and release the socket.

        Closing the socket alone does not wake a thread blocked in recvfrom on
        it. On Linux, shutdown() does: the receive returns (b"", None), though
        for an unconnected datagram socket the call itself raises ENOTCONN.
        That error, and EBADF when close() runs twice, are expected.
        """
        self._stop.set()
        try:
            self._sock.shutdown(_socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "RamService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

