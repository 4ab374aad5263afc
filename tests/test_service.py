"""Datagram handling, the energy ledger, and the UDP loop; and a property
that `ram-run` and the service answer one trace alike."""

import _socket
import contextlib
import errno
import io
import ipaddress
import math
import os
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotram import cli
from iotram.net import (
    BadEndpoint,
    BindFailure,
    Opcode,
    decode_response,
    encode_request,
    parse_endpoint,
)
from iotram.net.frames import RESPONSE_LEN
from iotram.net.service import BATCH_LIMIT, RamService, handle_datagram, make_ledger
from iotram.power import CHANNELS, IoStandard, WlanChannel, builtin_dataset
from iotram.ram import EnergyLedger, IotRam, RamConfig, Status

KEY = int(ipaddress.IPv6Address("2001:db8::1"))
WRONG = int(ipaddress.IPv6Address("2001:db8::2"))


def _service(ram, bind="127.0.0.1:0"):
    ledger = make_ledger(IoStandard.LVCMOS12, WlanChannel.GHZ_2_4, builtin_dataset())
    return RamService(ram, ledger, bind)


@pytest.fixture
def ram():
    return IotRam(RamConfig(device_ipv6=KEY))


@pytest.fixture
def ledger():
    return make_ledger(IoStandard.LVCMOS12, WlanChannel.GHZ_2_4, builtin_dataset())


def test_ledger_pricing_matches_grid():
    ds = builtin_dataset()
    led = make_ledger(IoStandard.LVCMOS12, WlanChannel.GHZ_2_4, ds)
    assert math.isclose(led.per_cycle_j, 4.849 / 2.4e9, rel_tol=1e-12)
    led = make_ledger(IoStandard.LVCMOS25, WlanChannel.GHZ_0_9, ds)
    assert math.isclose(led.per_cycle_j, 2.739 / 0.9e9, rel_tol=1e-12)


def test_write_then_read(ram, ledger):
    resp = decode_response(
        handle_datagram(encode_request(Opcode.WRITE, KEY, 9, 0x55AA55AA, 1), ram, ledger)
    )
    assert resp.status is Status.OK and resp.data == 0 and resp.seq == 1
    resp = decode_response(
        handle_datagram(encode_request(Opcode.READ, KEY, 9, 0, 2), ram, ledger)
    )
    assert resp.status is Status.OK and resp.data == 0x55AA55AA and resp.seq == 2


def test_wrong_key_does_not_mutate(ram, ledger):
    handle_datagram(encode_request(Opcode.WRITE, KEY, 4, 0x1111, 1), ram, ledger)
    resp = decode_response(
        handle_datagram(encode_request(Opcode.WRITE, WRONG, 4, 0x2222, 2), ram, ledger)
    )
    assert resp.status is Status.AUTH_FAIL
    resp = decode_response(
        handle_datagram(encode_request(Opcode.READ, KEY, 4, 0, 3), ram, ledger)
    )
    assert resp.data == 0x1111


def test_addr_range_status(ram, ledger):
    resp = decode_response(
        handle_datagram(encode_request(Opcode.READ, KEY, 9999, 0, 5), ram, ledger)
    )
    assert resp.status is Status.ADDR_RANGE and resp.seq == 5


def test_status_reports_cycles_without_consuming_one(ram, ledger):
    handle_datagram(encode_request(Opcode.WRITE, KEY, 0, 1, 1), ram, ledger)
    handle_datagram(encode_request(Opcode.READ, KEY, 0, 0, 2), ram, ledger)
    resp = decode_response(
        handle_datagram(encode_request(Opcode.STATUS, KEY, 0, 0, 3), ram, ledger)
    )
    assert resp.status is Status.OK and resp.data == 2
    assert ram.cycle_count == 2
    # Repeating STATUS still reports 2.
    resp = decode_response(
        handle_datagram(encode_request(Opcode.STATUS, KEY, 0, 0, 4), ram, ledger)
    )
    assert resp.data == 2


def test_malformed_salvages_seq(ram, ledger):
    good = encode_request(Opcode.READ, KEY, 0, 0, 0x0A0B)
    torn = b"XX" + good[2:]
    resp = decode_response(handle_datagram(torn, ram, ledger))
    assert resp.status is Status.MALFORMED and resp.seq == 0x0A0B
    resp = decode_response(handle_datagram(b"short", ram, ledger))
    assert resp.status is Status.MALFORMED and resp.seq == 0
    assert ram.cycle_count == 0


def test_bad_opcode(ram, ledger):
    raw = bytearray(encode_request(Opcode.READ, KEY, 0, 0, 77))
    raw[3] = 0x30
    resp = decode_response(handle_datagram(bytes(raw), ram, ledger))
    assert resp.status is Status.BAD_OPCODE and resp.seq == 77
    assert ram.cycle_count == 0


def test_ledger_counts_and_conservation(ram, ledger):
    frames = [
        encode_request(Opcode.WRITE, KEY, 1, 10, 1),
        encode_request(Opcode.READ, KEY, 1, 0, 2),
        encode_request(Opcode.WRITE, WRONG, 1, 0, 3),
        encode_request(Opcode.READ, KEY, 9999, 0, 4),
        encode_request(Opcode.STATUS, KEY, 0, 0, 5),
        b"junk",
    ]
    for frame in frames:
        handle_datagram(frame, ram, ledger)
    assert ledger.ops_total == 6
    assert ledger.ops_by_status == {
        Status.OK: 3,
        Status.AUTH_FAIL: 1,
        Status.ADDR_RANGE: 1,
        Status.MALFORMED: 1,
    }
    assert ledger.cycles == 4 == ram.cycle_count
    assert ledger.energy_j == ledger.cycles * ledger.per_cycle_j
    assert ledger.ops_total == sum(ledger.ops_by_status.values())


def test_ledger_render():
    led = EnergyLedger(2e-9)
    led.record(Status.OK, 1)
    text = led.render()
    assert "ops_total=1" in text and "OK=1" in text and "J" in text


@pytest.mark.parametrize(
    "endpoint,expected",
    [
        ("127.0.0.1:18770", ("127.0.0.1", 18770)),
        ("[::1]:9000", ("::1", 9000)),
        (":123", ("0.0.0.0", 123)),
        ("0.0.0.0:0", ("0.0.0.0", 0)),
        ("\u00e9:0", ("\u00e9", 0)),
    ],
)
def test_parse_endpoint(endpoint, expected):
    assert parse_endpoint(endpoint) == expected


@pytest.mark.parametrize(
    "endpoint",
    ["nope", "[::1]", "host:port", "x:70000", "x:-1", "\udcff:0", "\u00e9" * 70 + ":0",
     "a\x00b:0", "[\u00e9\x00]:0", "127.0.0.1:+80", "127.0.0.1:8_0",
     "127.0.0.1:\u0668\u0660", "127.0.0.1: 80"],
)
def test_parse_endpoint_rejects(endpoint):
    with pytest.raises(BadEndpoint):
        parse_endpoint(endpoint)


def _start(ram):
    svc = _service(ram)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    return svc, thread


def test_udp_round_trip(ram):
    svc, thread = _start(ram)
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(5.0)
            sock.sendto(encode_request(Opcode.WRITE, KEY, 2, 0xABCD, 9), svc.address)
            resp = decode_response(sock.recvfrom(64)[0])
            assert resp.status is Status.OK and resp.seq == 9
            sock.sendto(encode_request(Opcode.READ, KEY, 2, 0, 10), svc.address)
            resp = decode_response(sock.recvfrom(64)[0])
            assert resp.data == 0xABCD
            sock.sendto(b"\x00" * 12, svc.address)
            resp = decode_response(sock.recvfrom(64)[0])
            assert resp.status is Status.MALFORMED
            # An empty datagram is a request like any other, not the wakeup
            # that close() gives the loop.
            sock.sendto(b"", svc.address)
            resp = decode_response(sock.recvfrom(64)[0])
            assert resp.status is Status.MALFORMED and resp.seq == 0
            sock.sendto(encode_request(Opcode.READ, KEY, 2, 0, 11), svc.address)
            resp = decode_response(sock.recvfrom(64)[0])
            assert resp.data == 0xABCD and resp.seq == 11
    finally:
        svc.close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert svc.ledger.ops_total == 5


@pytest.mark.parametrize("extra", [1, 2, 65507 - 30])
def test_an_overlong_datagram_is_malformed_without_a_cycle(ram, extra):
    # A valid request with bytes after it, up to the largest UDP payload over
    # IPv4: the loop receives at most one byte past a request, which must
    # neither make it valid nor salvage its sequence number.
    svc, thread = _start(ram)
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(5.0)
            request = encode_request(Opcode.WRITE, KEY, 3, 0xFEED, 77)
            sock.sendto(request + b"\x00" * extra, svc.address)
            resp = decode_response(sock.recvfrom(64)[0])
            assert resp.status is Status.MALFORMED and resp.seq == 0 and resp.data == 0
            sock.sendto(encode_request(Opcode.READ, KEY, 3, 0, 78), svc.address)
            resp = decode_response(sock.recvfrom(64)[0])
            assert resp.status is Status.OK and resp.data == 0 and resp.seq == 78
    finally:
        svc.close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert svc.ledger.ops_by_status == {Status.MALFORMED: 1, Status.OK: 1}
    assert svc.ledger.cycles == ram.cycle_count == 1


def _loop_in_thread(svc):
    """Run serve_forever in a thread; the list receives what it raised."""
    raised = []

    def loop():
        try:
            svc.serve_forever()
        except OSError as exc:
            raised.append(exc)

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    return thread, raised


def test_close_ends_the_loop_quietly(ram):
    svc = _service(ram)
    thread, raised = _loop_in_thread(svc)
    # After a round trip the loop is back in its blocking receive.
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(5.0)
        sock.sendto(encode_request(Opcode.STATUS, KEY, 0, 0, 1), svc.address)
        sock.recvfrom(64)
    svc.close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert raised == []


def test_socket_failure_ends_the_loop_with_an_error(ram):
    svc = _service(ram)
    # The socket fails without close() asking the loop to stop. It is closed
    # before the loop starts: on Linux, closing a descriptor under a blocked
    # receive does not wake it.
    svc._sock.close()
    thread, raised = _loop_in_thread(svc)
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert len(raised) == 1


def test_concurrent_writes_serialize(ram):
    svc, thread = _start(ram)

    def client(base):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(5.0)
            for i in range(10):
                addr = base * 10 + i
                sock.sendto(
                    encode_request(Opcode.WRITE, KEY, addr, addr + 1000, addr), svc.address
                )
                resp = decode_response(sock.recvfrom(64)[0])
                assert resp.status is Status.OK

    try:
        workers = [threading.Thread(target=client, args=(n,)) for n in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
    finally:
        svc.close()
        thread.join(timeout=5)

    # Union of all writes, none lost or torn.
    for addr in range(80):
        assert ram.read(KEY, addr) == (Status.OK, addr + 1000)
    assert svc.ledger.ops_total == 80
    assert svc.ledger.cycles == 80


def test_bind_failure_on_occupied_port():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
        holder.bind(("127.0.0.1", 0))
        port = holder.getsockname()[1]
        with pytest.raises(BindFailure):
            _service(IotRam(RamConfig(device_ipv6=KEY)), f"127.0.0.1:{port}")


def test_service_context_manager(ram):
    with _service(ram) as svc:
        resp = decode_response(svc.handle(encode_request(Opcode.STATUS, KEY, 0, 0, 1)))
        assert resp.status is Status.OK
        svc.close()  # leaving the block closes it a second time


def _poke(frame, index, value):
    raw = bytearray(frame)
    raw[index] = value
    return bytes(raw)


# One builder per kind of datagram the loop must answer, indexed by position:
# READ, WRITE and STATUS, a wrong key, an address past the depth, an unknown
# opcode, bad magic, a bad version, an empty datagram, a short one, and a
# valid request with one byte after it.
_KINDS = (
    lambda i: encode_request(Opcode.WRITE, KEY, i % 16, i * 7919, i),
    lambda i: encode_request(Opcode.READ, KEY, i % 16, 0, i),
    lambda i: encode_request(Opcode.STATUS, KEY, 0, 0, i),
    lambda i: encode_request(Opcode.WRITE, WRONG, i % 16, i, i),
    lambda i: encode_request(Opcode.READ, KEY, 256 + i, 0, i),
    lambda i: _poke(encode_request(Opcode.READ, KEY, 0, 0, i), 3, 0x30),
    lambda i: _poke(encode_request(Opcode.READ, KEY, 0, 0, i), 0, ord("X")),
    lambda i: _poke(encode_request(Opcode.READ, KEY, 0, 0, i), 2, 7),
    lambda i: b"",
    lambda i: encode_request(Opcode.READ, KEY, 0, 0, i)[: 1 + i % 29],
    lambda i: encode_request(Opcode.WRITE, KEY, i % 16, i, i) + b"\x00",
)

# Two full batches and a partial one: the first datagram is answered at once,
# the next BATCH_LIMIT are held, and so on. The default receive buffer on
# Linux (212,992 bytes) holds 256 such datagrams, so none is dropped.
_WINDOW = 2 * (BATCH_LIMIT + 1) + 3


def _hostile_mix(n):
    return [_KINDS[i % len(_KINDS)](i) for i in range(n)]


@pytest.mark.parametrize("n_peers", [1, 2])
def test_a_queued_window_is_answered_in_order(ram, ledger, n_peers):
    # Every datagram is queued before the loop starts, so the loop drains
    # them in batches. Each reply must be what handle_datagram gives a twin
    # RAM fed the same datagrams in the same order, and reach its own peer in
    # that peer's order.
    datagrams = _hostile_mix(_WINDOW)
    twin = IotRam(RamConfig(device_ipv6=KEY))
    expected = [handle_datagram(d, twin, ledger) for d in datagrams]
    svc = _service(ram)
    peers = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(n_peers)]
    try:
        for i, datagram in enumerate(datagrams):
            peers[i % n_peers].sendto(datagram, svc.address)
        thread, raised = _loop_in_thread(svc)
        for p, sock in enumerate(peers):
            sock.settimeout(5.0)
            got = [sock.recvfrom(64)[0] for _ in range(p, _WINDOW, n_peers)]
            assert got == expected[p::n_peers]
        svc.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert raised == []
        # Exactly one reply each: nothing more arrived.
        for sock in peers:
            sock.setblocking(False)
            with pytest.raises(BlockingIOError):
                sock.recvfrom(64)
    finally:
        svc.close()
        for sock in peers:
            sock.close()
    assert svc.ledger.ops_by_status == ledger.ops_by_status
    assert svc.ledger.cycles == ledger.cycles == ram.cycle_count == twin.cycle_count
    assert svc.ledger.energy_j == ledger.energy_j


def test_close_ends_the_loop_while_a_window_is_queued(ram):
    svc = _service(ram)
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        for datagram in _hostile_mix(_WINDOW):
            sock.sendto(datagram, svc.address)
        thread, raised = _loop_in_thread(svc)
        svc.close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert raised == []


class _FailingSocket:
    """Gives one request, then fails the next receive, as a socket can fail
    under the loop without close() being called."""

    PEER = ("127.0.0.1", 9)

    def __init__(self, datagram):
        self.datagrams = [datagram]
        self.sent = []

    def recvfrom(self, size, flags=0):
        if not self.datagrams:
            raise OSError(errno.EIO, "receive failed")
        return self.datagrams.pop(), self.PEER

    def sendto(self, data, peer):
        self.sent.append((data, peer))


def test_a_receive_error_while_draining_ends_the_loop(ram):
    svc = _service(ram)
    real = svc._sock
    request = encode_request(Opcode.STATUS, KEY, 0, 0, 5)
    svc._sock = fake = _FailingSocket(request)
    try:
        thread, raised = _loop_in_thread(svc)
        thread.join(timeout=5)
    finally:
        svc._sock = real
        svc.close()
    assert not thread.is_alive()
    assert [exc.errno for exc in raised] == [errno.EIO]
    # The request that woke the loop was answered before the failure.
    assert [(decode_response(data).seq, peer) for data, peer in fake.sent] == [
        (5, _FailingSocket.PEER)
    ]


# The control message a segmented send must carry: UDP_SEGMENT (103 in
# linux/udp.h) at level SOL_UDP, with the segment size as a native u16.
SEGMENTS = [(socket.SOL_UDP, 103, struct.pack("=H", RESPONSE_LEN))]
A, B = ("127.0.0.1", 7001), ("127.0.0.1", 7002)


class _ScriptedSocket:
    """Hands the loop batches of (datagram, peer) and records what it sends.

    A batch is queued when a blocking receive finds the queue empty, and a
    non-blocking one then finds it empty; a blocking receive after the last
    batch fails, which ends the loop. A segmented send is recorded with its
    bytes joined.
    """

    def __init__(self, *batches):
        self.batches = list(batches)
        self.queue = []
        self.sent = []

    def recvfrom(self, size, flags=0):
        if not self.queue:
            if flags:
                raise BlockingIOError(errno.EAGAIN, "queue empty")
            if not self.batches:
                raise OSError(errno.EIO, "receive failed")
            self.queue = list(self.batches.pop(0))
        return self.queue.pop(0)

    def sendto(self, data, peer):
        self.sent.append(("sendto", data, peer))

    def sendmsg(self, buffers, ancdata, flags, peer):
        self.sent.append(("sendmsg", b"".join(buffers), ancdata, flags, peer))
        return sum(map(len, buffers))


class _SegmentFailingSocket(_ScriptedSocket):
    """Records each segmented send it is asked for, and fails the first with
    the error `code`."""

    def __init__(self, code, *batches):
        super().__init__(*batches)
        self.code = code

    def sendmsg(self, buffers, ancdata, flags, peer):
        super().sendmsg(buffers, ancdata, flags, peer)
        if self.code is not None:
            code, self.code = self.code, None
            raise OSError(code, os.strerror(code))


def _probed_socket(supported):
    """A socket class whose UDP_SEGMENT probe answers `supported`, whatever
    the kernel would say: a subclass of `_socket.socket`, the class that the
    service builds."""

    class Probed(_socket.socket):
        def setsockopt(self, level, option, *value):
            if (level, option) != (socket.SOL_UDP, 103):
                return super().setsockopt(level, option, *value)
            if not supported:
                raise OSError(errno.ENOPROTOOPT, os.strerror(errno.ENOPROTOOPT))

    return Probed


def _serve_script(ram, monkeypatch, fake, supported=True):
    """Serve the fake's batches on a service whose probe found UDP_SEGMENT
    if `supported`."""
    with monkeypatch.context() as m:
        m.setattr(_socket, "socket", _probed_socket(supported))
        svc = _service(ram)
    real, svc._sock = svc._sock, fake
    try:
        with pytest.raises(OSError) as raised:
            svc.serve_forever()
    finally:
        svc._sock = real
        svc.close()
    assert raised.value.errno == errno.EIO


def _requests(n, ledger):
    """n requests and the replies a fresh RAM, tallying in `ledger`, gives
    them in order."""
    datagrams = _hostile_mix(n)
    twin = IotRam(RamConfig(device_ipv6=KEY))
    return datagrams, [handle_datagram(d, twin, ledger) for d in datagrams]


@pytest.mark.parametrize("supported", [True, False], ids=["segments", "no-segments"])
def test_a_run_of_replies_to_one_peer_is_one_segmented_send_where_the_kernel_segments(
    ram, ledger, monkeypatch, supported
):
    # The waking datagram, then a drain that holds replies to A, A, A, B, A.
    d, r = _requests(6, ledger)
    fake = _ScriptedSocket(list(zip(d, [A, A, A, A, B, A])))
    _serve_script(ram, monkeypatch, fake, supported)
    if supported:
        assert fake.sent == [
            ("sendto", r[0], A),
            ("sendmsg", r[1] + r[2] + r[3], SEGMENTS, 0, A),
            ("sendto", r[4], B),
            ("sendto", r[5], A),
        ]
    else:
        # A kernel without UDP_SEGMENT would ignore the control message and
        # send a run as one datagram, so the loop sends one reply at a time.
        assert fake.sent == [("sendto", reply, peer) for reply, peer in zip(r, [A, A, A, A, B, A])]


def test_a_segmented_send_carries_at_most_batch_limit_replies(ram, ledger, monkeypatch):
    # A run is at most UDP_MAX_SEGMENTS, 64 on kernels since 4.18; a larger
    # send fails with EINVAL there, though newer kernels take more.
    assert BATCH_LIMIT <= 64
    # The drain stops at BATCH_LIMIT held replies, the limit of segments in
    # one send; the datagram after them wakes the loop again.
    d, r = _requests(BATCH_LIMIT + 2, ledger)
    fake = _ScriptedSocket([(datagram, A) for datagram in d])
    _serve_script(ram, monkeypatch, fake)
    assert fake.sent == [
        ("sendto", r[0], A),
        ("sendmsg", b"".join(r[1:-1]), SEGMENTS, 0, A),
        ("sendto", r[-1], A),
    ]


@pytest.mark.parametrize(
    "code,ends_segmenting",
    [
        (errno.EIO, True),
        (errno.ENOPROTOOPT, True),
        (errno.EOPNOTSUPP, True),
        # A peer on port 0 gets EINVAL, and a full queue ENOBUFS: neither
        # says the path cannot segment.
        (errno.EINVAL, False),
        (errno.ENOBUFS, False),
    ],
    ids=["EIO", "ENOPROTOOPT", "EOPNOTSUPP", "EINVAL", "ENOBUFS"],
)
def test_a_failed_segmented_send_is_resent_a_reply_at_a_time(
    ram, ledger, monkeypatch, code, ends_segmenting
):
    d, r = _requests(7, ledger)
    fake = _SegmentFailingSocket(code, list(zip(d[:4], [A] * 4)), list(zip(d[4:], [A] * 3)))
    _serve_script(ram, monkeypatch, fake)
    assert fake.sent[:5] == [
        ("sendto", r[0], A),
        ("sendmsg", r[1] + r[2] + r[3], SEGMENTS, 0, A),
        ("sendto", r[1], A),
        ("sendto", r[2], A),
        ("sendto", r[3], A),
    ]
    if ends_segmenting:
        # The next batch makes no segmented send.
        assert fake.sent[5:] == [("sendto", r[4], A), ("sendto", r[5], A), ("sendto", r[6], A)]
    else:
        assert fake.sent[5:] == [("sendto", r[4], A), ("sendmsg", r[5] + r[6], SEGMENTS, 0, A)]


def test_the_probe_leaves_every_send_unsegmented(ram):
    # The probe must not set a segment size on the socket: that would put
    # every send, a lone reply too, through the kernel's segmenting checks.
    svc = _service(ram)
    try:
        if not svc._segmented:
            pytest.skip("the kernel does not take UDP_SEGMENT")
        assert svc._sock.getsockopt(socket.SOL_UDP, 103) == 0
    finally:
        svc.close()


class _CountingSocket:
    """A real socket that counts the segmented sends made through it."""

    def __init__(self, sock):
        self.sock = sock
        self.segmented = 0

    def __getattr__(self, name):
        return getattr(self.sock, name)

    def sendmsg(self, *args):
        self.segmented += 1
        return self.sock.sendmsg(*args)


def _ipv6_loopback():
    try:
        with socket.socket(socket.AF_INET6, socket.SOCK_DGRAM) as sock:
            sock.bind(("::1", 0))
    except OSError:
        return False
    return True


@pytest.mark.parametrize("n_peers", [1, 2])
@pytest.mark.parametrize(
    "bind,family",
    [
        ("127.0.0.1:0", socket.AF_INET),
        pytest.param(
            "[::1]:0", socket.AF_INET6,
            marks=pytest.mark.skipif(not _ipv6_loopback(), reason="::1 cannot be bound"),
        ),
    ],
    ids=["ipv4", "ipv6"],
)
def test_queued_runs_arrive_as_one_datagram_per_reply(ram, ledger, bind, family, n_peers):
    # Peers take turns in blocks of 7, so a drain holds runs to each peer.
    # Each reply must still reach its own peer as its own datagram, in that
    # peer's order, and equal what a twin RAM gives the same datagrams.
    datagrams, expected = _requests(_WINDOW, ledger)
    owner = [i // 7 % n_peers for i in range(_WINDOW)]
    svc = _service(ram, bind)
    probed = svc._segmented
    svc._sock = counting = _CountingSocket(svc._sock)
    peers = [socket.socket(family, socket.SOCK_DGRAM) for _ in range(n_peers)]
    try:
        for datagram, p in zip(datagrams, owner):
            peers[p].sendto(datagram, svc.address)
        thread, raised = _loop_in_thread(svc)
        for p, sock in enumerate(peers):
            sock.settimeout(5.0)
            mine = [reply for reply, o in zip(expected, owner) if o == p]
            assert [sock.recvfrom(64)[0] for _ in mine] == mine
        svc.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert raised == []
        for sock in peers:
            sock.setblocking(False)
            with pytest.raises(BlockingIOError):
                sock.recvfrom(64)
    finally:
        svc.close()
        for sock in peers:
            sock.close()
    assert svc.ledger.ops_by_status == ledger.ops_by_status
    assert svc.ledger.cycles == ledger.cycles == ram.cycle_count
    assert svc.ledger.energy_j == ledger.energy_j
    # Segmented sends were made only where the probe found UDP_SEGMENT.
    assert probed or counting.segmented == 0


# ------------------------------------------- one RAM, two front ends


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ram-run") / "ops.trace"


#: The status of each outcome word `ram-run` prints; a ReadOk's data follows
#: the word.
_OUTCOMES = {
    "WriteOk": Status.OK,
    "ReadOk": Status.OK,
    "AuthFail": Status.AUTH_FAIL,
    "AddrRange": Status.ADDR_RANGE,
}


@settings(max_examples=60)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 19), st.integers(0, 2**32 - 1)), max_size=30
    ),
    depth=st.integers(1, 16),
    key_ok=st.booleans(),
    std=st.sampled_from(IoStandard),
    channel=st.sampled_from(CHANNELS),
)
def test_ram_run_and_the_service_answer_a_trace_alike(trace_path, ops, depth, key_ok, std, channel):
    # `ram-run` and `serve` drive the same RAM and ledger: a trace run by the
    # one and sent, op by op, as datagrams to the other gives the same status
    # and read data per op, and the same counts and energy line.
    key = KEY if key_ok else WRONG
    trace_path.write_text(
        "".join(f"W {addr} {word:X}\n" if is_write else f"R {addr}\n" for is_write, addr, word in ops),
        encoding="utf-8",
    )
    argv = ["ram-run", "--trace", str(trace_path), "--depth", str(depth),
            "--device-key", f"{KEY:x}", "--key", f"{key:x}",
            "--standard", std.name, "--channel", str(channel.carrier_ghz)]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    *op_lines, counts, energy = out.getvalue().splitlines()
    run = []
    for line in op_lines:
        word, *data = line.split("-> ")[1].split()
        run.append((_OUTCOMES[word], int(data[0], 16) if data else 0))

    ram = IotRam(RamConfig(depth_words=depth, device_ipv6=KEY))
    ledger = make_ledger(std, channel, builtin_dataset())
    served = []
    for seq, (is_write, addr, word) in enumerate(ops):
        opcode, data = (Opcode.WRITE, word) if is_write else (Opcode.READ, 0)
        reply = decode_response(handle_datagram(encode_request(opcode, key, addr, data, seq), ram, ledger))
        assert reply.seq == seq
        served.append((reply.status, reply.data))
    assert run == served
    writes = sum(is_write and status is Status.OK for (is_write, _, _), (status, _) in zip(ops, served))
    count = ledger.ops_by_status.get
    assert counts == (
        f"cycles={ram.cycle_count} writes={writes} reads={count(Status.OK, 0) - writes} "
        f"auth_fails={count(Status.AUTH_FAIL, 0)} range_errors={count(Status.ADDR_RANGE, 0)}"
    )
    assert ledger.cycles == ram.cycle_count == len(ops)
    assert energy == (
        f"energy: {ledger.energy_j:.6e} J ({ledger.per_cycle_j:.6e} J/cycle at {std.name}, "
        f"{channel.carrier_ghz} GHz)"
    )
