"""Workload `udp-serve`: `iotram serve` over loopback, from one client socket.

Each round starts a fresh `serve` process and drives it in two phases:

* lockstep: LOCKSTEP_REQUESTS valid, read-mostly requests, one outstanding;
  each round trip is timed, which gives the unloaded latency;
* windowed: WINDOWED_REQUESTS write-heavy requests with a hostile share,
  WINDOW outstanding; the server is then the bottleneck, which gives the rate.

The client and the server share one CPU, set by affinity on the client
before the server starts. On a 2-vCPU host, letting them run on two CPUs
made the rate of a round flip between about 53k and 80k replies/s and the
lockstep median between 25 and 55 us, as cross-CPU wake-ups changed cost
from one second to the next; on one CPU rounds agreed within about 2%. The
rate is then the inverse of the CPU that client, kernel and server spend per
request, of which the server's share is the larger (the traced run reports
it as net.service.server_cpu_us_per_req).

Every request and its expected reply are computed before the round by a
client-side model of the RAM (address -> last written word), the key, the
depth and the cycle counter; replies are matched in send order because
malformed frames echo sequence 0. The round ends with SIGINT, and the ledger
the server prints must equal the model's tallies.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import socket
import statistics
import struct
import subprocess
import time
from statistics import median

import common
from common import CheckFailed

REQUEST = struct.Struct(">2sBB16sIIH")
RESPONSE = struct.Struct(">2sBBIH")
MAGIC, VERSION = b"IR", 1
READ, WRITE, STATUS = 0, 1, 2
OK, AUTH_FAIL, ADDR_RANGE, MALFORMED, BAD_OPCODE = range(5)
STATUS_NAMES = ("OK", "AUTH_FAIL", "ADDR_RANGE", "MALFORMED", "BAD_OPCODE")

DEPTH = 1024
HOT_WORDS = 64
LOCKSTEP_REQUESTS = 4000
WINDOWED_REQUESTS = 40000
WINDOW = 64
#: Replies per throughput sample in the windowed phase.
CHUNK = 2000
#: One request in RTT_SAMPLE has its windowed round trip timed.
RTT_SAMPLE = 64
REPLY_TIMEOUT_S = 2

#: Windowed-phase mix, in parts per hundred: write-heavy, with every status
#: path taken. "long31" is a valid request plus one byte, which must be
#: answered MALFORMED, not decoded as the 30-byte request inside it.
WINDOWED_MIX = {
    "write": 50, "read": 20, "status": 5, "wrong_key": 5, "past_depth": 5,
    "bad_opcode": 3, "bad_magic": 3, "bad_version": 3, "short": 3, "long31": 3,
}
LOCKSTEP_MIX = {"read": 85, "write": 10, "status": 5}

LEDGER_RE = re.compile(r"ops_total=(\d+) \[(.*)\] cycles=(\d+) energy=(\S+) J$")
LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+) \(LVCMOS12, 2\.4 GHz, (\S+) J/cycle\)$")


class Model:
    """What the server must answer, request by request."""

    def __init__(self, key: int):
        self.key = key
        self.words: dict[int, int] = {}
        self.cycles = 0
        self.by_status = [0] * 5

    def answer(self, status: int, data: int, seq: int, cycle_cost: int) -> bytes:
        self.cycles += cycle_cost
        self.by_status[status] += 1
        return RESPONSE.pack(MAGIC, VERSION, status, data, seq)

    def request(self, rng: random.Random, kind: str, seq: int) -> tuple[bytes, bytes]:
        key, addr, data = self.key, rng.randrange(HOT_WORDS), rng.getrandbits(32)
        if kind == "read":
            return (_frame(READ, key, addr, 0, seq),
                    self.answer(OK, self.words.get(addr, 0), seq, 1))
        if kind == "write":
            self.words[addr] = data
            return _frame(WRITE, key, addr, data, seq), self.answer(OK, 0, seq, 1)
        if kind == "status":
            # STATUS needs no key and reports the counter without a cycle.
            return (_frame(STATUS, rng.getrandbits(128), addr, data, seq),
                    self.answer(OK, self.cycles & 0xFFFFFFFF, seq, 0))
        if kind == "wrong_key":
            bad = key ^ (1 << rng.randrange(128))
            return (_frame(rng.choice((READ, WRITE)), bad, addr, data, seq),
                    self.answer(AUTH_FAIL, 0, seq, 1))
        if kind == "past_depth":
            far = rng.choice((DEPTH, DEPTH + rng.randrange(1 << 20), 0xFFFFFFFF))
            return (_frame(rng.choice((READ, WRITE)), key, far, data, seq),
                    self.answer(ADDR_RANGE, 0, seq, 1))
        if kind == "bad_opcode":
            return (_frame(rng.randrange(3, 256), key, addr, data, seq),
                    self.answer(BAD_OPCODE, 0, seq, 0))
        if kind == "bad_magic":
            frame = b"RI" + _frame(READ, key, addr, data, seq)[2:]
            return frame, self.answer(MALFORMED, 0, seq, 0)
        if kind == "bad_version":
            frame = REQUEST.pack(MAGIC, rng.choice((0, 2, 255)), READ,
                                 key.to_bytes(16, "big"), addr, data, seq)
            return frame, self.answer(MALFORMED, 0, seq, 0)
        if kind == "short":
            frame = _frame(WRITE, key, addr, data, seq)[: rng.randrange(1, 30)]
            return frame, self.answer(MALFORMED, 0, 0, 0)
        if kind == "long31":
            frame = _frame(WRITE, key, addr, data, seq) + b"\x00"
            return frame, self.answer(MALFORMED, 0, 0, 0)
        raise ValueError(kind)

    def ledger_line(self) -> str:
        counts = ", ".join(
            f"{name}={n}" for name, n in zip(STATUS_NAMES, self.by_status) if n
        )
        return f"ops_total={sum(self.by_status)} [{counts}] cycles={self.cycles}"


def _frame(opcode: int, key: int, addr: int, data: int, seq: int) -> bytes:
    return REQUEST.pack(MAGIC, VERSION, opcode, key.to_bytes(16, "big"), addr, data, seq)


def _draw(rng: random.Random, mix: dict[str, int], n: int) -> list[str]:
    return rng.choices(list(mix), weights=list(mix.values()), k=n)


def build_round(seed: int):
    """Requests, expected replies and the final ledger of one round."""
    rng = random.Random(seed)
    key = rng.getrandbits(128) | 1
    model = Model(key)
    lock = [model.request(rng, kind, i & 0xFFFF)
            for i, kind in enumerate(_draw(rng, LOCKSTEP_MIX, LOCKSTEP_REQUESTS))]
    win = [model.request(rng, kind, (LOCKSTEP_REQUESTS + i) & 0xFFFF)
           for i, kind in enumerate(_draw(rng, WINDOWED_MIX, WINDOWED_REQUESTS))]
    return key, lock, win, model


def _cpu_ticks(pid: int) -> int:
    with open(f"/proc/{pid}/stat", "r") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime + stime


class Round:
    """One `serve` process: its set-up, both phases, and its shutdown."""

    def __init__(self, key: int, spans_path: str | None = None):
        args = ["-u", str(common.BENCH_DIR / "launch.py")]
        if spans_path:
            args += ["--spans", spans_path]
        args += ["serve", "--bind", "127.0.0.1:0", "--standard", common.SESSION_STANDARD,
                 "--channel", common.SESSION_CHANNEL, "--device-key", f"{key:x}",
                 "--depth", str(DEPTH)]
        self.traced = spans_path is not None
        self.proc = common.spawn(args, stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.listening_ns = time.monotonic_ns()
        m = LISTEN_RE.match(line.rstrip("\n"))
        if not m:
            self.proc.kill()
            self.proc.communicate()
            raise CheckFailed(f"serve printed {line!r} instead of its listening line")
        common.check_energy(float(m.group(3)), common.PER_CYCLE_J, "J/cycle on the listening line")
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                             struct.pack("ll", REPLY_TIMEOUT_S, 0))
        self.sock.connect((m.group(1), int(m.group(2))))
        self.failed = 0

    def lockstep(self, requests) -> list[int]:
        send, recv, clock = self.sock.send, self.sock.recv, time.perf_counter_ns
        rtts = []
        for frame, expected in requests:
            t = clock()
            send(frame)
            try:
                reply = recv(64)
            except BlockingIOError:
                raise CheckFailed(f"no reply within {REPLY_TIMEOUT_S} s in lockstep") from None
            rtts.append(clock() - t)
            if reply != expected:
                self.failed += 1
        return rtts

    def windowed(self, requests) -> tuple[list[float], list[int], int]:
        """Returns replies per second over each CHUNK replies, sampled round
        trips, and the server's CPU ticks over the phase."""
        send, recv, clock = self.sock.send, self.sock.recv, time.perf_counter_ns
        frames = [frame for frame, _ in requests]
        expected = [reply for _, reply in requests]
        n = len(frames)
        marks, rtts, sent_at = [], [], {}
        ticks0 = _cpu_ticks(self.proc.pid)
        sent_at[0] = clock()
        for frame in frames[:WINDOW]:
            send(frame)
        nxt = min(WINDOW, n)
        for i in range(n):
            if i % CHUNK == 0:
                marks.append(clock())
            try:
                reply = recv(64)
            except BlockingIOError:
                raise CheckFailed(f"no reply within {REPLY_TIMEOUT_S} s in the windowed phase") from None
            if i in sent_at:
                rtts.append(clock() - sent_at.pop(i))
            if reply != expected[i]:
                self.failed += 1
            if nxt < n:
                if nxt % RTT_SAMPLE == 0:
                    sent_at[nxt] = clock()
                send(frames[nxt])
                nxt += 1
        marks.append(clock())
        ticks = _cpu_ticks(self.proc.pid) - ticks0
        # The first chunk includes filling the window; it is left out.
        rates = [CHUNK / ((b - a) / 1e9) for a, b in zip(marks[1:-1], marks[2:])]
        return rates, rtts, ticks

    def kill(self) -> None:
        self.sock.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def finish(self, model: Model) -> dict:
        """Stop the server, check its ledger, and return its timings."""
        if self.traced:
            self.proc.stdin.write("close\n")
            self.proc.stdin.flush()
        else:
            self.proc.send_signal(signal.SIGINT)
        self.sock.close()
        out = self.proc.stdout.read()
        err = self.proc.stderr.read()
        code = common.reap(self.proc, 30)
        for stream in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            stream.close()
        if code != 0:
            raise CheckFailed(f"serve exited {code}: {err[-500:]}")
        m = LEDGER_RE.match(out.strip().splitlines()[-1]) if out.strip() else None
        if not m:
            raise CheckFailed(f"serve printed no ledger: {out!r}")
        printed = f"ops_total={m.group(1)} [{m.group(2)}] cycles={m.group(3)}"
        if printed != model.ledger_line():
            raise CheckFailed(f"ledger {printed!r} != model {model.ledger_line()!r}")
        common.check_energy(float(m.group(4)), model.cycles * common.PER_CYCLE_J, "ledger energy")
        timings = json.loads(err.strip().splitlines()[-1])
        timings["setup_s"] = (self.listening_ns - timings["t0_ns"]) / 1e9
        return timings


def setup_only(key: int) -> float:
    """Start `serve`, wait for its listening line, and stop it again.

    One STATUS round trip comes before SIGINT: `serve` prints its listening
    line before it enters the block that turns Ctrl-C into the ledger, and a
    signal sent in between ends it with a traceback.
    """
    model = Model(key)
    r = Round(key)
    try:
        r.lockstep([model.request(random.Random(0), "status", 0)])
    except BaseException:
        r.kill()
        raise
    return r.finish(model)["setup_s"]


def run(seed: int, seconds: float, traced: bool) -> dict:
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return _run(seed, seconds, traced)
    finally:
        os.sched_setaffinity(0, allowed)


def _run(seed: int, seconds: float, traced: bool) -> dict:
    key, lock, win, model = build_round(seed)
    setup_only(key)  # warm-up: compiled bytecode and page cache, not measured
    setups, lat_all, win_rtts, rates, cpu, rss, failed, attempted = ([] for _ in range(8))
    traced_rates, spans_files, closes, imports = [], [], [], []
    tick_us = 1e6 / os.sysconf("SC_CLK_TCK")
    deadline = time.monotonic() + seconds
    n_round = 0
    while time.monotonic() < deadline or (traced and not spans_files):
        spans_path = None
        if traced and n_round % 2 == 1:
            spans_path = str(common.WORK / f"spans-udp-{seed}-{n_round}.json")
        r = Round(key, spans_path)
        try:
            rtts = r.lockstep(lock)
            chunk_rates, wrtts, ticks = r.windowed(win)
        except BaseException:
            r.kill()
            raise
        attempted.append(len(lock) + len(win))
        failed.append(r.failed)
        t = r.finish(model)
        setups.append(t["setup_s"])
        imports.append((t["imported_ns"] - t["t0_ns"]) / 1e6)
        if spans_path:
            traced_rates.extend(chunk_rates)
            spans_files.append(spans_path)
            closes.append((t["serve_end_ns"] - t["close_ns"]) / 1e6)
        else:
            rates.extend(chunk_rates)
            rss.append(t["rss_mb"])
            cpu.append(ticks * tick_us / len(win))
            lat_all.extend(rtts)
            win_rtts.extend(wrtts)
        n_round += 1
    while len(setups) < common.MIN_SETUP_SAMPLES:
        setups.append(setup_only(key))
        attempted.append(1)

    p99 = statistics.quantiles(lat_all, n=100)[98] / 1e3
    notes = [
        f"udp-serve: {len(rss)} untraced rounds of {LOCKSTEP_REQUESTS} lockstep + "
        f"{WINDOWED_REQUESTS} windowed requests (window {WINDOW}); windowed rate quartiles "
        + " / ".join(f"{q:.0f}" for q in statistics.quantiles(rates, n=4)) + " per s over "
        f"{len(rates)} chunks of {CHUNK}",
        f"lockstep round trip p99 {p99:.1f} us over {len(lat_all)} samples; "
        f"windowed round trip p50 {median(win_rtts) / 1e3:.1f} us over "
        f"{len(win_rtts)} samples",
        f"server CPU {median(cpu):.2f} us per windowed request, "
        f"{median(cpu) * median(rates) / 1e6:.0%} of the shared CPU",
    ]
    result = {
        "attempted": sum(attempted), "failed": sum(failed), "notes": notes,
        "metrics": {
            "setup_s": (median(setups), "s"),
            "throughput_per_s": (common.sustained_rate(rates), "1/s"),
            "latency_p50_us": (median(lat_all) / 1e3, "us"),
            "peak_rss_mb": (median(rss), "MB"),
        },
    }
    if traced:
        layers = layer_metrics(spans_files)
        layers["net.service.server_cpu_us_per_req"] = (median(cpu), "us")
        layers["net.service.close_ms"] = (median(closes), "ms")
        layers["cli.import_ms"] = (median(imports), "ms")
        overhead = 100.0 * (1.0 - common.sustained_rate(traced_rates) / common.sustained_rate(rates))
        layers["trace.overhead_pct"] = (overhead, "%")
        notes.append(f"tracing overhead on windowed throughput: {overhead:.1f}%")
        result["layers"] = layers
    return result


def layer_metrics(spans_files: list[str]) -> dict:
    from tracing import Spans

    acc: dict[str, list[int]] = {}

    def add(name: str, values) -> None:
        acc.setdefault(name, []).extend(values)

    for path in spans_files:
        s = Spans.load(path)
        os.unlink(path)
        add("net.frames.decode_request_us", s.durations("net.frames.decode_request"))
        add("net.frames.encode_response_us", s.durations("net.frames.encode_response"))
        add("net.service.handle_datagram_us", s.durations("net.service.handle_datagram", True))
        add("net.service.ledger_record_us", s.durations("net.service.ledger_record"))
        add("ram.core.read_us", s.durations("ram.core.read"))
        add("ram.core.write_us", s.durations("ram.core.write"))
        # Gaps between one handle() and the next in the windowed phase: the
        # receive, the send and the loop around them.
        handles = s.by_name["net.service.handle"][LOCKSTEP_REQUESTS:]
        add("net.service.loop_gap_us",
            [s.starts[b] - s.ends[a] for a, b in zip(handles, handles[1:])])
    return {name: (median(v) / 1e3, "us") for name, v in acc.items()}
