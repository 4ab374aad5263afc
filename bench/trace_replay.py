"""Workload `trace-replay`: `iotram ram-run` over seeded trace files.

No socket is involved: this drives `ram.trace`, `ram.core` and the CLI's
per-operation output and energy line. Each round runs `ram-run` once on an
empty trace (its set-up time), once on each of TRACE_FILES seeded files, and
once more on the first file with a wrong `--key`. Every line printed, the
summary counts and the energy line are checked against a model of the RAM
computed here.
"""

from __future__ import annotations

import ipaddress
import json
import os
import random
import subprocess
import time
from statistics import median

import common
from common import CheckFailed

DEPTH = 512
TRACE_FILES = 3
OPS_PER_FILE = 20000
#: Share of operations whose address is past the depth.
PAST_DEPTH = 0.08
WRITE_SHARE = 0.55


def _trace_text(rng: random.Random) -> tuple[str, list[tuple[int, bool, int, int]]]:
    """A trace file and its operations as (line number, is write, addr, data)."""
    lines = ["# seeded trace: W <addr> <hex32> / R <addr>"]
    ops = []
    while len(ops) < OPS_PER_FILE:
        roll = rng.random()
        if roll < 0.01:
            lines.append("")
            continue
        if roll < 0.02:
            lines.append(f"# block {len(ops)}")
            continue
        if rng.random() < PAST_DEPTH:
            addr = rng.choice((DEPTH, DEPTH + rng.randrange(10000), 10**12 + rng.randrange(10)))
        else:
            addr = rng.randrange(DEPTH)
        is_write = rng.random() < WRITE_SHARE
        op = "W" if rng.random() < 0.9 else "w"
        if is_write:
            data = rng.getrandbits(32)
            text = rng.choice((f"{data:08X}", f"{data:x}", f"0x{data:X}"))
            line = f"{op} {addr} {text}"
        else:
            data = 0
            line = f"{'R' if op == 'W' else 'r'} {addr}"
        if rng.random() < 0.02:
            line += "   # note"
        lines.append(line)
        ops.append((len(lines), is_write, addr, data))
    return "\n".join(lines) + "\n", ops


def _expected(ops, key_ok: bool) -> tuple[str, int]:
    """The output `ram-run` must print, up to the energy line, and the cycles."""
    words: dict[int, int] = {}
    out = []
    writes = reads = auth = rng_err = 0
    for lineno, is_write, addr, data in ops:
        mnemonic = f"W {addr} {data:08X}" if is_write else f"R {addr}"
        if not key_ok:
            outcome, auth = "AuthFail", auth + 1
        elif addr >= DEPTH:
            outcome, rng_err = "AddrRange", rng_err + 1
        elif is_write:
            words[addr] = data
            outcome, writes = "WriteOk", writes + 1
        else:
            outcome, reads = f"ReadOk {words.get(addr, 0):08X}", reads + 1
        out.append(f"{lineno:>5}  {mnemonic:<24} -> {outcome}")
    out.append(f"cycles={len(ops)} writes={writes} reads={reads} "
               f"auth_fails={auth} range_errors={rng_err}")
    return "\n".join(out) + "\n", len(ops)


class Inputs:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.device_key = rng.getrandbits(128) | 1
        wrong = self.device_key ^ (1 << rng.randrange(128))
        device = str(ipaddress.IPv6Address(self.device_key))
        self.jobs = []  # (trace path, extra argv, expected text, cycles)
        first = None
        for i in range(TRACE_FILES):
            text, ops = _trace_text(rng)
            path = common.WORK / f"trace-{seed}-{i}.trace"
            path.write_text(text, encoding="utf-8")
            first = first or (path, ops)
            # The first file relies on --key defaulting to the device key.
            key_args = [] if i == 0 else ["--key", f"{self.device_key:x}"]
            self.jobs.append((path, ["--device-key", device, *key_args], *_expected(ops, True)))
        self.jobs.append((first[0], ["--device-key", device, "--key", f"{wrong:x}"],
                          *_expected(first[1], False)))
        self.empty = common.WORK / f"trace-{seed}-empty.trace"
        self.empty.write_text("", encoding="utf-8")
        self.empty_job = (self.empty, ["--device-key", device], *_expected([], True))
        self.out = common.WORK / f"trace-{seed}.out"


def _ram_run(inputs: Inputs, job, spans_path: str | None) -> dict:
    path, extra, expected, cycles = job
    args = [str(common.BENCH_DIR / "launch.py")]
    if spans_path:
        args += ["--spans", spans_path]
    args += ["ram-run", "--trace", str(path), "--depth", str(DEPTH),
             "--standard", common.SESSION_STANDARD, "--channel", common.SESSION_CHANNEL, *extra]
    with open(inputs.out, "w", encoding="utf-8") as out:
        proc = common.spawn(args, stdout=out, stderr=subprocess.PIPE, text=True)
        err = proc.stderr.read()
        code = common.reap(proc, 120)
        proc.stderr.close()
    if code != 0:
        raise CheckFailed(f"ram-run exited {code}: {err[-500:]}")
    printed = inputs.out.read_text(encoding="utf-8")
    body, _, energy_line = printed.rstrip("\n").rpartition("\n")
    if body + "\n" != expected:
        raise CheckFailed(f"ram-run output of {path.name} {extra} differs from the model "
                          f"at line {_first_difference(body + chr(10), expected)}")
    _check_energy_line(energy_line, cycles)
    timings = json.loads(err.strip().splitlines()[-1])
    timings["ops"] = cycles
    return timings


def _first_difference(a: str, b: str) -> int:
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return n
    return min(len(a.splitlines()), len(b.splitlines())) + 1


def _check_energy_line(line: str, cycles: int) -> None:
    head, _, tail = line.partition(" J (")
    if not head.startswith("energy: ") or not tail.endswith(" J/cycle at LVCMOS12, 2.4 GHz)"):
        raise CheckFailed(f"bad energy line {line!r}")
    per_cycle = float(tail.split(" ", 1)[0])
    common.check_energy(float(head[8:]), cycles * common.PER_CYCLE_J, f"energy line {line!r}")
    common.check_energy(per_cycle, common.PER_CYCLE_J, f"J/cycle on {line!r}")


def run(seed: int, seconds: float, traced: bool) -> dict:
    inputs = Inputs(seed)
    _ram_run(inputs, inputs.empty_job, None)  # warm-up, not measured
    setups, rates, rss, imports, traced_rates, calls = [], [], [], [], [], []
    spans_files: list[tuple[str, int]] = []
    attempted = 0
    deadline = time.monotonic() + seconds
    n_round = 0
    while time.monotonic() < deadline or (traced and not traced_rates):
        trace_this = traced and n_round % 2 == 1
        t = _ram_run(inputs, inputs.empty_job, None)
        setups.append((t["main_end_ns"] - t["t0_ns"]) / 1e9)
        ops = main_ns = 0
        peak = 0.0
        for i, job in enumerate(inputs.jobs):
            spans = str(common.WORK / f"spans-trace-{seed}-{n_round}-{i}.json") if trace_this else None
            t = _ram_run(inputs, job, spans)
            if spans:
                spans_files.append((spans, t["ops"]))
            ops += t["ops"]
            main_ns += t["main_end_ns"] - t["main_start_ns"]
            peak = max(peak, t["rss_mb"])
            if not trace_this:
                calls.append((t["main_end_ns"] - t["t0_ns"]) / 1e3)
            imports.append((t["imported_ns"] - t["t0_ns"]) / 1e6)
        attempted += ops
        (traced_rates if trace_this else rates).append(ops / (main_ns / 1e9))
        if not trace_this:
            rss.append(peak)
        n_round += 1
    while len(setups) < common.MIN_SETUP_SAMPLES:
        t = _ram_run(inputs, inputs.empty_job, None)
        setups.append((t["main_end_ns"] - t["t0_ns"]) / 1e9)
    for path in (*{job[0] for job in inputs.jobs}, inputs.empty, inputs.out):
        os.unlink(path)

    notes = [f"trace-replay: {len(rates)} untraced rounds of {len(inputs.jobs)} ram-run calls, "
             f"{sum(j[3] for j in inputs.jobs)} operations per round"]
    result = {
        "attempted": attempted, "failed": 0, "notes": notes,
        "metrics": {
            "setup_s": (median(setups), "s"),
            "throughput_per_s": (common.sustained_rate(rates), "1/s"),
            "latency_p50_us": (median(calls), "us"),
            "peak_rss_mb": (median(rss), "MB"),
        },
    }
    if traced:
        layers = layer_metrics(spans_files)
        layers["cli.import_ms"] = (median(imports), "ms")
        overhead = 100.0 * (1.0 - common.sustained_rate(traced_rates) / common.sustained_rate(rates))
        layers["trace.overhead_pct"] = (overhead, "%")
        notes.append(f"tracing overhead on replay throughput: {overhead:.1f}%")
        result["layers"] = layers
    return result


def layer_metrics(spans_files: list[tuple[str, int]]) -> dict:
    from tracing import Spans

    per_call: dict[str, list[int]] = {}
    per_op = {"parse": 0, "run": 0, "main": 0}
    ops = 0
    for path, n_ops in spans_files:
        s = Spans.load(path)
        os.unlink(path)
        ops += n_ops
        per_op["parse"] += sum(s.durations("ram.trace.parse_trace"))
        per_op["run"] += sum(s.durations("ram.trace.run_trace", True))
        per_op["main"] += sum(s.durations("cli.main", True))
        for name in ("ram.core.read", "ram.core.write"):
            per_call.setdefault(name, []).extend(s.durations(name))
    layers = {f"{name}_us": (median(v) / 1e3, "us") for name, v in per_call.items()}
    layers["ram.trace.parse_trace_us_per_op"] = (per_op["parse"] / ops / 1e3, "us")
    layers["ram.trace.run_trace_us_per_op"] = (per_op["run"] / ops / 1e3, "us")
    layers["cli.ram_run_self_us_per_op"] = (per_op["main"] / ops / 1e3, "us")
    return layers
