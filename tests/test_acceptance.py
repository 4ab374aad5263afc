"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints one PASS line on success (visible with -v via the test
name, and in captured output with -s); a failure reads as the criterion
number plus the offending values. C1-C6 cover the calibration data and
model, C7-C8 the RAM and wire protocol, C9 energy accounting.
"""

import ipaddress
import math
import random

from iotram.cli import EXIT_OK, main
from iotram.net import Opcode, decode_request, decode_response, encode_request
from iotram.net.service import handle_datagram, make_ledger
from iotram.power import (
    IoStandard,
    Rail,
    STANDARDS,
    WlanChannel,
    builtin_dataset,
    fit,
    reduction,
)
from iotram.power.model import max_relative_residuals
from iotram.ram import IotRam, RamConfig, Status

DEVICE_KEY = int(ipaddress.IPv6Address("2001:db8::1"))


def test_c1_golden_dataset(golden_grid):
    """All 20 cells x 6 fields match the published tables exactly."""
    ds = builtin_dataset()
    checked = 0
    for ghz, block in golden_grid.items():
        ch = WlanChannel.from_ghz(ghz)
        for rail_name, row in block.items():
            rail = Rail.parse(rail_name)
            for std, expected in zip(STANDARDS, row):
                assert ds.lookup(std, ch).rail(rail) == expected, (
                    f"C1: ({std.name}, {ghz} GHz, {rail_name}) != {expected}"
                )
                checked += 1
    assert checked == 120
    print("C1 PASS: 120/120 golden cells exact")


def test_c2_row_sums():
    """|total - sum(rails)| <= 0.005 W everywhere; the known 1 mW gap holds."""
    ds = builtin_dataset()
    for (std, ch), cell in ds.cells.items():
        assert cell.row_sum_error_w <= 0.005, (
            f"C2: ({std.name}, {ch.carrier_ghz}) off by {cell.row_sum_error_w}"
        )
    gap = ds.lookup(IoStandard.LVCMOS12, WlanChannel.GHZ_0_9)
    assert math.isclose(gap.rail_sum_w, 2.623, abs_tol=1e-9)
    assert gap.total_w == 2.624
    print("C2 PASS: all 20 row sums within 0.005 W (worst case 2.623 vs 2.624)")


def test_c3_reduction_figures():
    """Published LVCMOS25->LVCMOS12 reductions recompute to +/-0.06 pp."""
    ds = builtin_dataset()
    cases = [
        (Rail.IO, 0.9, 64.91),
        (Rail.IO, 2.4, 64.99),
        (Rail.TOTAL, 3.6, 6.47),
        (Rail.LEAKAGE, 0.9, 0.30),
        (Rail.LEAKAGE, 5.0, 1.34),
        (Rail.IO, 5.9, 65.04),
    ]
    for rail, ghz, expected in cases:
        actual = reduction(
            ds, rail, IoStandard.LVCMOS25, IoStandard.LVCMOS12, WlanChannel.from_ghz(ghz)
        ).percent
        assert abs(actual - expected) <= 0.06, (
            f"C3: {rail.name} at {ghz} GHz gives {actual:.3f}%, wanted {expected}%"
        )
    print("C3 PASS: 6/6 reduction figures within 0.06 pp")


def test_c4_inconsistency_flags(capsys):
    """validate on the builtin grid flags the three documented source
    discrepancies (one comparison-table cell, the 88.45% and 85% quotes)
    and still exits 0."""
    code = main(["validate"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.count("TABLE7_MISMATCH") == 1
    claim_lines = [ln for ln in out.splitlines() if "CLAIM_MISMATCH" in ln]
    assert len(claim_lines) == 2
    assert any("88.45" in ln for ln in claim_lines)
    assert any("85.00" in ln for ln in claim_lines)
    print("C4 PASS: 1 TABLE7_MISMATCH + 2 CLAIM_MISMATCH (88.45%, 85%), exit 0")


def test_c5_fit_residual_bounds():
    """OLS fits stay within the stated per-rail residual bounds and hit the
    representative slopes."""
    ds = builtin_dataset()
    coeffs = fit(ds)
    res = max_relative_residuals(ds, coeffs)
    assert res["bram"] < 0.002, f"C5: bram residual {res['bram']:.4f}"
    assert res["clock"] < 0.02, f"C5: clock residual {res['clock']:.4f}"
    assert res["signal"] < 0.01, f"C5: signal residual {res['signal']:.4f}"
    for std in STANDARDS:
        assert res[f"io[{std.name}]"] < 0.01
        assert res[f"leakage[{std.name}]"] < 0.01
    assert round(coeffs.bram.slope_w_per_ghz, 4) == 1.2759
    assert round(coeffs.io[IoStandard.LVCMOS12].slope_w_per_ghz, 4) == 0.0666
    print("C5 PASS: residual bounds met; bram 1.2759 W/GHz, io[LVCMOS12] 0.0666 W/GHz")


def test_c6_monotonicity():
    """Every rail strictly increases with frequency per standard; io and
    total strictly increase with voltage per channel. Exhaustive."""
    ds = builtin_dataset()
    channels = ds.channels()
    standards = ds.standards()
    rails = (Rail.CLOCK, Rail.SIGNAL, Rail.BRAM, Rail.IO, Rail.LEAKAGE, Rail.TOTAL)
    pairs = 0
    for std in standards:
        for rail in rails:
            values = [ds.lookup(std, ch).rail(rail) for ch in channels]
            for a, b in zip(values, values[1:]):
                assert a < b, f"C6: {rail.name} not increasing in f for {std.name}"
                pairs += 1
    for ch in channels:
        for rail in (Rail.IO, Rail.TOTAL):
            values = [ds.lookup(std, ch).rail(rail) for std in standards]
            for a, b in zip(values, values[1:]):
                assert a < b, f"C6: {rail.name} not increasing in V at {ch.carrier_ghz}"
                pairs += 1
    assert pairs == 4 * 6 * 4 + 5 * 2 * 3
    print(f"C6 PASS: {pairs} ordered pairs strictly monotone")


def test_c7_ram_map_oracle():
    """>= 10^4 random op sequences agree with a dict model; wrong keys never
    mutate memory."""
    rng = random.Random(0x1071)
    depth = 32
    sequences = 10_000
    total_ops = 0
    for _ in range(sequences):
        ram = IotRam(RamConfig(depth_words=depth, device_ipv6=DEVICE_KEY))
        model: dict[int, int] = {}
        seq_ops = rng.randint(1, 8)
        for _ in range(seq_ops):
            write = rng.random() < 0.5
            key = rng.choice((DEVICE_KEY, DEVICE_KEY, DEVICE_KEY, DEVICE_KEY ^ 1, 0))
            addr = rng.randint(-1, depth + 4)
            data = rng.getrandbits(32)
            outcome = ram.write(key, addr, data) if write else ram.read(key, addr)
            total_ops += 1
            if key != DEVICE_KEY:
                assert outcome[0] is Status.AUTH_FAIL
            elif not 0 <= addr < depth:
                assert outcome[0] is Status.ADDR_RANGE
            elif write:
                assert outcome[0] is Status.OK
                model[addr] = data
            else:
                assert outcome[0] is Status.OK
                assert outcome[1] == model.get(addr, 0)
        assert ram.cycle_count == seq_ops
    assert total_ops >= 10_000

    # Wrong-key fuzz against a populated memory.
    ram = IotRam(RamConfig(depth_words=depth, device_ipv6=DEVICE_KEY))
    for addr in range(depth):
        ram.write(DEVICE_KEY, addr, addr * 7 + 1)
    snapshot = dict(ram.words)
    for _ in range(10_000):
        key = rng.getrandbits(128)
        if key == DEVICE_KEY:
            continue
        addr = rng.randint(0, depth - 1)
        if rng.random() < 0.5:
            outcome = ram.write(key, addr, rng.getrandbits(32))
        else:
            outcome = ram.read(key, addr)
        assert outcome[0] is Status.AUTH_FAIL
    assert ram.words == snapshot
    print(f"C7 PASS: {sequences} sequences ({total_ops} ops) match the map model; "
          "10000 wrong-key ops left memory untouched")


def test_c8_protocol_round_trip_and_fuzz():
    """Codec identity over >= 10^4 random frames; >= 10^5 arbitrary datagrams
    (<= 64 KiB) each yield exactly one well-formed response."""
    rng = random.Random(0x30AA)
    for _ in range(10_000):
        opcode = rng.choice((Opcode.READ, Opcode.WRITE, Opcode.STATUS))
        key = rng.getrandbits(128)
        addr = rng.getrandbits(32)
        data = rng.getrandbits(32)
        seq = rng.getrandbits(16)
        frame = decode_request(encode_request(opcode, key, addr, data, seq))
        assert (frame.opcode, frame.target_key, frame.addr, frame.data, frame.seq) == (
            opcode, key, addr, data, seq,
        )

    ram = IotRam(RamConfig(device_ipv6=DEVICE_KEY))
    ledger = make_ledger(IoStandard.LVCMOS12, WlanChannel.GHZ_2_4, builtin_dataset())
    total = 100_000
    for i in range(total):
        roll = rng.random()
        if roll < 0.45:
            datagram = rng.randbytes(rng.randint(0, 40))
        elif roll < 0.70:
            datagram = rng.randbytes(30)
        elif roll < 0.95:
            # Mutate one byte of a valid frame.
            buf = bytearray(
                encode_request(
                    rng.choice((Opcode.READ, Opcode.WRITE, Opcode.STATUS)),
                    rng.getrandbits(128),
                    rng.getrandbits(32),
                    rng.getrandbits(32),
                    rng.getrandbits(16),
                )
            )
            buf[rng.randrange(30)] = rng.getrandbits(8)
            datagram = bytes(buf)
        else:
            datagram = rng.randbytes(rng.randint(31, 65536))
        response = handle_datagram(datagram, ram, ledger)
        assert len(response) == 10
        decode_response(response)  # well-formed or the test fails
    assert ledger.ops_total == total
    print(f"C8 PASS: 10000 codec round-trips; {total} fuzz datagrams, "
          "one well-formed response each")


def test_c9_energy_ledger():
    """1000 accepted ops at (LVCMOS12, 2.4 GHz) accumulate 2.0204 uJ +/- 0.001 uJ."""
    ram = IotRam(RamConfig(device_ipv6=DEVICE_KEY))
    ledger = make_ledger(IoStandard.LVCMOS12, WlanChannel.GHZ_2_4, builtin_dataset())
    for i in range(1000):
        response = decode_response(
            handle_datagram(
                encode_request(Opcode.WRITE, DEVICE_KEY, i % 256, i, i % 65536),
                ram,
                ledger,
            )
        )
        assert response.status is Status.OK
    assert ledger.cycles == 1000
    assert abs(ledger.energy_j - 2.0204e-6) <= 1e-9, f"C9: {ledger.energy_j} J"
    assert math.isclose(ledger.energy_j, 1000 * 4.849 / 2.4e9, rel_tol=1e-12)
    print(f"C9 PASS: 1000 accepted ops -> {ledger.energy_j * 1e6:.6f} uJ")
