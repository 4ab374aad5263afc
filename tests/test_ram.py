"""Key-gated RAM behavior, including a map-model equivalence property."""

import copy
import importlib
import ipaddress
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotram.ram import InvalidConfig, IotRam, RamConfig, Status
from iotram.ram.trace import TraceOp

from conftest import render_outcome

KEY = int(ipaddress.IPv6Address("2001:db8::1"))
WRONG = int(ipaddress.IPv6Address("2001:db8::2"))


@pytest.fixture
def ram():
    return IotRam(RamConfig(device_ipv6=KEY))


def test_default_geometry(ram):
    assert ram.config.depth_words == 256


def test_config_holds_only_depth_and_key():
    assert RamConfig._fields == ("depth_words", "device_ipv6")
    cfg = RamConfig(64, KEY)
    # A NamedTuple: equal to the plain tuple of its fields, and iterable.
    assert cfg == (64, KEY)
    assert list(cfg) == [64, KEY]
    assert cfg._asdict() == {"depth_words": 64, "device_ipv6": KEY}
    assert cfg == RamConfig(depth_words=64, device_ipv6=KEY)
    assert cfg != RamConfig(65, KEY)
    assert hash(cfg) == hash(RamConfig(64, KEY)) == hash((64, KEY))
    assert repr(cfg) == f"RamConfig(depth_words=64, device_ipv6={KEY})"
    with pytest.raises(AttributeError):
        cfg.depth_words = 128
    with pytest.raises(AttributeError):
        del cfg.device_ipv6
    with pytest.raises(AttributeError):
        cfg.extra = 0
    assert cfg._replace(depth_words=128) == RamConfig(128, KEY)
    with pytest.raises(InvalidConfig, match="depth_words must be >= 1, got 0"):
        cfg._replace(depth_words=0)
    for clone in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg), copy.copy(cfg)):
        assert type(clone) is RamConfig and clone == cfg


@pytest.mark.parametrize("module", ["iotram.ram", "iotram.net.service"])
def test_one_energy_ledger_class(module):
    # Trace runs and the datagram service tally in the same class.
    core = importlib.import_module("iotram.ram.core")
    assert getattr(importlib.import_module(module), "EnergyLedger") is core.EnergyLedger


def test_config_rejects_bad_geometry():
    with pytest.raises(InvalidConfig):
        RamConfig(depth_words=0)
    with pytest.raises(InvalidConfig):
        RamConfig(device_ipv6=1 << 128)
    with pytest.raises(InvalidConfig):
        RamConfig(device_ipv6=-1)
    # Addresses are 32-bit: 2**32 words is the deepest RAM.
    with pytest.raises(InvalidConfig, match=r"2\*\*32"):
        RamConfig(depth_words=(1 << 32) + 1)


def test_memory_starts_zeroed(ram):
    for addr in (0, 128, 255):
        out = ram.read(KEY, addr)
        assert out[0] is Status.OK
        assert out[1] == 0


def test_write_read_round_trip(ram):
    assert ram.write(KEY, 7, 0xDEADBEEF)[0] is Status.OK
    out = ram.read(KEY, 7)
    assert out[0] is Status.OK
    assert out[1] == 0xDEADBEEF


def test_write_masks_to_word(ram):
    ram.write(KEY, 0, (1 << 40) | 0xABCD)
    assert ram.read(KEY, 0)[1] == 0xABCD


def test_wrong_key_denied_without_mutation(ram):
    ram.write(KEY, 3, 0x1111)
    out = ram.write(WRONG, 3, 0x2222)
    assert out[0] is Status.AUTH_FAIL
    assert out[1] == 0
    assert ram.read(KEY, 3)[1] == 0x1111
    assert ram.read(WRONG, 3)[0] is Status.AUTH_FAIL


def test_auth_checked_before_address(ram):
    # A wrong key with an out-of-range address reports the key failure.
    assert ram.write(WRONG, 9999, 5)[0] is Status.AUTH_FAIL


def test_address_range(ram):
    assert ram.write(KEY, 255, 1)[0] is Status.OK
    assert ram.write(KEY, 256, 1)[0] is Status.ADDR_RANGE
    assert ram.read(KEY, -1)[0] is Status.ADDR_RANGE


def test_every_operation_costs_one_cycle(ram):
    ram.write(KEY, 0, 1)
    ram.read(KEY, 0)
    ram.write(WRONG, 0, 1)
    ram.read(KEY, 9999)
    assert ram.cycle_count == 4


def test_last_dout_holds_across_denials(ram):
    ram.write(KEY, 5, 0xCAFE)
    ram.read(KEY, 5)
    assert ram.last_dout == 0xCAFE
    ram.read(WRONG, 5)
    ram.read(KEY, 9999)
    assert ram.last_dout == 0xCAFE
    ram.read(KEY, 6)
    assert ram.last_dout == 0


def test_outcome_render(ram):
    write, read = TraceOp(1, True, 1, 0xABC), TraceOp(2, False, 1)
    assert render_outcome(write, *ram.write(KEY, 1, 0xABC)) == "WriteOk"
    assert render_outcome(read, *ram.read(KEY, 1)) == "ReadOk 00000ABC"
    assert render_outcome(read, *ram.read(WRONG, 1)) == "AuthFail"
    assert render_outcome(read, *ram.read(KEY, 300)) == "AddrRange"


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.sampled_from([KEY, WRONG, 0]),
        st.integers(min_value=-2, max_value=70),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    max_size=60,
)


@settings(max_examples=200)
@given(ops=ops_strategy)
def test_matches_map_model(ops):
    cfg = RamConfig(depth_words=64, device_ipv6=KEY)
    ram = IotRam(cfg)
    model: dict[int, int] = {}
    for kind, key, addr, data in ops:
        in_range = 0 <= addr < cfg.depth_words
        if kind == "write":
            out = ram.write(key, addr, data)
        else:
            out = ram.read(key, addr)
        if key != KEY:
            assert out[0] is Status.AUTH_FAIL
        elif not in_range:
            assert out[0] is Status.ADDR_RANGE
        elif kind == "write":
            assert out[0] is Status.OK
            model[addr] = data
        else:
            assert out[0] is Status.OK
            assert out[1] == model.get(addr, 0)
    assert ram.cycle_count == len(ops)
