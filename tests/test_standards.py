"""IO standard and WLAN channel enumerations."""

import copy
import math
import pickle

import pytest

from iotram.power import CHANNELS, STANDARDS, IoStandard, Rail, WlanChannel
from iotram.power.dataset import PowerBreakdown
from iotram.power.standards import channel_at


def test_supply_voltages():
    assert IoStandard.LVCMOS12.supply_voltage == 1.2
    assert IoStandard.LVCMOS15.supply_voltage == 1.5
    assert IoStandard.LVCMOS18.supply_voltage == 1.8
    assert IoStandard.LVCMOS25.supply_voltage == 2.5


def test_standards_sorted_by_voltage():
    assert STANDARDS == (
        IoStandard.LVCMOS12,
        IoStandard.LVCMOS15,
        IoStandard.LVCMOS18,
        IoStandard.LVCMOS25,
    )


@pytest.mark.parametrize(
    "text,expected",
    [
        ("LVCMOS12", IoStandard.LVCMOS12),
        ("lvcmos25", IoStandard.LVCMOS25),
        (" LVCMOS18 ", IoStandard.LVCMOS18),
        ("lvcmos_15", IoStandard.LVCMOS15),
    ],
)
def test_standard_parse(text, expected):
    assert IoStandard.parse(text) is expected


def test_standard_parse_rejects_unknown():
    with pytest.raises(ValueError):
        IoStandard.parse("LVCMOS33")


def test_channel_carriers_and_names():
    expected = {
        WlanChannel.GHZ_0_9: ("802.11ah", 0.9),
        WlanChannel.GHZ_2_4: ("802.11b/g/n", 2.4),
        WlanChannel.GHZ_3_6: ("802.11y", 3.6),
        WlanChannel.GHZ_5_0: ("802.11a/h/j/n/ac", 5.0),
        WlanChannel.GHZ_5_9: ("802.11p", 5.9),
    }
    for ch, (name, ghz) in expected.items():
        assert ch.ieee_name == name
        assert ch.carrier_ghz == ghz


def test_channels_sorted_by_carrier():
    carriers = [ch.carrier_ghz for ch in CHANNELS]
    assert carriers == [0.9, 2.4, 3.6, 5.0, 5.9]


def test_channel_from_ghz():
    assert WlanChannel.from_ghz(5.9) is WlanChannel.GHZ_5_9
    # The match tolerance is 1e-9 GHz either way.
    assert WlanChannel.from_ghz(2.4 + 5e-10) is WlanChannel.GHZ_2_4
    assert WlanChannel.from_ghz(2.4 - 5e-10) is WlanChannel.GHZ_2_4
    for ghz in (7.0, 2.4 + 1e-8, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as err:
            WlanChannel.from_ghz(ghz)
        assert str(err.value) == f"no WLAN channel at {ghz} GHz"


def test_channel_at_is_from_ghz_without_the_error():
    for ch in CHANNELS:
        for ghz in (ch.carrier_ghz, ch.carrier_ghz + 5e-10, ch.carrier_ghz - 5e-10):
            assert channel_at(ghz) is ch is WlanChannel.from_ghz(ghz)
    for ghz in (7.0, 2.4 + 1e-8, 2.4 - 1e-8, 0.0, -2.4, math.nan, math.inf, -math.inf):
        assert channel_at(ghz) is None


@pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_members_survive_copies_as_keys(clone):
    # Members hash by identity; a copied member is the same singleton, so it
    # still finds the cell keyed by the original.
    cells = {(std, ch): (std.name, ch.name) for std in STANDARDS for ch in CHANNELS}
    for (std, ch), want in cells.items():
        assert clone(std) is std and clone(ch) is ch
        assert cells[(clone(std), clone(ch))] == want
    assert clone(cells) == cells
    rails = {rail: rail.value for rail in Rail}
    assert {clone(rail): v for rail, v in rails.items()} == rails


@pytest.mark.parametrize(
    "text,expected",
    [
        ("802.11p", WlanChannel.GHZ_5_9),
        ("802.11B/G/N", WlanChannel.GHZ_2_4),
        ("0.9", WlanChannel.GHZ_0_9),
        ("5.0", WlanChannel.GHZ_5_0),
        ("3.6", WlanChannel.GHZ_3_6),
    ],
)
def test_channel_parse(text, expected):
    assert WlanChannel.parse(text) is expected


def test_channel_parse_rejects_unknown():
    with pytest.raises(ValueError):
        WlanChannel.parse("802.11q")
    with pytest.raises(ValueError):
        WlanChannel.parse("6.0")


def test_rail_fields():
    assert Rail.CLOCK.field == "clock_w"
    assert Rail.TOTAL.field == "total_w"
    assert all(rail.field == rail.value for rail in Rail)
    assert Rail.parse("io") is Rail.IO
    assert Rail.parse("LEAKAGE") is Rail.LEAKAGE
    with pytest.raises(ValueError):
        Rail.parse("thermal")


def test_rails_are_in_the_breakdown_field_order():
    # Tables and `validate` list the rails by iterating over `Rail`.
    assert tuple(rail.field for rail in Rail) == PowerBreakdown._fields
