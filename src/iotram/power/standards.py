"""LVCMOS IO standards and the WLAN channel set the device is clocked at.

The enums here key every grid cell and fit, so they hash by identity, in C,
where `Enum.__hash__` hashes the name in Python. Members are singletons, also
when pickled or copied, and compare by identity, so equality is unchanged.
"""

from __future__ import annotations

import enum


class IoStandard(enum.Enum):
    """Low-voltage CMOS IO bank configurations, by supply voltage."""

    LVCMOS12 = 1.2
    LVCMOS15 = 1.5
    LVCMOS18 = 1.8
    LVCMOS25 = 2.5

    __hash__ = object.__hash__

    @property
    def supply_voltage(self) -> float:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "IoStandard":
        """Resolve a standard from its name, case-insensitively."""
        key = text.strip().upper().replace(" ", "").replace("_", "")
        try:
            return cls[key]
        except KeyError:
            raise ValueError(f"unknown IO standard: {text!r}") from None


class WlanChannel(enum.Enum):
    """802.11 channel variants; the carrier doubles as the modeled clock rate."""

    GHZ_0_9 = ("802.11ah", 0.9)
    GHZ_2_4 = ("802.11b/g/n", 2.4)
    GHZ_3_6 = ("802.11y", 3.6)
    GHZ_5_0 = ("802.11a/h/j/n/ac", 5.0)
    GHZ_5_9 = ("802.11p", 5.9)

    __hash__ = object.__hash__

    def __init__(self, ieee_name: str, carrier_ghz: float):
        self.ieee_name = ieee_name
        self.carrier_ghz = carrier_ghz

    @classmethod
    def from_ghz(cls, ghz: float) -> "WlanChannel":
        ch = channel_at(ghz)
        if ch is None:
            raise ValueError(f"no WLAN channel at {ghz} GHz")
        return ch

    @classmethod
    def parse(cls, text: str) -> "WlanChannel":
        """Resolve a channel from an IEEE name ("802.11p") or GHz value ("5.9")."""
        key = text.strip()
        for ch in cls:
            if ch.ieee_name.lower() == key.lower():
                return ch
        try:
            ghz = float(key)
        except ValueError:
            raise ValueError(f"unknown WLAN channel: {text!r}") from None
        return cls.from_ghz(ghz)


#: Channels in ascending carrier order; the canonical iteration order everywhere.
CHANNELS: tuple[WlanChannel, ...] = tuple(
    sorted(WlanChannel, key=lambda ch: ch.carrier_ghz)
)

_CARRIERS: tuple[tuple[float, WlanChannel], ...] = tuple((ch.carrier_ghz, ch) for ch in CHANNELS)


def channel_at(ghz: float) -> WlanChannel | None:
    """The channel whose carrier is within 1e-9 GHz of `ghz`, or None.

    The one owner of the match tolerance; it raises nothing, so callers for
    which an off-grid frequency is no error pay for no exception.
    """
    for carrier, ch in _CARRIERS:
        if abs(carrier - ghz) < 1e-9:
            return ch
    return None


#: Standards in ascending supply-voltage order.
STANDARDS: tuple[IoStandard, ...] = tuple(
    sorted(IoStandard, key=lambda s: s.supply_voltage)
)


class Rail(enum.Enum):
    """One additive component of device power, plus the printed total,
    in PowerBreakdown's field order."""

    CLOCK = "clock_w"
    SIGNAL = "signal_w"
    BRAM = "bram_w"
    IO = "io_w"
    LEAKAGE = "leakage_w"
    TOTAL = "total_w"

    __hash__ = object.__hash__

    def __init__(self, field: str):
        #: The PowerBreakdown attribute that holds this rail.
        self.field = field

    @classmethod
    def parse(cls, text: str) -> "Rail":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown rail: {text!r}") from None
