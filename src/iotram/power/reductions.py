"""Reduction percentages between IO standards, and cross-checks against the
published comparison table and headline claims.

The calibration grid (the per-channel tables) is authoritative. The source
document also prints a standalone IO comparison table and a handful of prose
reduction figures; both are embedded here verbatim as cross-check references,
never as data. Where they disagree with the grid itself, `cross_check`
reports TABLE7_MISMATCH / CLAIM_MISMATCH diagnostics instead of silently
adopting either side. It reads every cell that the table prints or a claim
quotes, so it needs a complete grid, and raises MissingCell otherwise. Two
such disagreements are expected on the builtin grid: the comparison table's
1.383 W entry for (LVCMOS25, 2.4 GHz), and the headline 85% / 88.45%
IO-reduction figures at 2.4 GHz (the grid yields 64.99%).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .dataset import CalibrationDataset, Diagnostic, DiagnosticCode
from .standards import CHANNELS, IoStandard, Rail, WlanChannel

#: Quoted reduction figures are printed to two decimals; allow their rounding.
CLAIM_TOLERANCE_PP = 0.06

#: Values copied exactly at milliwatt precision; on a reprint they must match
#: the grid's IO cells to within half a milliwatt.
TABLE_MATCH_TOLERANCE_W = 0.0005


class ZeroBase(ValueError):
    """Reduction against a base rail of zero, or one so small that the ratio
    overflows, is undefined."""


class ReductionReport(NamedTuple):
    rail: Rail
    base_std: IoStandard
    alt_std: IoStandard
    channel: WlanChannel
    base_w: float
    alt_w: float

    @property
    def percent(self) -> float:
        """Savings on a 0-100 scale; negative means the alternative costs more."""
        return 100.0 * (1.0 - self.alt_w / self.base_w)

    def render(self) -> str:
        return (
            f"{self.rail.name.lower()} @ {self.channel.carrier_ghz} GHz: "
            f"{self.base_std.name} {self.base_w:.3f} W -> {self.alt_std.name} "
            f"{self.alt_w:.3f} W = {self.percent:.2f}% reduction"
        )


def reduction(
    ds: CalibrationDataset,
    rail: Rail,
    base_std: IoStandard,
    alt_std: IoStandard,
    ch: WlanChannel,
) -> ReductionReport:
    """Percent saved on one rail when alt_std replaces base_std at a channel."""
    cells = ds.cells
    base_cell = cells.get((base_std, ch))
    alt_cell = cells.get((alt_std, ch))
    if base_cell is None or alt_cell is None:
        # `lookup` raises the MissingCell that names the first one absent.
        ds.lookup(base_std, ch)
        ds.lookup(alt_std, ch)
    base = getattr(base_cell, rail.field)
    alt = getattr(alt_cell, rail.field)
    if base <= 0 or not math.isfinite(alt / base):
        raise ZeroBase(
            f"{rail.name.lower()} base for {base_std.name} at {ch.carrier_ghz} GHz is {base}"
        )
    return tuple.__new__(ReductionReport, (rail, base_std, alt_std, ch, base, alt))


# The published IO comparison table, transcribed as printed. Its 2.4 GHz
# LVCMOS25 entry (1.383) repeats that cell's leakage value and conflicts with
# the per-channel table's 0.457.
PUBLISHED_IO_COMPARISON: dict[IoStandard, dict[WlanChannel, float]] = {
    IoStandard.LVCMOS12: dict(zip(CHANNELS, (0.060, 0.160, 0.240, 0.333, 0.393))),
    IoStandard.LVCMOS15: dict(zip(CHANNELS, (0.086, 0.229, 0.343, 0.477, 0.563))),
    IoStandard.LVCMOS18: dict(zip(CHANNELS, (0.109, 0.292, 0.437, 0.608, 0.717))),
    IoStandard.LVCMOS25: dict(zip(CHANNELS, (0.171, 1.383, 0.686, 0.952, 1.124))),
}


class PublishedClaim(NamedTuple):
    """One quoted reduction figure, always LVCMOS25 -> LVCMOS12."""

    rail: Rail
    channel: WlanChannel
    quoted_percent: float
    source: str


PUBLISHED_CLAIMS: tuple[PublishedClaim, ...] = (
    PublishedClaim(Rail.LEAKAGE, WlanChannel.GHZ_0_9, 0.30, "leakage narrative at 0.9 GHz"),
    PublishedClaim(Rail.IO, WlanChannel.GHZ_2_4, 64.98, "io narrative at 2.4 GHz"),
    PublishedClaim(Rail.TOTAL, WlanChannel.GHZ_3_6, 6.46, "total-power narrative at 3.6 GHz"),
    PublishedClaim(Rail.LEAKAGE, WlanChannel.GHZ_5_0, 1.33, "leakage narrative at 5.0 GHz"),
    PublishedClaim(Rail.IO, WlanChannel.GHZ_5_9, 65.0, "io narrative at 5.9 GHz"),
    PublishedClaim(Rail.IO, WlanChannel.GHZ_0_9, 64.91, "io comparison series"),
    PublishedClaim(Rail.IO, WlanChannel.GHZ_2_4, 88.45, "io comparison series"),
    PublishedClaim(Rail.IO, WlanChannel.GHZ_3_6, 65.01, "io comparison series"),
    PublishedClaim(Rail.IO, WlanChannel.GHZ_5_0, 65.02, "io comparison series"),
    PublishedClaim(Rail.IO, WlanChannel.GHZ_5_9, 65.03, "io comparison series"),
    PublishedClaim(Rail.IO, WlanChannel.GHZ_2_4, 85.0, "headline maximum-reduction claim"),
)


def unreachable_claims(
    ds: CalibrationDataset, rail: Rail, channels: Iterable[WlanChannel]
) -> Iterator[tuple[PublishedClaim, ReductionReport]]:
    """Quoted figures for a rail at the given channels that the grid cannot
    reproduce, in PUBLISHED_CLAIMS order, each with its recomputed reduction."""
    selected = set(channels)
    for claim in PUBLISHED_CLAIMS:
        if claim.rail is not rail or claim.channel not in selected:
            continue
        report = reduction(ds, rail, IoStandard.LVCMOS25, IoStandard.LVCMOS12, claim.channel)
        if abs(report.percent - claim.quoted_percent) > CLAIM_TOLERANCE_PP:
            yield claim, report


def cross_check(ds: CalibrationDataset) -> list[Diagnostic]:
    """The published comparison table and quoted figures, re-derived from the
    grid: a TABLE7_MISMATCH for each printed IO cell the grid disagrees with,
    then a CLAIM_MISMATCH for each quoted reduction it cannot reproduce, on
    the io, total and leakage rails in turn."""
    diagnostics = [
        Diagnostic(
            DiagnosticCode.TABLE7_MISMATCH,
            f"comparison table prints {printed:.3f} W but the "
            f"calibration cell holds {ours:.3f} W",
            f"io comparison table ({std.name}, {ch.carrier_ghz} GHz)",
        )
        for std, row in PUBLISHED_IO_COMPARISON.items()
        for ch, printed in row.items()
        if abs((ours := ds.lookup(std, ch).io_w) - printed) > TABLE_MATCH_TOLERANCE_W
    ]
    for rail in (Rail.IO, Rail.TOTAL, Rail.LEAKAGE):
        diagnostics += [
            Diagnostic(
                DiagnosticCode.CLAIM_MISMATCH,
                f"quoted {claim.quoted_percent:.2f}% {rail.name.lower()} reduction "
                f"(LVCMOS25 -> LVCMOS12) is unreachable from the grid: recomputed "
                f"{report.percent:.2f}% from {report.base_w:.3f} W vs {report.alt_w:.3f} W",
                f"{claim.source} ({claim.channel.carrier_ghz} GHz)",
            )
            for claim, report in unreachable_claims(ds, rail, CHANNELS)
        ]
    return diagnostics
