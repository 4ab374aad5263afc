"""Command-line surface for the power model, RAM simulator, and service.

Exit codes are stable across subcommands: 0 success, 2 usage error, 3 file
I/O error, 4 validation or fit failure, 5 bind failure. Subcommands call the
library directly; `main` maps the library's errors to these codes through
one table, `_ERROR_EXITS`.
"""

from __future__ import annotations

import argparse
import codecs
import gc
import io
import ipaddress
import math
import os
import sys

from .net.endpoint import BIND_ENV_VAR, DEFAULT_BIND, BadEndpoint, BindFailure
from .power.dataset import (
    CalibrationDataset,
    MissingCell,
    builtin_dataset,
    load_calibration_file,
    validate_dataset,
    write_calibration,
)
from .power.model import (
    DegenerateFit,
    FitKind,
    NonPositiveFrequency,
    energy_per_cycle,
    fit,
    io_slope_voltage_scaling,
    max_relative_residuals,
    power_at,
    predict,
)
from .power.reductions import ZeroBase, cross_check, reduction, unreachable_claims
from .power.standards import CHANNELS, STANDARDS, IoStandard, Rail, WlanChannel
from .ram.core import KEY_MASK, EnergyLedger, InvalidConfig, IotRam, RamConfig, Status
from .ram.trace import TraceError, parse_trace, run_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_BIND = 5

DEFAULT_DEVICE_KEY = "2001:db8::1"


class CliError(Exception):
    """A failure only the command line can phrase: a bad name, key, file path
    or option combination."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _parse(kind, text: str):
    """A standard, channel or rail by name; an unknown name is a usage error."""
    try:
        return kind.parse(text)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from None


def _parse_standards(text: str) -> list[IoStandard]:
    return list(STANDARDS) if text.strip().lower() == "all" else [_parse(IoStandard, text)]


def _parse_channels(text: str) -> list[WlanChannel]:
    return list(CHANNELS) if text.strip().lower() == "all" else [_parse(WlanChannel, text)]


def _operating_point(args, subject: str) -> tuple[IoStandard, WlanChannel]:
    """The one standard and one channel that `--standard` and `--channel`
    name; "all" in either is a usage error that names `subject`."""
    standards = _parse_standards(args.standard)
    channels = _parse_channels(args.channel)
    if len(standards) != 1 or len(channels) != 1:
        raise CliError(EXIT_USAGE, f"{subject} takes a single standard and channel")
    return standards[0], channels[0]


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _parse_key(text: str) -> int:
    """128-bit key, as an IPv6 literal ("2001:db8::1") or plain ASCII hex."""
    cleaned = text.strip()
    try:
        # A zone index ("fe80::1%eth0") is no part of a key.
        if ":" in cleaned and "%" not in cleaned:
            return int(ipaddress.IPv6Address(cleaned))
        # int() alone would also take "0x", a sign, "_" and non-ASCII digits.
        if not cleaned or not _HEX_DIGITS.issuperset(cleaned):
            raise ValueError
        value = int(cleaned, 16)
    except ValueError:
        raise CliError(EXIT_USAGE, f"bad 128-bit key {text!r}") from None
    if value > KEY_MASK:
        raise CliError(EXIT_USAGE, f"key {text!r} does not fit in 128 bits")
    return value


def _load_dataset(path: str | None) -> CalibrationDataset:
    if path is None:
        return builtin_dataset()
    try:
        return load_calibration_file(path)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise CliError(EXIT_IO, f"bad calibration file {path}: {exc}") from None


def _print_json(doc) -> None:
    # Only JSON output pays for importing json.
    import json

    print(json.dumps(doc, indent=2))


def _cell_record(std: IoStandard, ch: WlanChannel, cell) -> dict:
    return {"standard": std.name, "channel_ghz": ch.carrier_ghz, **cell._asdict()}


def cmd_table(args) -> int:
    ds = _load_dataset(args.input)
    standards = _parse_standards(args.standard)
    channels = _parse_channels(args.channel)
    cells = {(s, c): ds.lookup(s, c) for s in standards for c in channels}

    if args.format == "csv":
        print(write_calibration(CalibrationDataset(cells)), end="")
    elif args.format == "json":
        records = [_cell_record(s, c, cells[(s, c)]) for s in standards for c in channels]
        _print_json({"provenance": ds.provenance, "cells": records})
    else:
        for c in channels:
            print(f"Power consumption at {c.carrier_ghz} GHz ({c.ieee_name}), watts")
            header = f"{'rail':<10}" + "".join(f"{s.name:>10}" for s in standards)
            print(header)
            for rail in Rail:
                row = f"{rail.name.lower():<10}"
                row += "".join(f"{cells[(s, c)].rail(rail):>10.3f}" for s in standards)
                print(row)
            print()
    return EXIT_OK


def cmd_compare(args) -> int:
    ds = _load_dataset(args.input)
    rail = _parse(Rail, args.rail)
    base = _parse_standards(args.base_std)
    alt = _parse_standards(args.alt_std)
    if len(base) != 1 or len(alt) != 1:
        raise CliError(EXIT_USAGE, "--from and --to take a single standard")
    channels = _parse_channels(args.channel)
    reports = [reduction(ds, rail, base[0], alt[0], ch) for ch in channels]

    if args.format == "csv":
        print("channel_ghz,rail,base_standard,alt_standard,base_w,alt_w,percent")
        for r in reports:
            print(
                f"{r.channel.carrier_ghz},{rail.name.lower()},{r.base_std.name},"
                f"{r.alt_std.name},{r.base_w:.3f},{r.alt_w:.3f},{r.percent:.2f}"
            )
    elif args.format == "json":
        _print_json(
            [
                {
                    "channel_ghz": r.channel.carrier_ghz,
                    "rail": rail.name.lower(),
                    "base_standard": r.base_std.name,
                    "alt_standard": r.alt_std.name,
                    "base_w": r.base_w,
                    "alt_w": r.alt_w,
                    "percent": round(r.percent, 2),
                }
                for r in reports
            ]
        )
    else:
        for r in reports:
            print(r.render())

    # Quoted figures that the grid cannot reproduce are flagged alongside the
    # computed results, never printed in their place.
    if (base[0], alt[0]) == (IoStandard.LVCMOS25, IoStandard.LVCMOS12):
        for claim, report in unreachable_claims(ds, rail, channels):
            print(
                f"flagged: {claim.source} quotes {claim.quoted_percent:.2f}% at "
                f"{claim.channel.carrier_ghz} GHz; the grid yields {report.percent:.2f}%",
                file=sys.stderr,
            )
    return EXIT_OK


def cmd_fit(args) -> int:
    ds = _load_dataset(args.input)
    coeffs = fit(ds)
    residuals = max_relative_residuals(ds, coeffs)
    scaling = io_slope_voltage_scaling(coeffs)

    if args.format == "json":
        doc = {
            "coefficients": {
                "clock": _fit_record(coeffs.clock),
                "signal": _fit_record(coeffs.signal),
                "bram": _fit_record(coeffs.bram),
                "io": {s.name: _fit_record(f) for s, f in coeffs.io.items()},
                "leakage": {s.name: _fit_record(f) for s, f in coeffs.leakage.items()},
            },
            "max_relative_residuals": residuals,
            "io_slope_per_volt_sq": {s.name: v for s, v in scaling.items()},
        }
        _print_json(doc)
        return EXIT_OK

    def line(name: str, f) -> str:
        text = f"{name:<20} slope {f.slope_w_per_ghz:9.6f} W/GHz"
        if f.fit_kind is FitKind.AFFINE:
            text += f"  intercept {f.intercept_w:9.6f} W"
        return f"{text}  [{f.fit_kind.value}]  max residual {100 * residuals[name]:.2f}%"

    print(line("clock", coeffs.clock))
    print(line("signal", coeffs.signal))
    print(line("bram", coeffs.bram))
    for std in ds.standards():
        print(line(f"io[{std.name}]", coeffs.io[std]))
    for std in ds.standards():
        print(line(f"leakage[{std.name}]", coeffs.leakage[std]))
    ratios = ", ".join(f"{s.name} {v:.6f}" for s, v in scaling.items())
    print(f"info: io slope / supply^2 (equal under a pure CV^2f law): {ratios}")
    return EXIT_OK


def _fit_record(f) -> dict:
    return {**f._asdict(), "fit_kind": f.fit_kind.value}


def cmd_predict(args) -> int:
    if not 0 < args.freq_ghz < math.inf:
        raise CliError(EXIT_USAGE, f"--freq-ghz must be finite and > 0, got {args.freq_ghz}")
    ds = _load_dataset(args.input)
    standards = _parse_standards(args.standard)
    if len(standards) != 1:
        raise CliError(EXIT_USAGE, "--standard takes a single standard")
    pb = predict(fit(ds), standards[0], args.freq_ghz)

    if args.format == "json":
        doc = {"standard": standards[0].name, "freq_ghz": args.freq_ghz, **pb._asdict()}
        _print_json(doc)
    else:
        print(f"predicted power for {standards[0].name} at {args.freq_ghz} GHz, watts")
        for rail in Rail:
            print(f"{rail.name.lower():<10}{pb.rail(rail):>10.3f}")
    return EXIT_OK


def cmd_validate(args) -> int:
    ds = _load_dataset(args.input)
    diagnostics = validate_dataset(ds)
    if args.input is None:
        diagnostics += cross_check(ds)

    for diag in diagnostics:
        print(diag.render())
    fatal = [d for d in diagnostics if not d.code.documented]
    documented = [d for d in diagnostics if d.code.documented]
    print(
        f"{len(diagnostics)} finding(s): {len(fatal)} dataset defect(s), "
        f"{len(documented)} documented source discrepanc(ies)"
    )
    return EXIT_VALIDATION if fatal else EXIT_OK


#: `ram-run` reads, parses, runs and formats a trace a piece at a time, so
#: that only one piece's ops and results are alive at once: a piece ends at
#: the first line feed at or past this many characters, about 1,000 lines
#: of short ops.
_PIECE_CHARS = 12 * 1024

#: `ram-run` holds its formatted lines in memory up to this many characters,
#: then moves them, and every later piece's lines, to an unnamed temporary
#: file until the last piece. The limit is about a quarter of the 250 KB
#: that one piece's own ops and results take in tracemalloc, so held output
#: never dominates the footprint, and a trace of up to about 1,400 short ops
#: never touches the disk.
_HELD_OUTPUT_CHARS = 64 * 1024

#: The per-operation lines of `ram-run` as %-formats, by op and status: the
#: line number, the op padded to 24 columns and the outcome word that the
#: oracle in `tests/conftest.py` spells out, which a property test holds
#: them to. `ram-run` joins a piece's formats and fills them with one `%`:
#: on a 20,000-op trace that took about 0.6 of the time of an f-string with
#: format specs per line.
_WRITE_LINES = {
    Status.OK: "%5d  %-24s -> WriteOk\n",
    Status.AUTH_FAIL: "%5d  %-24s -> AuthFail\n",
    Status.ADDR_RANGE: "%5d  %-24s -> AddrRange\n",
}
_READ_OK = "%5d  R %-22d -> ReadOk %08X\n"
_READ_FAILS = {
    Status.AUTH_FAIL: "%5d  R %-22d -> AuthFail\n",
    Status.ADDR_RANGE: "%5d  R %-22d -> AddrRange\n",
}


def _pieces(path: str):
    """The pieces of the trace file at `path`, each with the number of its
    first line. The file is read and decoded a piece at a time, as UTF-8
    with universal newlines, as `open(path, encoding="utf-8")` reads it. A
    piece ends right after the first line feed at or past `_PIECE_CHARS`
    characters from its start, or at the end of the file. A cut after a line
    feed is a `splitlines` break, so the pieces' line counts add up to the
    text's. A file that cannot be read or is not UTF-8 is a CliError."""
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), translate=True)
    # `searched` is where the search for a cut resumes: no line feed lies
    # between the piece's `_PIECE_CHARS`th character and it, so a long
    # stretch with no line feed is scanned once, not once a read.
    start, text, read, searched = 1, "", 0, _PIECE_CHARS - 1
    try:
        with open(path, "rb") as fh:
            while True:
                data = fh.read(_PIECE_CHARS)
                try:
                    text += decoder.decode(data, final=not data)
                except UnicodeDecodeError as exc:
                    # The decoder counts from the start of the bytes it held
                    # back and those just read; the message counts from the
                    # start of the file, as when the file was decoded whole.
                    bad = exc.object[exc.start : exc.end]
                    at = read - len(decoder.getstate()[0]) + exc.start
                    where = (f"byte 0x{bad[0]:02x} in position {at}" if len(bad) == 1
                             else f"bytes in position {at}-{at + len(bad) - 1}")
                    raise CliError(
                        EXIT_IO,
                        f"trace {path} is not UTF-8: "
                        f"'utf-8' codec can't decode {where}: {exc.reason}",
                    ) from None
                read += len(data)
                while cut := text.find("\n", searched) + 1 or (not data and len(text)):
                    piece, text, searched = text[:cut], text[cut:], _PIECE_CHARS - 1
                    yield piece, start
                    start += len(piece.splitlines())
                if not data:
                    return
                searched = max(searched, len(text))
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read trace {path}: {exc}") from None


def _parsed(path: str):
    """Each piece's ops. A malformed line is raised only once the rest of the
    file has been read, so that a byte that is not UTF-8 anywhere is
    reported first, as when the file was read whole."""
    pieces = _pieces(path)
    for piece, start in pieces:
        try:
            # Not bound to a name here, so that the caller frees the ops.
            yield parse_trace(piece, start)
        except TraceError:
            for _ in pieces:
                pass
            raise


def _format(results, out: list) -> int:
    """Append one piece's per-op lines to `out` as one string, filled in with
    one `%`; returns how many of its writes succeeded."""
    ok, writes = Status.OK, 0
    write_lines, read_ok, read_fails = _WRITE_LINES, _READ_OK, _READ_FAILS
    formats, values = [], []
    add_format, add_values = formats.append, values.extend
    for (lineno, is_write, addr, word), status, data in results:
        if is_write:
            writes += status is ok
            add_format(write_lines[status])
            add_values((lineno, "W %d %08X" % (addr, word)))
        elif status is ok:
            add_format(read_ok)
            add_values((lineno, addr, data))
        else:
            add_format(read_fails[status])
            add_values((lineno, addr))
    out.append("".join(formats) % tuple(values))
    return writes


def _replay(path: str, depth: int, device_key: int, key: int, ledger: EnergyLedger) -> int:
    """Read, parse, run and format a trace on a fresh RAM a piece at a time,
    then print a line per op; returns how many writes succeeded, which the
    ledger's OK count includes. The lines are printed only after the last
    piece, so a malformed line anywhere leaves stdout empty. Until then they
    are held in memory, and past `_HELD_OUTPUT_CHARS` in an unnamed
    temporary file, which is created only then."""
    try:
        ram = IotRam(RamConfig(depth_words=depth, device_ipv6=device_key))
    except InvalidConfig:
        # A byte that is not UTF-8, then a malformed line, is reported before
        # a bad depth, wherever it is.
        for _ in _parsed(path):
            pass
        raise
    writes, held, spill = 0, [], None
    try:
        try:
            for ops in _parsed(path):
                writes += _format(run_trace(ram, ops, key, ledger), held)
                del ops  # freed before the next piece is parsed
                if spill is None and sum(map(len, held)) > _HELD_OUTPUT_CHARS:
                    import tempfile

                    spill = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
                if spill is not None:
                    spill.writelines(held)
                    held.clear()
            if spill is not None:
                spill.seek(0)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot hold ram-run output in a temporary file: {exc}") from None
        if spill is None:
            sys.stdout.writelines(held)
        else:
            import shutil

            shutil.copyfileobj(spill, sys.stdout)
    finally:
        if spill is not None:
            try:
                spill.close()
            except OSError:
                pass  # only on a failure, when what it flushes is not wanted
    return writes


def cmd_ram_run(args) -> int:
    device_key = _parse_key(args.device_key)
    key = device_key if args.key is None else _parse_key(args.key)
    if (args.standard is None) != (args.channel is None):
        raise CliError(EXIT_USAGE, "--standard and --channel must be given together")
    if args.input is not None and args.standard is None:
        raise CliError(EXIT_USAGE, "--input prices energy, so it needs --standard and --channel")

    # Pricing is checked before the trace runs, so that its errors come
    # with an empty stdout. An unpriced run prints no energy line.
    per_cycle = 0.0
    if args.standard is not None:
        std, ch = _operating_point(args, "energy pricing")
        ds = _load_dataset(args.input)
        pb = power_at(ds, std, ch.carrier_ghz)
        per_cycle = energy_per_cycle(pb, ch.carrier_ghz)

    ledger = EnergyLedger(per_cycle)
    # A piece's ops and results are tuples that form no cycle: the cyclic
    # collector would scan them about once a piece and free nothing, for
    # about 3% of a 20,000-op run's time.
    collecting = gc.isenabled()
    gc.disable()
    try:
        writes = _replay(args.trace, args.depth, device_key, key, ledger)
    finally:
        if collecting:
            gc.enable()
    count = ledger.ops_by_status.get
    print(
        f"cycles={ledger.cycles} writes={writes} reads={count(Status.OK, 0) - writes} "
        f"auth_fails={count(Status.AUTH_FAIL, 0)} range_errors={count(Status.ADDR_RANGE, 0)}"
    )
    if args.standard is not None:
        print(
            f"energy: {ledger.energy_j:.6e} J "
            f"({per_cycle:.6e} J/cycle at {std.name}, {ch.carrier_ghz} GHz)"
        )
    return EXIT_OK


def cmd_serve(args) -> int:
    # Only this subcommand needs the socket code.
    from .net.service import RamService, make_ledger

    std, ch = _operating_point(args, "serve")
    device_key = _parse_key(args.device_key)
    # An empty IOTRAM_BIND counts as unset; an empty --bind is a bad endpoint.
    bind = args.bind if args.bind is not None else os.environ.get(BIND_ENV_VAR) or DEFAULT_BIND

    ds = _load_dataset(args.input)
    ram = IotRam(RamConfig(depth_words=args.depth, device_ipv6=device_key))
    ledger = make_ledger(std, ch, ds)
    service = RamService(ram, ledger, bind)

    # Ctrl-C may arrive while the listening line is printed; it must still
    # close the socket and print the ledger.
    try:
        host, port = service.address
        # An IPv6 host is bracketed, as --bind takes it: "::1:80" would read
        # as one IPv6 literal.
        if ":" in host:
            host = f"[{host}]"
        print(
            f"listening on {host}:{port} ({std.name}, "
            f"{ch.carrier_ghz} GHz, {ledger.per_cycle_j:.6e} J/cycle)"
        )
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
        print(ledger.render())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotram",
        description="IPv6-gated RAM simulator and LVCMOS/WLAN power calibration toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("table", help="print calibration cells")
    p.add_argument("--standard", default="all", help="IO standard name or 'all'")
    p.add_argument("--channel", default="all", help="WLAN channel (GHz or IEEE name) or 'all'")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--input", help="calibration file instead of the builtin grid")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("compare", help="reduction between two IO standards")
    p.add_argument("--rail", required=True, help="clock|signal|bram|io|leakage|total")
    p.add_argument("--from", dest="base_std", required=True, help="base IO standard")
    p.add_argument("--to", dest="alt_std", required=True, help="alternative IO standard")
    p.add_argument("--channel", default="all", help="WLAN channel or 'all'")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--input", help="calibration file instead of the builtin grid")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("fit", help="fit per-rail frequency-scaling coefficients")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--input", help="calibration file instead of the builtin grid")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="model power at an arbitrary frequency")
    p.add_argument("--standard", required=True, help="IO standard name")
    p.add_argument("--freq-ghz", type=float, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--input", help="calibration file instead of the builtin grid")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("validate", help="check a grid and cross-check published figures")
    p.add_argument("--input", help="calibration file; omit to validate the builtin grid")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("ram-run", help="execute a trace file against a fresh RAM")
    p.add_argument("--trace", required=True, help="trace file (W <addr> <hex32> / R <addr>)")
    p.add_argument("--key", help="128-bit access key (hex or IPv6); defaults to the device key")
    p.add_argument("--device-key", default=DEFAULT_DEVICE_KEY, help="configured gate key")
    p.add_argument("--depth", type=int, default=256, help="memory depth in words")
    p.add_argument("--standard", help="price energy at this IO standard")
    p.add_argument("--channel", help="price energy at this WLAN channel")
    p.add_argument("--input", help="calibration file for energy pricing")
    p.set_defaults(func=cmd_ram_run)

    p = sub.add_parser("serve", help="expose a RAM over the datagram protocol")
    p.add_argument("--bind", help=f"[host]:port (default ${BIND_ENV_VAR} or {DEFAULT_BIND})")
    p.add_argument("--standard", default="LVCMOS12", help="session IO standard")
    p.add_argument("--channel", default="2.4", help="session WLAN channel")
    p.add_argument("--device-key", default=DEFAULT_DEVICE_KEY, help="configured gate key")
    p.add_argument("--depth", type=int, default=256, help="memory depth in words")
    p.add_argument("--input", help="calibration file for energy pricing")
    p.set_defaults(func=cmd_serve)

    return parser


#: The one mapping from library errors to exit codes and message prefixes.
#: The first class that matches wins, so BindFailure comes before OSError.
#: There is no catch-all: an error missing here is a fault, and surfaces.
_ERROR_EXITS: tuple[tuple[type[Exception], int, str], ...] = (
    (DegenerateFit, EXIT_VALIDATION, "degenerate fit: "),
    (MissingCell, EXIT_VALIDATION, "dataset incomplete: "),
    (TraceError, EXIT_VALIDATION, "malformed trace: "),
    (ZeroBase, EXIT_VALIDATION, ""),
    (NonPositiveFrequency, EXIT_USAGE, ""),
    (InvalidConfig, EXIT_USAGE, ""),
    (BadEndpoint, EXIT_USAGE, ""),
    (BindFailure, EXIT_BIND, ""),
    (OSError, EXIT_IO, ""),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        code, message = exc.exit_code, str(exc)
    except tuple(cls for cls, _, _ in _ERROR_EXITS) as exc:
        code, prefix = next((c, p) for cls, c, p in _ERROR_EXITS if isinstance(exc, cls))
        message = prefix + str(exc)
    print(f"iotram: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
