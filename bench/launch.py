"""Run one `iotram` command line in this process and report its timings.

    python bench/launch.py [--spans FILE] <iotram arguments...>

This is what the `iotram` console script does (`iotram.cli.main(argv)`),
plus clock readings around it. On exit one JSON object goes to stderr:
`t0_ns` (CLOCK_MONOTONIC just before `import iotram`), `imported_ns`,
`main_start_ns`, `main_end_ns`, the exit status and `rss_mb`, the process's
peak resident memory (VmHWM). The interpreter's own start-up comes before
`t0_ns` and is left out.

With `--spans FILE` the calls into each iotram module are wrapped in spans,
which are written to FILE when `main` returns. For `serve`, a line `close`
on stdin then makes a helper thread call `RamService.close()`, and the JSON
adds `close_ns`, when that call was made, and `serve_end_ns`, when
`serve_forever` returned.
"""

import sys
import time


def _install_spans(tracer, hooks: dict) -> None:
    import threading

    import iotram.cli as cli
    import iotram.net.service as service
    from iotram.ram.core import IotRam

    wrap = tracer.wrap
    # The power calls are wrapped so that `main`'s self time leaves them out;
    # the power.* per-layer figures come from the power-sweep workload.
    wrap(cli, "builtin_dataset", "power.dataset.builtin_dataset")
    wrap(cli, "parse_trace", "ram.trace.parse_trace")
    wrap(cli, "run_trace", "ram.trace.run_trace")
    wrap(cli, "power_at", "power.model.power_at")
    wrap(cli, "energy_per_cycle", "power.model.energy_per_cycle")
    wrap(service, "power_at", "power.model.power_at")
    wrap(service, "energy_per_cycle", "power.model.energy_per_cycle")
    wrap(service, "decode_request", "net.frames.decode_request")
    wrap(service, "encode_response", "net.frames.encode_response")
    wrap(service, "handle_datagram", "net.service.handle_datagram")
    wrap(service.EnergyLedger, "record", "net.service.ledger_record")
    wrap(service.RamService, "handle", "net.service.handle")
    wrap(IotRam, "read", "ram.core.read")
    wrap(IotRam, "write", "ram.core.write")

    serve_forever = service.RamService.serve_forever

    def traced_serve_forever(self):
        def close_on_request():
            for line in sys.stdin:
                if line.strip() == "close":
                    hooks["close_ns"] = time.monotonic_ns()
                    self.close()
                    return

        threading.Thread(target=close_on_request, daemon=True).start()
        try:
            serve_forever(self)
        finally:
            hooks["serve_end_ns"] = time.monotonic_ns()

    service.RamService.serve_forever = traced_serve_forever


def _peak_rss_mb() -> float:
    # This process's peak resident memory since exec, in MB. Read from VmHWM,
    # not getrusage in the parent: a child's ru_maxrss also counts the
    # parent's pages it held between fork and exec. Kept here rather than in
    # common, so that the benchmark's helpers add nothing to the program's
    # memory or import time.
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def main() -> int:
    argv = sys.argv[1:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]

    t0 = time.monotonic_ns()
    import iotram.cli

    imported = time.monotonic_ns()
    import json
    import signal

    # A child started from a background shell inherits SIGINT ignored; the
    # serve command relies on Ctrl-C, so give it the terminal's disposition.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    hooks: dict = {}
    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        _install_spans(tracer, hooks)
        span = tracer.begin("cli.main")
    main_start = time.monotonic_ns()
    code = iotram.cli.main(argv)
    sys.stdout.flush()
    main_end = time.monotonic_ns()
    rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.end(span)
        tracer.dump(spans_path)
    print(json.dumps({"t0_ns": t0, "imported_ns": imported, "main_start_ns": main_start,
                      "main_end_ns": main_end, "exit": code, "rss_mb": rss_mb, **hooks}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
