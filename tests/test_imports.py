"""What each import loads, and which names each package makes public.

`import iotram.power` must not load the RAM or the socket service,
`import iotram.ram` neither the power model nor the wire protocol, and
`import iotram.net` not the socket service; `import iotram.cli` must leave
the socket service to `serve`: a priced `ram-run`, which tallies in the RAM's
`EnergyLedger`, does not load it. `serve` itself, whose service binds
through `_socket`, loads neither `socket` nor `selectors`. None of them
loads `dataclasses`, the `inspect` that it imports, or `typing`: every
record is a `collections.namedtuple`. The CLI leaves `json` to JSON output, and
`tempfile` to a `ram-run` whose output passes what it holds in memory
(64 KiB). Each child
runs under `python -S`, because a `.pth` file that `site` runs can load
`typing` and others first, and a module loaded before the import would pass
for one the import leaves alone. The same guards run under each other
CPython 3.1x that pyenv holds. `iotram` imports its layers on first use, so
the public names are also checked in a fresh interpreter, where that first
use happens. Each package lists only names defined in its own modules.
"""

import errno
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import iotram
import iotram.net.endpoint
import iotram.net.service
from conftest import each_other_python

PACKAGES = ("iotram.net", "iotram.power", "iotram.ram")
#: Modules the record types leave unloaded.
NO_RECORD_MACHINERY = ("dataclasses", "inspect", "typing")
#: Each package or the CLI, with the modules its import must not load.
IMPORT_GUARDS = [
    ("iotram.power", ("iotram.net", "iotram.ram", "socket", *NO_RECORD_MACHINERY)),
    ("iotram.ram", ("iotram.net", "iotram.power", "socket", *NO_RECORD_MACHINERY)),
    ("iotram.net", ("iotram.net.service", "socket", *NO_RECORD_MACHINERY)),
    ("iotram.net.service", ("socket", "selectors", *NO_RECORD_MACHINERY)),
    ("iotram.cli", ("iotram.net.service", "socket", "json", "tempfile", *NO_RECORD_MACHINERY)),
]

# Prints, one to a line, the modules that importing argv[1] adds to this
# interpreter. The script itself imports only `sys`, so that a module the
# import loads is not hidden by the script having loaded it first.
_NEW_MODULES = """
import sys
before = set(sys.modules)
__import__(sys.argv[1])
print(*sorted(set(sys.modules) - before), sep="\\n")
"""

# Runs a priced `ram-run` (trace file in argv[1]) through `iotram.cli.main`,
# output discarded, and prints, one to a line, the modules that the run loaded.
_RAM_RUN_MODULES = """
import contextlib, io, sys
before = set(sys.modules)
import iotram.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = iotram.cli.main(
        ["ram-run", "--trace", sys.argv[1], "--standard", "LVCMOS12", "--channel", "2.4"]
    )
assert code == 0, code
print(*sorted(set(sys.modules) - before), sep="\\n")
"""

# Runs `serve` on 127.0.0.1:0 through `iotram.cli.main`, with a loop that
# returns at once and its output held apart, and prints, one to a line, the
# modules that the run loaded, `iotram.net.service` among them.
_SERVE_MODULES = """
import contextlib, io, sys
before = set(sys.modules)
import iotram.cli, iotram.net.service
iotram.net.service.RamService.serve_forever = lambda self: None
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = iotram.cli.main(["serve", "--bind", "127.0.0.1:0"])
assert code == 0, code
assert out.getvalue().startswith("listening on 127.0.0.1:"), out.getvalue()
print(*sorted(set(sys.modules) - before), sep="\\n")
"""

# Touches every public name in a fresh interpreter, where the lazy lookups
# of `iotram` run for the first time; none of them loads the socket service.
_FRESH_NAMES = """
import sys
import iotram
namespace = {}
exec("from iotram import *", namespace)
for name in ("net", "power", "ram"):
    assert namespace[name] is sys.modules["iotram." + name], name
for module in (iotram, iotram.net, iotram.power, iotram.ram):
    for name in module.__all__:
        getattr(module, name)
assert "iotram.net.service" not in sys.modules
"""


def _child(script: str, *args: str, python=sys.executable) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(iotram.__file__).parents[1])}
    return subprocess.run(
        [str(python), "-S", "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def _check_import(module: str, forbidden: tuple[str, ...], python=sys.executable) -> None:
    proc = _child(_NEW_MODULES, module, python=python)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert module in loaded
    assert _unwanted(loaded, forbidden) == [], module


def _check_priced_ram_run(tmp_path, python=sys.executable) -> None:
    trace = tmp_path / "ops.trace"
    trace.write_text("W 0 DEADBEEF\nR 0\nR 999\n", encoding="utf-8")
    proc = _child(_RAM_RUN_MODULES, str(trace), python=python)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "iotram.ram.core" in loaded
    forbidden = ("iotram.net.service", "socket", "json", "tempfile", *NO_RECORD_MACHINERY)
    assert _unwanted(loaded, forbidden) == []


def _check_serve(python=sys.executable) -> None:
    # The service binds through `_socket`: `socket` and what it loads
    # (`selectors`, `select`, `array`) would cost `serve` start-up 4-8 ms
    # and give it nothing it uses.
    proc = _child(_SERVE_MODULES, python=python)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "iotram.net.service" in loaded
    assert _unwanted(loaded, ("socket", "selectors", "select", "array")) == []


@pytest.mark.parametrize("module,forbidden", IMPORT_GUARDS)
def test_import_loads_only_what_it_uses(module, forbidden):
    _check_import(module, forbidden)


def test_priced_ram_run_loads_no_socket_code(tmp_path):
    _check_priced_ram_run(tmp_path)


def test_serve_loads_no_socket_module():
    _check_serve()


@each_other_python
def test_imports_load_only_what_they_use_under_another_python(python, tmp_path):
    for module, forbidden in IMPORT_GUARDS:
        _check_import(module, forbidden, python)
    _check_priced_ram_run(tmp_path, python)
    _check_serve(python)


def _unwanted(loaded: list[str], forbidden: tuple[str, ...]) -> list[str]:
    """The loaded modules that are, or are inside, a forbidden one."""
    return [m for m in loaded if m in forbidden or m.startswith(tuple(f + "." for f in forbidden))]


def test_public_names_resolve_in_a_fresh_interpreter():
    proc = _child(_FRESH_NAMES)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("package", PACKAGES)
def test_packages_list_only_their_own_names(package):
    module = importlib.import_module(package)
    prefix = package + "."
    own_modules = [m for name, m in sys.modules.items() if name.startswith(prefix)]
    for name in module.__all__:
        obj = getattr(module, name)
        if hasattr(obj, "__module__"):  # a class, function or enum
            assert obj.__module__.startswith(prefix), name
        else:  # a constant: one of the package's modules holds it
            assert any(getattr(m, name, None) is obj for m in own_modules), name


def test_net_has_no_lazy_names():
    assert not hasattr(iotram.net, "__getattr__")
    with pytest.raises(ImportError):
        exec("from iotram.net import RamService", {})


def test_service_keeps_only_the_endpoint_names_it_uses():
    endpoint_names = {"BIND_ENV_VAR", "BadEndpoint", "BindFailure", "DEFAULT_BIND", "parse_endpoint"}
    used = {"DEFAULT_BIND", "BindFailure", "parse_endpoint"}
    assert endpoint_names & set(vars(iotram.net.service)) == used


# The package-level names that `bench/sweep.py` reads.
BENCH_PACKAGE_NAMES = [
    ("iotram.power", "IoStandard"),
    ("iotram.power", "Rail"),
    ("iotram.power", "CHANNELS"),
    ("iotram.power", "DegenerateFit"),
]


@pytest.mark.parametrize("package,name", BENCH_PACKAGE_NAMES)
def test_names_the_bench_reads_stay_public(package, name):
    assert name in importlib.import_module(package).__all__


# The attributes that `bench/launch.py --trace 1` replaces with span wrappers.
BENCH_WRAPPED = [
    ("iotram.cli", "builtin_dataset"),
    ("iotram.cli", "parse_trace"),
    ("iotram.cli", "run_trace"),
    ("iotram.cli", "power_at"),
    ("iotram.cli", "energy_per_cycle"),
    ("iotram.net.service", "power_at"),
    ("iotram.net.service", "energy_per_cycle"),
    ("iotram.net.service", "EnergyLedger.record"),
    ("iotram.net.service", "decode_request"),
    ("iotram.net.service", "encode_response"),
    ("iotram.net.service", "handle_datagram"),
    ("iotram.net.service", "RamService.handle"),
    ("iotram.ram.core", "IotRam.read"),
    ("iotram.ram.core", "IotRam.write"),
]


def _wrapped_owner(module: str, path: str) -> tuple[object, str]:
    """The object that holds a wrapped name, and the name's last part."""
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


@pytest.mark.parametrize("module,path", BENCH_WRAPPED)
def test_names_the_bench_tracer_wraps_resolve(module, path):
    owner, name = _wrapped_owner(module, path)
    assert callable(getattr(owner, name))


def _count_bench_wrapped_calls(monkeypatch) -> dict:
    """Count the calls made through each name the bench tracer wraps, by the
    name's last part."""
    calls = {}
    for module, path in BENCH_WRAPPED:
        owner, name = _wrapped_owner(module, path)
        inner = getattr(owner, name)

        def wrapper(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_priced_ram_run_calls_what_the_bench_tracer_wraps(tmp_path, monkeypatch, capsys):
    # A wrapper only sees calls made through the attribute it replaces: the
    # CLI must look these up as module names at call time, and `run_trace`
    # must reach the RAM and the ledger through their methods, once per op.
    import iotram.cli as cli

    calls = _count_bench_wrapped_calls(monkeypatch)
    trace = tmp_path / "ops.trace"
    trace.write_text("W 0 1\nR 0\nR 999\nW 1 2\nR 1\n", encoding="utf-8")
    argv = ["ram-run", "--trace", str(trace), "--standard", "LVCMOS12", "--channel", "2.4"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.count("\n") == 7
    assert calls == {
        "builtin_dataset": 1, "parse_trace": 1, "run_trace": 1, "power_at": 1,
        "energy_per_cycle": 1, "read": 3, "write": 2, "record": 5,
    }


def test_ram_run_in_pieces_calls_what_the_bench_tracer_wraps(tmp_path, monkeypatch, capsys):
    # The bench sums the spans of every piece: each piece is parsed and run
    # through the module names, and each op still reaches the RAM and the
    # ledger once.
    import iotram.cli as cli

    monkeypatch.setattr(cli, "_PIECE_CHARS", 1)
    calls = _count_bench_wrapped_calls(monkeypatch)
    trace = tmp_path / "ops.trace"
    trace.write_text("W 0 1\nR 0\n# note\nR 999\nW 1 2\nR 1\n", encoding="utf-8")
    argv = ["ram-run", "--trace", str(trace), "--standard", "LVCMOS12", "--channel", "2.4"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.count("\n") == 7
    assert calls == {
        "builtin_dataset": 1, "parse_trace": 6, "run_trace": 6, "power_at": 1,
        "energy_per_cycle": 1, "read": 3, "write": 2, "record": 5,
    }


def test_a_served_batch_calls_what_the_bench_tracer_wraps(monkeypatch):
    # The serve-path spans give the bench its per-layer figures, and a layer
    # with no span has none: each datagram the loop answers must pass through
    # the service's names once, and each READ or WRITE through the RAM's.
    # Every kind of datagram comes twice, from two peers, in two batches.
    from test_service import A, B, KEY, _KINDS, _ScriptedSocket, _hostile_mix, _service

    from iotram.net.frames import RESPONSE_LEN
    from iotram.ram.core import IotRam, RamConfig

    calls = _count_bench_wrapped_calls(monkeypatch)
    datagrams = _hostile_mix(2 * len(_KINDS))
    peers = [A, B] * len(_KINDS)
    fake = _ScriptedSocket(
        list(zip(datagrams[: len(_KINDS)], peers)), list(zip(datagrams[len(_KINDS) :], peers))
    )
    ram = IotRam(RamConfig(device_ipv6=KEY))
    svc = _service(ram)
    real, svc._sock = svc._sock, fake
    try:
        with pytest.raises(OSError) as raised:
            svc.serve_forever()
    finally:
        svc._sock = real
        svc.close()
    assert raised.value.errno == errno.EIO
    n = len(datagrams)
    assert sum(len(sent[1]) for sent in fake.sent) == n * RESPONSE_LEN
    assert calls == {
        "power_at": 1, "energy_per_cycle": 1, "handle": n, "handle_datagram": n,
        "decode_request": n, "encode_response": n, "record": n, "read": 4, "write": 4,
    }


@pytest.mark.parametrize("name", ["BadEndpoint", "BindFailure", "parse_endpoint"])
def test_endpoint_names_are_the_endpoint_objects(name):
    namespace = {}
    exec(f"from iotram.net import {name}", namespace)
    assert namespace[name] is getattr(iotram.net.endpoint, name)
