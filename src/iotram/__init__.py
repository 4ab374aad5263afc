"""iotram: IPv6-gated RAM simulator with an LVCMOS/WLAN power calibration model.

Three layers: `iotram.power` embeds the published per-rail power tables and
fits frequency-scaling laws to them; `iotram.ram` models the key-gated memory
itself; `iotram.net` puts that memory behind a small datagram protocol and
prices simulated cycles in joules. The `iotram` command line ties them
together.
"""

__version__ = "0.1.0"

__all__ = ["net", "power", "ram", "__version__"]


def __getattr__(name: str):
    # Each layer is imported on first use, so that `import iotram.power`
    # loads neither the RAM nor the socket service.
    if name in ("net", "power", "ram"):
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
