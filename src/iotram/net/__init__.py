"""Wire protocol and datagram service for remote RAM access.

`frames` (the datagram layout) and `endpoint` (the "[host]:port" syntax and
its errors) load with this package; `service`, which holds the socket loop
and re-exports the RAM's energy ledger, loads when one of its names is first
used.
"""

from .frames import (
    MAGIC,
    MalformedFrame,
    Opcode,
    REQUEST_LEN,
    RESPONSE_LEN,
    RequestFrame,
    ResponseFrame,
    Status,
    VERSION,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    salvage_seq,
)
from .endpoint import BIND_ENV_VAR, DEFAULT_BIND, BadEndpoint, BindFailure, parse_endpoint

# The socket service is imported on first use of the module or one of its
# names, so that the frames and the endpoint syntax come without it.
_SERVICE_NAMES = frozenset(("EnergyLedger", "RamService", "handle_datagram", "make_ledger"))


def __getattr__(name: str):
    if name == "service" or name in _SERVICE_NAMES:
        import importlib

        service = importlib.import_module(".service", __name__)
        return service if name == "service" else getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BIND_ENV_VAR",
    "BadEndpoint",
    "BindFailure",
    "DEFAULT_BIND",
    "EnergyLedger",
    "MAGIC",
    "MalformedFrame",
    "Opcode",
    "REQUEST_LEN",
    "RESPONSE_LEN",
    "RamService",
    "RequestFrame",
    "ResponseFrame",
    "Status",
    "VERSION",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "handle_datagram",
    "make_ledger",
    "parse_endpoint",
    "salvage_seq",
]
