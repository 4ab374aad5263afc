"""Wire protocol and endpoint syntax for remote RAM access.

This package holds the frames and the "[host]:port" syntax; it loads no
socket code. The datagram service (`RamService`, `make_ledger`,
`handle_datagram`) is imported from `iotram.net.service`, and `Status` and
`EnergyLedger` from `iotram.ram`.
"""

from .endpoint import BadEndpoint, BindFailure, parse_endpoint
from .frames import (
    MalformedFrame,
    Opcode,
    REQUEST_LEN,
    RESPONSE_LEN,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

__all__ = [
    "BadEndpoint",
    "BindFailure",
    "MalformedFrame",
    "Opcode",
    "REQUEST_LEN",
    "RESPONSE_LEN",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "parse_endpoint",
]
