"""The "[host]:port" endpoint syntax of the datagram service, and its errors.

Kept apart from `service` so that the command line can name the default
endpoint and map these errors to exit codes without loading the socket code.
"""

from __future__ import annotations

DEFAULT_BIND = "127.0.0.1:18770"
BIND_ENV_VAR = "IOTRAM_BIND"


class BindFailure(OSError):
    """The service endpoint could not be bound."""


class BadEndpoint(ValueError):
    """An endpoint that is not "[host]:port" with a port of ASCII decimal
    digits in 0-65535, or whose host the socket layer cannot encode."""


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """Split "[host]:port"; bracketed literals for IPv6, empty host binds all.

    A host must hold no NUL and, if not ASCII, encode as IDNA, as the socket
    layer encodes it: a NUL, a stray surrogate (an argv byte that is not
    UTF-8) or an over-long label would otherwise fail there with a TypeError.
    """
    text = endpoint.strip()
    if text.startswith("["):
        host, sep, port = text[1:].partition("]:")
        if not sep:
            raise BadEndpoint(f"bad endpoint {endpoint!r} (expected [host]:port)")
    else:
        host, sep, port = text.rpartition(":")
        if not sep:
            raise BadEndpoint(f"bad endpoint {endpoint!r} (expected host:port)")
    # int() alone would also take a sign, "_", spaces and non-ASCII digits.
    if not (port.isascii() and port.isdigit()):
        raise BadEndpoint(f"bad port in endpoint {endpoint!r}")
    port_num = int(port)
    if not 0 <= port_num <= 65535:
        raise BadEndpoint(f"port out of range in endpoint {endpoint!r}")
    if "\x00" in host:
        raise BadEndpoint(f"bad host in endpoint {endpoint!r}")
    if not host.isascii():
        try:
            host.encode("idna")
        except UnicodeError:
            raise BadEndpoint(f"bad host in endpoint {endpoint!r}") from None
    return host or "0.0.0.0", port_num
