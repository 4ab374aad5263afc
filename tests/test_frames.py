"""Wire-format layout and codec round-trip properties."""

import ipaddress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotram.net import (
    MalformedFrame,
    Opcode,
    REQUEST_LEN,
    RESPONSE_LEN,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from iotram.net.frames import MAGIC, VERSION, salvage_seq
from iotram.ram import Status

KEY = int(ipaddress.IPv6Address("2001:db8::1"))


def test_request_layout_frozen():
    raw = encode_request(Opcode.READ, KEY, 5, 0, 7)
    assert len(raw) == REQUEST_LEN == 30
    assert raw[0:2] == MAGIC == b"IR"
    assert raw[2] == VERSION == 1
    assert raw[3] == 0x00  # READ
    assert raw[4:20] == bytes.fromhex("20010db8") + bytes(11) + b"\x01"
    assert raw[20:24] == bytes.fromhex("00000005")
    assert raw[24:28] == bytes(4)
    assert raw[28:30] == bytes.fromhex("0007")


def test_request_data_and_opcode_bytes():
    raw = encode_request(Opcode.WRITE, 0, 0xFFFFFFFF, 0xCAFEBABE, 0xBEEF)
    assert raw[3] == 0x01
    assert raw[20:24] == b"\xff\xff\xff\xff"
    assert raw[24:28] == bytes.fromhex("cafebabe")
    assert raw[28:30] == bytes.fromhex("beef")
    raw = encode_request(Opcode.STATUS, 0, 0, 0, 0)
    assert raw[3] == 0x02


@pytest.mark.parametrize(
    "fields",
    [
        (3, KEY, 0, 0, 0),
        (Opcode.READ, 1 << 128, 0, 0, 0),
        (Opcode.READ, -1, 0, 0, 0),
        (Opcode.READ, KEY, 1 << 32, 0, 0),
        (Opcode.READ, KEY, -1, 0, 0),
        (Opcode.WRITE, KEY, 0, 1 << 32, 0),
        (Opcode.WRITE, KEY, 0, -1, 0),
        (Opcode.READ, KEY, 0, 0, 1 << 16),
        (Opcode.READ, KEY, 0, 0, -1),
    ],
)
def test_encode_rejects_bad_opcode(fields):
    # Out-of-range fields are ValueError too, not OverflowError or struct.error.
    with pytest.raises(ValueError):
        encode_request(*fields)


def test_decode_round_trip():
    frame = decode_request(encode_request(Opcode.WRITE, KEY, 9, 0x1234, 40000))
    assert frame.opcode == Opcode.WRITE
    assert frame.target_key == KEY
    assert (frame.addr, frame.data, frame.seq) == (9, 0x1234, 40000)


def test_decode_passes_unknown_opcode_through():
    raw = bytearray(encode_request(Opcode.READ, KEY, 0, 0, 1))
    raw[3] = 0x09
    assert decode_request(bytes(raw)).opcode == 9


@pytest.mark.parametrize("length", [0, 1, 29, 31, 64])
def test_decode_rejects_wrong_length(length):
    with pytest.raises(MalformedFrame):
        decode_request(b"\x00" * length)


def test_decode_rejects_bad_magic_and_version():
    good = encode_request(Opcode.READ, KEY, 0, 0, 1)
    with pytest.raises(MalformedFrame):
        decode_request(b"XX" + good[2:])
    with pytest.raises(MalformedFrame):
        decode_request(good[:2] + b"\x02" + good[3:])


def test_salvage_seq():
    good = encode_request(Opcode.READ, KEY, 0, 0, 0x1234)
    torn = b"XX" + good[2:]  # full length, bad magic
    assert salvage_seq(torn) == 0x1234
    assert salvage_seq(good[:29]) == 0
    assert salvage_seq(b"") == 0


def test_wire_status_is_the_ram_status():
    # One outcome vocabulary: the RAM's results go on the wire unmapped.
    for status in Status:
        assert decode_response(encode_response(status, 0, 0)).status is status
    assert [(s.name, int(s)) for s in Status] == [
        ("OK", 0), ("AUTH_FAIL", 1), ("ADDR_RANGE", 2), ("MALFORMED", 3), ("BAD_OPCODE", 4),
    ]


def test_response_layout_frozen():
    raw = encode_response(Status.AUTH_FAIL, 0xDEADBEEF, 0x0102)
    assert len(raw) == RESPONSE_LEN == 10
    assert raw[0:2] == b"IR"
    assert raw[2] == 1
    assert raw[3] == 0x01
    assert raw[4:8] == bytes.fromhex("deadbeef")
    assert raw[8:10] == bytes.fromhex("0102")


def test_response_round_trip_and_rejects():
    frame = decode_response(encode_response(Status.BAD_OPCODE, 7, 8))
    assert frame.status is Status.BAD_OPCODE
    assert (frame.data, frame.seq) == (7, 8)
    with pytest.raises(MalformedFrame):
        decode_response(b"\x00" * 9)
    raw = bytearray(encode_response(Status.OK, 0, 0))
    raw[3] = 250  # not a defined status
    with pytest.raises(MalformedFrame):
        decode_response(bytes(raw))


request_fields = st.tuples(
    st.sampled_from([Opcode.READ, Opcode.WRITE, Opcode.STATUS]),
    st.integers(min_value=0, max_value=2**128 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**16 - 1),
)


@given(fields=request_fields)
def test_request_codec_identity(fields):
    opcode, key, addr, data, seq = fields
    frame = decode_request(encode_request(opcode, key, addr, data, seq))
    assert (frame.opcode, frame.target_key, frame.addr, frame.data, frame.seq) == (
        opcode,
        key,
        addr,
        data,
        seq,
    )


@given(
    status=st.sampled_from(list(Status)),
    data=st.integers(min_value=0, max_value=2**32 - 1),
    seq=st.integers(min_value=0, max_value=2**16 - 1),
)
def test_response_codec_identity(status, data, seq):
    frame = decode_response(encode_response(status, data, seq))
    assert (frame.status, frame.data, frame.seq) == (status, data, seq)


@given(buf=st.binary(max_size=200))
def test_decode_never_crashes(buf):
    try:
        decode_request(buf)
    except MalformedFrame:
        pass
