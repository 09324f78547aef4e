"""Canonical binary codec: round trips, determinism, error cases."""
import enum
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from mdflow import codec

scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False) | st.text() | st.binary())
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(values)
def test_round_trip(value):
    assert codec.decode(codec.encode(value)) == value


def test_encoding_is_canonical_for_dicts():
    a = codec.encode({"x": 1, "y": 2})
    b = codec.encode({"y": 2, "x": 1})
    assert a == b


def test_bool_and_int_are_distinct():
    assert codec.encode(True) != codec.encode(1)
    assert codec.decode(codec.encode(True)) is True


def test_unsupported_type_raises():
    with pytest.raises(codec.CodecError):
        codec.encode(object())


def test_truncated_data_raises():
    data = codec.encode([1, 2, 3])
    with pytest.raises(codec.CodecError):
        codec.decode(data[:-2])


def test_trailing_garbage_raises():
    with pytest.raises(codec.CodecError):
        codec.decode(codec.encode(1) + b"junk")


# The wire format, byte for byte.  Changing any of these breaks every peer
# and every stored payload: the codec is rewritten for speed, never for
# format.
GOLDEN = [
    (None, b"N"),
    (True, b"T"),
    (False, b"F"),
    (0, b"I\x01\x00\x00\x000"),
    (-1, b"I\x02\x00\x00\x00-1"),
    (10**40, b"I)\x00\x00\x00" + b"1" + b"0" * 40),
    (1.5, b"D\x00\x00\x00\x00\x00\x00\xf8?"),
    (-0.0, b"D\x00\x00\x00\x00\x00\x00\x00\x80"),
    (float("inf"), b"D\x00\x00\x00\x00\x00\x00\xf0\x7f"),
    (b"\x00\xff", b"B\x02\x00\x00\x00\x00\xff"),
    ("", b"S\x00\x00\x00\x00"),
    ("héllo 漢", b"S\n\x00\x00\x00h\xc3\xa9llo \xe6\xbc\xa2"),
    ([], b"L\x00\x00\x00\x00"),
    ((1, "a"), b"L\x02\x00\x00\x00I\x01\x00\x00\x001S\x01\x00\x00\x00a"),
    # keys sort by encoded form, so the length prefix puts "b" before "aa"
    ({"b": {"zz": 1, "a": [None]}, "aa": 2.5},
     b"M\x02\x00\x00\x00S\x01\x00\x00\x00bM\x02\x00\x00\x00S\x01\x00\x00\x00a"
     b"L\x01\x00\x00\x00NS\x02\x00\x00\x00zzI\x01\x00\x00\x001"
     b"S\x02\x00\x00\x00aaD\x00\x00\x00\x00\x00\x00\x04@"),
    ([1, 2, 3], b"L\x03\x00\x00\x00I\x01\x00\x00\x001I\x01\x00\x00\x002I\x01\x00\x00\x003"),
]


@pytest.mark.parametrize("value,wire", GOLDEN, ids=[repr(v)[:24] for v, _ in GOLDEN])
def test_golden_encoding(value, wire):
    assert codec.encode(value) == wire
    decoded = codec.decode(wire)
    assert decoded == (list(value) if isinstance(value, tuple) else value)
    assert type(decoded) is (list if isinstance(value, tuple) else type(value))


class MyInt(int):
    pass


class MyStr(str):
    pass


class MyList(list):
    pass


class MyDict(dict):
    pass


class MyFloat(float):
    pass


class MyBytes(bytes):
    pass


class MyTuple(tuple):
    pass


class Colour(str, enum.Enum):
    RED = "red"


class Level(int, enum.Enum):
    HIGH = 3


def test_subclasses_encode_like_their_base():
    assert codec.encode(MyInt(-12)) == codec.encode(-12)
    assert codec.encode(MyStr("x")) == codec.encode("x")
    assert codec.encode(MyList([1, MyInt(2)])) == codec.encode([1, 2])
    assert codec.encode(MyDict({MyStr("k"): 1})) == codec.encode({"k": 1})
    assert codec.encode(MyFloat(-0.0)) == codec.encode(-0.0)
    assert codec.encode(MyBytes(b"\x00b")) == codec.encode(b"\x00b")
    assert codec.encode(MyTuple((1, "a"))) == codec.encode([1, "a"])


def test_enum_members_encode_as_their_values():
    # the value, not str(member), which is "Colour.RED" for these mixins
    assert codec.encode(Colour.RED) == codec.encode("red")
    assert codec.encode(Level.HIGH) == codec.encode(3)


@pytest.mark.parametrize("data", [
    b"I\x01\x00\x00\x00x",                    # int body not decimal
    b"I\x00\x00\x00\x00",                     # empty int body
    b"S\x01\x00\x00\x00\xff",                 # str body not UTF-8
    b"M\x01\x00\x00\x00L\x00\x00\x00\x00N",  # unhashable dict key
    b"M\x01\x00\x00\x00I\x01\x00\x00\x001N",  # non-str dict key
    b"S\x05\x00\x00\x00ab",                   # body past the end
    b"L\x02\x00\x00\x00N",                    # too few items
    b"D\x00\x00",                             # short float
    b"",
    b"X",
    b"L\x01\x00\x00\x00" * 100_000 + b"N",    # nested past the recursion limit
], ids=lambda d: repr(d[:12]))
def test_malformed_payload_raises_codec_error(data):
    with pytest.raises(codec.CodecError):
        codec.decode(data)


@pytest.mark.parametrize("value", ["\ud800", 10**5000], ids=["lone-surrogate", "huge-int"])
def test_unencodable_value_raises_codec_error(value):
    with pytest.raises(codec.CodecError):
        codec.encode(value)


def test_cyclic_value_raises_codec_error():
    cyclic = []
    cyclic.append(cyclic)
    with pytest.raises(codec.CodecError):
        codec.encode(cyclic)


def decode_or_codec_error(data: bytes) -> None:
    try:
        codec.decode(data)
    except codec.CodecError:
        pass


@settings(deadline=None)
@given(st.binary())
def test_decode_of_arbitrary_bytes_raises_only_codec_error(data):
    decode_or_codec_error(data)


@st.composite
def mutated_encodings(draw, cut: bool = True) -> bytearray:
    """An encoding with up to 4 bytes overwritten, then cut short unless
    `cut` is false.  Half the new bytes are ones int() accepts around or
    inside digits."""
    wire = bytearray(codec.encode(draw(values)))
    byte = st.integers(0, 255) | st.sampled_from(b" +-_0")
    edits = draw(st.lists(st.tuples(st.integers(0, len(wire) - 1), byte), max_size=4))
    for i, byte in edits:
        wire[i] = byte
    return wire[:draw(st.integers(0, len(wire)))] if cut else wire


@settings(deadline=None)
@given(mutated_encodings())
def test_decode_of_mutated_encoding_raises_only_codec_error(wire):
    decode_or_codec_error(bytes(wire))


@settings(deadline=None)
@given(mutated_encodings())
def test_decode_of_mutated_bytearray_raises_only_codec_error(wire):
    decode_or_codec_error(wire)


@settings(deadline=None)
@given(mutated_encodings(cut=False))
def test_decode_accepts_only_what_encode_makes(wire):
    try:
        value = codec.decode(bytes(wire))
    except codec.CodecError:
        return
    assert codec.encode(value) == wire


def _int_wire(body: bytes) -> bytes:
    return b"I" + struct.pack("<I", len(body)) + body


# int() takes all of these bodies, and dict() takes any key order
NON_CANONICAL = [
    _int_wire(b"+12"),
    _int_wire(b" 12"),
    _int_wire(b"1_2"),
    _int_wire(b"07"),
    _int_wire(b"-0"),
    b"M\x02\x00\x00\x00S\x01\x00\x00\x00aTS\x01\x00\x00\x00aF",  # "a" twice
    b"M\x02\x00\x00\x00S\x01\x00\x00\x00bTS\x01\x00\x00\x00aF",  # "b" before "a"
]


@pytest.mark.parametrize("data", NON_CANONICAL, ids=repr)
def test_non_canonical_encoding_raises_codec_error(data):
    with pytest.raises(codec.CodecError):
        codec.decode(data)
    # an item of a list takes the inlined path
    with pytest.raises(codec.CodecError):
        codec.decode(b"L\x01\x00\x00\x00" + data)


def test_small_int_table_holds_the_general_encoding():
    assert set(codec._SMALL_INT_BYTES) == set(codec._SMALL_INTS)
    assert len(codec._SMALL_INT_VALUES) == len(codec._SMALL_INTS)
    for v in codec._SMALL_INTS:
        wire = _int_wire(b"%d" % v)
        assert codec._SMALL_INT_BYTES[v] == wire
        assert codec._SMALL_INT_VALUES[wire] == v
        assert codec.encode(v) == wire and codec.decode(wire) == v
        assert codec.encode([v]) == b"L\x01\x00\x00\x00" + wire
        assert codec.decode(b"L\x01\x00\x00\x00" + wire) == [v]


def test_values_equal_to_small_ints_keep_their_own_encoding():
    # True == 1, 1.0 == 1 and -0.0 == 0 all hash alike, so a lookup that
    # skipped the exact type check would encode them as ints
    values = [True, False, 1.0, 0.0, -0.0, 1, 0]
    wire = (b"L\x07\x00\x00\x00TF"
            b"D\x00\x00\x00\x00\x00\x00\xf0?"
            b"D\x00\x00\x00\x00\x00\x00\x00\x00"
            b"D\x00\x00\x00\x00\x00\x00\x00\x80"
            b"I\x01\x00\x00\x001I\x01\x00\x00\x000")
    assert codec.encode(values) == wire
    decoded = codec.decode(wire)
    assert [type(x) for x in decoded] == [type(x) for x in values]
    assert decoded == values and math.copysign(1.0, decoded[4]) == -1.0
    wire = b"M\x02\x00\x00\x00S\x01\x00\x00\x00aTS\x01\x00\x00\x00bI\x01\x00\x00\x001"
    assert codec.encode({"a": True, "b": 1}) == wire
    assert codec.decode(wire)["a"] is True


@pytest.mark.parametrize("v", [-257, -256, 1023, 1024, 10**40, -10**40])
def test_ints_at_and_past_the_table_bounds_round_trip(v):
    wire = _int_wire(b"%d" % v)
    assert codec.encode(v) == wire and codec.decode(wire) == v
    assert codec.encode([v, v]) == b"L\x02\x00\x00\x00" + wire * 2
    assert codec.decode(b"L\x02\x00\x00\x00" + wire * 2) == [v, v]


@given(values)
def test_buffers_decode_like_bytes(value):
    wire = codec.encode(value)
    expected = codec.decode(wire)
    for buffer in (bytearray(wire), memoryview(wire)):
        decoded = codec.decode(buffer)
        assert decoded == expected
        assert codec.encode(decoded) == wire  # a B body decodes to bytes


def test_decode_of_a_non_buffer_raises_codec_error():
    for data in ("N", 7, None):
        with pytest.raises(codec.CodecError):
            codec.decode(data)
