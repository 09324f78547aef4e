"""Canonical self-describing binary encoding for payload values.

Payloads travel through the system as opaque byte strings; this module is
the default codec turning Python values into such byte strings and back.
The encoding is deterministic (dict keys are sorted by their encoded form),
so equal values always produce equal bytes.

Supported value types: None, bool, int, float, bytes, str, list/tuple
(decoded as list), dict with str keys.

Format: one tag byte, then a body.  ``N``, ``T`` and ``F`` have no body;
``D`` is an 8-byte little-endian double; ``I`` (decimal ASCII digits),
``B`` and ``S`` (UTF-8) are a u32 little-endian length and that many
bytes; ``L`` and ``M`` are a u32 item count and the items (a dict item
is an ``S`` key followed by its value).  The format is frozen: the golden
encodings in ``tests/test_codec.py`` pin it byte for byte.

`encode` raises CodecError for a value it cannot encode.  `decode` accepts
only the bytes `encode` makes, so `encode(decode(b)) == b` whenever it
returns.  It raises only CodecError for anything else (truncated, trailing
bytes, unknown tag, an int body not in canonical decimal form, a non-UTF-8
str body, a non-str dict key, dict keys not strictly ascending by encoded
form, nesting too deep), never another exception type.  Any buffer
(`bytearray`, `memoryview`) decodes as the `bytes` it holds.

Every operation is on the hot path of remote execution, so both
directions dispatch on the exact type (or tag) first, encode collects
parts and joins them once, and decode checks bounds once, by catching
the exception a short read raises.  Small ints, the bulk of most
payloads, are encoded and decoded by lookup in two tables built with
the general encoder at import.  A subclass instance is converted to its
base type and encoded as that.
"""
from __future__ import annotations

import struct


class CodecError(ValueError):
    pass


_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_u32_pack = _U32.pack
_u32_at = _U32.unpack_from
_f64_pack = _F64.pack
_f64_at = _F64.unpack_from

# one-byte type tags
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"I"
_T_FLOAT = b"D"
_T_BYTES = b"B"
_T_STR = b"S"
_T_LIST = b"L"
_T_DICT = b"M"

# the same tags as the ints that indexing a bytes object yields
_N, _TR, _FA, _I, _D, _B, _S, _L, _M = b"NTFIDBSLM"

# tag and length header of an int whose decimal body has n bytes, by n
_INT_HEADS = tuple(_T_INT + _u32_pack(n) for n in range(64))


def _int_head(n: int) -> bytes:
    return _INT_HEADS[n] if n < 64 else _T_INT + _u32_pack(n)


# a subclass instance is encoded as a copy of its base value (bool is final);
# the base's own method makes the copy, so an overridden __str__, such as a
# (str, Enum) member's, does not change the bytes
_SUBCLASS_BASES = ((int, int.__int__), (float, float.__float__),
                   (bytes, bytes), (str, str.__str__),
                   (list, list), (tuple, list), (dict, dict))


def encode(value) -> bytes:
    try:
        parts: list[bytes] = []
        _encode_into(value, parts)
        return b"".join(parts)
    except CodecError:
        raise
    except (ValueError, RecursionError) as exc:
        # an int past the digit limit, a str with a lone surrogate, a cycle
        raise CodecError(f"cannot encode: {exc}") from exc


def _encode_into(value, out: list) -> None:
    t = type(value)
    # the table is consulted only after the exact type check: True, 1.0 and
    # -0.0 hash and compare equal to ints and would find their entries
    if t is int:
        if _SMALL_MIN <= value < _SMALL_END:
            out.append(_SMALL_INT_BYTES[value])
        else:
            body = b"%d" % value
            out.append(_int_head(len(body)))
            out.append(body)
    elif t is list or t is tuple:
        append = out.append
        append(_T_LIST + _u32_pack(len(value)))
        for item in value:
            if type(item) is int:  # inline: a call per item costs more than the item
                if _SMALL_MIN <= item < _SMALL_END:
                    append(_SMALL_INT_BYTES[item])
                else:
                    body = b"%d" % item
                    try:
                        append(_INT_HEADS[len(body)])
                    except IndexError:
                        append(_T_INT + _u32_pack(len(body)))
                    append(body)
            else:
                _encode_into(item, out)
    elif t is str:
        body = value.encode("utf-8")
        out.append(_T_STR + _u32_pack(len(body)))
        out.append(body)
    elif t is bytes:
        out.append(_T_BYTES + _u32_pack(len(value)))
        out.append(value)
    elif t is float:
        out.append(_T_FLOAT + _f64_pack(value))
    elif value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif t is dict:
        _encode_dict(value, out)
    else:
        for base, to_base in _SUBCLASS_BASES:
            if isinstance(value, base):
                _encode_into(to_base(value), out)
                return
        raise CodecError(f"unsupported payload type: {t.__name__}")


def _encode_dict(value: dict, out: list) -> None:
    items = []
    for k, v in value.items():
        if not isinstance(k, str):
            raise CodecError(f"dict keys must be str, got {type(k).__name__}")
        body = k.encode("utf-8")
        items.append((_T_STR + _u32_pack(len(body)) + body, v))
    items.sort(key=lambda kv: kv[0])
    out.append(_T_DICT + _u32_pack(len(items)))
    for ek, v in items:
        out.append(ek)
        _encode_into(v, out)


def decode(data: bytes):
    if type(data) is not bytes:
        # one copy, so that every slice is bytes: hashable, as the small-int
        # table needs, and what a B body decodes to
        try:
            data = memoryview(data).tobytes()
        except TypeError:
            raise CodecError(f"cannot decode a {type(data).__name__}") from None
    try:
        value, pos = _decode_at(data, 0)
    except CodecError:
        raise
    except (IndexError, struct.error):
        raise CodecError("truncated payload") from None
    except ValueError as exc:  # a bad int body or a non-UTF-8 str body
        raise CodecError(f"malformed body: {exc}") from None
    except RecursionError:
        raise CodecError("payload nested too deeply") from None
    if pos != len(data):
        # a body read past the end is cut short by slicing, not an error
        if pos > len(data):
            raise CodecError("truncated payload")
        raise CodecError(f"trailing bytes after value ({len(data) - pos})")
    return value


def _check_int(body: bytes, value: int) -> None:
    """Reject what int() accepts beyond canonical decimal: a sign other than
    a leading '-', spaces, underscores, leading zeros and '-0'."""
    if b"%d" % value != body:
        raise CodecError(f"int body not in canonical form: {body[:32]!r}")


def _decode_at(data: bytes, pos: int):
    """The value at `pos` and the offset after it.  Short reads raise
    IndexError or struct.error, and a body that runs past the end returns
    an offset past the end; `decode` turns both into CodecError.

    An int short enough to be in the small-int table is first looked up
    whole (tag, length and body); only a miss parses the body, which must
    then be canonical.  A body of digits that starts with 1-9 is, so only
    other bodies pay for the full check."""
    tag = data[pos]
    if tag == _I:
        k = data[pos + 1]
        if k <= _SMALL_BODY_MAX:
            value = _SMALL_INT_VALUES.get(data[pos:pos + 5 + k])
            if value is not None:
                return value, pos + 5 + k
        end = pos + 5 + _u32_at(data, pos + 1)[0]
        body = data[pos + 5:end]
        value = int(body)
        if body < b"1" or not body.isdigit():
            _check_int(body, value)
        return value, end
    if tag == _L:
        n = _u32_at(data, pos + 1)[0]
        pos += 5
        items = []
        append = items.append
        small = _SMALL_INT_VALUES.get
        for _ in range(n):
            if data[pos] == _I:
                k = data[pos + 1]
                if k <= _SMALL_BODY_MAX and (value := small(data[pos:pos + 5 + k])) is not None:
                    pos += 5 + k
                else:
                    start = pos + 5
                    pos = start + _u32_at(data, pos + 1)[0]
                    body = data[start:pos]
                    value = int(body)
                    if body < b"1" or not body.isdigit():
                        _check_int(body, value)
                append(value)
            else:
                item, pos = _decode_at(data, pos)
                append(item)
        return items, pos
    pos += 1
    if tag == _S:
        end = pos + 4 + _u32_at(data, pos)[0]
        return data[pos + 4:end].decode("utf-8"), end
    if tag == _B:
        end = pos + 4 + _u32_at(data, pos)[0]
        return data[pos + 4:end], end
    if tag == _D:
        return _f64_at(data, pos)[0], pos + 8
    if tag == _N:
        return None, pos
    if tag == _TR:
        return True, pos
    if tag == _FA:
        return False, pos
    if tag == _M:
        n = _u32_at(data, pos)[0]
        pos += 4
        result = {}
        last = b""
        for _ in range(n):
            if data[pos] != _S:
                raise CodecError(f"dict key is not a str at offset {pos}")
            end = pos + 5 + _u32_at(data, pos + 1)[0]
            encoded_key = data[pos:end]
            # encode sorts keys by encoded form, so anything but a strictly
            # ascending order (a repeat too) is not its output
            if encoded_key <= last:
                raise CodecError(f"dict key out of order at offset {pos}")
            last = encoded_key
            key = data[pos + 5:end].decode("utf-8")
            result[key], pos = _decode_at(data, end)
        return result, pos
    raise CodecError(f"unknown tag {bytes([tag])!r} at offset {pos - 1}")


# Ints in this range are encoded and decoded by table lookup: counts, indices,
# flags and digits are most of the ints in payloads, and a lookup costs a
# fraction of formatting or parsing one.  The range is small enough that the
# two tables take under 1 ms and about 150 KB at import.  The encoder above
# fills them through its general path, with the lookup closed until they
# are built, so their bytes are its bytes by construction.
_SMALL_INTS = range(-256, 1024)
_SMALL_MIN = _SMALL_END = 0
_SMALL_INT_BYTES = {v: encode(v) for v in _SMALL_INTS}
_SMALL_INT_VALUES = {wire: v for v, wire in _SMALL_INT_BYTES.items()}
_SMALL_MIN, _SMALL_END = _SMALL_INTS.start, _SMALL_INTS.stop
# a longer int body ("-256" and "1023" have 4 bytes) is not looked up, so
# its miss costs one compare, not a slice and a hash
_SMALL_BODY_MAX = max(len(wire) for wire in _SMALL_INT_VALUES) - 5
