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

`encode` raises CodecError for a value it cannot encode.  `decode` raises
only CodecError for malformed input (truncated, trailing bytes, unknown
tag, bad int or UTF-8 body, non-str dict key, nesting too deep), never
another exception type.

Every operation is on the hot path of remote execution, so both
directions dispatch on the exact type (or tag) first, encode collects
parts and joins them once, and decode checks bounds once, by catching
the exception a short read raises.  A subclass instance is converted to
its base type and encoded as that.
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
    if t is int:
        body = b"%d" % value
        out.append(_int_head(len(body)))
        out.append(body)
    elif t is list or t is tuple:
        append = out.append
        append(_T_LIST + _u32_pack(len(value)))
        for item in value:
            if type(item) is int:  # inline: a call per item costs more than the item
                body = b"%d" % item
                n = len(body)
                append(_INT_HEADS[n] if n < 64 else _T_INT + _u32_pack(n))
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


def _decode_at(data: bytes, pos: int):
    """The value at `pos` and the offset after it.  Short reads raise
    IndexError or struct.error, and a body that runs past the end returns
    an offset past the end; `decode` turns both into CodecError."""
    tag = data[pos]
    pos += 1
    if tag == _L:
        n = _u32_at(data, pos)[0]
        pos += 4
        items = []
        append = items.append
        for _ in range(n):
            if data[pos] == _I:
                start = pos + 5
                pos = start + _u32_at(data, pos + 1)[0]
                append(int(data[start:pos]))
            else:
                item, pos = _decode_at(data, pos)
                append(item)
        return items, pos
    if tag == _I:
        end = pos + 4 + _u32_at(data, pos)[0]
        return int(data[pos + 4:end]), end
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
        for _ in range(n):
            if data[pos] != _S:
                raise CodecError(f"dict key is not a str at offset {pos}")
            end = pos + 5 + _u32_at(data, pos + 1)[0]
            key = data[pos + 5:end].decode("utf-8")
            result[key], pos = _decode_at(data, end)
        return result, pos
    raise CodecError(f"unknown tag {bytes([tag])!r} at offset {pos - 1}")
