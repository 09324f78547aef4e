"""Length-prefixed binary wire protocol between the runtime and remote workers.

Frame layout: u32 little-endian frame length, then one type byte and the
body.  Integers are fixed-width little-endian; payloads are codec-encoded
byte strings with 32-bit length prefixes.

    HELLO{proto_version}        -> READY{manifest: (name, in_arity, out_arity)*}
    EXEC{req_id, opcode, args*} -> RESULT{req_id, outputs*} | FAIL{req_id, message}
    PING                        -> PONG

Protocol version 1.  A version mismatch or malformed frame gets an ERROR
frame and the connection is closed.
"""
from __future__ import annotations

import socket
import struct
import threading
from typing import Optional

from .core import DETERMINISTIC_FAULTS, MdfError, OpcodeRegistry

#: FAIL-message prefix marking a deterministic opcode fault (as opposed to a
#: worker-side infrastructure failure); such faults must not be retried.
OPCODE_FAULT_PREFIX = "opcode-fault:"

PROTO_VERSION = 1

HELLO = 1
READY = 2
EXEC = 3
RESULT = 4
FAIL = 5
PING = 6
PONG = 7
ERROR = 8

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

MAX_FRAME = 64 * 1024 * 1024


class ProtocolError(MdfError):
    pass


class RemoteFailure(MdfError):
    """Remote execution failed: timeout, connection lost, or a worker-side
    exception payload."""


def _pack_bytes(b: bytes) -> bytes:
    return _U32.pack(len(b)) + b


def _unpack_bytes(body: bytes, pos: int) -> tuple[bytes, int]:
    if pos + 4 > len(body):
        raise ProtocolError("truncated length prefix")
    n = _U32.unpack_from(body, pos)[0]
    pos += 4
    if pos + n > len(body):
        raise ProtocolError("truncated field")
    return body[pos:pos + n], pos + n


def send_frame(sock: socket.socket, ftype: int, body: bytes = b"") -> None:
    sock.sendall(_U32.pack(1 + len(body)) + bytes([ftype]) + body)


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    header = _recv_exact(sock, 4)
    length = _U32.unpack(header)[0]
    if length < 1 or length > MAX_FRAME:
        raise ProtocolError(f"bad frame length {length}")
    data = _recv_exact(sock, length)
    return data[0], data[1:]


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("connection closed")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def encode_manifest(manifest: list[tuple[str, int, int]]) -> bytes:
    out = bytearray(_U32.pack(len(manifest)))
    for name, in_ar, out_ar in manifest:
        out += _pack_bytes(name.encode("utf-8"))
        out += _U32.pack(in_ar) + _U32.pack(out_ar)
    return bytes(out)


def decode_manifest(body: bytes) -> list[tuple[str, int, int]]:
    if len(body) < 4:
        raise ProtocolError("truncated manifest")
    count = _U32.unpack_from(body, 0)[0]
    pos = 4
    manifest = []
    for _ in range(count):
        name, pos = _unpack_bytes(body, pos)
        if pos + 8 > len(body):
            raise ProtocolError("truncated manifest entry")
        in_ar, out_ar = _U32.unpack_from(body, pos)[0], _U32.unpack_from(body, pos + 4)[0]
        pos += 8
        manifest.append((name.decode("utf-8"), in_ar, out_ar))
    return manifest


def encode_exec(req_id: int, opcode: str, payloads: list[bytes]) -> bytes:
    out = bytearray(_U64.pack(req_id))
    out += _pack_bytes(opcode.encode("utf-8"))
    out += _U32.pack(len(payloads))
    for p in payloads:
        out += _pack_bytes(p)
    return bytes(out)


def decode_exec(body: bytes) -> tuple[int, str, list[bytes]]:
    if len(body) < 8:
        raise ProtocolError("truncated EXEC")
    req_id = _U64.unpack_from(body, 0)[0]
    name, pos = _unpack_bytes(body, 8)
    if pos + 4 > len(body):
        raise ProtocolError("truncated EXEC payload count")
    count = _U32.unpack_from(body, pos)[0]
    pos += 4
    payloads = []
    for _ in range(count):
        p, pos = _unpack_bytes(body, pos)
        payloads.append(p)
    return req_id, name.decode("utf-8"), payloads


def encode_payload_list(req_id: int, payloads: list[bytes]) -> bytes:
    out = bytearray(_U64.pack(req_id))
    out += _U32.pack(len(payloads))
    for p in payloads:
        out += _pack_bytes(p)
    return bytes(out)


def decode_payload_list(body: bytes) -> tuple[int, list[bytes]]:
    if len(body) < 12:
        raise ProtocolError("truncated frame")
    req_id = _U64.unpack_from(body, 0)[0]
    count = _U32.unpack_from(body, 8)[0]
    pos = 12
    payloads = []
    for _ in range(count):
        p, pos = _unpack_bytes(body, pos)
        payloads.append(p)
    return req_id, payloads


class WorkerClient:
    """Client side of the protocol: handshake, EXEC round trips, PING."""

    def __init__(self, host: str, port: int, connect_timeout: float = 5.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=connect_timeout)
        self.sock.settimeout(connect_timeout)
        self._lock = threading.Lock()
        self._next_req = 1
        send_frame(self.sock, HELLO, _U32.pack(PROTO_VERSION))
        ftype, body = recv_frame(self.sock)
        if ftype == ERROR:
            raise ProtocolError(body.decode("utf-8", "replace"))
        if ftype != READY:
            raise ProtocolError(f"expected READY, got frame type {ftype}")
        self.manifest = decode_manifest(body)

    def execute(self, opcode: str, payloads: list[bytes], deadline_s: float) -> list[bytes]:
        with self._lock:
            req_id = self._next_req
            self._next_req += 1
            try:
                self.sock.settimeout(deadline_s)
                send_frame(self.sock, EXEC, encode_exec(req_id, opcode, payloads))
                ftype, body = recv_frame(self.sock)
            except (OSError, ConnectionError) as exc:
                raise RemoteFailure(f"connection lost or timeout: {exc}") from exc
        if ftype == RESULT:
            rid, outputs = decode_payload_list(body)
        elif ftype == FAIL:
            if len(body) < 8:
                raise ProtocolError("truncated FAIL")
            rid = _U64.unpack_from(body, 0)[0]
            message = _unpack_bytes(body, 8)[0].decode("utf-8", "replace")
        elif ftype == ERROR:
            raise ProtocolError(body.decode("utf-8", "replace"))
        else:
            raise ProtocolError(f"unexpected frame type {ftype}")
        if rid != req_id:
            raise ProtocolError(f"request id mismatch: {rid} != {req_id}")
        if ftype == FAIL:
            raise RemoteFailure(message)
        return outputs

    def ping(self, timeout_s: float = 5.0) -> bool:
        with self._lock:
            try:
                self.sock.settimeout(timeout_s)
                send_frame(self.sock, PING)
                ftype, _ = recv_frame(self.sock)
            except (OSError, ConnectionError):
                return False
        return ftype == PONG

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class WorkerServer:
    """The remote data-flow interpreter daemon.

    Accepts connections and executes EXEC requests sequentially per
    connection; parallelism comes from recruiting more workers.
    """

    def __init__(self, registry: OpcodeRegistry, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.registry = registry
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "WorkerServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True,
                                        name=f"mdflow-worker:{self.port}")
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._sock.settimeout(0.2)
        while not self._stopping.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(target=self._serve_conn, args=(conn,), daemon=True).start()
        self._sock.close()

    def stop(self) -> None:
        self._stopping.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    def _serve_conn(self, conn: socket.socket) -> None:
        conn.settimeout(None)
        try:
            while not self._stopping.is_set():
                try:
                    ftype, body = recv_frame(conn)
                except (ConnectionError, OSError):
                    return
                try:
                    self._handle(conn, ftype, body)
                except ProtocolError as exc:
                    send_frame(conn, ERROR, str(exc).encode("utf-8"))
                    return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle(self, conn: socket.socket, ftype: int, body: bytes) -> None:
        if ftype == HELLO:
            if len(body) != 4:
                raise ProtocolError("malformed HELLO")
            version = _U32.unpack(body)[0]
            if version != PROTO_VERSION:
                raise ProtocolError(f"protocol version {version} unsupported")
            send_frame(conn, READY, encode_manifest(self.registry.manifest()))
        elif ftype == EXEC:
            req_id, opcode, payloads = decode_exec(body)
            try:
                outputs = self.registry.run_encoded(opcode, payloads)
            except Exception as exc:
                prefix = OPCODE_FAULT_PREFIX if isinstance(exc, DETERMINISTIC_FAULTS) else ""
                msg = (prefix + str(exc)).encode("utf-8")
                send_frame(conn, FAIL, _U64.pack(req_id) + _pack_bytes(msg))
                return
            send_frame(conn, RESULT, encode_payload_list(req_id, outputs))
        elif ftype == PING:
            send_frame(conn, PONG)
        else:
            raise ProtocolError(f"unexpected frame type {ftype}")
