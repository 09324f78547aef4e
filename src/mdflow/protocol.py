"""Length-prefixed binary wire protocol between the runtime and remote workers.

Frame layout: u32 little-endian frame length, then one type byte and the
body.  Integers are fixed-width little-endian; payloads are codec-encoded
byte strings with 32-bit length prefixes.

    HELLO{proto_version}        -> READY{manifest: (name, in_arity, out_arity)*}
    EXEC{req_id, opcode, args*} -> RESULT{req_id, outputs*} | FAIL{req_id, message}

A client may pipeline EXECs: it can send several before reading a reply.
The daemon serves each connection strictly in turn, so replies come back in
the order their requests were sent.  A FAIL message starting with
OPCODE_FAULT_PREFIX is an opcode fault, which the client raises as
OpcodeError.  Protocol version 1.  A version mismatch or malformed frame (a
non-UTF-8 name included) gets an ERROR frame and the connection is closed.

Each end reads a socket through one FrameReader, which reads ahead: the
daemon takes pipelined EXECs, and the client replies, several to a recv.
Every client read has a deadline of its own (CONNECT_TIMEOUT_S for the
handshake, the caller's timeout for a reply), so the socket's timeout
bounds only sends.
"""
from __future__ import annotations

import contextlib
import itertools
import select
import socket
import struct
import threading
import time
from typing import Optional

from .core import DETERMINISTIC_FAULTS, MdfError, OpcodeError, OpcodeRegistry

#: FAIL-message prefix marking a deterministic opcode fault (as opposed to a
#: worker-side infrastructure failure); such faults must not be retried.
OPCODE_FAULT_PREFIX = "opcode-fault:"

PROTO_VERSION = 1

HELLO = 1
READY = 2
EXEC = 3
RESULT = 4
FAIL = 5
ERROR = 8

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

MAX_FRAME = 64 * 1024 * 1024

#: bound on connecting and on the whole HELLO/READY handshake (seconds)
CONNECT_TIMEOUT_S = 5.0


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


class FrameReader:
    """Reads the frames arriving on one socket, ahead in chunks: with EXECs
    pipelined, one read often brings several frames.  A socket has one
    reader, and nothing else reads it."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        #: bytes read past the last frame taken
        self._buf = bytearray()
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)

    def next(self, until: Optional[float] = None) -> tuple[int, bytes]:
        """The next frame's type and body.  With `until` (a monotonic time)
        the socket is read only once poll finds data before then, else
        socket.timeout; without, the socket's own timeout bounds each read.
        A closed connection raises ConnectionError."""
        buf = self._buf
        while True:
            if len(buf) >= 4:
                end = 4 + _U32.unpack_from(buf)[0]
                if end < 5 or end > 4 + MAX_FRAME:
                    raise ProtocolError(f"bad frame length {end - 4}")
                if len(buf) >= end:
                    ftype = buf[4]
                    with memoryview(buf) as view:
                        body = bytes(view[5:end])
                    del buf[:end]
                    return ftype, body
            if until is not None and not self._poll.poll(
                    max(until - time.monotonic(), 0.0) * 1000.0):
                raise socket.timeout("timed out")
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed")
            buf += chunk


def _decode_name(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"name is not UTF-8: {raw[:16]!r}") from exc


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
        manifest.append((_decode_name(name), in_ar, out_ar))
    return manifest


def _pack_payloads(head: bytes, payloads: list[bytes]) -> bytes:
    """`head`, then the payload list of an EXEC or RESULT body."""
    out = bytearray(head)
    out += _U32.pack(len(payloads))
    for p in payloads:
        out += _pack_bytes(p)
    return bytes(out)


def _unpack_payloads(body: bytes, pos: int) -> list[bytes]:
    if pos + 4 > len(body):
        raise ProtocolError("truncated payload count")
    count = _U32.unpack_from(body, pos)[0]
    pos += 4
    payloads = []
    for _ in range(count):
        p, pos = _unpack_bytes(body, pos)
        payloads.append(p)
    return payloads


def encode_exec(req_id: int, opcode: str, payloads: list[bytes]) -> bytes:
    return _pack_payloads(_U64.pack(req_id) + _pack_bytes(opcode.encode("utf-8")), payloads)


def decode_exec(body: bytes) -> tuple[int, str, list[bytes]]:
    if len(body) < 8:
        raise ProtocolError("truncated EXEC")
    name, pos = _unpack_bytes(body, 8)
    return _U64.unpack_from(body, 0)[0], _decode_name(name), _unpack_payloads(body, pos)


def encode_payload_list(req_id: int, payloads: list[bytes]) -> bytes:
    return _pack_payloads(_U64.pack(req_id), payloads)


def decode_payload_list(body: bytes) -> tuple[int, list[bytes]]:
    if len(body) < 8:
        raise ProtocolError("truncated frame")
    return _U64.unpack_from(body, 0)[0], _unpack_payloads(body, 8)


class WorkerClient:
    """Client side of the protocol: handshake and EXECs.

    `send_exec` and `read_reply` split an EXEC round trip so that a caller
    can keep several requests in flight: one thread sends, one reads, and
    replies arrive in send order.  `execute` is one blocking round trip.
    Every read has its own deadline: CONNECT_TIMEOUT_S for the handshake,
    the caller's timeout for a reply.  The socket's timeout, set once per
    connection (CONNECT_TIMEOUT_S unless the owner changes it), bounds only
    sends, so a reader never changes it under a sender.  All three raise
    RemoteFailure for a lost connection or a timeout; `read_reply` and
    `execute` raise OpcodeError for an opcode fault, RemoteFailure for any
    other worker-side failure, and ProtocolError for a malformed or
    mismatched reply."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT_S)
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._lock = threading.Lock()
            self._req_ids = itertools.count(1)
            self._frames = FrameReader(self.sock)
            send_frame(self.sock, HELLO, _U32.pack(PROTO_VERSION))
            ftype, body = self._frames.next(time.monotonic() + CONNECT_TIMEOUT_S)
            if ftype == ERROR:
                raise ProtocolError(body.decode("utf-8", "replace"))
            if ftype != READY:
                raise ProtocolError(f"expected READY, got frame type {ftype}")
            self.manifest = decode_manifest(body)
        except BaseException:
            self.close()
            raise

    def send_exec(self, opcode: str, payloads: list[bytes]) -> int:
        """Send one EXEC; returns its request id."""
        req_id = next(self._req_ids)
        try:
            send_frame(self.sock, EXEC, encode_exec(req_id, opcode, payloads))
        except OSError as exc:
            raise RemoteFailure(f"connection lost or timeout: {exc}") from exc
        return req_id

    def read_reply(self, req_id: int, timeout: float) -> list[bytes]:
        """Read the next reply, which must answer `req_id` and arrive whole
        within `timeout` seconds; its outputs."""
        try:
            ftype, body = self._frames.next(time.monotonic() + timeout)
        except OSError as exc:  # ConnectionError and socket.timeout included
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
            if message.startswith(OPCODE_FAULT_PREFIX):
                raise OpcodeError(message[len(OPCODE_FAULT_PREFIX):])
            raise RemoteFailure(message)
        return outputs

    def execute(self, opcode: str, payloads: list[bytes], deadline_s: float) -> list[bytes]:
        with self._lock:
            return self.read_reply(self.send_exec(opcode, payloads), deadline_s)

    def close(self) -> None:
        """Close the connection; a thread blocked in `read_reply` wakes with
        RemoteFailure."""
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self.sock.close()


class WorkerServer:
    """The remote data-flow interpreter daemon.

    Accepts connections and serves each one strictly in turn: it executes
    one EXEC, answers it, then takes the next, so a client that pipelines
    EXECs gets its replies in send order.  A connection's FrameReader reads
    pipelined EXECs ahead, several to a recv.  Parallelism comes from
    recruiting more workers.  `stop` closes the listener and shuts down
    every open connection.
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
        #: open connections, shut down by `stop`
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()

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
            with self._conns_lock:
                if self._stopping.is_set():
                    conn.close()
                    break
                self._conns.add(conn)
            threading.Thread(target=self._serve_conn, args=(conn,), daemon=True).start()
        self._sock.close()

    def stop(self) -> None:
        self._stopping.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)

    def _serve_conn(self, conn: socket.socket) -> None:
        conn.settimeout(None)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        frames = FrameReader(conn)
        try:
            while not self._stopping.is_set():
                try:
                    self._handle(conn, *frames.next())
                except ProtocolError as exc:
                    send_frame(conn, ERROR, str(exc).encode("utf-8"))
                    return
        except OSError:  # the client went away, or `stop` shut the connection
            pass
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            with contextlib.suppress(OSError):
                conn.close()

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
        else:
            raise ProtocolError(f"unexpected frame type {ftype}")
