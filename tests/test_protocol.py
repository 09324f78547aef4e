"""Wire protocol: handshake, EXEC round trips, failure frames, daemon."""
import contextlib
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from mdflow import codec, protocol
from mdflow.compiler import Seq, compile_skeleton, normalize, parse_skeleton
from mdflow.harness import ExperimentConfig, run_experiment, run_oracle
from mdflow.core import OpcodeError, OpcodeRegistry
from mdflow.ops import default_registry
from mdflow.protocol import (
    ERROR,
    EXEC,
    FAIL,
    HELLO,
    MAX_FRAME,
    PROTO_VERSION,
    READY,
    RESULT,
    FrameReader,
    ProtocolError,
    RemoteFailure,
    WorkerClient,
    WorkerServer,
    decode_payload_list,
    encode_exec,
    encode_manifest,
    encode_payload_list,
    send_frame,
)
from mdflow.runtime import OpcodeManifestMismatch, Runtime, Unreachable
from mdflow.taskpool import TaskPool


@pytest.fixture
def server():
    reg = default_registry()
    reg.register("boom", lambda x: 1 // 0)
    srv = WorkerServer(reg).start()
    yield srv
    srv.stop()


def test_handshake_returns_manifest(server):
    client = WorkerClient(server.host, server.port)
    assert ("echo", 1, 1) in client.manifest
    assert ("add2", 2, 1) in client.manifest
    client.close()


def test_exec_round_trip_byte_identical(server):
    client = WorkerClient(server.host, server.port)
    payload = codec.encode({"k": [1, 2.5, "three", b"\x00\xff"]})
    out = client.execute("echo", [payload], deadline_s=5.0)
    assert out == [payload]
    client.close()


def test_exec_computes(server):
    client = WorkerClient(server.host, server.port)
    out = client.execute("add2", [codec.encode(2), codec.encode(40)], 5.0)
    assert codec.decode(out[0]) == 42
    client.close()


def test_daemon_charges_opcode_cost():
    srv = WorkerServer(default_registry(50.0)).start()
    client = WorkerClient(srv.host, srv.port)
    try:
        t0 = time.monotonic()
        for i in range(10):
            assert client.execute("work", [codec.encode(i)], 5.0) == [codec.encode(i)]
        assert time.monotonic() - t0 >= 0.5
    finally:
        client.close()
        srv.stop()


def test_version_mismatch_rejected(server):
    sock = socket.create_connection((server.host, server.port), timeout=5)
    send_frame(sock, HELLO, struct.pack("<I", PROTO_VERSION + 1))
    ftype, body = FrameReader(sock).next()
    assert ftype == ERROR
    # server closes the connection afterwards
    assert sock.recv(1) == b""
    sock.close()


def test_malformed_frame_gets_error_and_close(server):
    sock = socket.create_connection((server.host, server.port), timeout=5)
    send_frame(sock, 99, b"garbage")
    ftype, _ = FrameReader(sock).next()
    assert ftype == ERROR
    assert sock.recv(1) == b""
    sock.close()


def test_non_utf8_opcode_name_gets_error_frame(server):
    sock = socket.create_connection((server.host, server.port), timeout=5)
    frames = FrameReader(sock)
    send_frame(sock, HELLO, struct.pack("<I", PROTO_VERSION))
    assert frames.next()[0] == READY
    name = b"\xff\xfe"
    send_frame(sock, EXEC, struct.pack("<QI", 1, len(name)) + name + struct.pack("<I", 0))
    assert frames.next()[0] == ERROR
    assert sock.recv(1) == b""
    sock.close()
    client = WorkerClient(server.host, server.port)  # the daemon still serves
    assert client.execute("inc", [codec.encode(1)], 5.0) == [codec.encode(2)]
    client.close()


def test_stop_shuts_open_connections():
    srv = WorkerServer(default_registry()).start()
    client = WorkerClient(srv.host, srv.port)
    try:
        assert client.execute("inc", [codec.encode(1)], 5.0) == [codec.encode(2)]
        srv.stop()
        with pytest.raises(RemoteFailure):
            client.execute("inc", [codec.encode(1)], 5.0)
    finally:
        client.close()
        srv.stop()


_FUZZ_OPCODE = "fuzz-target"
_U32 = struct.Struct("<I")


def _frame(ftype: int, body: bytes) -> bytes:
    return _U32.pack(1 + len(body)) + bytes([ftype]) + body


@st.composite
def _truncated_exec(draw) -> bytes:
    """A valid EXEC body cut short, framed whole."""
    body = encode_exec(draw(st.integers(0, 2**64 - 1)), _FUZZ_OPCODE,
                       draw(st.lists(st.binary(max_size=16), max_size=3)))
    return _frame(EXEC, body[:draw(st.integers(0, len(body) - 1))])


_fuzz_frames = st.one_of(
    st.builds(_frame, st.integers(0, 255).filter(lambda t: t != HELLO),
              st.binary(max_size=64)),
    _truncated_exec(),
    # a bad length, or a frame whose length promises more than follows
    st.builds(lambda n, tail: _U32.pack(n) + tail,
              st.one_of(st.just(0), st.integers(MAX_FRAME + 1, 2**32 - 1),
                        st.integers(1, 256)),
              st.binary(max_size=16)),
)


def test_fuzzed_frames_get_error_or_fail_and_the_daemon_keeps_serving():
    reg = OpcodeRegistry()  # nothing a random EXEC can name
    reg.register(_FUZZ_OPCODE, lambda x: x)
    srv = WorkerServer(reg).start()

    @settings(max_examples=60, deadline=None)
    @given(frames=st.lists(_fuzz_frames, min_size=1, max_size=4))
    def check(frames):
        sock = socket.create_connection((srv.host, srv.port), timeout=5)
        reader = FrameReader(sock)
        try:
            send_frame(sock, HELLO, struct.pack("<I", PROTO_VERSION))
            assert reader.next()[0] == READY
            with contextlib.suppress(OSError):  # the daemon may close first
                sock.sendall(b"".join(frames))  # back to back, as a pipelining client
                sock.shutdown(socket.SHUT_WR)
            replies = []
            with contextlib.suppress(ConnectionError):  # a close, or a reset
                while True:
                    replies.append(reader.next()[0])
        finally:
            sock.close()
        assert set(replies) <= {ERROR, FAIL}
        client = WorkerClient(srv.host, srv.port)
        try:
            assert client.execute(_FUZZ_OPCODE, [codec.encode(1)], 5.0) == [codec.encode(1)]
        finally:
            client.close()

    try:
        check()
    finally:
        srv.stop()


def test_unknown_opcode_fails_request(server):
    client = WorkerClient(server.host, server.port)
    with pytest.raises(OpcodeError):
        client.execute("nonexistent", [codec.encode(1)], 5.0)
    client.close()


def test_opcode_fault_is_marked(server):
    client = WorkerClient(server.host, server.port)
    with pytest.raises(OpcodeError) as exc_info:
        client.execute("boom", [codec.encode(1)], 5.0)
    assert str(exc_info.value).startswith("boom:")
    client.close()


def test_malformed_payload_is_an_opcode_fault_and_keeps_the_connection(server):
    client = WorkerClient(server.host, server.port)
    with pytest.raises(OpcodeError):
        client.execute("echo", [b"I\x01\x00\x00\x00x"], 5.0)
    assert client.execute("inc", [codec.encode(1)], 5.0) == [codec.encode(2)]
    client.close()


def test_malformed_fail_frames_are_protocol_errors():
    listener = socket.create_server(("127.0.0.1", 0))
    message = b"worker-side failure"
    fail_bodies = [b"\x01\x00\x00",  # shorter than a request id
                   struct.pack("<QI", 999, len(message)) + message]  # another request's id

    def fake_daemon():
        conn, _ = listener.accept()
        with conn:
            frames = FrameReader(conn)
            frames.next()  # HELLO
            send_frame(conn, READY, encode_manifest([]))
            for body in fail_bodies:
                assert frames.next()[0] == EXEC
                send_frame(conn, FAIL, body)

    daemon = threading.Thread(target=fake_daemon, daemon=True)
    daemon.start()
    client = WorkerClient(*listener.getsockname())
    try:
        for _ in fail_bodies:
            with pytest.raises(ProtocolError):
                client.execute("echo", [codec.encode(1)], 5.0)
    finally:
        client.close()
        daemon.join(5.0)
        listener.close()
    assert not daemon.is_alive()


# -- the shared frame reader keeps frame boundaries when it reads ahead ----

def test_daemon_reads_pipelined_frames_from_one_write(server):
    sock = socket.create_connection((server.host, server.port), timeout=5)
    reader = FrameReader(sock)
    try:
        sock.sendall(_frame(HELLO, struct.pack("<I", PROTO_VERSION)) + b"".join(
            _frame(EXEC, encode_exec(rid, "inc", [codec.encode(rid)])) for rid in (1, 2, 3)))
        assert reader.next()[0] == READY
        for rid in (1, 2, 3):
            ftype, body = reader.next()
            assert ftype == RESULT
            assert decode_payload_list(body) == (rid, [codec.encode(rid + 1)])
    finally:
        sock.close()


def test_read_reply_takes_a_reply_written_one_byte_at_a_time():
    listener = socket.create_server(("127.0.0.1", 0))
    output = codec.encode("a reply in pieces")

    def fake_daemon():
        conn, _ = listener.accept()
        with conn:
            frames = FrameReader(conn)
            frames.next()  # HELLO
            send_frame(conn, READY, encode_manifest([]))
            rid = struct.unpack_from("<Q", frames.next()[1])[0]
            body = encode_payload_list(rid, [output])
            for byte in _frame(RESULT, body):
                conn.sendall(bytes([byte]))
                time.sleep(0.001)
            with contextlib.suppress(OSError):
                conn.recv(1)  # until the client closes

    daemon = threading.Thread(target=fake_daemon, daemon=True)
    daemon.start()
    client = WorkerClient(*listener.getsockname())
    try:
        assert client.read_reply(client.send_exec("echo", [output]), 5.0) == [output]
    finally:
        client.close()
        daemon.join(5.0)
        listener.close()
    assert not daemon.is_alive()


def test_exec_then_bad_length_in_one_write_gets_result_then_error_and_close(server):
    sock = socket.create_connection((server.host, server.port), timeout=5)
    reader = FrameReader(sock)
    try:
        send_frame(sock, HELLO, struct.pack("<I", PROTO_VERSION))
        assert reader.next()[0] == READY
        sock.sendall(_frame(EXEC, encode_exec(7, "inc", [codec.encode(1)])) + _U32.pack(0))
        ftype, body = reader.next()
        assert ftype == RESULT and decode_payload_list(body) == (7, [codec.encode(2)])
        assert reader.next()[0] == ERROR
        with pytest.raises(ConnectionError):
            reader.next()
    finally:
        sock.close()


def test_handshake_is_bounded_by_connect_timeout(monkeypatch):
    monkeypatch.setattr(protocol, "CONNECT_TIMEOUT_S", 0.3)
    listener = socket.create_server(("127.0.0.1", 0))
    accepted = []
    silent = threading.Thread(target=lambda: accepted.append(listener.accept()[0]),
                              daemon=True)
    silent.start()
    runtime = Runtime(TaskPool(), default_registry())
    try:
        t0 = time.monotonic()
        with pytest.raises(Unreachable):
            runtime.recruit(listener.getsockname())
        elapsed = time.monotonic() - t0
    finally:
        silent.join(5.0)
        for conn in accepted:
            conn.close()
        listener.close()
    assert accepted and 0.25 <= elapsed < 1.5


def test_execute_deadline(server):
    import time
    reg = server.registry
    reg.register("slow", lambda x: time.sleep(0.5) or x)
    client = WorkerClient(server.host, server.port)
    with pytest.raises(RemoteFailure):
        client.execute("slow", [codec.encode(1)], deadline_s=0.05)
    client.close()


def test_runtime_over_remote_worker(server):
    reg = default_registry()
    pool = TaskPool()
    runtime = Runtime(pool, reg, required_opcodes=["inc"])
    desc = runtime.recruit((server.host, server.port))
    assert desc.kind == "remote" and desc.state == "idle"
    runtime.start()
    t = compile_skeleton(Seq("inc"))
    for i in range(20):
        pool.submit_task(t, codec.encode(i))
    assert pool.wait_quiescent(10)
    assert sorted(codec.decode(r.value) for r in pool.results) == \
        [i + 1 for i in range(20)]
    runtime.shutdown()


def test_manifest_mismatch_at_recruit(server):
    reg = default_registry()
    pool = TaskPool()
    runtime = Runtime(pool, reg, required_opcodes=["not_published"])
    with pytest.raises(OpcodeManifestMismatch):
        runtime.recruit((server.host, server.port))


@pytest.mark.parametrize("form", [lambda s: s, normalize], ids=["as_written", "normal"])
def test_recruitment_asks_for_every_opcode_of_either_form(form):
    # the normal form's chain(f,g) needs exactly what pipe(seq:f,seq:g) needs
    template = compile_skeleton(form(parse_skeleton("pipe(seq:f,seq:g)")))
    opcodes = sorted({i.opcode for i in template.instructions.values()})
    lacks_g = OpcodeRegistry()
    lacks_g.register("f", lambda x: x + 1)
    for reg, accepted in [(lacks_g, False), (default_registry(), True)]:
        srv = WorkerServer(reg).start()
        runtime = Runtime(TaskPool(), default_registry(), required_opcodes=opcodes)
        try:
            if accepted:
                assert runtime.recruit((srv.host, srv.port)).kind == "remote"
            else:
                with pytest.raises(OpcodeManifestMismatch, match="'g'|chain"):
                    runtime.recruit((srv.host, srv.port))
        finally:
            runtime.shutdown()
            srv.stop()


def test_remote_worker_runs_the_normal_form(server):
    program = "pipe(farm(seq:f),farm(seq:g))"
    report = run_experiment(ExperimentConfig(
        program=program, tasks=500, workers=[(server.host, server.port)]))
    assert report.failures == 0
    assert report.results == run_oracle(program, list(range(500)))


def test_remote_opcode_fault_fails_graph_keeps_worker(server):
    reg = default_registry()
    reg.register("boom", lambda x: 1 // 0)
    pool = TaskPool()
    runtime = Runtime(pool, reg, required_opcodes=["boom"])
    desc = runtime.recruit((server.host, server.port))
    runtime.start()
    pool.submit_task(compile_skeleton(Seq("boom")), codec.encode(1))
    assert pool.wait_quiescent(10)
    assert pool.results[0].error is not None
    pool.submit_task(compile_skeleton(Seq("inc")), codec.encode(1))
    assert pool.wait_quiescent(10)
    assert codec.decode(pool.results[1].value) == 2
    assert desc.state != "failed"
    runtime.shutdown()


def test_remote_unknown_opcode_fails_graph_keeps_worker(server):
    pool = TaskPool()
    runtime = Runtime(pool, default_registry())
    desc = runtime.recruit((server.host, server.port))
    runtime.start()
    pool.submit_task(compile_skeleton(Seq("no_such_op")), codec.encode(1))
    pool.submit_task(compile_skeleton(Seq("inc")), codec.encode(1))
    assert pool.wait_quiescent(10)
    assert pool.results[0].error is not None
    assert codec.decode(pool.results[1].value) == 2
    assert desc.state != "failed"
    runtime.shutdown()


def test_two_daemons_one_host():
    reg = default_registry()
    a = WorkerServer(reg).start()
    b = WorkerServer(reg).start()
    assert a.port != b.port
    ca, cb = WorkerClient(a.host, a.port), WorkerClient(b.host, b.port)
    for client in (ca, cb):
        assert client.execute("inc", [codec.encode(1)], 5.0) == [codec.encode(2)]
    ca.close(); cb.close()
    a.stop(); b.stop()
