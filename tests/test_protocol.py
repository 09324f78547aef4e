"""Wire protocol: handshake, EXEC round trips, failure frames, daemon."""
import socket
import struct
import threading
import time

import pytest

from mdflow import codec
from mdflow.compiler import Seq, compile_skeleton
from mdflow.core import OpcodeError
from mdflow.ops import default_registry
from mdflow.protocol import (
    ERROR,
    EXEC,
    FAIL,
    HELLO,
    PROTO_VERSION,
    READY,
    ProtocolError,
    RemoteFailure,
    WorkerClient,
    WorkerServer,
    encode_manifest,
    recv_frame,
    send_frame,
)
from mdflow.runtime import OpcodeManifestMismatch, Runtime
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
    ftype, body = recv_frame(sock)
    assert ftype == ERROR
    # server closes the connection afterwards
    assert sock.recv(1) == b""
    sock.close()


def test_malformed_frame_gets_error_and_close(server):
    sock = socket.create_connection((server.host, server.port), timeout=5)
    send_frame(sock, 99, b"garbage")
    ftype, _ = recv_frame(sock)
    assert ftype == ERROR
    assert sock.recv(1) == b""
    sock.close()


def test_non_utf8_opcode_name_gets_error_frame(server):
    sock = socket.create_connection((server.host, server.port), timeout=5)
    send_frame(sock, HELLO, struct.pack("<I", PROTO_VERSION))
    assert recv_frame(sock)[0] == READY
    name = b"\xff\xfe"
    send_frame(sock, EXEC, struct.pack("<QI", 1, len(name)) + name + struct.pack("<I", 0))
    assert recv_frame(sock)[0] == ERROR
    assert sock.recv(1) == b""
    sock.close()
    client = WorkerClient(server.host, server.port)  # the daemon still serves
    assert client.execute("inc", [codec.encode(1)], 5.0) == [codec.encode(2)]
    client.close()


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


def test_malformed_fail_frames_are_protocol_errors():
    listener = socket.create_server(("127.0.0.1", 0))
    message = b"worker-side failure"
    fail_bodies = [b"\x01\x00\x00",  # shorter than a request id
                   struct.pack("<QI", 999, len(message)) + message]  # another request's id

    def fake_daemon():
        conn, _ = listener.accept()
        with conn:
            recv_frame(conn)  # HELLO
            send_frame(conn, READY, encode_manifest([]))
            for body in fail_bodies:
                assert recv_frame(conn)[0] == EXEC
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
