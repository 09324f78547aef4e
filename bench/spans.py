"""In-memory spans around calls into mdflow's layers, and their analysis.

The benchmark does not change mdflow to trace it.  Instead, `Tracer.install`
replaces the public functions and methods at each layer boundary with shims
that record a span and call the original; `uninstall` puts the originals
back.  A span is

    (id, name, start, end, parent id, gid, thread index, extra)

with times from `time.perf_counter`.  The parent is the span open on the
same thread when the call began, so self time is a span's duration minus
that of its children.  `gid` is the task pool's graph id where the call
names one; children without one inherit their parent's.  `extra` carries a
size where one is counted (encoded bytes, wire bytes).
"""
from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional, Union

WORKER_THREAD_PREFIX = "mdflow-ctl-"


def _wire_bytes(args: tuple, result: Any) -> int:
    """Bytes of one EXEC frame and its RESULT frame, as protocol.py lays
    them out: u32 length + type byte + body."""
    _, opcode, payloads = args[:3]
    sent = 5 + 8 + 4 + len(opcode.encode("utf-8")) + 4 + sum(4 + len(p) for p in payloads)
    received = 5 + 8 + 4 + sum(4 + len(o) for o in result) if result is not None else 0
    return sent + received


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.threads: dict[int, str] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._tids = itertools.count(1)
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> tuple[list, int]:
        local = self._local
        try:
            return local.stack, local.tid
        except AttributeError:
            local.stack, local.tid = [], next(self._tids)
            self.threads[local.tid] = threading.current_thread().name
            return local.stack, local.tid

    def wrap(self, name: Union[str, Callable[[tuple], str]], fn: Callable,
             gid: Optional[Callable[[tuple, Any], Any]] = None,
             extra: Optional[Callable[[tuple, Any], int]] = None) -> Callable:
        """`fn` recording one span per call; `name` may depend on the args."""
        clock = time.perf_counter

        def shim(*args, **kwargs):
            stack, tid = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                self.spans.append((
                    sid, name if isinstance(name, str) else name(args), t0, t1, parent,
                    gid(args, result) if gid else None, tid,
                    extra(args, result) if extra else None))

        return shim

    def patch(self, owner: Any, attr: str, name, gid=None, extra=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, gid, extra))
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        """Shim every layer boundary the benchmark reports on."""
        from mdflow import codec, compiler, manager, protocol, runtime, taskpool, workflow

        def result_gid(args, result):
            return result

        def fetched_gid(args, result):
            return result[0] if result else None

        def instr_gid(args, result):
            return args[2].gid

        def submit_kind(args):
            deferred = any(isinstance(a, workflow.Future) for a in args[2])
            return "workflow.submit_deferred" if deferred else "workflow.submit_ready"

        p = self.patch
        p(compiler, "parse_skeleton", "compiler.parse_skeleton")
        p(compiler, "compile_skeleton", "compiler.compile_skeleton")
        # submit_task calls instantiate through taskpool's own module name
        p(taskpool, "instantiate", "core.instantiate", gid=lambda a, r: a[1])
        p(codec, "encode", "codec.encode", extra=lambda a, r: len(r) if r is not None else 0)
        p(codec, "decode", "codec.decode")
        pool = taskpool.TaskPool
        p(pool, "submit_task", "taskpool.submit_task", gid=result_gid)
        p(pool, "submit_call", "taskpool.submit_call", gid=result_gid)
        p(pool, "complete", "taskpool.complete", gid=lambda a, r: a[1])
        p(pool, "fetch_fireable", "taskpool.fetch_fireable", gid=fetched_gid)
        p(pool, "requeue", "taskpool.requeue", gid=lambda a, r: a[1])
        p(runtime.LocalExecutor, "execute", "runtime.execute.local", gid=instr_gid)
        p(runtime.RemoteExecutor, "execute", "runtime.execute.remote", gid=instr_gid)
        p(protocol.WorkerClient, "execute", "protocol.execute", extra=_wire_bytes)
        p(manager.Manager, "control_tick", "manager.control_tick")
        p(manager.Manager, "add_worker", "manager.add_worker")
        p(manager.Manager, "remove_worker", "manager.remove_worker")
        p(workflow.WorkflowEngine, "submit", submit_kind)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> list[tuple]:
        """The spans recorded so far; later ones start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def write_jsonl(self, path, spans: list[tuple]) -> None:
        own = {s[0]: (s[4], s[5]) for s in spans}

        def inherited(sid: int):
            while sid in own:
                parent, gid = own[sid]
                if gid is not None:
                    return gid
                sid = parent
            return None

        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, gid, tid, extra in spans:
                gid = inherited(sid)
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent or None, "gid": gid,
                    "thread": self.threads.get(tid, str(tid)), "extra": extra}) + "\n")


# ---------------------------------------------------------------------------
# analysis

def pct(xs: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..1); 0.0 for no samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def timing(xs: list[float], scale: float) -> dict[str, float]:
    return {"p50": statistics.median(xs) * scale if xs else 0.0,
            "p99": pct(xs, 0.99) * scale, "n": len(xs)}


def summarize(spans: list[tuple], threads: dict[int, str], wall_s: float,
              tasks: int) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics from one traced phase: (metrics, details).

    `tasks` is the number of tasks (instances, for workflows) the phase
    completed; per-task counts are divided by it."""
    tasks = max(tasks, 1)
    by_name: dict[str, list[tuple]] = defaultdict(list)
    children_time: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s[1]].append(s)
        if s[4]:
            children_time[s[4]] += s[3] - s[2]

    def durs(*names: str) -> list[float]:
        return [s[3] - s[2] for n in names for s in by_name.get(n, ())]

    # self time per layer (the name's first component)
    layers: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for s in spans:
        layer = layers[s[1].split(".", 1)[0]]
        layer["self_s"] += (s[3] - s[2]) - children_time.get(s[0], 0.0)
        layer["calls"] += 1

    fetches = by_name.get("taskpool.fetch_fireable", [])
    work_fetches = [s for s in fetches if s[5] is not None]

    # queue wait: from the end of the submit/complete that last touched the
    # graph before the fetch, to the fetch's return
    makers: dict[Any, list[tuple[float, float]]] = defaultdict(list)
    for n in ("taskpool.submit_task", "taskpool.submit_call", "taskpool.complete"):
        for s in by_name.get(n, ()):
            makers[s[5]].append((s[2], s[3]))
    queue_wait = []
    for s in work_fetches:
        before = [end for start, end in makers.get(s[5], ()) if start <= s[3]]
        if before:
            queue_wait.append(max(0.0, s[3] - max(before)))

    # per worker thread: fetch -> execute -> complete sequences
    handoff, deliver = [], []
    busy: dict[str, float] = defaultdict(float)
    per_thread: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        if threads.get(s[6], "").startswith(WORKER_THREAD_PREFIX) and s[4] == 0:
            per_thread[s[6]].append(s)
    for tid, seq in per_thread.items():
        seq.sort(key=lambda s: s[2])
        fetched_at = executed_at = None
        for s in seq:
            name = s[1]
            if name == "taskpool.fetch_fireable":
                fetched_at = s[3] if s[5] is not None else None
                executed_at = None
            elif name.startswith("runtime.execute.") and fetched_at is not None:
                handoff.append(s[2] - fetched_at)
                executed_at = s[3]
            elif name == "taskpool.complete" and executed_at is not None:
                deliver.append(s[2] - executed_at)
                busy[threads[tid]] += s[3] - fetched_at
                fetched_at = executed_at = None
    busy_share = {w: b / wall_s for w, b in sorted(busy.items())}

    rpc = by_name.get("protocol.execute", [])
    encodes = by_name.get("codec.encode", [])
    us, ms = 1e6, 1e3
    metrics = {
        "compiler.compile_us": sum(durs("compiler.parse_skeleton", "compiler.compile_skeleton")) * us,
        "core.instantiate_us": timing(durs("core.instantiate"), us)["p50"],
        "codec.encode_us": timing(durs("codec.encode"), us)["p50"],
        "codec.decode_us": timing(durs("codec.decode"), us)["p50"],
        "codec.bytes_per_task": sum(s[7] or 0 for s in encodes) / tasks,
        "taskpool.submit_us": timing(durs("taskpool.submit_task", "taskpool.submit_call"), us)["p50"],
        "taskpool.complete_us": timing(durs("taskpool.complete"), us)["p50"],
        "taskpool.fetch_us": timing([s[3] - s[2] for s in work_fetches], us)["p50"],
        "taskpool.idle_polls": len(fetches) - len(work_fetches),
        "taskpool.queue_wait_ms": timing(queue_wait, ms)["p50"],
        "taskpool.requeues": len(by_name.get("taskpool.requeue", ())),
        "runtime.execute_us.local": timing(durs("runtime.execute.local"), us)["p50"],
        "runtime.execute_us.remote": timing(durs("runtime.execute.remote"), us)["p50"],
        "runtime.handoff_us": timing(handoff, us)["p50"],
        "runtime.deliver_gap_us": timing(deliver, us)["p50"],
        "runtime.busy_share_max": max(busy_share.values(), default=0.0),
        "protocol.exec_rtt_us": timing(durs("protocol.execute"), us)["p50"],
        "protocol.frames_per_task": 2 * len(rpc) / tasks,
        "protocol.bytes_per_task": sum(s[7] or 0 for s in rpc) / tasks,
        "manager.tick_us": timing(durs("manager.control_tick"), us)["p50"],
        "manager.reconfig_ms": timing(durs("manager.add_worker", "manager.remove_worker"), ms)["p50"],
        "workflow.submit_ready_us": timing(durs("workflow.submit_ready"), us)["p50"],
        "workflow.submit_deferred_us": timing(durs("workflow.submit_deferred"), us)["p50"],
    }
    details = {
        "self_time_by_layer": {k: layers[k] for k in sorted(layers)},
        "busy_share_by_worker": busy_share,
        "bottleneck_worker": max(busy_share, key=busy_share.get) if busy_share else None,
        "timings": {
            "taskpool.complete_us": timing(durs("taskpool.complete"), us),
            "taskpool.queue_wait_ms": timing(queue_wait, ms),
            "runtime.handoff_us": timing(handoff, us),
            "runtime.deliver_gap_us": timing(deliver, us),
            "protocol.exec_rtt_us": timing(durs("protocol.execute"), us),
            "manager.tick_us": timing(durs("manager.control_tick"), us),
            "manager.reconfig_ms": timing(durs("manager.add_worker", "manager.remove_worker"), ms),
        },
        "spans": len(spans),
    }
    return metrics, details
