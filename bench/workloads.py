"""The benchmark's four workloads, each driven through mdflow's public API.

A workload object is used in this order:

    w = WORKLOADS[name](seed)
    w.setup()           # compile, build the pool and runtime, recruit
    w.submit_first()    # the first task; set-up ends when this returns
    w.run(seconds=...)  # drive load for one phase and drain; a Phase
    w.check()           # every output against mdflow.oracle
    w.close()           # stop the workers and any daemon; always called

One generator thread (the caller's) drives the load.  The seed stays here:
the program only sees the values generated from it.  Result sinks and
Future callbacks run while the pool's lock is held, so the ones below do
O(1) work: they record a timestamp and release the window, nothing more.
"""
from __future__ import annotations

import os
import random
import re
import select
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from mdflow import (
    Manager,
    Runtime,
    TaskPool,
    Throughput,
    WorkflowEngine,
    codec,
    compiler,
    default_registry,
    oracle,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: how long a drain or a window slot may take before the run counts the
#: outstanding tasks as missing
STALL_S = 60.0

clock = time.perf_counter


@dataclass
class Phase:
    """What one phase of load measured.  Times are seconds."""

    start: float
    end: float = 0.0
    rates: list[float] = field(default_factory=list)      # tasks/s samples
    latencies: list[float] = field(default_factory=list)  # due -> emitted
    submits: list[float] = field(default_factory=list)    # submit call durations
    lateness: list[float] = field(default_factory=list)   # open loop: sent - due
    setups: list[float] = field(default_factory=list)     # set-up samples of the run
    held: int = 0             # open loop: arrivals due while a manager call ran
    done: int = 0             # tasks (instances) completed in the phase
    live_max: int = 0         # live graphs, sampled after each submit when asked
    counts: dict[str, int] = field(default_factory=dict)


def steady_rate(times: list[float], start: float, end: float,
                warm: float = 1.0, window: float = 1.0) -> list[float]:
    """Completions per second in each whole `window` of [start + warm, end),
    so that the run reports a median that a few seconds of a slowed host
    do not move; one sample over the whole phase when it is shorter than
    twice the warm-up."""
    if end - start < 2 * warm:
        return [len(times) / (end - start)] if end > start else []
    lo = start + warm
    counts = [0] * int((end - lo) // window)
    for t in times:
        k = int((t - lo) // window)
        if 0 <= k < len(counts):
            counts[k] += 1
    return [n / window for n in counts]


class Daemon:
    """`mdflow worker` in a child process, on an ephemeral loopback port.

    Unbuffered (-u), so the "worker listening on host:port" line reaches
    the pipe before the daemon blocks."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "mdflow.cli", "worker",
             "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], STALL_S)
            line = self.proc.stdout.readline() if ready else ""
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"worker daemon did not report its port: {line!r}")
            self.address = (match.group(1), int(match.group(2)))
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class _PoolWorkload:
    """A compiled skeleton program fed one task per stream item."""

    program = ""
    grain_ms = 0.0
    comm_delay_ms = 0.0
    #: tasks in the tracemalloc phase of a traced run
    retention_tasks = 1000
    #: tasks run before the timed phase, after which RSS is taken
    memory_tasks = 4096

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.inputs: list[Any] = []      # input value by pool seq
        self.due: list[float] = []       # latency origin by pool seq
        self.emitted: list[tuple[int, float]] = []
        self.runtime: Optional[Runtime] = None
        self.daemon: Optional[Daemon] = None

    def worker_specs(self) -> list:
        return ["local", "local"]

    def setup(self) -> None:
        self.registry = default_registry(self.grain_ms)
        self.skeleton = compiler.parse_skeleton(self.program)
        self.template = compiler.compile_skeleton(self.skeleton)
        self.pool = TaskPool()
        opcodes = sorted({i.opcode for i in self.template.instructions.values()})
        self.runtime = Runtime(self.pool, self.registry, comm_delay_ms=self.comm_delay_ms,
                               required_opcodes=opcodes)
        for spec in self.worker_specs():
            self.runtime.recruit(spec)
        self.pool.add_sink(self._sink)
        self.runtime.start()

    def _sink(self, record) -> None:
        self.emitted.append((record.seq, clock()))

    def new_input(self) -> Any:
        return self.rng.randrange(1_000_000)

    def submit(self, value: Any, phase: Optional[Phase], due: Optional[float] = None) -> None:
        payload = codec.encode(value)
        t0 = clock()
        self.pool.submit_task(self.template, payload)
        t1 = clock()
        self.inputs.append(value)
        self.due.append(t0 if due is None else due)
        if phase is not None:
            phase.submits.append(t1 - t0)

    def submit_first(self) -> None:
        self.submit(self.new_input(), None)

    def finish(self, phase: Phase, first_seq: int, emitted_from: int) -> Phase:
        """Drain, then take the phase's latencies and completion rates."""
        self.pool.wait_quiescent(STALL_S)
        done = [(seq, t) for seq, t in self.emitted[emitted_from:] if seq >= first_seq]
        phase.latencies = [t - self.due[seq] for seq, t in done]
        phase.done = len(done)
        if not phase.rates:
            phase.rates = steady_rate([t for _, t in done], phase.start, phase.end)
        return phase

    def check(self) -> tuple[int, int]:
        """(attempted, failed): failed counts inputs whose output is missing,
        duplicated, an error record, or different from the oracle's."""
        self.pool.wait_quiescent(STALL_S)
        seen: Counter = Counter()
        bad: set[int] = set()
        # remote-farm repeats payloads from its table: decode and evaluate
        # each distinct one once
        decoded: dict[bytes, Any] = {}
        wanted: dict[int, Any] = {}
        for r in list(self.pool.results):
            seen[r.seq] += 1
            if r.error is not None or not 0 <= r.seq < len(self.inputs):
                bad.add(r.seq)
                continue
            value = self.inputs[r.seq]
            if id(value) not in wanted:
                wanted[id(value)] = oracle.eval_skeleton(self.skeleton, value, self.registry)
            if r.value not in decoded:
                decoded[r.value] = codec.decode(r.value)
            if decoded[r.value] != wanted[id(value)]:
                bad.add(r.seq)
        bad |= {seq for seq, n in seen.items() if n > 1}
        missing = sum(1 for seq in range(len(self.inputs)) if seq not in seen)
        return len(self.inputs), len(bad) + missing

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.shutdown(timeout=10)
        if self.daemon is not None:
            self.daemon.stop()


class BatchPipe(_PoolWorkload):
    """Closed batches on pipe(farm(seq:f),farm(seq:g)), 2 local workers.

    Each batch is submitted with dispatch paused, so the backlog (live
    graphs) equals the batch size, then released and drained.  Latency runs
    from the release to each emission; each batch gives one rate sample."""

    program = "pipe(farm(seq:f),farm(seq:g))"
    batch = 4096

    def run(self, seconds: Optional[float] = None, count: Optional[int] = None,
            sample_live: bool = False) -> Phase:
        phase = Phase(start=clock())
        deadline = phase.start + (seconds or 0.0)
        first_seq, emitted_from = len(self.inputs), len(self.emitted)
        while (clock() < deadline) if seconds else not phase.done:
            size = min(self.batch, count) if count else self.batch
            values = [self.new_input() for _ in range(size)]
            self.pool.pause_dispatch()
            for v in values:
                self.submit(v, phase)
            if sample_live:
                phase.live_max = max(phase.live_max, self.pool.pending_count())
            released = clock()
            self.due[-size:] = [released] * size
            self.pool.resume_dispatch()
            self.pool.wait_quiescent(STALL_S)
            phase.rates.append(size / (clock() - released))
            phase.done += size
        phase.end = clock()
        return self.finish(phase, first_seq, emitted_from)


class RemoteFarm(_PoolWorkload):
    """farm(seq:echo) on two remote workers of one `mdflow worker` daemon.

    A window of 32 outstanding tasks is refilled from the pool sink.
    Payloads are lists of 0..256 single-digit ints (5 B to 1.5 KB encoded),
    drawn from a seeded table of 1024 so that generating them costs nothing
    in the loop; encoding each one is part of the loop, as for a user."""

    program = "farm(seq:echo)"
    window = 32
    connections = 2
    table_size = 1024

    def worker_specs(self) -> list:
        self.daemon = Daemon()
        return [self.daemon.address] * self.connections

    def setup(self) -> None:
        self.slots = threading.Semaphore(self.window)
        self.table: list[list[int]] = []
        super().setup()

    def _sink(self, record) -> None:
        self.emitted.append((record.seq, clock()))
        self.slots.release()

    def new_input(self) -> Any:
        if not self.table:
            # every length 0..256 about equally often, in seeded order, so
            # that seeds differ in values and order but not in mean size
            rng = self.rng
            lengths = [k % 257 for k in range(self.table_size)]
            rng.shuffle(lengths)
            self.table = [[rng.randrange(10) for _ in range(n)] for n in lengths]
        return self.table[len(self.inputs) % self.table_size]

    def submit_first(self) -> None:
        # a one-item list: building the table is the benchmark's work, not
        # set-up, and happens when the first phase starts
        self.slots.acquire()
        self.submit([self.rng.randrange(10)], None)

    def run(self, seconds: Optional[float] = None, count: Optional[int] = None,
            sample_live: bool = False) -> Phase:
        self.new_input()
        phase = Phase(start=clock())
        deadline = phase.start + (seconds or 0.0)
        first_seq, emitted_from = len(self.inputs), len(self.emitted)
        sent = 0
        while (clock() < deadline) if seconds else sent < count:
            if not self.slots.acquire(timeout=STALL_S):
                break
            self.submit(self.new_input(), phase)
            sent += 1
            if sample_live:
                phase.live_max = max(phase.live_max, self.pool.pending_count())
        phase.end = clock()
        return self.finish(phase, first_seq, emitted_from)

    def raw_rtt_s(self, value: Any, calls: int = 2000) -> list[float]:
        """EXEC round trips of `value` on the benchmark's own connection,
        with no pool."""
        from mdflow.protocol import WorkerClient

        client = WorkerClient(*self.daemon.address)
        try:
            payload = codec.encode(value)
            out = []
            for _ in range(calls):
                t0 = clock()
                client.execute("echo", [payload], 10.0)
                out.append(clock() - t0)
            return out
        finally:
            client.close()


class OpenFarm(_PoolWorkload):
    """Open loop on farm(seq:work): 3 ms grain, 1 ms shared-link delay, 2
    local workers, seeded Poisson arrivals at 150 tasks/s (60% of one
    worker's nominal 250 tasks/s).

    The generator calls the manager's control tick itself every 0.25 s under
    a Throughput contract armed after warm-up (so the first ticks do not
    read a half-empty 2 s window), and at 40% and 42.5% of the phase calls
    remove_worker(1) and add_worker(1).  The single-worker interval is
    kept short: at 60% load one worker queues, and a long interval would
    make the latency tail a measure of that queue, not of the pauses.  Latency runs from each task's due
    time, so a stalled generator shows as latency, and lateness is kept."""

    program = "farm(seq:work)"
    grain_ms = 3.0
    comm_delay_ms = 1.0
    rate = 150.0
    tick_s = 0.25
    warm_s = 2.5
    window_s = 2.0
    contract = Throughput(100.0)
    retention_tasks = 300
    memory_tasks = 300

    def setup(self) -> None:
        super().setup()
        self.manager = Manager(self.runtime, self.pool, window_s=self.window_s)

    def run(self, seconds: Optional[float] = None, count: Optional[int] = None,
            sample_live: bool = False) -> Phase:
        arrivals, t = [], 0.0
        while (t < seconds) if seconds else len(arrivals) < count:
            t += self.rng.expovariate(self.rate)
            arrivals.append((t, "arrive"))
        events = arrivals
        if seconds:
            length = arrivals[-1][0]
            ticks = int((length - self.warm_s) / self.tick_s)
            events = sorted(arrivals + [(self.warm_s, "arm")]
                            + [(self.warm_s + k * self.tick_s, "tick") for k in range(1, ticks + 1)]
                            + [(0.4 * length, "remove"), (0.425 * length, "add")])
        manager = self.manager
        escalations = len(manager.escalations)
        log_from = len(manager.events.entries())
        phase = Phase(start=clock())
        first_seq, emitted_from = len(self.inputs), len(self.emitted)
        held_until = phase.start
        for at, kind in events:
            due = phase.start + at
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            if kind == "arrive":
                # an arrival that fell due during the generator's own manager
                # call is late by the script, not because the generator lagged
                if due < held_until:
                    phase.held += 1
                else:
                    phase.lateness.append(clock() - due)
                self.submit(self.new_input(), phase, due=due)
                if sample_live:
                    phase.live_max = max(phase.live_max, self.pool.pending_count())
            elif kind == "tick":
                manager.control_tick()
            elif kind == "arm":
                manager.set_contract(self.contract)
            elif kind == "remove":
                manager.remove_worker(1)
            else:
                manager.add_worker(1)
            if kind != "arrive":
                held_until = clock()
        phase.end = clock()
        log = manager.events.entries()[log_from:]
        phase.counts = {
            "reconfigurations": sum(e["kind"] in ("add_worker", "remove_worker") for e in log),
            "escalations": len(manager.escalations) - escalations,
        }
        return self.finish(phase, first_seq, emitted_from)


class WorkflowDiamond:
    """Closed loop of 8 outstanding workflow instances on 2 local workers:

        s = split2(x);  a = f(s.part(0));  b = g(s.part(1));  r = add2(a, b)

    built with WorkflowEngine.submit, so every call goes through
    TaskPool.submit_call; f, g and add2 are dispatched from Future
    callbacks.  Latency runs from the first submit to r being ready."""

    window = 8
    nodes = [
        {"name": "s", "opcode": "split2", "args": ["$input"]},
        {"name": "a", "opcode": "f", "args": ["$s.0"]},
        {"name": "b", "opcode": "g", "args": ["$s.1"]},
        {"name": "r", "opcode": "add2", "args": ["$a", "$b"]},
    ]
    calls_per_instance = len(nodes)
    retention_tasks = 500
    memory_tasks = 4096

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.inputs: list[int] = []
        self.started: list[float] = []
        #: (instance, ready time, value, error)
        self.finished: list[tuple[int, float, Any, Optional[Exception]]] = []
        self.runtime: Optional[Runtime] = None

    def setup(self) -> None:
        self.registry = default_registry(0.0)
        self.pool = TaskPool()
        self.runtime = Runtime(self.pool, self.registry)
        for _ in range(2):
            self.runtime.recruit("local")
        self.engine = WorkflowEngine(self.pool, self.registry)
        self.slots = threading.Semaphore(self.window)
        self.runtime.start()

    def launch(self, phase: Optional[Phase]) -> None:
        x = self.rng.randrange(1_000_000)
        i = len(self.inputs)
        self.inputs.append(x)
        submit = self.engine.submit
        t0 = clock()
        s = submit("split2", [x])
        t1 = clock()
        s0, s1 = s.part(0), s.part(1)
        t2 = clock()
        a = submit("f", [s0])
        t3 = clock()
        b = submit("g", [s1])
        t4 = clock()
        r = submit("add2", [a, b])
        t5 = clock()
        self.started.append(t0)
        if phase is not None:
            phase.submits += [t1 - t0, t3 - t2, t4 - t3, t5 - t4]
        # Future has no public completion callback; _on_done is the hook
        # Future.part itself uses
        r._on_done(lambda fut, i=i: self._ready(i, fut))

    def _ready(self, i: int, fut) -> None:
        t = clock()
        try:
            value, error = fut.get_value(0), None
        except Exception as exc:
            value, error = None, exc
        self.finished.append((i, t, value, error))
        self.slots.release()

    def submit_first(self) -> None:
        self.slots.acquire()
        self.launch(None)

    def run(self, seconds: Optional[float] = None, count: Optional[int] = None,
            sample_live: bool = False) -> Phase:
        phase = Phase(start=clock())
        deadline = phase.start + (seconds or 0.0)
        first, finished_from = len(self.inputs), len(self.finished)
        sent = 0
        while (clock() < deadline) if seconds else sent < count:
            if not self.slots.acquire(timeout=STALL_S):
                break
            self.launch(phase)
            sent += 1
            if sample_live:
                phase.live_max = max(phase.live_max, self.pool.pending_count())
        phase.end = clock()
        self.pool.wait_quiescent(STALL_S)
        done = [(i, t) for i, t, _, _ in self.finished[finished_from:] if i >= first]
        phase.latencies = [t - self.started[i] for i, t in done]
        phase.done = len(done)
        phase.rates = steady_rate([t for _, t in done], phase.start, phase.end)
        return phase

    def check(self) -> tuple[int, int]:
        self.pool.wait_quiescent(STALL_S)
        seen: Counter = Counter()
        bad: set[int] = set()
        for i, _, got, error in list(self.finished):
            seen[i] += 1
            if error is not None or got != oracle.eval_workflow(
                    self.nodes, self.inputs[i], self.registry):
                bad.add(i)
        bad |= {i for i, n in seen.items() if n > 1}
        # each call graph is emitted once; an error record already fails
        # its instance's future
        records = Counter(r.seq for r in self.pool.results)
        repeated = sum(n - 1 for n in records.values())
        missing = sum(1 for i in range(len(self.inputs)) if i not in seen)
        return len(self.inputs), min(len(self.inputs), len(bad) + missing + repeated)

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.shutdown(timeout=10)


WORKLOADS = {
    "batch-pipe": BatchPipe,
    "remote-farm": RemoteFarm,
    "open-farm": OpenFarm,
    "workflow-diamond": WorkflowDiamond,
}
