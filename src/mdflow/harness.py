"""Experiment drivers: full runs, grain/efficiency sweeps, adaptation
scenarios, fault injection, and the sequential oracle entry point.

`run_experiment` and `bench_adapt` shape the result of one experiment
session: compile, build the pool, runtime and manager, recruit, submit the
stream, then follow a single timeline that applies the scripted kills,
overloads and the contract arming when due and samples throughput and
worker count every SAMPLE_S until the pool drains or the run's time is up.
`ExperimentConfig.from_pairs` turns `key = value` pairs (a config file, or
command line flags) into the one config both take.

Grain is realized as sleep inside synthetic opcodes; the injected
communication delay occupies a shared link exclusively per dispatch, which
is what makes fine-grain programs stop scaling as workers are added.
Overload multiplies a worker's execution time deterministically instead of
competing for the CPU, so scripted scenarios reproduce exactly.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional, Sequence

from . import codec
from .compiler import Skeleton, compile_skeleton, normalize, parse_skeleton
from .core import MdfGraph, OpcodeRegistry
from .manager import Contract, Manager, Throughput, parse_contract
from .ops import default_registry
from .oracle import eval_skeleton, eval_workflow
from .runtime import Runtime, WorkerSpec
from .taskpool import TaskPool
from .workflow import WorkflowEngine, load_workflow

EXIT_OK = 0
EXIT_ESCALATED = 2
EXIT_INFRA = 3

#: seconds between the session's throughput / worker-count samples
SAMPLE_S = 0.5


@dataclass
class ExperimentConfig:
    program: str = "farm(seq:work)"
    tasks: int = 100
    grain_ms: float = 0.0
    comm_delay_ms: float = 0.0
    workers: Sequence[WorkerSpec] = ("local",)
    contract: Optional[Contract] = None
    normalize: bool = False
    #: (time_s, worker index) pairs: simulated worker deaths
    fault_script: Sequence[tuple[float, int]] = ()
    #: (time_s, worker index, slowdown factor) triples
    overload_script: Sequence[tuple[float, int, float]] = ()
    #: manager recruitment reserve, beyond the initial workers
    spare_workers: Sequence[WorkerSpec] = ()
    window_s: float = 10.0
    tick_s: float = 1.0
    #: delay before the contract is armed, letting the trailing throughput
    #: window fill so the first ticks do not read an artificially low rate
    contract_delay_s: float = 0.0
    run_duration_s: Optional[float] = None  # stop feeding/draining after this
    drain_timeout_s: float = 600.0

    @classmethod
    def from_pairs(cls, pairs: list[tuple[str, str]]) -> "ExperimentConfig":
        """Config from `key = value` pairs: a later pair overrides an earlier
        one, `kill` and `overload` entries add to the scripts, and any other
        key is ignored."""
        fields = {_CONFIG_KEYS[k][0]: _CONFIG_KEYS[k][1](v)
                  for k, v in pairs if k in _CONFIG_KEYS}
        return cls(fault_script=parse_fault_script(pairs),
                   overload_script=parse_overload_script(pairs), **fields)


@dataclass
class RunReport:
    completion_ms: float
    tasks: int
    emitted: int
    failures: int
    workers: int
    efficiency: Optional[float]
    latencies_ms: list[float]
    throughput_series: list[tuple[int, int]]  # (second bucket, emissions)
    results: dict[int, Any]  # seq -> decoded value
    events: list[dict] = field(default_factory=list)
    escalated: bool = False
    exit_code: int = EXIT_OK

    def to_json(self) -> str:
        doc = {
            "completion_ms": self.completion_ms,
            "tasks": self.tasks,
            "emitted": self.emitted,
            "failures": self.failures,
            "workers": self.workers,
            "efficiency": self.efficiency,
            "latency_ms_p50": _median(self.latencies_ms),
            "throughput_series": self.throughput_series,
            "escalated": self.escalated,
            "exit_code": self.exit_code,
            "events": self.events,
        }
        return json.dumps(doc, indent=2)


def _median(xs: Sequence[float]) -> Optional[float]:
    if not xs:
        return None
    s = sorted(xs)
    return s[len(s) // 2]


def template_cost_ms(template: MdfGraph, registry: OpcodeRegistry) -> float:
    """Ideal sequential compute per task: the sum of synthetic opcode costs."""
    return sum(registry.resolve(i.opcode).cost_ms for i in template.instructions.values())


@dataclass
class _Session:
    """What one finished experiment run leaves for its report."""

    pool: TaskPool
    manager: Manager
    cost_ms: float  # ideal sequential compute per task
    workers: int
    tasks: int
    t_start: float
    t_end: float
    #: (t since start, pool throughput over the window, active workers)
    samples: list[tuple[float, float, int]]


def _run_session(config: ExperimentConfig, registry: Optional[OpcodeRegistry],
                 inputs: Optional[Sequence[Any]],
                 duration_s: Optional[float]) -> _Session:
    """Compile, recruit, submit the stream, then follow one timeline: apply
    each scripted kill, overload and the contract arming when due, and sample
    every SAMPLE_S until the pool drains or `duration_s` (the drain timeout
    when None) runs out."""
    registry = registry or default_registry(config.grain_ms)
    skeleton = parse_skeleton(config.program)
    if config.normalize:
        skeleton = normalize(skeleton)
    template = compile_skeleton(skeleton)
    opcodes = sorted({i.opcode for i in template.instructions.values()})
    pool = TaskPool(throughput_window_s=config.window_s)
    runtime = Runtime(pool, registry, comm_delay_ms=config.comm_delay_ms,
                      required_opcodes=opcodes)
    manager = Manager(runtime, pool, recruit_specs=list(config.spare_workers),
                      tick_s=config.tick_s, window_s=config.window_s)
    descriptors = [runtime.recruit(spec) for spec in config.workers]

    def overload(i: int, factor: float) -> None:
        descriptors[i].slowdown = factor
        manager.events.append("overload", {"worker": descriptors[i].wid, "factor": factor})

    script = [(at, partial(runtime.kill_worker, descriptors[i]))
              for at, i in config.fault_script]
    script += [(at, partial(overload, i, f)) for at, i, f in config.overload_script]
    if config.contract is not None:
        script.append((config.contract_delay_s,
                       partial(manager.set_contract, config.contract)))
    script.sort(key=lambda entry: entry[0])
    if inputs is None:
        inputs = list(range(config.tasks))

    samples: list[tuple[float, float, int]] = []
    runtime.start()
    if config.contract is not None:
        manager.start()
    try:
        t_start = time.time()
        for task in inputs:
            pool.submit_task(template, codec.encode(task))
        end = t_start + (duration_s if duration_s is not None else config.drain_timeout_s)
        next_sample = t_start
        while True:
            now = time.time()
            while script and t_start + script[0][0] <= now:
                script.pop(0)[1]()
            if now >= next_sample:
                samples.append((now - t_start, pool.throughput(config.window_s),
                                runtime.active_count()))
                next_sample = now + SAMPLE_S
            if now >= end:
                break
            wake = min(next_sample, end, t_start + script[0][0] if script else end)
            if pool.wait_quiescent(max(0.0, wake - time.time())):
                break
        t_end = time.time()
    finally:
        manager.stop()
        pool.close()
        runtime.shutdown()
    return _Session(pool, manager, template_cost_ms(template, registry), len(descriptors),
                    len(inputs), t_start, t_end, samples)


def run_experiment(config: ExperimentConfig,
                   registry: Optional[OpcodeRegistry] = None,
                   inputs: Optional[Sequence[Any]] = None) -> RunReport:
    """Full pipeline: compile -> recruit -> submit stream -> drain -> report."""
    session = _run_session(config, registry, inputs, config.run_duration_s)
    completion_ms = (session.t_end - session.t_start) * 1000.0
    records = list(session.pool.results)
    failures = sum(1 for r in records if r.error is not None)
    results = {r.seq: codec.decode(r.value) for r in records if r.error is None}
    latencies = [(r.complete_ts - r.dispatch_ts) * 1000.0 for r in records]
    series: dict[int, int] = {}
    for r in records:
        bucket = int(r.complete_ts - session.t_start)
        series[bucket] = series.get(bucket, 0) + 1
    cost, w, tasks = session.cost_ms, session.workers, session.tasks
    efficiency = None
    if cost > 0 and completion_ms > 0 and w > 0 and len(records) == tasks:
        efficiency = (tasks * cost) / (w * completion_ms)
    escalated = bool(session.manager.escalations)
    exit_code = EXIT_ESCALATED if escalated else EXIT_OK
    if config.run_duration_s is None and len(records) < tasks:
        exit_code = EXIT_INFRA
    return RunReport(
        completion_ms=completion_ms,
        tasks=tasks,
        emitted=len(records),
        failures=failures,
        workers=w,
        efficiency=efficiency,
        latencies_ms=latencies,
        throughput_series=sorted(series.items()),
        results=results,
        events=session.manager.events.entries(),
        escalated=escalated,
        exit_code=exit_code,
    )


def bench_grain(grains_ms: Sequence[float], worker_counts: Sequence[int],
                tasks: int = 1000, comm_delay_ms: float = 1.0) -> list[dict]:
    """Cross-product grain x workers sweep; rows carry measured efficiency."""
    rows = []
    for grain in grains_ms:
        for w in worker_counts:
            config = ExperimentConfig(
                program="farm(seq:work)", tasks=tasks, grain_ms=grain,
                comm_delay_ms=comm_delay_ms, workers=["local"] * w)
            report = run_experiment(config)
            rows.append({"grain": grain, "workers": w,
                         "efficiency": report.efficiency,
                         "completion_ms": report.completion_ms})
    return rows


def grain_csv(rows: list[dict], noise_epsilon: float = 0.03) -> str:
    lines = ["grain,workers,efficiency"]
    for row in rows:
        lines.append(f"{row['grain']},{row['workers']},{row['efficiency']:.4f}")
    for grain in sorted({r["grain"] for r in rows}):
        series = [r["efficiency"] for r in sorted(
            (r for r in rows if r["grain"] == grain), key=lambda r: r["workers"])]
        monotone = all(b <= a + noise_epsilon for a, b in zip(series, series[1:]))
        lines.append(f"# monotone_nonincreasing grain={grain}: {monotone}")
    return "\n".join(lines) + "\n"


@dataclass
class AdaptReport:
    throughput_series: list[tuple[float, float]]
    worker_series: list[tuple[float, int]]
    reconfigurations: list[dict]
    escalations: list[dict]
    events: list[dict]
    emitted: int


def bench_adapt(config: ExperimentConfig,
                registry: Optional[OpcodeRegistry] = None) -> AdaptReport:
    """Self-optimization scenario: long stream, scripted overload, a
    throughput contract, and the manager free to add workers."""
    if not isinstance(config.contract, Throughput):
        raise ValueError("bench_adapt needs a Throughput contract")
    session = _run_session(config, registry, None, config.run_duration_s or 120.0)
    events = session.manager.events
    return AdaptReport(
        throughput_series=[(t, rate) for t, rate, _ in session.samples],
        worker_series=[(t, n) for t, _, n in session.samples],
        reconfigurations=events.entries("add_worker") + events.entries("remove_worker"),
        escalations=events.entries("escalation"),
        events=events.entries(),
        emitted=session.pool.metrics()["emitted"],
    )


def run_oracle(program: str, inputs: Sequence[Any],
               registry: Optional[OpcodeRegistry] = None) -> dict[int, Any]:
    """Sequential evaluation with no pool/runtime involvement, keyed by seq."""
    registry = registry or default_registry()
    if program.startswith("wf:@"):
        with open(program[4:], "r", encoding="utf-8") as fh:
            nodes = json.load(fh)
        return {i: eval_workflow(nodes, task, registry) for i, task in enumerate(inputs)}
    skeleton = parse_skeleton(program)
    return {i: eval_skeleton(skeleton, task, registry) for i, task in enumerate(inputs)}


def parse_workers(spec: str) -> list[WorkerSpec]:
    """Parse a comma list of `local`, `local:N`, `host:port` and
    `remote:host:port` entries."""
    specs: list[WorkerSpec] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "local":
            specs.append("local")
        elif part.startswith("local:"):
            specs.extend(["local"] * int(part.split(":")[1]))
        else:
            host, port = part.removeprefix("remote:").rsplit(":", 1)
            specs.append((host, int(port)))
    return specs


def parse_config_file(path: str) -> list[tuple[str, str]]:
    """TOML-style key = value lines; keys may repeat (script entries)."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            pairs.append((key.strip(), value.strip()))
    return pairs


def parse_fault_script(pairs: list[tuple[str, str]]) -> list[tuple[float, int]]:
    """Entries `kill = <time_s>:<worker index>`."""
    script = []
    for key, value in pairs:
        if key == "kill":
            at, widx = value.split(":")
            script.append((float(at), int(widx)))
    return script


def parse_overload_script(pairs: list[tuple[str, str]]) -> list[tuple[float, int, float]]:
    """Entries `overload = <time_s>:<worker index>:<factor>`."""
    script = []
    for key, value in pairs:
        if key == "overload":
            at, widx, factor = value.split(":")
            script.append((float(at), int(widx), float(factor)))
    return script


#: config key -> (ExperimentConfig field, parser of the value text)
_CONFIG_KEYS: dict[str, tuple[str, Callable[[str], Any]]] = {
    "program": ("program", str),
    "tasks": ("tasks", int),
    "grain": ("grain_ms", float),
    "comm": ("comm_delay_ms", float),
    "workers": ("workers", parse_workers),
    "spares": ("spare_workers", parse_workers),
    "contract": ("contract", lambda v: parse_contract(v) if v else None),
    "normalize": ("normalize", lambda v: v.lower() == "true"),
    "window": ("window_s", float),
    "tick": ("tick_s", float),
    "duration": ("run_duration_s", float),
    "contract_delay": ("contract_delay_s", float),
}
