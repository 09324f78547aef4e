"""Experiment drivers: full runs, grain/efficiency sweeps, adaptation
scenarios, fault injection, and the sequential oracle entry point.

`run_experiment` runs one experiment session and turns it into the one
report, `RunReport`: compile the program's normal form
(`compiler.normalize`) and check it against the registry before anything is
submitted, build the pool, runtime and manager, recruit, submit the stream,
then follow a single timeline that applies the scripted kills, overloads
and the contract arming when due, runs the manager's control tick every
`tick_s` when the run has a contract, and samples throughput and worker
count every SAMPLE_S until the pool drains or the run's time is up.
`bench_adapt` is the same run under its own policy: a throughput contract
is required, and the run lasts 120 s unless the config sets a duration.
The tick handles a broken contract and an unreadable measure itself, and
logs both in the manager's event log, which the report carries.
`ExperimentConfig.from_pairs` reads `key = value` pairs (a config file,
then command line flags) into the one config both take, or rejects them,
an out-of-range value included.

Grain is realized as sleep inside synthetic opcodes; the injected
communication delay occupies a shared link exclusively per dispatch, which
is what makes fine-grain programs stop scaling as workers are added.
Overload multiplies a worker's execution time deterministically instead of
competing for the CPU, so scripted scenarios reproduce exactly.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Optional, Sequence

from . import codec
from .compiler import compile_skeleton, normalize, parse_skeleton
from .core import ArityMismatch, MdfError, MdfGraph, OpcodeRegistry
from .manager import Contract, Manager, Throughput, parse_contract
from .ops import default_registry
from .oracle import eval_skeleton, eval_workflow
from .runtime import Runtime, WorkerSpec
from .taskpool import TaskPool
from .workflow import read_workflow

EXIT_OK = 0
EXIT_ESCALATED = 2
EXIT_INFRA = 3

#: seconds between the session's throughput / worker-count samples
SAMPLE_S = 0.5

#: efficiency gain across a worker-count step that grain_csv still calls
#: monotone non-increasing
NOISE_EPSILON = 0.03


@dataclass
class ExperimentConfig:
    program: str = "farm(seq:work)"
    tasks: int = 100
    grain_ms: float = 0.0
    comm_delay_ms: float = 0.0
    workers: Sequence[WorkerSpec] = ("local",)
    contract: Optional[Contract] = None
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
    def from_pairs(cls, pairs: list[tuple[str, Optional[str]]]) -> "ExperimentConfig":
        """Config from `key = value` pairs: a later pair overrides an earlier
        one, and each `kill` or `overload` entry adds to its script.  Raises
        ValueError naming every unknown key, or the first key given no value
        (None, a bare line) or a value that does not parse or is out of range:
        `window`, `tick` and `duration` must be above 0, other numbers at
        least 0, and `workers` must name a worker."""
        unknown = sorted({key for key, _ in pairs if key not in _CONFIG_KEYS})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        fields: dict[str, Any] = {}
        for key, value in pairs:
            name, parse = _CONFIG_KEYS[key]
            if value is None:
                raise ValueError(f"no '=' after {key}")
            try:
                parsed = parse(value)
            except (ValueError, MdfError) as exc:
                raise ValueError(f"bad value for {key}: {value!r} ({exc})") from exc
            if key in _SCRIPT_KEYS:
                fields.setdefault(name, []).append(parsed)
            else:
                fields[name] = parsed
        return cls(**fields)


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
    #: every SAMPLE_S from t = 0: (t since start, pool throughput over the
    #: window, as the manager reads it, active workers)
    samples: list[tuple[float, float, int]]
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
            "samples": self.samples,
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
    """Ideal sequential compute per task: the sum of synthetic opcode costs.
    Raises UnknownOpcode for an opcode the registry cannot resolve, and
    ArityMismatch for an instruction whose slots differ from its opcode's
    inputs, or whose several dests differ from its outputs."""
    cost = 0.0
    for instr in template.instructions.values():
        op = registry.resolve(instr.opcode)
        if op.in_arity != instr.in_arity or (
                len(instr.dests) > 1 and op.out_arity != len(instr.dests)):
            raise ArityMismatch(f"instruction {instr.id}: {op.name} does not fit"
                                f" {instr.in_arity} slots and {len(instr.dests)} dests")
        cost += op.cost_ms
    return cost


def run_experiment(config: ExperimentConfig,
                   registry: Optional[OpcodeRegistry] = None,
                   inputs: Optional[Sequence[Any]] = None) -> RunReport:
    """Run one experiment session and report it.  Compile the program's
    normal form and check it, recruit, submit the stream (`inputs`, or
    `range(config.tasks)`), then follow one timeline: apply each scripted
    kill, overload and the contract arming when due, tick the manager every
    `config.tick_s` when there is a contract, and sample every SAMPLE_S
    until the pool drains or `config.run_duration_s` (the drain timeout when
    None) runs out."""
    for _, i, *factor in [*config.fault_script, *config.overload_script]:
        if not 0 <= i < len(config.workers):
            raise ValueError(f"script entry for worker {i}: only {len(config.workers)} workers")
        if factor and config.workers[i] != "local":
            raise ValueError(f"overload entry for worker {i}: only local workers slow down")
    registry = registry or default_registry(config.grain_ms)
    template = compile_skeleton(normalize(parse_skeleton(config.program)))
    cost_ms = template_cost_ms(template, registry)
    opcodes = sorted({i.opcode for i in template.instructions.values()})
    pool = TaskPool()
    runtime = Runtime(pool, registry, comm_delay_ms=config.comm_delay_ms,
                      required_opcodes=opcodes)
    manager = Manager(runtime, pool, recruit_specs=list(config.spare_workers),
                      window_s=config.window_s)
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
    try:
        t_start = time.time()
        for task in inputs:
            pool.submit_task(template, codec.encode(task))
        end = t_start + (config.drain_timeout_s if config.run_duration_s is None
                         else config.run_duration_s)
        next_sample = t_start
        next_tick = t_start + config.tick_s if config.contract is not None else float("inf")
        while True:
            now = time.time()
            while script and t_start + script[0][0] <= now:
                script.pop(0)[1]()
            if now >= next_tick:
                manager.control_tick()
                next_tick = time.time() + config.tick_s
            if now >= next_sample:
                samples.append((now - t_start, pool.throughput(config.window_s),
                                runtime.active_count()))
                next_sample = now + SAMPLE_S
            if now >= end:
                break
            wake = min(next_sample, next_tick, end,
                       t_start + script[0][0] if script else end)
            if pool.wait_quiescent(max(0.0, wake - time.time())):
                break
        t_end = time.time()
    finally:
        pool.close()
        runtime.shutdown()

    completion_ms = (t_end - t_start) * 1000.0
    records = list(pool.results)
    failures = sum(1 for r in records if r.error is not None)
    results = {r.seq: codec.decode(r.value) for r in records if r.error is None}
    latencies = [(r.complete_ts - r.dispatch_ts) * 1000.0 for r in records]
    series: dict[int, int] = {}
    for r in records:
        bucket = int(r.complete_ts - t_start)
        series[bucket] = series.get(bucket, 0) + 1
    w, tasks = len(descriptors), len(inputs)
    efficiency = None
    if cost_ms > 0 and completion_ms > 0 and w > 0 and len(records) == tasks:
        efficiency = (tasks * cost_ms) / (w * completion_ms)
    escalated = bool(manager.escalations)
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
        samples=samples,
        results=results,
        events=manager.events.entries(),
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


def grain_csv(rows: list[dict]) -> str:
    lines = ["grain,workers,efficiency"]
    for row in rows:
        lines.append(f"{row['grain']},{row['workers']},{row['efficiency']:.4f}")
    for grain in sorted({r["grain"] for r in rows}):
        series = [r["efficiency"] for r in sorted(
            (r for r in rows if r["grain"] == grain), key=lambda r: r["workers"])]
        monotone = all(b <= a + NOISE_EPSILON for a, b in zip(series, series[1:]))
        lines.append(f"# monotone_nonincreasing grain={grain}: {monotone}")
    return "\n".join(lines) + "\n"


def bench_adapt(config: ExperimentConfig,
                registry: Optional[OpcodeRegistry] = None) -> RunReport:
    """Self-optimization scenario: `run_experiment` of a config that must
    have a throughput contract, for 120 s unless it sets its own duration."""
    if not isinstance(config.contract, Throughput):
        raise ValueError("bench_adapt needs a Throughput contract")
    return run_experiment(replace(config, run_duration_s=config.run_duration_s or 120.0),
                          registry)


def run_oracle(program: str, inputs: Sequence[Any],
               registry: Optional[OpcodeRegistry] = None) -> dict[int, Any]:
    """Sequential evaluation with no pool/runtime involvement, keyed by seq."""
    registry = registry or default_registry()
    if program.startswith("wf:@"):
        nodes = read_workflow(program[4:])
        return {i: eval_workflow(nodes, task, registry) for i, task in enumerate(inputs)}
    skeleton = parse_skeleton(program)
    return {i: eval_skeleton(skeleton, task, registry) for i, task in enumerate(inputs)}


def parse_workers(spec: str) -> list[WorkerSpec]:
    """Parse a comma list of `local`, `local:N` (N >= 1), `host:port` and
    `remote:host:port` entries."""
    specs: list[WorkerSpec] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "local":
            specs.append("local")
        elif part.startswith("local:"):
            count = int(part.split(":")[1])
            if count < 1:
                raise ValueError(f"{part} names no worker")
            specs.extend(["local"] * count)
        else:
            host, port = part.removeprefix("remote:").rsplit(":", 1)
            specs.append((host, int(port)))
    return specs


def parse_config_file(path: str) -> list[tuple[str, Optional[str]]]:
    """TOML-style key = value lines; keys may repeat (script entries).  A
    line without `=` comes back whole as `(line, None)`."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            pairs.append((key.strip(), value.strip()) if eq else (line, None))
    return pairs


def _script_entry(value: str, *types: Callable[[str], Any]) -> tuple:
    """One script step `a:b[:c]`, each field parsed by its type."""
    fields = value.split(":")
    if len(fields) != len(types):
        raise ValueError(f"needs {len(types)} fields separated by ':'")
    return tuple(parse(field) for parse, field in zip(types, fields))


def _number(parse: Callable[[str], Any], above_0: bool) -> Callable[[str], Any]:
    """`parse`, refusing a result below 0, or one not above 0 when
    `above_0`."""
    def read(value: str) -> Any:
        number = parse(value)
        if not (number > 0 if above_0 else number >= 0):
            raise ValueError("must be greater than 0" if above_0 else "must be at least 0")
        return number
    return read


def _some_workers(value: str) -> list[WorkerSpec]:
    specs = parse_workers(value)
    if not specs:
        raise ValueError("names no worker")
    return specs


#: config key -> (ExperimentConfig field, parser of the value text)
_CONFIG_KEYS: dict[str, tuple[str, Callable[[str], Any]]] = {
    "program": ("program", str),
    "tasks": ("tasks", _number(int, above_0=False)),
    "grain": ("grain_ms", _number(float, above_0=False)),
    "comm": ("comm_delay_ms", _number(float, above_0=False)),
    "workers": ("workers", _some_workers),
    "spares": ("spare_workers", parse_workers),  # empty: no spares
    "contract": ("contract", lambda v: parse_contract(v) if v else None),
    "window": ("window_s", _number(float, above_0=True)),
    "tick": ("tick_s", _number(float, above_0=True)),
    "duration": ("run_duration_s", _number(float, above_0=True)),
    "contract_delay": ("contract_delay_s", _number(float, above_0=False)),
    "kill": ("fault_script", lambda v: _script_entry(v, float, int)),  # at_s:worker
    "overload": ("overload_script",
                 lambda v: _script_entry(v, float, int, float)),  # at_s:worker:factor
}
_SCRIPT_KEYS = ("kill", "overload")  # each entry adds one step to its script
