"""Skeleton-based parallel programming over a macro data-flow interpreter.

Programs are skeleton trees (seq / pipe / farm / custom graphs) compiled to
macro data-flow graph templates; one graph instance is created per stream
item and executed by a pool of worker control loops.  An autonomic manager
keeps a user-declared performance contract satisfied by elastically adding
or removing workers, and a futures-based frontend runs workflow DAGs over
the same runtime.
"""
from .core import (
    OUT,
    Dest,
    MdfGraph,
    MdfInstruction,
    NoId,
    Opcode,
    OpcodeRegistry,
    canonical_renumber,
    dump,
    is_fireable,
    make_instruction,
    parse_dump,
    store_token,
    validate_graph,
)
from .compiler import (
    Custom,
    Farm,
    Pipe,
    Seq,
    Skeleton,
    compile_skeleton,
    normalize,
    parse_skeleton,
)
from .taskpool import ResultRecord, TaskPool
from .runtime import Runtime, WorkerDescriptor
from .protocol import WorkerServer
from .manager import (
    EventLog,
    Manager,
    ParDegree,
    Plan,
    QoSContract,
    Throughput,
    linear_scaling_plans,
)
from .workflow import Future, WorkflowEngine, load_workflow
from .ops import default_registry

__all__ = [
    "OUT", "Dest", "MdfGraph", "MdfInstruction", "NoId", "Opcode",
    "OpcodeRegistry", "canonical_renumber", "dump", "is_fireable",
    "make_instruction", "parse_dump", "store_token", "validate_graph",
    "Custom", "Farm", "Pipe", "Seq", "Skeleton",
    "compile_skeleton", "normalize", "parse_skeleton",
    "ResultRecord", "TaskPool", "Runtime", "WorkerDescriptor", "WorkerServer",
    "EventLog", "Manager", "ParDegree", "Plan", "QoSContract", "Throughput",
    "linear_scaling_plans", "Future", "WorkflowEngine", "load_workflow",
    "default_registry",
]
