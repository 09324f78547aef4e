"""Independent sequential evaluators, used as oracles by equivalence tests.

Nothing here touches the task pool or the runtime: skeleton trees are
evaluated by direct recursion, graphs by a minimal one-at-a-time token
propagation over plain Python values, workflows by topological evaluation.
Skeleton stages and graph instructions get codec copies of their inputs and
give codec copies of their outputs, as they do when values cross the pool
encoded; several outputs bound for one destination go on as one list, as
the pool packs them.
"""
from __future__ import annotations

from typing import Any

from . import codec
from .core import MdfGraph, OpcodeRegistry
from .compiler import Custom, Farm, Pipe, Seq, Skeleton


def _copy(value: Any) -> Any:
    return codec.decode(codec.encode(value))


def eval_skeleton(s: Skeleton, value: Any, registry: OpcodeRegistry) -> Any:
    if isinstance(s, Seq):
        outs = registry.run(s.opcode, [_copy(value)])
        return _copy(outs[0] if len(outs) == 1 else outs)
    if isinstance(s, Farm):
        return eval_skeleton(s.worker, value, registry)
    if isinstance(s, Pipe):
        return eval_skeleton(s.second, eval_skeleton(s.first, value, registry), registry)
    if isinstance(s, Custom):
        return eval_graph(s.graph, value, registry)
    raise TypeError(f"not a skeleton: {s!r}")


def eval_graph(template: MdfGraph, value: Any, registry: OpcodeRegistry) -> Any:
    """Evaluate a graph template on a single task, sequentially."""
    slots: dict[int, list] = {
        iid: [None] * instr.in_arity for iid, instr in template.instructions.items()
    }
    filled: dict[int, int] = {iid: 0 for iid in template.instructions}
    slots[template.input_id][0] = _copy(value)
    filled[template.input_id] = 1
    ready = [template.input_id]
    output: list[Any] = []
    executed: set[int] = set()
    while ready:
        iid = ready.pop()
        instr = template.instructions[iid]
        if filled[iid] < instr.in_arity or iid in executed:
            continue
        executed.add(iid)
        outs = registry.run(instr.opcode, slots[iid])
        if len(outs) != len(instr.dests) and len(instr.dests) == 1:
            outs = [outs]
        for dest, out in zip(instr.dests, map(_copy, outs)):
            if dest.is_external:
                output.append(out)
                continue
            slots[dest.instr_id][dest.slot - 1] = out
            filled[dest.instr_id] += 1
            if filled[dest.instr_id] == template.instructions[dest.instr_id].in_arity:
                ready.append(dest.instr_id)
    if len(output) != 1:
        raise ValueError(f"graph produced {len(output)} external outputs")
    return output[0]


def eval_workflow(nodes: list[dict], task: Any, registry: OpcodeRegistry) -> Any:
    """Topological evaluation of a workflow description (see workflow module)."""
    values: dict[str, Any] = {}

    def resolve(arg: Any) -> Any:
        if not (isinstance(arg, str) and arg.startswith("$")):
            return arg
        name, _, part = arg[1:].partition(".")
        base = task if name == "input" else values[name]
        return base[int(part)] if part else base

    for node in nodes:
        args = [resolve(a) for a in node["args"]]
        outs = registry.run(node["opcode"], args)
        op = registry.resolve(node["opcode"])
        values[node["name"]] = outs[0] if op.out_arity == 1 else list(outs)
    return values[nodes[-1]["name"]]
