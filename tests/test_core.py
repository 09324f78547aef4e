"""Instructions, tokens, graphs, validation, dump format, opcode registry."""
import pytest
from hypothesis import given, strategies as st

from mdflow import codec
from mdflow.core import (
    OUT,
    ArityMismatch,
    Dest,
    DumpFormatError,
    EmptyDests,
    MdfError,
    MdfGraph,
    NoId,
    OpcodeError,
    OpcodeRegistry,
    SlotOccupied,
    SlotOutOfRange,
    UnknownOpcode,
    ZeroArity,
    canonical_renumber,
    chain_opcode,
    dump,
    is_fireable,
    make_instruction,
    manifest_supports,
    parse_dump,
    store_token,
    validate_graph,
)
from mdflow.ops import default_registry


def fg_graph() -> MdfGraph:
    """The two-instruction pipeline graph f -> g -> OUT."""
    i1 = make_instruction(1, 1, "f", 1, [Dest(1, 2, 1)])
    i2 = make_instruction(2, 1, "g", 1, [OUT])
    return MdfGraph({1: i1, 2: i2}, input_id=1, gid=1)


# -- make_instruction ---------------------------------------------------------

def test_make_instruction_all_tokens_absent():
    instr = make_instruction(2, 1, "g", 1, [OUT])
    assert instr.id == 2 and instr.gid == 1 and instr.opcode == "g"
    assert [t.present for t in instr.inputs] == [False]
    assert instr.dests == [OUT]


def test_make_instruction_template():
    instr = make_instruction(1, NoId, "f", 1, [Dest(NoId, 2, 1)])
    assert instr.gid is NoId
    assert not is_fireable(instr)


def test_make_instruction_zero_arity():
    with pytest.raises(ZeroArity):
        make_instruction(1, 1, "f", 0, [OUT])


def test_make_instruction_empty_dests():
    with pytest.raises(EmptyDests):
        make_instruction(1, 1, "f", 1, [])


# -- store_token / is_fireable ------------------------------------------------

def test_store_token_completes_partially_filled_instruction():
    instr = make_instruction(1, 1, "add2", 2, [OUT])
    store_token(instr, 1, codec.encode(123))
    assert not is_fireable(instr)
    store_token(instr, 2, codec.encode(7))
    assert all(t.present for t in instr.inputs)
    assert is_fireable(instr)


def test_store_token_single_slot_becomes_fireable():
    instr = make_instruction(1, 1, "f", 1, [OUT])
    store_token(instr, 1, codec.encode(0))
    assert is_fireable(instr)


def test_store_token_single_assignment():
    instr = make_instruction(1, 1, "f", 1, [OUT])
    store_token(instr, 1, codec.encode(123))
    with pytest.raises(SlotOccupied):
        store_token(instr, 1, codec.encode(9))


def test_store_token_slot_out_of_range():
    instr = make_instruction(1, 1, "f", 1, [OUT])
    with pytest.raises(SlotOutOfRange):
        store_token(instr, 2, codec.encode(1))
    with pytest.raises(SlotOutOfRange):
        store_token(instr, 0, codec.encode(1))


def test_store_token_rejects_none():
    # presence is `value is not None`, so a None value would leave the slot absent
    instr = make_instruction(1, 1, "f", 1, [OUT])
    with pytest.raises(MdfError):
        store_token(instr, 1, None)
    assert not instr.inputs[0].present


def test_is_fireable_zero_of_two():
    instr = make_instruction(1, 1, "add2", 2, [OUT])
    assert not is_fireable(instr)


@given(st.permutations(list(range(1, 5))))
def test_single_assignment_property(order):
    """Each slot goes absent -> present at most once, in any fill order."""
    instr = make_instruction(1, 1, "wide", 4, [OUT])
    for slot in order:
        store_token(instr, slot, codec.encode(slot))
        with pytest.raises(SlotOccupied):
            store_token(instr, slot, codec.encode(-1))
    assert is_fireable(instr)


# -- validate_graph -----------------------------------------------------------

def test_validate_good_graph():
    assert validate_graph(fg_graph()) == []


def test_validate_dangling_dest():
    g = fg_graph()
    g.instructions[1].dests[0] = Dest(1, 9, 1)
    assert "DanglingDest(1)" in validate_graph(g)


def test_validate_multiple_outputs():
    g = fg_graph()
    g.instructions[1].dests[0] = OUT
    assert "MultipleOutputs" in validate_graph(g)


def test_validate_no_output():
    i1 = make_instruction(1, 1, "f", 1, [Dest(1, 1, 1)])
    g = MdfGraph({1: i1}, input_id=1, gid=1)
    violations = validate_graph(g)
    assert "NoOutput" in violations
    assert validate_graph(g, require_output=False) == []


def test_validate_bad_slot():
    g = fg_graph()
    g.instructions[1].dests[0] = Dest(1, 2, 5)
    assert "BadSlot(1)" in validate_graph(g)


def test_validate_duplicate_dest_single_writer():
    i1 = make_instruction(1, 1, "split2", 1, [Dest(1, 2, 1), Dest(1, 2, 1)])
    i2 = make_instruction(2, 1, "g", 1, [OUT])
    g = MdfGraph({1: i1, 2: i2}, input_id=1, gid=1)
    assert any(v.startswith("DuplicateDest") for v in validate_graph(g))


def test_validate_missing_input():
    g = fg_graph()
    g.input_id = 7
    assert "MissingInput(7)" in validate_graph(g)


# -- dump / parse_dump --------------------------------------------------------

def test_dump_format():
    text = dump(fg_graph())
    assert text == "1 1 f [_] -> [(1,2,1)]\n2 1 g [_] -> [OUT]\n"


def test_dump_parse_round_trip():
    g = fg_graph()
    # templates carry NoId gids
    for instr in g.instructions.values():
        instr.gid = NoId
        instr.dests = [Dest(NoId, d.instr_id, d.slot) if not d.is_external else d
                       for d in instr.dests]
    g.gid = NoId
    text = dump(g)
    parsed = parse_dump(text)
    assert dump(parsed) == text
    assert parsed.input_id == 1


def test_parse_dump_rejects_garbage():
    with pytest.raises(DumpFormatError):
        parse_dump("this is not a graph\n")
    with pytest.raises(DumpFormatError):
        parse_dump("")


def test_parse_dump_requires_unique_root():
    text = "1 _ f [_] -> [OUT]\n2 _ g [_] -> [OUT]\n"
    with pytest.raises(DumpFormatError):
        parse_dump(text)


def test_canonical_renumber_is_isomorphism():
    i5 = make_instruction(5, 1, "f", 1, [Dest(1, 9, 1)])
    i9 = make_instruction(9, 1, "g", 1, [OUT])
    g = MdfGraph({5: i5, 9: i9}, input_id=5, gid=1)
    canon = canonical_renumber(g)
    assert dump(canon) == dump(fg_graph())


# -- opcode registry ----------------------------------------------------------

def test_registry_run_and_manifest(registry):
    assert registry.run("inc", [41]) == [42]
    assert ("add2", 2, 1) in registry.manifest()


def test_registry_unknown_opcode(registry):
    with pytest.raises(UnknownOpcode):
        registry.resolve("nope")


def test_registry_arity_check(registry):
    with pytest.raises(ArityMismatch):
        registry.run("add2", [1])


def test_registry_wraps_opcode_exceptions():
    reg = OpcodeRegistry()
    reg.register("boom", lambda x: 1 // 0)
    with pytest.raises(OpcodeError):
        reg.run("boom", [1])


def test_chain_opcode_composition(registry):
    name = chain_opcode(["inc", "double"])
    assert name == "chain(inc,double)"
    assert registry.run(name, [3]) == [8]  # (3 + 1) * 2


def test_chain_cost_is_summed():
    reg = default_registry(grain_ms=5.0)
    op = reg.resolve(chain_opcode(["f", "g"]))
    assert op.cost_ms == 10.0


def test_chain_rejects_non_unary(registry):
    with pytest.raises(ArityMismatch):
        registry.resolve(chain_opcode(["add2"]))


def test_multi_output_count_enforced():
    reg = OpcodeRegistry()
    reg.register("bad_split", lambda x: (x,), out_arity=2)
    with pytest.raises(OpcodeError):
        reg.run("bad_split", [1])


def test_run_encoded_round_trips(registry):
    out = registry.run_encoded("double", [codec.encode(21)])
    assert [codec.decode(p) for p in out] == [42]


def test_manifest_supports_chains():
    names = {"f", "g"}
    assert manifest_supports(names, "f")
    assert manifest_supports(names, "chain(f,g)")
    assert not manifest_supports(names, "chain(f,h)")
    assert not manifest_supports(names, "h")
