"""Circuit language: parsing, validation, lifting, simulation, synthesis text."""

import cmath
import dataclasses
import importlib
import itertools
import math
import random
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzbit.algebra import BOOLEAN, COMPLEX, FUZZ_MV, PROBABILITY, UnitScalar
import fuzzbit.circuit as circuit
from fuzzbit.circuit import (
    CircuitProgram,
    GateStep,
    composed_operator,
    lift_gate,
    parse_circuit,
    reversible_circuit_text,
    serialize_circuit,
    simulate,
    validate,
)
from fuzzbit.cli import main
from fuzzbit.errors import InternalCheckError, ParseError, ValidationError
from fuzzbit.linalg import (
    SMatrix,
    SVector,
    basis_vector,
    equal,
    kron_mat,
    mat_mul,
    mat_vec,
    matrix_from_permutation,
    serialize_matrix,
)
from fuzzbit.models import MODELS, GateDescriptor, VectorState, builtin_gate, quantum
from fuzzbit.models.classical import (
    ClassicalState,
    TruthTable,
    permutation_from_matrix,
    synthesize_circuit,
)
from test_linalg import entrywise_block

U = UnitScalar

BELL = """# bell pair
model quantum
wires 2
init ket 00
gate H 0
gate CNOT 0 1
measure seed 7
"""


def test_parse_bell():
    prog = parse_circuit(BELL)
    assert prog.model == "quantum"
    assert prog.wire_count == 2
    assert prog.init_kind == "ket"
    assert prog.init_values == (0, 0)
    assert [(s.gate, s.wires) for s in prog.steps] == [("H", (0,)), ("CNOT", (0, 1))]
    assert prog.measure_seed == 7


def test_round_trip_is_identity():
    for text in (
        BELL,
        "model fuzzy\nwires 1\ninit vec 0 3/4\ngate FNOT 0\n",
        "model quantum\nwires 1\ninit vec 0.6 0.8i\ngate H 0\n",
        "model classical\nwires 3\ninit ket 101\ngate AND 2 1 0\n",
    ):
        prog = parse_circuit(text)
        assert parse_circuit(serialize_circuit(prog)) == prog


def test_parse_error_positions():
    with pytest.raises(ParseError, match="line 1"):
        parse_circuit("wires 2\nmodel fuzzy\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_circuit("model fuzzy\nwires 1\nwires 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_circuit("model fuzzy\nwigs 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_circuit("model classical\nwires 2\ninit ket 0x\n")
    with pytest.raises(ParseError, match="line 4"):
        parse_circuit("model fuzzy\nwires 1\ninit ket 0\ngate FNOT zero\n")
    with pytest.raises(ParseError):
        parse_circuit("model pastel\nwires 1\ninit ket 0\n")


_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_LONG = "9" * (_LIMIT + 1)
_FUZZY = ("model fuzzy", "wires 1", "init ket 0")
_QUANTUM = ("model quantum", "wires 1", "init ket 0")
# (the lines before the faulty one, its tokens, the faulty token's index, the message)
TOKEN_FAULTS = [
    ((), ("model", "pastel"), 1, "unknown model 'pastel'"),
    (("model fuzzy",), ("model", "fuzzy"), 0, "duplicate model directive"),
    (("model fuzzy",), ("wires", "0"), 1, "wire count must be positive"),
    (("model quantum", "wires 1"), ("init", "vec", "1", "1+i"), 3, "malformed scalar '1+i'"),
    (("model quantum", "wires 1"), ("init", "vec", "0.6", "1e400i"), 3,
     "non-finite scalar '1e400i'"),
    (("model fuzzy", "wires 2"), ("init", "vec", "0", "1", "1/0", "1"), 4,
     "zero denominator in '1/0'"),
    (("model fuzzy", "wires 1"), ("init", "bra", "0"), 1, "unknown init kind 'bra'"),
    (_FUZZY, ("gate", "FSWAP", "0", "x"), 3, "wire index 'x' is not a non-negative integer"),
    (_QUANTUM, ("measure", "seed", str(1 << 64)), 2,
     "seed must fit in an unsigned 64-bit integer"),
    (_FUZZY, ("wigs", "1"), 0, "unknown directive 'wigs'"),
] + ([] if _LIMIT == 0 else [
    (("model fuzzy",), ("wires", _LONG), 1, f"integer literal of {len(_LONG)} digits is too long"),
    (_FUZZY, ("gate", "FSWAP", "0", _LONG), 3,
     f"integer literal of {len(_LONG)} digits is too long"),
    (_QUANTUM, ("measure", "seed", _LONG), 2,
     f"integer literal of {len(_LONG)} digits is too long"),
])
# whitespace to `str.split()` and to `\S+` alike; U+001F is one that `splitlines` keeps
SPACES = st.lists(st.sampled_from((" ", "   ", "\t", " \t", "\u00a0", "\u3000", "\u2003",
                                   "\x1f")), min_size=1, max_size=3).map("".join)
COMMENTS = st.sampled_from(("", "#", "# a comment", " # 1 2\tgate", "#\u3000x # y"))


@settings(max_examples=300, deadline=None)
@given(fault=st.sampled_from(TOKEN_FAULTS), data=st.data())
def test_a_token_error_names_the_token_column(fault, data):
    before, tokens, bad, message = fault
    lines = [line + data.draw(COMMENTS) for line in before]
    lead = data.draw(st.one_of(st.just(""), SPACES))
    gaps = [data.draw(SPACES) for _ in tokens[1:]]
    line = lead + tokens[0] + "".join(g + t for g, t in zip(gaps, tokens[1:]))
    # the column counted from the pieces the line was built of
    col = len(lead) + sum(len(t) + len(g) for t, g in zip(tokens[:bad], gaps)) + 1
    text = "\n".join(lines + [line + data.draw(COMMENTS)]) + "\n"
    with pytest.raises(ParseError) as caught:
        parse_circuit(text)
    assert str(caught.value) == f"line {len(lines) + 1}, column {col}: {message}"
    assert (caught.value.line, caught.value.col) == (len(lines) + 1, col)


def test_validation_errors():
    with pytest.raises(ValidationError):  # unknown gate name
        validate(parse_circuit("model fuzzy\nwires 1\ninit ket 0\ngate BLORP 0\n"))
    with pytest.raises(ValidationError):  # wire out of range
        validate(parse_circuit("model fuzzy\nwires 1\ninit ket 0\ngate FNOT 1\n"))
    with pytest.raises(ValidationError):  # repeated wire
        validate(parse_circuit("model fuzzy\nwires 2\ninit ket 00\ngate FSWAP 1 1\n"))
    with pytest.raises(ValidationError):  # non-contiguous block
        validate(parse_circuit("model classical\nwires 3\ninit ket 000\ngate CNOT 0 2\n"))
    with pytest.raises(ValidationError):  # arity mismatch
        validate(parse_circuit("model quantum\nwires 2\ninit ket 00\ngate CNOT 0\n"))
    with pytest.raises(ValidationError):  # classical takes ket init only
        validate(parse_circuit("model classical\nwires 1\ninit vec 1 0\n"))
    with pytest.raises(ValidationError):  # wrong vec length
        validate(parse_circuit("model fuzzy\nwires 2\ninit vec 0 1\n"))
    with pytest.raises(ValidationError):  # init vec must be a member
        validate(parse_circuit("model fuzzy\nwires 1\ninit vec 1/2 1/2\n"))
    with pytest.raises(ValidationError):  # measure is quantum-only
        validate(parse_circuit("model fuzzy\nwires 1\ninit ket 0\nmeasure seed 1\n"))
    for model, row in MODELS.items():  # a negative wire, which only the API can give
        gate = next(name for name in row.gates if builtin_gate(model, name).arity == 1)
        with pytest.raises(ValidationError, match=r"wire -1 out of range for 2 wires$"):
            validate(CircuitProgram(model, 2, "ket", (0, 0), (GateStep(gate, (-1,)),)))
        with pytest.raises(ValueError, match=r"^wire -1 out of range for 2 wires$"):
            lift_gate(builtin_gate(model, gate), (-1,), 2)
    with pytest.raises(ValueError, match="unknown model 'analog'"):  # a name no row has
        validate(CircuitProgram("analog", 1, "ket", (0,), ()))


def test_ket_init_orientation():
    # leftmost ket bit is the highest wire
    vc = validate(parse_circuit("model classical\nwires 3\ninit ket 100\n"))
    assert vc.initial.basis_index == 4
    assert simulate(vc).final.ket() == "100"


def test_lift_conventions():
    cnot = builtin_gate("classical", "CNOT")
    # descending wire list binds ket symbols in matrix order: plain matrix
    assert lift_gate(cnot, (1, 0), 2) == cnot.matrix
    # ascending list swaps the roles: control on wire 0
    lifted = lift_gate(cnot, (0, 1), 2)
    assert permutation_from_matrix(lifted) == (0, 3, 2, 1)
    # single-wire gate on the low wire of two: identity (x) gate
    h = builtin_gate("quantum", "H")
    lifted_h = lift_gate(h, (0,), 2)
    r2 = 1.0 / math.sqrt(2.0)
    assert abs(lifted_h.entries[0][0] - r2) < 1e-12
    assert abs(lifted_h.entries[0][2]) < 1e-12
    assert abs(lifted_h.entries[2][2] - r2) < 1e-12


def test_bell_simulation():
    states = []
    trace = simulate(validate(parse_circuit(BELL)), None, states.append)
    r2 = 1.0 / math.sqrt(2.0)
    amps = trace.final.vector.entries
    assert abs(amps[0] - r2) < 1e-12 and abs(amps[3] - r2) < 1e-12
    assert abs(amps[1]) < 1e-12 and abs(amps[2]) < 1e-12
    assert trace.measured in (0, 3)
    assert len(states) == 3  # init + two gates
    assert states[-1] == trace.final


def test_measure_seed_override_and_force():
    prog = parse_circuit(BELL)
    vc = validate(prog)
    outcomes = {simulate(vc, seed=s).measured for s in range(50)}
    assert outcomes == {0, 3}
    no_measure = validate(parse_circuit("model quantum\nwires 1\ninit ket 0\ngate H 0\n"))
    assert simulate(no_measure).measured is None
    assert simulate(no_measure, seed=0).measured in (0, 1)


# A library seed takes the range `--seed` and `measure seed` take: 2^64 - 1
# draws, and one past either end raises at the call instead of drawing the
# seed modulo 2^64 (2^64 would draw as 0, and -1 as 2^64 - 1).
def test_a_library_seed_fits_in_64_bits():
    plus = validate(parse_circuit("model quantum\nwires 2\ninit ket 00\ngate H 0\n"
                                  "gate CNOT 0 1\n"))
    last = simulate(plus, seed=(1 << 64) - 1)
    assert last.measured == quantum.measure(last.final, (1 << 64) - 1) == 3
    message = "seed must fit in an unsigned 64-bit integer"
    for seed in (1 << 64, -1):
        with pytest.raises(ValueError, match=message):
            simulate(plus, seed=seed)
        with pytest.raises(ValueError, match=message):
            quantum.measure(last.final, seed)
        built = dataclasses.replace(plus.program, measure_seed=seed)  # not through the parser
        with pytest.raises(ValueError, match=message):
            simulate(dataclasses.replace(plus, program=built))


def test_fuzzy_simulation_matches_composed_operator():
    text = ("model fuzzy\nwires 2\ninit vec 0 1/2 1 1\n"
            "gate FNOT 0\ngate FSWAP 0 1\ngate FZERO 1\n")
    vc = validate(parse_circuit(text))
    trace = simulate(vc)
    op = composed_operator(vc)
    assert trace.final.vector == mat_vec(op, vc.initial.vector)


def test_classical_index_path_matches_matrix_path():
    text = ("model classical\nwires 3\ninit ket 011\n"
            "gate AND 2 1 0\ngate SWAP 0 1\ngate NOT 2\ngate CNOT 1 2\n")
    vc = validate(parse_circuit(text))
    final = simulate(vc).final
    op = composed_operator(vc)
    indicator = SVector(op.instance, tuple(
        op.instance.one if i == vc.initial.basis_index else op.instance.zero
        for i in range(8)))
    image = mat_vec(op, indicator)
    assert image.entries[final.basis_index] == op.instance.one
    assert sum(1 for x in image.entries if x == op.instance.one) == 1


# a 3-wire permutation that is no builtin: a 3-cycle on the high bits, then a flip
ROTATE3 = matrix_from_permutation((1, 0, 4, 5, 2, 3, 7, 6), BOOLEAN)


@pytest.mark.parametrize("gate", [
    *(builtin_gate("classical", name) for name in MODELS["classical"].gates),
    GateDescriptor("classical", "@rotate3.mat", ROTATE3),
], ids=lambda gate: gate.name)
def test_classical_plan_is_the_bound_permutation(gate):
    # the oracle is the permutation of the lifted operator on one wire more
    k = gate.arity
    for base in (0, 2):
        n = base + k + 1
        for wires in itertools.permutations(range(base, base + k)):
            low, mask, perm = circuit._step_plan(gate, wires)
            assert low == min(wires) and mask == (1 << k) - 1
            lifted = permutation_from_matrix(lift_gate(gate, wires, n))
            for i in range(1 << n):
                w = (i >> base) & mask
                assert i ^ ((w ^ perm[w]) << base) == lifted[i]


def test_each_distinct_step_is_validated_once(tmp_path, monkeypatch):
    (tmp_path / "rotate3.mat").write_text(serialize_matrix(ROTATE3))
    text = ("model classical\nwires 4\ninit ket 0110\n"
            "gate @rotate3.mat 0 1 2\ngate CNOT 3 2\ngate @rotate3.mat 0 1 2\n")
    reads = []
    real = circuit.parse_matrix_text
    monkeypatch.setattr("fuzzbit.circuit.parse_matrix_text",
                        lambda text: reads.append(text) or real(text))
    vc = validate(parse_circuit(text), base_dir=tmp_path)
    assert len(reads) == 1
    assert vc.gates[0] is vc.gates[2] and vc.plans[0] is vc.plans[2]
    lifted = mat_vec(composed_operator(vc), basis_vector(BOOLEAN, 16, 0b0110))
    assert simulate(vc).final.basis_index == lifted.entries.index(BOOLEAN.one)


def test_a_repeated_step_reports_the_first_failing_line():
    # the repeated good pair is reused, the same gate on new wires is checked
    # again, and a repeated bad pair fails at its first line
    text = ("model quantum\nwires 2\ninit ket 00\n"
            "gate CNOT 0 1\ngate CNOT 0 1\ngate CNOT 1 2\ngate CNOT 1 2\n")
    with pytest.raises(ValidationError, match=r"^line 6: wire 2 out of range for 2 wires$"):
        validate(parse_circuit(text))


def test_classical_run_passes_each_state():
    text = ("model classical\nwires 4\ninit ket 0110\n"
            "gate AND 3 2 1\ngate SWAP 0 1\ngate FANOUT 2 1\ngate NOT 3\ngate CNOT 0 1\n")
    vc = validate(parse_circuit(text))
    n = vc.program.wire_count
    index, expected = vc.initial.basis_index, [vc.initial]
    for step, gate in zip(vc.program.steps, vc.gates):
        index = permutation_from_matrix(lift_gate(gate, step.wires, n))[index]
        expected.append(ClassicalState(n, index))
    states = []
    trace = simulate(vc, None, states.append)
    assert trace.final == expected[-1] and isinstance(trace.final, ClassicalState)
    assert states == expected
    assert all(isinstance(state, ClassicalState) for state in states)
    again = []
    assert simulate(vc, None, again.append).measured == trace.measured and again == states
    other = []
    simulate(dataclasses.replace(vc, initial=ClassicalState(n, 0)), None, other.append)
    assert other != states


def test_gate_from_file(tmp_path):
    gate = tmp_path / "gate.mat"
    gate.write_text(serialize_matrix(builtin_gate("fuzzy", "FNOT").matrix))
    text = f"model fuzzy\nwires 1\ninit vec 0 3/4\ngate @{gate.name} 0\n"
    vc = validate(parse_circuit(text), base_dir=tmp_path)
    assert simulate(vc).final.vector.entries == (U(3, 4), U(0))

    bad = tmp_path / "bad.mat"
    bad.write_text("instance fuzz-mv 2 2\n0 1\n1 1/2\n")
    with pytest.raises(ValidationError):
        validate(parse_circuit(f"model fuzzy\nwires 1\ninit ket 0\ngate @{bad.name} 0\n"),
                 base_dir=tmp_path)

    mismatched = tmp_path / "mismatched.mat"
    mismatched.write_text("instance complex 2 2\n0 1\n1 0\n")
    with pytest.raises(ValidationError):
        validate(parse_circuit(
            f"model fuzzy\nwires 1\ninit ket 0\ngate @{mismatched.name} 0\n"),
            base_dir=tmp_path)


def test_equivalence_check():
    double_not = validate(parse_circuit(
        "model fuzzy\nwires 1\ninit ket 0\ngate FNOT 0\ngate FNOT 0\n"))
    ident = validate(parse_circuit("model fuzzy\nwires 1\ninit ket 0\ngate FID 0\n"))
    assert equal(composed_operator(double_not), composed_operator(ident))
    hzh = validate(parse_circuit(
        "model quantum\nwires 1\ninit ket 0\ngate H 0\ngate Z 0\ngate H 0\n"))
    x = validate(parse_circuit("model quantum\nwires 1\ninit ket 0\ngate X 0\n"))
    assert equal(composed_operator(hzh), composed_operator(x))
    fnot = validate(parse_circuit("model fuzzy\nwires 1\ninit ket 0\ngate FNOT 0\n"))
    assert not equal(composed_operator(ident), composed_operator(fnot))


def test_reversible_circuit_text_self_checks():
    for bits in ((0, 1, 1, 0), (1, 1), (0, 1), (1, 0, 0, 0, 0, 0, 0, 1)):
        n = len(bits).bit_length() - 1
        circ = synthesize_circuit(TruthTable(n, 1, bits))
        program = reversible_circuit_text(circ)
        assert parse_circuit(serialize_circuit(program)) == program
        vc = validate(program)
        for x in range(len(bits)):
            final = simulate(dataclasses.replace(
                vc, initial=ClassicalState(vc.program.wire_count, x))).final
            assert final.basis_index & 1 == bits[x]


@pytest.mark.parametrize("seed", range(4))
def test_synthesized_programs_route_locally(seed):
    # routing every operation through wires 0-2 took about 240,000 steps
    rng = random.Random(seed)
    table = TruthTable(8, 1, tuple(rng.randint(0, 1) for _ in range(256)))
    circ = synthesize_circuit(table)
    program = reversible_circuit_text(circ)
    assert len(program.steps) < 15_000
    assert program.wire_count == circ.n_wires
    # one computing gate per operation, FANOUT and NOT for a NOT; the rest is routing
    computing = [step for step in program.steps if step.gate != "SWAP"]
    assert len(computing) == len(circ.steps) + sum(step.op == "NOT" for step in circ.steps)


# What each gate `synth` emits does to the bit on its last listed wire, from the
# bits on the wires listed before it; SWAP exchanges its two wires.
_BIT_GATES = {"NOT": lambda: 1, "FANOUT": lambda a: a,
              "AND": lambda a, b: a & b, "OR": lambda a, b: a | b, "XOR": lambda a, b: a ^ b}


def _bit_image(program, x):
    """The basis index `program` sends index x to, evaluated one wire bit at a time."""
    bits = [(x >> w) & 1 for w in range(program.wire_count)]
    for step in program.steps:
        *args, target = step.wires
        if step.gate == "SWAP":
            bits[args[0]], bits[target] = bits[target], bits[args[0]]
        else:
            bits[target] ^= _BIT_GATES[step.gate](*(bits[w] for w in args))
    return sum(b << w for w, b in enumerate(bits))


def _input_tags(model, n_inputs):
    """A distinct value per input index, in `model`'s carrier, that together
    make a state when every other entry is the carrier's zero."""
    inputs = 1 << n_inputs
    if model == "stochastic":
        return [Fraction(2 * (x + 1), inputs * (inputs + 1)) for x in range(inputs)]
    if model == "quantum":
        norm = math.sqrt(sum((x + 1) ** 2 for x in range(inputs)))
        return [complex((x + 1) / norm) for x in range(inputs)]
    return [Fraction(x, inputs) for x in range(inputs)]  # fuzzy: 0 is a member's minimum


# Every table of up to 2 inputs and a seeded sample of 3-input ones.
SYNTH_TABLES = [bits for n in (1, 2) for bits in itertools.product((0, 1), repeat=1 << n)] + [
    tuple(random.Random(seed).choices((0, 1), k=8)) for seed in range(24)]


@pytest.mark.parametrize("model", ["stochastic", "quantum", "fuzzy"])
def test_a_synthesized_program_moves_entries_as_it_moves_bits(tmp_path, model):
    # each classical gate is a permutation matrix, and so a member gate of
    # every dense model: rebuilt over the model's carrier, a program moves a
    # state's entries exactly as the program moves basis indices
    row = MODELS[model]
    for name in ("NOT", "SWAP", "FANOUT", "AND", "OR", "XOR"):
        perm = permutation_from_matrix(builtin_gate("classical", name).matrix)
        (tmp_path / f"{name}.mat").write_text(
            serialize_matrix(matrix_from_permutation(perm, row.instance)))
    for bits in SYNTH_TABLES:
        n = len(bits).bit_length() - 1
        program = reversible_circuit_text(synthesize_circuit(TruthTable(n, 1, bits)))
        size, tags = 1 << program.wire_count, _input_tags(model, n)
        initial = SVector(row.instance, tags + [row.instance.zero] * (size - len(tags)))
        expected = [row.instance.zero] * size
        for x, tag in enumerate(tags):
            expected[_bit_image(program, x)] = tag
        dense = CircuitProgram(model, program.wire_count, "vec", initial, tuple(
            GateStep(f"@{step.gate}.mat", step.wires) for step in program.steps))
        final = simulate(validate(dense, base_dir=tmp_path)).final
        assert final.vector.entries == tuple(expected), bits


def test_all_ones_quietly_absorbs_through_a_program():
    text = "model fuzzy\nwires 2\ninit vec 1 1 1 1\ngate FNOT 0\ngate FID 1\n"
    trace = simulate(validate(parse_circuit(text)))
    assert all(x == U(1) for x in trace.final.vector.entries)


# --- the local kernel against the lifted reference -----------------------------

# Gate denominators; the grid's 2, 3 and 4, and 7 and 9 from outside it.
GATE_DENOMINATORS = (2, 3, 4, 7, 9)
# Denominators no gate uses, for states the program does not contain.
STATE_DENOMINATORS = (5, 11, 13)


def _random_parts(draw, total: int, count: int) -> list[int]:
    """`count` nonnegative ints that sum to `total`."""
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=count - 1,
                                max_size=count - 1)))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _random_member_gate(draw, model: str, arity: int) -> SMatrix:
    size = 1 << arity
    if model == "classical":
        return matrix_from_permutation(draw(st.permutations(range(size))), BOOLEAN)
    if model in ("stochastic", "fuzzy"):
        d = draw(st.sampled_from(GATE_DENOMINATORS))
        columns = []
        for _ in range(size):
            if model == "stochastic":
                columns.append([Fraction(w, d) for w in _random_parts(draw, d, size)])
            else:
                column = draw(st.lists(st.integers(0, d), min_size=size, max_size=size))
                column[draw(st.integers(0, size - 1))] = 0
                columns.append([UnitScalar(x, d) for x in column])
        return SMatrix(MODELS[model].instance, tuple(zip(*columns)))
    angle = st.floats(0, 2 * math.pi)
    op = None
    for _ in range(arity):  # a product of one-wire unitaries ...
        t, p, q = draw(angle), draw(angle), draw(angle)
        u = SMatrix(COMPLEX, ((complex(math.cos(t)), -cmath.exp(1j * q) * math.sin(t)),
                              (cmath.exp(1j * p) * math.sin(t),
                               cmath.exp(1j * (p + q)) * math.cos(t))))
        op = u if op is None else kron_mat(op, u)
    perm = draw(st.permutations(range(size)))  # ... entangled by a permutation
    shuffle = matrix_from_permutation(perm, COMPLEX)
    return mat_mul(shuffle, op)


def _random_gate_lines(draw, model: str, n: int, steps: int, files: dict) -> list[str]:
    """`gate` lines of builtins and 1- to 3-wire @file gates, whose texts go to `files`."""
    builtins = [name for name in MODELS[model].gates if builtin_gate(model, name).arity <= n]
    lines = []
    for k in range(steps):
        if draw(st.booleans()):
            name = draw(st.sampled_from(builtins))
            arity = builtin_gate(model, name).arity
        else:
            arity = draw(st.integers(1, min(3, n)))
            name = f"@g{k}.mat"
            files[name[1:]] = serialize_matrix(_random_member_gate(draw, model, arity))
        base = draw(st.integers(0, n - arity))
        wires = draw(st.permutations(range(base, base + arity)))
        lines.append(f"gate {name} " + " ".join(map(str, wires)))
    return lines


@st.composite
def random_programs(draw):
    """Program text plus its random @file gates: 1- to 3-wire gates on n <= 5 wires."""
    model = draw(st.sampled_from(("classical", "stochastic", "quantum", "fuzzy")))
    n = draw(st.integers(1, 5))
    bits = "".join(draw(st.sampled_from("01")) for _ in range(n))
    files = {}
    lines = [f"model {model}", f"wires {n}", f"init ket {bits}",
             *_random_gate_lines(draw, model, n, draw(st.integers(1, 6)), files)]
    return "\n".join(lines) + "\n", files


@settings(max_examples=150, deadline=None)
@given(random_programs())
def test_every_step_matches_the_lifted_gate(case):
    text, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in files.items():
            (Path(tmp) / name).write_text(body, encoding="utf-8")
        vc = validate(parse_circuit(text), base_dir=tmp)
    program = vc.program
    n = program.wire_count
    instance = MODELS[program.model].instance

    def basis(index):
        return basis_vector(instance, 1 << n, index)

    states = []
    simulate(vc, None, states.append)
    for step, gate, before, after in zip(program.steps, vc.gates, states, states[1:]):
        lifted = lift_gate(gate, step.wires, n)
        if program.model == "classical":
            assert mat_vec(lifted, basis(before.basis_index)) == basis(after.basis_index)
        elif program.model == "quantum":
            assert equal(after.vector, mat_vec(lifted, before.vector))
        else:
            assert after.vector == mat_vec(lifted, before.vector)


# --- the integer run against the entrywise reference ----------------------------

def _random_state(draw, model: str, size: int, denominators) -> SVector:
    d = draw(st.sampled_from(denominators))
    if model == "stochastic":
        return SVector(PROBABILITY, [Fraction(x, d) for x in _random_parts(draw, d, size)])
    if size > 1 and draw(st.integers(0, 4)) == 0:
        return SVector(FUZZ_MV, [U(1)] * size)  # the all-ones state
    entries = draw(st.lists(st.integers(0, d), min_size=size, max_size=size))
    entries[draw(st.integers(0, size - 1))] = 0
    return SVector(FUZZ_MV, [U(x, d) for x in entries])


@st.composite
def rational_runs(draw):
    """A stochastic or fuzzy program on n <= 6 wires, its @file gates, and
    None or an initial state over denominators that no gate uses."""
    model = draw(st.sampled_from(("stochastic", "fuzzy")))
    n = draw(st.integers(1, 6))
    size = 1 << n
    if draw(st.booleans()):
        init = "init ket " + "".join(draw(st.sampled_from("01")) for _ in range(n))
    else:
        vec = _random_state(draw, model, size, GATE_DENOMINATORS)
        init = "init vec " + " ".join(str(x) for x in vec.entries)
    files = {}
    lines = [f"model {model}", f"wires {n}", init,
             *_random_gate_lines(draw, model, n, draw(st.integers(0, 5)), files)]
    initial = None
    if draw(st.booleans()):
        initial = VectorState(model, _random_state(draw, model, size, STATE_DENOMINATORS))
    return "\n".join(lines) + "\n", files, initial


@settings(max_examples=100, deadline=None)
@given(rational_runs())
def test_integer_route_matches_the_rational_route(case):
    """Each run state against the lifted operator's mat_vec and against
    `entrywise_block`, which folds the carrier's add and mul over entries."""
    text, files, initial = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in files.items():
            (Path(tmp) / name).write_text(body, encoding="utf-8")
        vc = validate(parse_circuit(text), base_dir=tmp)
    program = vc.program
    if initial is not None:
        vc = dataclasses.replace(vc, initial=initial)
    states = []
    trace = simulate(vc, None, states.append)
    state = vc.initial
    assert len(states) == len(program.steps) + 1
    assert states[0] is state
    vector = state.vector
    s = vector.instance
    for k, (step, gate, plan) in enumerate(zip(program.steps, vc.gates, vc.plans), 1):
        lifted = mat_vec(lift_gate(gate, step.wires, program.wire_count), vector)
        vector = SVector(s, entrywise_block(s, plan.entries, min(step.wires), vector.entries))
        assert vector == lifted
        decoded = states[k]
        assert isinstance(decoded, VectorState) and decoded.model == program.model
        assert decoded.vector == vector
        assert list(map(type, decoded.vector.entries)) == list(map(type, vector.entries))
    assert trace.final == states[-1]


ONE_PROGRAM_PER_MODEL = (
    "model classical\nwires 3\ninit ket 011\n"
    "gate AND 2 1 0\ngate SWAP 0 1\ngate FANOUT 1 2\ngate CNOT 1 0\n",
    "model stochastic\nwires 2\ninit vec 1/2 1/4 1/4 0\ngate NOT 1\ngate CNOT 0 1\n",
    "model quantum\nwires 3\ninit ket 000\ngate H 2\ngate CNOT 2 1\ngate SWAP 0 1\n",
    "model fuzzy\nwires 2\ninit vec 0 1/2 1 1\ngate FNOT 0\ngate FSWAP 1 0\ngate FZERO 1\n",
)


@pytest.mark.parametrize("text", ONE_PROGRAM_PER_MODEL)
def test_simulate_neither_lifts_nor_checks_gates(monkeypatch, text):
    vc = validate(parse_circuit(text))
    expected = []
    measured = simulate(vc, None, expected.append).measured

    def boom(*args, **kwargs):
        raise AssertionError("simulate must not lift or re-check a gate")

    for target in ("fuzzbit.circuit.lift_gate",
                   "fuzzbit.models.classical.permutation_violation",
                   "fuzzbit.models.stochastic.stochastic_violation",
                   "fuzzbit.models.quantum.unitary_violation",
                   "fuzzbit.models.fuzzy.fuzzy_gate_violation"):
        monkeypatch.setattr(target, boom)
    states = []
    assert simulate(vc, None, states.append).measured == measured and states == expected


# A kernel mutant returns numerators over the state's own carrier and scale:
# int numerators for stochastic (all 0: the sum is not the scale) and fuzzy
# (all 1 at the program's scale 2: the minimum is 1/2), complex for quantum.
@pytest.mark.parametrize("text, bad_entry", [
    (ONE_PROGRAM_PER_MODEL[1], 0),
    (ONE_PROGRAM_PER_MODEL[2], 0j),
    (ONE_PROGRAM_PER_MODEL[3], 1),
])
def test_kept_state_check_still_fails(monkeypatch, text, bad_entry):
    vc = validate(parse_circuit(text))
    monkeypatch.setattr("fuzzbit.circuit.mat_vec_block", lambda a, base, v: SVector.over(
        v.instance, (bad_entry,) * len(v), v.scale))
    with pytest.raises(InternalCheckError, match="intermediate state failed membership"):
        simulate(vc)


@pytest.mark.parametrize("text, predicate", [
    (ONE_PROGRAM_PER_MODEL[1], "distribution_violation"),
    (ONE_PROGRAM_PER_MODEL[2], "state_norm_violation"),
    (ONE_PROGRAM_PER_MODEL[3], "fuzzy_state_violation"),
], ids=["stochastic", "quantum", "fuzzy"])
def test_a_trace_checks_each_state_once(monkeypatch, text, predicate):
    program = parse_circuit(text)
    module = importlib.import_module(f"fuzzbit.models.{program.model}")
    calls = []
    real = getattr(module, predicate)
    monkeypatch.setattr(module, predicate, lambda v: calls.append(v) or real(v))
    vc = validate(program)
    assert len(calls) == 1  # the initial state
    states = []
    trace = simulate(vc, None, states.append)
    steps = len(vc.program.steps)
    assert len(calls) == 1 + steps  # one per step
    assert len(states) == steps + 1 and trace.final == states[-1]
    VectorState(program.model, trace.final.vector)  # the public constructor still checks
    assert len(calls) == 2 + steps


def _run_peak_bytes(steps: int) -> int:
    text = ("model quantum\nwires 8\ninit ket 00000000\n"
            + "".join(f"gate H {k % 8}\n" for k in range(steps)))
    vc = validate(parse_circuit(text))
    tracemalloc.start()
    try:
        simulate(vc)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_run_holds_one_state_whatever_its_length():
    # a run that kept every state would peak about ten times higher at 200 steps
    assert _run_peak_bytes(200) < 2 * _run_peak_bytes(20)


# A stochastic gate of denominator 97 with equal columns: every state it makes
# has denominator 97, while the product of the gates' denominators grows by
# 97 per step.
RESET97 = "instance probability 2 2\n30/97 30/97\n67/97 67/97\n"


def test_a_long_stochastic_run_keeps_a_small_scale(tmp_path, capsys):
    (tmp_path / "g.mat").write_text(RESET97)
    steps = 200
    text = ("model stochastic\nwires 1\ninit vec 1/3 2/3\n"
            + "gate @g.mat 0\ngate NOT 0\n" * (steps // 2))
    (tmp_path / "p.circ").write_text(text)
    states = []
    simulate(validate(parse_circuit(text), base_dir=tmp_path), None, states.append)
    gate = [[Fraction(30, 97)] * 2, [Fraction(67, 97)] * 2]
    state = [Fraction(1, 3), Fraction(2, 3)]
    lines = ["step 0 init 1/3 2/3"]
    for k in range(steps):
        state = ([sum(g * x for g, x in zip(row, state)) for row in gate] if k % 2 == 0
                 else state[::-1])
        assert states[k + 1].vector.entries == tuple(state)
        lines.append(f"step {k + 1} {('@g.mat', 'NOT')[k % 2]} {state[0]} {state[1]}")
        # the entries' least common denominator, 97, where the product of the
        # gates' denominators would reach 3 * 97^100
        assert states[k + 1].vector.scale.bit_length() <= (97).bit_length()
    lines += ["model stochastic", "wires 1", f"final {state[0]} {state[1]}"]
    assert main(["simulate", "--trace", str(tmp_path / "p.circ")]) == 0
    assert capsys.readouterr() == ("\n".join(lines) + "\n", "")
