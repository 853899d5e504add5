"""Reference semantics and output checks, written independently of fuzzbit.

Nothing here imports the package under test.  Every check takes the text a
`fuzzbit` command printed and the structured input the benchmark generated,
and returns None when the output is right or a short reason when it is not.

The simulator reference applies each bound 2^k x 2^k gate to the state in
strides (the gate acts on the k target bits of every basis index, the other
bits are untouched), so it never builds a 2^n x 2^n operator.  Rational
models are compared exactly; quantum amplitudes within 1e-9.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

QUANTUM_TOL = 1e-9


@dataclass(frozen=True)
class Ring:
    name: str  # the fuzzbit instance name of the carrier
    add: object
    mul: object
    zero: object
    one: object


def _truncated_sum(x, y):
    s = x + y
    return s if s < 1 else Fraction(1)


RINGS = {
    "classical": Ring("boolean", max, min, Fraction(0), Fraction(1)),
    "stochastic": Ring("probability", operator.add, operator.mul, Fraction(0), Fraction(1)),
    "quantum": Ring("complex", operator.add, operator.mul, 0j, 1 + 0j),
    # Lukasiewicz: min is the addition (identity 1), truncated sum the product (identity 0)
    "fuzzy": Ring("fuzz-mv", min, _truncated_sum, Fraction(1), Fraction(0)),
}


def perm_matrix(perm, zero, one):
    """Column j has its single `one` in row perm[j]."""
    n = len(perm)
    return [[one if perm[j] == i else zero for j in range(n)] for i in range(n)]


def _classical_embedding(table, inputs):
    """Permutation (x, y) -> (x, y xor f(x)) with the ancilla y as the low bit."""
    size = 1 << (inputs + 1)
    return [((idx >> 1) << 1) | ((idx & 1) ^ table[idx >> 1]) for idx in range(size)]


_H = 1 / math.sqrt(2)
_SWAP = [0, 2, 1, 3]
_CNOT = [0, 1, 3, 2]


def builtin_gates(model: str) -> dict:
    """Named gates of the circuit language, as matrices over the model's ring."""
    r = RINGS[model]
    if model == "quantum":
        one, zero = 1 + 0j, 0j
        return {
            "H": [[_H + 0j, _H + 0j], [_H + 0j, -_H + 0j]],
            "X": perm_matrix([1, 0], zero, one),
            "Z": [[one, zero], [zero, -one]],
            "CNOT": perm_matrix(_CNOT, zero, one),
            "SWAP": perm_matrix(_SWAP, zero, one),
        }
    if model == "fuzzy":
        return {
            "FID": perm_matrix([0, 1], r.zero, r.one),
            "FNOT": perm_matrix([1, 0], r.zero, r.one),
            "FZERO": [[r.zero, r.zero], [r.zero, r.zero]],
            "FSWAP": perm_matrix(_SWAP, r.zero, r.one),
        }
    gates = {
        "NOT": perm_matrix([1, 0], r.zero, r.one),
        "CNOT": perm_matrix(_CNOT, r.zero, r.one),
        "SWAP": perm_matrix(_SWAP, r.zero, r.one),
    }
    if model == "classical":
        tables = {"AND": (0, 0, 0, 1), "OR": (0, 1, 1, 1), "XOR": (0, 1, 1, 0),
                  "NAND": (1, 1, 1, 0), "NOR": (1, 0, 0, 0)}
        for name, table in tables.items():
            gates[name] = perm_matrix(_classical_embedding(table, 2), r.zero, r.one)
        gates["FANOUT"] = perm_matrix(_classical_embedding((0, 1), 1), r.zero, r.one)
    return gates


# --- state-vector reference ------------------------------------------------------

def apply_local(ring: Ring, state: list, gate: list, targets) -> list:
    """Apply a k-wire gate; targets[0] carries the gate's most significant bit."""
    k = len(targets)
    offsets = []
    for g in range(1 << k):
        off = 0
        for i, w in enumerate(targets):
            if (g >> (k - 1 - i)) & 1:
                off |= 1 << w
        offsets.append(off)
    mask = offsets[-1]
    out = list(state)
    for rest in range(len(state)):
        if rest & mask:
            continue
        local = [state[rest | off] for off in offsets]
        for go, row in enumerate(gate):
            acc = ring.mul(row[0], local[0])
            for coeff, x in zip(row[1:], local[1:]):
                acc = ring.add(acc, ring.mul(coeff, x))
            out[rest | offsets[go]] = acc
    return out


def mat_vec(ring: Ring, m: list, v: list) -> list:
    out = []
    for row in m:
        acc = ring.mul(row[0], v[0])
        for coeff, x in zip(row[1:], v[1:]):
            acc = ring.add(acc, ring.mul(coeff, x))
        out.append(acc)
    return out


def kron_vec(ring: Ring, u: list, v: list) -> list:
    return [ring.mul(x, y) for x in u for y in v]


def kron_mat(ring: Ring, a: list, b: list) -> list:
    return [[ring.mul(x, y) for x in arow for y in brow] for arow in a for brow in b]


def basis_state(model: str, n: int, bits: str) -> list:
    """`bits` is read with the leftmost character on the highest wire."""
    r = RINGS[model]
    index = int(bits, 2)
    return [r.one if i == index else r.zero for i in range(1 << n)]


def _splitmix64(seed: int) -> int:
    mask = (1 << 64) - 1
    z = (seed + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def measure_outcomes(amplitudes: list, seed: int) -> set:
    """Indices the seeded inverse-CDF draw may return.

    Normally one index.  When the draw lies within the amplitude tolerance
    of a CDF boundary, both neighbours are accepted, since a correct
    simulator may round that boundary either way.
    """
    u = (_splitmix64(seed) >> 11) * 2.0 ** -53
    acc = 0.0
    chosen, fallback = None, 0
    nonzero = []
    for i, a in enumerate(amplitudes):
        p = abs(a) ** 2
        if p == 0.0:
            continue
        acc += p
        nonzero.append((i, acc))
        fallback = i
        if chosen is None and u <= acc:
            chosen = i
    accepted = {fallback if chosen is None else chosen}
    for pos, (i, edge) in enumerate(nonzero):
        if abs(u - edge) <= 4 * QUANTUM_TOL:
            accepted.add(i)
            if pos + 1 < len(nonzero):
                accepted.add(nonzero[pos + 1][0])
    return accepted


@dataclass
class Program:
    """A generated circuit program, kept in structured form for the reference."""

    model: str
    wires: int
    init: tuple  # ("ket", bits) or ("vec", values)
    steps: list  # (label, matrix, targets)
    measure_seed: int | None = None


def simulate(program: Program) -> list:
    """Every state of the run, the initial one first."""
    ring = RINGS[program.model]
    kind, value = program.init
    state = basis_state(program.model, program.wires, value) if kind == "ket" else list(value)
    states = [state]
    for _, matrix, targets in program.steps:
        state = apply_local(ring, state, matrix, targets)
        states.append(state)
    return states


# --- parsing what fuzzbit printed --------------------------------------------------

_UNSIGNED = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_IMAGINARY = re.compile(rf"([+-]?{_UNSIGNED})i")
_COMPLEX = re.compile(rf"([+-]?{_UNSIGNED})(?:([+-]{_UNSIGNED})i)?")


def parse_display_complex(token: str) -> complex:
    """Read `a`, `bi` or `a+bi` as printed with 12 significant digits."""
    m = _IMAGINARY.fullmatch(token)
    if m is not None:
        return complex(0.0, float(m.group(1)))
    m = _COMPLEX.fullmatch(token)
    if m is None:
        raise ValueError(f"not a complex number: {token!r}")
    return complex(float(m.group(1)), float(m.group(2) or 0.0))


def _parse_scalar(model: str, token: str):
    return parse_display_complex(token) if model == "quantum" else Fraction(token)


def vector_mismatch(model: str, tokens: list, expected: list) -> str | None:
    if len(tokens) != len(expected):
        return f"{len(tokens)} entries, expected {len(expected)}"
    for i, (tok, want) in enumerate(zip(tokens, expected)):
        try:
            got = _parse_scalar(model, tok)
        except ValueError:
            return f"entry {i} {tok!r} does not parse"
        if model == "quantum":
            if abs(got.real - want.real) > QUANTUM_TOL or abs(got.imag - want.imag) > QUANTUM_TOL:
                return f"entry {i} is {tok}, expected {want!r}"
        elif got != want:
            return f"entry {i} is {tok}, expected {want}"
    return None


def _state_mismatch(model: str, tokens: list, expected: list) -> str | None:
    if model != "classical":
        return vector_mismatch(model, tokens, expected)
    index = expected.index(Fraction(1))
    width = len(expected).bit_length() - 1
    want = ["index", str(index), "ket", format(index, f"0{width}b")]
    if tokens != want:
        return f"classical state {' '.join(tokens)}, expected {' '.join(want)}"
    return None


def check_simulation(program: Program, out: str, traced: bool,
                     measure_seed: int | None) -> str | None:
    """Compare `simulate`/`sample` output with the reference run.

    `measure_seed` is the seed the command should measure with, or None when
    no measurement is due.
    """
    states = simulate(program)
    lines = out.splitlines()
    if traced:
        labels = ["init"] + [label for label, _, _ in program.steps]
        for k, (label, state) in enumerate(zip(labels, states)):
            if not lines:
                return f"missing trace line for step {k}"
            tokens = lines.pop(0).split()
            if tokens[:3] != ["step", str(k), label]:
                return f"trace line {k} starts {tokens[:3]}, expected step {k} {label}"
            reason = _state_mismatch(program.model, tokens[3:], state)
            if reason is not None:
                return f"step {k}: {reason}"
    head = [f"model {program.model}", f"wires {program.wires}"]
    if lines[:2] != head:
        return f"summary starts {lines[:2]}, expected {head}"
    final = lines[2].split() if len(lines) > 2 else []
    if final[:1] != ["final"]:
        return "missing final line"
    reason = _state_mismatch(program.model, final[1:], states[-1])
    if reason is not None:
        return f"final: {reason}"
    rest = lines[3:]
    if measure_seed is None:
        return None if not rest else f"unexpected trailing lines {rest}"
    if len(rest) != 1 or not rest[0].startswith("measured "):
        return f"expected one measured line, got {rest}"
    outcome = rest[0].split()[1]
    accepted = measure_outcomes(states[-1], measure_seed)
    if not outcome.isdigit() or int(outcome) not in accepted:
        return f"measured {outcome}, expected one of {sorted(accepted)}"
    return None


def check_vector_output(model: str, out: str, expected: list) -> str | None:
    lines = out.splitlines()
    if len(lines) != 1:
        return f"expected one line, got {len(lines)}"
    return vector_mismatch(model, lines[0].split(), expected)


def check_matrix_output(model: str, out: str, expected: list) -> str | None:
    lines = out.splitlines()
    rows, cols = len(expected), len(expected[0])
    header = f"instance {RINGS[model].name} {rows} {cols}"
    if not lines or lines[0] != header:
        return f"header {lines[:1]}, expected {header!r}"
    if len(lines) != rows + 1:
        return f"{len(lines) - 1} rows, expected {rows}"
    for i, (line, want) in enumerate(zip(lines[1:], expected)):
        reason = vector_mismatch(model, line.split(), want)
        if reason is not None:
            return f"row {i}: {reason}"
    return None


def run_reversible(lines: list, wires: int, bits: int) -> int:
    """Run a classical circuit on a basis index by moving bits directly."""
    values = [(bits >> w) & 1 for w in range(wires)]
    for tokens in lines:
        name, ws = tokens[1], [int(t) for t in tokens[2:]]
        if name == "NOT":
            values[ws[0]] ^= 1
        elif name == "SWAP":
            values[ws[0]], values[ws[1]] = values[ws[1]], values[ws[0]]
        elif name == "FANOUT":
            values[ws[1]] ^= values[ws[0]]
        elif name in ("AND", "OR", "XOR"):
            x, y = values[ws[0]], values[ws[1]]
            values[ws[2]] ^= {"AND": x & y, "OR": x | y, "XOR": x ^ y}[name]
        else:
            raise ValueError(f"unexpected gate {name!r}")
    return sum(v << w for w, v in enumerate(values))


def check_synth_output(table: tuple, out: str) -> str | None:
    """Re-evaluate a synthesized circuit on every input of its truth table."""
    wires = None
    gates = []
    for line in out.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "wires":
            wires = int(tokens[1])
        elif tokens[0] == "gate":
            gates.append(tokens)
        elif tokens[0] == "init" and set(tokens[2]) != {"0"}:
            return "initial ket is not all zeros"
        elif tokens[0] not in ("model", "init"):
            return f"unexpected line {line!r}"
    if wires is None:
        return "no wires directive"
    n = len(table).bit_length() - 1
    for x, want in enumerate(table):
        try:
            got = run_reversible(gates, wires, x) & 1
        except (ValueError, IndexError) as exc:
            return f"circuit does not run: {exc}"
        if got != want:
            return f"input {x:0{n}b} gives {got}, table says {want}"
    return None


def check_verify_output(out: str, expected_cases: dict) -> str | None:
    """Every check reports zero failures and the expected number of cases."""
    seen = {}
    for line in out.splitlines():
        tokens = line.split()
        if len(tokens) != 5 or tokens[1] != "cases" or tokens[3] != "failures":
            return f"unexpected line {line!r}"
        if tokens[4] != "0":
            return f"{tokens[0]} reports {tokens[4]} failures"
        seen[tokens[0]] = int(tokens[2])
    if seen != expected_cases:
        diff = sorted(k for k in expected_cases.keys() | seen.keys()
                      if seen.get(k) != expected_cases.get(k))
        return f"case counts differ from the reference for {diff}"
    return None
