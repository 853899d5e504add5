"""Acceptance suite: one test per criterion, each ending in a PASS line.

Budgets are wall-clock and generous on purpose; exact checks use `==` on
rationals and a 1e-9 componentwise tolerance on complex values.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from fuzzbit.algebra import FUZZ_MV, UnitScalar
from fuzzbit.circuit import composed_operator, parse_circuit, simulate, validate
from fuzzbit.linalg import (
    SMatrix,
    SVector,
    basis_vector,
    equal,
    identity,
    kron_mat,
    kron_vec,
    mat_mul,
    mat_vec,
    serialize_matrix,
)
from fuzzbit.models import VectorState, builtin_gate
from fuzzbit.models.classical import (
    TruthTable,
    circuit_truth_table,
    permutation_from_matrix,
    permutation_violation,
    reversible_embed,
    synthesize_circuit,
)
from fuzzbit.models.fuzzy import complement, fuzzy_state_violation
from fuzzbit.models.quantum import measure, splitmix64, state_norm_violation, unitary_violation
from fuzzbit.models.stochastic import stochastic_violation
from fuzzbit.verify import check_oracle_agreement, grid_values, run_all

U = UnitScalar


def fvec(*xs):
    return SVector(FUZZ_MV, tuple(U(x) for x in xs))


def quantum_gate(name):
    return builtin_gate("quantum", name).matrix


def report(n, message):
    print(f"criterion {n}: PASS - {message}")


def test_criterion_1_golden_values():
    start = time.perf_counter()
    assert basis_vector(FUZZ_MV, 4, 0b00) == fvec(0, 1, 1, 1)
    assert basis_vector(FUZZ_MV, 4, 0b01) == fvec(1, 0, 1, 1)
    assert basis_vector(FUZZ_MV, 4, 0b10) == fvec(1, 1, 0, 1)
    assert basis_vector(FUZZ_MV, 4, 0b11) == fvec(1, 1, 1, 0)

    perm = permutation_from_matrix(builtin_gate("classical", "CNOT").matrix)
    assert perm[2] == 3 and perm[3] == 2
    cnot_q = quantum_gate("CNOT")
    assert mat_vec(cnot_q, SVector(cnot_q.instance, (0j, 0j, 1 + 0j, 0j))).entries \
        == (0j, 0j, 0j, 1 + 0j)

    ident = identity(FUZZ_MV, 2)
    assert ident.entries == ((U(0), U(1)), (U(1), U(0)))
    j = builtin_gate("fuzzy", "FNOT").matrix
    assert mat_mul(j, j) == ident

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"golden values exact in {elapsed:.3f}s")


def test_criterion_2_law_suite_budgets():
    start = time.perf_counter()
    standard = run_all("standard")
    standard_elapsed = time.perf_counter() - start
    for r in standard:
        assert r.failures == [], f"{r.name} failed: {r.failures[:2]}"
    names = {r.name for r in standard}
    assert {"semiring-axioms-fuzz-mv", "semiring-axioms-max-min",
            "semiring-axioms-viterbi", "semiring-axioms-boolean",
            "mv-gate-laws-2", "action-laws-2", "tensor-laws",
            "stochastic-semigroup"} <= names
    # `verify --grid standard` prints these case counts, in run_all's order
    assert [r.cases for r in standard] == [1449, 1449, 1449, 44, 9855241, 197801,
                                           440301, 300000, 24672, 2404, 10000]
    assert standard_elapsed < 300.0

    start = time.perf_counter()
    coarse = run_all("coarse")
    coarse_elapsed = time.perf_counter() - start
    assert all(r.failures == [] for r in coarse)
    assert coarse_elapsed < 10.0
    report(2, f"standard {standard_elapsed:.1f}s, coarse {coarse_elapsed:.1f}s, 0 failures")


def test_criterion_3_oracle_agreement():
    r = check_oracle_agreement(grid_values("standard"))
    assert r.cases == 10000
    assert r.failures == []
    report(3, "10^4 enumerated triples agree bit for bit")


def test_criterion_4_synthesis_exhaustive():
    start = time.perf_counter()
    checked = 0
    for n in (1, 2, 3):
        for code in range(1 << (1 << n)):
            bits = tuple((code >> i) & 1 for i in range(1 << n))
            table = TruthTable(n, 1, bits)
            circ = synthesize_circuit(table)
            assert circuit_truth_table(circ) == table
            embed = reversible_embed(table)
            assert permutation_violation(embed) is None
            perm = permutation_from_matrix(embed)
            assert all(perm[perm[i]] == i for i in range(len(perm)))
            for x in range(1 << n):
                assert perm[2 * x] == 2 * x + bits[x]
            checked += 1
    # one matrix-level self-inverse spot check on top of the permutation check
    embed = reversible_embed(TruthTable(2, 1, (0, 1, 1, 0)))
    assert mat_mul(embed, embed) == identity(embed.instance, 8)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert checked == 4 + 16 + 256
    report(4, f"{checked} tables synthesized and embedded in {elapsed:.1f}s")


def test_criterion_5_quantum_desk_checks():
    for name in ("H", "X", "Z", "CNOT"):
        assert unitary_violation(quantum_gate(name)) is None

    count = 0
    for k in range(1000):
        t1 = splitmix64(2 * k) / 2.0 ** 64
        t2 = splitmix64(2 * k + 1) / 2.0 ** 64
        t3 = splitmix64(2 * k + 1_000_000) / 2.0 ** 64
        t4 = splitmix64(2 * k + 1_000_001) / 2.0 ** 64
        a = SVector(quantum_gate("H").instance,
                    (complex(math.cos(math.pi * t1)),
                     complex(math.cos(2 * math.pi * t2), math.sin(2 * math.pi * t2))
                     * math.sin(math.pi * t1)))
        b = SVector(a.instance,
                    (complex(math.cos(math.pi * t3)),
                     complex(math.cos(2 * math.pi * t4), math.sin(2 * math.pi * t4))
                     * math.sin(math.pi * t3)))
        assert state_norm_violation(a) is None and state_norm_violation(b) is None
        assert state_norm_violation(kron_vec(a, b)) is None
        count += 1
    assert count == 1000

    h, z, x = quantum_gate("H"), quantum_gate("Z"), quantum_gate("X")
    assert equal(mat_mul(mat_mul(h, z), h), x)

    plus = VectorState("quantum", mat_vec(h, SVector(h.instance, (1 + 0j, 0j))))
    zeros = sum(1 for seed in range(10000) if measure(plus, seed) == 0)
    frequency = zeros / 10000
    assert 0.485 <= frequency <= 0.515
    report(5, f"unitarity, kron norms, HZH=X, H|0> frequency {frequency:.4f}")


def _fuzzy_gate_pool(tmp_path):
    """Deterministic pool of grid gates: builtins plus matrix files on disk."""
    grid = (U(0), U(1, 2), U(1))
    columns = [(a, b) for a in grid for b in grid if U(0) in (a, b)]
    gates = [((c0[0], c1[0]), (c0[1], c1[1])) for c0 in columns for c1 in columns]
    picks = (1, 3, 7, 11, 17, 22)
    singles = ["FID", "FNOT", "FZERO"]
    for idx, k in enumerate(picks):
        m = SMatrix(FUZZ_MV, gates[k])
        name = f"s{idx}.mat"
        (tmp_path / name).write_text(serialize_matrix(m))
        singles.append(f"@{name}")
    wide = kron_mat(SMatrix(FUZZ_MV, gates[3]), SMatrix(FUZZ_MV, gates[7]))
    (tmp_path / "w0.mat").write_text(serialize_matrix(wide))
    doubles = ["FSWAP", "@w0.mat"]
    return singles, doubles


def _program_corpus(tmp_path):
    singles, doubles = _fuzzy_gate_pool(tmp_path)
    inits = {
        1: ["init ket 0", "init ket 1", "init vec 0 1/2", "init vec 1 1",
            "init vec 1/2 0"],
        2: ["init ket 00", "init ket 01", "init ket 10", "init ket 11",
            "init vec 0 1/2 1 1", "init vec 1 1 1 1"],
        3: ["init ket 000", "init ket 101", "init ket 011", "init ket 111",
            "init vec 0 1/2 1 1 1/2 1 1 1"],
    }
    placements = {
        1: [(g, (0,)) for g in singles],
        2: [(g, (w,)) for g in singles for w in (0, 1)]
           + [(g, p) for g in doubles for p in ((0, 1), (1, 0))],
        3: [(g, (w,)) for g in singles for w in (0, 1, 2)]
           + [(g, p) for g in doubles for p in ((0, 1), (1, 2), (2, 1))],
    }
    quotas = {1: 30, 2: 40, 3: 30}
    programs = []
    for wires, quota in quotas.items():
        options = placements[wires]
        combos = itertools.chain.from_iterable(
            itertools.product(range(len(options)), repeat=length)
            for length in (1, 2, 3, 4))
        taken = itertools.islice(combos, quota)
        for which, choice in enumerate(taken):
            init = inits[wires][which % len(inits[wires])]
            lines = [f"model fuzzy", f"wires {wires}", init]
            for idx in choice:
                gate, targets = options[idx]
                lines.append(f"gate {gate} {' '.join(map(str, targets))}")
            programs.append("\n".join(lines) + "\n")
    return programs


def test_criterion_6_simulator_matches_operator(tmp_path):
    programs = _program_corpus(tmp_path)
    assert len(programs) == 100
    for text in programs:
        vc = validate(parse_circuit(text), base_dir=tmp_path)
        trace = simulate(vc)
        operator = composed_operator(vc)
        assert trace.final.vector == mat_vec(operator, vc.initial.vector), text
        for state in trace.states:
            assert fuzzy_state_violation(state.vector) is None, text
    report(6, "100 enumerated fuzzy programs agree with their composed operators")


def test_criterion_7_documented_counterexamples():
    nonmember = complement(fvec(0, "1/2"))
    assert nonmember == fvec(1, "1/2")
    assert fuzzy_state_violation(nonmember) is not None
    with pytest.raises(Exception):
        VectorState("fuzzy", nonmember)

    m = ((Fraction(9, 10), Fraction(2, 10)), (Fraction(1, 10), Fraction(8, 10)))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert det != 0
    inv_entries = ((m[1][1] / det, -m[0][1] / det), (-m[1][0] / det, m[0][0] / det))
    from fuzzbit.algebra import PROBABILITY
    assert inv_entries == ((Fraction(8, 7), Fraction(-2, 7)), (Fraction(-1, 7), Fraction(9, 7)))
    with pytest.raises(ValueError):  # negative entries: no probability matrix
        SMatrix(PROBABILITY, inv_entries)
    inv = SMatrix.over(PROBABILITY, ((8, -2), (-1, 9)), 7)
    product = mat_mul(SMatrix(PROBABILITY, m), inv)
    assert product.entries == ((1, 0), (0, 1))
    assert stochastic_violation(inv) is not None
    report(7, "complement non-closure and non-stochastic inverse exhibited")
