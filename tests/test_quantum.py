"""State vectors, the four builtin unitaries, and seeded measurement."""

import cmath
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuzzbit.algebra import COMPLEX, COMPLEX_TOL
from fuzzbit.errors import MembershipError
from fuzzbit.linalg import (
    SMatrix, SVector, equal, kron_mat, kron_vec, mat_mul, mat_vec, mat_vec_block)
from fuzzbit.models import VectorState, builtin_gate, gate_violation
from fuzzbit.models.quantum import (
    compounded,
    measure,
    splitmix64,
    state_norm_violation,
    unitary_violation,
)

R2 = 1.0 / math.sqrt(2.0)


def qvec(*xs):
    return SVector(COMPLEX, tuple(complex(x) for x in xs))


def quantum_gate(name):
    return builtin_gate("quantum", name).matrix


def test_builtin_gates_are_unitary():
    for name in ("X", "H", "Z", "CNOT"):
        gate = quantum_gate(name)
        assert unitary_violation(gate) is None
    h = quantum_gate("H")
    assert abs(h.entries[0][0] - R2) < COMPLEX_TOL
    assert abs(h.entries[1][1] + R2) < COMPLEX_TOL
    x = quantum_gate("X")
    assert x.entries == ((0j, 1 + 0j), (1 + 0j, 0j))
    cnot = quantum_gate("CNOT")
    assert mat_vec(cnot, qvec(0, 0, 1, 0)).entries == (0j, 0j, 0j, 1 + 0j)
    with pytest.raises(ValueError):
        quantum_gate("Y")


def test_unitary_violation_detects():
    shear = SMatrix(COMPLEX, ((1 + 0j, 1 + 0j), (0j, 1 + 0j)))
    assert unitary_violation(shear) is not None
    assert gate_violation("quantum", SMatrix(COMPLEX, ((1 + 0j, 0j),))) == "not square (1x2)"


def test_hzh_equals_x():
    h, z, x = quantum_gate("H"), quantum_gate("Z"), quantum_gate("X")
    assert equal(mat_mul(mat_mul(h, z), h), x)


def test_state_norm():
    assert state_norm_violation(qvec(1, 0)) is None
    assert state_norm_violation(qvec(0.6, 0.8j)) is None
    assert state_norm_violation(qvec(0.5, 0.5)) is not None
    assert state_norm_violation(qvec(float("nan"), 0)) is not None
    VectorState("quantum", qvec(0.6, 0.8j))
    with pytest.raises(MembershipError):
        VectorState("quantum", qvec(1, 1))


def test_kron_preserves_norm():
    a = VectorState("quantum", qvec(R2, R2))
    b = VectorState("quantum", qvec(0.6, 0.8j))
    prod = kron_vec(a.vector, b.vector)
    assert state_norm_violation(prod) is None


def test_splitmix64_reference_values():
    # frozen from an independent transcription of the published algorithm
    assert splitmix64(0) == 16294208416658607535
    assert splitmix64(1) == 10451216379200822465
    assert splitmix64(2) == 10905525725756348110
    assert splitmix64(42) == 13679457532755275413
    assert splitmix64(2 ** 64 - 1) == 16490336266968443936


def test_measure_deterministic_and_supported():
    plus = VectorState("quantum", qvec(R2, R2))
    assert measure(plus, 7) == measure(plus, 7)
    down = VectorState("quantum", qvec(0, 1))
    assert all(measure(down, seed) == 1 for seed in range(200))
    bell = VectorState("quantum", qvec(R2, 0, 0, R2))
    outcomes = {measure(bell, seed) for seed in range(500)}
    assert outcomes == {0, 3}


def test_measure_frequencies():
    plus = VectorState("quantum", qvec(R2, R2))
    zeros = sum(1 for seed in range(2000) if measure(plus, seed) == 0)
    assert 0.45 <= zeros / 2000 <= 0.55
    skewed = VectorState("quantum", qvec(0.6, 0.8j))
    ones = sum(1 for seed in range(10000) if measure(skewed, seed) == 1)
    assert 0.62 <= ones / 10000 <= 0.66


# --- products of operands accepted within the tolerance ---------------------------

def _stretched_gate(theta, phi, stretch):
    """A rotation by theta with the phase phi on its second column, each
    column j lengthened by the factor 1 + stretch[j]."""
    c, s, p = math.cos(theta), math.sin(theta), cmath.exp(1j * phi)
    columns = ((c, s), (-s * p, c * p))
    return SMatrix(COMPLEX, [[columns[j][i] * (1 + stretch[j]) for j in range(2)]
                             for i in range(2)])


def _stretched_state(theta, stretch):
    return qvec(math.cos(theta) * (1 + stretch), math.sin(theta) * (1 + stretch))


@settings(max_examples=300, deadline=None)
@given(angles=st.lists(st.floats(0, 2 * math.pi), min_size=6, max_size=6),
       stretch=st.lists(st.floats(-4.9e-10, 4.9e-10), min_size=6, max_size=6))
def test_accepted_operands_fail_only_as_far_as_their_deviations_compound(angles, stretch):
    # every operand is accepted, and a product may still fail the tolerance:
    # then `compounded` must say that the operands' deviations explain it
    a = _stretched_gate(angles[0], angles[1], stretch[0:2])
    b = _stretched_gate(angles[2], angles[3], stretch[2:4])
    u, v = _stretched_state(angles[4], stretch[4]), _stretched_state(angles[5], stretch[5])
    uv = kron_vec(u, v)
    assume(all(unitary_violation(g) is None for g in (a, b)))
    assume(all(state_norm_violation(x) is None for x in (u, v, uv)))
    products = [(mat_vec(a, u), (a, u)), (kron_vec(u, v), (u, v)), (kron_mat(a, b), (a, b)),
                *((mat_vec_block(a, base, uv), (a, uv)) for base in (0, 1))]
    for result, operands in products:
        check = state_norm_violation if isinstance(result, SVector) else unitary_violation
        assert check(result) is None or compounded(result, operands)


def test_a_product_far_past_its_operands_deviations_is_not_compounded():
    a = _stretched_gate(0.3, 0.0, (4e-10, 4e-10))
    u = _stretched_state(0.0, 4e-10)
    good = mat_vec(a, u)
    assert compounded(good, (a, u))
    for bad in (qvec(0, 0), SVector(COMPLEX, [x * (1 + 1e-6) for x in good.entries]),
                qvec(math.inf, 0), qvec(math.nan, 0)):
        assert not compounded(bad, (a, u))


# --- independent references: the entry-by-entry predicates that
# `state_norm_violation` and `unitary_violation` replaced ----------------------

def reference_state_norm_violation(v):
    for i, a in enumerate(v.entries):
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            return f"entry {i} is not finite"
    try:
        norm_sq = sum(abs(a) ** 2 for a in v.entries)
    except OverflowError:
        norm_sq = math.inf
    if abs(norm_sq - 1.0) > COMPLEX_TOL:
        return f"squared norm is {norm_sq!r}, expected 1 within {COMPLEX_TOL}"
    return None


def reference_unitary_violation(m):
    n = m.rows
    for i in range(n):
        for j in range(n):
            acc = sum(m.entries[k][i].conjugate() * m.entries[k][j] for k in range(n))
            want = 1.0 if i == j else 0.0
            if abs(acc.real - want) > COMPLEX_TOL or abs(acc.imag) > COMPLEX_TOL:
                return f"columns {i} and {j} are not orthonormal (deviation {abs(acc - want):.3e})"
    return None


ODD_ENTRIES = (math.nan, math.inf, -math.inf, complex(math.nan, math.inf),
               complex(math.inf, math.nan), complex(0, math.nan), 1e200, -1e200j, 1e154)


@settings(max_examples=400, deadline=None)
@given(angles=st.lists(st.floats(0, 2 * math.pi), min_size=1, max_size=16),
       stretch=st.sampled_from((0.0, 4.9e-10, -4.9e-10, 5.1e-10, -5.1e-10, 1e-9, 1e-3)),
       odd=st.lists(st.tuples(st.integers(0, 15), st.sampled_from(ODD_ENTRIES)), max_size=2))
def test_state_norm_violation_matches_the_reference(angles, stretch, odd):
    # a unit vector of 2 to 32 entries, stretched to near the bound, with
    # perhaps a non-finite or overflowing entry in it
    entries = [cmath.rect(math.cos(t), 3 * t) for t in angles] + [
        cmath.rect(math.sin(t), t) for t in angles]
    norm = math.sqrt(sum(abs(a) ** 2 for a in entries)) or 1.0
    entries = [a / norm * (1 + stretch) for a in entries]
    for index, value in odd:
        entries[index % len(entries)] = complex(value)
    v = qvec(*entries)
    assert state_norm_violation(v) == reference_state_norm_violation(v)


@settings(max_examples=300, deadline=None)
@given(angles=st.lists(st.floats(0, 2 * math.pi), min_size=4, max_size=4),
       size=st.sampled_from((2, 4)),
       stretch=st.sampled_from((0.0, 2e-10, -2e-10, 6e-10, 1e-9, 1e-6)),
       at=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       odd=st.sampled_from((None, math.nan, math.inf, complex(math.nan, math.inf))))
def test_unitary_violation_matches_the_reference(angles, size, stretch, at, odd):
    a = _stretched_gate(angles[0], angles[1], (0.0, 0.0)).entries
    b = _stretched_gate(angles[2], angles[3], (0.0, 0.0)).entries
    rows = [list(row) for row in a] if size == 2 else [
        [x * y for x in ra for y in rb] for ra in a for rb in b]
    i, j = at[0] % size, at[1] % size
    rows[i][j] = rows[i][j] * (1 + stretch) if odd is None else complex(odd)
    m = SMatrix(COMPLEX, rows)
    assert unitary_violation(m) == reference_unitary_violation(m)


@pytest.mark.parametrize("rows", [
    ((1.0, 0.0), (0.0, 1.0)),
    ((0, 1), (1, 0)),
    ((1, 1), (0, 1)),
    ((0.6, -0.8), (0.8, 0.6)),
    ((0.6, 0.8), (0.8, 0.6)),
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    ((R2, R2), (R2, -R2)),
    ((R2, 1j * R2), (1, -1j * R2)),
])
def test_unitary_violation_takes_float_and_int_entries(rows):
    m = SMatrix(COMPLEX, rows)
    assert unitary_violation(m) == reference_unitary_violation(m)
