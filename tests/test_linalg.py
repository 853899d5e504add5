"""Generic semiring vectors/matrices and the matrix text format."""

import fractions
import functools
import math
import operator
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzbit.algebra import (
    BOOLEAN, COMPLEX, FUZZ_MV, MAX_MIN, PROBABILITY, VITERBI, UnitScalar, make_instance, oplus,
    vee, wedge)
from fuzzbit.circuit import _bound_matrix, parse_circuit
from fuzzbit.models import MODELS
from fuzzbit.errors import ParseError
from fuzzbit.linalg import (
    SMatrix,
    SVector,
    _require_same_instance,
    as_vector,
    basis_vector,
    equal,
    identity,
    kron_mat,
    kron_vec,
    mat_mul,
    mat_vec,
    mat_vec_block,
    matrix_from_permutation,
    parse_matrix_text,
    serialize_matrix,
    zeros,
)

U = UnitScalar


def fvec(*xs):
    return SVector(FUZZ_MV, tuple(U(x) for x in xs))


def fmat(rows):
    return SMatrix(FUZZ_MV, tuple(tuple(U(x) for x in row) for row in rows))


def test_container_validation():
    with pytest.raises(ValueError):
        SMatrix(FUZZ_MV, ((U(0),), (U(0), U(1))))
    with pytest.raises(ValueError):
        SMatrix(FUZZ_MV, ())
    m = fmat([[0, 1], [1, 0]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.column(1) == (U(1), U(0))
    assert len(fvec(0, 1)) == 2


# Both constructors of each class refuse an empty value, over an exact and an
# inexact carrier alike.
@pytest.mark.parametrize("s", [FUZZ_MV, PROBABILITY, COMPLEX], ids=lambda s: s.name)
def test_an_empty_vector_or_matrix_is_refused(s):
    for make in (lambda: SVector(s, ()), lambda: SVector.over(s, (), 1)):
        with pytest.raises(ValueError, match="empty vector"):
            make()
    for make in (lambda: SMatrix(s, ()), lambda: SMatrix.over(s, (), 1),
                 lambda: SMatrix.over(s, ((),), 1)):
        with pytest.raises(ValueError, match="empty matrix"):
            make()


# Each exact carrier's constructor refuses an entry outside the carrier, just
# past its bound, and holds one on the bound.
@pytest.mark.parametrize("s, outside, bound", [
    (FUZZ_MV, Fraction(3, 2), Fraction(1)),
    (MAX_MIN, Fraction(-1, 2), Fraction(0)),
    (VITERBI, Fraction(7, 6), Fraction(1)),
    (BOOLEAN, Fraction(2), Fraction(1)),
    (PROBABILITY, Fraction(-1, 3), Fraction(0)),
], ids=["fuzz-mv", "max-min", "viterbi", "boolean", "probability"])
def test_the_constructor_refuses_an_entry_outside_the_carrier(s, outside, bound):
    with pytest.raises(ValueError):
        SVector(s, (Fraction(1, 2), outside))
    with pytest.raises(ValueError):
        SMatrix(s, ((Fraction(1, 2),), (outside,)))
    held = SVector(s, (Fraction(1, 2), bound))
    assert (held.numerators, held.scale) == ((1, 2 * bound), 2)
    assert held.entries == (Fraction(1, 2), bound)


def test_identity_is_role_based():
    # fuzz-mv: one = 0 on the diagonal, zero = 1 elsewhere
    assert identity(FUZZ_MV, 2) == fmat([[0, 1], [1, 0]])
    assert identity(BOOLEAN, 2).entries == ((U(1), U(0)), (U(0), U(1)))
    assert zeros(FUZZ_MV, 2) == fmat([[1, 1], [1, 1]])


@pytest.mark.parametrize("s", [FUZZ_MV, BOOLEAN, PROBABILITY, COMPLEX], ids=lambda s: s.name)
def test_basis_vector_is_the_identity_column(s):
    for j in range(4):
        assert basis_vector(s, 4, j) == SVector(s, identity(s, 4).column(j))
    for index in (-1, 4):
        with pytest.raises(ValueError):
            basis_vector(s, 4, index)


# Every registered carrier.  The role-based
# constructors build over the numerators of `one` and `zero` at scale 1, read
# when the instance was built, so building one and reading its numerators
# and scale enters no `fractions.py` code, and its entries are the roles.
@pytest.mark.parametrize("s", [FUZZ_MV, MAX_MIN, VITERBI, BOOLEAN, PROBABILITY, COMPLEX],
                         ids=lambda s: s.name)
def test_role_constructors_build_over_numerators_at_scale_1(s):
    one, zero = s.one, s.zero
    perm = (2, 0, 3, 1)
    cases = [
        (lambda: matrix_from_permutation(perm, s),
         SMatrix(s, [[one if perm[j] == i else zero for j in range(4)] for i in range(4)])),
        (lambda: identity(s, 4),
         SMatrix(s, [[one if i == j else zero for j in range(4)] for i in range(4)])),
        (lambda: zeros(s, 3), SMatrix(s, [[zero] * 3] * 3)),
        (lambda: basis_vector(s, 4, 2), SVector(s, [zero, zero, one, zero])),
    ]
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            entered.append(frame.f_code.co_name)

    for make, expected in cases:
        sys.setprofile(profile)
        try:
            value = make()
            numerators, scale = value.numerators, value.scale
        finally:
            sys.setprofile(None)
        assert entered == [] and scale == 1
        assert value == expected and hash(value) == hash(expected)
        assert numerators == expected.numerators


def test_fuzzy_matrix_product():
    ident = identity(FUZZ_MV, 2)
    j = fmat([[1, 0], [0, 1]])
    assert mat_mul(j, j) == ident
    assert mat_mul(ident, j) == j
    a = fmat([["3/10", 1], [0, 0]])
    # entries recomputed by hand: min over k of (a_ik + b_kj), capped at 1
    assert mat_vec(a, fvec(0, "1/2")) == fvec("3/10", 0)
    assert mat_vec(fmat([[1, 1], [1, 1]]), fvec(0, "3/4")) == fvec(1, 1)


def test_probability_product():
    m = SMatrix(PROBABILITY, ((Fraction(9, 10), Fraction(2, 10)),
                              (Fraction(1, 10), Fraction(8, 10))))
    v = SVector(PROBABILITY, (Fraction(1), Fraction(0)))
    assert mat_vec(m, v).entries == (Fraction(9, 10), Fraction(1, 10))
    two = mat_mul(m, m)
    assert two.entries[0][0] == Fraction(83, 100)


def test_kron_vec_layout():
    # first factor is most significant
    u = SVector(PROBABILITY, (Fraction(2), Fraction(3)))
    v = SVector(PROBABILITY, (Fraction(5), Fraction(7)))
    assert kron_vec(u, v).entries == (10, 14, 15, 21)
    assert kron_vec(fvec(0, 1), fvec(1, 0)) == fvec(1, 0, 1, 1)
    assert kron_vec(fvec(0, "1/2"), fvec(0, "1/3")) == fvec(0, "1/3", "1/2", "5/6")


def test_kron_mat():
    ident = identity(FUZZ_MV, 2)
    assert kron_mat(ident, ident) == identity(FUZZ_MV, 4)
    a = fmat([[0, "1/2"], [1, 0]])
    b = fmat([[0, 1], ["1/4", 0]])
    left = mat_mul(kron_mat(a, b), kron_mat(ident, b))
    right = kron_mat(mat_mul(a, ident), mat_mul(b, b))
    assert left == right


def test_mat_vec_block_equals_the_padded_product():
    a = fmat([[0, "1/2"], [1, 0]])
    v = fvec(0, "1/4", 1, "3/4", "1/2", 1, "1/3", "2/3")
    for base in range(3):
        padded = kron_mat(identity(FUZZ_MV, 1 << (2 - base)),
                          kron_mat(a, identity(FUZZ_MV, 1 << base)))
        assert mat_vec_block(a, base, v) == mat_vec(padded, v)
    with pytest.raises(ValueError):
        mat_vec_block(a, 3, v)


def test_equal_tolerance_is_complex_only():
    a = SMatrix(COMPLEX, ((complex(1), complex(0)), (complex(0), complex(1))))
    b = SMatrix(COMPLEX, ((complex(1 + 1e-12), complex(0)), (complex(0), complex(1))))
    c = SMatrix(COMPLEX, ((complex(1 + 1e-6), complex(0)), (complex(0), complex(1))))
    assert equal(a, b)
    assert not equal(a, c)
    assert not equal(fmat([[0, 1], [1, 0]]), fmat([[0, 1], [1, "1/2"]]))


def test_equal_refuses_another_instance_kind_or_shape():
    v = fvec(0, 1)
    assert equal(v, fvec(0, 1))
    assert not equal(v, SVector(MAX_MIN, (U(0), U(1))))
    assert not equal(v, fmat([[0, 1]]))
    # the entries agree as far as both go: only the shape tells them apart
    assert not equal(v, fvec(0, 1, 1))
    assert not equal(fmat([[0, 1]]), fmat([[0], [1]]))


def test_values_compare_only_with_their_own_kind_and_show_their_entries():
    v, m = fvec(0, "1/2"), fmat([[0, "1/2"]])
    assert v.__eq__(m) is NotImplemented and m.__eq__(v) is NotImplemented
    assert v != m and v != (U(0), U("1/2"))
    assert repr(v) == "SVector(SemiringInstance('fuzz-mv'), (UnitScalar(0, 1), UnitScalar(1, 2)))"
    assert repr(m) == ("SMatrix(SemiringInstance('fuzz-mv'), "
                       "((UnitScalar(0, 1), UnitScalar(1, 2)),))")


def test_the_kernels_refuse_operands_that_do_not_fit():
    a = fmat([[0, 1], [1, 0]])
    assert _require_same_instance(a, fvec(0, 1)) is FUZZ_MV
    with pytest.raises(ValueError, match="^instance mismatch: fuzz-mv vs probability$"):
        _require_same_instance(a, identity(PROBABILITY, 2))
    with pytest.raises(ValueError, match="^inner dimension mismatch: 2 vs 1$"):
        mat_mul(a, fmat([[0, 1]]))
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        mat_vec(a, fvec(0, 1, 1))
    for perm in ([0, 0], [1, 2], [2, 0, 2]):
        with pytest.raises(ValueError, match="^not a permutation$"):
            matrix_from_permutation(perm, FUZZ_MV)


def test_parse_matrix_text():
    m = parse_matrix_text("instance fuzz-mv 2 2\n0 1\n1 0\n")
    assert m == identity(FUZZ_MV, 2)
    v = parse_matrix_text("instance complex 1 2\n0.5+0.5i -1i\n")
    assert v.entries == ((0.5 + 0.5j, -1j),)
    # comments/blank lines are not part of this format; positions are reported
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix_text("instance nope 2 2\n0 1\n1 0\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_matrix_text("instance fuzz-mv 2 2\n0 1\n1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_matrix_text("instance fuzz-mv 2 2\n0 x\n1 0\n")
    with pytest.raises(ParseError):
        parse_matrix_text("instance fuzz-mv 2 2\n0 1\n")
    with pytest.raises(ParseError):
        parse_matrix_text("")


def test_serialize_round_trip():
    # one matrix per carrier; 7/2 is a probability literal but no unit scalar
    for m in (identity(FUZZ_MV, 2),
              fmat([[0, "1/2", 1], ["2/3", 0, "3/4"]]),
              identity(BOOLEAN, 2),
              SMatrix(MAX_MIN, ((U(1, 3), U(1)), (U(0), U(5, 7)))),
              SMatrix(VITERBI, ((U(9, 10), U(1, 10)),)),
              SMatrix(PROBABILITY, ((Fraction(7, 2), Fraction(0)),
                                    (Fraction(1, 3), Fraction(12)))),
              SMatrix(COMPLEX, ((0.1 + 0.2j, complex(2 ** 0.5) / 2),
                                (complex(-0.0), 1e-17 - 1j)))):
        again = parse_matrix_text(serialize_matrix(m))
        assert again.instance == m.instance
        assert again.entries == m.entries


def test_as_vector():
    row = parse_matrix_text("instance fuzz-mv 1 3\n0 1 1\n")
    col = parse_matrix_text("instance fuzz-mv 3 1\n0\n1\n1\n")
    assert as_vector(row) == as_vector(col) == fvec(0, 1, 1)
    with pytest.raises(ValueError):
        as_vector(identity(FUZZ_MV, 2))



# Every registered carrier's literals through the one literal route: a matrix
# file and, for a model's carrier, an `init vec`.  The oracle reads each token
# with `Fraction` or `complex`, not with the package's grammar.
_EXACT_LITERALS = ("0", "1", "1/2", "2/4", "0.25", "3/3")
_LITERALS = {"probability": _EXACT_LITERALS + ("7/2",),
             "complex": ("0", "1", "0.25", "0.5-1.5i")}


@pytest.mark.parametrize("name", ["fuzz-mv", "max-min", "viterbi", "boolean", "probability",
                                  "complex"])
def test_each_carrier_reads_its_literals_through_one_route(name):
    s = make_instance(name)
    tokens = _LITERALS.get(name, _EXACT_LITERALS)
    exact = name != "complex"
    expected = tuple(Fraction(t) if exact else complex(t.replace("i", "j")) for t in tokens)
    text = " ".join(tokens)
    m = parse_matrix_text(f"instance {name} 2 {len(tokens)}\n{text}\n"
                          f"{' '.join(reversed(tokens))}\n")
    assert m.instance == s and m.entries == (expected, expected[::-1])
    vectors = [parse_circuit(f"model {row.name}\nwires 1\ninit vec {text}\n").init_values
               for row in MODELS.values() if row.instance == s]
    for v in vectors:
        assert v.instance == s and v.entries == expected
    if exact:  # held over the lcm of the denominators
        scale = math.lcm(*(x.denominator for x in expected))
        assert m.scale == scale
        assert m.numerators[0] == tuple(x * scale for x in expected)
        for v in vectors:
            assert v.scale == scale and v.numerators == m.numerators[0]
    else:  # complex: its numerators are its entries, at scale 1
        assert m.scale == 1 and m.numerators == m.entries
        assert all(v.scale == 1 and v.numerators == v.entries for v in vectors)


# Each class builds one value from its entries or from numerators over a
# scale.  The oracle is the `Fraction` of each entry; the scale is the lcm of
# their denominators.
_EXACT_INSTANCES = [FUZZ_MV, MAX_MIN, VITERBI, BOOLEAN, PROBABILITY]


def _reindexed(rows, targets):
    """rows[rho(r)][rho(c)], where gate bit k - 1 - i reads window bit targets[i]."""
    k = len(targets)
    rho = [sum(((x >> w) & 1) << (k - 1 - i) for i, w in enumerate(targets))
           for x in range(1 << k)]
    return tuple(tuple(rows[r][c] for c in rho) for r in rho)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), instance=st.sampled_from(_EXACT_INSTANCES),
       targets=st.permutations(range(2)))
def test_an_exact_value_is_one_value_from_either_form(data, instance, targets):
    top = 3 if instance == PROBABILITY else 1
    rows = data.draw(st.lists(st.lists(
        st.fractions(min_value=0, max_value=top, max_denominator=40), min_size=4, max_size=4),
        min_size=4, max_size=4))
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    numerators = tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows)
    oracle = tuple(map(tuple, rows))

    def from_entries():
        return SMatrix(instance, [[instance.from_ratio(x.numerator, x.denominator) for x in row]
                                  for row in rows])

    def held():
        return SMatrix.over(instance, numerators, scale)

    a, b = from_entries(), held()
    assert a == b and b == a and hash(a) == hash(b)
    assert from_entries().numerators == numerators and from_entries().scale == scale
    assert held().entries == oracle
    assert all(type(x) is type(instance.one) for row in held().entries for x in row)
    assert (a.rows, a.cols) == (b.rows, b.cols) == (4, 4)

    row_scale = math.lcm(*(x.denominator for x in rows[0]))
    column = [[x.numerator * (row_scale // x.denominator)] for x in rows[0]]
    for v in (as_vector(SMatrix(instance, [[x] for x in from_entries().entries[0]])),
              as_vector(SMatrix.over(instance, column, row_scale))):
        assert v == SVector(instance, from_entries().entries[0]) and len(v) == 4
        assert v.entries == oracle[0]
        assert (v.numerators, v.scale) == (tuple(x for x, in column), row_scale)

    bound = [_bound_matrix(SimpleNamespace(arity=2, matrix=m), targets)
             for m in (from_entries(), held())]
    assert bound[0] == bound[1]
    assert bound[0].entries == bound[1].entries == _reindexed(oracle, targets)
    assert bound[1].numerators == _reindexed(numerators, targets) and bound[1].scale == scale


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_an_inexact_value_is_its_own_numerators_at_scale_1(data):
    instance = COMPLEX
    scalars = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)
    values = tuple(tuple(data.draw(st.lists(scalars, min_size=4, max_size=4)))
                   for _ in range(4))
    v, m = SVector(instance, values[0]), SMatrix(instance, values)
    assert (v.scale, v.numerators) == (1, values[0])
    assert (m.scale, m.numerators) == (1, values)
    assert SVector.over(instance, values[0], 1) == v
    assert SMatrix.over(instance, values, 1) == m
    assert as_vector(SMatrix(instance, [[x] for x in values[0]])) == v
    bound = _bound_matrix(SimpleNamespace(arity=2, matrix=m), (1, 0))
    assert bound.scale == 1 and bound.entries == bound.numerators == _reindexed(values, (1, 0))


# --- the kernels against an entrywise reference ---------------------------------
#
# The kernels compute on numerators under each carrier's `scaled` rule.  The
# reference below folds each carrier's scalar add and mul over entries
# instead, from this table by instance name, not from the instance it checks.

SCALAR_OPS = {
    "fuzz-mv": (wedge, oplus),
    "max-min": (vee, wedge),
    "boolean": (vee, wedge),
    "viterbi": (vee, operator.mul),
    "probability": (operator.add, operator.mul),
    "complex": (operator.add, operator.mul),
}


def _fold(s, pairs):
    add, mul = SCALAR_OPS[s.name]
    return functools.reduce(add, (mul(x, y) for x, y in pairs))


def entrywise_mat_mul(s, a, b):
    return tuple(tuple(_fold(s, zip(row, col)) for col in zip(*b)) for row in a)


def entrywise_mat_vec(s, a, v):
    return tuple(_fold(s, zip(row, v)) for row in a)


def entrywise_kron_vec(s, u, v):
    mul = SCALAR_OPS[s.name][1]
    return tuple(mul(x, y) for x in u for y in v)


def entrywise_kron_mat(s, a, b):
    return tuple(entrywise_kron_vec(s, arow, brow) for arow in a for brow in b)


def entrywise_block(s, a, base, v):
    """mat_vec_block(a, base, v) on entries: entry i folds the terms
    mul(a[r][c], v[j]) over c, where r is i's window of bits from `base` on
    and j is i with that window set to c."""
    size = len(a)
    mask = (size - 1) << base
    return tuple(_fold(s, ((a[(i & mask) >> base][c], v[(i & ~mask) | (c << base)])
                           for c in range(size)))
                 for i in range(len(v)))


# Scales that are coprime, that divide one another and that share a factor,
# so that the shared rule meets lcms of every kind and the product rule grows.
_SCALES = (1, 2, 3, 4, 7, 9)
_COMPLEX_VALUES = (0j, 1 + 0j, -0.5 + 0.25j, 0.75j, 2 - 1j)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), s=st.sampled_from([FUZZ_MV, MAX_MIN, VITERBI, BOOLEAN, PROBABILITY,
                                          COMPLEX]),
       held_first=st.booleans())
def test_each_kernel_matches_the_entrywise_reference(data, s, held_first):
    def numerators(count):
        if s == COMPLEX:
            return data.draw(st.lists(st.sampled_from(_COMPLEX_VALUES),
                                      min_size=count, max_size=count)), 1
        scale = data.draw(st.sampled_from(_SCALES))
        if s == BOOLEAN:  # the entries 0 and 1, over any scale
            values = st.sampled_from((0, scale))
        else:  # probability entries may pass 1
            values = st.integers(0, 2 * scale if s == PROBABILITY else scale)
        return data.draw(st.lists(values, min_size=count, max_size=count)), scale

    def entry(x, scale):
        return x if s.from_ratio is None else s.from_ratio(x, scale)

    def matrix(held):
        values, scale = numerators(4)
        rows = (values[:2], values[2:])
        if held:
            return SMatrix.over(s, rows, scale)
        return SMatrix(s, [[entry(x, scale) for x in row] for row in rows])

    def vector(size, held):
        values, scale = numerators(size)
        if held:
            return SVector.over(s, values, scale)
        return SVector(s, [entry(x, scale) for x in values])

    a, u = matrix(held_first), vector(2, held_first)
    b, v, w = matrix(not held_first), vector(2, not held_first), vector(4, not held_first)
    same = equal if s == COMPLEX else operator.eq
    checks = [
        (mat_mul(a, b), SMatrix(s, entrywise_mat_mul(s, a.entries, b.entries))),
        (kron_mat(a, b), SMatrix(s, entrywise_kron_mat(s, a.entries, b.entries))),
        (mat_vec(a, u), SVector(s, entrywise_mat_vec(s, a.entries, u.entries))),
        (kron_vec(u, v), SVector(s, entrywise_kron_vec(s, u.entries, v.entries))),
        *((mat_vec_block(a, base, w), SVector(s, entrywise_block(s, a.entries, base, w.entries)))
          for base in (0, 1)),
    ]
    for got, expected in checks:
        assert got.instance == s and same(got, expected)
