"""Scalar connectives, semiring instances, and the literal grammar."""

from fractions import Fraction

import pytest

from fuzzbit.algebra import (
    BOOLEAN,
    FUZZ_MV,
    MAX_MIN,
    ONE,
    VITERBI,
    ZERO,
    UnitScalar,
    format_complex,
    format_complex_exact,
    format_ratio,
    make_instance,
    neg,
    odot,
    oplus,
    parse_complex_scalar,
    parse_nonneg_ratio,
    parse_unit_ratio,
    vee,
    wedge,
)
from fuzzbit.errors import ParseError
from test_linalg import SCALAR_OPS

U = UnitScalar
GRID = [U(0), U(1, 4), U(1, 3), U(1, 2), U(2, 3), U(3, 4), U(1)]


def test_unit_scalar_bounds():
    assert U(1, 2) == Fraction(1, 2)
    assert U("0.25") == Fraction(1, 4)
    with pytest.raises(ValueError):
        U(3, 2)
    with pytest.raises(ValueError):
        U(-1, 4)


def test_connective_values():
    assert oplus(U(1, 2), U(3, 4)) == 1
    assert oplus(U(1, 4), U(1, 4)) == U(1, 2)
    assert odot(U(1, 2), U(3, 4)) == U(1, 4)
    assert odot(U(1, 4), U(1, 4)) == 0
    assert wedge(U(1, 3), U(1, 2)) == U(1, 3)
    assert vee(U(1, 3), U(1, 2)) == U(1, 2)
    assert neg(U(1, 3)) == U(2, 3)
    assert neg(neg(U(1, 4))) == U(1, 4)


def test_mv_interplay_on_grid():
    # x (.) (~x (+) y) = x /\ y, and (+) distributes over /\
    for x in GRID:
        for y in GRID:
            assert odot(x, oplus(neg(x), y)) == wedge(x, y)
            for z in GRID:
                assert oplus(x, wedge(y, z)) == wedge(oplus(x, y), oplus(x, z))


def test_instance_identities_by_role():
    assert FUZZ_MV.zero == ONE and FUZZ_MV.one == ZERO
    assert MAX_MIN.zero == ZERO and MAX_MIN.one == ONE
    for s in (FUZZ_MV, MAX_MIN, VITERBI, BOOLEAN):
        add, mul = SCALAR_OPS[s.name]
        for x in GRID:
            assert add(s.zero, x) == x and mul(s.one, x) == x and mul(s.zero, x) == s.zero
    fuzz_add, fuzz_mul = SCALAR_OPS["fuzz-mv"]
    assert fuzz_add(U(1, 2), U(3, 4)) == U(1, 2)
    assert fuzz_mul(U(1, 2), U(3, 4)) == 1
    assert SCALAR_OPS["viterbi"][1](U(1, 2), U(1, 2)) == U(1, 4)
    assert SCALAR_OPS["boolean"][0](ZERO, ONE) == ONE


def test_instance_registry_and_equality():
    assert make_instance("fuzz-mv") is FUZZ_MV
    assert make_instance("boolean") == BOOLEAN
    assert hash(make_instance("viterbi")) == hash(VITERBI)
    with pytest.raises(ValueError):
        make_instance("tropical")


def test_parse_unit_ratio():
    assert parse_unit_ratio("3/4") == (3, 4)
    assert parse_unit_ratio("0.25") == (1, 4)
    assert parse_unit_ratio("1") == (1, 1)
    assert parse_unit_ratio("0") == (0, 1)
    for bad in ("5/4", "1/0", "-1/4", "abc", "0.2.3", "1 /2", ""):
        with pytest.raises(ParseError):
            parse_unit_ratio(bad)


def test_parse_nonneg_ratio():
    assert parse_nonneg_ratio("7/2") == (7, 2)
    assert parse_nonneg_ratio("2.5") == (5, 2)
    with pytest.raises(ParseError):
        parse_nonneg_ratio("-1")


def test_parse_complex_scalar():
    assert parse_complex_scalar("1") == 1 + 0j
    assert parse_complex_scalar("-0.5") == -0.5 + 0j
    assert parse_complex_scalar("2i") == 2j
    assert parse_complex_scalar("1-2i") == 1 - 2j
    assert parse_complex_scalar("-1.5e-3") == complex(-0.0015)
    assert parse_complex_scalar("0.5+0.5i") == 0.5 + 0.5j
    for bad in ("i", "-i", "1+", "1+i", "2j", "1 + 2i", ""):
        with pytest.raises(ParseError):
            parse_complex_scalar(bad)


def test_format_ratio_round_trip():
    # a numerator over any multiple of its denominator writes the value's literal
    for x in GRID:
        for k in (1, 6):
            n, d = x.numerator * k, x.denominator * k
            assert U(*parse_unit_ratio(format_ratio(n, d))) == x
            assert FUZZ_MV.format(n, d) == format_ratio(n, d)


def test_format_complex_significant_digits():
    assert format_complex(complex(0.7071067811865476)) == "0.707106781187"
    assert format_complex(complex(0.0, -0.5)) == "-0.5i"
    assert format_complex(complex(1.0, 2.0)) == "1+2i"
    assert format_complex(complex(0.0)) == "0"


def test_format_complex_exact_round_trip():
    for z in (0.1 + 0.2j, complex(2 ** -52, -(2 ** 0.5)), 1e-300 + 0j, -0.0 + 1j):
        assert parse_complex_scalar(format_complex_exact(z)) == z
