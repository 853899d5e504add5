"""Scalar connectives, semiring instances, and the literal grammar."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# --- independent references: the regex-group parser and the helper-per-part
# printers that `parse_complex_scalar` and `format_complex` replaced ---------

_REF_NUM = r"[+-]?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
_REF_COMPLEX_RE = re.compile(rf"({_REF_NUM})(?:(?=[+-])({_REF_NUM})i)?\Z")
_REF_IMAG_RE = re.compile(rf"({_REF_NUM})i\Z")


def reference_parse_complex(token):
    m = _REF_IMAG_RE.match(token)
    if m is not None:
        z = complex(0.0, float(m.group(1)))
    else:
        m = _REF_COMPLEX_RE.match(token)
        if m is None:
            raise ParseError(f"malformed scalar {token!r}")
        z = complex(float(m.group(1)), float(m.group(2)) if m.group(2) else 0.0)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParseError(f"non-finite scalar {token!r}")
    return z


def _reference_float(v, spec):
    text = repr(v) if spec is None else format(v, spec)
    return "0" if text in ("-0", "0.0", "-0.0") else text


def reference_format_complex(z, spec):
    if abs(z.imag) == 0.0:
        return _reference_float(z.real, spec)
    if abs(z.real) == 0.0:
        return _reference_float(z.imag, spec) + "i"
    im = _reference_float(z.imag, spec)
    sign = "" if im.startswith("-") else "+"
    return f"{_reference_float(z.real, spec)}{sign}{im}i"


def _outcome(parse, token):
    try:
        z = parse(token)
    except Exception as exc:  # noqa: BLE001  the type and text are compared
        return type(exc), str(exc)
    return repr(z.real), repr(z.imag)


EDGE_TOKENS = ("i", "-i", "1+i", "-0i", "-0", "-0-0i", "0-0i", "1e400i", "1e400", "1-1e400i",
               "nan", "inf", "-inf", "infi", "1_0", "\u0663", "1+\u0663i", "+-1", "1+-1i",
               ".5", "5.", " 1", "1 ", "1e5+2i", "1e+5i", "1E-5-2.5e3i", "+1+1i", "2j", "",
               "1e-400", "4.9e-324i", "1.7976931348623157e308", "0.1+0.2i")
_PART = st.builds("".join, st.lists(st.sampled_from(
    ("0", "1", "9", "00", "5", ".", ".5", "e", "E", "e-", "e+3", "+", "-", "400", "_",
     "\u0663", " ")), max_size=5))
COMPLEX_TOKENS = st.one_of(
    st.sampled_from(EDGE_TOKENS),
    st.builds(lambda a, b, i: a + b + i, _PART, _PART, st.sampled_from(("", "i", "j"))),
    st.text(alphabet="0123456789.eE+-ij_ \u0663\u00a0", max_size=12))


@settings(max_examples=600, deadline=None)
@given(COMPLEX_TOKENS)
def test_parse_complex_scalar_matches_the_reference(token):
    assert _outcome(parse_complex_scalar, token) == _outcome(reference_parse_complex, token)


@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_parse_complex_scalar_edge_tokens(token):
    assert _outcome(parse_complex_scalar, token) == _outcome(reference_parse_complex, token)


PARTS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                     1.0, -1.0, 0.1, 1 / 3, math.inf, -math.inf, math.nan)),
    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=600, deadline=None)
@given(PARTS, PARTS)
def test_format_complex_matches_the_reference(x, y):
    z = complex(x, y)
    assert format_complex(z) == reference_format_complex(z, ".12g")
    assert format_complex_exact(z) == reference_format_complex(z, None)
