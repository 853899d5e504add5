"""Exact unit-interval scalars and the semiring instances built on them.

Rational carriers are exact (`fractions.Fraction` underneath); the complex
carrier used by the quantum model is double precision with a fixed
comparison tolerance.  The many-valued connectives on [0, 1] -- truncated
sum, min, max, the Lukasiewicz product and the complement -- are the
paper's scalar operations on `UnitScalar`s.

A semiring instance names its identities by role, not by numeral: in the
fuzz-mv instance addition is min with identity 1 and multiplication is the
truncated sum with identity 0.  It also carries its carrier's text format
and comparison: the literal grammar it parses, the exact literal it writes
to files, the rendering the CLI displays and the tolerance of `equal`.  No
other module decides how a carrier's scalars look as text.
Its `scaled` states how the integer numerators of two operands over scales
combine, which is all that `linalg`'s kernels compute with: the scales
multiply (probability, viterbi, complex) or meet at their lcm (fuzz-mv,
max-min, boolean).  It is the instance's only add and mul, which `verify` checks.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .errors import FuzzbitError, ParseError

__all__ = [
    "COMPLEX_TOL",
    "UnitScalar",
    "ZERO",
    "ONE",
    "oplus",
    "wedge",
    "vee",
    "odot",
    "neg",
    "SemiringInstance",
    "FUZZ_MV",
    "MAX_MIN",
    "VITERBI",
    "BOOLEAN",
    "PROBABILITY",
    "COMPLEX",
    "make_instance",
    "GRID_NAMES",
    "grid_values",
    "parse_nonneg_ratio",
    "parse_unit_ratio",
    "parse_complex_scalar",
    "format_ratio",
    "format_complex",
    "format_complex_exact",
]

# Absolute componentwise tolerance for every complex comparison in the package.
COMPLEX_TOL = 1e-9


class UnitScalar(Fraction):
    """A reduced rational confined to [0, 1]."""

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        if self < 0 or self > 1:
            raise ValueError(f"scalar {self.numerator}/{self.denominator} outside [0, 1]")
        return self


ZERO = UnitScalar(0)
ONE = UnitScalar(1)


def oplus(x: UnitScalar, y: UnitScalar) -> UnitScalar:
    """Truncated sum min(x + y, 1)."""
    s = x + y
    return ONE if s > 1 else UnitScalar(s)


def wedge(x: UnitScalar, y: UnitScalar) -> UnitScalar:
    """Meet min(x, y)."""
    return y if y < x else x


def vee(x: UnitScalar, y: UnitScalar) -> UnitScalar:
    """Join max(x, y)."""
    return x if y < x else y


def odot(x: UnitScalar, y: UnitScalar) -> UnitScalar:
    """Lukasiewicz product max(0, x + y - 1)."""
    s = x + y - 1
    return UnitScalar(s) if s > 0 else ZERO


def neg(x: UnitScalar) -> UnitScalar:
    """Complement 1 - x; an involution."""
    return UnitScalar(1 - x)


# --- scalar literal grammar -------------------------------------------------
#
# Rational literals (all file formats): INTEGER "/" INTEGER | DECIMAL | INTEGER.
# Decimals are read exactly ("0.3" is 3/10).  Complex literals extend this with
# an optional sign, an optional exponent and an "i" suffix: 1, -0.5, 2i, 1-2i.

# [0-9], not \d: \d would admit '١' and '٠', which int() and float() then read
_RATIONAL_RE = re.compile(r"(?:([0-9]+)/([0-9]+)|([0-9]+(?:\.[0-9]+)?))\Z")
_NUM = r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
# a, bi or a+bi; the second part of a+bi carries its sign, and `complex`
# splits a+bj at that sign too, the one sign that follows a digit
_COMPLEX_LITERAL_RE = re.compile(rf"[+-]?{_NUM}(?:(?:[+-]{_NUM})?i)?\Z")
# unsigned integers (matrix dimensions, circuit wires and seeds); str.isdigit
# would admit '²' and '٠'
_UINT_RE = re.compile(r"[0-9]+")


def _uint(token: str, line: int | None = None) -> int:
    """A `_UINT_RE` token as an int; one longer than Python's int-string limit
    is a ParseError at `line`, not a ValueError."""
    try:
        return int(token)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"integer literal of {len(token)} digits is too long", line) from None


def parse_nonneg_ratio(token: str) -> tuple[int, int]:
    """A rational literal, with no upper bound, as (numerator, denominator)
    ints in lowest terms; the one rational grammar every parser below reads."""
    m = _RATIONAL_RE.match(token)
    if m is None:
        raise ParseError(f"malformed scalar {token!r}")
    try:
        if m.group(1) is None:
            whole, _, digits = m.group(3).partition(".")
            denominator = 10 ** len(digits)
            numerator = int(whole) * denominator + (int(digits) if digits else 0)
        else:
            numerator, denominator = int(m.group(1)), int(m.group(2))
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"scalar literal of {len(token)} characters is too long") from None
    if denominator == 0:
        raise ParseError(f"zero denominator in {token!r}")
    g = math.gcd(numerator, denominator)
    return numerator // g, denominator // g


def parse_unit_ratio(token: str) -> tuple[int, int]:
    """A rational literal that must lie in [0, 1], as (numerator, denominator)."""
    numerator, denominator = parse_nonneg_ratio(token)
    if numerator > denominator:
        raise ParseError(f"scalar {token!r} outside [0, 1]")
    return numerator, denominator


def parse_complex_scalar(token: str) -> complex:
    """Parse a complex literal: a, bi, or a+bi with decimal parts.

    `_COMPLEX_LITERAL_RE` checks the grammar; `complex` then reads an i-form
    with j for i, and `float` a real, as the same correctly rounded doubles
    (signed zeros included: "-0i" is complex(0.0, -0.0)).
    """
    if _COMPLEX_LITERAL_RE.match(token) is None:
        raise ParseError(f"malformed scalar {token!r}")
    z = complex(token[:-1] + "j") if token[-1] == "i" else complex(float(token), 0.0)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParseError(f"non-finite scalar {token!r}")
    return z


def format_ratio(numerator: int, denominator: int, what: str = "result scalar") -> str:
    """Exact literal of numerator/denominator in lowest terms ("3/4", "0", "1").

    A numerator or denominator past the int-string digit limit is a
    FuzzbitError (exit 1) that names `what` overflowed, not a ValueError:
    the parser rejects such a literal, so it could not be read back, and
    `sys.set_int_max_str_digits` would change the limit for the whole process.
    """
    g = math.gcd(numerator, denominator)
    numerator, denominator = numerator // g, denominator // g
    try:
        return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise FuzzbitError(f"{what} has a numerator or denominator of more than "
                           f"{sys.get_int_max_str_digits()} digits") from None


def format_complex(z: complex, spec: str = ".12g") -> str:
    """Render each part in the float format `spec`, 12 significant digits by
    default; a zero part is dropped, and zero, of either sign, is "0"."""
    x, y = z.real, z.imag
    if y == 0.0:
        return "0" if x == 0.0 else f"{x:{spec}}"
    if x == 0.0:
        return f"{y:{spec}}i"
    return f"{x:{spec}}{y:+{spec}}i"


def format_complex_exact(z: complex) -> str:
    """Shortest literal that round-trips to the same double (for files)."""
    return format_complex(z, "")


def _nonneg_ratio(numerator: int, denominator: int) -> Fraction:
    """The probability scalar numerator/denominator; a negative one is a ValueError."""
    value = Fraction(numerator, denominator)
    if value < 0:
        raise ValueError(f"scalar {value.numerator}/{value.denominator} is negative")
    return value


def _product_rule(add: Callable, mul: Callable) -> Callable:
    """n/a and m/b combine at the scale a * b, where n * m is their product."""
    def scaled(a: int, b: int):
        return 1, 1, a * b, add, mul
    return scaled


def _shared_rule(add: Callable, mul_at: Callable[[int], Callable]) -> Callable:
    """n/a and m/b combine at l = lcm(a, b), where `mul_at(l)` is their mul."""
    def scaled(a: int, b: int):
        scale = math.lcm(a, b)
        return scale // a, scale // b, scale, add, mul_at(scale)
    return scaled


def _truncated_sum_at(scale: int) -> Callable[[int, int], int]:
    # the multiples of 1/scale in [0, 1] (the MV-chain of that order) are
    # closed under min and the truncated sum
    def mul(x: int, y: int) -> int:
        s = x + y
        return s if s < scale else scale
    return mul


@dataclass(frozen=True, eq=False)
class SemiringInstance:
    """A named carrier: its identities, how its numerators combine, and its text format.

    `zero` and `one` are the identities, in their roles, of the add and mul
    that `scaled` returns; there is no scalar add or mul beside them, and
    generic code must never assume they are the numbers 0 and 1.

    `scaled(a, b)` is how numerators over the scales a and b combine: it
    returns (ka, kb, scale, add, mul), the factors that bring each operand
    to the scale they combine at, the result's scale, and the add and mul
    of numerators over it.  Where the scales multiply, `zero_numerator` is
    0, so `zero_numerator * scale` is `zero` over any result's scale.
    `one_numerator` and `zero_numerator` are `one` and `zero` at scale 1,
    read once when the instance is built.

    An exact carrier (every registered one but complex) has a `from_ratio`
    that builds the scalar n/d and raises ValueError for an n/d outside the
    carrier (outside [0, 1], or negative for probability); `parse` reads a
    literal as the pair (n, d) in lowest terms, and `format(n, scale)` and
    `display(n, scale)` write a numerator over a scale, for files and for
    the CLI.  Complex has no `from_ratio`: its numerators are its scalars,
    at scale 1, which `parse` returns and `format` and `display` write.
    `tolerance` is the componentwise bound of `linalg.equal` (0 for exact
    carriers).
    """

    name: str
    zero: Any
    one: Any
    scaled: Callable[[int, int], tuple[int, int, int, Callable, Callable]]
    parse: Callable[[str], Any] = parse_unit_ratio
    format: Callable[[Any, int], str] = format_ratio
    display: Callable[[Any, int], str] = format_ratio
    tolerance: float = 0.0
    from_ratio: Callable[[int, int], Any] | None = UnitScalar
    one_numerator: Any = field(init=False, repr=False)
    zero_numerator: Any = field(init=False, repr=False)

    def __post_init__(self):
        exact = self.from_ratio is not None
        object.__setattr__(self, "one_numerator", self.one.numerator if exact else self.one)
        object.__setattr__(self, "zero_numerator", self.zero.numerator if exact else self.zero)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SemiringInstance) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"SemiringInstance({self.name!r})"


_MAX_MIN_RULE = _shared_rule(max, lambda scale: min)

FUZZ_MV = SemiringInstance("fuzz-mv", zero=ONE, one=ZERO,
                           scaled=_shared_rule(min, _truncated_sum_at))
MAX_MIN = SemiringInstance("max-min", zero=ZERO, one=ONE, scaled=_MAX_MIN_RULE)
VITERBI = SemiringInstance("viterbi", zero=ZERO, one=ONE,
                           scaled=_product_rule(max, operator.mul))
BOOLEAN = SemiringInstance("boolean", zero=ZERO, one=ONE, scaled=_MAX_MIN_RULE)
PROBABILITY = SemiringInstance("probability", zero=Fraction(0), one=Fraction(1),
                               scaled=_product_rule(operator.add, operator.mul),
                               parse=parse_nonneg_ratio, from_ratio=_nonneg_ratio)
COMPLEX = SemiringInstance("complex", zero=complex(0), one=complex(1),
                           scaled=_product_rule(operator.add, operator.mul),
                           parse=parse_complex_scalar,
                           format=lambda z, scale: format_complex(z, ""),
                           display=lambda z, scale: format_complex(z),
                           tolerance=COMPLEX_TOL, from_ratio=None)

_INSTANCES = {s.name: s for s in (FUZZ_MV, MAX_MIN, VITERBI, BOOLEAN, PROBABILITY, COMPLEX)}


def make_instance(name: str) -> SemiringInstance:
    """Look up a registered instance by name."""
    try:
        return _INSTANCES[name]
    except KeyError:
        raise ValueError(f"unknown semiring instance {name!r}") from None


# --- grids --------------------------------------------------------------------
#
# The finite grids of [0, 1] that `verify` checks its laws on.  They live here,
# not in `verify`, so that the CLI can offer their names without loading it.

GRID_NAMES = ("coarse", "standard", "fine")

_GRIDS = {
    "coarse": (Fraction(0), Fraction(1, 2), Fraction(1)),
    "standard": (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                 Fraction(2, 3), Fraction(3, 4), Fraction(1)),
    "fine": tuple(Fraction(k, 6) for k in range(7)),
}


def grid_values(name: str) -> tuple[UnitScalar, ...]:
    try:
        return tuple(UnitScalar(f) for f in _GRIDS[name])
    except KeyError:
        raise ValueError(f"unknown grid {name!r}; choose from {GRID_NAMES}") from None
