"""Dense vectors and matrices over a semiring instance.

States are column vectors; operators act by left multiplication.  The
Kronecker product uses the row-major block convention: the first factor
owns the most significant part of the combined index.

Matrix/vector text format (shared with the CLI): a header line
``instance <name> <rows> <cols>`` followed by one whitespace-separated
row per line.  The dimensions are ASCII digits.  Entries are read and
written by the header instance's own `parse` and `format`; this module
does not know which carriers exist.

An `SVector` or `SMatrix` holds one form: the integer numerators of its
entries over one scale, the lcm of their denominators when it is built
from entries, or as given to `over`.  Its entries are the one view built
from them, once, on first read, so code that needs only the integers
(membership checks, the kernels, the CLI's printing) builds no rational
scalar.  Over complex the numerators are the entries, at scale 1.  The
kernels read only numerators and scales, combined by the instance's
`scaled`, and hold their result `over` its scale.
The role-based constructors (`identity`, `zeros`, `matrix_from_permutation`,
`basis_vector`) build over the instance's `one_numerator` and
`zero_numerator` at scale 1.
An exact carrier (one with a `from_ratio`) parses literals as (numerator,
denominator) pairs, which `literal_matrix`, the one builder for files and
`init vec`, bounds and holds over their least common denominator.  Text
is written from the numerators too, by the instance's `format` or `display`.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, partial, reduce
from typing import Any, Callable, Iterable, Sequence

from .algebra import _UINT_RE, SemiringInstance, _uint, make_instance
from .errors import ParseError, ValidationError

__all__ = [
    "SVector",
    "SMatrix",
    "mat_mul",
    "mat_vec",
    "mat_vec_block",
    "kron_mat",
    "kron_vec",
    "identity",
    "zeros",
    "matrix_from_permutation",
    "basis_vector",
    "equal",
    "literal_matrix",
    "parse_matrix_text",
    "format_row",
    "serialize_matrix",
    "as_vector",
]


class _Dense:
    """The body an `SVector` and an `SMatrix` share: numerators over a scale,
    entries built from them through `instance.from_ratio`, which also checks
    that each entry given to the constructor is in the carrier, and equality,
    hash and repr on the instance and entries.  Each subclass gives its
    shape: `_hold` checks and stores its values, `_map` maps a function
    over them and `_flat` yields them in row-major order.
    """

    def __init__(self, instance: SemiringInstance, entries: Iterable):
        entries = self._hold(entries)
        self.instance, self.numerators, self.scale = instance, entries, 1
        ratio = instance.from_ratio
        if ratio is not None:  # in the carrier, over the lcm of the denominators
            for x in self._flat(entries):
                ratio(x.numerator, x.denominator)  # ValueError outside the carrier
            self.scale = scale = math.lcm(*(x.denominator for x in self._flat(entries)))
            self.numerators = self._map(lambda x: x.numerator * (scale // x.denominator),
                                        entries)

    @classmethod
    def over(cls, instance: SemiringInstance, numerators: Iterable, scale: int):
        value = cls.__new__(cls)
        value.instance, value.numerators, value.scale = instance, value._hold(numerators), scale
        return value

    @cached_property
    def entries(self) -> tuple:
        ratio, scale = self.instance.from_ratio, self.scale
        if ratio is None:  # its numerators are its entries
            return self.numerators
        return self._map(lambda x: ratio(x, scale), self.numerators)

    def _numerators_times(self, k: int) -> tuple:
        return self.numerators if k == 1 else self._map(partial(operator.mul, k), self.numerators)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.instance == other.instance and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.instance, self.entries))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.instance!r}, {self.entries!r})"


class SVector(_Dense):
    """A vector over `instance`: a flat tuple of values."""

    def _hold(self, values: Iterable) -> tuple:
        values = tuple(values)
        if not values:
            raise ValueError("empty vector")
        return values

    @staticmethod
    def _map(f: Callable, values: tuple) -> tuple:
        return tuple(map(f, values))

    @staticmethod
    def _flat(values: tuple) -> Iterable:
        return values

    def __len__(self) -> int:
        return len(self.numerators)


class SMatrix(_Dense):
    """A matrix over `instance`: a row-major tuple of equally long row tuples."""

    def _hold(self, rows: Iterable[Iterable]) -> tuple:
        rows = tuple(map(tuple, rows))
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        if len(set(map(len, rows))) > 1:
            raise ValueError("ragged matrix")
        self.rows, self.cols = len(rows), len(rows[0])
        return rows

    @staticmethod
    def _map(f: Callable, rows: tuple) -> tuple:
        return tuple(tuple(map(f, row)) for row in rows)

    @staticmethod
    def _flat(rows: tuple) -> Iterable:
        return itertools.chain.from_iterable(rows)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)


def _require_same_instance(a, b) -> SemiringInstance:
    if a.instance != b.instance:
        raise ValueError(f"instance mismatch: {a.instance.name} vs {b.instance.name}")
    return a.instance


def _combined(a, b) -> tuple:
    """(instance, scale, add, mul, numerators of a, numerators of b): both
    operands' numerators brought to the scale at which their instance's
    `scaled` combines them, and its add and mul over that scale."""
    s = _require_same_instance(a, b)
    ka, kb, scale, add, mul = s.scaled(a.scale, b.scale)
    return s, scale, add, mul, a._numerators_times(ka), b._numerators_times(kb)


def mat_mul(a: SMatrix, b: SMatrix) -> SMatrix:
    """Semiring matrix product: entry (i, j) is the add-reduction of mul terms."""
    s, scale, add, mul, rows, b_rows = _combined(a, b)
    if a.cols != b.rows:
        raise ValueError(f"inner dimension mismatch: {a.cols} vs {b.rows}")
    columns = tuple(zip(*b_rows))
    return SMatrix.over(s, (tuple(reduce(add, map(mul, row, col)) for col in columns)
                            for row in rows), scale)


def mat_vec(a: SMatrix, v: SVector) -> SVector:
    s, scale, add, mul, rows, values = _combined(a, v)
    if a.cols != len(v):
        raise ValueError(f"dimension mismatch: {a.cols} vs {len(v)}")
    return SVector.over(s, (reduce(add, map(mul, row, values)) for row in rows), scale)


def mat_vec_block(a: SMatrix, base: int, v: SVector) -> SVector:
    """mat_vec(I (x) a (x) I_{2^base}, v) without building the padded operator.

    `a` acts on index bits base .. base+k-1 of `v`; each block of 2^k
    entries that differ only in those bits is gathered, multiplied by `a`
    and scattered back, in O(len(v) * 2^k).  Each row adds its terms in
    increasing column order, the order of the same terms in the padded
    operator's row; the terms left out are mul(zero, x) = zero, which add
    absorbs, so exact instances give exactly mat_vec's result.
    """
    s, scale, add, mul, a_rows, values = _combined(a, v)
    size = a.rows
    if a.cols != size or len(v) % (size << base):
        raise ValueError(f"{a.rows}x{a.cols} block at bit {base} does not fit length {len(v)}")
    zero = s.zero_numerator * scale
    rows = [(r << base, [(c << base, x) for c, x in enumerate(row) if x != zero])
            for r, row in enumerate(a_rows)]
    out = [zero] * len(values)
    low = 1 << base
    for top in range(0, len(values), size << base):
        for i0 in range(top, top + low):
            for out_off, terms in rows:
                acc = zero
                for k, (off, x) in enumerate(terms):
                    term = mul(x, values[i0 + off])
                    acc = add(acc, term) if k else term
                out[i0 + out_off] = acc
    return SVector.over(s, out, scale)


def kron_mat(a: SMatrix, b: SMatrix) -> SMatrix:
    """Kronecker product; block (i, j) is mul(a[i, j], -) applied to b."""
    s, scale, add, mul, a_rows, b_rows = _combined(a, b)
    return SMatrix.over(s, (tuple(mul(x, y) for x in arow for y in brow)
                            for arow in a_rows for brow in b_rows), scale)


def kron_vec(u: SVector, v: SVector) -> SVector:
    s, scale, add, mul, u_values, v_values = _combined(u, v)
    return SVector.over(s, (mul(x, y) for x in u_values for y in v_values), scale)


def identity(s: SemiringInstance, n: int) -> SMatrix:
    """n x n matrix with `one` on the diagonal and `zero` elsewhere."""
    return matrix_from_permutation(range(n), s)


def zeros(s: SemiringInstance, n: int) -> SMatrix:
    """n x n matrix of `zero`; absorbing for mat_mul."""
    return SMatrix.over(s, ((s.zero_numerator,) * n,) * n, 1)


def matrix_from_permutation(perm: Sequence[int], instance: SemiringInstance) -> SMatrix:
    """Column j holds `one` in row perm[j] and `zero` elsewhere: e_j -> e_perm[j].

    Read in the roles of each carrier, this one matrix is the classical and
    stochastic NOT, the quantum X and the fuzzy J = [[1, 0], [0, 1]].
    """
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    one, zero = instance.one_numerator, instance.zero_numerator
    return SMatrix.over(instance, (tuple(one if perm[j] == i else zero for j in range(n))
                                   for i in range(n)), 1)


def basis_vector(s: SemiringInstance, size: int, index: int) -> SVector:
    """`one` at `index` and `zero` elsewhere: column `index` of the identity.

    Over fuzz-mv, where `one` is 0 and `zero` is 1, |0> = (0, 1) and |1> = (1, 0).
    """
    if not 0 <= index < size:
        raise ValueError(f"index {index} out of range for length {size}")
    one, zero = s.one_numerator, s.zero_numerator
    return SVector.over(s, (zero,) * index + (one,) + (zero,) * (size - 1 - index), 1)


def equal(a, b) -> bool:
    """Same instance and shape, entries within the instance's `tolerance`
    componentwise (exact where it is 0)."""
    if a.instance != b.instance or type(a) is not type(b):
        return False
    if (len(a) != len(b)) if isinstance(a, SVector) else (a.rows, a.cols) != (b.rows, b.cols):
        return False
    tol = a.instance.tolerance
    return all(abs(x.real - y.real) <= tol and abs(x.imag - y.imag) <= tol
               for x, y in zip(a._flat(a.entries), b._flat(b.entries)))


# --- text format --------------------------------------------------------------

def literal_matrix(s: SemiringInstance, rows: Sequence[Sequence],
                   line: int | None = None) -> SMatrix:
    """The matrix of the literals `s.parse` read: the entries themselves, or,
    for an exact carrier, (n, d) pairs held over the lcm of every d.

    The entry count times that scale's bits may be at most 64 times the bits
    of all n, d and one separator each; past that, a ValidationError (at
    `line`) stops the lcm, which grows one distinct d at a time, before any
    numerator is multiplied out.
    """
    if s.from_ratio is None:
        return SMatrix(s, rows)
    numerators, denominators = zip(*itertools.chain.from_iterable(rows))
    count = len(denominators)
    limit = 64 * (sum(map(int.bit_length, numerators + denominators)) + count) // count
    scale = 1
    for d in set(denominators):
        scale = math.lcm(scale, d)
        if scale.bit_length() > limit:
            raise ValidationError(f"the common denominator of {count} exact literals "
                                  f"passes {limit} bits, 64 times their mean size", line)
    # multiplied out as `over` reads them
    return SMatrix.over(s, ((n * (scale // d) for n, d in row) for row in rows), scale)


def parse_matrix_text(text: str) -> SMatrix:
    lines = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
    lines = [(n, line) for n, line in lines if line]
    if not lines:
        raise ParseError("empty matrix text")
    header_no, header = lines[0]
    fields = header.split()
    if len(fields) != 4 or fields[0] != "instance":
        raise ParseError("expected header 'instance <name> <rows> <cols>'", line=header_no)
    try:
        s = make_instance(fields[1])
    except ValueError as exc:
        raise ParseError(str(exc), line=header_no) from None
    if not (_UINT_RE.fullmatch(fields[2]) and _UINT_RE.fullmatch(fields[3])):
        raise ParseError("non-integer dimensions in header", line=header_no)
    rows, cols = _uint(fields[2], header_no), _uint(fields[3], header_no)
    if rows < 1 or cols < 1:
        raise ParseError("dimensions must be positive", line=header_no)
    body = lines[1:]
    if len(body) != rows:
        raise ParseError(f"expected {rows} rows, found {len(body)}", line=header_no)
    grid = []
    for line_no, line in body:
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(f"expected {cols} entries, found {len(tokens)}", line=line_no)
        row = []
        for tok in tokens:
            try:
                row.append(s.parse(tok))
            except ParseError as exc:
                raise ParseError(str(exc), line=line_no) from None
        grid.append(row)
    return literal_matrix(s, grid)


def format_row(fmt: Callable[[Any, int], str], numerators: Iterable, scale: int) -> str:
    """Numerators over `scale` as one line of literals, each `fmt(n, scale)`,
    an instance's `format` or `display`; an exact carrier's builds no scalar."""
    return " ".join(fmt(x, scale) for x in numerators)


def serialize_matrix(m: SMatrix, fmt: Callable[[Any, int], str] | None = None) -> str:
    fmt = m.instance.format if fmt is None else fmt
    lines = [f"instance {m.instance.name} {m.rows} {m.cols}"]
    lines.extend(format_row(fmt, row, m.scale) for row in m.numerators)
    return "\n".join(lines) + "\n"


def as_vector(m: SMatrix) -> SVector:
    """Read a 1-column (or 1-row) matrix as a vector, over the matrix's scale."""
    if m.cols == 1:
        numerators = tuple(row[0] for row in m.numerators)
    elif m.rows == 1:
        numerators = m.numerators[0]
    else:
        raise ValueError(f"{m.rows}x{m.cols} matrix is not a vector")
    return SVector.over(m.instance, numerators, m.scale)
