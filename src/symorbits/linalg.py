"""Exact linear algebra on sparse columns: rank and span membership, with
certificates both ways, and the rank of a column's orbit under row
permutations.

One kernel serves both questions.  It brings the columns, left to right, to
reduced column echelon form modulo a prime: each basis vector is 1 at its
lead, its smallest row, and 0 at every other lead, so the pivots are the
greedy left-to-right independent columns mod p, and the elimination stops
once every row leads a basis vector or, for span membership, once the
target lies in the span of the columns read.

The prime is the field's own over GF(p), where the elimination is exact.
Over the rationals it is first ``PRIME`` = 2^61 - 1, applied after scaling
each column, and the target vector, to integers.  There every verdict is
certified exactly:

* rank >= r: the pivot columns have an r x r minor that is nonzero mod p,
  so it is a nonzero integer;
* rank <= r: each row that leads no basis vector gives a left-kernel vector
  mod p (1 on that row, 0 on the other such rows), lifted by rational
  reconstruction (Wang, Guy & Davenport, SIGSAM Bull. 1982) and checked
  exactly against every column (for an orbit, every spun vector: see
  ``spin_rank``);
* v in the span: the solution on the pivot columns is lifted and re-verified
  by exact multiplication;
* v not in the span: a dual vector y is lifted, and y.A = 0 and y.v != 0 are
  both checked exactly.

If a lift or a check fails (an entry too tall for the prime, or a rank that
drops mod p), the same elimination runs once more, at the least prime of
``PRIMES`` above 2 H^2, where H^2 is the product of the ``nrows`` largest
squared norms of the integer columns (and the target).  A minor has at most
``nrows`` columns, so it is at most H in size (Hadamard): at that prime no
nonzero minor vanishes, the greedy pivots are the exact ones, and every
entry to lift, a ratio of two minors, is within the reconstruction bound.
A failed check there is an internal fault (``CertificateError``); a bound
past the last listed prime is a resource limit (``BudgetExceededError``).
No floating point.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .fields import Field, Raw
from .reports import BudgetExceededError, CertificateError, check_deadline

# Mersenne primes, the moduli for rational matrices
PRIMES = tuple(2**e - 1 for e in (61, 127, 521, 1279, 2203, 4423, 9941, 19937, 44497, 86243))
PRIME = PRIMES[0]


class ExactMatrix:
    """Immutable matrix of raw field values stored as sparse columns, each a
    ``{row: value}`` map without zero entries."""

    __slots__ = ("field", "nrows", "ncols", "columns")

    def __init__(self, field: Field, nrows: int, columns: Iterable[Mapping[int, object]]):
        # a value already in raw form (a Fraction over QQ, an int in [0, p)
        # over GF(p)) is kept as it is; anything else is coerced
        raw, p = (Fraction, None) if field.is_rationals else (int, field.p)
        data = []
        for col in columns:
            entries = {}
            for i, x in col.items():
                if not 0 <= i < nrows:
                    raise ValueError(f"row {i} outside a matrix with {nrows} rows")
                if type(x) is not raw or p and not 0 <= x < p:
                    x = field.coerce(x)
                if x:
                    entries[i] = x
            data.append(entries)
        self.field = field
        self.nrows = nrows
        self.columns = tuple(data)
        self.ncols = len(data)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.field}, {self.nrows}x{self.ncols})"


class RankCertificate(NamedTuple):
    """The rank, the modulus whose pivots prove rank >= r and, below full
    row rank, an exactly checked left-kernel vector of raw field values,
    one per row; else None."""

    rank: int
    prime: int
    dual: list[Raw] | None


# -- the modular kernel ----------------------------------------------------------


class _Echelon:
    """Reduced column echelon form mod p, grown one column at a time:
    ``basis`` maps each lead row to its vector and, with ``track``,
    ``combos`` maps each lead to the combination of columns that makes its
    vector."""

    def __init__(self, p: int, track: bool):
        self.p = p
        self.basis: dict[int, dict[int, int]] = {}
        self.combos: dict[int, dict[int, int]] | None = {} if track else None

    def reduce(self, vec: dict[int, int]) -> list[tuple[int, int]]:
        """Subtract from vec, in place, its entry times the basis vector of
        each lead it meets; one pass leaves it on rows that lead none, since
        a basis vector is 0 at the other leads.  Return the (lead, entry)
        pairs."""
        hits = [(row, x) for row, x in vec.items() if row in self.basis]
        for lead, m in hits:
            _subtract(vec, m, self.basis[lead], self.p)
        return hits

    def add(self, j: int, vec: dict[int, int]) -> int | None:
        """Reduce column j and, if it is independent of the basis, make it
        a basis vector led by its smallest row; return that row."""
        hits = self.reduce(vec)
        if not vec:
            return None
        p = self.p
        lead = min(vec)
        inv = pow(vec[lead], -1, p)
        new = {i: x * inv % p for i, x in vec.items()}
        if self.combos is not None:
            combo = {j: inv}
            for row, m in hits:
                _subtract(combo, m * inv, self.combos[row], p)
        for row, b in self.basis.items():
            m = b.get(lead)
            if m:
                _subtract(b, m, new, p)
                if self.combos is not None:
                    _subtract(self.combos[row], m, combo, p)
        self.basis[lead] = new
        if self.combos is not None:
            self.combos[lead] = combo
        return lead

    def dual(self, row: int) -> dict[int, int]:
        """The left-kernel vector of the basis that is 1 on ``row``, which
        leads no basis vector, and 0 on every other such row."""
        y = {row: 1}
        for lead, b in self.basis.items():
            if row in b:
                y[lead] = self.p - b[row]
        return y


def _subtract(vec: dict[int, int], m: int, other: Mapping[int, int], p: int) -> None:
    """vec -= m * other mod p, in place, keeping only nonzero entries."""
    for i, x in other.items():
        y = (vec.get(i, 0) - m * x) % p
        if y:
            vec[i] = y
        else:
            vec.pop(i, None)


def _integer(field: Field, col: Mapping[int, Raw]) -> tuple[int, Mapping[int, int]]:
    """(s, s * col) with s * col integral: the lcm of the denominators over
    the rationals; 1 and col itself over GF(p).  Scaling a column keeps its
    span."""
    if not field.is_rationals:
        return 1, col
    scale = math.lcm(*(x.denominator for x in col.values()))
    return scale, {i: x.numerator * (scale // x.denominator) for i, x in col.items()}


def _mod(p: int, col: Mapping[int, int]) -> dict[int, int]:
    return {i: r for i, x in col.items() if (r := x % p)}


def _echelon_columns(
    matrix: ExactMatrix, p: int, deadline: float | None, target=None, combination=None
):
    """The echelon of the columns mod p, stopping at full row rank, and the
    integer columns it read; ``deadline`` is checked per column.  Given the
    residues of a target v, it reduces them, in place, by each new basis
    vector and adds that vector's columns, times the same entry, to
    ``combination``, so the target stays v - A.combination, 0 at every lead;
    it stops once the target is empty."""
    echelon = _Echelon(p, target is not None)
    read = []
    for j, col in enumerate(matrix.columns):
        if len(echelon.basis) == matrix.nrows or target is not None and not target:
            break
        check_deadline(deadline)
        read.append(_integer(matrix.field, col))
        # GF(p) columns are residues already: one copy
        lead = echelon.add(j, _mod(p, read[-1][1]) if matrix.field.is_rationals else dict(col))
        if target and lead is not None and (m := target.get(lead)):
            _subtract(target, m, echelon.basis[lead], p)
            _subtract(combination, -m, echelon.combos[lead], p)
    return echelon, read


def _moduli(field: Field, nrows: int, columns: Iterable[Mapping[int, int]]):
    """The primes to eliminate at, in turn: the field's own over GF(p); over
    the rationals ``PRIME``, then the least of ``PRIMES`` above 2 H^2 for
    the integer ``columns``, read only then (see the module docstring),
    unless that is ``PRIME`` again."""
    if not field.is_rationals:
        yield field.p
        return
    yield PRIME
    norms = (sum(x * x for x in col.values()) for col in columns)
    bound = 2 * math.prod(heapq.nlargest(nrows, filter(None, norms)))
    p = next((q for q in PRIMES if q > bound), None)
    if p is None:
        raise BudgetExceededError(f"Hadamard bound 2^{bound.bit_length() - 1} past the last prime")
    if p != PRIME:
        yield p


def _rational(a: int, p: int) -> Fraction | None:
    """The fraction n/d with |n|, |d| <= sqrt(p/2) and n = a*d mod p, if
    there is one: extended Euclid on (p, a), stopped halfway."""
    bound = math.isqrt(p // 2)
    r0, r1, t0, t1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _lift(field: Field, values: Mapping[int, int], p: int) -> dict[int, Raw] | None:
    """The residues as field values: themselves over GF(p), their rational
    reconstructions over the rationals (None if one has none)."""
    if not field.is_rationals:
        return dict(values)
    out = {k: _rational(a, p) for k, a in values.items()}
    return None if None in out.values() else out


def _checked_dual(field: Field, residues, columns, p: int, v=None) -> dict[int, int] | None:
    """A dual vector mod p lifted and cleared of denominators (a dual
    vector's multiples are dual vectors), if the lift succeeds and the
    integer vector is exactly orthogonal to every integer column, and not
    to v when v is given; else None."""
    y = _lift(field, residues, p)
    if y is None:
        return None
    y = _integer(field, y)[1]

    def zero(col):
        total = sum(y[i] * x for i, x in col.items() if i in y)
        return total % field.p == 0 if field.p else total == 0

    return y if all(zero(col) for col in columns) and (v is None or not zero(v)) else None


def _certified(field: Field, nrows: int, echelon: _Echelon, columns, p: int, deadline):
    """The echelon's RankCertificate if every row that leads no basis vector
    gives a ``_checked_dual`` of the integer columns, else None."""
    first = None
    for row in range(nrows):
        if row not in echelon.basis:
            check_deadline(deadline)
            y = _checked_dual(field, echelon.dual(row), columns, p)
            if y is None:
                return None
            first = first or y
    return RankCertificate(len(echelon.basis), p, first and _dense(field, nrows, first))


def _dense(field: Field, n: int, entries: Mapping[int, Raw]) -> list[Raw]:
    """The entries as n raw values (over QQ a cleared dual vector holds ints)."""
    zero = field.zero
    return [field.coerce(entries[i]) if i in entries else zero for i in range(n)]


# -- rank and span membership -------------------------------------------------------


def rank(matrix: ExactMatrix, *, deadline: float | None = None) -> RankCertificate:
    """The exact rank, the prime whose pivots prove it and, below full row
    rank, one exactly checked left-kernel vector.  ``deadline`` is checked
    per column of the elimination and per left-kernel vector checked."""
    field, nrows = matrix.field, matrix.nrows
    for p in _moduli(field, nrows, (_integer(field, col)[1] for col in matrix.columns)):
        echelon, read = _echelon_columns(matrix, p, deadline)
        got = _certified(field, nrows, echelon, [c for _, c in read], p, deadline)
        if got:
            return got
    raise CertificateError("left-kernel vector failed exact re-verification")


def spin_rank(
    field: Field, nrows: int, column: Mapping[int, Raw], perms: Sequence[Sequence[int]],
    images: int, *, deadline: float | None = None,
) -> RankCertificate:
    """``rank`` of the matrix of the ``images`` distinct images of a column
    under the group that the row permutations ``perms`` generate, by
    spinning (Parker's Meat-Axe): each new basis vector queues its distinct
    images under the perms.  The echelon depends only on the span mod p,
    and all images share one norm, so the result is that of the full
    matrix.  Below full rank every left-kernel vector is checked exactly
    against every spun vector; their common kernel, of the rank's dimension,
    then is the span of the basis vectors and holds every perm image of
    them, so it is G-stable: the whole span.  ``deadline`` is checked per
    spun vector and per left-kernel vector."""
    col = _integer(field, column)[1]
    for p in _moduli(field, nrows, [col] * min(nrows, images)):
        echelon = _Echelon(p, False)
        spun, seen = [col], {frozenset(col.items())}
        for j, vec in enumerate(spun):  # spun grows as it is read
            if len(echelon.basis) == nrows:
                break
            check_deadline(deadline)
            if echelon.add(j, _mod(p, vec)) is None:
                continue
            for perm in perms:
                image = {perm[i]: x for i, x in vec.items()}
                key = frozenset(image.items())
                if key not in seen:
                    seen.add(key)
                    spun.append(image)
        got = _certified(field, nrows, echelon, spun, p, deadline)
        if got:
            return got
    raise CertificateError("left-kernel vector failed exact re-verification")


def in_span(
    vector: Sequence, matrix: ExactMatrix, *, deadline: float | None = None
) -> tuple[bool, list[Raw]]:
    """Decide whether the vector v lies in the span of the matrix columns.

    Returns ``(True, coefficients)`` with one raw coefficient per column
    (zeros off the greedy left-to-right independent columns), re-verified
    by multiplication before returning, or ``(False, y)`` with a dual
    vector y, one entry per row, such that y.A = 0 and y.v != 0 hold
    exactly.  The elimination stops once v is in the span of the columns
    read; v has one expression on the independent greedy pivots, so the
    certificate is that of a full elimination.  ``deadline`` is checked per
    column of the elimination.
    """
    field = matrix.field
    v = [field.coerce(x) for x in vector]
    if len(v) != matrix.nrows:
        raise ValueError(f"vector length {len(v)} != row count {matrix.nrows}")
    v_scale, v_int = _integer(field, {i: x for i, x in enumerate(v) if x})
    columns = (_integer(field, col)[1] for col in matrix.columns)
    for p in _moduli(field, matrix.nrows, itertools.chain(columns, [v_int])):
        rest, combination = _mod(p, v_int), {}
        echelon, read = _echelon_columns(matrix, p, deadline, rest, combination)
        if rest:
            y = _checked_dual(field, echelon.dual(min(rest)), [c for _, c in read], p, v_int)
            if y is not None:
                return False, _dense(field, matrix.nrows, y)
            continue
        lifted = _lift(field, combination, p)
        if lifted is not None:
            # a coefficient on a scaled column, for a scaled target
            coeffs = {
                j: field.div(field.mul(c, read[j][0]), v_scale) for j, c in lifted.items()
            }
            if _combines_to(matrix, coeffs, v):
                return True, _dense(field, matrix.ncols, coeffs)
    raise CertificateError("span certificate failed exact re-verification")


def _combines_to(matrix: ExactMatrix, coeffs: Mapping[int, Raw], v: Sequence[Raw]) -> bool:
    field = matrix.field
    total: dict[int, Raw] = {}
    for j, c in coeffs.items():
        for i, x in matrix.columns[j].items():
            total[i] = field.add(total.get(i, field.zero), field.mul(x, c))
    return all(total.get(i, field.zero) == x for i, x in enumerate(v))
