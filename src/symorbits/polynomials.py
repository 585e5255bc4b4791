"""Sparse exact multivariate polynomials with monomial orders.

A monomial is an exponent vector: a tuple of ``nvars`` nonnegative ints.
A polynomial maps monomials to nonzero raw coefficients (see
:mod:`symorbits.fields`) and is immutable once built.  Variables are
written ``x1 .. xN`` with the order convention x1 > x2 > ... > xN.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .fields import Field, Raw

Monomial = tuple[int, ...]


# -- monomial helpers -------------------------------------------------------


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff a divides b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_type(m: Monomial) -> tuple[int, ...]:
    """Exponents sorted in decreasing order with zeros trimmed.

    Two monomials have the same type exactly when one is a coordinate
    permutation of the other.
    """
    return tuple(sorted((e for e in m if e > 0), reverse=True))


def monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    """All exponent vectors of the given total degree, one per multiset."""
    if degree == 0:
        return [(0,) * nvars]
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        m = [0] * nvars
        for i in combo:
            m[i] += 1
        out.append(tuple(m))
    return out


def monomials_of_type(partition: Sequence[int], nvars: int) -> list[Monomial]:
    """All monomials in nvars variables whose type is the given partition."""
    part = tuple(sorted((e for e in partition if e > 0), reverse=True))
    if len(part) > nvars:
        return []
    # place the parts one at a time on free positions: each step holds only
    # distinct partial monomials, never all nvars! arrangements
    monos = {(0,) * nvars}
    for e in part:
        monos = {m[:i] + (e,) + m[i + 1:] for m in monos for i in range(nvars) if not m[i]}
    return sorted(monos)


def count_of_type(partition: Sequence[int], nvars: int) -> int:
    """``len(monomials_of_type(partition, nvars))`` in closed form, listing
    none: the multinomial nvars! / prod(multiplicity!) over the exponents,
    zeros included, as a product of binomials C(free, multiplicity) that
    places each nonzero exponent on the positions still free."""
    part = [e for e in partition if e > 0]
    if len(part) > nvars:
        return 0
    count, free = 1, nvars
    for e in set(part):
        multiplicity = part.count(e)
        count *= math.comb(free, multiplicity)
        free -= multiplicity
    return count


# -- monomial orders --------------------------------------------------------


class MonomialOrder:
    """Total multiplicative order on exponent vectors with 1 minimal.

    ``key(m)`` returns a flat int tuple; larger key means larger monomial.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def key(self, m: Monomial) -> tuple[int, ...]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialOrder) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


class _Lex(MonomialOrder):
    def key(self, m: Monomial) -> tuple[int, ...]:
        return m


class _GrevLex(MonomialOrder):
    def key(self, m: Monomial) -> tuple[int, ...]:
        # graded, then reverse-lex: ties broken by the rightmost exponent
        # difference, smaller exponent winning
        return (sum(m), *(-e for e in reversed(m)))


LEX = _Lex("lex")
GREVLEX = _GrevLex("grevlex")


def order_by_name(name: str) -> MonomialOrder:
    try:
        return {"lex": LEX, "grevlex": GREVLEX}[name]
    except KeyError:
        raise ValueError(f"unknown monomial order {name!r}") from None


# -- polynomials ------------------------------------------------------------


class Polynomial:
    """Immutable sparse polynomial over an exact field."""

    __slots__ = ("field", "nvars", "terms", "_hash")

    def __init__(self, field: Field, nvars: int, terms: Mapping | Iterable = ()):
        if nvars < 1:
            raise ValueError("nvars must be a positive int")
        data: dict[Monomial, Raw] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, c in items:
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} has wrong length for nvars={nvars}")
            if any(not isinstance(e, int) or e < 0 for e in mono):
                raise ValueError(f"monomial {mono} has invalid exponents")
            c = field.coerce(c)
            acc = field.add(data.get(mono, field.zero), c)
            if acc == field.zero:
                data.pop(mono, None)
            else:
                data[mono] = acc
        self.field = field
        self.nvars = nvars
        self.terms = data
        self._hash = None

    # construction helpers

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "Polynomial":
        return cls(field, nvars)

    @classmethod
    def constant(cls, field: Field, nvars: int, c) -> "Polynomial":
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field: Field, nvars: int, i: int) -> "Polynomial":
        """The variable x_i (1-based index)."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        mono = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(field, nvars, {mono: 1})

    @classmethod
    def from_monomial(cls, field: Field, mono: Monomial, c=1) -> "Polynomial":
        return cls(field, len(mono), {tuple(mono): c})

    # basic predicates / accessors

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def min_degree(self) -> int:
        return min((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def is_squarefree_supported(self) -> bool:
        """True iff every exponent in every term is at most 1."""
        return all(e <= 1 for m in self.terms for e in m)

    @property
    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def monic(self, order: MonomialOrder) -> "Polynomial":
        if self.is_zero:
            return self
        lc = self.terms[self.leading_monomial(order)]
        if lc == self.field.one:
            return self
        inv = self.field.inv(lc)
        return self._make({m: self.field.mul(c, inv) for m, c in self.terms.items()})

    def sorted_terms(self, order: MonomialOrder) -> list[tuple[Monomial, Raw]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def sort_key(self) -> tuple:
        """Canonical, order-independent sorting key for collections."""
        return tuple(sorted(self.terms.items()))

    # arithmetic

    def _make(self, data: dict[Monomial, Raw], nvars: int | None = None) -> "Polynomial":
        """A polynomial over this field from already valid terms, in this
        ring or in ``nvars`` variables."""
        p = object.__new__(Polynomial)
        p.field = self.field
        p.nvars = self.nvars if nvars is None else nvars
        p.terms = data
        p._hash = None
        return p

    def _check_compatible(self, other: "Polynomial"):
        if self.field != other.field or self.nvars != other.nvars:
            raise ValueError(
                f"incompatible polynomials: {self.field}/{self.nvars} vars "
                f"vs {other.field}/{other.nvars} vars"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return self + Polynomial.constant(self.field, self.nvars, other)
        self._check_compatible(other)
        field = self.field
        data = dict(self.terms)
        for m, c in other.terms.items():
            acc = field.add(data.get(m, field.zero), c)
            if acc == field.zero:
                data.pop(m, None)
            else:
                data[m] = acc
        return self._make(data)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field.neg
        return self._make({m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.field, self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_compatible(other)
        field = self.field
        zero = field.zero
        data: dict[Monomial, Raw] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                acc = field.add(data.get(m, zero), field.mul(ca, cb))
                if acc == zero:
                    data.pop(m, None)
                else:
                    data[m] = acc
        return self._make(data)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if c == self.field.zero:
            return self._make({})
        mul = self.field.mul
        return self._make({m: mul(v, c) for m, v in self.terms.items()})

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative int")
        out = Polynomial.constant(self.field, self.nvars, 1)
        for _ in range(e):
            out = out * self
        return out

    # evaluation and structure

    def evaluate(self, point: Sequence) -> Raw:
        """The value at a point of ints or Fractions, as a raw value of
        this polynomial's field."""
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        field = self.field
        vals = [field.coerce(x) for x in point]
        total = field.zero
        for m, c in self.terms.items():
            term = c
            for v, e in zip(vals, m):
                if e:
                    term = field.mul(term, field.pow(v, e))
            total = field.add(total, term)
        return total

    def support(self) -> "SupportSet":
        if self.is_zero:
            raise ValueError("zero polynomial has empty support")
        return SupportSet(self.nvars, frozenset(self.terms))

    def extend(self, nvars: int) -> "Polynomial":
        """The same polynomial viewed in a ring with more variables."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink variable count")
        if nvars == self.nvars:
            return self
        pad = (0,) * (nvars - self.nvars)
        return self._make({m + pad: c for m, c in self.terms.items()}, nvars)

    # equality / hashing / display

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field, self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return format_polynomial(self)


# -- text form ---------------------------------------------------------------


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"(?P<int>\d+)|(?P<var>x\d+)|(?P<op>[+\-*/^])|(?P<bad>\S)")


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        if match.lastgroup == "bad":
            raise PolynomialSyntaxError(f"unexpected character {match.group()!r}", match.start())
        tokens.append((match.lastgroup, match.group(), match.start()))
    return tokens


def parse_polynomial(text: str, nvars: int, field: Field) -> Polynomial:
    """Parse the textual grammar: terms joined by ``+``/``-``; a term is
    ``[coeff][*][x<i>[^<e>]]*`` with integer or ``a/b`` coefficients.

    Whitespace is insignificant.  Over a prime field, integer literals are
    reduced mod p and ``a/b`` requires the denominator to be invertible.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty polynomial text", 0)
    # the end token: no grammar rule accepts it, so nothing reads past it
    stream = iter(tokens + [(None, "", len(text))])

    def integer(what: str) -> tuple[int, int]:
        kind, val, at = next(stream)
        if kind != "int":
            raise PolynomialSyntaxError(f"expected integer {what}", at)
        return int(val), at

    terms: list[tuple[Monomial, Raw]] = []
    kind, val, at = next(stream)
    while True:
        sign = -1 if val == "-" else 1
        if val in ("+", "-"):
            kind, val, at = next(stream)
        if kind not in ("int", "var") and val != "*":
            raise PolynomialSyntaxError("expected a term", at)
        coeff, exps = Fraction(sign), [0] * nvars
        while kind in ("int", "var") or val == "*":
            if val == "*":
                kind, val, at = next(stream)
                if kind not in ("int", "var"):
                    raise PolynomialSyntaxError("expected factor after '*'", at)
            elif kind == "int":
                coeff *= int(val)
                kind, val, at = next(stream)
                if val == "/":
                    den, at = integer("denominator")
                    if den == 0:
                        raise PolynomialSyntaxError("zero denominator", at)
                    if field.characteristic and den % field.characteristic == 0:
                        raise PolynomialSyntaxError(
                            f"denominator {den} not invertible mod {field.characteristic}", at
                        )
                    coeff /= den
                    kind, val, at = next(stream)
            else:
                index = int(val[1:])
                if not 1 <= index <= nvars:
                    raise PolynomialSyntaxError(f"variable {val} out of range x1..x{nvars}", at)
                kind, val, at = next(stream)
                power = 1
                if val == "^":
                    power, _ = integer("exponent")
                    kind, val, at = next(stream)
                exps[index - 1] += power
        terms.append((tuple(exps), coeff))
        if kind is None:
            return Polynomial(field, nvars, terms)
        if val not in ("+", "-"):
            raise PolynomialSyntaxError(f"unexpected token {val!r}", at)


def _format_monomial(m: Monomial) -> str:
    factors = []
    for i, e in enumerate(m, start=1):
        if e == 1:
            factors.append(f"x{i}")
        elif e > 1:
            factors.append(f"x{i}^{e}")
    return "*".join(factors)


def format_polynomial(f: Polynomial, order: MonomialOrder = GREVLEX) -> str:
    """Terms in descending order; '-' is absorbed into coefficients."""
    if f.is_zero:
        return "0"
    pieces = []
    for m, c in f.sorted_terms(order):
        mono = _format_monomial(m)
        negative = c < 0
        mag = -c if negative else c
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


# -- elementary symmetric polynomials ---------------------------------------


def elementary_symmetric(nvars: int, indices: Iterable[int], d: int, field: Field) -> Polynomial:
    """Sum of all square-free degree-d monomials in the variables indexed
    by ``indices`` (1-based), inside a ring with ``nvars`` variables."""
    idx = sorted(set(indices))
    if any(not 1 <= i <= nvars for i in idx):
        raise ValueError(f"variable indices {idx} out of range 1..{nvars}")
    if not 1 <= d <= len(idx):
        raise ValueError(f"need 1 <= d <= |J| = {len(idx)}, got d={d}")
    terms = {}
    for combo in itertools.combinations(idx, d):
        m = [0] * nvars
        for i in combo:
            m[i - 1] = 1
        terms[tuple(m)] = 1
    return Polynomial(field, nvars, terms)


# -- support analysis --------------------------------------------------------


@dataclass(frozen=True)
class SupportSet:
    """A finite non-empty set of exponent vectors of a common length."""

    nvars: int
    elements: frozenset[Monomial]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("support set must be non-empty")
        if any(len(m) != self.nvars for m in self.elements):
            raise ValueError("all support elements must have length nvars")
        if any(e < 0 for m in self.elements for e in m):
            raise ValueError("exponents must be nonnegative")

    @classmethod
    def of(cls, nvars: int, monomials: Iterable[Sequence[int]]) -> "SupportSet":
        return cls(nvars, frozenset(tuple(m) for m in monomials))

    def sorted_elements(self) -> list[Monomial]:
        return sorted(self.elements)


@dataclass(frozen=True)
class SupportProfile:
    homogeneous: bool
    degree: int | None
    squarefree: bool
    symmetric: bool
    types: frozenset[tuple[int, ...]]


def analyze_support(support: SupportSet) -> SupportProfile:
    """Degree, square-freeness, symmetry, and type data."""
    degrees = {sum(m) for m in support.elements}
    homogeneous = len(degrees) == 1
    squarefree = all(e <= 1 for m in support.elements for e in m)
    # the support holds every monomial of a type iff it holds as many as
    # there are: count them, list none
    counts = Counter(monomial_type(m) for m in support.elements)
    types = frozenset(counts)
    symmetric = all(k == count_of_type(t, support.nvars) for t, k in counts.items())
    return SupportProfile(
        homogeneous=homogeneous,
        degree=next(iter(degrees)) if homogeneous else None,
        squarefree=squarefree,
        symmetric=symmetric,
        types=types,
    )
