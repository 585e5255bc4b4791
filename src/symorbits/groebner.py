"""Buchberger's algorithm with reduced bases, normal forms, radical
membership via one adjoined variable, and the irrelevant-radical test.

The pair loop uses the normal selection strategy (smallest lcm first)
together with the product and chain criteria.  Every run is bounded by a
configurable budget of S-polynomial reductions (pairs the criteria skip do
not count; each reduction adds at most one element, so the pairs popped
stay bounded too) and an optional wall-clock deadline, checked at every
popped pair and between the element reductions of interreduction;
exceeding either raises :class:`BudgetExceededError`, which is distinct
from any membership verdict.

Divisors are kept as one list of ``(key, lm, tail)`` entries of monic
polynomials, sorted by the order key of the leading monomial and updated
by insertion, so no step re-sorts the whole basis.

For homogeneous generators the radical is (x1, ..., xN) exactly when
K[x]/I is finite-dimensional, which holds exactly when every variable has
a pure power among the leading monomials of a Groebner basis
(finiteness theorem; Cox, Little and O'Shea, *Ideals, Varieties, and
Algorithms*, ch. 5 §3).  :func:`radical_equals_irrelevant` reads its
verdict off one basis in the generators' own ring.
"""

from __future__ import annotations

import bisect
import heapq
from operator import itemgetter
from typing import Sequence

from .fields import Field
from .polynomials import (
    GREVLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    mono_divides,
    mono_lcm,
)
from .reports import BudgetExceededError, check_deadline

DEFAULT_MAX_PAIRS = 1_000_000
_KEY = itemgetter(0)


def _neg(key: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-k for k in key)


def _reduce_terms(
    terms: dict[Monomial, object],
    basis: list[tuple[tuple[int, ...], Monomial, list]],
    order: MonomialOrder,
    field: Field,
) -> dict[Monomial, object]:
    """Remainder of the term dict modulo monic (key, lm, tail) divisors,
    each term divided by the first divisor in list order."""
    zero = field.zero
    work = dict(terms)
    remainder: dict[Monomial, object] = {}
    key = order.key
    heap = [(_neg(key(m)), m) for m in work]
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        _, m = pop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for _, lm, tail in basis:
            if mono_divides(lm, m):
                q = tuple(a - b for a, b in zip(m, lm))
                for tm, tc in tail:
                    nm = tuple(a + b for a, b in zip(tm, q))
                    acc = field.sub(work.get(nm, zero), field.mul(c, tc))
                    if acc == zero:
                        work.pop(nm, None)
                    else:
                        if nm not in work:
                            push(heap, (_neg(key(nm)), nm))
                        work[nm] = acc
                break
        else:
            remainder[m] = c
    return remainder


def _entry(g: Polynomial, order: MonomialOrder):
    """(order key of the leading monomial, leading monomial, tail items)
    of a monic polynomial."""
    lm = g.leading_monomial(order)
    return order.key(lm), lm, [(m, c) for m, c in g.terms.items() if m != lm]


def _basis_data(polys: Sequence[Polynomial], order: MonomialOrder):
    """Entries of monic polynomials, ascending by leading monomial."""
    return sorted((_entry(g, order) for g in polys), key=_KEY)


def _polynomial(field: Field, nvars: int, entry) -> Polynomial:
    _, lm, tail = entry
    terms = dict(tail)
    terms[lm] = field.one
    return Polynomial(field, nvars, terms)


class GroebnerBasis:
    """A reduced Groebner basis: monic elements, no term of one divisible
    by the leading term of another, deterministic ascending order."""

    def __init__(
        self,
        order: MonomialOrder,
        field: Field,
        basis: Sequence[Polynomial],
        source_generators: Sequence[Polynomial],
    ):
        self.order = order
        self.field = field
        self.basis = tuple(basis)
        self.source_generators = tuple(source_generators)
        self.nvars = basis[0].nvars if basis else (
            source_generators[0].nvars if source_generators else 0
        )
        self._data = _basis_data(self.basis, order)

    def __iter__(self):
        return iter(self.basis)

    def __len__(self) -> int:
        return len(self.basis)

    def __repr__(self) -> str:
        return f"GroebnerBasis({self.order}, {self.field}, {len(self.basis)} elements)"

    @property
    def is_unit_ideal(self) -> bool:
        return any(g.is_constant and not g.is_zero for g in self.basis)

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.field != self.field or (self.basis and f.nvars != self.nvars):
            raise ValueError("polynomial incompatible with basis")
        reduced = _reduce_terms(f.terms, self._data, self.order, self.field)
        return Polynomial(f.field, f.nvars, reduced)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero


def buchberger(
    generators: Sequence[Polynomial],
    order: MonomialOrder = GREVLEX,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    deadline: float | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``generators``.

    ``max_pairs`` bounds the S-polynomials reduced; ``deadline`` is an
    absolute ``time.monotonic()`` instant, checked at every popped pair and
    between the element reductions of interreduction.
    """
    gens = [g for g in generators if not g.is_zero]
    if not generators:
        raise ValueError("generator list must be nonempty")
    field = generators[0].field
    nvars = generators[0].nvars
    for g in generators:
        if g.field != field or g.nvars != nvars:
            raise ValueError("generators must share field and variable count")
    if not gens:
        return GroebnerBasis(order, field, [], generators)

    data = _basis_data([g.monic(order) for g in gens], order)
    _interreduce(data, order, field, deadline)
    basis = [_polynomial(field, nvars, e) for e in data]
    lms: list[Monomial] = [lm for _, lm, _ in data]
    key = order.key

    def pair_entry(i: int, j: int):
        lcm = mono_lcm(lms[i], lms[j])
        return (sum(lcm), key(lcm), i, j)

    pairs = [pair_entry(i, j) for j in range(len(basis)) for i in range(j)]
    heapq.heapify(pairs)
    done: set[tuple[int, int]] = set()
    reductions = 0

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        check_deadline(deadline, reductions)
        done.add((i, j))
        lcm = mono_lcm(lms[i], lms[j])
        # product criterion: coprime leading monomials reduce to zero
        if all(a == 0 or b == 0 for a, b in zip(lms[i], lms[j])):
            continue
        # chain criterion: a third element dividing the lcm whose pairs with
        # both i and j were already treated makes this pair redundant
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if (
                mono_divides(lms[k], lcm)
                and (min(i, k), max(i, k)) in done
                and (min(j, k), max(j, k)) in done
            ):
                skip = True
                break
        if skip:
            continue

        reductions += 1
        if reductions > max_pairs:
            raise BudgetExceededError(
                f"S-pair budget of {max_pairs} exceeded", reductions
            )
        s_terms = _spoly_terms(basis[i], basis[j], lms[i], lms[j], lcm, field)
        remainder = _reduce_terms(s_terms, data, order, field)
        if not remainder:
            continue
        r = Polynomial(field, nvars, remainder).monic(order)
        if r.is_constant:
            return GroebnerBasis(
                order, field, [Polynomial.constant(field, nvars, 1)], generators
            )
        t = len(basis)
        basis.append(r)
        entry = _entry(r, order)
        lms.append(entry[1])
        bisect.insort(data, entry, key=_KEY)
        for k in range(t):
            heapq.heappush(pairs, pair_entry(k, t))

    reduced = _reduce_basis(data, order, field, deadline)
    return GroebnerBasis(
        order, field, [_polynomial(field, nvars, e) for e in reduced], generators
    )


def _spoly_terms(gi, gj, lmi, lmj, lcm, field):
    ui = tuple(a - b for a, b in zip(lcm, lmi))
    uj = tuple(a - b for a, b in zip(lcm, lmj))
    zero = field.zero
    out: dict[Monomial, object] = {}
    for m, c in gi.terms.items():
        nm = tuple(a + b for a, b in zip(m, ui))
        acc = field.add(out.get(nm, zero), c)
        if acc == zero:
            out.pop(nm, None)
        else:
            out[nm] = acc
    for m, c in gj.terms.items():
        nm = tuple(a + b for a, b in zip(m, uj))
        acc = field.sub(out.get(nm, zero), c)
        if acc == zero:
            out.pop(nm, None)
        else:
            out[nm] = acc
    return out


def _interreduce(data: list, order: MonomialOrder, field: Field, deadline: float | None):
    """Reduce each entry of the sorted list modulo the others, in place,
    until no leading monomial changes; entries that reduce to zero drop out.

    Whether an element is reduced depends only on the other leading
    monomials, so a pass that changes none of them is the last.  A reduced
    element never gets a larger leading monomial, so it goes back in at or
    before its old position and the pass goes on with the next entry.
    """
    key = order.key
    one = field.one
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(data):
            check_deadline(deadline)
            k, lm, tail = data.pop(i)  # the others are the list without it
            terms = dict(tail)
            terms[lm] = one
            remainder = _reduce_terms(terms, data, order, field)
            if not remainder:
                continue
            new_lm = max(remainder, key=key)
            if new_lm == lm:
                del remainder[lm]
                data.insert(i, (k, lm, list(remainder.items())))
            else:
                changed = True
                inv = field.inv(remainder.pop(new_lm))
                tail = [(m, field.mul(c, inv)) for m, c in remainder.items()]
                bisect.insort(data, (key(new_lm), new_lm, tail), key=_KEY)
            i += 1
    return data


def _reduce_basis(data: list, order: MonomialOrder, field: Field, deadline: float | None):
    """The reduced basis, as sorted entries, of a Groebner basis given as
    sorted entries."""
    # minimalize: drop elements whose leading monomial a smaller one divides
    minimal: list = []
    for entry in data:
        if not any(mono_divides(lm, entry[1]) for _, lm, _ in minimal):
            minimal.append(entry)
    return _interreduce(minimal, order, field, deadline)


def radical_member(
    f: Polynomial,
    generators: Sequence[Polynomial],
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    deadline: float | None = None,
) -> bool:
    """True iff some power of f lies in the generated ideal.

    Adjoins one fresh variable t (appended last) and tests whether 1 lies
    in (generators, 1 - t*f); membership of 1 is order-independent, so the
    extended computation runs in grevlex.
    """
    if not generators:
        raise ValueError("generator list must be nonempty")
    nvars = generators[0].nvars
    if f.nvars != nvars:
        raise ValueError("variable count mismatch")
    ext = [g.extend(nvars + 1) for g in generators]
    t = Polynomial.variable(f.field, nvars + 1, nvars + 1)
    ext.append(Polynomial.constant(f.field, nvars + 1, 1) - t * f.extend(nvars + 1))
    gb = buchberger(ext, GREVLEX, max_pairs=max_pairs, deadline=deadline)
    return gb.is_unit_ideal


def radical_equals_irrelevant(
    generators: Sequence[Polynomial],
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    deadline: float | None = None,
) -> bool:
    """True iff the radical of the generated ideal is (x1, ..., xN).

    Requires homogeneous generators of positive degree, for which the
    radical lies in the irrelevant ideal automatically; equality then holds
    iff K[x]/I is finite-dimensional, that is iff every variable has a pure
    power among the leading monomials of one grevlex Groebner basis.
    """
    if not generators:
        raise ValueError("generator list must be nonempty")
    for g in generators:
        if g.is_zero or not g.is_homogeneous() or g.total_degree() < 1:
            raise ValueError("generators must be homogeneous of positive degree")
    gb = buchberger(generators, GREVLEX, max_pairs=max_pairs, deadline=deadline)
    powers = set()
    for _, lm, _ in gb._data:
        support = [i for i, e in enumerate(lm) if e]
        if len(support) == 1:
            powers.add(support[0])
    return len(powers) == gb.nvars
