"""Buchberger's algorithm with reduced bases, normal forms, and radical
membership via one adjoined variable.

The pair loop uses the normal selection strategy (smallest lcm first)
together with the product and chain criteria.  Every run is bounded by a
configurable S-pair budget and an optional wall-clock deadline; exceeding
either raises :class:`BudgetExceededError`, which is distinct from any
membership verdict.
"""

from __future__ import annotations

import heapq
import time
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

DEFAULT_MAX_PAIRS = 1_000_000


class BudgetExceededError(RuntimeError):
    """The S-pair budget or deadline was exhausted before completion."""

    def __init__(self, message: str, pairs_processed: int):
        super().__init__(message)
        self.pairs_processed = pairs_processed


def _neg(key: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-k for k in key)


def _reduce_terms(
    terms: dict[Monomial, object],
    basis: list[tuple[Monomial, list]],
    order: MonomialOrder,
    field: Field,
) -> dict[Monomial, object]:
    """Remainder of the term dict modulo monic (lm, tail) divisors."""
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
        for lm, tail in basis:
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


def _basis_data(polys: Sequence[Polynomial], order: MonomialOrder):
    """(leading monomial, tail items) for monic polynomials, ascending lm."""
    data = []
    for g in polys:
        lm = g.leading_monomial(order)
        tail = [(m, c) for m, c in g.terms.items() if m != lm]
        data.append((lm, tail))
    data.sort(key=lambda t: order.key(t[0]))
    return data


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

    ``deadline`` is an absolute ``time.monotonic()`` instant; the pair loop
    checks it between S-pairs.
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

    work = _interreduce([g.monic(order) for g in gens], order, field)
    basis: list[Polynomial] = list(work)
    lms: list[Monomial] = [g.leading_monomial(order) for g in basis]
    data = _basis_data(basis, order)
    key = order.key

    def pair_entry(i: int, j: int):
        lcm = mono_lcm(lms[i], lms[j])
        return (sum(lcm), key(lcm), i, j)

    pairs = [pair_entry(i, j) for j in range(len(basis)) for i in range(j)]
    heapq.heapify(pairs)
    done: set[tuple[int, int]] = set()
    processed = 0

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        processed += 1
        if processed > max_pairs:
            raise BudgetExceededError(
                f"S-pair budget of {max_pairs} exceeded", processed
            )
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceededError("wall-clock budget exceeded", processed)
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
        lms.append(r.leading_monomial(order))
        data = _basis_data(basis, order)
        for k in range(t):
            heapq.heappush(pairs, pair_entry(k, t))

    reduced = _reduce_basis(basis, order, field)
    return GroebnerBasis(order, field, reduced, generators)


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


def _interreduce(polys: list[Polynomial], order: MonomialOrder, field: Field) -> list[Polynomial]:
    """Reduce each polynomial modulo the others until stable; drop zeros."""
    current = [p for p in polys if not p.is_zero]
    changed = True
    while changed:
        changed = False
        for idx in range(len(current)):
            g = current[idx]
            others = current[:idx] + current[idx + 1 :]
            if not others:
                continue
            reduced = _reduce_terms(g.terms, _basis_data(others, order), order, field)
            r = Polynomial(g.field, g.nvars, reduced)
            if r.is_zero:
                current.pop(idx)
                changed = True
                break
            r = r.monic(order)
            if r != g:
                current[idx] = r
                changed = True
    return current


def _reduce_basis(basis: list[Polynomial], order: MonomialOrder, field: Field) -> list[Polynomial]:
    # minimalize: drop elements whose leading monomial another divides
    basis = sorted(basis, key=lambda g: order.key(g.leading_monomial(order)))
    minimal: list[Polynomial] = []
    lms: list[Monomial] = []
    for g in basis:
        lm = g.leading_monomial(order)
        if any(mono_divides(other, lm) for other in lms):
            continue
        minimal.append(g)
        lms.append(lm)
    reduced = _interreduce(minimal, order, field)
    return sorted(reduced, key=lambda g: order.key(g.leading_monomial(order)))


def ideal_member(
    f: Polynomial,
    generators: Sequence[Polynomial],
    order: MonomialOrder = GREVLEX,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    deadline: float | None = None,
) -> bool:
    gb = buchberger(generators, order, max_pairs=max_pairs, deadline=deadline)
    return gb.contains(f)


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
    radical is contained in the irrelevant ideal automatically; equality
    then reduces to radical membership of every variable.
    """
    if not generators:
        raise ValueError("generator list must be nonempty")
    for g in generators:
        if g.is_zero or not g.is_homogeneous() or g.total_degree() < 1:
            raise ValueError("generators must be homogeneous of positive degree")
    nvars = generators[0].nvars
    return all(
        radical_member(
            Polynomial.variable(generators[0].field, nvars, i),
            generators,
            max_pairs=max_pairs,
            deadline=deadline,
        )
        for i in range(1, nvars + 1)
    )
