"""Orbit ideals and their membership machinery.

An orbit ideal is generated by all images of finitely many seed
polynomials under a permutation group.  Membership of a homogeneous
polynomial in a fixed degree is a linear-algebra question: its
coefficient vector must lie in the span of monomial multiples of the
expanded generators.  This route is independent of the Groebner route in
:mod:`symorbits.groebner` and the two are cross-checked in the tests.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .groebner import GroebnerBasis, buchberger
from .linalg import ExactMatrix, in_span, spin_rank
from .permutations import DEFAULT_GROUP_BOUND, PermGroup, _orbit_size, _row_perms, orbit
from .polynomials import (
    GREVLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    _format_monomial,
    count_of_type,
    monomial_type,
    monomials_of_degree,
    monomials_of_type,
)
from .reports import CertificateError, VerdictReport, check_deadline


@dataclass(frozen=True)
class OrbitIdeal:
    """Seeds together with their fully expanded, deduplicated orbit."""

    group: PermGroup
    seeds: tuple[Polynomial, ...]
    expanded: tuple[Polynomial, ...]

    @property
    def field(self):
        return self.seeds[0].field

    @property
    def nvars(self) -> int:
        return self.seeds[0].nvars

    def groebner_basis(self, order: MonomialOrder = GREVLEX, *,
                       deadline: float | None = None) -> GroebnerBasis:
        return buchberger(list(self.expanded), order, deadline=deadline)


def orbit_ideal(seeds: Sequence[Polynomial], group: PermGroup, *,
                deadline: float | None = None) -> OrbitIdeal:
    """The orbit ideal of the seeds: its generators are the union of their
    orbits, canonically ordered (one seed's orbit is already distinct and
    ordered, so it is kept as ``orbit`` returns it); ``deadline`` is
    checked as in ``orbit``."""
    if not seeds:
        raise ValueError("need at least one seed polynomial")
    field = seeds[0].field
    for f in seeds:
        if f.field != field:
            raise ValueError("seeds must share a field")
        if f.nvars != group.degree:
            raise ValueError(f"seed nvars {f.nvars} != group degree {group.degree}")
        if f.is_zero:
            raise ValueError("zero polynomial cannot seed an orbit ideal")
    orbits = [orbit(f, group, deadline=deadline) for f in seeds]
    expanded = orbits[0] if len(orbits) == 1 else tuple(
        sorted(set().union(*orbits), key=Polynomial.sort_key)
    )
    return OrbitIdeal(group, tuple(seeds), expanded)


@dataclass
class GradedPiece:
    """Column space of one degree slice of an orbit ideal.

    Rows are indexed by ``monomial_index``; column j is the coefficient
    vector of ``multiplier * generator`` recorded in ``column_meta[j]``.
    """

    degree: int
    monomial_index: tuple[Monomial, ...]
    matrix: ExactMatrix
    column_meta: tuple[tuple[int, Monomial], ...]


def _product_matrix(
    ideal: OrbitIdeal, degree: int, target: Polynomial | None = None, *, deadline: float | None
) -> tuple[tuple[Monomial, ...], ExactMatrix, tuple[tuple[int, Monomial], ...]]:
    """The row index, the matrix of the products u * g and (generator index,
    u) for each column: deg(u * g) = degree for homogeneous generators (no
    ``target``), else every u of degree at most degree - mindeg(g), with
    rows for the monomials of the products and the target.  Inside, a
    monomial of degree at most D, the largest product degree, is the int
    sum e_i (D+1)^i, so u * m is code(u) + code(m).  ``deadline`` is checked
    per generator and per column."""
    n, gens = ideal.nvars, ideal.expanded
    tops = [degree - g.min_degree() for g in gens]
    radix = 1 + max([degree] + [top + g.total_degree() for top, g in zip(tops, gens)])
    weights = [radix**i for i in range(n)]

    def code(m: Monomial) -> int:
        return sum(map(operator.mul, m, weights))

    multipliers: dict[int, list[tuple[Monomial, int]]] = {}
    blocks = []  # (generator index, its (code, coefficient) terms, multipliers)
    for gi, (g, top) in enumerate(zip(gens, tops)):
        check_deadline(deadline)
        if top < 0:
            continue
        terms = [(code(m), c) for m, c in g.terms.items()]
        for k in range(top if target is None else 0, top + 1):
            if k not in multipliers:
                multipliers[k] = [(u, code(u)) for u in monomials_of_degree(n, k)]
            blocks.append((gi, terms, multipliers[k]))
    if target is None:
        index = monomials_of_degree(n, degree)
    else:
        codes = {code(m) for m in target.terms}
        for _, terms, us in blocks:
            codes.update(cu + cm for _, cu in us for cm, _ in terms)
        index = [tuple(c // w % radix for w in weights) for c in codes]
    index.sort(key=GREVLEX.key, reverse=True)
    pos = {code(m): i for i, m in enumerate(index)}

    def columns():
        for _, terms, us in blocks:
            for _, cu in us:
                check_deadline(deadline)
                yield {pos[cu + cm]: c for cm, c in terms}

    matrix = ExactMatrix(ideal.field, len(index), columns())
    return tuple(index), matrix, tuple((gi, u) for gi, _, us in blocks for u, _ in us)


def _by_monomial(index: Sequence[Monomial], vector) -> dict[str, str]:
    """The nonzero entries of a vector over the rows of ``index``, keyed by
    monomial text."""
    return {_format_monomial(m) or "1": str(c) for m, c in zip(index, vector) if c}


def graded_piece(
    ideal: OrbitIdeal, degree: int, *, deadline: float | None = None
) -> GradedPiece:
    """The degree slice spanned by {u * g} with deg(u) + deg(g) = degree;
    ``deadline`` is checked per generator and per column."""
    if not all(g.is_homogeneous() for g in ideal.expanded):
        raise ValueError("graded piece requires homogeneous generators")
    return GradedPiece(degree, *_product_matrix(ideal, degree, deadline=deadline))


def graded_member(
    target: Polynomial, ideal: OrbitIdeal, *, deadline: float | None = None
) -> VerdictReport:
    """Membership of a bounded-degree combination, by exact linear algebra.

    With homogeneous seeds and a homogeneous target this decides ideal
    membership outright (a homogeneous ideal is the direct sum of its
    degree slices).  With inhomogeneous seeds the combination search is
    truncated at multiplier degree deg(target) - mindeg(seed).  A true
    verdict carries the combination, re-verified by polynomial arithmetic;
    a false one a dual vector over the monomials that vanishes on every
    multiple searched and not on the target, checked exactly.  ``deadline``
    is checked per column of the build and of the elimination.
    """
    if target.field != ideal.field or target.nvars != ideal.nvars:
        raise ValueError("target incompatible with ideal")
    if target.is_zero:
        return VerdictReport(
            claim_id="graded-membership",
            parameters={"target": str(target)},
            verdict=True,
            certificate={"combination": []},
            notes="zero polynomial lies in every ideal",
        )
    homogeneous_setting = all(g.is_homogeneous() for g in ideal.expanded)
    if homogeneous_setting:
        if not target.is_homogeneous():
            raise ValueError("target must be homogeneous when the seeds are homogeneous")
        piece = graded_piece(ideal, target.total_degree(), deadline=deadline)
        index, matrix, meta = piece.monomial_index, piece.matrix, piece.column_meta
    else:
        # multipliers of degree at most deg(target) - mindeg(generator)
        index, matrix, meta = _product_matrix(
            ideal, target.total_degree(), target, deadline=deadline
        )
    vector = [target.terms.get(m, target.field.zero) for m in index]

    member, coeffs = in_span(vector, matrix, deadline=deadline)
    parameters = {
        "target": str(target),
        "group": ideal.group.descriptor,
        "generators": len(ideal.expanded),
        "columns": matrix.ncols,
        "mode": "graded" if homogeneous_setting else "bounded-multiplier",
    }
    if not member:
        return VerdictReport(
            "graded-membership",
            parameters,
            False,
            certificate={"dual_vector": _by_monomial(index, coeffs)},
            notes="the dual vector vanishes on every column and not on the target, "
            "checked exactly",
        )

    field, gens, zero = target.field, ideal.expanded, target.field.zero
    combination = []
    names: dict[int, str] = {}  # each generator formatted once
    total: dict[Monomial, object] = {}  # the combination, summed term by term
    for (gi, u), c in zip(meta, coeffs):
        if not c:
            continue
        for m, a in gens[gi].terms.items():
            m = tuple(map(operator.add, u, m))
            total[m] = field.add(total.get(m, zero), field.mul(c, a))
        if gi not in names:
            names[gi] = str(gens[gi])
        combination.append({
            "generator": names[gi],
            "multiplier": _format_monomial(u) or "1",
            "coefficient": str(c),
        })
    if {m: x for m, x in total.items() if x} != target.terms:
        raise CertificateError("membership certificate failed polynomial re-verification")
    return VerdictReport(
        "graded-membership",
        parameters,
        True,
        certificate={"combination": combination},
        notes="certificate re-verified by polynomial arithmetic",
    )


def ideal_equal(
    left: OrbitIdeal | Sequence[Polynomial],
    right: OrbitIdeal | Sequence[Polynomial],
    *,
    deadline: float | None = None,
) -> VerdictReport:
    """Equality of two ideals via mutual normal forms in grevlex bases
    (membership, hence equality, does not depend on the order)."""
    gens_left = list(left.expanded) if isinstance(left, OrbitIdeal) else list(left)
    gens_right = list(right.expanded) if isinstance(right, OrbitIdeal) else list(right)
    if not gens_left or not gens_right:
        raise ValueError("both generator lists must be nonempty")
    if gens_left[0].field != gens_right[0].field or gens_left[0].nvars != gens_right[0].nvars:
        raise ValueError("ideals must share field and variable count")
    gb_left = buchberger(gens_left, deadline=deadline)
    gb_right = buchberger(gens_right, deadline=deadline)
    failures = []
    for g in gens_left:
        if not gb_right.contains(g):
            failures.append(("left-generator-not-in-right", str(g)))
    for g in gens_right:
        if not gb_left.contains(g):
            failures.append(("right-generator-not-in-left", str(g)))
    parameters = {
        "field": str(gens_left[0].field),
        "nvars": gens_left[0].nvars,
        "left_generators": len(gens_left),
        "right_generators": len(gens_right),
    }
    if failures:
        return VerdictReport(
            "ideal-equality",
            parameters,
            False,
            certificate={"failures": [f"{kind}: {g}" for kind, g in failures]},
        )
    return VerdictReport(
        "ideal-equality",
        parameters,
        True,
        certificate={"checked_normal_forms": len(gens_left) + len(gens_right)},
    )


def rank_condition(
    f: Polynomial, group: PermGroup, *, deadline: float | None = None
) -> VerdictReport:
    """Full-rank test deciding whether the orbit ideal of a single-type
    polynomial is the monomial ideal generated by the orbit of its terms.

    Columns are the coefficient vectors of the distinct orbit images of f
    inside the space spanned by all monomials of the shared type; the
    verdict is true iff their span is the whole space.  That span is the
    least G-stable one holding f, so it is spun from f under the generators
    (``linalg.spin_rank``).  The certificate holds the prime that settled
    the rank (2^61 - 1, or a larger listed prime after a failed lift or
    check) and, on a false verdict, a left-kernel vector over the
    monomials, checked exactly against every spun vector, which proves
    their span G-stable.  The distinct images are counted, not walked, by
    orbit-stabilizer (``permutations._orbit_size``); the count is reported
    and bounds the copies of f in the Hadamard bound of the retry.
    ``deadline`` is checked per monomial walked by the transitivity check
    (none under S_N), per image of the subgroup walked by the count and
    per vector spun.

    Past ``DEFAULT_GROUP_BOUND`` monomials of the type, counted in closed
    form (``count_of_type``) before any is listed, or past as many images
    walked by the count, it raises ValueError.
    """
    if f.is_zero:
        raise ValueError("zero polynomial has no type")
    if f.nvars != group.degree:
        raise ValueError("variable count mismatch")
    types = {monomial_type(m) for m in f.terms}
    if len(types) != 1:
        raise ValueError(f"support mixes types {sorted(types)}")
    mono_type = next(iter(types))
    rows = count_of_type(mono_type, f.nvars)
    if rows > DEFAULT_GROUP_BOUND:
        raise ValueError(
            f"{rows} monomials of type {mono_type} exceed enumeration bound {DEFAULT_GROUP_BOUND}"
        )
    if not group.transitive_on_type(mono_type, deadline=deadline):
        raise ValueError(
            f"group {group.descriptor} is not transitive on monomials of type {mono_type}"
        )
    row_index = sorted(monomials_of_type(mono_type, f.nvars), key=GREVLEX.key, reverse=True)
    n = len(row_index)
    images = _orbit_size(f, group, deadline=deadline)
    column = {i: f.terms[m] for i, m in enumerate(row_index) if m in f.terms}
    perms = _row_perms(group.generators, row_index)
    got = spin_rank(f.field, n, column, perms, images, deadline=deadline)
    verdict = got.rank == n
    certificate = {"full_rank": verdict, "prime": got.prime}
    if not verdict:
        certificate["dual_vector"] = _by_monomial(row_index, got.dual)
    return VerdictReport(
        "monomial-ideal-rank",
        {
            "type": mono_type,
            "group": group.descriptor,
            "field": str(f.field),
            "monomials_of_type": n,
            "distinct_orbit_vectors": images,
            "rank": got.rank,
        },
        verdict,
        certificate=certificate,
        notes=(
            "orbit ideal is monomial, generated by the orbit of any term"
            if verdict
            else "orbit coefficient matrix is rank-deficient: the dual vector "
            "vanishes on every orbit vector, checked exactly"
        ),
    )
