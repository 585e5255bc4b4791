"""Verdict-producing checkers for the structural claims about orbit ideals:
the elimination identity expressing a square-free monomial through
elementary symmetric orbits, the telescoping membership chain, the
square-free orbit-ideal equality, whether the radical of an orbit ideal
is the monomial ideal its term supports fix, and witness searches for
ideals whose radical contains no monomial.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .fields import QQ, Field, Raw, binomial
from .groebner import radical_equals_irrelevant, radical_member
from .ideals import orbit_ideal, rank_condition
from .permutations import DEFAULT_GROUP_BOUND, PermGroup, Permutation, _closure, _orbit_size
from .permutations import _tuple_orbit
from .polynomials import Polynomial, elementary_symmetric
from .reports import CertificateError, VerdictReport, check_deadline


# -- elimination identity ----------------------------------------------------


def solve_cancellation_system(n: int, d: int) -> list[Fraction]:
    """Coefficients c_0..c_d determined degree by degree so that in

        sum_{j} (-1)^j c_j sum_{|J cap {1..d}| = d-j} e_n^d(x_J)

    every square-free monomial using fewer than d of x_1..x_d cancels.
    The j-th inner sum contributes a monomial sharing a variables with
    {1..d} exactly C(d-a, j) * C(n-d+a, d-j) times, which makes the system
    triangular with an invertible diagonal."""
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got n={n}, d={d}")
    coeffs = [Fraction(1)]
    for r in range(1, d + 1):
        a = d - r
        acc = Fraction(0)
        for j in range(r):
            acc += (-1) ** j * coeffs[j] * binomial(d - a, j) * binomial(n - d + a, d - j)
        diagonal = Fraction((-1) ** r * binomial(n - r, d - r))
        coeffs.append(-acc / diagonal)
    return coeffs


def elimination_coefficients(n: int, d: int, field: Field = QQ) -> list[Raw]:
    """The closed-form coefficients C(n-1, d) / C(n-1, d-j) as raw values
    of ``field``, cross-checked against the independently solved
    cancellation system.

    Over a prime field, a coefficient whose reduced denominator vanishes
    raises ValueError naming the offending index.
    """
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got n={n}, d={d}")
    closed = [Fraction(binomial(n - 1, d), binomial(n - 1, d - j)) for j in range(d + 1)]
    solved = solve_cancellation_system(n, d)
    if closed != solved:
        raise CertificateError(
            f"closed form {closed} disagrees with cancellation system {solved}"
        )
    out = []
    p = field.characteristic
    for j, c in enumerate(closed):
        if p and c.denominator % p == 0:
            raise ValueError(
                f"coefficient c_{j} = {c} is undefined over {field}: "
                f"denominator vanishes (characteristic too small)"
            )
        out.append(field.coerce(c))
    return out


def verify_elimination_identity(
    n: int, d: int, field: Field = QQ, *, deadline: float | None = None
) -> VerdictReport:
    """Expand, in n+d variables,

        C(n, d) * x1...xd  ==  sum_{j=0}^{d} (-1)^j c_j
                               sum_{J} e_n^d(x_J)

    where J runs over the n-element subsets of {1..n+d} meeting {1..d} in
    exactly d-j indices, and compare both sides exactly.  Both sides are
    fixed by every permutation of {1..d} and of {d+1..n+d}, whose orbits on
    the square-free monomials x_S of degree d are the classes
    a = |S cap {1..d}|, so every x_S has the coefficient of its class
    representative S = {1..a} u {d+1..2d-a}.  That coefficient is expanded
    by visiting the C(n, d) subsets J containing S, tallying each J under
    its j, and summing (-1)^j c_j over the visits, minus C(n, d) for a = d.
    On a false verdict every monomial of a failing class enters the
    ``difference``.  More than ``DEFAULT_GROUP_BOUND`` subsets J per class
    are refused with ValueError before any is visited; ``deadline`` is
    checked once per subset J and once per monomial of a failing class."""
    nvars = n + d
    coeffs = elimination_coefficients(n, d, field)
    per_class = binomial(n, d)
    if per_class > DEFAULT_GROUP_BOUND:
        raise ValueError(f"{per_class} subsets J per class exceed enumeration bound "
                         f"{DEFAULT_GROUP_BOUND}")
    terms = {}
    for a in range(d + 1):
        # J is S plus n-d of the other indices, those in {1..d} being a+1..d
        rest = [i for i in range(a + 1, nvars + 1) if not d < i <= 2 * d - a]
        tally = [0] * (d + 1)
        for extra in itertools.combinations(rest, n - d):
            check_deadline(deadline)
            tally[d - a - sum(i <= d for i in extra)] += 1
        c = field.coerce(sum((-1) ** j * coeffs[j] * k for j, k in enumerate(tally))
                         - (per_class if a == d else 0))
        if not c:
            continue
        for inside in itertools.combinations(range(d), a):
            for outside in itertools.combinations(range(d, nvars), d - a):
                check_deadline(deadline)
                terms[tuple(int(i in inside + outside) for i in range(nvars))] = c
    difference = Polynomial(field, nvars, terms)
    return VerdictReport(
        "elimination-identity",
        {"n": n, "d": d, "field": str(field), "nvars": nvars},
        difference.is_zero,
        certificate={
            "coefficients": [str(c) for c in coeffs],
            "difference": str(difference),
        },
        notes="symbolic expansion compared exactly",
    )


# -- telescoping membership chain ---------------------------------------------


@dataclass
class TelescopingCertificate:
    """Chain of differences proving that the product (x1 - x_{n+1}) ...
    (xd - x_{n+d}) lies in the orbit ideal of e_n^d.

    step i applies the transposition (i, n+i) to the previous link;
    ``factored[i]`` is the independently constructed factored form that the
    link is asserted to equal."""

    n: int
    d: int
    nvars: int
    start: Polynomial
    transpositions: list[Permutation]
    chain: list[Polynomial]
    factored: list[Polynomial]

    @property
    def final(self) -> Polynomial:
        return self.chain[-1]


def telescoping_certificate(n: int, d: int, nvars: int, field: Field = QQ) -> TelescopingCertificate:
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got n={n}, d={d}")
    if nvars < n + d:
        raise ValueError(f"need nvars >= n+d = {n + d}, got {nvars}")
    start = elementary_symmetric(nvars, range(1, n + 1), d, field)
    current = start
    transpositions = []
    chain = []
    factored_forms = []
    for i in range(1, d + 1):
        tau = Permutation.transposition(nvars, i, n + i)
        current = current - tau.act(current)
        product = Polynomial.constant(field, nvars, 1)
        for k in range(1, i + 1):
            product = product * (
                Polynomial.variable(field, nvars, k) - Polynomial.variable(field, nvars, n + k)
            )
        if d - i >= 1:
            product = product * elementary_symmetric(
                nvars, range(i + 1, n + 1), d - i, field
            )
        if current != product:
            raise CertificateError(f"telescoping step {i} failed its factored form")
        transpositions.append(tau)
        chain.append(current)
        factored_forms.append(product)
    return TelescopingCertificate(
        n=n, d=d, nvars=nvars, start=start,
        transpositions=transpositions, chain=chain, factored=factored_forms,
    )


# -- square-free orbit ideals -------------------------------------------------


def verify_squarefree_orbit(
    f: Polynomial, nvars: int, *, deadline: float | None = None
) -> VerdictReport:
    """For homogeneous f with square-free terms in n variables, checked in
    a ring with ``nvars`` variables under the full symmetric group:

    * if f at the all-ones point is nonzero, check that the orbit ideal of
      f equals the orbit ideal of x1...xd, the square-free monomial ideal
      of degree d (guaranteed once nvars >= n+d).  Every term has type
      (1^d), so the orbit ideal lies in that monomial ideal, and equals it
      exactly when the orbit spans every square-free monomial of degree d:
      the verdict is the rank condition on type (1^d) in ``nvars``
      variables, and the certificate is the rank it found, with, on a
      false verdict, the dual vector that the rank condition checked
      exactly;
    * if it is zero, the all-ones point kills every generator, so neither
      the ideal nor its radical contains any monomial: it is invariant
      under S_N, so sigma.f(1, ..., 1) = f(1, ..., 1) = 0.  The generators
      are counted, not walked (``permutations._orbit_size``).

    ``deadline`` is checked by ``rank_condition`` or by the count.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if not f.is_homogeneous():
        raise ValueError("polynomial must be homogeneous")
    if not f.is_squarefree_supported():
        raise ValueError("polynomial must have only square-free terms")
    n = f.nvars
    d = f.total_degree()
    ch = f.field.characteristic
    if ch and ch <= n:
        raise ValueError(f"characteristic {ch} must be 0 or exceed n = {n}")
    if nvars < n:
        raise ValueError(f"need nvars >= {n}")
    group = PermGroup.symmetric(nvars)
    extended = f.extend(nvars)
    ones = [1] * nvars
    c = extended.evaluate(ones)
    parameters = {
        "n": n,
        "d": d,
        "nvars": nvars,
        "field": str(f.field),
        "coefficient_sum": str(c),
    }
    if c:
        notes = ""
        if nvars < n + d:
            notes = f"nvars below the guaranteed range nvars >= n+d = {n + d}"
        ranked = rank_condition(extended, group, deadline=deadline)
        parameters["branch"] = "monomial-equality"
        certificate = {
            key: ranked.parameters[key]
            for key in ("rank", "monomials_of_type", "distinct_orbit_vectors")
        }
        if not ranked.verdict:
            certificate["dual_vector"] = ranked.certificate["dual_vector"]
        return VerdictReport(
            "squarefree-orbit", parameters, ranked.verdict, certificate=certificate, notes=notes
        )
    parameters["branch"] = "all-ones-witness"
    return VerdictReport(
        "squarefree-orbit",
        parameters,
        True,
        certificate={
            "witness": ones, "generators_checked": _orbit_size(extended, group, deadline=deadline)
        },
        notes="the all-ones point kills every generator: no monomial lies in the radical",
    )


# -- radical equality with the monomial ideal of the minimal supports ----------


def radical_orbit_equality(
    f: Polynomial,
    group: PermGroup,
    *,
    deadline: float | None = None,
) -> VerdictReport:
    """Whether the radical of the orbit ideal I of f is the square-free
    monomial ideal M generated by x_S for every minimal term support S of
    the orbit.

    Every term of every generator lies in M, and M is radical, so the
    radical of I always lies in M; equality holds exactly when every x_S
    lies in the radical, and by equivariance one S per group orbit of
    minimal supports suffices.  The minimal supports come from f's own
    supports (``_minimal_supports``); G.f is walked once, for the
    generators the Groebner step needs.  When the minimal supports are the
    N singletons, M is (x1, ..., xN) and one grevlex basis decides it
    (``radical_equals_irrelevant``); otherwise each orbit representative,
    the largest exponent vector of its orbit (on an antichain, the
    lexicographically smallest support), gets one radical membership test,
    stopping at the first false.
    """
    if f.is_zero or not f.is_homogeneous():
        raise ValueError("polynomial must be homogeneous and nonzero")
    if f.nvars != group.degree:
        raise ValueError("variable count mismatch")
    generators = list(orbit_ideal([f], group, deadline=deadline).expanded)
    minimal = _minimal_supports(f, group, deadline=deadline)
    # the minimal supports of an orbit form a G-stable set
    representatives = []
    remaining = set(minimal)
    while remaining:
        representatives.append(max(remaining))
        remaining -= _tuple_orbit([representatives[-1]], group.generators, deadline)
    monomials = [Polynomial.from_monomial(f.field, s) for s in representatives]
    notes = ""
    if all(sum(s) == 1 for s in minimal) and len(minimal) == f.nvars:
        route = "finiteness"
        verdict = radical_equals_irrelevant(generators, deadline=deadline)
    else:
        route = "radical-membership"
        verdict = True
        for x_s in monomials:
            if not radical_member(x_s, generators, deadline=deadline):
                verdict = False
                notes = f"{x_s} is not in the radical"
                break
    if not verdict:
        witness = monomial_free_witness(f, group, deadline=deadline)
        if witness is not None:
            found = f"witness point {tuple(str(x) for x in witness)} kills every generator"
            notes = f"{notes}; {found}" if notes else found
    return VerdictReport(
        "radical-orbit-equality",
        {
            "field": str(f.field),
            "nvars": f.nvars,
            "group": group.descriptor,
            "generators": len(generators),
            "minimal_supports": len(minimal),
        },
        verdict,
        certificate={"route": route, "representatives": [str(x) for x in monomials]},
        notes=notes,
    )


# -- witness search -------------------------------------------------------------


def _minimal_supports(f: Polynomial, group: PermGroup, *,
                      deadline: float | None = None) -> set[tuple[int, ...]]:
    """The inclusion-minimal term supports of the orbit ideal of f, as
    square-free exponent vectors: the x_S for these S generate the monomial
    ideal M that holds every term.  The terms of sigma.f are sigma applied
    to the terms of f, so these are the minimal elements of the closure of
    f's own supports.  Minimality is G-invariant, so they are the orbits
    of those own supports that no support of the closure properly
    contains: |own| x |closure| comparisons, then a walk inside the closure
    that the first walk bounded."""
    own = {tuple(int(e > 0) for e in m) for m in f.terms}
    supports = _tuple_orbit(own, group.generators, deadline)
    least = [s for s in own
             if not any(t != s and all(map(operator.le, t, s)) for t in supports)]
    return _closure(least, lambda s: (g.act_monomial(s) for g in group.generators),
                    deadline=deadline)


def _constant_point_roots(f: Polynomial, deadline: float | None) -> list:
    """Nonzero constants t with f(t, ..., t) = 0: none when f(t, ..., t)
    is a single term c*t^e (as for every homogeneous f), else a
    rational-root search over the rationals and an exhaustive search over
    a prime field; ``deadline`` is checked once per candidate t and once
    per divisor trial."""
    field = f.field
    by_degree: dict[int, object] = {}
    for m, c in f.terms.items():
        deg = sum(m)
        by_degree[deg] = field.add(by_degree.get(deg, field.zero), c)
    by_degree = {e: c for e, c in by_degree.items() if c != field.zero}
    if len(by_degree) <= 1:
        return []
    if field.characteristic:
        def value(t):
            check_deadline(deadline)
            acc = field.zero
            for e, c in by_degree.items():
                acc = field.add(acc, field.mul(c, field.pow(t, e)))
            return acc

        return [t for t in range(1, field.p) if value(t) == 0]
    # integer-clear the univariate polynomial, then try p/q candidates
    from math import lcm

    denom = lcm(*(c.denominator for c in by_degree.values()))
    int_coeffs = {e: int(c * denom) for e, c in by_degree.items()}
    low = min(int_coeffs)
    trailing = abs(int_coeffs[low])
    leading = abs(int_coeffs[max(int_coeffs)])
    candidates = set()
    for p in _divisors(trailing, deadline):
        for q in _divisors(leading, deadline):
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    roots = []
    for t in sorted(candidates):
        check_deadline(deadline)
        if sum(c * t**e for e, c in int_coeffs.items()) == 0:
            roots.append(t)
    return roots


def _divisors(n: int, deadline: float | None) -> list[int]:
    """The positive divisors of n by trial division up to sqrt(|n|);
    ``deadline`` is checked once per trial."""
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        check_deadline(deadline)
        if n % i == 0:
            out.extend((i, n // i))
        i += 1
    return sorted(set(out))


def _witness_patterns(nvars: int) -> Iterator[tuple[int, ...]]:
    """All arrangements of one +1, one -1, and zeros elsewhere, yielded one
    at a time in sorted order: for k = 0..n-1 the -1 at k with the +1
    after it, the +1's position descending, then for k = n-1..0 the +1 at k
    with the -1 after it, the -1's position ascending."""
    for plus, minus in itertools.chain(
            ((i, k) for k in range(nvars) for i in range(nvars - 1, k, -1)),
            ((k, j) for k in range(nvars - 1, -1, -1) for j in range(k + 1, nvars))):
        yield tuple(1 if x == plus else -1 if x == minus else 0 for x in range(nvars))


def monomial_free_witness(
    f: Polynomial, group: PermGroup, *, deadline: float | None = None
) -> tuple[Raw, ...] | None:
    """Search for a point P killing every generator of the orbit ideal of f
    off V(M), M the monomial ideal of the minimal term supports: some x_S
    must be nonzero there, so that x_S lies outside the radical.  A point
    that kills every term proves nothing.  Since (sigma.f)(P) is f at P
    with its coordinates permuted, every generator vanishes at P exactly
    when f vanishes on the orbit of P, which is walked instead of G.f.

    Tried in order: the all-ones point; constant points (t, ..., t) with t
    a nonzero root of f on the diagonal, searched only if the all-ones
    point fails; then every arrangement of one +1, one -1 and zeros, in
    sorted order.  Returns the first verified witness as a tuple of raw
    values of f's field, or None; None is not a proof of absence.  The
    deadline is checked once per candidate point and once per point of its
    orbit; an orbit past ``DEFAULT_GROUP_BOUND`` points is refused with
    ValueError, as are the zero polynomial, which every point kills, and a
    group of another degree than f's variable count.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.nvars != group.degree:
        raise ValueError(f"permutation degree {group.degree} != nvars {f.nvars}")
    minimal = _minimal_supports(f, group, deadline=deadline)
    field = f.field

    def candidates():
        yield (1,) * f.nvars
        for t in _constant_point_roots(f, deadline):
            yield (t,) * f.nvars
        yield from _witness_patterns(f.nvars)

    for point in candidates():
        check_deadline(deadline)
        point = tuple(field.coerce(x) for x in point)
        off_v_of_m = any(all(x for x, e in zip(point, s) if e) for s in minimal)
        # P lies in its own orbit: most candidates fail there, before the walk
        if off_v_of_m and not f.evaluate(point) and not any(
            f.evaluate(q) for q in _tuple_orbit([point], group.generators, deadline)
        ):
            return point
    return None
