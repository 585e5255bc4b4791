"""Pinned scenarios behind ``symorbits repro <name>``.

Each scenario re-runs one computation from the paper and compares it with
the known answer.  It takes the absolute deadline (``None`` for none) of
its Groebner and linear-algebra computations and returns
``(ok, reports)``; the CLI prints the reports and exits nonzero unless ok.
"""

from __future__ import annotations

from functools import partial

from .fields import GF, QQ, Field, binomial, binomial_alternating_sum
from .genericity import sample_genericity
from .groebner import radical_member
from .ideals import OrbitIdeal, graded_member, ideal_equal, orbit_ideal
from .permutations import PermGroup
from .polynomials import LEX, Polynomial, SupportSet, elementary_symmetric
from .polynomials import format_polynomial, monomials_of_degree, parse_polynomial
from .reports import VerdictReport
from .verifiers import (
    elimination_coefficients,
    radical_orbit_equality,
    telescoping_certificate,
    verify_elimination_identity,
    verify_squarefree_orbit,
)

PINNED_LEX_BASIS_E32_S4 = (
    "x1*x2 - x3*x4", "x1*x3 - x2*x4", "x1*x4 + x2*x4 + x3*x4", "x2*x3 + x2*x4 + x3*x4",
    "x2^2*x4", "x2*x4^2", "x3^2*x4", "x3*x4^2",
)


def _e32_orbit(nvars: int, field: Field, deadline: float | None) -> OrbitIdeal:
    """The S_nvars orbit ideal of the elementary quadric in x1, x2, x3."""
    seed = elementary_symmetric(nvars, (1, 2, 3), 2, field)
    return orbit_ideal([seed], PermGroup.symmetric(nvars), deadline=deadline)


def groebner_e32_s4(deadline: float | None) -> tuple[bool, list]:
    gb = _e32_orbit(4, QQ, deadline).groebner_basis(LEX, deadline=deadline)
    expected = {parse_polynomial(text, 4, QQ).monic(LEX) for text in PINNED_LEX_BASIS_E32_S4}
    ok = {g.monic(LEX) for g in gb.basis} == expected
    basis = [format_polynomial(g, LEX) for g in gb.basis]
    parameters = {"order": "lex", "field": "QQ", "basis_size": len(gb)}
    return ok, [VerdictReport("groebner-e32-s4", parameters, ok, certificate={"basis": basis})]


def f2_e32(nvars: int, deadline: float | None) -> tuple[bool, list]:
    field = GF(2)
    ideal = _e32_orbit(nvars, field, deadline)
    gb = ideal.groebner_basis(deadline=deadline)
    x1x2 = parse_polynomial("x1*x2", nvars, field)
    checks = {
        "x1x2_not_in_ideal": not gb.contains(x1x2),
        "x1x2_squared_in_ideal": gb.contains(x1x2 * x1x2),
    }
    ok = all(checks.values())
    if nvars == 5:
        radical_ok = radical_orbit_equality(ideal.seeds[0], ideal.group, deadline=deadline).verdict
        monomial_orbit = orbit_ideal([x1x2], ideal.group, deadline=deadline)
        equal = ideal_equal(ideal, monomial_orbit, deadline=deadline).verdict
        checks["radical_equals_monomial_orbit"] = radical_ok
        checks["ideal_equals_monomial_orbit"] = equal
        ok = ok and radical_ok and not equal
    report = VerdictReport(
        f"f2-e32-n{nvars}", {"field": "GF(2)", "nvars": nvars}, ok, certificate=checks
    )
    return ok, [report]


def counterexample_x1sq(deadline: float | None) -> tuple[bool, list]:
    reports = []
    for n in (2, 3, 4):
        group = PermGroup.symmetric(n)
        target = parse_polynomial("x1^2", n, QQ)
        square, mixed = (2,) + (0,) * (n - 1), (1, 1) + (0,) * (n - 2)
        for t in (1, 2, -1, 0):
            seed = Polynomial(QQ, n, {square: 1, mixed: t})
            ideal = orbit_ideal([seed], group, deadline=deadline)
            member = graded_member(target, ideal, deadline=deadline).verdict
            reports.append(VerdictReport(
                "counterexample-x1sq", {"n": n, "t": t}, member == (t == 0),
                notes=f"x1^2 {'in' if member else 'not in'} orbit ideal",
            ))
    return all(r.verdict for r in reports), reports


def radical_x1x2x3(deadline: float | None) -> tuple[bool, list]:
    f = parse_polynomial("x1^2*x2 + x1*x2^2", 3, QQ)
    gens = list(orbit_ideal([f], PermGroup.symmetric(3), deadline=deadline).expanded)

    def in_radical(text: str) -> bool:
        target = parse_polynomial(text, 3, QQ)
        return radical_member(target, gens, deadline=deadline)

    checks = {
        "x1x2x3_in_radical": in_radical("x1*x2*x3"),
        "x1x2_not_in_radical": not in_radical("x1*x2"),
        "witness_(1,-1,0)_kills_generators": not any(g.evaluate((1, -1, 0)) for g in gens),
    }
    ok = all(checks.values())
    return ok, [VerdictReport("radical-x1x2x3", {"field": "QQ", "nvars": 3}, ok,
                              certificate=checks)]


def inhomogeneous_monomial(deadline: float | None) -> tuple[bool, list]:
    def graded(target: str, field: Field):
        f = parse_polynomial("x1 + x2 + x1^2 - x2^2", 3, field)
        ideal = orbit_ideal([f], PermGroup.symmetric(3), deadline=deadline)
        return graded_member(parse_polynomial(target, 3, field), ideal, deadline=deadline)

    over_q = graded("2*x1", QQ)
    escapes = not graded("x1", GF(2)).verdict
    notes = "over GF(2) the combination collapses to zero, so x1 escapes the search"
    return over_q.verdict and escapes, [
        over_q, VerdictReport("inhomogeneous-monomial", {"field": "GF(2)"}, escapes, notes=notes)
    ]


def squarefree_c_zero(deadline: float | None) -> tuple[bool, list]:
    f = parse_polynomial("x1*x2 - x2*x3", 3, QQ)
    res = verify_squarefree_orbit(f, 5, deadline=deadline)
    return res.verdict and res.parameters.get("branch") == "all-ones-witness", [res]


def elimination_grid(deadline: float | None) -> tuple[bool, list]:
    reports = [verify_elimination_identity(n, d, QQ, deadline=deadline)
               for n in range(2, 7) for d in range(1, n)]
    coeffs = [str(c) for c in elimination_coefficients(3, 2, QQ)]
    reports.append(VerdictReport("elimination-coefficients", {"n": 3, "d": 2},
                                 coeffs == ["1", "1/2", "1"], certificate={"coefficients": coeffs}))
    return all(r.verdict for r in reports), reports


def telescoping_n3d2(deadline: float | None) -> tuple[bool, list]:
    cert = telescoping_certificate(3, 2, 5, QQ)
    gb = _e32_orbit(5, QQ, deadline).groebner_basis(deadline=deadline)
    reduces = gb.contains(cert.final)
    chain = [format_polynomial(p) for p in cert.chain]
    return reduces, [VerdictReport(
        "telescoping-n3d2", {"n": 3, "d": 2, "nvars": 5}, reduces,
        certificate={"chain": chain, "normal_form_zero": reduces},
        notes="each link re-verified against its factored form at construction",
    )]


def lemma_grid(deadline: float | None) -> tuple[bool, list]:
    ok = all(
        binomial_alternating_sum(n, d, a) == (binomial(n, d) if a == d else 0)
        for n in range(2, 13) for d in range(1, n) for a in range(d + 1)
    )
    notes = "alternating binomial sum collapses to C(n,d) at a=d and 0 below"
    return ok, [VerdictReport("lemma-grid", {"max_n": 12}, ok, notes=notes)]


def cyclic_hsop(deadline: float | None) -> tuple[bool, list]:
    # cyclic permutations of a general quadric in 4 variables cut out the
    # origin; integer draws miss the bad locus roughly 90% of the time
    report = sample_genericity(
        SupportSet.of(4, monomials_of_degree(4, 2)), PermGroup.cyclic(4), "irrelevant_radical",
        trials=10, coeff_box=9, seed=2026, deadline=deadline,
    )
    return report.successes >= 7, [report]


SCENARIOS = {
    "groebner-e32-s4": groebner_e32_s4,
    "f2-e32-n5": partial(f2_e32, 5),
    "f2-e32-n6": partial(f2_e32, 6),
    "f2-e32-n7": partial(f2_e32, 7),
    "counterexample-x1sq": counterexample_x1sq,
    "radical-x1x2x3": radical_x1x2x3,
    "inhomogeneous-monomial": inhomogeneous_monomial,
    "squarefree-c-zero": squarefree_c_zero,
    "elimination-grid": elimination_grid,
    "telescoping-n3d2": telescoping_n3d2,
    "lemma-grid": lemma_grid,
    "cyclic-hsop": cyclic_hsop,
}
