"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; all arithmetic is exact, so every comparison below is equality.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from symorbits import (
    GF,
    GREVLEX,
    LEX,
    QQ,
    PermGroup,
    Polynomial,
    SupportSet,
    binomial,
    binomial_alternating_sum,
    buchberger,
    elementary_symmetric,
    elimination_coefficients,
    graded_member,
    ideal_equal,
    monomial_free_witness,
    monomials_of_degree,
    monomials_of_type,
    orbit_ideal,
    parse_polynomial,
    radical_member,
    radical_orbit_equality,
    rank_condition,
    sample_genericity,
    solve_cancellation_system,
    telescoping_certificate,
    verify_elimination_identity,
    verify_squarefree_orbit,
)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


PAPER_LEX_BASIS = [
    "x1*x2 - x3*x4",
    "x1*x3 - x2*x4",
    "x1*x4 + x2*x4 + x3*x4",
    "x2*x3 + x2*x4 + x3*x4",
    "x2^2*x4",
    "x2*x4^2",
    "x3^2*x4",
    "x3*x4^2",
]


def test_01_groebner_reproduction():
    with criterion("1 groebner-reproduction"):
        start = time.monotonic()
        ideal = orbit_ideal(
            [elementary_symmetric(4, (1, 2, 3), 2, QQ)], PermGroup.symmetric(4)
        )
        gb = ideal.groebner_basis(LEX)
        elapsed = time.monotonic() - start
        expected = {parse_polynomial(t, 4, QQ).monic(LEX) for t in PAPER_LEX_BASIS}
        got = {g.monic(LEX) for g in gb.basis}
        assert got == expected
        assert len(gb) == 8
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_02_elimination_identity_grid():
    with criterion("2 elimination-identity"):
        start = time.monotonic()
        for n in range(2, 7):
            for d in range(1, n):
                report = verify_elimination_identity(n, d, QQ)
                assert report.verdict, (n, d)
                closed = elimination_coefficients(n, d, QQ)
                assert closed == solve_cancellation_system(n, d), (n, d)
        assert elimination_coefficients(3, 2, QQ) == [
            1, Fraction(1, 2), 1,
        ]
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_03_alternating_sum_grid():
    with criterion("3 lemma-grid"):
        for n in range(2, 13):
            for d in range(1, n):
                for a in range(d + 1):
                    value = binomial_alternating_sum(n, d, a)
                    expected = binomial(n, d) if a == d else 0
                    assert value == expected, (n, d, a)


def _char2_membership_checks(nvars: int):
    field = GF(2)
    ideal = orbit_ideal(
        [elementary_symmetric(nvars, (1, 2, 3), 2, field)], PermGroup.symmetric(nvars)
    )
    gb = ideal.groebner_basis(GREVLEX)
    x1x2 = parse_polynomial("x1*x2", nvars, field)
    assert not gb.contains(x1x2)
    assert gb.contains(x1x2 * x1x2)
    return ideal


def test_04_characteristic_two_example():
    with criterion("4 char2-e32-n5"):
        ideal = _char2_membership_checks(5)
        field = GF(2)
        assert radical_orbit_equality(
            elementary_symmetric(5, (1, 2, 3), 2, field), PermGroup.symmetric(5)
        ).verdict
        monomial_orbit = orbit_ideal(
            [parse_polynomial("x1*x2", 5, field)], PermGroup.symmetric(5)
        )
        assert not ideal_equal(ideal, monomial_orbit).verdict


@pytest.mark.slow
@pytest.mark.parametrize("nvars", [6, 7])
def test_04_characteristic_two_larger(nvars):
    with criterion(f"4 char2-e32-n{nvars} (slow)"):
        _char2_membership_checks(nvars)


def test_05_characteristic_divides_binomial():
    with criterion("5 char3-witness"):
        field = GF(3)
        f = elementary_symmetric(5, (1, 2, 3), 2, field)
        group = PermGroup.symmetric(5)
        witness = monomial_free_witness(f, group)
        assert witness is not None
        assert witness == (1,) * 5
        generators = orbit_ideal([f], group).expanded
        assert not any(g.evaluate(witness) for g in generators)
        # a point with no zero coordinate kills no monomial, so the radical
        # contains none; the radical-equality verdict must agree
        assert not radical_orbit_equality(f, group).verdict


def test_06_counterexample_family():
    with criterion("6 counterexample-family"):
        for n in (2, 3, 4):
            group = PermGroup.symmetric(n)
            target = parse_polynomial("x1^2", n, QQ)
            square = tuple([2] + [0] * (n - 1))
            mixed = tuple([1, 1] + [0] * (n - 2))
            for t in (1, 2, -1):
                seed = Polynomial(QQ, n, {square: 1, mixed: t})
                assert not graded_member(target, orbit_ideal([seed], group)).verdict, (n, t)
            seed = Polynomial(QQ, n, {square: 1})
            assert graded_member(target, orbit_ideal([seed], group)).verdict


def test_07_radical_example():
    with criterion("7 radical-x1x2x3"):
        f = parse_polynomial("x1^2*x2 + x1*x2^2", 3, QQ)
        gens = list(orbit_ideal([f], PermGroup.symmetric(3)).expanded)
        assert radical_member(parse_polynomial("x1*x2*x3", 3, QQ), gens)
        assert not radical_member(parse_polynomial("x1*x2", 3, QQ), gens)
        assert not any(g.evaluate([1, -1, 0]) for g in gens)


def test_08_inhomogeneous_certificate():
    with criterion("8 inhomogeneous-monomial"):
        # pinned identity: g1 + g2 - g3 = 2*x1 over the rationals
        g1 = parse_polynomial("x1 + x2 + x1^2 - x2^2", 3, QQ)
        g2 = parse_polynomial("x3 + x1 + x3^2 - x1^2", 3, QQ)
        g3 = parse_polynomial("x3 + x2 + x3^2 - x2^2", 3, QQ)
        ideal = orbit_ideal([g1], PermGroup.symmetric(3))
        assert g2 in set(ideal.expanded) and g3 in set(ideal.expanded)
        assert g1 + g2 - g3 == parse_polynomial("2*x1", 3, QQ)
        report = graded_member(parse_polynomial("2*x1", 3, QQ), ideal)
        assert report.verdict and report.certificate is not None

        field = GF(2)
        h1 = parse_polynomial("x1 + x2 + x1^2 - x2^2", 3, field)
        h2 = parse_polynomial("x3 + x1 + x3^2 - x1^2", 3, field)
        h3 = parse_polynomial("x3 + x2 + x3^2 - x2^2", 3, field)
        # the same combination collapses to zero rather than a unit times x1
        assert (h1 + h2 - h3).is_zero
        ideal2 = orbit_ideal([h1], PermGroup.symmetric(3))
        assert not graded_member(parse_polynomial("x1", 3, field), ideal2).verdict


def test_09_squarefree_random_families():
    with criterion("9 squarefree-random"):
        start = time.monotonic()
        rng = random.Random(90210)
        candidates = [c for c in range(-5, 6) if c != 0]
        group = PermGroup.symmetric(5)
        monomial_orbit = orbit_ideal([parse_polynomial("x1*x2", 5, QQ)], group)
        checked = 0
        while checked < 20:
            a, b, c = (rng.choice(candidates) for _ in range(3))
            if a + b + c == 0:
                continue
            f = Polynomial(QQ, 3, {(1, 1, 0): a, (1, 0, 1): b, (0, 1, 1): c})
            ideal = orbit_ideal([f.extend(5)], group)
            assert ideal_equal(ideal, monomial_orbit).verdict, (a, b, c)
            checked += 1
        zero_sum_checked = 0
        while zero_sum_checked < 5:
            a, b = (rng.choice(candidates) for _ in range(2))
            c = -a - b
            f = Polynomial(QQ, 3, {(1, 1, 0): a, (1, 0, 1): b, (0, 1, 1): c})
            if f.is_zero:
                continue
            report = verify_squarefree_orbit(f, 5)
            assert report.parameters["branch"] == "all-ones-witness", (a, b, c)
            assert report.verdict
            zero_sum_checked += 1
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_10_telescoping():
    with criterion("10 telescoping"):
        for n, d in ((2, 1), (3, 2), (4, 2), (4, 3)):
            nvars = n + d
            cert = telescoping_certificate(n, d, nvars)
            # re-verify the chain recurrence independently of construction
            previous = cert.start
            for tau, link, factored in zip(cert.transpositions, cert.chain, cert.factored):
                assert link == previous - tau.act(previous)
                assert link == factored
                previous = link
            ideal = orbit_ideal(
                [elementary_symmetric(nvars, range(1, n + 1), d, QQ)],
                PermGroup.symmetric(nvars),
            )
            assert ideal.groebner_basis(GREVLEX).contains(cert.final), (n, d)


def test_11_genericity_sampling():
    with criterion("11 genericity-sampling"):
        support = SupportSet.of(3, [(3, 0, 0), (1, 1, 1)])
        report = sample_genericity(
            support, PermGroup.symmetric(3), "irrelevant_radical",
            trials=20, coeff_box=9, seed=2026,
        )
        assert report.successes >= 18, report.success_rate

        type_support = SupportSet.of(3, monomials_of_type((2, 1), 3))
        report2 = sample_genericity(
            type_support, PermGroup.symmetric(3), "monomial_ideal",
            trials=20, coeff_box=9, seed=2026,
        )
        assert report2.successes >= 18, report2.success_rate

        # registered deterministic failure: the all-ones coefficient vector
        all_ones = Polynomial(QQ, 3, {m: 1 for m in monomials_of_type((2, 1), 3)})
        failure = rank_condition(all_ones, PermGroup.symmetric(3))
        assert not failure.verdict and failure.parameters["rank"] == 1


def _random_homogeneous(rng, field, nvars, degree, max_terms=3):
    monos = monomials_of_degree(nvars, degree)
    candidates = [c for c in range(-5, 6) if c != 0]
    while True:
        count = min(len(monos), rng.randint(1, max_terms))
        chosen = rng.sample(monos, count)
        f = Polynomial(field, nvars, {m: rng.choice(candidates) for m in chosen})
        if not f.is_zero:
            return f


def test_12_oracle_equivalence():
    with criterion("12 oracle-equivalence"):
        rng = random.Random(424242)
        disagreements = []
        for index in range(200):
            field = QQ if index % 2 == 0 else GF(5)
            nvars = rng.randint(2, 5)
            if field == QQ and nvars == 5:
                group = PermGroup.cyclic(5)
            else:
                group = PermGroup.symmetric(nvars)
            seed_degree = rng.randint(1, 4)
            target_degree = min(4, seed_degree + rng.choice([0, 0, 1]))
            seed = _random_homogeneous(rng, field, nvars, seed_degree)
            ideal = orbit_ideal([seed], group)
            if rng.random() < 0.3 and target_degree >= seed_degree:
                target = Polynomial.zero(field, nvars)
                multipliers = monomials_of_degree(nvars, target_degree - seed_degree)
                for g in rng.sample(ideal.expanded, min(2, len(ideal.expanded))):
                    mult = rng.choice(multipliers)
                    target = target + Polynomial.from_monomial(
                        field, mult, rng.randint(1, 4)
                    ) * g
                if target.is_zero or not target.is_homogeneous():
                    target = _random_homogeneous(rng, field, nvars, target_degree, 2)
            else:
                target = _random_homogeneous(rng, field, nvars, target_degree, 2)
            linear_route = graded_member(target, ideal).verdict
            groebner_route = buchberger(list(ideal.expanded), GREVLEX).contains(target)
            if linear_route != groebner_route:
                disagreements.append((index, str(seed), str(target)))
        assert not disagreements, disagreements
