import itertools
import random
import time
from fractions import Fraction

import pytest

from symorbits import (
    GF,
    GREVLEX,
    QQ,
    BudgetExceededError,
    PermGroup,
    Permutation,
    Polynomial,
    VerdictReport,
    binomial,
    elementary_symmetric,
    elimination_coefficients,
    ideal_equal,
    monomial_free_witness,
    monomials_of_degree,
    orbit,
    orbit_ideal,
    parse_polynomial,
    radical_member,
    radical_orbit_equality,
    solve_cancellation_system,
    telescoping_certificate,
    verify_elimination_identity,
    verify_squarefree_orbit,
)
from symorbits import verifiers
from symorbits.permutations import _closure
from symorbits.verifiers import _constant_point_roots, _minimal_supports, _witness_patterns


class TestEliminationCoefficients:
    def test_pinned_small_case(self):
        coeffs = elimination_coefficients(3, 2, QQ)
        assert coeffs == [1, Fraction(1, 2), 1]

    def test_leading_coefficient_always_one(self):
        for n in range(2, 8):
            for d in range(1, n):
                assert elimination_coefficients(n, d, QQ)[0] == 1

    def test_closed_form_matches_cancellation_system(self):
        from symorbits.fields import binomial

        for n in range(2, 7):
            for d in range(1, n):
                closed = [
                    Fraction(binomial(n - 1, d), binomial(n - 1, d - j))
                    for j in range(d + 1)
                ]
                assert solve_cancellation_system(n, d) == closed

    def test_f2_failure_at_offending_index(self):
        with pytest.raises(ValueError, match="c_1"):
            elimination_coefficients(3, 2, GF(2))

    def test_f5_large_enough(self):
        coeffs = elimination_coefficients(3, 2, GF(5))
        assert coeffs == [1, 3, 1]  # 1/2 = 3 mod 5


def expanded_identity(n, d, field):
    """The elimination identity expanded in full, every e_n^d(x_J) as a
    polynomial, in the report form of ``verify_elimination_identity``: the
    reference its per-class expansion must reproduce byte for byte."""
    nvars = n + d
    coeffs = verifiers.elimination_coefficients(n, d, field)
    difference = Polynomial.from_monomial(field, (1,) * d + (0,) * n, -binomial(n, d))
    for subset in itertools.combinations(range(1, nvars + 1), n):
        j = d - sum(1 for i in subset if i <= d)
        inner = elementary_symmetric(nvars, subset, d, field)
        difference = difference + inner.scale((-1) ** j * coeffs[j])
    return VerdictReport(
        "elimination-identity",
        {"n": n, "d": d, "field": str(field), "nvars": nvars},
        difference.is_zero,
        certificate={"coefficients": [str(c) for c in coeffs], "difference": str(difference)},
        notes="symbolic expansion compared exactly",
    )


class TestEliminationIdentity:
    def test_small_case(self):
        assert verify_elimination_identity(3, 2, QQ).verdict

    def test_largest_grid_case(self):
        assert verify_elimination_identity(6, 5, QQ).verdict

    def test_prime_field_above_n(self):
        assert verify_elimination_identity(3, 2, GF(5)).verdict

    def test_full_grid(self):
        for n in range(2, 7):
            for d in range(1, n):
                report = verify_elimination_identity(n, d, QQ)
                assert report.verdict, (n, d)
                assert report.certificate["difference"] == "0"

    def test_wrong_coefficient_leaves_its_inner_sum(self, monkeypatch):
        # raising c_1 by one changes the right side by minus the j = 1 inner
        # sum, which the term-by-term expansion must report exactly
        coeffs = elimination_coefficients(4, 2, QQ)
        wrong = [coeffs[0], coeffs[1] + 1, coeffs[2]]
        monkeypatch.setattr(
            "symorbits.verifiers.elimination_coefficients", lambda n, d, field: wrong
        )
        report = verify_elimination_identity(4, 2, QQ)
        inner = Polynomial.zero(QQ, 6)
        for subset in itertools.combinations(range(1, 7), 4):
            if sum(1 for i in subset if i <= 2) == 1:
                inner = inner + elementary_symmetric(6, subset, 2, QQ)
        assert not report.verdict
        assert report.certificate["difference"] == str(inner.scale(-1))

    def test_deadline_is_checked_per_subset(self):
        with pytest.raises(BudgetExceededError):
            verify_elimination_identity(12, 6, QQ, deadline=time.monotonic() - 1)

    def test_refused_past_the_subset_bound(self):
        # each class visits C(n, d) subsets J: C(13, 8) = 1,287 and
        # C(18, 9) = 48,620 are within the bound, C(19, 9) = 92,378 are not
        with pytest.raises(BudgetExceededError):
            verify_elimination_identity(13, 8, QQ, deadline=time.monotonic() - 1)
        assert verify_elimination_identity(13, 8, QQ).verdict
        with pytest.raises(
            ValueError, match="92378 subsets J per class exceed enumeration bound 50000"
        ):
            verify_elimination_identity(19, 9, QQ)

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    def test_agrees_with_the_full_expansion(self, field, monkeypatch):
        pairs = [(n, d) for n in range(2, 10) for d in range(1, n) if n + d <= 10]
        for n, d in pairs:
            assert verify_elimination_identity(n, d, field).machine() == (
                expanded_identity(n, d, field).machine()
            ), (n, d)
        for n, d in pairs:
            # raise one coefficient by one: the verdict turns false and the
            # difference must still match monomial by monomial
            wrong = elimination_coefficients(n, d, field)
            wrong[n % (d + 1)] += 1
            monkeypatch.setattr(
                "symorbits.verifiers.elimination_coefficients", lambda n, d, field: wrong
            )
            report = verify_elimination_identity(n, d, field)
            assert not report.verdict, (n, d)
            assert report.machine() == expanded_identity(n, d, field).machine(), (n, d)

    def test_identity_under_evaluation(self):
        # independent spot-check: both sides agree at random integer points
        import itertools
        import math

        from symorbits.fields import binomial

        rng = random.Random(139)
        for n, d in ((3, 2), (4, 2), (5, 3)):
            nvars = n + d
            coeffs = elimination_coefficients(n, d, QQ)
            for _ in range(5):
                point = [rng.randint(-3, 3) for _ in range(nvars)]
                lhs = Fraction(binomial(n, d) * math.prod(point[:d]))
                rhs = Fraction(0)
                for j in range(d + 1):
                    inner = Fraction(0)
                    for subset in itertools.combinations(range(1, nvars + 1), n):
                        if sum(1 for i in subset if i <= d) != d - j:
                            continue
                        e = elementary_symmetric(nvars, subset, d, QQ)
                        inner += e.evaluate(point)
                    rhs += (-1) ** j * coeffs[j] * inner
                assert rhs == lhs


class TestTelescoping:
    def test_displayed_first_step(self, P):
        cert = telescoping_certificate(3, 2, 5)
        assert cert.chain[0] == P("x1 - x4", 5) * P("x2 + x3", 5)

    def test_final_product_form(self, P):
        cert = telescoping_certificate(3, 2, 5)
        assert cert.final == P("x1 - x4", 5) * P("x2 - x5", 5)

    def test_final_reduces_to_zero(self):
        pairs = [(n, d) for n in range(1, 5) for d in range(1, n + 1)]
        for n, d in pairs:
            nvars = n + d
            cert = telescoping_certificate(n, d, nvars)
            ideal = orbit_ideal(
                [elementary_symmetric(nvars, range(1, n + 1), d, QQ)],
                PermGroup.symmetric(nvars),
            )
            assert ideal.groebner_basis(GREVLEX).contains(cert.final), (n, d)

    def test_single_step_case(self, P):
        cert = telescoping_certificate(1, 1, 2)
        assert cert.final == P("x1 - x2", 2)
        assert cert.start == P("x1", 2)

    def test_chain_recurrence_holds(self):
        cert = telescoping_certificate(4, 3, 7)
        previous = cert.start
        for tau, link in zip(cert.transpositions, cert.chain):
            assert link == previous - tau.act(previous)
            previous = link

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            telescoping_certificate(3, 4, 7)
        with pytest.raises(ValueError):
            telescoping_certificate(3, 2, 4)


class TestSquarefreeOrbit:
    def test_equality_branch(self):
        report = verify_squarefree_orbit(elementary_symmetric(3, (1, 2, 3), 2, QQ), 5)
        assert report.verdict and report.parameters["branch"] == "monomial-equality"
        # the rank condition on the 10 square-free quadrics in 5 variables
        assert report.certificate == {
            "rank": 10, "monomials_of_type": 10, "distinct_orbit_vectors": 10
        }

    def test_equality_branch_is_the_rank_condition(self, monkeypatch):
        def no_basis(*args, **kwargs):
            raise AssertionError("Groebner basis computed")

        monkeypatch.setattr("symorbits.ideals.buchberger", no_basis)
        monkeypatch.setattr("symorbits.groebner.buchberger", no_basis)
        f = elementary_symmetric(5, range(1, 6), 4, QQ)
        assert verify_squarefree_orbit(f, 9).verdict  # n + d = 9
        with pytest.raises(BudgetExceededError):
            verify_squarefree_orbit(f, 9, deadline=time.monotonic() - 1)

    def test_witness_branch(self, P):
        report = verify_squarefree_orbit(P("x1*x2 - x2*x3", 3), 5)
        assert report.verdict and report.parameters["branch"] == "all-ones-witness"
        assert report.certificate["witness"] == [1] * 5

    def test_nine_variables_both_branches(self, P):
        # nvars = 9 needs S9, whose 362880 elements are never enumerated
        report = verify_squarefree_orbit(P("x1*x2 - x2*x3", 3), 9)
        assert report.verdict and report.parameters["branch"] == "all-ones-witness"
        report = verify_squarefree_orbit(P("x1 + 2*x2", 8), 9)  # n + d = 9
        assert report.verdict and report.parameters["branch"] == "monomial-equality"
        assert report.notes == ""

    def test_scalar_monomial_below_range(self, P):
        report = verify_squarefree_orbit(P("2*x1*x2", 2), 3)
        assert report.verdict and report.parameters["branch"] == "monomial-equality"
        assert "below the guaranteed range" in report.notes

    def test_four_variables_equality_fails(self):
        # the 4-variable orbit ideal of e_3^2 contains no degree-2 monomial
        report = verify_squarefree_orbit(elementary_symmetric(3, (1, 2, 3), 2, QQ), 4)
        assert not report.verdict
        assert "below the guaranteed range" in report.notes
        assert report.certificate == {
            "rank": 4, "monomials_of_type": 6, "distinct_orbit_vectors": 4,
            "dual_vector": {"x1*x3": "1", "x1*x4": "-1", "x2*x3": "-1", "x2*x4": "1"},
        }

    def test_paper_threshold_n_plus_d(self):
        # the images of e(n,d) are the columns of the inclusion matrix of the
        # d-sets in the n-sets of {1..N}; for d < n it has full rank C(N,d)
        # exactly when N >= n + d (Gottlieb 1966, Kantor 1972), and at
        # N = n + d - 1 only C(N,n) = C(N,d-1) < C(N,d) columns
        for n in range(1, 10):
            for d in range(1, min(n, 10 - n) + 1):
                f = elementary_symmetric(n, range(1, n + 1), d, QQ)
                assert verify_squarefree_orbit(f, n + d).verdict, (n, d)
                if d < n:
                    assert not verify_squarefree_orbit(f, n + d - 1).verdict, (n, d)

    def test_generic_squarefree_is_answered(self):
        # seeded square-free f with n <= 6, n <= N <= n+d+1 and coefficients
        # in +-{1, 2, 3}, about 30 % with coefficient sum 0: the images are
        # counted, not walked, so none is refused by the image bound, and
        # every nonzero sum is true from N = n + d on (the paper's claim)
        rng = random.Random(22)
        for _ in range(120):
            n = rng.randint(1, 6)
            d = rng.randint(1, n)
            supports = list(itertools.combinations(range(n), d))
            zero_sum = len(supports) > 1 and rng.random() < 0.3
            while True:
                chosen = rng.sample(supports, rng.randint(1 + zero_sum, min(len(supports), 6)))
                coeffs = [rng.choice((1, 2, 3, -1, -2, -3)) for _ in chosen]
                if (sum(coeffs) == 0) == zero_sum:
                    break
            f = Polynomial(QQ, n, {tuple(int(i in s) for i in range(n)): c
                                   for s, c in zip(chosen, coeffs)})
            nvars = rng.randint(n, n + d + 1)
            report = verify_squarefree_orbit(f, nvars)
            branch = "all-ones-witness" if zero_sum else "monomial-equality"
            assert report.parameters["branch"] == branch, f
            assert report.verdict or nvars < n + d, (f, nvars)

    def test_validation(self, P):
        with pytest.raises(ValueError):
            verify_squarefree_orbit(P("x1^2", 2), 4)  # not square-free
        with pytest.raises(ValueError):
            verify_squarefree_orbit(P("x1 + x1*x2", 2), 4)  # inhomogeneous
        with pytest.raises(ValueError):
            verify_squarefree_orbit(
                parse_polynomial("x1*x2", 3, GF(2)), 5
            )  # characteristic too small


def _groebner_squarefree_verdict(f, nvars):
    """Whether the orbit ideal of f in nvars variables equals that of
    x1...xd, by two Groebner bases and mutual normal forms."""
    group = PermGroup.symmetric(nvars)
    d = f.total_degree()
    monomial = Polynomial(f.field, nvars, {tuple(int(i < d) for i in range(nvars)): 1})
    return ideal_equal(
        orbit_ideal([f.extend(nvars)], group), orbit_ideal([monomial], group)
    ).verdict


class TestSquarefreeAgainstGroebner:
    """The rank verdict of ``verify_squarefree_orbit`` against the Groebner
    route it replaced, kept here as the reference oracle."""

    COEFFS = (-3, -2, -1, 1, 2, 3)

    @pytest.mark.parametrize("field, seed", [(QQ, 1), (GF(7), 2), (GF(11), 3)])
    def test_random_squarefree(self, field, seed):
        rng = random.Random(seed)
        checked = 0
        verdicts = set()
        while checked < 12:
            kind = checked % 3
            n = rng.randint(2, 5)
            # a symmetric f of degree n is a monomial: keep d < n for those,
            # and nvars < n + d, where their orbit cannot span
            d = rng.randint(1, min(n - (kind == 2), 8 - n))
            nvars = rng.randint(n, n + d - (kind == 2))
            pool = [m for m in itertools.product((0, 1), repeat=n) if sum(m) == d]
            if kind == 0:
                support = rng.sample(pool, rng.randint(1, min(4, len(pool))))
                f = Polynomial(field, n, {m: rng.choice(self.COEFFS) for m in support})
            else:
                # symmetric in x2..xn, or in every variable
                a, b = rng.choice(self.COEFFS), rng.choice(self.COEFFS)
                f = Polynomial(field, n, {m: a if m[0] or kind == 2 else b for m in pool})
            if f.is_zero or not f.evaluate([1] * n):
                continue
            report = verify_squarefree_orbit(f, nvars)
            assert report.parameters["branch"] == "monomial-equality"
            assert report.verdict == _groebner_squarefree_verdict(f, nvars), (str(f), nvars)
            certificate = report.certificate
            assert report.verdict == (certificate["rank"] == certificate["monomials_of_type"])
            verdicts.add(report.verdict)
            checked += 1
        assert verdicts == {True, False}

    @pytest.mark.parametrize("field", [QQ, GF(7)])
    def test_elementary_symmetric_threshold(self, field):
        # e(n,d) first spans the square-free monomials at nvars = n + d
        for n in range(2, 6):
            for d in range(1, min(n, 9 - n)):
                f = elementary_symmetric(n, range(1, n + 1), d, field)
                for nvars, expected in ((n + d - 1, False), (n + d, True)):
                    report = verify_squarefree_orbit(f, nvars)
                    assert report.verdict == expected, (n, d, nvars)
                    assert _groebner_squarefree_verdict(f, nvars) == expected, (n, d, nvars)


class TestRadicalOrbitEquality:
    def test_rationals(self):
        report = radical_orbit_equality(
            elementary_symmetric(5, (1, 2, 3), 2, QQ), PermGroup.symmetric(5)
        )
        assert report.verdict

    def test_characteristic_two_radical_still_equal(self):
        report = radical_orbit_equality(
            elementary_symmetric(5, (1, 2, 3), 2, GF(2)), PermGroup.symmetric(5)
        )
        assert report.verdict

    def test_characteristic_three_fails_with_witness(self):
        report = radical_orbit_equality(
            elementary_symmetric(5, (1, 2, 3), 2, GF(3)), PermGroup.symmetric(5)
        )
        assert not report.verdict
        assert "witness" in report.notes and "1" in report.notes

    def test_inputs_without_an_orbit_of_x1_to_xk(self, P):
        # the minimal supports of x1^2 are the singletons: one basis decides
        report = radical_orbit_equality(P("x1^2", 3), PermGroup.symmetric(3))
        assert report.verdict
        assert report.certificate == {"route": "finiteness", "representatives": ["x1"]}
        # {1, 3} contains no rotation of {1, 2}, and is its own orbit's representative
        report = radical_orbit_equality(P("x1*x3", 4), PermGroup.cyclic(4))
        assert report.verdict
        assert report.certificate == {
            "route": "radical-membership", "representatives": ["x1*x3"]
        }

    def test_every_orbit_of_minimal_supports_is_tested(self, P):
        # under (1 2) the minimal supports form two orbits: x1*x3 lies in the
        # radical, x1*x4 does not
        group = PermGroup.generated(4, ["(1 2)"])
        report = radical_orbit_equality(P("3*x1*x3^2 - x1^2*x4 + x2^2*x4", 4), group)
        assert not report.verdict
        assert report.certificate["representatives"] == ["x1*x3", "x1*x4"]
        assert report.notes.startswith("x1*x4 is not in the radical")

    def test_zero_polynomial_rejected(self, P):
        with pytest.raises(ValueError, match="nonzero"):
            radical_orbit_equality(P("0", 3), PermGroup.symmetric(3))

    @staticmethod
    def _monomial(field, nvars, support):
        return Polynomial.from_monomial(field, tuple(int(i in support) for i in range(nvars)))

    def test_agrees_with_radical_membership_of_every_minimal_support(
        self, seeded_orbit_seeds
    ):
        # the verdict against x_S in rad(I) for every minimal term support S
        # of the orbit, with no equivariance or finiteness shortcut
        verdicts = []
        for group, f in seeded_orbit_seeds:
            field, nvars = f.field, f.nvars
            gens = list(orbit(f, group))
            supports = {frozenset(i for i, e in enumerate(m) if e) for g in gens for m in g.terms}
            minimal = [s for s in supports if not any(t < s for t in supports)]
            expected = all(
                radical_member(self._monomial(field, nvars, s), gens) for s in minimal
            )
            verdict = radical_orbit_equality(f, group).verdict
            assert verdict == expected, str(f)
            if group.is_full_symmetric:
                # the question the k form asked: x1...xk in rad(I), k = min |S|
                k = min(len(s) for s in supports)
                assert verdict == radical_member(self._monomial(field, nvars, range(k)), gens)
            verdicts.append(verdict)
        assert 5 <= verdicts.count(True) <= 35


class TestWitnessSearch:
    def test_sign_pattern_witness(self, P):
        f = P("x1^2*x2 + x1*x2^2", 3)
        witness = monomial_free_witness(f, PermGroup.symmetric(3))
        assert witness is not None
        values = sorted(witness)
        assert values == [Fraction(-1), Fraction(0), Fraction(1)]
        gens = orbit_ideal([f], PermGroup.symmetric(3)).expanded
        assert not any(g.evaluate(witness) for g in gens)

    def test_pinned_point_kills_generators(self, P):
        # the specific point (1, -1, 0) is a common zero of the whole orbit
        f = P("x1^2*x2 + x1*x2^2", 3)
        gens = orbit_ideal([f], PermGroup.symmetric(3)).expanded
        assert not any(g.evaluate([1, -1, 0]) for g in gens)

    def test_all_ones_witness(self, P):
        witness = monomial_free_witness(P("x1*x2 - x2*x3", 5), PermGroup.symmetric(5))
        assert witness is not None
        assert witness == (1,) * 5

    def test_no_witness_for_variable_orbit(self, P):
        assert monomial_free_witness(P("x1", 3), PermGroup.symmetric(3)) is None

    def test_constant_diagonal_root(self, P):
        # inhomogeneous: f(t,t) = 2t^2 - 8 has the rational roots +-2
        f = P("x1^2 + x2^2 - 8", 2)
        witness = monomial_free_witness(f, PermGroup.symmetric(2))
        assert witness is not None
        assert witness[0] == witness[1]
        assert not f.evaluate(witness)

    def test_prime_field_diagonal_search(self):
        field = GF(5)
        f = parse_polynomial("x1^2 + x2^2 - 3", 2, field)
        witness = monomial_free_witness(f, PermGroup.symmetric(2))
        assert witness is not None
        assert not f.evaluate(witness)

    def test_deadline_checked_per_candidate_point(self, P):
        past = time.monotonic() - 1
        with pytest.raises(BudgetExceededError):
            monomial_free_witness(P("x1^2*x2 + x1*x2^2", 3), PermGroup.symmetric(3),
                                  deadline=past)
        # without a deadline the same search finds its point
        assert monomial_free_witness(P("x1^2*x2 + x1*x2^2", 3), PermGroup.symmetric(3))

    def test_radical_orbit_false_verdict_passes_deadline(self, P, monkeypatch):
        # a false radical verdict runs the witness search under the same deadline
        monkeypatch.setattr("symorbits.verifiers.radical_member", lambda *a, **kw: False)
        f = P("x1^2*x2 + x1*x2^2", 3)
        report = radical_orbit_equality(f, PermGroup.symmetric(3))
        assert not report.verdict and "witness" in report.notes
        with pytest.raises(BudgetExceededError):
            radical_orbit_equality(f, PermGroup.symmetric(3), deadline=time.monotonic() - 1)

    def test_radical_orbit_names_no_witness_inside_v_of_m(self, P, monkeypatch):
        # (1, -1, 0, 0, 0) kills every term with three variables, so it kills
        # every x_S too and proves nothing about the radical
        monkeypatch.setattr("symorbits.verifiers.radical_member", lambda *a, **kw: False)
        f = P("x1*x2*x3", 5)
        assert monomial_free_witness(f, PermGroup.symmetric(5)) is None
        report = radical_orbit_equality(f, PermGroup.symmetric(5))
        assert report.notes == "x1*x2*x3 is not in the radical"

    def test_witness_must_leave_some_minimal_support_nonzero(self, P):
        # the minimal supports are x3 and x4: (-1, 1, 0, 0), the first sign
        # pattern to kill both generators, kills them too and proves
        # nothing, so the search goes on to (0, -1, 0, 1)
        f = P("x2*x3 + x3^2", 4)
        group = PermGroup.generated(4, ["(3 4)"])
        gens = orbit_ideal([f], group).expanded
        assert not any(g.evaluate([-1, 1, 0, 0]) for g in gens)
        witness = monomial_free_witness(f, group)
        assert witness == (0, -1, 0, 1)
        assert not any(g.evaluate(witness) for g in gens)

    def test_degree_mismatch_rejected(self, P):
        with pytest.raises(ValueError, match="degree"):
            monomial_free_witness(P("x1*x2 - x2*x3", 3), PermGroup.symmetric(4))

    def test_default_patterns_are_sorted_and_distinct(self):
        base = (1, -1, 0, 0, 0)
        assert list(_witness_patterns(5)) == sorted(set(itertools.permutations(base)))
        assert list(_witness_patterns(1)) == []

    def test_patterns_are_yielded_in_sorted_order(self):
        for n in range(10):
            listed = sorted(
                tuple(1 if k == i else -1 if k == j else 0 for k in range(n))
                for i in range(n) for j in range(n) if i != j
            )
            assert list(_witness_patterns(n)) == listed, n

    def test_first_pattern_comes_at_once(self):
        # n(n-1) patterns of length n would take gigabytes to list
        start = time.monotonic()
        first = next(_witness_patterns(10_000))
        assert time.monotonic() - start < 0.1
        assert first == (-1,) + (0,) * 9_998 + (1,)

    @staticmethod
    def _reference_witness(f, group):
        # every generator expanded and evaluated at each candidate, with
        # the minimal supports read off the expanded generators
        gens = orbit(f, group)
        supports = {frozenset(i for i, e in enumerate(m) if e) for g in gens for m in g.terms}
        minimal = [s for s in supports if not any(t < s for t in supports)]
        n = f.nvars
        candidates = [[1] * n] + [[t] * n for t in _constant_point_roots(f, None)]
        candidates += sorted(set(itertools.permutations((1, -1) + (0,) * (n - 2))))
        for point in candidates:
            point = tuple(f.field.coerce(x) for x in point)
            if any(all(point[i] for i in s) for s in minimal) and not any(
                g.evaluate(point) for g in gens
            ):
                return point
        return None

    @staticmethod
    def _reference_representatives(f, group):
        # one support per orbit of minimal supports, the lexicographically
        # smallest, with index sets moved by the generators
        gens = orbit(f, group)
        supports = {frozenset(i + 1 for i, e in enumerate(m) if e) for g in gens for m in g.terms}
        minimal = {s for s in supports if not any(t < s for t in supports)}
        out, remaining = [], set(minimal)
        while remaining:
            out.append(min(remaining, key=sorted))
            remaining -= _closure(
                [out[-1]], lambda s: (frozenset(g(i) for i in s) for g in group.generators)
            )
        exponents = [tuple(int(i + 1 in s) for i in range(f.nvars)) for s in out]
        return len(minimal), [str(Polynomial.from_monomial(f.field, e)) for e in exponents]

    def test_agrees_with_expanding_the_orbit(self):
        # seeded (f, G) pairs, homogeneous and inhomogeneous, some with
        # coefficient sum 0: the same witness or None as the expanded
        # orbit gives, and the same radical-orbit representatives
        groups = [
            PermGroup.symmetric(3), PermGroup.cyclic(3), PermGroup.cyclic(4),
            PermGroup.symmetric(4), PermGroup.generated(4, ["(1 2 3 4)", "(1 4)(2 3)"]),
            PermGroup.generated(4, ["(1 2)"]), PermGroup.symmetric(5), PermGroup.cyclic(5),
        ]
        fields = [QQ, GF(5), GF(7), GF(32003)]
        rng = random.Random(2027)
        found = radical = 0
        for trial in range(192):
            group = groups[trial % len(groups)]
            field = fields[trial // len(groups) % len(fields)]
            n = group.degree
            homogeneous = trial % 3 != 2
            degrees = [rng.choice((1, 2, 3))] if homogeneous else range(4)
            monos = [m for d in degrees for m in monomials_of_degree(n, d)]
            chosen = rng.sample(monos, min(len(monos), rng.randint(1, 4)))
            coeffs = {m: rng.choice((-8, -3, -2, -1, 1, 2, 3, 8)) for m in chosen}
            if trial % 4 == 1 and len(chosen) > 1:
                coeffs[chosen[-1]] = -sum(coeffs[m] for m in chosen[:-1]) or 1
            f = Polynomial(field, n, coeffs)
            if f.is_zero:
                continue
            witness = monomial_free_witness(f, group)
            assert witness == self._reference_witness(f, group), (str(f), group.descriptor)
            found += witness is not None
            if homogeneous and trial % 2 == 0:
                report = radical_orbit_equality(f, group)
                assert (report.parameters["minimal_supports"],
                        report.certificate["representatives"]) == \
                    self._reference_representatives(f, group)
                radical += 1
        assert found >= 50 and radical >= 50

    def test_minimal_supports_of_the_expanded_orbit(self, seeded_orbit_seeds, P):
        cases = list(seeded_orbit_seeds) + [
            (PermGroup.generated(4, ["(1 2)"]), P("3*x1*x3^2 - x1^2*x4 + x2^2*x4", 4)),
            (PermGroup.cyclic(5), P("x1^2*x3 + x1*x2 - 4", 5)),
        ]
        for group, f in cases:
            supports = {tuple(int(e > 0) for e in m) for g in orbit(f, group) for m in g.terms}
            expected = {
                s for s in supports
                if not any(t != s and all(a <= b for a, b in zip(t, s)) for t in supports)
            }
            assert _minimal_supports(f, group) == expected, str(f)

    def test_minimal_supports_agree_with_the_quadratic_filter(self):
        # the minimal elements of the whole closure, every pair compared, on
        # 600 seeded (f, G) with symmetric, cyclic and generated groups
        def quadratic(f, group):
            own = {tuple(int(e > 0) for e in m) for m in f.terms}
            supports = _closure(own, lambda s: (g.act_monomial(s) for g in group.generators))
            return {s for s in supports
                    if not any(t != s and all(a <= b for a, b in zip(t, s)) for t in supports)}

        rng = random.Random(29)
        for _ in range(600):
            n = rng.randint(1, 7)
            kind = rng.randrange(3)
            if kind == 0:
                group = PermGroup.symmetric(n)
            elif kind == 1:
                group = PermGroup.cyclic(n)
            else:
                group = PermGroup.generated(
                    n, [Permutation(rng.sample(range(n), n)) for _ in range(rng.randint(1, 2))])
            monos = [m for d in (1, 2, 3) for m in monomials_of_degree(n, d)]
            chosen = rng.sample(monos, min(len(monos), rng.randint(1, 5)))
            f = Polynomial(QQ, n, {m: rng.choice((-2, -1, 1, 3)) for m in chosen})
            assert _minimal_supports(f, group) == quadratic(f, group), (str(f), group)
