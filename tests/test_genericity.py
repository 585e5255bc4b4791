import time

import pytest

from symorbits import genericity
from symorbits import (
    GF,
    QQ,
    BudgetExceededError,
    PermGroup,
    Polynomial,
    SupportSet,
    monomials_of_type,
    rank_condition,
    sample_genericity,
)


class TestHypothesisValidation:
    def test_irrelevant_radical_needs_variable_power(self):
        support = SupportSet.of(3, [(1, 1, 1)])
        with pytest.raises(ValueError, match="power of a variable"):
            sample_genericity(support, PermGroup.symmetric(3), "irrelevant_radical", 2)

    def test_irrelevant_radical_needs_transitive_group(self):
        support = SupportSet.of(3, [(3, 0, 0), (1, 1, 1)])
        group = PermGroup.generated(3, ["(1 2)"])
        with pytest.raises(ValueError, match="transitive"):
            sample_genericity(support, group, "irrelevant_radical", 2)

    def test_monomial_ideal_needs_single_type(self):
        support = SupportSet.of(3, [(2, 1, 0), (1, 1, 1)])
        with pytest.raises(ValueError, match="single-type"):
            sample_genericity(support, PermGroup.symmetric(3), "monomial_ideal", 2)

    def test_unknown_property(self):
        support = SupportSet.of(3, [(2, 1, 0)])
        with pytest.raises(ValueError, match="unknown property"):
            sample_genericity(support, PermGroup.symmetric(3), "nope", 2)

    def test_coefficient_box_must_be_positive(self):
        support = SupportSet.of(3, [(3, 0, 0), (1, 1, 1)])
        for box in (0, -1):
            with pytest.raises(ValueError, match="coeff_box"):
                sample_genericity(
                    support, PermGroup.symmetric(3), "irrelevant_radical", 2, coeff_box=box
                )

    def test_small_n_flagged_not_rejected(self):
        support = SupportSet.of(3, monomials_of_type((2, 1), 3))
        report = sample_genericity(
            support, PermGroup.symmetric(3), "radical_orbit", 2, seed=5
        )
        assert "fewer than 5 variables" in report.notes


class TestSampling:
    def test_deterministic_given_seed(self):
        support = SupportSet.of(3, [(3, 0, 0), (1, 1, 1)])
        first = sample_genericity(
            support, PermGroup.symmetric(3), "irrelevant_radical", 8, seed=42
        )
        second = sample_genericity(
            support, PermGroup.symmetric(3), "irrelevant_radical", 8, seed=42
        )
        assert first.machine() == second.machine()

    def test_bookkeeping_invariant(self):
        support = SupportSet.of(3, monomials_of_type((2, 1), 3))
        report = sample_genericity(
            support, PermGroup.symmetric(3), "monomial_ideal", 10, seed=3
        )
        assert report.successes + len(report.failures) == report.trials

    def test_deadline_reaches_every_property(self):
        past = time.monotonic() - 1
        cases = [
            (SupportSet.of(3, [(3, 0, 0), (1, 1, 1)]), "irrelevant_radical"),
            (SupportSet.of(3, monomials_of_type((2, 1), 3)), "monomial_ideal"),
            (SupportSet.of(5, monomials_of_type((1, 1, 1), 5)), "radical_orbit"),
        ]
        for support, prop in cases:
            group = PermGroup.symmetric(support.nvars)
            with pytest.raises(BudgetExceededError):
                sample_genericity(support, group, prop, 1, deadline=past)

    def test_all_ones_coefficient_vector_is_deterministic_failure(self):
        # the fully symmetric polynomial has a rank-one orbit matrix
        f = Polynomial(QQ, 3, {m: 1 for m in monomials_of_type((2, 1), 3)})
        report = rank_condition(f, PermGroup.symmetric(3))
        assert not report.verdict and report.parameters["rank"] == 1



class _TrueVerdict:
    """Stands in for a verifier's answer, as a bool and as a report."""

    verdict = True

    def __bool__(self):
        return True


class TestPrimeFields:
    CASES = [
        (SupportSet.of(3, [(2, 0, 0), (1, 1, 0)]), "irrelevant_radical",
         "radical_orbit_equality"),
        (SupportSet.of(3, monomials_of_type((2, 1), 3)), "monomial_ideal", "rank_condition"),
        (SupportSet.of(3, monomials_of_type((1, 1), 3)), "radical_orbit", "radical_orbit_equality"),
    ]

    @pytest.mark.parametrize("p", [2, 3, 7])
    @pytest.mark.parametrize("support, prop, verifier", CASES)
    def test_every_trial_keeps_its_whole_support(self, monkeypatch, p, support, prop, verifier):
        # a coefficient that is 0 mod p would drop its term and test another support
        drawn = []

        def record(polys, *args, **kwargs):
            drawn.extend(polys if isinstance(polys, list) else [polys])
            return _TrueVerdict()

        monkeypatch.setattr(genericity, verifier, record)
        report = sample_genericity(
            support, PermGroup.symmetric(3), prop, 30, seed=p, field=GF(p)
        )
        assert report.successes == 30 and drawn
        for f in drawn:
            assert f.field == GF(p) and len(f.terms) == len(support.elements)

    @pytest.mark.parametrize("p", [2, 3])
    def test_small_characteristic_runs(self, p):
        # the zero polynomial used to reach these verifiers and raise ValueError
        for support, prop, _ in self.CASES[:2]:
            report = sample_genericity(
                support, PermGroup.symmetric(3), prop, 12, seed=5, field=GF(p)
            )
            assert report.successes + len(report.failures) == 12

    def test_rationals_draw_unchanged(self):
        support, prop, _ = self.CASES[0]
        report = sample_genericity(support, PermGroup.symmetric(3), prop, 12, seed=5)
        assert (report.successes, report.failures) == (11, [(-4, 4)])
