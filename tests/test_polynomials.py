import itertools
import math
import random
import time
from fractions import Fraction

import pytest

try:  # hypothesis is a test-only dependency; without it its tests are left out
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:
    st = None

from symorbits import (
    GF,
    GREVLEX,
    LEX,
    QQ,
    Polynomial,
    PolynomialSyntaxError,
    SupportSet,
    analyze_support,
    elementary_symmetric,
    format_polynomial,
    monomial_type,
    monomials_of_degree,
    monomials_of_type,
    parse_polynomial,
)
from symorbits.fields import binomial
from symorbits.polynomials import count_of_type


def random_polynomial(rng, nvars, field=QQ, max_degree=3, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        terms[mono] = rng.randint(-9, 9)
    return Polynomial(field, nvars, terms)


if st is not None:
    ORDERS = st.sampled_from([LEX, GREVLEX])

    @st.composite
    def text_polynomials(draw, field, coeffs):
        nvars = draw(st.integers(1, 5))
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * nvars), coeffs, max_size=6))
        return Polynomial(field, nvars, terms)

    BIG = st.integers(-10**30, 10**30)
    RATIONAL_POLYS = text_polynomials(QQ, st.builds(Fraction, BIG, st.integers(1, 10**12)))
    PRIME_POLYS = st.sampled_from([GF(2), GF(7), GF(32003), GF(2305843009213693951)]).flatmap(
        lambda field: text_polynomials(field, BIG)
    )


class TestArithmetic:
    def test_distributivity_example(self, P):
        left = (P("x1 - x4", 5)) * (P("x2 - x5", 5))
        assert left == P("x1*x2 - x1*x5 - x2*x4 + x4*x5", 5)

    def test_cancellation(self, P):
        f = P("x1^2*x2 + 3*x1", 3)
        assert (f + f.scale(-1)).is_zero

    def test_frobenius_over_f2(self):
        f = parse_polynomial("x1 + x2", 2, GF(2))
        assert f * f == parse_polynomial("x1^2 + x2^2", 2, GF(2))

    def test_mismatch_raises(self, P):
        with pytest.raises(ValueError):
            P("x1", 2) + P("x1", 3)
        with pytest.raises(ValueError):
            P("x1", 2) + parse_polynomial("x1", 2, GF(5))

    def test_power(self, P):
        assert P("x1 + 1", 1) ** 2 == P("x1^2 + 2*x1 + 1", 1)
        assert P("x1", 1) ** 0 == P("1", 1)

    def test_evaluate_is_ring_homomorphism(self):
        rng = random.Random(3)
        for _ in range(40):
            nvars = rng.randint(1, 4)
            f = random_polynomial(rng, nvars)
            g = random_polynomial(rng, nvars)
            point = [rng.randint(-4, 4) for _ in range(nvars)]
            assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
            assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


class TestEvaluation:
    def test_elementary_symmetric_at_ones(self):
        e = elementary_symmetric(3, (1, 2, 3), 2, QQ)
        assert e.evaluate([1, 1, 1]) == 3

    def test_vanishing_point(self, P):
        f = P("x1^2*x2 + x1*x2^2", 3)
        assert not f.evaluate([1, -1, 0])

    def test_constant_term_at_origin(self):
        rng = random.Random(5)
        for _ in range(20):
            f = random_polynomial(rng, 3)
            origin = [0, 0, 0]
            assert f.evaluate(origin) == f.terms.get((0, 0, 0), 0)

    def test_evaluate_rejects_bad_points(self, P):
        f = P("x1 + x2", 2)
        with pytest.raises(ValueError):
            f.evaluate([1])
        with pytest.raises(TypeError):
            f.evaluate([1, 0.5])


class TestParseFormat:
    def test_paper_polynomials(self, P):
        f = P("x1^2*x2 + x1*x2^2", 2)
        assert f.terms == {(2, 1): Fraction(1), (1, 2): Fraction(1)}

    def test_zero(self):
        assert parse_polynomial("0", 3, QQ).is_zero
        assert format_polynomial(Polynomial.zero(QQ, 3)) == "0"

    def test_counterexample_family_member(self, P):
        f = P("x1^2 + 3*x1*x2", 2)
        assert f.terms[(1, 1)] == 3

    def test_rational_coefficients(self, P):
        f = P("1/2*x1 - 2/3", 1)
        assert f.terms[(1,)] == Fraction(1, 2)
        assert f.terms[(0,)] == Fraction(-2, 3)

    def test_syntax_error_positions(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("x1 + @", 2, QQ)
        assert err.value.position == 5
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("", 2, QQ)
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x1 + ", 2, QQ)

    @pytest.mark.parametrize("text, field, message, position", [
        ("1/0*x1", QQ, "zero denominator", 2),
        ("1/x1", QQ, "expected integer denominator", 2),
        ("2/", QQ, "expected integer denominator", 2),
        ("x1^x2", QQ, "expected integer exponent", 3),
        ("x1^", QQ, "expected integer exponent", 3),
        ("x1*+x2", QQ, "expected factor after '*'", 3),
        ("x1*", QQ, "expected factor after '*'", 3),
        ("x1^2^3", QQ, "unexpected token '^'", 4),
        ("1/2/3", QQ, "unexpected token '/'", 3),
        ("-", QQ, "expected a term", 1),
        ("x1 + ", QQ, "expected a term", 5),
        ("--x1", QQ, "expected a term", 1),
        ("x", QQ, "unexpected character 'x'", 0),
        ("x1 + x3 @", QQ, "unexpected character '@'", 8),  # tokenised before any grammar check
        ("x3", QQ, "variable x3 out of range x1..x2", 0),
        ("", QQ, "empty polynomial text", 0),
        ("1/2*x1", GF(2), "denominator 2 not invertible mod 2", 2),
        ("3/6", GF(3), "denominator 6 not invertible mod 3", 2),
    ])
    def test_syntax_error_message_and_position(self, text, field, message, position):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text, 2, field)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    @pytest.mark.parametrize("text, expected", [
        ("*x1", "x1"),
        ("2 3*x1", "6*x1"),
        ("x1 2", "2*x1"),
        ("x1*x1", "x1^2"),
        ("x1 x2", "x1*x2"),
        ("x01", "x1"),
        ("-1/2*x2^0", "-1/2"),
    ])
    def test_accepted_quirks(self, text, expected):
        assert format_polynomial(parse_polynomial(text, 2, QQ)) == expected

    def test_variable_out_of_range(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x3", 2, QQ)

    def test_prime_field_literals_reduced(self):
        f = parse_polynomial("5*x1", 2, GF(3))
        assert f.terms == {(1, 0): 2}

    def test_prime_field_bad_denominator(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("1/2*x1", 2, GF(2))

    if st is not None:
        # parse of format is the identity, in both orders and with large coefficients

        @settings(deadline=None)
        @given(RATIONAL_POLYS, ORDERS)
        def test_roundtrip_randomized(self, f, order):
            assert parse_polynomial(format_polynomial(f, order), f.nvars, QQ) == f

        @settings(deadline=None)
        @given(PRIME_POLYS, ORDERS)
        def test_roundtrip_prime_field(self, f, order):
            assert parse_polynomial(format_polynomial(f, order), f.nvars, f.field) == f

    def test_formatting_descending_with_absorbed_signs(self, P):
        f = P("x2 - x1^2 + 1/2", 2)
        assert format_polynomial(f, LEX) == "-x1^2 + x2 + 1/2"


class TestOrders:
    def test_lex_vs_grevlex_disagree(self):
        a, b = (3, 0, 1), (2, 2, 0)  # x1^3*x3 vs x1^2*x2^2
        assert LEX.key(a) > LEX.key(b)
        assert GREVLEX.key(a) < GREVLEX.key(b)

    def test_total_multiplicative_with_one_minimal(self):
        rng = random.Random(23)
        one = (0, 0, 0)
        monos = monomials_of_degree(3, 2) + monomials_of_degree(3, 3) + [one]
        for order in (LEX, GREVLEX):
            for _ in range(300):
                a, b, c = (rng.choice(monos) for _ in range(3))
                ka, kb = order.key(a), order.key(b)
                # totality and antisymmetry
                assert (ka > kb) or (kb > ka) or a == b
                # multiplicative
                shifted = tuple(x + y for x, y in zip(a, c)), tuple(x + y for x, y in zip(b, c))
                assert (ka > kb) == (order.key(shifted[0]) > order.key(shifted[1]))
                # 1 is minimal
                if a != one:
                    assert order.key(a) > order.key(one)


class TestElementarySymmetric:
    def test_paper_example(self, P):
        assert elementary_symmetric(3, (1, 2, 3), 2, QQ) == P("x1*x2 + x1*x3 + x2*x3", 3)

    def test_full_product(self):
        for n in (1, 2, 4):
            e = elementary_symmetric(n, range(1, n + 1), n, QQ)
            assert e == Polynomial(QQ, n, {(1,) * n: 1})

    def test_two_variables(self, P):
        assert elementary_symmetric(2, (1, 2), 1, QQ) == P("x1 + x2", 2)

    def test_term_count_and_shape(self):
        for n in range(1, 7):
            for d in range(1, n + 1):
                e = elementary_symmetric(n, range(1, n + 1), d, QQ)
                assert len(e.terms) == binomial(n, d)
                assert all(c == 1 for c in e.terms.values())
                assert all(sum(m) == d and max(m) <= 1 for m in e.terms)

    def test_subset_of_variables(self, P):
        assert elementary_symmetric(4, (2, 3, 4), 2, QQ) == P("x2*x3 + x2*x4 + x3*x4", 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            elementary_symmetric(3, (1, 2, 3), 4, QQ)
        with pytest.raises(ValueError):
            elementary_symmetric(3, (1, 5), 1, QQ)


class TestSupportAnalysis:
    def test_mixed_degree_example(self, P):
        prof = analyze_support(P("x1^2*x2 + x1*x2^2", 3).support())
        assert prof.homogeneous and prof.degree == 3
        assert prof.types == frozenset({(2, 1)})
        assert not prof.squarefree

    def test_symmetric_squarefree(self):
        prof = analyze_support(elementary_symmetric(3, (1, 2, 3), 2, QQ).support())
        assert prof.homogeneous and prof.degree == 2
        assert prof.squarefree and prof.symmetric

    def test_asymmetric_example(self, P):
        prof = analyze_support(P("x1^3 + x1*x2*x3", 3).support())
        assert prof.types == frozenset({(3,), (1, 1, 1)})
        assert not prof.symmetric  # x2^3 is absent

    def test_count_of_type_is_the_multinomial(self):
        # every partition of at most 12 against nvars! / prod(multiplicity!)
        # over the exponents, zeros included, for nvars up to 12
        def partitions(total, largest):
            if total == 0:
                yield ()
            for part in range(min(total, largest), 0, -1):
                for rest in partitions(total - part, part):
                    yield (part,) + rest

        for total in range(13):
            for partition in partitions(total, total):
                for nvars in range(1, 13):
                    if len(partition) > nvars:
                        expected = 0
                    else:
                        exponents = list(partition) + [0] * (nvars - len(partition))
                        expected = math.factorial(nvars) // math.prod(
                            math.factorial(exponents.count(e)) for e in set(exponents))
                    assert count_of_type(partition, nvars) == expected, (partition, nvars)
        assert count_of_type((2, 1, 1), 4) == len(monomials_of_type((2, 1, 1), 4)) == 12

    def test_symmetry_counted_not_listed(self):
        # type (6,5,4,3,2,1) has 12!/6! = 665,280 monomials in 12 variables:
        # the support's count of each type is compared with that, none listed
        start = time.monotonic()
        prof = analyze_support(SupportSet.of(12, [(6, 5, 4, 3, 2, 1) + (0,) * 6]))
        assert prof.types == frozenset({(6, 5, 4, 3, 2, 1)}) and not prof.symmetric
        assert time.monotonic() - start < 0.1

    def test_symmetry_agrees_with_listing(self):
        rng = random.Random(19)
        for _ in range(200):
            nvars = rng.randint(1, 4)
            pool = [m for k in range(4) for m in monomials_of_degree(nvars, k)]
            # whole types, then maybe one monomial dropped
            chosen = {monomial_type(m) for m in rng.sample(pool, rng.randint(1, 4))}
            elements = {m for m in pool if monomial_type(m) in chosen}
            if rng.random() < 0.5 and len(elements) > 1:
                elements.discard(rng.choice(sorted(elements)))
            prof = analyze_support(SupportSet.of(nvars, elements))
            listed = all(set(monomials_of_type(t, nvars)) <= elements for t in prof.types)
            assert prof.symmetric == listed

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.zero(QQ, 3).support()
        with pytest.raises(ValueError):
            SupportSet.of(3, [])

    def test_monomial_type(self):
        assert monomial_type((2, 1, 0)) == (2, 1)
        assert monomial_type((1, 1, 1)) == (1, 1, 1)
        assert monomial_type((0, 0, 0)) == ()

    def test_same_type_iff_permutations(self):
        rng = random.Random(29)
        for _ in range(100):
            a = tuple(rng.randint(0, 3) for _ in range(4))
            b = tuple(rng.randint(0, 3) for _ in range(4))
            same_type = monomial_type(a) == monomial_type(b)
            permutation_related = sorted(a) == sorted(b)
            assert same_type == permutation_related

    def test_monomials_of_type_enumeration(self):
        monos = monomials_of_type((2, 1), 3)
        assert len(monos) == 6
        assert all(monomial_type(m) == (2, 1) for m in monos)
        # the distinct arrangements of the padded type
        rng = random.Random(61)
        for _ in range(100):
            n = rng.randint(1, 6)
            part = [rng.randint(0, 3) for _ in range(rng.randint(0, 7))]
            padded = [e for e in part if e > 0]
            expected = (
                sorted(set(itertools.permutations(padded + [0] * (n - len(padded)))))
                if len(padded) <= n else []
            )
            assert monomials_of_type(part, n) == expected
        # multinomial counts in 12 variables, without walking 12! arrangements
        assert monomials_of_type((1,) * 12, 12) == [(1,) * 12]
        assert len(monomials_of_type((2, 2, 1, 1, 1), 12)) == 66 * 120
