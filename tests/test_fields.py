import math
import random
import time
from fractions import Fraction

import pytest

from symorbits import (
    GF,
    QQ,
    ExactMatrix,
    Field,
    PermGroup,
    binomial,
    binomial_alternating_sum,
    elimination_coefficients,
    in_span,
    monomial_free_witness,
    parse_polynomial,
    rank,
)
from symorbits.fields import is_prime


class TestScalarArithmetic:
    """Raw-value arithmetic on `Field` methods."""

    def test_rational_addition(self):
        assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)

    def test_prime_inverse(self):
        assert GF(7).inv(3) == 5

    def test_characteristic_two(self):
        field = GF(2)
        assert field.add(field.one, field.one) == field.zero == 0

    def test_inverse_of_zero_raises(self):
        for field in (QQ, GF(5)):
            with pytest.raises(ZeroDivisionError):
                field.inv(field.zero)
            with pytest.raises(ZeroDivisionError):
                field.div(field.one, field.zero)

    def test_rational_values_reduced(self):
        value = QQ.coerce(Fraction(4, 8))
        assert value == Fraction(1, 2) and value.denominator == 2
        assert type(QQ.coerce(3)) is Fraction and QQ.zero == 0 and not QQ.zero

    def test_prime_values_normalized(self):
        field = GF(7)
        assert field.coerce(-1) == 6
        assert field.coerce(Fraction(1, 2)) == 4  # 2*4 = 8 = 1 mod 7
        for got in (field.sub(2, 5), field.neg(3), field.div(1, 3), field.pow(3, -1)):
            assert type(got) is int and 0 <= got < 7
        for bad in (True, 1.5, "1"):
            with pytest.raises(TypeError):
                field.coerce(bad)

    def test_nonprime_modulus_rejected(self):
        for bad in (0, 1, 4, 6, 9, 15):
            with pytest.raises(ValueError):
                Field(bad)
        GF(2), GF(97)  # fine

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

        assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]

    def test_large_moduli(self):
        start = time.monotonic()
        assert GF(2**61 - 1).characteristic == 2**61 - 1
        assert time.monotonic() - start < 1.0
        # strong pseudoprimes to every base up to 23 and up to 37
        for composite in (3825123056546413051, 318665857834031151167461):
            with pytest.raises(ValueError, match="not a prime"):
                GF(composite)
        # above the bound where 13 Miller-Rabin bases are proved exact
        with pytest.raises(ValueError, match="too large"):
            GF(2**89 - 1)

    def test_rational_field_laws_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (
                QQ.coerce(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for _ in range(3)
            )
            assert QQ.add(a, b) == QQ.add(b, a)
            assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
            assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
            if b:
                assert QQ.mul(QQ.div(a, b), b) == a

    def test_prime_field_agrees_with_rationals_mod_p(self):
        rng = random.Random(11)
        p = 13
        field = GF(p)
        for _ in range(200):
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            x, y = field.coerce(a), field.coerce(b)
            assert field.add(x, y) == field.coerce(a + b)
            assert field.sub(x, y) == field.coerce(a - b)
            assert field.mul(x, y) == field.coerce(a * b)
            if b % p:
                assert field.div(x, y) == field.coerce(Fraction(a, b))


class TestRawValues:
    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
    def test_results_are_raw_field_values(self, field):
        # a Fraction over QQ and an int in [0, p) over GF(p), equal to the
        # rational answer read in the field
        def raw(values, rational):
            values = list(values)
            assert values == [field.coerce(x) for x in rational]
            for x in values:
                if field.is_rationals:
                    assert type(x) is Fraction
                else:
                    assert type(x) is int and 0 <= x < field.p

        f = parse_polynomial("x1^2*x2 + x1*x2^2", 3, field)
        raw([f.evaluate([Fraction(1, 2), 2, 0])], [Fraction(5, 2)])
        ok, coefficients = in_span([1, 0], ExactMatrix(field, 2, [{0: 1, 1: 1}, {1: 1}]))
        assert ok
        raw(coefficients, [1, -1])
        # the left-kernel vector is found cleared of denominators, as ints
        raw(rank(ExactMatrix(field, 2, [{0: 1, 1: 2}])).dual, [-2, 1])
        raw(elimination_coefficients(3, 2, field), [1, Fraction(1, 2), 1])
        raw(monomial_free_witness(f, PermGroup.symmetric(3)), [-1, 0, 1])
        # a rational identity, over QQ whatever the field
        assert type(binomial_alternating_sum(4, 2, 1)) is Fraction


class TestBinomials:
    def test_examples(self):
        assert binomial(4, 2) == 6
        assert binomial(3, 5) == 0
        for n in range(12):
            assert binomial(n, 0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 2)


class TestAlternatingBinomialSum:
    def test_collapse_at_top(self):
        value = binomial_alternating_sum(4, 2, 2)
        assert value == 6 and type(value) is Fraction

    def test_vanishing_below(self):
        assert not binomial_alternating_sum(4, 2, 1)
        assert not binomial_alternating_sum(5, 3, 0)

    def test_full_grid(self):
        for n in range(2, 13):
            for d in range(1, n):
                for a in range(d + 1):
                    value = binomial_alternating_sum(n, d, a)
                    expected = binomial(n, d) if a == d else 0
                    assert value == expected, (n, d, a)

    def test_falling_factorial_equivalent_form(self):
        # sum_j (-1)^j C(r,j) ff(s+j, r-1) = 0: the r-th finite difference of
        # a degree r-1 polynomial (ff(m, k) = m!/(m-k)! is math.perm)
        for r in range(1, 9):
            for s in range(0, 9):
                total = sum(
                    (-1) ** j * binomial(r, j) * math.perm(s + j, r - 1)
                    for j in range(r + 1)
                )
                assert total == 0, (r, s)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            binomial_alternating_sum(3, 3, 0)
        with pytest.raises(ValueError):
            binomial_alternating_sum(4, 2, 3)
