import math
import random
import time
from fractions import Fraction

import pytest

from symorbits import (
    GF,
    QQ,
    Field,
    binomial,
    binomial_alternating_sum,
)
from symorbits.fields import is_prime


class TestScalarArithmetic:
    def test_rational_addition(self):
        assert QQ.scalar(Fraction(1, 2)) + QQ.scalar(Fraction(1, 3)) == QQ.scalar(Fraction(5, 6))

    def test_prime_inverse(self):
        assert GF(7).scalar(3).inverse() == GF(7).scalar(5)

    def test_characteristic_two(self):
        one = GF(2).scalar(1)
        assert (one + one).is_zero

    def test_field_mismatch_raises(self):
        with pytest.raises(ValueError):
            QQ.scalar(1) + GF(5).scalar(1)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QQ.scalar(0).inverse()
        with pytest.raises(ZeroDivisionError):
            GF(5).scalar(0).inverse()

    @pytest.mark.parametrize("field, text", [
        (QQ, "Scalar(3/2, QQ)"), (GF(7), "Scalar(5, GF(7))"),
    ], ids=["QQ", "GF(7)"])
    def test_operators_agree_with_the_field(self, field, text):
        x, y = field.scalar(Fraction(3, 2)), field.scalar(5)
        four = field.coerce(4)
        cases = [
            (x - y, field.sub(x.value, y.value)),
            (x - 4, field.sub(x.value, four)),
            (4 - x, field.sub(four, x.value)),
            (x / y, field.div(x.value, y.value)),
            (x / 4, field.div(x.value, four)),
            (4 / x, field.div(four, x.value)),
            (-x, field.neg(x.value)),
        ]
        for got, expected in cases:
            assert got.field == field and got.value == expected
        assert repr(x) == text

    def test_rational_values_reduced(self):
        s = QQ.scalar(Fraction(4, 8))
        assert s.value == Fraction(1, 2)
        assert s.value.denominator == 2

    def test_prime_values_normalized(self):
        assert GF(7).scalar(-1).value == 6
        assert GF(7).scalar(Fraction(1, 2)).value == 4  # 2*4 = 8 = 1 mod 7

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
                QQ.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for _ in range(3)
            )
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c

    def test_prime_field_agrees_with_rationals_mod_p(self):
        rng = random.Random(11)
        p = 13
        field = GF(p)
        for _ in range(200):
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            assert field.scalar(a) + field.scalar(b) == field.scalar(a + b)
            assert field.scalar(a) * field.scalar(b) == field.scalar(a * b)


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
        assert binomial_alternating_sum(4, 2, 2) == QQ.scalar(6)

    def test_vanishing_below(self):
        assert binomial_alternating_sum(4, 2, 1).is_zero
        assert binomial_alternating_sum(5, 3, 0).is_zero

    def test_full_grid(self):
        for n in range(2, 13):
            for d in range(1, n):
                for a in range(d + 1):
                    value = binomial_alternating_sum(n, d, a)
                    expected = binomial(n, d) if a == d else 0
                    assert value.value == expected, (n, d, a)

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
