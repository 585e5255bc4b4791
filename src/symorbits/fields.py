"""Exact coefficient arithmetic over the rationals and over prime fields.

Field values are raw: `fractions.Fraction` over the rationals and plain
`int` residues in [0, p) over a prime field.  Containers such as
polynomials and matrices store raw values together with a `Field` tag, and
every value a public function returns is raw too, read against the field
of its polynomial, matrix or report.  Both zeros are falsy.  No floating
point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Raw = Fraction | int

# a Fraction is immutable, so every rational zero and one can be shared
_ZERO = Fraction(0)
_ONE = Fraction(1)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base above: Miller-Rabin on these
# bases is exact below it
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases.

    Exact for n < 3317044064679887385961981; a larger n raises ValueError.
    """
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"modulus {n} is too large to be proved prime (limit {_MR_LIMIT})")
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """The rational numbers (``p is None``) or the prime field with p elements."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not a prime >= 2")

    @property
    def characteristic(self) -> int:
        return self.p or 0

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def __repr__(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"

    # Raw-value arithmetic: every container in this package keeps raw values
    # and calls these.

    @property
    def zero(self) -> Raw:
        return _ZERO if self.p is None else 0

    @property
    def one(self) -> Raw:
        return _ONE if self.p is None else 1

    def coerce(self, x) -> Raw:
        """Normalize an int or Fraction to this field's raw form."""
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot coerce {type(x).__name__} into {self}")
        if self.p is None:
            # a Fraction is immutable and already in lowest terms: share it
            return x if isinstance(x, Fraction) else Fraction(x)
        if isinstance(x, Fraction):
            return self.div(x.numerator % self.p, x.denominator % self.p)
        return x % self.p

    def add(self, a: Raw, b: Raw) -> Raw:
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a: Raw, b: Raw) -> Raw:
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a: Raw, b: Raw) -> Raw:
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a: Raw) -> Raw:
        return -a if self.p is None else (-a) % self.p

    def inv(self, a: Raw) -> Raw:
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1) / a
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in {self}")
        return pow(a, self.p - 2, self.p)

    def div(self, a: Raw, b: Raw) -> Raw:
        return self.mul(a, self.inv(b))

    def pow(self, a: Raw, e: int) -> Raw:
        if e < 0:
            return self.inv(self.pow(a, -e))
        return a**e if self.p is None else pow(a, e, self.p)


QQ = Field()


def GF(p: int) -> Field:
    """The prime field with p elements; p is checked by deterministic Miller-Rabin."""
    return Field(p)


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer; zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires nonnegative arguments")
    return math.comb(n, k)


def binomial_alternating_sum(n: int, d: int, a: int) -> Fraction:
    """The alternating binomial sum

        C(n-1, d) * sum_{j=0}^{d} (-1)^j C(d-a, j) C(n-d+a, d-j) / C(n-1, d-j)

    as an exact `Fraction`.  It collapses to C(n, d) when a = d and to 0
    for every 0 <= a < d; requires 1 <= d <= n-1 and 0 <= a <= d.
    """
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got n={n}, d={d}")
    if not 0 <= a <= d:
        raise ValueError(f"need 0 <= a <= d, got a={a}")
    total = Fraction(0)
    for j in range(d + 1):
        total += (
            (-1) ** j
            * Fraction(binomial(d - a, j) * binomial(n - d + a, d - j), binomial(n - 1, d - j))
        )
    return binomial(n - 1, d) * total
