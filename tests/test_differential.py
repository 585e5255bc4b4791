"""Reduced Groebner bases against an independent implementation.

``sympy.groebner`` is the oracle: on seeded small orbit ideals over QQ and
GF(32003), in lex and in grevlex, both reduced bases must agree as sets
once each element is made monic by its leading coefficient in that order
(sympy clears denominators and normalises its own way), and each basis
must pass its own ``GroebnerBasis.verify``.  sympy is a
test-only dependency; without it the module is skipped.
"""

import random
from fractions import Fraction

import pytest

from symorbits import (
    GF,
    GREVLEX,
    LEX,
    QQ,
    PermGroup,
    Polynomial,
    buchberger,
    monomials_of_degree,
    orbit,
    parse_polynomial,
)

sympy = pytest.importorskip("sympy")

PRIME = 32003
GROUPS = [
    PermGroup.symmetric(3),
    PermGroup.cyclic(3),
    PermGroup.cyclic(4),
    PermGroup.symmetric(4),
    PermGroup.generated(4, ["(1 2 3 4)", "(1 4)(2 3)"]),
]


def _instances(count=20, seed=5):
    """Orbit generators of random homogeneous polynomials of degree 2 or 3
    with two or three terms."""
    rng = random.Random(seed)
    out = []
    for trial in range(count):
        field = QQ if trial % 2 == 0 else GF(PRIME)
        group = GROUPS[trial % len(GROUPS)]
        degree = rng.choice((2, 3))
        monos = rng.sample(monomials_of_degree(group.degree, degree), rng.randint(2, 3))
        f = Polynomial(field, group.degree, {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in monos})
        out.append(list(orbit(f, group)))
    return out


# plus the C4 orbit of an inhomogeneous quadric over QQ: zero-dimensional
# with 16 standard monomials, its lex basis in shape position ends in a
# univariate polynomial of degree 16
INSTANCES = _instances() + [
    list(orbit(parse_polynomial("-x1^2 - 2*x1*x4 + x4", 4, QQ), PermGroup.cyclic(4)))
]


def _monic(terms, order, field):
    lm = max(terms, key=order.key)
    inv = field.inv(field.coerce(terms[lm]))
    return frozenset((m, field.mul(field.coerce(c), inv)) for m, c in terms.items())


def _sympy_basis(gens, order):
    field, nvars = gens[0].field, gens[0].nvars
    xs = sympy.symbols(f"x1:{nvars + 1}")
    if field.is_rationals:
        options = {"domain": "QQ"}
        to_sympy = lambda c: sympy.Rational(c.numerator, c.denominator)  # noqa: E731
        from_sympy = lambda c: Fraction(int(c.p), int(c.q))  # noqa: E731
    else:
        options = {"modulus": PRIME}
        to_sympy = from_sympy = int
    polys = [
        sympy.Poly.from_dict({m: to_sympy(c) for m, c in g.terms.items()}, *xs, **options)
        for g in gens
    ]
    basis = sympy.groebner(polys, *xs, order=order.name, **options)
    return {
        _monic({m: from_sympy(c) for m, c in g.as_dict().items()}, order, field)
        for g in basis.polys
    }


@pytest.mark.parametrize("order", [LEX, GREVLEX], ids=str)
@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_reduced_basis_matches_sympy(index, order):
    gens = INSTANCES[index]
    ours = buchberger(gens, order)
    ours.verify()
    assert {_monic(g.terms, order, g.field) for g in ours} == _sympy_basis(gens, order)


@pytest.mark.parametrize("order", [LEX, GREVLEX], ids=str)
def test_fractional_coefficients_match_sympy(order):
    # denominators on the way in, cleared by the fraction-free kernel and
    # restored in the monic basis
    f = Polynomial(
        QQ, 3, {(2, 1, 0): Fraction(2, 3), (0, 1, 2): Fraction(-5, 7), (1, 1, 1): Fraction(1, 4)}
    )
    gens = list(orbit(f, PermGroup.cyclic(3))) + [Polynomial(QQ, 3, {(1, 2, 0): Fraction(3, 11)})]
    ours = buchberger(gens, order)
    ours.verify()
    assert {_monic(g.terms, order, g.field) for g in ours} == _sympy_basis(gens, order)
