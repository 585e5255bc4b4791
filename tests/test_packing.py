"""Properties of the packed monomials of the Groebner kernel.

For lex and grevlex in 1-7 variables, at widths from the smallest up: the
pack/unpack round trip, agreement of one int comparison with
``MonomialOrder.key``, of the guard-bit test with ``mono_divides`` and of
the fieldwise lcm with ``mono_lcm`` (also where the grevlex degree of the
lcm is too large to read off the packed int mod 2^width - 1), and additivity, with every overflowing
sum caught by a guard bit.  hypothesis is a test-only dependency; without
it the module is skipped.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from symorbits import GREVLEX, LEX  # noqa: E402
from symorbits.groebner import _Overflow, _Packing  # noqa: E402
from symorbits.polynomials import mono_divides, mono_lcm  # noqa: E402


@st.composite
def monomial_pairs(draw):
    """(order, packing, a, b): b is often a multiple of a, and exponents
    reach the largest value the packing's fields hold."""
    order = draw(st.sampled_from([LEX, GREVLEX]))
    nvars = draw(st.integers(1, 7))
    packing = _Packing.for_degree(order, nvars, draw(st.integers(0, 5000)))
    exponent = st.integers(0, packing.limit) | st.sampled_from([0, 1, packing.limit])
    a = draw(st.tuples(*[exponent] * nvars))
    b = draw(st.tuples(*[exponent] * nvars))
    if draw(st.booleans()):
        b = tuple(min(packing.limit, x + y) for x, y in zip(a, b))
    return order, packing, a, b


PROPERTY = settings(max_examples=300, deadline=None)


@PROPERTY
@given(monomial_pairs())
def test_round_trip(case):
    _, packing, a, b = case
    assert packing.unpack(packing.pack(a)) == a
    assert packing.unpack(packing.pack(b)) == b


@PROPERTY
@given(monomial_pairs())
def test_one_int_comparison_is_the_order(case):
    order, packing, a, b = case
    pa, pb = packing.pack(a), packing.pack(b)
    assert (pa < pb) == (order.key(a) > order.key(b))
    assert (pa == pb) == (a == b)
    assert packing.pack((0,) * len(a)) == 0 >= pa
    # the top field holds the order's key: the degree in grevlex, the fields in lex
    assert -(pa >> packing.top) == (pa & packing.low if packing.lex else sum(a))


@PROPERTY
@given(monomial_pairs())
def test_guard_test_is_divisibility(case):
    _, packing, a, b = case
    pa, pb = packing.pack(a), packing.pack(b)
    assert (not (pb - pa) & packing.guards) == mono_divides(a, b)
    assert (not (pa - pb) & packing.guards) == mono_divides(b, a)


@PROPERTY
@given(monomial_pairs())
def test_lcm_is_fieldwise_maximum(case):
    _, packing, a, b = case
    assert packing.lcm(packing.pack(a), packing.pack(b)) == packing.pack(mono_lcm(a, b))


def test_grevlex_lcm_degree_past_the_modulus():
    # width 8: the degree is read mod 255 only while deg a + deg b < 255
    packing = _Packing.for_degree(GREVLEX, 3, 4)
    a, b = (packing.limit, 100, 0), (0, packing.limit, 60)
    assert packing.mod == 255 and sum(a) + sum(b) >= packing.mod
    lcm = packing.lcm(packing.pack(a), packing.pack(b))
    assert lcm == packing.pack(mono_lcm(a, b))
    assert -(lcm >> packing.top) == sum(mono_lcm(a, b)) == 314
    # one below the modulus: read mod 255
    a, b = (packing.limit, 0, 0), (0, 0, packing.limit)
    assert sum(a) + sum(b) == packing.mod - 1
    lcm = packing.lcm(packing.pack(a), packing.pack(b))
    assert lcm == packing.pack((packing.limit, 0, packing.limit))


@PROPERTY
@given(monomial_pairs())
def test_product_is_sum_and_overflow_sets_a_guard(case):
    _, packing, a, b = case
    product = tuple(x + y for x, y in zip(a, b))
    total = packing.pack(a) + packing.pack(b)
    if max(product) <= packing.limit:
        assert total == packing.pack(product)
        assert not total & packing.guards
    else:
        assert total & packing.guards


@pytest.mark.parametrize("order", [LEX, GREVLEX], ids=str)
def test_wider_packing_holds_what_overflows_the_narrow_one(order):
    packing = _Packing.for_degree(order, 3, 4)
    wide = packing.wider()
    assert wide.width == 2 * packing.width
    m = (packing.limit + 1, 0, 3)
    with pytest.raises(_Overflow):
        packing.pack(m)
    assert wide.unpack(wide.pack(m)) == m
