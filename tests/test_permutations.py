import ast
import itertools
import json
import math
import pathlib
import random
import re
import time

import pytest

try:  # hypothesis is a test-only dependency; without it its tests are left out
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:
    st = None

from symorbits import (
    GF,
    QQ,
    BudgetExceededError,
    PermGroup,
    Permutation,
    Polynomial,
    elementary_symmetric,
    monomial_type,
    orbit,
    parse_polynomial,
)
from symorbits.cli import parse_group
from symorbits.permutations import _orbit_size

TESTS = pathlib.Path(__file__).parent


def built_groups():
    """Every group the test files build with ``PermGroup.generated`` from
    literal arguments, and every ``gens:`` group stored in tests/data."""
    groups = []
    for path in sorted(TESTS.glob("*.py")):
        for n, gens in re.findall(r"PermGroup\.generated\(\s*(\d+),\s*(\[[^\]]*\])",
                                  path.read_text()):
            groups.append(PermGroup.generated(int(n), ast.literal_eval(gens)))
    stored = json.loads((TESTS / "data" / "groebner_bases.json").read_text()).values()
    for desc, n in sorted({(e["group"], e["nvars"]) for e in stored}):
        if desc.startswith("gens:"):
            groups.append(parse_group(desc, n))
    return groups


class TestPermutationBasics:
    def test_cycle_parsing(self):
        s = Permutation.from_cycles("(1 2)(3 4)", 4)
        assert s(1) == 2 and s(2) == 1 and s(3) == 4 and s(4) == 3
        assert Permutation.from_cycles("()", 3) == Permutation.identity(3)
        assert repr(Permutation.from_cycles("(1 3 2)", 3)) == "(1 3 2)"

    def test_cycle_parse_errors(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles("(1 5)", 3)
        with pytest.raises(ValueError):
            Permutation.from_cycles("(1 2)(2 3)", 3)
        with pytest.raises(ValueError):
            Permutation.from_cycles("1 2", 3)

    def test_composition_and_inverse(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(1, 6)
            a = Permutation(tuple(rng.sample(range(n), n)))
            b = Permutation(tuple(rng.sample(range(n), n)))
            for i in range(1, n + 1):
                assert (a * b)(i) == a(b(i))
            assert a * a.inverse() == Permutation.identity(n)


class TestAction:
    def test_transposition_on_monomial(self, P):
        s = Permutation.from_cycles("(1 2)", 2)
        assert s.act(P("x1^2*x2", 2)) == P("x2^2*x1", 2)

    def test_transposition_on_e32_in_four_vars(self, P):
        # substituting index 1 -> 4 in each term of x1x2 + x1x3 + x2x3
        s = Permutation.from_cycles("(1 4)", 4)
        image = s.act(elementary_symmetric(4, (1, 2, 3), 2, QQ))
        assert image == P("x4*x2 + x4*x3 + x2*x3", 4)

    def test_setwise_stabilizer_fixes_symmetric_polynomial(self):
        e = elementary_symmetric(5, (1, 2, 3), 2, QQ)
        for text in ("(1 2)", "(1 2 3)", "(4 5)", "(1 3)(4 5)"):
            s = Permutation.from_cycles(text, 5)
            assert s.act(e) == e

    def test_action_is_group_homomorphism(self, elements):
        rng = random.Random(37)
        group = elements(PermGroup.symmetric(4))
        for _ in range(40):
            f = Polynomial(
                QQ, 4,
                {tuple(rng.randint(0, 2) for _ in range(4)): rng.randint(-5, 5)
                 for _ in range(3)},
            )
            a = rng.choice(group)
            b = rng.choice(group)
            assert (a * b).act(f) == a.act(b.act(f))
            assert Permutation.identity(4).act(f) == f

    def test_action_is_ring_homomorphism(self, elements):
        rng = random.Random(41)
        group = elements(PermGroup.symmetric(3))
        for _ in range(40):
            f = Polynomial(
                QQ, 3,
                {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-5, 5)
                 for _ in range(3)},
            )
            g = Polynomial(
                QQ, 3,
                {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-5, 5)
                 for _ in range(3)},
            )
            s = rng.choice(group)
            assert s.act(f * g) == s.act(f) * s.act(g)
            assert s.act(f + g) == s.act(f) + s.act(g)

    def test_degree_mismatch(self, P):
        with pytest.raises(ValueError):
            Permutation.from_cycles("(1 2)", 2).act(P("x1", 3))


class TestGroups:
    def test_symmetric_order(self):
        assert PermGroup.symmetric(3).order == 6
        assert PermGroup.symmetric(1).order == 1

    def test_cyclic(self):
        group = PermGroup.cyclic(4)
        assert group.order == 4
        gen = group.generators[0]
        assert repr(gen) == "(1 2 3 4)"

    def test_generated(self):
        group = PermGroup.generated(3, ["(1 2)"])
        assert group.order == 2

    def test_full_symmetric_marks(self):
        # C1 and C2 are S1 and S2, and a generated group is S_N when its
        # chain shows N!; C3 is not S3
        for group in (PermGroup.cyclic(1), PermGroup.cyclic(2),
                      parse_group("gens:(1 2),(1 2 3)", 3)):
            assert group.is_full_symmetric and group.order == math.factorial(group.degree)
        c3 = PermGroup.cyclic(3)
        assert not c3.is_full_symmetric and c3.order == 3

    def test_generated_closure(self):
        group = PermGroup.generated(4, ["(1 2)", "(1 2 3 4)"])
        assert group.order == 24

    def test_order_matches_enumeration(self, elements):
        # the Schreier-Sims order against listing the elements, on every
        # group the tests build and on 300 seeded random groups of degree
        # <= 7; past 50,000 elements the listing stops and the order must
        # be larger
        groups = built_groups()
        assert len(groups) >= 20
        rng = random.Random(26)
        for _ in range(300):
            n = rng.randint(1, 7)
            groups.append(PermGroup.generated(
                n, [Permutation(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]))
        for group in groups:
            listed = elements(group, limit=50_000)
            if listed is None:
                assert group.order > 50_000, group
            else:
                assert group.order == len(listed), group
        assert {g.order for g in groups} >= {1, 2, 6, 8, 10, 12, 24, 60, 120, 720, 5040}

    def test_orders_past_any_enumeration(self):
        a9 = PermGroup.generated(9, ["(1 2 3)", "(1 2 3 4 5 6 7 8 9)"])
        assert a9.order == math.factorial(9) // 2 and not a9.is_full_symmetric
        s10 = PermGroup.generated(10, ["(1 2)", "(1 2 3 4 5 6 7 8 9 10)"])
        assert s10.order == math.factorial(10) and s10.is_full_symmetric
        start = time.monotonic()
        s12 = PermGroup.generated(12, ["(1 2)", "(1 2 3 4 5 6 7 8 9 10 11 12)"])
        assert time.monotonic() - start < 0.5
        assert s12.is_full_symmetric
        # the product of two disjoint symmetric groups, and a cyclic group
        # given by a power of its generator
        product = PermGroup.generated(12, ["(1 2)", "(1 2 3 4 5 6)", "(7 8)", "(7 8 9 10 11 12)"])
        assert product.order == 720 * 720
        assert PermGroup.generated(6, ["(1 3 5)(2 4 6)"]).order == 3

    def test_generated_checks_the_deadline(self):
        with pytest.raises(BudgetExceededError):
            PermGroup.generated(5, ["(1 2)", "(1 2 3 4 5)"], deadline=time.monotonic() - 1)
        group = PermGroup.generated(5, ["(1 2)", "(1 2 3 4 5)"], deadline=time.monotonic() + 60)
        assert group.order == 120

    def test_descriptor_rebuilds_the_generators(self):
        for group in built_groups():
            if group.descriptor.startswith("gens:"):
                rebuilt = parse_group(group.descriptor, group.degree)
                assert rebuilt.generators == group.generators, group.descriptor
                assert rebuilt.descriptor == group.descriptor
        # generators are joined by commas, so these two no longer print alike
        pair = PermGroup.generated(4, ["(1 2)", "(3 4)"])
        product = PermGroup.generated(4, ["(1 2)(3 4)"])
        assert (pair.descriptor, pair.order) == ("gens:(1 2),(3 4)", 4)
        assert (product.descriptor, product.order) == ("gens:(1 2)(3 4)", 2)

    def test_enumeration_bound(self, P):
        s9 = PermGroup.symmetric(9)
        assert s9.order == 362880 and s9.is_full_symmetric
        # the bound counts distinct images: C(12, 7) of x1...x7 under S12,
        # but all 12!/6! placements of six distinct exponents
        assert len(orbit(P("x1*x2*x3*x4*x5*x6*x7", 12), PermGroup.symmetric(12))) == 792
        with pytest.raises(ValueError):
            orbit(P("x1^6*x2^5*x3^4*x4^3*x5^2*x6", 12), PermGroup.symmetric(12))

    def test_closure_under_product_and_inverse(self, elements):
        group = PermGroup.generated(4, ["(1 2)", "(3 4)", "(1 3)(2 4)"])
        listed = elements(group)
        assert len(listed) == group.order == 8
        for a in listed:
            assert a.inverse() in listed
        rng = random.Random(43)
        for _ in range(50):
            a, b = rng.choice(listed), rng.choice(listed)
            assert a * b in listed


class TestOrbits:
    def test_invariant_polynomial(self):
        e = elementary_symmetric(3, (1, 2, 3), 2, QQ)
        assert orbit(e, PermGroup.symmetric(3)) == (e,)

    def test_monomial_orbit(self, P):
        got = set(orbit(P("x1*x2", 3), PermGroup.symmetric(3)))
        assert got == {P("x1*x2", 3), P("x1*x3", 3), P("x2*x3", 3)}

    def test_e32_in_four_variables(self):
        # independent construction: e^2 on each 3-subset of {1..4}
        got = set(orbit(elementary_symmetric(4, (1, 2, 3), 2, QQ), PermGroup.symmetric(4)))
        expected = {
            elementary_symmetric(4, J, 2, QQ)
            for J in itertools.combinations((1, 2, 3, 4), 3)
        }
        assert got == expected and len(got) == 4

    def test_shortcut_agrees_with_full_enumeration(self, elements):
        rng = random.Random(47)
        fixed = [  # repeated coefficients, which the coded images re-sort; mixed types
            "x1^2*x2 + x2^2*x3 + x3^2*x1 + 2*x4*x5",
            "x1*x2 - x3 + 2*x1^2",
            "3*x1^2 + 3*x2*x3 - x4 - x5",
        ]
        for field, group in itertools.product((QQ, GF(32003)), (
            PermGroup.symmetric(5),
            PermGroup.cyclic(5),
            PermGroup.generated(5, ["(1 2 3 4 5)", "(2 5)(3 4)"]),  # dihedral
            PermGroup.generated(5, ["(1 2 3)", "(3 4 5)"]),  # A5
        )):
            polys = [parse_polynomial(text, 5, field) for text in fixed]
            for _ in range(10):
                polys.append(Polynomial(
                    field, 5,
                    {tuple(rng.randint(0, 2) if i < 3 else 0 for i in range(5)):
                     rng.randint(-5, 5) for _ in range(3)},
                ))
            for f in polys:
                if f.is_zero:
                    continue
                fast = orbit(f, group)
                slow = {g.act(f) for g in elements(group)}
                assert set(fast) == slow and len(fast) == len(slow), (group, f)

    def test_orbit_size_agrees_with_the_walk(self):
        # |G.f| by orbit-stabilizer: under S_N only the product of the
        # symmetric groups on f's colour cells is walked, under any other
        # group G itself
        rng = random.Random(22)
        fixed = [
            "x1*x2 + x2*x3 + x3*x4 + x4*x5 + x1*x5",  # refinement cannot split it
            "x1^2*x2 + x2^2*x3 + x3^2*x1 + 2*x4*x5",
            "x1*x2 - x3 + 2*x1^2",
            "3*x1^2 + 3*x2*x3 - x4 - x5",
        ]
        groups = [PermGroup.generated(5, ["(1 2 3)", "(3 4 5)"])]  # A5
        for n in range(1, 7):
            groups += [PermGroup.symmetric(n), PermGroup.cyclic(n)]
            if n >= 3:  # dihedral
                reflection = "".join(f"({i} {n + 2 - i})" for i in range(2, n // 2 + 2)
                                     if i < n + 2 - i)
                groups.append(PermGroup.generated(n, [f"({' '.join(map(str, range(1, n + 1)))})",
                                                      reflection]))
        for field, group in itertools.product((QQ, GF(7), GF(32003)), groups):
            n = group.degree
            polys = [parse_polynomial(text, 5, field) for text in fixed] if n == 5 else []
            polys += [elementary_symmetric(k, range(1, k + 1), d, field).extend(n)
                      for k in range(1, n + 1) for d in range(1, k + 1)]
            for _ in range(8):
                polys.append(Polynomial(field, n, {
                    tuple(rng.randint(0, 2) for _ in range(n)): rng.choice((1, 1, 2, -1, 3))
                    for _ in range(rng.randint(1, 4))
                }))
            for f in polys:
                if not f.is_zero:
                    assert _orbit_size(f, group, deadline=None) == len(orbit(f, group)), (group, f)

    def test_symmetric_orbit_beyond_element_bound(self, P):
        # C(12, 2) choices of the product times 10 of the subtracted variable
        assert len(orbit(P("x1*x2 - x3", 12), PermGroup.symmetric(12))) == 660

    def test_multi_term_bound_names_the_image_bound(self, P):
        # refused on its monomials (665,280 for 2 terms) or on its images
        # (1,540 monomials), the message names the image bound either way
        for text in ("x1^6*x2^5*x3^4*x4^3*x5^2*x6 - 2*x2^6*x1^5*x3^4*x4^3*x5^2*x6",
                     "x1^3*x2^2*x3 + x1*x2*x3 - x4^3*x5^2*x6"):
            with pytest.raises(ValueError, match="50000"):
                orbit(P(text, 12), PermGroup.symmetric(12))

    def test_deadline(self, P):
        with pytest.raises(BudgetExceededError):
            orbit(P("x1*x2 - x3", 5), PermGroup.symmetric(5), deadline=time.monotonic() - 1)

    def test_orbit_stabilizer(self, elements):
        rng = random.Random(53)
        for group in (PermGroup.symmetric(3), PermGroup.symmetric(4), PermGroup.cyclic(4)):
            for _ in range(10):
                f = Polynomial(
                    QQ, group.degree,
                    {tuple(rng.randint(0, 2) for _ in range(group.degree)):
                     rng.randint(-3, 3) for _ in range(2)},
                )
                if f.is_zero:
                    continue
                stabilizer = sum(g.act(f) == f for g in elements(group))
                assert len(orbit(f, group)) * stabilizer == group.order

    def test_monomial_orbit_is_type_class(self):
        group = PermGroup.symmetric(4)
        rng = random.Random(59)
        from symorbits import monomials_of_type

        for _ in range(20):
            mono = tuple(rng.randint(0, 3) for _ in range(4))
            if sum(mono) == 0:
                continue
            f = Polynomial.from_monomial(QQ, mono)
            got = {next(iter(g.terms)) for g in orbit(f, group)}
            assert got == set(monomials_of_type(monomial_type(mono), 4))


if st is not None:
    STABLE_GROUPS = [
        PermGroup.symmetric(4),
        PermGroup.cyclic(5),
        PermGroup.generated(4, ["(1 2 3 4)", "(1 4)(2 3)"]),
        PermGroup.generated(5, ["(1 2 3)", "(3 4 5)"]),
    ]

    @st.composite
    def group_polys(draw):
        group = draw(st.sampled_from(STABLE_GROUPS))
        monos = st.tuples(*[st.integers(0, 2)] * group.degree)
        terms = draw(st.dictionaries(monos, st.integers(-3, 3), min_size=1, max_size=3))
        return group, Polynomial(QQ, group.degree, terms)

    @settings(max_examples=100, deadline=None)
    @given(group_polys())
    def test_orbit_ideals_are_g_stable(case):
        # every generator maps the orbit, and so the ideal it spans, onto itself
        group, f = case
        images = set(orbit(f, group))
        for g in group.generators:
            assert {g.act(h) for h in images} == images



def partitions(total, largest):
    """The partitions of ``total`` into parts at most ``largest``."""
    if total == 0:
        yield ()
    for part in range(min(total, largest), 0, -1):
        for rest in partitions(total - part, part):
            yield (part,) + rest

class TestTransitivity:
    def test_symmetric_transitive_on_variables(self):
        assert PermGroup.symmetric(3).transitive_on_variables()

    def test_cyclic_transitive_on_variables(self):
        assert PermGroup.cyclic(4).transitive_on_variables()

    def test_proper_subgroup_not_transitive(self):
        assert not PermGroup.generated(3, ["(1 2)"]).transitive_on_variables()

    def test_type_transitivity(self):
        assert PermGroup.symmetric(3).transitive_on_type((2, 1))
        assert not PermGroup.cyclic(3).transitive_on_type((2, 1))
        assert PermGroup.cyclic(3).transitive_on_type((1, 1, 1))

    def test_symmetric_type_transitivity_closed_form(self):
        # S_n skips the walk: it agrees with the closure on S3-S5 and
        # answers an S12 type at once
        from symorbits.permutations import _closure
        from symorbits.polynomials import monomials_of_type

        for n in (3, 4, 5):
            group = PermGroup.symmetric(n)
            for total in range(1, n + 3):
                for part in partitions(total, total):
                    monos = monomials_of_type(part, n)
                    walked = bool(monos) and len(_closure(
                        monos[:1], lambda m: (g.act_monomial(m) for g in group.generators)
                    )) == len(monos)
                    assert group.transitive_on_type(part) == walked == (len(part) <= n)
        start = time.monotonic()
        assert PermGroup.symmetric(12).transitive_on_type((6, 5, 4, 3, 2, 1))
        assert time.monotonic() - start < 0.1
        assert not PermGroup.symmetric(5).transitive_on_type((1,) * 6)

    def test_type_transitivity_from_one_orbit(self):
        # any group other than S_N walks the orbit of one monomial and
        # compares it with the closed-form count; that agrees with asking
        # whether the closure of one listed monomial reaches all of them
        from symorbits.permutations import _closure
        from symorbits.polynomials import monomials_of_type

        groups = [PermGroup.cyclic(n) for n in (3, 4, 5)] + [
            PermGroup.generated(4, ["(1 2 3 4)", "(1 4)(2 3)"]),
            PermGroup.generated(5, ["(1 2 3 4 5)", "(2 5)(3 4)"]),
            PermGroup.generated(5, ["(1 2 3)", "(3 4 5)"]),
            PermGroup.generated(4, ["(1 2)"]),
        ]
        answers = set()
        for group in groups:
            n = group.degree
            for total in range(1, n + 3):
                for part in partitions(total, total):
                    monos = monomials_of_type(part, n)
                    walked = bool(monos) and len(_closure(
                        monos[:1], lambda m: (g.act_monomial(m) for g in group.generators)
                    )) == len(monos)
                    assert group.transitive_on_type(part) == walked, (group, part)
                    answers.add(walked)
        assert answers == {True, False}
        with pytest.raises(BudgetExceededError):
            PermGroup.cyclic(7).transitive_on_type((1, 1), deadline=time.monotonic() - 1)
        # S10 given by generators takes the S_N route and walks nothing
        s10 = PermGroup.generated(10, ["(1 2)", "(1 2 3 4 5 6 7 8 9 10)"])
        start = time.monotonic()
        assert s10.transitive_on_type((5, 4, 3, 2, 1))
        assert time.monotonic() - start < 0.1
        assert not s10.transitive_on_type((1,) * 11)
