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
    CertificateError,
    ExactMatrix,
    PermGroup,
    Polynomial,
    buchberger,
    elementary_symmetric,
    graded_member,
    graded_piece,
    ideal_equal,
    monomial_type,
    monomials_of_degree,
    monomials_of_type,
    orbit,
    orbit_ideal,
    parse_polynomial,
    rank,
    rank_condition,
)
from symorbits import ideals
from symorbits.fields import binomial


def functional(dual_vector, nvars, field):
    """The linear functional that a ``{monomial: coefficient}`` dual vector
    certificate stands for."""
    dual = {
        next(iter(parse_polynomial(mono, nvars, field).terms)): field.coerce(
            Fraction(c) if field is QQ else int(c)
        )
        for mono, c in dual_vector.items()
    }

    def pairing(h):
        total = field.zero
        for m, c in h.terms.items():
            total = field.add(total, field.mul(c, dual.get(m, field.zero)))
        return total

    return pairing


class TestOrbitIdeal:
    def test_invariant_seed(self):
        ideal = orbit_ideal(
            [elementary_symmetric(3, (1, 2, 3), 2, QQ)], PermGroup.symmetric(3)
        )
        assert len(ideal.expanded) == 1

    def test_e32_in_five_variables(self):
        ideal = orbit_ideal(
            [elementary_symmetric(5, (1, 2, 3), 2, QQ)], PermGroup.symmetric(5)
        )
        assert len(ideal.expanded) == 10  # one per 3-subset of {1..5}

    def test_monomial_seed(self, P):
        ideal = orbit_ideal([P("x1*x2", 3)], PermGroup.symmetric(3))
        assert len(ideal.expanded) == 3

    def test_closed_under_action(self, P, elements):
        ideal = orbit_ideal([P("x1^2*x2 + 2*x1*x2^2", 3)], PermGroup.symmetric(3))
        expanded = set(ideal.expanded)
        for g in elements(ideal.group):
            assert {g.act(f) for f in expanded} == expanded

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            orbit_ideal([Polynomial.zero(QQ, 3)], PermGroup.symmetric(3))


class TestGradedPiece:
    def test_column_count_formula(self):
        from symorbits.polynomials import monomials_of_degree

        ideal = orbit_ideal(
            [elementary_symmetric(4, (1, 2, 3), 2, QQ)], PermGroup.symmetric(4)
        )
        for degree in (2, 3, 4):
            piece = graded_piece(ideal, degree)
            expected_cols = sum(
                len(monomials_of_degree(4, degree - g.total_degree()))
                for g in ideal.expanded
                if degree >= g.total_degree()
            )
            assert piece.matrix.ncols == expected_cols
            assert piece.matrix.nrows == binomial(degree + 3, 3)


class TestGradedMember:
    def test_counterexample_with_t_one(self, P):
        ideal = orbit_ideal([P("x1^2 + x1*x2", 3)], PermGroup.symmetric(3))
        assert not graded_member(P("x1^2", 3), ideal).verdict

    def test_monomial_seed_with_t_zero(self, P):
        ideal = orbit_ideal([P("x1^2", 3)], PermGroup.symmetric(3))
        report = graded_member(P("x1^2", 3), ideal)
        assert report.verdict and report.certificate is not None

    def test_zero_target_is_a_member(self, P):
        ideal = orbit_ideal([P("x1^2 + x1*x2", 3)], PermGroup.symmetric(3))
        report = graded_member(Polynomial.zero(QQ, 3), ideal)
        assert report.machine().splitlines() == [
            "report=verdict",
            "claim=graded-membership",
            "param.target=0",
            "verdict=true",
            "certificate.combination=[]",
            "notes=zero polynomial lies in every ideal",
        ]

    def test_target_below_every_generator_degree(self, P):
        ideal = orbit_ideal([P("x1^2", 3)], PermGroup.symmetric(3))
        report = graded_member(P("x1", 3), ideal)
        assert not report.verdict and report.parameters["columns"] == 0
        ideal = orbit_ideal([P("x1^2 + x2^3", 3)], PermGroup.symmetric(3))
        report = graded_member(P("x3", 3), ideal)
        assert not report.verdict and report.parameters["columns"] == 0

    def test_inhomogeneous_bounded_search(self, P):
        ideal = orbit_ideal([P("x1 + x2 + x1^2 - x2^2", 3)], PermGroup.symmetric(3))
        report = graded_member(P("2*x1", 3), ideal)
        assert report.verdict
        # scalar combination of three orbit members, as pinned by the
        # explicit identity
        combo = report.certificate["combination"]
        assert len(combo) == 3
        assert all(entry["multiplier"] == "1" for entry in combo)

    def test_inhomogeneous_fails_over_f2(self):
        field = GF(2)
        ideal = orbit_ideal(
            [parse_polynomial("x1 + x2 + x1^2 - x2^2", 3, field)], PermGroup.symmetric(3)
        )
        assert not graded_member(parse_polynomial("x1", 3, field), ideal).verdict

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    def test_true_certificate_is_reverified(self, field, monkeypatch):
        # x1*x2 + x2*x3 is a member of two generators; a doubled combination
        # sums to twice it, and one cut to its first column to a single term
        ideal = orbit_ideal([parse_polynomial("x1*x2", 3, field)], PermGroup.symmetric(3))
        target = parse_polynomial("x1*x2 + x2*x3", 3, field)
        assert graded_member(target, ideal).verdict
        span = ideals.in_span
        for forge in (lambda cs: [c + c for c in cs], lambda cs: cs[:1]):
            monkeypatch.setattr(ideals, "in_span", lambda v, m, deadline=None, forge=forge: (
                True, forge(span(v, m, deadline=deadline)[1])))
            with pytest.raises(CertificateError, match="polynomial re-verification"):
                graded_member(target, ideal)

    def test_rejects_inhomogeneous_target_for_homogeneous_seeds(self, P):
        ideal = orbit_ideal([P("x1*x2", 3)], PermGroup.symmetric(3))
        with pytest.raises(ValueError):
            graded_member(P("x1 + x1*x2", 3), ideal)

    def test_false_verdict_carries_dual_vector(self, P):
        # the functional vanishes on every multiple u*g searched, not on the target
        cases = [
            (QQ, "x1^2 + x1*x2", "x1^2", 3),
            (GF(32003), "x1^2*x2 + x2^2*x3", "x1^4 + x1^2*x2*x3", 3),
            (GF(2), "x1 + x2 + x1^2 - x2^2", "x1", 3),
            (QQ, "x1*x2 - 2*x3*x4", "x1^3 + x1*x2*x3", 4),
        ]
        for field, seed, target_text, nvars in cases:
            group = PermGroup.symmetric(nvars)
            ideal = orbit_ideal([parse_polynomial(seed, nvars, field)], group)
            target = parse_polynomial(target_text, nvars, field)
            report = graded_member(target, ideal)
            assert not report.verdict
            pairing = functional(report.certificate["dual_vector"], nvars, field)
            degree = target.total_degree()
            homogeneous = all(g.is_homogeneous() for g in ideal.expanded)
            for g in ideal.expanded:
                low = degree - g.total_degree() if homogeneous else 0
                for d in range(max(low, 0), degree - g.min_degree() + 1):
                    for u in monomials_of_degree(nvars, d):
                        assert pairing(Polynomial.from_monomial(field, u) * g) == field.zero
            assert pairing(target) != field.zero

    def test_deadline(self, P):
        # 360 generators times 126 multipliers of degree 4, some 2 s of build
        # and elimination; the deadline is checked per generator and column
        ideal = orbit_ideal([P("x1^2*x2 + 2*x2^2*x3 - x3*x4*x5", 6)], PermGroup.symmetric(6))
        start = time.monotonic()
        with pytest.raises(BudgetExceededError):
            graded_member(P("x1^7", 6), ideal, deadline=start + 0.1)
        assert time.monotonic() - start < 0.5

    def test_certificates_reverify_by_construction(self, P):
        # graded_member raises internally if a certificate fails; touching
        # several member cases exercises that path
        ideal = orbit_ideal([P("x1*x2 - x2*x3", 4)], PermGroup.symmetric(4))
        gb = ideal.groebner_basis()
        rng = random.Random(113)
        hits = 0
        for _ in range(30):
            target = Polynomial.zero(QQ, 4)
            for g in rng.sample(ideal.expanded, 2):
                mono = tuple(rng.randint(0, 1) for _ in range(4))
                target = target + Polynomial.from_monomial(QQ, mono, rng.randint(-3, 3)) * g
            if target.is_zero or not target.is_homogeneous():
                continue
            report = graded_member(target, ideal)
            assert report.verdict
            hits += 1
        assert hits > 5


class TestOracleAgreement:
    def test_graded_vs_groebner_on_small_instances(self):
        rng = random.Random(127)
        for field in (QQ, GF(5)):
            for _ in range(25):
                nvars = rng.randint(2, 4)
                group = PermGroup.symmetric(nvars)
                seed_degree = rng.randint(1, 3)
                seed = Polynomial(
                    field, nvars,
                    {
                        tuple(rng.randint(0, seed_degree) for _ in range(nvars)):
                        rng.randint(-5, 5)
                        for _ in range(rng.randint(1, 3))
                    },
                )
                seed = Polynomial(
                    field, nvars,
                    {m: c for m, c in seed.terms.items() if sum(m) == seed_degree},
                )
                if seed.is_zero:
                    continue
                ideal = orbit_ideal([seed], group)
                target_degree = min(4, seed_degree + rng.randint(0, 1))
                target = Polynomial(
                    field, nvars,
                    {
                        tuple(rng.randint(0, target_degree) for _ in range(nvars)):
                        rng.randint(-5, 5)
                        for _ in range(2)
                    },
                )
                target = Polynomial(
                    field, nvars,
                    {m: c for m, c in target.terms.items() if sum(m) == target_degree},
                )
                if target.is_zero:
                    continue
                expected = buchberger(list(ideal.expanded), GREVLEX).contains(target)
                assert graded_member(target, ideal).verdict == expected


class TestIdealEqual:
    def test_prop_equality_over_rationals(self):
        left = orbit_ideal(
            [elementary_symmetric(5, (1, 2, 3), 2, QQ)], PermGroup.symmetric(5)
        )
        right = orbit_ideal([parse_polynomial("x1*x2", 5, QQ)], PermGroup.symmetric(5))
        assert ideal_equal(left, right).verdict

    def test_variable_orbit_generates_irrelevant(self, P):
        left = orbit_ideal([P("x1", 3)], PermGroup.symmetric(3))
        right = [P("x1", 3), P("x2", 3), P("x3", 3)]
        assert ideal_equal(left, right).verdict

    def test_inequality_over_f2(self):
        field = GF(2)
        left = orbit_ideal(
            [elementary_symmetric(5, (1, 2, 3), 2, field)], PermGroup.symmetric(5)
        )
        right = orbit_ideal([parse_polynomial("x1*x2", 5, field)], PermGroup.symmetric(5))
        report = ideal_equal(left, right)
        assert not report.verdict
        assert report.certificate["failures"]

    def test_no_monomial_order(self, P):
        # membership, hence equality, does not depend on the order
        left = orbit_ideal([P("x1", 2)], PermGroup.symmetric(2))
        right = [P("x1", 2), P("x2", 2)]
        report = ideal_equal(left, right)
        assert report.verdict and "order" not in report.parameters
        with pytest.raises(TypeError):
            ideal_equal(left, right, GREVLEX)
        with pytest.raises(TypeError):
            ideal_equal(left, right, order=GREVLEX)


class TestRankCondition:
    def test_single_monomial_full_rank(self, P):
        report = rank_condition(P("x1^2*x2", 3), PermGroup.symmetric(3))
        assert report.verdict and report.parameters["rank"] == 6

    def test_symmetric_sum_rank_one(self):
        f = Polynomial(QQ, 3, {m: 1 for m in monomials_of_type((2, 1), 3)})
        report = rank_condition(f, PermGroup.symmetric(3))
        assert not report.verdict
        assert report.parameters["rank"] == 1

    def test_generic_two_term_full_rank(self, P):
        f = P("x1^2*x2 + 2*x1*x2^2", 3)
        report = rank_condition(f, PermGroup.symmetric(3))
        assert report.verdict
        # independent oracle: naive Gauss on an independently built matrix
        rows = monomials_of_type((2, 1), 3)
        pos = {m: i for i, m in enumerate(rows)}
        columns = set()
        for images in itertools.permutations(range(3)):
            col = [Fraction(0)] * 6
            for mono, coeff in f.terms.items():
                new = [0, 0, 0]
                for i, e in enumerate(mono):
                    new[images[i]] = e
                col[pos[tuple(new)]] = Fraction(coeff)
            columns.add(tuple(col))
        matrix = [list(row) for row in zip(*sorted(columns))]
        r = 0
        for c in range(len(matrix[0])):
            piv = next((i for i in range(r, 6) if matrix[i][c] != 0), None)
            if piv is None:
                continue
            matrix[r], matrix[piv] = matrix[piv], matrix[r]
            for i in range(6):
                if i != r and matrix[i][c] != 0:
                    factor = matrix[i][c] / matrix[r][c]
                    matrix[i] = [x - factor * y for x, y in zip(matrix[i], matrix[r])]
            r += 1
        assert r == 6

    def test_certificate_names_the_prime(self, P):
        report = rank_condition(P("x1^2*x2 + 2*x1*x2^2", 3), PermGroup.symmetric(3))
        assert report.certificate == {"full_rank": True, "prime": 2**61 - 1}
        f = parse_polynomial("x1^2*x2 + 2*x1*x2^2", 3, GF(32003))
        report = rank_condition(f, PermGroup.symmetric(3))
        assert report.certificate == {"full_rank": True, "prime": 32003}

    def test_false_verdict_carries_left_kernel_vector(self, P):
        # rank 1; coefficients summing to zero over QQ, and to zero mod 5
        cases = [
            (Polynomial(QQ, 3, {m: 1 for m in monomials_of_type((2, 1), 3)}), 3),
            (P("x1^2*x2*x3 - 3*x1*x2^2*x4 + 2*x3^2*x4*x5", 5), 5),
            (parse_polynomial("x1^2 + 4*x2^2", 3, GF(5)), 3),
        ]
        for f, n in cases:
            group = PermGroup.symmetric(n)
            report = rank_condition(f, group)
            assert not report.verdict and not report.certificate["full_rank"]
            assert report.certificate["dual_vector"]
            pairing = functional(report.certificate["dual_vector"], n, f.field)
            assert all(pairing(g) == f.field.zero for g in orbit_ideal([f], group).expanded)

    def test_mixed_type_rejected(self, P):
        with pytest.raises(ValueError):
            rank_condition(P("x1^2 + x1*x2", 3), PermGroup.symmetric(3))

    def test_non_transitive_group_rejected(self, P):
        with pytest.raises(ValueError):
            rank_condition(P("x1^2*x2", 3), PermGroup.cyclic(3))

    def test_deadline(self, P):
        # 20,160 images under S8; the count checks the deadline per image
        f = P("x1^3*x2^2*x3 + 2*x2^3*x1^2*x3 - x4^3*x5^2*x6", 8)
        with pytest.raises(BudgetExceededError):
            rank_condition(f, PermGroup.symmetric(8), deadline=time.monotonic() - 1)
        far = time.monotonic() + 60
        assert rank_condition(f, PermGroup.symmetric(8), deadline=far).verdict

    def test_image_bound_refused_before_enumeration(self, P):
        # 12!/6! images (and as many monomials of the type) exceed the bound
        with pytest.raises(ValueError, match="enumeration bound"):
            rank_condition(P("x1^6*x2^5*x3^4*x4^3*x5^2*x6", 12), PermGroup.symmetric(12))


def full_elimination(f, group):
    """The rank condition without the spin: the row index, ``rank`` of the
    matrix of every distinct orbit image, and their count."""
    (mono_type,) = {monomial_type(m) for m in f.terms}
    index = sorted(monomials_of_type(mono_type, f.nvars), key=GREVLEX.key, reverse=True)
    pos = {m: i for i, m in enumerate(index)}
    images = orbit(f, group)
    columns = [{pos[m]: c for m, c in g.terms.items()} for g in images]
    return index, rank(ExactMatrix(f.field, len(index), columns)), len(images)


SPIN_GROUPS = [
    *(PermGroup.symmetric(n) for n in (3, 4, 5, 6)),
    *(PermGroup.cyclic(n) for n in (5, 6, 7, 8)),
    PermGroup.generated(5, ["(1 2 3 4 5)", "(2 5)(3 4)"]),
    PermGroup.generated(6, ["(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"]),
    # redundant generators: S4 from four transpositions and cycles, C6 from two
    PermGroup.generated(4, ["(1 2)", "(1 2 3 4)", "(1 3)", "(2 4)"]),
    PermGroup.generated(6, ["(1 2 3 4 5 6)", "(1 3 5)(2 4 6)"]),
]


def spin_instances():
    """(group, f) for every group of SPIN_GROUPS over QQ and GF(32003):
    random coefficients, coefficients summing to zero (rank-deficient) and
    coefficients +-1 (repeated), on a type the group is transitive on; then
    rank questions that 2^61 - 1 gets wrong: 2^61 is 1 there, and f is 0
    there when each coefficient is a multiple of it."""
    rng = random.Random(1515)
    out = []
    for group in SPIN_GROUPS:
        n = group.degree
        types = [(2,), (3,)]
        if group.is_full_symmetric:
            types = [(2, 1), (1, 1, 1), (2, 1, 1), (3, 2, 1)]
        for field in (QQ, GF(32003)):
            for kind in ("random", "sum-zero", "repeated"):
                pool = monomials_of_type(rng.choice([t for t in types if len(t) <= n]), n)
                monos = rng.sample(pool, min(len(pool), rng.randint(2, 4)))
                if kind == "repeated":
                    coeffs = [rng.choice((-1, 1)) for _ in monos]
                else:
                    coeffs = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                       rng.randint(1, 3) if field is QQ else 1) for _ in monos]
                if kind == "sum-zero":
                    coeffs[-1] = -sum(coeffs[:-1])
                out.append((group, Polynomial(field, n, dict(zip(monos, coeffs)))))
    out.append((PermGroup.symmetric(2), Polynomial(QQ, 2, {(2, 1): 1, (1, 2): 2**61})))
    out.append((PermGroup.symmetric(3), Polynomial(QQ, 3, {(2, 1, 0): 1, (1, 2, 0): 2**61})))
    p = 2**61 - 1
    out.append((PermGroup.symmetric(3), Polynomial(QQ, 3, {(2, 1, 0): p, (0, 1, 2): 2 * p})))
    out.append((PermGroup.cyclic(4), Polynomial(QQ, 4, {(2, 0, 0, 0): p, (0, 2, 0, 0): -p})))
    return out


SPIN_INSTANCES = spin_instances()


class TestSpinAgainstFullElimination:
    # the ids drop the commas between generators, so they name the same
    # instances whatever separator the descriptor uses
    @pytest.mark.parametrize(
        "group, f", SPIN_INSTANCES,
        ids=[f"{i}-{g.descriptor.replace(',', '')}-{f.field}"
             for i, (g, f) in enumerate(SPIN_INSTANCES)],
    )
    def test_same_rank_prime_dual_and_count(self, group, f):
        index, full, count = full_elimination(f, group)
        report = rank_condition(f, group)
        assert report.parameters["rank"] == full.rank
        assert report.parameters["distinct_orbit_vectors"] == count
        assert report.certificate["prime"] == full.prime
        assert report.verdict == (full.rank == len(index))
        if full.dual is not None:
            assert report.certificate["dual_vector"] == ideals._by_monomial(index, full.dual)
        else:
            assert "dual_vector" not in report.certificate

    def test_instances_cover_both_verdicts_and_the_retry(self):
        verdicts, primes = set(), set()
        for group, f in SPIN_INSTANCES:
            report = rank_condition(f, group)
            verdicts.add(report.verdict)
            primes.add(report.certificate["prime"])
        assert verdicts == {True, False}
        assert {2**61 - 1, 2**521 - 1, 32003} <= primes


def symmetrize(f, group):
    """The sum of sigma.f over every element of the group, from the orbit
    and the order: each image occurs order / |orbit| times."""
    images = orbit(f, group)
    return sum(images, Polynomial.zero(f.field, f.nvars)).scale(group.order // len(images))


class TestSymmetrize:
    def test_squarefree_identity_example(self, P):
        total = symmetrize(P("x1*x2", 3), PermGroup.symmetric(3))
        assert total == elementary_symmetric(3, (1, 2, 3), 2, QQ).scale(2)

    def test_zero_coefficient_sum(self, P):
        assert symmetrize(P("x1*x2 - x1*x3", 3), PermGroup.symmetric(3)).is_zero

    def test_invariant_polynomial(self):
        e = elementary_symmetric(3, (1, 2, 3), 2, QQ)
        assert symmetrize(e, PermGroup.symmetric(3)) == e.scale(6)

    def test_matches_sum_over_elements(self, elements):
        # order / |orbit| copies of each orbit element equal the sum over
        # every element, on groups other than S_n and over GF(5)
        rng = random.Random(139)
        cases = [
            (PermGroup.cyclic(4), QQ),
            (PermGroup.generated(5, ["(1 2 3 4 5)", "(2 5)(3 4)"]), QQ),
            (PermGroup.cyclic(4), GF(5)),
            (PermGroup.symmetric(4), GF(5)),
        ]
        for group, field in cases:
            n = group.degree
            for _ in range(8):
                f = Polynomial(
                    field, n,
                    {tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-4, 4)
                     for _ in range(rng.randint(1, 3))},
                )
                brute = Polynomial.zero(field, n)
                for g in elements(group):
                    brute = brute + g.act(f)
                assert symmetrize(f, group) == brute

    def test_squarefree_symmetrization_identity_randomized(self):
        # symmetrize(f) = f(1..1) * d! * (n-d)! * e_n^d for square-free
        # homogeneous f of degree d in n variables
        import math

        rng = random.Random(131)
        for n in (3, 4, 5, 6):
            group = PermGroup.symmetric(n)
            for d in range(1, n + 1):
                monos = [
                    m for m in itertools.product((0, 1), repeat=n) if sum(m) == d
                ]
                for _ in range(3):
                    f = Polynomial(
                        QQ, n, {m: rng.randint(-4, 4) for m in monos}
                    )
                    if f.is_zero:
                        continue
                    c = f.evaluate([1] * n)
                    expected = elementary_symmetric(n, range(1, n + 1), d, QQ).scale(
                        c * math.factorial(d) * math.factorial(n - d)
                    )
                    assert symmetrize(f, group) == expected


class TestEquivariance:
    def test_membership_is_group_stable(self, P, elements):
        rng = random.Random(137)
        ideal = orbit_ideal([P("x1^2 + 2*x1*x2", 3)], PermGroup.symmetric(3))
        gb = ideal.groebner_basis()
        for _ in range(20):
            target = Polynomial(
                QQ, 3,
                {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-4, 4)
                 for _ in range(2)},
            )
            member = gb.contains(target)
            for sigma in elements(ideal.group):
                assert gb.contains(sigma.act(target)) == member


def reference_multiples(ideal, degree, *, exact):
    """The products u * g as term dicts built from exponent tuples, with
    (generator index, u) for each: the column builder as it was before
    monomial codes."""
    products, meta = [], []
    for gi, g in enumerate(ideal.expanded):
        top = degree - g.min_degree()
        if top < 0:
            continue
        for mult_degree in range(top if exact else 0, top + 1):
            for u in monomials_of_degree(ideal.nvars, mult_degree):
                products.append(
                    {tuple(a + b for a, b in zip(m, u)): c for m, c in g.terms.items()}
                )
                meta.append((gi, u))
    return products, tuple(meta)


def reference_columns(index, products):
    pos = {m: i for i, m in enumerate(index)}
    return tuple({pos[m]: c for m, c in terms.items()} for terms in products)


DIHEDRAL4 = PermGroup.generated(4, ["(1 2 3 4)", "(1 4)(2 3)"])


class TestProductMatrix:
    """The monomial-code builder against exponent-tuple products."""

    HOMOGENEOUS = [
        (QQ, PermGroup.symmetric(3), ["x1^2*x2 - 2/3*x3^2*x1", "1/2*x1*x2 + x3^2"], 4),
        (GF(7), PermGroup.symmetric(4), ["3*x1*x2 + 5*x3^2", "x1^3 - x2*x3*x4"], 4),
        # the quartic seed is above the degree: no multiple of it
        (QQ, PermGroup.cyclic(5), ["x1*x2 - 5/4*x3^2", "x1^2*x2*x3 + x4^4 - x5^3*x1"], 3),
        (GF(32003), DIHEDRAL4, ["x1^2 + 2*x2*x4", "x1*x2*x3 - 7*x4^3"], 5),
    ]
    INHOMOGENEOUS = [
        (QQ, PermGroup.symmetric(3), ["x1^2 + 2/3*x2", "x1*x2*x3 - x3"], "x1^3 + x2"),
        (GF(5), PermGroup.cyclic(4), ["x1*x2 + 3", "x1^3 - x4"], "x1^2*x3 + x2"),
        (QQ, DIHEDRAL4, ["x1^2*x2 - 1/5*x3", "x1 + x4^2"], "x2^3*x4"),
        (GF(32003), PermGroup.symmetric(4), ["x1^2 - x2 + 1"], "x1*x2^2*x3"),
    ]

    @pytest.mark.parametrize("field, group, seeds, degree", HOMOGENEOUS)
    def test_graded_piece(self, field, group, seeds, degree):
        n = group.degree
        ideal = orbit_ideal([parse_polynomial(s, n, field) for s in seeds], group)
        piece = graded_piece(ideal, degree)
        index = sorted(monomials_of_degree(n, degree), key=GREVLEX.key, reverse=True)
        products, meta = reference_multiples(ideal, degree, exact=True)
        assert piece.monomial_index == tuple(index)
        assert piece.column_meta == meta
        assert piece.matrix.columns == reference_columns(index, products)
        assert all(isinstance(u, tuple) for _, u in piece.column_meta)

    @pytest.mark.parametrize("field, group, seeds, target", INHOMOGENEOUS)
    def test_bounded_multipliers(self, field, group, seeds, target):
        n = group.degree
        ideal = orbit_ideal([parse_polynomial(s, n, field) for s in seeds], group)
        target = parse_polynomial(target, n, field)
        degree = target.total_degree()
        index, matrix, meta = ideals._product_matrix(ideal, degree, target, deadline=None)
        products, expected_meta = reference_multiples(ideal, degree, exact=False)
        expected_index = sorted(
            set(target.terms).union(*products), key=GREVLEX.key, reverse=True
        )
        assert index == tuple(expected_index)
        assert meta == expected_meta
        assert matrix.columns == reference_columns(expected_index, products)
        report = graded_member(target, ideal)
        assert report.parameters["columns"] == len(products)

    @pytest.mark.parametrize("field, text, group, n", [
        (QQ, "x1^2*x2 + x1*x2^2", PermGroup.symmetric(3), 3),  # swaps equal terms
        (GF(5), "x1^2*x2 + x1*x2^2", PermGroup.symmetric(3), 3),
        (QQ, "1/2*x1^2*x2 + 3/4*x2^2*x3 + 1/2*x3^2*x1", PermGroup.symmetric(3), 3),
        (QQ, "1/2*x1^2*x2 + 1/2*x2^2*x1 - 2/3*x3^2*x4", PermGroup.symmetric(4), 4),
        (QQ, "x1*x2 + x3*x4", PermGroup.symmetric(4), 4),
        (QQ, "2/3*x1^3 + 2/3*x3^3 - x2^3", PermGroup.cyclic(5), 5),
        (GF(32003), "x1^2 + x3^2", DIHEDRAL4, 4),
        (QQ, "x1^2 - x2^2 + x3^2 - x4^2", DIHEDRAL4, 4),
    ])
    def test_distinct_orbit_vectors(self, field, text, group, n):
        f = parse_polynomial(text, n, field)
        report = rank_condition(f, group)
        assert report.parameters["distinct_orbit_vectors"] == len(orbit(f, group))
