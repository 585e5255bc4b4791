import math
import random
import time
from fractions import Fraction

import pytest

from symorbits import (
    GF, QQ, BudgetExceededError, CertificateError, ExactMatrix, in_span, linalg, rank
)


def from_columns(field, nrows, cols):
    """The matrix with the given dense columns; ``nrows`` keeps the row
    count when there are none."""
    return ExactMatrix(field, nrows, [dict(enumerate(col)) for col in cols])


def from_rows(field, rows):
    """The matrix with the given dense rows."""
    return from_columns(field, len(rows), list(zip(*rows)))


def dense_rows(m):
    """The rows of m, zeros included."""
    return tuple(tuple(col.get(i, m.field.zero) for col in m.columns) for i in range(m.nrows))


def transpose(m):
    return from_columns(m.field, m.ncols, dense_rows(m))


def naive_rank(field, rows):
    """Independent oracle: plain Gauss over the field."""
    m = [[field.coerce(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != field.zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(x, inv) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != field.zero:
                factor = m[i][c]
                m[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


class TestRank:
    def test_identity(self):
        m = from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rank(m).rank == 3

    def test_proportional_rows(self):
        assert rank(from_rows(QQ, [[1, 2], [2, 4]])).rank == 1

    def test_f2_all_ones(self):
        assert rank(from_rows(GF(2), [[1, 1], [1, 1]])).rank == 1

    def test_rational_entries(self):
        singular = from_rows(
            QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
        )
        assert rank(singular).rank == naive_rank(QQ, dense_rows(singular)) == 1
        regular = from_rows(
            QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]]
        )
        assert rank(regular).rank == naive_rank(QQ, dense_rows(regular)) == 2

    def test_zero_matrix(self):
        assert rank(from_rows(QQ, [[0, 0], [0, 0]])).rank == 0

    def test_deadline(self):
        m = from_rows(QQ, [[1, 2], [3, 4]])
        assert rank(m, deadline=time.monotonic() + 60).rank == 2
        for field in (QQ, GF(7)):
            with pytest.raises(BudgetExceededError):
                rank(from_rows(field, dense_rows(m)), deadline=time.monotonic() - 1)
            with pytest.raises(BudgetExceededError):
                in_span([1, 0], from_rows(field, dense_rows(m)), deadline=time.monotonic() - 1)
            # the orbit of (1, 2) under the swap of its rows
            with pytest.raises(BudgetExceededError):
                linalg.spin_rank(field, 2, {0: 1, 1: 2}, [[1, 0]], 2, deadline=time.monotonic() - 1)
            assert linalg.spin_rank(field, 2, {0: 1, 1: 2}, [[1, 0]], 2).rank == 2

    def test_against_naive_gauss_randomized(self):
        rng = random.Random(61)
        for field in (QQ, GF(5), GF(2)):
            for _ in range(40):
                nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
                rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
                m = from_rows(field, rows)
                assert rank(m).rank == naive_rank(field, rows)

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(67)
        for _ in range(40):
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(rng.randint(1, 5))]]
            rows *= 1
            nrows = rng.randint(1, 5)
            ncols = len(rows[0])
            m = from_rows(
                QQ,
                [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ncols)]
                 for _ in range(nrows)],
            )
            assert rank(m).rank == rank(transpose(m)).rank


class TestInSpan:
    def test_examples(self):
        m = from_columns(QQ, 2, [[1, 1], [0, 1]])  # e1+e2, e2
        ok, cert = in_span([1, 0], m)
        assert ok
        assert cert == [1, -1]

        m2 = from_columns(QQ, 2, [[0, 1]])
        ok, cert = in_span([1, 0], m2)
        assert not ok and is_dual(QQ, cert, [[0, 1]], [1, 0])

    def test_column_contained(self):
        rng = random.Random(71)
        for _ in range(20):
            cols = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
            m = from_columns(QQ, 4, cols)
            ok, cert = in_span(cols[1], m)
            assert ok

    def test_dimension_mismatch(self):
        m = from_columns(QQ, 2, [[1, 0]])
        with pytest.raises(ValueError):
            in_span([1, 0, 0], m)

    def test_agrees_with_rank_augmentation(self):
        rng = random.Random(73)
        for field in (QQ, GF(5)):
            for _ in range(60):
                nrows = rng.randint(1, 5)
                ncols = rng.randint(1, 6)
                cols = [[rng.randint(-3, 3) for _ in range(nrows)] for _ in range(ncols)]
                v = [rng.randint(-3, 3) for _ in range(nrows)]
                m = from_columns(field, nrows, cols)
                augmented = from_columns(field, nrows, cols + [v])
                ok, cert = in_span(v, m)
                assert ok == (rank(augmented).rank == rank(m).rank)
                assert ok or is_dual(field, cert, cols, v)

    def test_certificates_reverify(self):
        rng = random.Random(79)
        for field in (QQ, GF(7)):
            for _ in range(40):
                nrows = rng.randint(1, 5)
                ncols = rng.randint(1, 6)
                cols = [[rng.randint(-3, 3) for _ in range(nrows)] for _ in range(ncols)]
                # force membership by combining columns
                weights = [rng.randint(-2, 2) for _ in range(ncols)]
                v = [
                    sum(w * cols[j][i] for j, w in enumerate(weights))
                    for i in range(nrows)
                ]
                m = from_columns(field, nrows, cols)
                ok, cert = in_span(v, m)
                assert ok
                for i in range(nrows):
                    total = field.zero
                    for j, c in enumerate(cert):
                        total = field.add(total, field.mul(field.coerce(cols[j][i]), c))
                    assert total == field.coerce(v[i])

    def test_zero_columns(self):
        m = from_columns(QQ, 3, [])
        assert (m.nrows, m.ncols) == (3, 0)
        assert rank(m).rank == 0
        assert in_span([0, 0, 0], m) == (True, [])
        ok, dual = in_span([1, 0, 0], m)
        assert not ok and is_dual(QQ, dual, [], [1, 0, 0])
        # zero rows keep the column count, and a certificate has an entry
        # for every column
        empty = from_columns(QQ, 0, [[], []])
        assert (empty.nrows, empty.ncols) == (0, 2)
        assert in_span([], empty) == (True, [0, 0])
        flat = transpose(from_rows(QQ, [[], []]))
        assert (flat.nrows, flat.ncols) == (0, 2)
        assert (transpose(flat).nrows, transpose(flat).ncols) == (2, 0)

    def test_sparse_columns(self):
        m = ExactMatrix(GF(5), 3, [{0: 6, 2: 10}, {}, {1: Fraction(1, 2)}])
        assert m.columns == ({0: 1}, {}, {1: 3})
        assert dense_rows(m) == ((1, 0, 0), (0, 0, 3), (0, 0, 0))
        assert (m.nrows, m.ncols) == (3, 3)
        with pytest.raises(ValueError):
            ExactMatrix(QQ, 2, [{2: 1}])

    def test_values_outside_raw_form_are_coerced(self):
        # raw values (ints in [0, p), Fractions over QQ) pass as they are;
        # everything else still goes through the field
        m = ExactMatrix(GF(5), 4, [{0: 7, 1: -1, 2: 5, 3: Fraction(1, 2)}, {0: 4, 1: 0}])
        assert m.columns == ({0: 2, 1: 4, 3: 3}, {0: 4})
        assert all(type(x) is int for col in m.columns for x in col.values())
        q = ExactMatrix(QQ, 2, [{0: 3, 1: Fraction(0)}, {1: Fraction(-1, 2)}])
        assert q.columns == ({0: Fraction(3)}, {1: Fraction(-1, 2)})
        assert type(q.columns[0][0]) is Fraction
        for field in (QQ, GF(5)):
            for bad in (True, 1.0):
                with pytest.raises(TypeError):
                    ExactMatrix(field, 1, [{0: bad}])
            for row in (-1, 2):
                with pytest.raises(ValueError):
                    ExactMatrix(field, 2, [{0: 1}, {row: 1}])

    def test_deadline(self):
        m = from_rows(QQ, [[1, 2], [3, 4]])
        for field in (QQ, GF(7)):
            matrix = from_rows(field, dense_rows(m))
            with pytest.raises(BudgetExceededError):
                in_span([1, 0], matrix, deadline=time.monotonic() - 1)
            far = time.monotonic() + 60
            assert in_span([1, 0], matrix, deadline=far) == in_span([1, 0], matrix)
            assert in_span([1, 0], matrix, deadline=far)[0]
            single = from_columns(field, 2, [[1, 2]])
            ok, dual = in_span([1, 0], single, deadline=far)
            assert not ok and is_dual(field, dual, [[1, 2]], [1, 0])

    def test_certificate_on_greedy_pivot_columns(self):
        rng = random.Random(83)
        for field in (QQ, GF(2), GF(7)):
            for _ in range(60):
                nrows = rng.randint(1, 5)
                cols = []
                for _ in range(rng.randint(1, 7)):
                    kind = rng.random()
                    if cols and kind < 0.2:
                        cols.append(list(rng.choice(cols)))
                    elif kind < 0.3:
                        cols.append([0] * nrows)
                    else:
                        den = rng.randint(1, 3) if field is QQ else 1
                        cols.append([Fraction(rng.randint(-4, 4), den) for _ in range(nrows)])
                if rng.random() < 0.7:
                    weights = [rng.randint(-2, 2) for _ in cols]
                    v = [sum(w * col[i] for w, col in zip(weights, cols)) for i in range(nrows)]
                else:
                    v = [rng.randint(-3, 3) for _ in range(nrows)]
                pivots = set(greedy_pivots(field, cols))
                ok, cert = in_span(v, from_columns(field, nrows, cols))
                assert ok == (naive_rank(field, cols + [v]) == naive_rank(field, cols))
                if not ok:
                    continue
                assert not any(c for j, c in enumerate(cert) if j not in pivots)
                for i in range(nrows):
                    total = field.zero
                    for col, c in zip(cols, cert):
                        total = field.add(total, field.mul(field.coerce(col[i]), c))
                    assert total == field.coerce(v[i])


def greedy_pivots(field, cols):
    """The exact greedy pivot columns: column j is one iff it raises the
    rank of cols[:j]."""
    return [
        j for j in range(len(cols))
        if naive_rank(field, cols[:j + 1]) > naive_rank(field, cols[:j])
    ]


def is_dual(field, y, cols, v=None):
    """y . col == 0 for every column, and y . v != 0 when v is given."""
    def dot(vec):
        total = field.zero
        for a, b in zip(y, vec):
            total = field.add(total, field.mul(a, field.coerce(b)))
        return total

    return all(dot(col) == field.zero for col in cols) and (v is None or dot(v) != field.zero)


def above_hadamard(prime, cols, nrows):
    """Whether prime is the least listed prime above 2 H^2, H^2 the product
    of the nrows largest squared norms of the integer columns."""
    norms = sorted((sum(x * x for x in col) for col in cols if any(col)), reverse=True)
    bound = 2 * math.prod(norms[:nrows])
    return prime == min(q for q in linalg.PRIMES if q > bound)


@pytest.fixture
def moduli(monkeypatch):
    """The (field, prime) of every elimination, in call order."""
    calls = []
    original = linalg._echelon_columns

    def spy(matrix, p, *args, **kwargs):
        calls.append((matrix.field, p))
        return original(matrix, p, *args, **kwargs)

    monkeypatch.setattr(linalg, "_echelon_columns", spy)
    return calls


def retries(moduli):
    """The eliminations over the rationals at a prime other than PRIME."""
    return [p for field, p in moduli if field.is_rationals and p != linalg.PRIME]


@pytest.fixture
def added(monkeypatch):
    """The column indices passed to ``_Echelon.add``, in call order."""
    calls = []
    original = linalg._Echelon.add

    def spy(self, j, vec):
        calls.append(j)
        return original(self, j, vec)

    monkeypatch.setattr(linalg._Echelon, "add", spy)
    return calls


def echelon_pivots(monkeypatch, matrix, p):
    """The columns that became basis vectors of the echelon of ``matrix``
    mod p, in order: those for which ``_Echelon.add`` returned a lead."""
    pivots = []
    original = linalg._Echelon.add

    def spy(self, j, vec):
        lead = original(self, j, vec)
        if lead is not None:
            pivots.append(j)
        return lead

    with monkeypatch.context() as patch:
        patch.setattr(linalg._Echelon, "add", spy)
        linalg._echelon_columns(matrix, p, None)
    return pivots


class TestModularKernel:
    """The elimination mod p against the exact greedy pivots of plain Gauss."""

    @pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)])
    def test_span_stops_at_the_target(self, field, added):
        rng = random.Random(101)
        for _ in range(40):
            nrows, ncols = rng.randint(3, 6), rng.randint(8, 12)
            den = 3 if field is QQ else 1
            cols = [[Fraction(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(nrows)]
                    for _ in range(ncols)]
            k = rng.randint(1, 3)  # v is a combination of the first k columns
            weights = [rng.randint(-2, 2) or 1 for _ in range(k)]
            v = [sum(w * col[i] for w, col in zip(weights, cols)) for i in range(nrows)]
            # the fewest leading columns whose span holds v
            stop = next(j for j in range(ncols + 1)
                        if naive_rank(field, cols[:j] + [v]) == naive_rank(field, cols[:j]))
            added.clear()
            ok, cert = in_span(v, from_columns(field, nrows, cols))
            assert ok
            assert stop <= k and added == list(range(stop))  # no later column read
            pivots = set(greedy_pivots(field, cols))
            assert not any(c for j, c in enumerate(cert) if j not in pivots)
            for i in range(nrows):
                total = field.zero
                for col, c in zip(cols, cert):
                    total = field.add(total, field.mul(field.coerce(col[i]), c))
                assert total == field.coerce(v[i])

    def test_false_span_reads_every_column(self, added):
        cols = [[1, 0, 0], [2, 0, 0], [0, 1, 0], [1, 1, 0]]
        ok, dual = in_span([0, 0, 1], from_columns(QQ, 3, cols))
        assert not ok and is_dual(QQ, dual, cols, [0, 0, 1])
        assert added == [0, 1, 2, 3]

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(32003)])
    def test_against_greedy_pivots_randomized(self, field, moduli, monkeypatch):
        rng = random.Random(89)
        for _ in range(80):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
            cols = []
            for _ in range(ncols):
                kind = rng.random()
                if cols and kind < 0.25:  # a combination of earlier columns
                    a, b = rng.choice(cols), rng.choice(cols)
                    k = rng.randint(-2, 2)
                    cols.append([x + k * y for x, y in zip(a, b)])
                elif kind < 0.35:
                    cols.append([0] * nrows)
                else:
                    den = rng.randint(1, 4) if field is QQ else 1
                    cols.append([Fraction(rng.randint(-5, 5), den) for _ in range(nrows)])
            m = from_columns(field, nrows, cols)
            exact = greedy_pivots(field, cols)
            p = field.p or linalg.PRIME
            assert echelon_pivots(monkeypatch, m, p) == exact
            got = rank(m)
            assert got.rank == len(exact)
            assert got.prime == p
            if got.rank < nrows:
                assert is_dual(field, got.dual, cols) and any(got.dual)
            else:
                assert got.dual is None
            v = [rng.randint(-3, 3) for _ in range(nrows)]
            member = naive_rank(field, cols + [v]) == len(exact)
            ok, cert = in_span(v, m)
            assert ok == member
            if ok:
                assert not any(c for j, c in enumerate(cert) if j not in exact)
            else:
                assert is_dual(field, cert, cols, v)
        # 2^61 - 1 divides no minor of these small entries, and a finite
        # field is only ever eliminated at its own prime
        assert {q for _, q in moduli} == {p}

    def test_prime_dividing_a_minor(self, moduli, monkeypatch):
        p = linalg.PRIME
        # det = p: rank 2 over QQ, 1 mod p
        m = from_rows(QQ, [[1, 1], [1, 1 + p]])
        got = rank(m)
        assert got.rank == 2 and got.dual is None
        assert above_hadamard(got.prime, [[1, 1], [1, 1 + p]], 2)
        assert greedy_pivots(QQ, [[1, 1], [1, 1 + p]]) == [0, 1]
        ok, cert = in_span([0, 1], m)
        assert ok and cert == [Fraction(-1, p), Fraction(1, p)]
        # the second column differs from the first by p*e3, so the rank drops
        # mod p; a dependent third column and a zero row keep it deficient
        rng = random.Random(97)
        c0 = [rng.randint(-9, 9) for _ in range(3)] + [0]
        c1 = c0[:2] + [c0[2] + p, 0]
        c2 = [2 * x for x in c0]
        cols = [c0, c1, c2]
        m = from_columns(QQ, 4, cols)
        assert echelon_pivots(monkeypatch, m, p) == [0]
        got = rank(m)
        assert got.rank == 2 and is_dual(QQ, got.dual, cols)
        assert above_hadamard(got.prime, cols, 4)
        v = [x + y for x, y in zip(c0, c1)]
        ok, cert = in_span(v, m)
        assert ok and cert == [1, 1, 0]
        ok, dual = in_span([0, 0, 0, 1], m)
        assert not ok and is_dual(QQ, dual, cols, [0, 0, 0, 1])
        assert len(retries(moduli)) == 4

    def test_solution_too_tall_for_one_prime(self, moduli):
        # 3^40 and 5^30 exceed the reconstruction bound sqrt(p/2) ~ 2^30
        ok, cert = in_span([1], from_rows(QQ, [[3**40]]))
        assert ok and cert[0] == Fraction(1, 3**40)
        ok, cert = in_span([5**30], from_rows(QQ, [[1]]))
        assert ok and cert[0] == 5**30
        tall = from_rows(QQ, [[1], [3**40]])
        got = rank(tall)
        assert got.rank == 1 and above_hadamard(got.prime, [[1, 3**40]], 2)
        assert got.dual == [-(3**40), 1]
        ok, dual = in_span([0, 1], tall)
        assert not ok and is_dual(QQ, dual, [[1, 3**40]], [0, 1])
        assert len(retries(moduli)) == 4
        # the same questions with small entries stay modular
        assert in_span([1], from_rows(QQ, [[3**4]]))[1][0] == Fraction(1, 81)
        assert len(retries(moduli)) == 4

    @pytest.mark.parametrize("cols, target", [
        ([[3**40]], [1]),  # the solution is too tall
        ([[1]], [5**30]),  # the target is too tall
        ([[1, 3**40]], [0, 1]),  # the dual vector is too tall
        ([[1, 1], [1, 1 + linalg.PRIME]], [0, 1]),  # PRIME divides the determinant
    ])
    def test_one_retry_settles_span(self, cols, target, moduli):
        ok, _ = in_span(target, from_columns(QQ, len(target), cols))
        assert ok == (naive_rank(QQ, cols + [target]) == naive_rank(QQ, cols))
        (_, first), (_, second) = moduli
        assert first == linalg.PRIME and above_hadamard(second, cols + [target], len(target))

    @pytest.mark.parametrize("cols", [[[1, 3**40]], [[1, 1], [1, 1 + linalg.PRIME]]])
    def test_one_retry_settles_rank(self, cols, moduli):
        got = rank(from_columns(QQ, len(cols[0]), cols))
        assert got.rank == naive_rank(QQ, cols)
        assert moduli == [(QQ, linalg.PRIME), (QQ, got.prime)]
        assert above_hadamard(got.prime, cols, len(cols[0]))

    @pytest.mark.parametrize("field", [GF(2), GF(7), GF(32003)])
    def test_finite_field_uses_only_its_prime(self, field, moduli):
        p = linalg.PRIME
        for cols, target in [
            ([[3**40]], [1]), ([[1, 3**40]], [0, 1]), ([[1, 1], [1, 1 + p]], [0, 1]),
        ]:
            m = from_columns(field, len(target), cols)
            assert rank(m).rank == naive_rank(field, cols)
            assert rank(m).prime == field.p
            ok, _ = in_span(target, m)
            assert ok == (naive_rank(field, cols + [target]) == naive_rank(field, cols))
        assert {q for _, q in moduli} == {field.p}

    def test_bound_past_the_last_prime_is_a_resource_limit(self, monkeypatch):
        monkeypatch.setattr(linalg, "PRIMES", (linalg.PRIME,))
        with pytest.raises(BudgetExceededError):
            rank(from_rows(QQ, [[1], [3**40]]))
        with pytest.raises(BudgetExceededError):
            in_span([1], from_rows(QQ, [[3**40]]))
        # entries that one prime settles never need the list
        assert rank(from_rows(QQ, [[1], [3**4]])).rank == 1

    def test_failed_check_at_the_bound_is_a_fault(self, monkeypatch, moduli):
        monkeypatch.setattr(linalg, "_lift", lambda field, values, p: None)
        # small entries: the bound is below PRIME, so there is no retry
        with pytest.raises(CertificateError):
            in_span([1], from_rows(QQ, [[3]]))
        assert moduli == [(QQ, linalg.PRIME)]
        moduli.clear()
        with pytest.raises(CertificateError):
            rank(from_rows(QQ, [[1], [3**40]]))
        assert len(retries(moduli)) == 1

    def test_in_span_false_keeps_its_public_form(self):
        m = from_columns(QQ, 2, [[1, 2]])
        assert in_span([1, 0], m) == (False, [-2, 1])

    def test_rational_reconstruction(self):
        p = linalg.PRIME
        for q in (Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(2**29, 2**30 - 1)):
            residue = q.numerator * pow(q.denominator, -1, p) % p
            assert linalg._rational(residue, p) == q
        assert linalg._rational(5**30 % p, p) != 5**30
