import random
import time
from fractions import Fraction

import pytest

from symorbits import GF, QQ, BudgetExceededError, ExactMatrix, in_span, rank


def naive_rank(field, rows):
    """Independent oracle: plain Gauss over the field, no Bareiss."""
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
        m = ExactMatrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rank(m) == 3

    def test_proportional_rows(self):
        assert rank(ExactMatrix(QQ, [[1, 2], [2, 4]])) == 1

    def test_f2_all_ones(self):
        assert rank(ExactMatrix(GF(2), [[1, 1], [1, 1]])) == 1

    def test_rational_entries(self):
        singular = ExactMatrix(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
        assert rank(singular) == naive_rank(QQ, singular.rows) == 1
        regular = ExactMatrix(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]])
        assert rank(regular) == naive_rank(QQ, regular.rows) == 2

    def test_zero_matrix(self):
        assert rank(ExactMatrix(QQ, [[0, 0], [0, 0]])) == 0

    def test_deadline(self):
        m = ExactMatrix(QQ, [[1, 2], [3, 4]])
        assert rank(m, deadline=time.monotonic() + 60) == 2
        for field in (QQ, GF(7)):
            with pytest.raises(BudgetExceededError):
                rank(ExactMatrix(field, m.rows), deadline=time.monotonic() - 1)

    def test_against_naive_gauss_randomized(self):
        rng = random.Random(61)
        for field in (QQ, GF(5), GF(2)):
            for _ in range(40):
                nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
                rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
                m = ExactMatrix(field, rows)
                assert rank(m) == naive_rank(field, rows)

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(67)
        for _ in range(40):
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(rng.randint(1, 5))]]
            rows *= 1
            nrows = rng.randint(1, 5)
            ncols = len(rows[0])
            m = ExactMatrix(
                QQ,
                [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ncols)]
                 for _ in range(nrows)],
            )
            assert rank(m) == rank(m.transpose())


class TestInSpan:
    def test_examples(self):
        m = ExactMatrix.from_columns(QQ, 2, [[1, 1], [0, 1]])  # e1+e2, e2
        ok, cert = in_span([1, 0], m)
        assert ok
        assert [c.value for c in cert] == [1, -1]

        m2 = ExactMatrix.from_columns(QQ, 2, [[0, 1]])
        ok, cert = in_span([1, 0], m2)
        assert not ok and cert is None

    def test_column_contained(self):
        rng = random.Random(71)
        for _ in range(20):
            cols = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
            m = ExactMatrix.from_columns(QQ, 4, cols)
            ok, cert = in_span(cols[1], m)
            assert ok

    def test_dimension_mismatch(self):
        m = ExactMatrix.from_columns(QQ, 2, [[1, 0]])
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
                m = ExactMatrix.from_columns(field, nrows, cols)
                augmented = ExactMatrix.from_columns(field, nrows, cols + [v])
                ok, cert = in_span(v, m)
                assert ok == (rank(augmented) == rank(m))

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
                m = ExactMatrix.from_columns(field, nrows, cols)
                ok, cert = in_span(v, m)
                assert ok
                for i in range(nrows):
                    total = field.zero
                    for j, c in enumerate(cert):
                        total = field.add(total, field.mul(field.coerce(cols[j][i]), c.value))
                    assert total == field.coerce(v[i])

    def test_zero_columns(self):
        m = ExactMatrix.from_columns(QQ, 3, [])
        assert (m.nrows, m.ncols) == (3, 0)
        assert rank(m) == 0
        assert in_span([0, 0, 0], m) == (True, [])
        assert in_span([1, 0, 0], m) == (False, None)
        with pytest.raises(ValueError):
            ExactMatrix.from_columns(QQ, 3, [[1, 0]])
        # zero rows keep the column count, and a certificate has an entry
        # for every column
        empty = ExactMatrix.from_columns(QQ, 0, [[], []])
        assert (empty.nrows, empty.ncols) == (0, 2)
        assert in_span([], empty) == (True, [QQ.scalar(0), QQ.scalar(0)])
        flat = ExactMatrix(QQ, [[], []]).transpose()
        assert (flat.nrows, flat.ncols) == (0, 2)
        assert (flat.transpose().nrows, flat.transpose().ncols) == (2, 0)

    def test_certificate_on_greedy_pivot_columns(self):
        # column j is a greedy pivot iff it raises the rank of cols[:j]
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
                pivots = {
                    j for j in range(len(cols))
                    if naive_rank(field, cols[:j + 1]) > naive_rank(field, cols[:j])
                }
                ok, cert = in_span(v, ExactMatrix.from_columns(field, nrows, cols))
                assert ok == (naive_rank(field, cols + [v]) == naive_rank(field, cols))
                if not ok:
                    continue
                assert all(c.is_zero for j, c in enumerate(cert) if j not in pivots)
                for i in range(nrows):
                    total = field.zero
                    for col, c in zip(cols, cert):
                        total = field.add(total, field.mul(field.coerce(col[i]), c.value))
                    assert total == field.coerce(v[i])
