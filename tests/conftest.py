import random
import signal

import pytest

from symorbits import (
    GF, QQ, PermGroup, Permutation, Polynomial, monomials_of_degree, parse_polynomial
)

TEST_TIME_LIMIT = 120  # seconds; the heaviest test takes about 7 s


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past ``TEST_TIME_LIMIT``, so that a computation
    that never ends (say, Buchberger on a wrong S-polynomial, under the
    fixed guard of a million reduced signatures) fails the suite instead
    of hanging it.  Where the platform has no SIGALRM the limit is not
    enforced."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past {TEST_TIME_LIMIT} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def P():
    """Shorthand polynomial constructor from text."""

    def build(text, nvars, field=QQ):
        return parse_polynomial(text, nvars, field)

    return build


@pytest.fixture
def elements():
    """Every element of a group, sorted by image tuple: the closure of the
    identity under the generators, an oracle that never reads the group's
    order.  Past ``limit`` elements it returns None."""

    def enumerate_group(group, limit=None):
        gens = [g.images for g in group.generators]
        start = tuple(range(group.degree))
        reach, todo = {start}, [start]
        while todo:
            p = todo.pop()
            for h in gens:
                q = tuple(h[j] for j in p)
                if q not in reach:
                    if limit is not None and len(reach) >= limit:
                        return None
                    reach.add(q)
                    todo.append(q)
        return [Permutation(p) for p in sorted(reach)]

    return enumerate_group


@pytest.fixture(scope="session")
def seeded_orbit_seeds():
    """40 seeded (group, f) pairs: f homogeneous of degree 2 or 3 with one
    to three terms, over GF(32003) and QQ in turn, under S3, C3, C4, S4 and
    the dihedral group of the square in turn; every fourth support is
    square-free."""
    groups = [
        PermGroup.symmetric(3),
        PermGroup.cyclic(3),
        PermGroup.cyclic(4),
        PermGroup.symmetric(4),
        PermGroup.generated(4, ["(1 2 3 4)", "(1 4)(2 3)"]),
    ]
    rng = random.Random(2026)
    out = []
    for trial in range(40):
        field = QQ if trial % 2 else GF(32003)
        group = groups[trial % len(groups)]
        monos = monomials_of_degree(group.degree, rng.choice((2, 3)))
        if trial % 4 == 3:
            monos = [m for m in monos if max(m) <= 1]
        chosen = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
        coeffs = {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in chosen}
        out.append((group, Polynomial(field, group.degree, coeffs)))
    return out
