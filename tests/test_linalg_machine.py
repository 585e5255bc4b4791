"""The ``--format machine`` bytes of the linear-algebra verdicts, pinned.

Seeded ``rank_condition`` and ``graded_member`` instances over QQ and
GF(32003), with true and false verdicts, under S4, S5, C5 and the dihedral
group of the square, plus S7 on type (3,2,1), the dihedral group of the
hexagon, and one rank question that the first prime cannot settle.  Each
report's ``machine()`` text must equal the stored one in
``data/linalg_machine.json``.  Rewrite that file (only when a change of
output is intended) with ``PYTHONPATH=src python tests/test_linalg_machine.py``.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from symorbits import (
    GF,
    QQ,
    PermGroup,
    Polynomial,
    graded_member,
    monomials_of_degree,
    monomials_of_type,
    orbit,
    orbit_ideal,
    parse_polynomial,
    rank_condition,
)

DATA = Path(__file__).resolve().parent / "data" / "linalg_machine.json"

# (name, group, monomial type for rank_condition, seed degree, target degree)
GROUPS = [
    ("S4", PermGroup.symmetric(4), (2, 1), 2, 4),
    ("S5", PermGroup.symmetric(5), (1, 1, 1), 2, 3),
    ("C5", PermGroup.cyclic(5), (3,), 2, 4),
    ("D4", PermGroup.generated(4, ["(1 2 3 4)", "(1 4)(2 3)"]), (2,), 2, 4),
]
FIELDS = [("QQ", QQ), ("GF32003", GF(32003))]


def _coeff(rng, field):
    """A nonzero coefficient; over QQ a fraction half the time."""
    num = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
    return Fraction(num, rng.randint(1, 3)) if field is QQ and rng.random() < 0.5 else num


def _poly(rng, field, n, monos):
    return Polynomial(field, n, {m: _coeff(rng, field) for m in monos})


def _rank_instances(rng, field, group, mono_type):
    n = group.degree
    pool = monomials_of_type(mono_type, n)
    full = _poly(rng, field, n, rng.sample(pool, min(len(pool), 4)))
    # coefficients summing to zero keep every orbit vector in one hyperplane
    chosen = rng.sample(pool, min(len(pool), 3))
    terms = {m: _coeff(rng, field) for m in chosen[:-1]}
    terms[chosen[-1]] = -sum(Fraction(c) for c in terms.values())
    deficient = Polynomial(field, n, terms)
    return [("rank-random", full), ("rank-sum-zero", deficient)]


def _member(rng, field, seed, group, mult_degree, count=2):
    """An explicit combination of orbit generators, so a known member."""
    images = orbit(seed, group)
    total = Polynomial.zero(field, seed.nvars)
    while total.is_zero:
        for _ in range(count):
            u = rng.choice(monomials_of_degree(seed.nvars, mult_degree))
            g = rng.choice(images)
            total = total + Polynomial.from_monomial(field, u, _coeff(rng, field)) * g
    return total


def _graded_instances(rng, field, group, seed_degree, target_degree):
    n = group.degree
    out = []
    seed = _poly(rng, field, n, rng.sample(monomials_of_degree(n, seed_degree), 2))
    member = _member(rng, field, seed, group, target_degree - seed_degree)
    other = _poly(rng, field, n, rng.sample(monomials_of_degree(n, target_degree), 2))
    out += [("graded-member", member, seed), ("graded-random", other, seed)]
    # an inhomogeneous seed: the bounded-multiplier search
    mixed = _poly(rng, field, n, [rng.choice(monomials_of_degree(n, seed_degree)),
                                  rng.choice(monomials_of_degree(n, seed_degree - 1))])
    member = _member(rng, field, mixed, group, 1)
    other = _poly(rng, field, n, rng.sample(monomials_of_degree(n, seed_degree + 1), 2))
    out += [("bounded-member", member, mixed), ("bounded-random", other, mixed)]
    return out


def instances():
    """(name, thunk returning a VerdictReport), in a fixed order."""
    rng = random.Random(1414)
    out = []
    for group_name, group, mono_type, seed_degree, target_degree in GROUPS:
        for field_name, field in FIELDS:
            prefix = f"{group_name}-{field_name}"
            for kind, f in _rank_instances(rng, field, group, mono_type):
                out.append((f"{prefix}-{kind}", lambda f=f, g=group: rank_condition(f, g)))
            for kind, target, seed in _graded_instances(
                rng, field, group, seed_degree, target_degree
            ):
                out.append((
                    f"{prefix}-{kind}",
                    lambda t=target, s=seed, g=group: graded_member(t, orbit_ideal([s], g)),
                ))
    # 210 monomials of type (3,2,1) against 5,040 orbit vectors; the second
    # and fourth have coefficients summing to zero
    s7 = PermGroup.symmetric(7)
    for name, field, text in [
        ("S7-QQ-rank-full", QQ, "x1^3*x2^2*x3 + 2*x2^3*x1^2*x3 - x4^3*x5^2*x6"),
        ("S7-QQ-rank-deficient", QQ, "x1^3*x2^2*x3 + 2*x2^3*x3^2*x4 - 3*x5^3*x6^2*x7"),
        ("S7-GF32003-rank-full", GF(32003), "3*x1^3*x2^2*x3 - x2^3*x1^2*x3 + x4^3*x5^2*x7"),
        ("S7-GF32003-rank-deficient", GF(32003), "x1^3*x2^2*x3 - x2^3*x1^2*x3"),
    ]:
        f = parse_polynomial(text, 7, field)
        out.append((name, lambda f=f: rank_condition(f, s7)))
    # 12 distinct images of a pure-square polynomial under the dihedral group
    d6 = PermGroup.generated(6, ["(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"])
    hexagon = parse_polynomial("x1^2 + 2*x2^2 - x4^2", 6, QQ)
    out.append(("D6-QQ-rank-deficient", lambda: rank_condition(hexagon, d6)))
    # rank 1 mod 2^61 - 1 (2^61 is 1 there), rank 2 over QQ: settled at 2^521 - 1
    tall = Polynomial(QQ, 2, {(2, 1): 1, (1, 2): 2**61})
    out.append(("S2-QQ-rank-retry", lambda: rank_condition(tall, PermGroup.symmetric(2))))
    return out


INSTANCES = instances()


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_instance_set_covers_both_verdicts(golden):
    assert sorted(golden) == sorted(name for name, _ in INSTANCES)
    verdicts = [text.split("\nverdict=")[1].split("\n")[0] for text in golden.values()]
    assert {"true", "false"} <= set(verdicts)
    assert "certificate.prime=" + str(2**521 - 1) in golden["S2-QQ-rank-retry"]


@pytest.mark.parametrize("name, make", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_machine_bytes(name, make, golden):
    assert make().machine() == golden[name]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    texts = {name: make().machine() for name, make in INSTANCES}
    DATA.write_text(json.dumps(texts, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(texts)} reports to {DATA}")
