"""Seeded instance sets for the symorbits benchmark, and the code that runs
and checks one instance.

Every instance is plain data: polynomial text or exponent tuples, a field
token and a group descriptor.  Nothing here imports symorbits: generation is
pure Python and deterministic in the seed, and each runner receives a
namespace of freshly imported symorbits modules.  A runner returns ``None``
when every known answer checks out and a one-line reason otherwise.

Instance classes are fixed by input properties only (field, group, degree,
term count, construction), never by measured cost, so that one seed's draw
costs about what another's does and no single instance dominates a pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
PRIME = 32003
COEFFS = [c for c in range(-5, 6) if c]
DEADLINE_S = 60.0  # per Groebner computation; exceeding it counts as a failure


# -- plain-data helpers ----------------------------------------------------------


def dihedral(n: int) -> str:
    rotation = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    reflection = "".join(f"({i} {n + 1 - i})" for i in range(1, n // 2 + 1))
    return f"gens:{rotation},{reflection}"


def _cycles_to_images(text: str, n: int) -> tuple[int, ...]:
    images = list(range(n))
    for cycle in text.strip("()").split(")("):
        entries = [int(t) - 1 for t in cycle.split()]
        for a, b in zip(entries, entries[1:] + entries[:1]):
            images[a] = b
    return tuple(images)


def group_elements(desc: str, n: int) -> list[tuple[int, ...]]:
    """All elements of a small group, as 0-based image tuples."""
    if desc.startswith("S"):
        return list(itertools.permutations(range(n)))
    if desc.startswith("C"):
        return [tuple((i + s) % n for i in range(n)) for s in range(n)]
    gens = [_cycles_to_images(c, n) for c in desc[len("gens:"):].split(",")]
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                prod = tuple(h[g[i]] for i in range(n))
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return sorted(seen)


def act(sigma: tuple[int, ...], mono: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(mono)
    for i, e in enumerate(mono):
        out[sigma[i]] = e
    return tuple(out)


def monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1) for rest in monomials(n - 1, degree - e)]


def monomials_of_type(partition: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    padded = tuple(partition) + (0,) * (n - len(partition))
    return sorted(set(itertools.permutations(padded)), reverse=True)


def _reduce(terms: dict, p: int | None) -> dict:
    if p is not None:
        terms = {m: (c + p // 2) % p - p // 2 for m, c in terms.items()}
    return {m: c for m, c in terms.items() if c}


def add_product(acc: dict, coeff: int, mult: tuple[int, ...], poly: dict, p: int | None) -> dict:
    """acc + coeff * mult * poly, over QQ (p is None) or GF(p)."""
    out = dict(acc)
    for m, c in poly.items():
        key = tuple(a + b for a, b in zip(m, mult))
        out[key] = out.get(key, 0) + coeff * c
    return _reduce(out, p)


def poly_text(terms: dict) -> str:
    """Text in the grammar parse_polynomial reads, e.g. ``3*x1^2*x2 - x3``."""
    pieces = []
    for m in sorted(terms, reverse=True):
        c = terms[m]
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces).removeprefix("+ ")


def random_poly(rng: random.Random, n: int, degree: int, terms: int, p: int | None) -> dict:
    pool = monomials(n, degree)
    while True:
        chosen = rng.sample(pool, min(terms, len(pool)))
        poly = _reduce({m: rng.choice(COEFFS) for m in chosen}, p)
        if poly:
            return poly


def built_member(rng, seed: dict, elements, n: int, mult_degree: int, p, count: int = 2) -> dict:
    """An explicit combination of `count` orbit generators, so a known member."""
    while True:
        target: dict = {}
        for _ in range(count):
            sigma = rng.choice(elements)
            image = {act(sigma, m): c for m, c in seed.items()}
            target = add_product(target, rng.choice(COEFFS), rng.choice(monomials(n, mult_degree)), image, p)
        if target:
            return target


def field_token(p: int | None) -> str:
    return "QQ" if p is None else f"GF{p}"


# -- membership-oracle ---------------------------------------------------------------

# (field, group kind, n, seed degree, seed terms, target degree - seed degree)
MEMBERSHIP_CLASSES = [
    ("Q", "S", 2, 4, 2, 1), ("Q", "S", 3, 3, 3, 0), ("Q", "S", 3, 4, 3, 0),
    ("Q", "S", 3, 2, 3, 1), ("Q", "S", 4, 2, 2, 0), ("Q", "S", 4, 2, 3, 0),
    ("Q", "S", 4, 3, 2, 0), ("Q", "S", 4, 3, 3, 0), ("Q", "S", 4, 2, 2, 1),
    ("Q", "S", 5, 2, 2, 0), ("Q", "S", 6, 1, 2, 0), ("Q", "C", 4, 2, 3, 0),
    ("Q", "C", 5, 2, 2, 0), ("Q", "C", 6, 2, 2, 0), ("Q", "D", 4, 3, 3, 0),
    ("Q", "D", 5, 2, 2, 0), ("Q", "D", 6, 1, 3, 1),
    ("F", "S", 2, 4, 2, 1), ("F", "S", 3, 3, 3, 0), ("F", "S", 4, 3, 3, 0),
    ("F", "S", 4, 2, 3, 1), ("F", "S", 5, 2, 2, 0), ("F", "C", 4, 2, 3, 1),
    ("F", "C", 5, 2, 3, 1), ("F", "C", 6, 1, 3, 1), ("F", "D", 4, 3, 2, 0),
    ("F", "D", 5, 3, 2, 0),
]
MEMBERSHIP_PER_CLASS = 10  # half built members, half random targets


def _group_desc(kind: str, n: int) -> str:
    return dihedral(n) if kind == "D" else f"{kind}{n}"


def membership_instances(rng: random.Random, classes=MEMBERSHIP_CLASSES, per_class=MEMBERSHIP_PER_CLASS):
    out = []
    for fld, kind, n, d, terms, offset in classes:
        p = None if fld == "Q" else PRIME
        desc = _group_desc(kind, n)
        elements = group_elements(desc, n)
        for k in range(per_class):
            seed = random_poly(rng, n, d, terms, p)
            built = k % 2 == 0
            if built:
                target = built_member(rng, seed, elements, n, offset, p)
            else:
                target = random_poly(rng, n, d + offset, 2, p)
            out.append({
                "kind": "member", "field": field_token(p), "group": desc, "nvars": n,
                "seed": poly_text(seed), "target": poly_text(target), "built": built,
            })
    return out


# -- graded-linalg -------------------------------------------------------------------

# graded membership: (field, group, n, seed text, target degree); seeds have no
# pure-power term, so every generator vanishes at the coordinate points
GRADED_CLASSES = [
    (None, "S5", 5, "x1*x2 + x1*x3 + x2*x3", 4),
    (None, "S6", 6, "x1*x2 + x1*x3 + x2*x3", 3),
    (PRIME, "S6", 6, "x1*x2 + x1*x3 + x2*x3", 4),
    (None, "S5", 5, "x1^2*x2 + x2^2*x3", 4),
    (PRIME, "S5", 5, "x1^2*x2 + x2^2*x3", 4),
    (PRIME, "S6", 6, "x1^2*x2 + x2^2*x3", 4),
    (PRIME, "S6", 6, "x1*x2*x3 + x1*x2*x4", 4),
]
GRADED_PER_CLASS = 2  # one built member, one built member plus a pure power

# rank condition: (field, group, n, monomial type, construction)
RANK_CLASSES = [
    (None, "S5", 5, (2, 1), "dominant"), (None, "S5", 5, (2, 1, 1), "augmented"),
    (PRIME, "S5", 5, (2, 1), "pair"), (PRIME, "S5", 5, (1, 1, 1), "augmented"),
    (None, "S6", 6, (2, 1), "dominant"), (None, "S6", 6, (1, 1, 1), "pair"),
    (PRIME, "S6", 6, (2, 1), "augmented"), (PRIME, "S6", 6, (1, 1, 1), "pair"),
    (None, "C7", 7, (3,), "dominant"), (None, "C7", 7, (3,), "pair"),
    (PRIME, "C8", 8, (2,), "pair"), (PRIME, "C8", 8, (2,), "augmented"),
]
RANK_PER_CLASS = 4


def _seed_terms(text: str, n: int) -> dict:
    """Exponent dict of a sum of monomials with coefficient 1, e.g. ``x1^2*x2 + x3``."""
    terms = {}
    for piece in text.split(" + "):
        mono = [0] * n
        for var in piece.split("*"):
            name, _, exp = var.partition("^")
            mono[int(name[1:]) - 1] += int(exp or 1)
        terms[tuple(mono)] = 1
    return terms


def _rank_poly(rng, desc: str, n: int, mono_type, construction: str, p) -> tuple[dict, bool]:
    """A single-type polynomial whose rank verdict is known by construction.

    dominant: one coefficient exceeds the sum of the others' absolute values,
      so the orbit matrix has a strictly diagonally dominant square minor
      (over QQ only): full rank.
    augmented: coefficients sum to zero, so every orbit vector lies in the
      sum-zero hyperplane: deficient.
    pair: m + t*s(m) for a group element s; for S_n with s a transposition
      the span holds (1 - t^2) e_m, and for C_n on pure powers the matrix is
      the circulant I + tP with determinant 1 - (-t)^n.
    """
    pool = monomials_of_type(mono_type, n)
    if construction == "dominant":
        others = rng.sample(pool[1:], min(len(pool) - 1, 6))
        terms = {m: rng.choice(COEFFS) for m in others}
        terms[pool[0]] = 1 + sum(abs(c) for c in terms.values()) + rng.randint(0, 3)
        return terms, True
    if construction == "augmented":
        while True:
            chosen = rng.sample(pool, min(len(pool), 6))
            terms = {m: rng.choice(COEFFS) for m in chosen[:-1]}
            terms[chosen[-1]] = -sum(terms.values())
            terms = _reduce(terms, p)
            if len(terms) >= 2:
                return terms, False
    m0 = pool[0]
    if desc.startswith("S"):
        i = next(i for i, e in enumerate(m0) if e != m0[-1])
        swap = list(range(n))
        swap[i], swap[n - 1] = n - 1, i
        partner = act(tuple(swap), m0)
        t = rng.choice([-1, 2, 3, -2, -3])
        full = t * t != 1
    else:
        partner = act(tuple((i + 1) % n for i in range(n)), m0)
        t = rng.choice([-1, 1, 2, -2, 3])
        det = 1 - (-t) ** n
        full = (det % p != 0) if p else det != 0
    return {m0: 1, partner: t}, full


def graded_linalg_instances(rng: random.Random):
    out = []
    for p, desc, n, spec, degree in GRADED_CLASSES:
        elements = group_elements(desc, n)
        for k in range(GRADED_PER_CLASS):
            seed = _seed_terms(spec, n)
            seed_degree = sum(next(iter(seed)))
            target = built_member(rng, seed, elements, n, degree - seed_degree, p, count=3)
            member = k % 2 == 0
            if not member:
                power = [0] * n
                power[rng.randrange(n)] = degree
                target = add_product(target, rng.choice(COEFFS), tuple(power), {(0,) * n: 1}, p)
            out.append({
                "kind": "graded", "field": field_token(p), "group": desc, "nvars": n,
                "seed": poly_text(seed), "target": poly_text(target), "expect": member,
            })
    for p, desc, n, mono_type, construction in RANK_CLASSES:
        for _ in range(RANK_PER_CLASS):
            terms, full = _rank_poly(rng, desc, n, mono_type, construction, p)
            out.append({
                "kind": "rank", "field": field_token(p), "group": desc, "nvars": n,
                "poly": poly_text(terms), "expect": full,
            })
    return out


# -- genericity ------------------------------------------------------------------------

# name: (property, group, n, support monomial types, trials drawn per pass)
GENERICITY_CLASSES = {
    "c5-quadric": ("irrelevant_radical", "C5", 5, [(2,), (1, 1)], 3),
    "s5-cubic": ("radical_orbit", "S5", 5, [(1, 1, 1)], 1),
    "s6-type21": ("monomial_ideal", "S6", 6, [(2, 1)], 1),
}
TRIAL_POOL = 24  # trial seeds 0..TRIAL_POOL-1 per class have stored verdicts


def genericity_support(name: str) -> list[tuple[int, ...]]:
    _, _, n, types, _ = GENERICITY_CLASSES[name]
    return sorted(m for t in types for m in monomials_of_type(t, n))


def genericity_instances(rng: random.Random):
    verdicts = json.loads((DATA / "genericity_verdicts.json").read_text())
    out = []
    for name, (prop, desc, n, _, draws) in GENERICITY_CLASSES.items():
        for trial_seed in rng.sample(range(TRIAL_POOL), draws):
            out.append({
                "kind": "genericity", "class": name, "property": prop, "group": desc,
                "nvars": n, "support": genericity_support(name), "trial_seed": trial_seed,
                "expect": verdicts[name][str(trial_seed)],
            })
    return out


# -- repro-cli --------------------------------------------------------------------------


def repro_instances(rng: random.Random):
    golden = json.loads((DATA / "repro_golden.json").read_text())
    names = sorted(golden)
    rng.shuffle(names)
    return [{"kind": "repro", "scenario": name, "expect": golden[name]} for name in names]


# -- running one instance -------------------------------------------------------------------


def build_field(so, token: str):
    return so.fields.QQ if token == "QQ" else so.fields.GF(int(token[2:]))


def build_group(so, desc: str, n: int):
    group = so.permutations.PermGroup
    if desc.startswith("gens:"):
        return group.generated(n, desc[len("gens:"):].split(","))
    if desc.startswith("S"):
        return group.symmetric(int(desc[1:]))
    return group.cyclic(int(desc[1:]))


def run_member(so, inst):
    field = build_field(so, inst["field"])
    group = build_group(so, inst["group"], inst["nvars"])
    parse = so.polynomials.parse_polynomial
    seed = parse(inst["seed"], inst["nvars"], field)
    target = parse(inst["target"], inst["nvars"], field)
    ideal = so.ideals.orbit_ideal([seed], group)
    graded = so.ideals.graded_member(target, ideal)
    basis = ideal.groebner_basis(so.polynomials.GREVLEX, deadline=time.monotonic() + DEADLINE_S)
    groebner = basis.contains(target)
    if graded.verdict != groebner:
        return f"routes disagree: graded {graded.verdict}, groebner {groebner}"
    if inst["built"] and not graded.verdict:
        return "constructed member came out false"
    if graded.verdict and not graded.certificate:
        return "true graded verdict without a certificate"
    return None


def run_graded(so, inst):
    field = build_field(so, inst["field"])
    group = build_group(so, inst["group"], inst["nvars"])
    parse = so.polynomials.parse_polynomial
    seed = parse(inst["seed"], inst["nvars"], field)
    target = parse(inst["target"], inst["nvars"], field)
    report = so.ideals.graded_member(target, so.ideals.orbit_ideal([seed], group))
    if report.verdict != inst["expect"]:
        return f"graded verdict {report.verdict}, expected {inst['expect']}"
    if report.verdict and not report.certificate:
        return "true graded verdict without a certificate"
    return None


def run_rank(so, inst):
    field = build_field(so, inst["field"])
    group = build_group(so, inst["group"], inst["nvars"])
    poly = so.polynomials.parse_polynomial(inst["poly"], inst["nvars"], field)
    report = so.ideals.rank_condition(poly, group)
    if report.verdict != inst["expect"]:
        return f"rank verdict {report.verdict}, expected {inst['expect']}"
    full = report.parameters["rank"] == report.parameters["monomials_of_type"]
    if full != report.verdict:
        return "rank parameters contradict the verdict"
    return None


def run_genericity(so, inst):
    support = so.polynomials.SupportSet.of(inst["nvars"], inst["support"])
    group = build_group(so, inst["group"], inst["nvars"])
    report = so.genericity.sample_genericity(
        support, group, inst["property"], trials=1, seed=inst["trial_seed"],
        deadline=time.monotonic() + DEADLINE_S,
    )
    if bool(report.successes) != inst["expect"]:
        return f"trial verdict {bool(report.successes)}, stored {inst['expect']}"
    return None


def run_repro(so, inst):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = so.cli.run(["repro", inst["scenario"], "--format", "machine"])
    if code != 0:
        return f"exit code {code}"
    if buffer.getvalue() != inst["expect"]:
        return "stdout differs from the golden bytes"
    return None


def run_cli(so, inst):
    with contextlib.redirect_stdout(io.StringIO()):
        code = so.cli.run(inst["argv"])
    return None if code == 0 else f"exit code {code}"


RUNNERS = {
    "member": run_member, "graded": run_graded, "rank": run_rank,
    "genericity": run_genericity, "repro": run_repro, "cli": run_cli,
}


# -- workloads ------------------------------------------------------------------------------

# Each workload: generator of the timed set, and one fixed warm-up instance
# that is not in the timed set.
WARMUP_SEED = -1


def _membership_warmup():
    return membership_instances(random.Random(WARMUP_SEED), [("Q", "S", 3, 2, 2, 1)], 1)


def _graded_warmup():
    return [{"kind": "rank", "field": "QQ", "group": "S4", "nvars": 4,
             "poly": "3*x1^2*x2 + x3^2*x4", "expect": True}]


def _genericity_warmup():
    return [{"kind": "genericity", "class": "warmup", "property": "monomial_ideal",
             "group": "S3", "nvars": 3, "support": monomials_of_type((2, 1), 3),
             "trial_seed": 2026, "expect": True}]


def _repro_warmup():
    return [{"kind": "cli", "argv": ["gb", "orbit:S3:x1^2*x2 + x3^3", "--format", "machine"]}]


WORKLOADS = {
    "membership-oracle": (membership_instances, _membership_warmup),
    "graded-linalg": (graded_linalg_instances, _graded_warmup),
    "genericity": (genericity_instances, _genericity_warmup),
    "repro-cli": (repro_instances, _repro_warmup),
}


def generate(workload: str, seed: int) -> list[dict]:
    make, _ = WORKLOADS[workload]
    return make(random.Random(f"{workload}:{seed}"))


def warmup(workload: str) -> list[dict]:
    return WORKLOADS[workload][1]()


def digest(instances: list[dict]) -> str:
    return hashlib.sha256(json.dumps(instances, sort_keys=True).encode()).hexdigest()[:16]
