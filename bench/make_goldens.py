#!/usr/bin/env python3
"""Regenerate the benchmark's stored known answers from the current program.

    python3 bench/make_goldens.py

Writes bench/data/repro_golden.json (the captured ``--format machine``
stdout of every pinned ``repro`` scenario) and
bench/data/genericity_verdicts.json (the verdict of every trial seed in the
pool of each genericity class).  The first SYMPY_CHECKED trial seeds of
each class are cross-checked against an independent computation with
sympy.groebner; any disagreement aborts without writing.  sympy is used here only, never by
the package.  Run from the root of a source checkout, on a commit whose
verdicts are trusted.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import (  # noqa: E402
    DATA,
    GENERICITY_CLASSES,
    TRIAL_POOL,
    act,
    genericity_support,
    group_elements,
)

COEFF_BOX = 9  # sample_genericity's default box, which the workload uses
SYMPY_CHECKED = 3  # trial seeds per class cross-checked against sympy.groebner


def repro_goldens() -> dict[str, str]:
    from symorbits import cli

    out = {}
    for name in sorted(cli.SCENARIOS):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.run(["repro", name, "--format", "machine"])
        if code != 0:
            raise SystemExit(f"repro {name} exited {code}; refusing to pin it")
        out[name] = buffer.getvalue()
    return out


def program_verdict(name: str, trial_seed: int) -> bool:
    from symorbits import PermGroup, SupportSet, sample_genericity

    prop, desc, n, _, _ = GENERICITY_CLASSES[name]
    group = PermGroup.symmetric(n) if desc.startswith("S") else PermGroup.cyclic(n)
    report = sample_genericity(SupportSet.of(n, genericity_support(name)), group, prop,
                               trials=1, seed=trial_seed)
    return bool(report.successes)


def sympy_verdict(name: str, trial_seed: int) -> bool:
    """The same trial decided independently with sympy.groebner."""
    import sympy

    prop, desc, n, _, _ = GENERICITY_CLASSES[name]
    support = genericity_support(name)
    candidates = [c for c in range(-COEFF_BOX, COEFF_BOX + 1) if c]
    rng = random.Random(trial_seed)  # the draw sample_genericity makes for one trial
    coeffs = dict(zip(support, (rng.choice(candidates) for _ in support)))
    xs = sympy.symbols(f"x1:{n + 1}")
    orbit = {tuple(sorted((act(s, m), c) for m, c in coeffs.items()))
             for s in group_elements(desc, n)}
    # a basis of the orbit's linear span generates the same ideal
    monos = sorted({m for poly in orbit for m, _ in poly})
    rows = sympy.Matrix([[dict(poly).get(m, 0) for m in monos] for poly in sorted(orbit)])
    basis_rows = rows.T.columnspace()
    gens = [sum(c * sympy.prod(x**e for x, e in zip(xs, m)) for c, m in zip(col, monos))
            for col in basis_rows]
    if prop == "irrelevant_radical":
        # homogeneous: V(I) = {0} iff I is zero-dimensional
        basis = sympy.groebner(gens, *xs, order="grevlex")
        leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
        return all(any(m[i] > 0 and sum(m) == m[i] for m in leads) for i in range(n))
    if prop == "radical_orbit":
        k = min(sum(1 for e in m if e) for m in support)
        t = sympy.Symbol("t")
        target = sympy.prod(xs[:k])
        basis = sympy.groebner(gens + [1 - t * target], *xs, t, order="grevlex")
        return basis.exprs == [1]
    # monomial_ideal: the orbit ideal is monomial iff it contains one monomial of the type
    basis = sympy.groebner(gens, *xs, order="grevlex")
    return basis.contains(sympy.prod(x**e for x, e in zip(xs, support[-1])))


def main() -> int:
    verdicts = {}
    for name in GENERICITY_CLASSES:
        verdicts[name] = {str(s): program_verdict(name, s) for s in range(TRIAL_POOL)}
        for s in range(SYMPY_CHECKED):
            expected = sympy_verdict(name, s)
            if verdicts[name][str(s)] != expected:
                raise SystemExit(f"{name} trial {s}: program says {verdicts[name][str(s)]}, "
                                 f"sympy says {expected}")
        successes = sum(verdicts[name].values())
        print(f"{name}: {successes}/{TRIAL_POOL} true, first {SYMPY_CHECKED} "
              "agree with sympy.groebner", file=sys.stderr)
    repro = repro_goldens()
    DATA.mkdir(exist_ok=True)
    (DATA / "genericity_verdicts.json").write_text(json.dumps(verdicts, indent=1) + "\n")
    (DATA / "repro_golden.json").write_text(json.dumps(repro, indent=1) + "\n")
    print(f"wrote {len(repro)} repro goldens and {TRIAL_POOL} verdicts per genericity class",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
