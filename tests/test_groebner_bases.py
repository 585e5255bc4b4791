"""Reduced Groebner bases and normal forms, pinned.

The orbit ideals of the benchmark's membership-oracle instances at seeds
31 and 5 (S_n, C_n and dihedral groups, n = 2-6, over QQ and GF(32003)):
every ideal in grevlex, and every QQ ideal in lex too.  Each basis and the
normal form of the instance's target, as text, must equal the stored
bytes in ``data/groebner_bases.json``, and each basis must pass
``GroebnerBasis.verify``.  A lex basis that did not finish within
``LEX_DEADLINE_S`` when the file was written is not pinned.

Rewrite that file (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_groebner_bases.py``.
"""

import json
import sys
import time
from pathlib import Path

import pytest

from symorbits import (
    GF, GREVLEX, LEX, QQ, BudgetExceededError, PermGroup, orbit_ideal, parse_polynomial,
)

DATA = Path(__file__).resolve().parent / "data" / "groebner_bases.json"
SEEDS = (31, 5)
LEX_DEADLINE_S = 5.0
ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def _group(desc, n):
    if desc.startswith("gens:"):
        return PermGroup.generated(n, desc[len("gens:"):].split(","))
    if desc.startswith("S"):
        return PermGroup.symmetric(int(desc[1:]))
    return PermGroup.cyclic(int(desc[1:]))


def _basis(case, deadline=None):
    field = QQ if case["field"] == "QQ" else GF(int(case["field"][2:]))
    seed = parse_polynomial(case["seed"], case["nvars"], field)
    target = parse_polynomial(case["target"], case["nvars"], field)
    ideal = orbit_ideal([seed], _group(case["group"], case["nvars"]))
    basis = ideal.groebner_basis(ORDERS[case["order"]], deadline=deadline)
    return basis, target


def _pinned(case):
    basis, target = _basis(case)
    return {"basis": [str(g) for g in basis], "normal_form": str(basis.normal_form(target))}


def _cases():
    """Each membership-oracle instance in grevlex and, over QQ, in lex."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    out = {}
    for seed in SEEDS:
        for index, inst in enumerate(workloads.generate("membership-oracle", seed)):
            for order in ("grevlex", "lex") if inst["field"] == "QQ" else ("grevlex",):
                case = {key: inst[key] for key in ("field", "group", "nvars", "seed", "target")}
                out[f"s{seed}-{index:03d}-{order}"] = dict(case, order=order)
    return out


def _load():
    return json.loads(DATA.read_text()) if DATA.exists() else {}


PINNED = _load()


def test_pinned_set_covers_both_orders_and_fields():
    orders = {case["order"] for case in PINNED.values()}
    fields = {case["field"] for case in PINNED.values()}
    assert orders == {"grevlex", "lex"} and fields == {"QQ", "GF32003"}
    assert len(PINNED) >= 700


@pytest.mark.parametrize("name", sorted(PINNED))
def test_basis_and_normal_form_bytes(name):
    case = PINNED[name]
    basis, target = _basis(case)
    assert [str(g) for g in basis] == case["basis"]
    assert str(basis.normal_form(target)) == case["normal_form"]
    basis.verify()


if __name__ == "__main__":
    pinned, skipped = {}, []
    for name, case in _cases().items():
        if case["order"] == "lex":
            start = time.monotonic()
            try:
                _basis(case, deadline=start + LEX_DEADLINE_S)
            except BudgetExceededError as exc:
                skipped.append(f"{name}: {exc}")
                continue
        pinned[name] = dict(case, **_pinned(case))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} cases to {DATA}; not pinned: {len(skipped)}")
    for line in skipped:
        print("  " + line)
