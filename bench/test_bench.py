"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import COUNTS, LAYER_NAMES, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def keep_loaded_modules(monkeypatch):
    """Let fresh_import drop only symorbits here, not what pytest loaded."""
    monkeypatch.setattr(run, "STARTUP_MODULES", frozenset(sys.modules))


@pytest.mark.parametrize("name", NAMES)
def test_one_seed_gives_one_instance_set(name):
    first = workloads.digest(workloads.generate(name, 7))
    again = workloads.digest(workloads.generate(name, 7))
    print(f"{name} seed 7 digest {first}")
    assert first == again


@pytest.mark.parametrize("name", NAMES)
def test_a_second_seed_gives_another_set(name):
    assert workloads.digest(workloads.generate(name, 1)) != workloads.digest(
        workloads.generate(name, 2))


def test_spec_matches_driver():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert set(NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    layer_names = ([f"{layer}.{kind}" for layer in LAYER_NAMES for kind in ("self_s", "calls")]
                   + COUNTS + ["trace.coverage", "trace.run_s"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: run.layer_unit(name) for name in layer_names}


def _cheap_instances():
    rng = workloads.random.Random(3)
    member = workloads.membership_instances(rng, [("Q", "S", 3, 2, 2, 1), ("F", "D", 5, 3, 2, 0)], 2)
    rank = [i for i in workloads.graded_linalg_instances(rng) if i["group"] in ("C7", "C8")]
    return member + rank


def test_checks_pass_on_known_answers_and_catch_wrong_ones():
    so = run.fresh_import()
    for inst in _cheap_instances():
        assert workloads.RUNNERS[inst["kind"]](so, inst) is None, inst
        if "expect" in inst:
            flipped = dict(inst, expect=not inst["expect"])
            assert workloads.RUNNERS[inst["kind"]](so, flipped) is not None, inst


def test_repro_golden_mismatch_is_a_failure():
    so = run.fresh_import()
    inst = next(i for i in workloads.generate("repro-cli", 1) if i["scenario"] == "lemma-grid")
    assert workloads.run_repro(so, inst) is None
    assert workloads.run_repro(so, dict(inst, expect=inst["expect"] + " ")) is not None


def test_fresh_import_reloads_what_symorbits_imports(monkeypatch):
    monkeypatch.setattr(run, "STARTUP_MODULES", frozenset(sys.modules) - {"heapq"})
    import heapq
    run.fresh_import()
    assert sys.modules["heapq"] is not heapq  # symorbits.groebner imported a new copy


def test_spans_cover_an_instance():
    tracer = Tracer()
    so = run.fresh_import(tracer)
    inst = _cheap_instances()[0]
    tracer.instance = (0, 0)
    root = tracer.begin("instance")
    assert workloads.RUNNERS[inst["kind"]](so, inst) is None
    tracer.end(root)
    metrics = tracer.layer_metrics()
    assert metrics["trace.coverage"] > 0.9
    assert metrics["groebner.buchberger.calls"] == 1
    assert metrics["ideals.graded_member.calls"] == 1
    assert metrics["permutations.group_build.calls"] == 1
    assert metrics["polynomials.parse.calls"] == 2
    assert metrics["groebner.max_coeff_bits"] > 1


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
