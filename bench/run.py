#!/usr/bin/env python3
"""Benchmark driver for symorbits.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports symorbits unmodified
from ./src, in one process and one thread.  Set-up (import, input generation
from the seed, one warm-up instance outside the timed set) is repeated
SETUP_REPEATS times and reported as a median.  The timed region is a closed
loop with one caller: whole passes over the instance set, each pass starting
from a freshly imported package so that no state carries over, until S
seconds have gone by.  Every instance's answer is checked; a wrong verdict,
a failed certificate, an exception or an exceeded budget counts as failed.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from spans recorded by bench/spans.py, which are also
written to bench/out/.  A readable summary goes to stderr; the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
The driver re-executes itself once with a fixed PYTHONHASHSEED.
"""

from __future__ import annotations

import sys

# the modules a new interpreter starts with; every set-up and every pass drops
# all others, so each pays the whole import that a new process pays
STARTUP_MODULES = frozenset(sys.modules)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODULES = ("fields", "polynomials", "permutations", "linalg", "groebner",
           "ideals", "verifiers", "genericity", "reports", "cli")
SETUP_REPEATS = 5
HASH_SEED = "0"
END_TO_END = {"setup_s": "s", "run_s": "s", "instance_p50_ms": "ms", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(("self_s", "run_s")):
        return "s"
    if name.endswith(("_frac", "coverage")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def fresh_import(tracer=None) -> SimpleNamespace:
    """Import symorbits from ./src as a new process would: drop every module
    loaded since start-up (any earlier symorbits and what it imported) first."""
    for key in [k for k in sys.modules if k not in STARTUP_MODULES
                or k == "symorbits" or k.startswith("symorbits.")]:
        del sys.modules[key]
    so = SimpleNamespace(**{m: importlib.import_module(f"symorbits.{m}") for m in MODULES})
    if not Path(so.fields.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"symorbits was imported from {so.fields.__file__}, not ./src")
    if tracer is not None:
        tracer.install()
    return so


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def percentile_with_tail(samples: list[float], q: int):
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(samples) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(samples, n=100)[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # str hashing decides the layout of every module and class dict; a
        # per-process random layout moved run_s by up to 10 % between runs
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (SRC / "symorbits" / "__init__.py").is_file():
        print(f"error: no symorbits sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import RUNNERS, WORKLOADS, digest, generate, warmup

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    log = lambda *parts: print(*parts, file=sys.stderr, flush=True)  # noqa: E731
    log(f"env: nproc={os.cpu_count()} python={sys.version.split()[0]} git={git_sha()} "
        f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())}")

    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        so = fresh_import()
        instances = generate(args.workload, args.seed)
        for inst in warmup(args.workload):
            RUNNERS[inst["kind"]](so, inst)
        setups.append(time.perf_counter() - start)
    gc.freeze()
    log(f"instances: {len(instances)} digest={digest(instances)} workload={args.workload} "
        f"seed={args.seed}")

    tracer = Tracer() if args.trace else None
    pass_times: list[float] = []
    instance_ms: list[float] = []
    failures: list[str] = []
    deadline = time.perf_counter() + args.seconds
    while not pass_times or time.perf_counter() < deadline:
        so = fresh_import(tracer)
        pass_index = len(pass_times)
        total = 0.0
        for index, inst in enumerate(instances):
            gc.collect()
            if tracer is not None:
                tracer.instance = (pass_index, index)
                root = tracer.begin("instance")
            start = time.perf_counter()
            try:
                reason = RUNNERS[inst["kind"]](so, inst)
            except Exception as exc:  # any crash is a failed instance, not a crashed run
                reason = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end(root)
                tracer.instance = None
            total += elapsed
            instance_ms.append(elapsed * 1000)
            if reason is not None:
                failures.append(f"pass {pass_index} instance {index} ({inst['kind']}): {reason}")
        pass_times.append(total)
    gc.unfreeze()

    # An instance's time is its median over passes, which keeps a stall of the
    # shared machine during part of one pass out of every metric; run_s, the
    # wall time of a typical pass, is their sum.  On repro-cli the unit a user
    # waits for is the whole pinned suite, so its one "instance" is the pass.
    per_instance = [statistics.median(instance_ms[i::len(instances)])
                    for i in range(len(instances))]
    run_s = sum(per_instance) / 1000
    if args.workload == "repro-cli":
        per_instance = [run_s * 1000]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "instance_p50_ms": statistics.median(per_instance),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for name, value in end_to_end.items():
        log(f"{name} = {value:.6g} {END_TO_END[name]}")
    p90 = percentile_with_tail(per_instance, 90)
    log(f"instance_p90_ms = {'n/a (fewer than 10 samples beyond it)' if p90 is None else f'{p90:.6g} ms'}"
        f" over {len(per_instance)} instances")
    log(f"pass_s = {' '.join(f'{t:.3f}' for t in pass_times)} (median {statistics.median(pass_times):.4f})")
    attempted = len(instance_ms)
    log(f"failed_frac = {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    for line in failures[:10]:
        log("failed:", line)

    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    else:
        layers = tracer.layer_metrics()
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.dump()))
        log(f"trace: coverage={layers['trace.coverage']:.4f} spans={len(tracer.spans)} "
            f"written to {spans_file.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
