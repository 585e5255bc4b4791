"""Per-layer spans recorded from outside the program.

`Tracer.install` rebinds public symorbits functions where they are looked
up: the defining module's attribute, every other symorbits module that
imported the same object under any name, and class attributes for methods.
Each wrapper records a span (name, start, end, parent span, instance id) in
memory; `Tracer.layer_metrics` turns the spans of each pass into
``<layer>.<fn>.self_s`` (median over passes) and ``.calls`` (per pass), plus
counts read off results at the same boundaries, off ``Permutation.act``
calls and off the remainders of ``groebner._reduce_terms``; ``trace.run_s``
is computed as the driver computes ``run_s``, so the two differ by the
tracing overhead.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path) of the function it wraps; a suffix
# after '#' lets several functions record under one span name
SPANS = {
    "groebner.buchberger": ("groebner", "buchberger"),
    "groebner.normal_form": ("groebner", "GroebnerBasis.normal_form"),
    "groebner.radical_member": ("groebner", "radical_member"),
    "linalg.in_span": ("linalg", "in_span"),
    "linalg.rank": ("linalg", "rank"),
    "linalg.matrix_build": ("linalg", "ExactMatrix.__init__"),
    "ideals.orbit_ideal": ("ideals", "orbit_ideal"),
    "ideals.graded_piece": ("ideals", "graded_piece"),
    "ideals.graded_member": ("ideals", "graded_member"),
    "ideals.rank_condition": ("ideals", "rank_condition"),
    "permutations.group_build": ("permutations", "PermGroup.symmetric"),
    "permutations.group_build#cyclic": ("permutations", "PermGroup.cyclic"),
    "permutations.group_build#generated": ("permutations", "PermGroup.generated"),
    "permutations.orbit": ("permutations", "orbit"),
    "verifiers.radical_orbit_equality": ("verifiers", "radical_orbit_equality"),
    "genericity.sample": ("genericity", "sample_genericity"),
    "polynomials.parse": ("polynomials", "parse_polynomial"),
    "polynomials.format": ("polynomials", "format_polynomial"),
    "reports.render": ("reports", "VerdictReport.machine"),
    "reports.render#human": ("reports", "VerdictReport.human"),
    "reports.render#genericity": ("reports", "GenericityReport.machine"),
    "reports.render#genericity-human": ("reports", "GenericityReport.human"),
    "cli.run": ("cli", "run"),
}
LAYER_NAMES = sorted({name.split("#")[0] for name in SPANS})
COUNTS = [
    "groebner.basis_elems", "groebner.max_coeff_bits", "linalg.matrix_cells",
    "permutations.group_elements", "permutations.act.calls", "genericity.success_frac",
]
ROOT = "instance"


def _coeff_bits(value) -> int:
    """Bit size of a field element: an int, or a Fraction (of any module copy)."""
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, instance id]
        self.stack: list[int] = []
        self.instance = None
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # pass -> name -> value

    # -- recording ------------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.instance])
        self.stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, value: int = 1, how: str = "add"):
        if self.instance is None:
            return
        bucket = self.counts[self.instance[0]]
        bucket[name] = max(bucket[name], value) if how == "max" else bucket[name] + value

    def _on_result(self, name: str, result, args):
        if name == "groebner.buchberger":
            self.count("groebner.basis_elems", len(result))
        elif name == "linalg.matrix_build":
            self.count("linalg.matrix_cells", args[0].nrows * args[0].ncols)
        elif name.startswith("permutations.group_build"):
            self.count("permutations.group_elements", result.order)
        elif name == "genericity.sample":
            self.count("genericity.successes", result.successes)
            self.count("genericity.trials", result.trials)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer._on_result(name, result, args)
            return result

        return wrapper

    def _observe(self, fn, record):
        """Wrap fn so that record(result) runs after each call; no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            record(result)
            return result

        return wrapper

    def _remainder_bits(self, remainder: dict):
        bits = max((_coeff_bits(c) for c in remainder.values()), default=0)
        self.count("groebner.max_coeff_bits", bits, how="max")

    # -- installation ------------------------------------------------------------------

    def install(self, package: str = "symorbits"):
        """Wrap every listed function in the freshly imported package."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for name, (module_name, path) in SPANS.items():
            module = sys.modules[f"{package}.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(name.split("#")[0], raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(name.split("#")[0], raw))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name.split("#")[0], original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        perm = sys.modules[f"{package}.permutations"].Permutation
        perm.act = self._observe(perm.act, lambda _: self.count("permutations.act.calls"))
        # every remainder of Groebner reduction (S-pairs, interreduction,
        # normal forms), where QQ coefficients grow before a basis is reduced
        groebner = sys.modules[f"{package}.groebner"]
        groebner._reduce_terms = self._observe(groebner._reduce_terms, self._remainder_bits)

    # -- reduction -------------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-pass self time (median over passes) and calls (first pass) per span."""
        self_time = defaultdict(lambda: defaultdict(float))  # pass -> name -> s
        calls = defaultdict(lambda: defaultdict(int))
        root_time = defaultdict(float)
        covered = defaultdict(float)
        per_instance = defaultdict(list)  # instance index -> root duration per pass
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, instance) in enumerate(self.spans):
            duration = end - start
            pass_index = instance[0]
            if name == ROOT:
                root_time[pass_index] += duration
                covered[pass_index] += child_time[index]
                per_instance[instance[1]].append(duration)
                continue
            self_time[pass_index][name] += duration - child_time[index]
            calls[pass_index][name] += 1
        passes = sorted(root_time)
        first = passes[0]
        out: dict[str, float] = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.self_s"] = statistics.median(self_time[p][layer] for p in passes)
            out[f"{layer}.calls"] = calls[first][layer]
        counts = self.counts[first]
        for name in COUNTS:
            if name == "genericity.success_frac":
                trials = counts["genericity.trials"]
                out[name] = counts["genericity.successes"] / trials if trials else 0.0
            else:
                out[name] = counts[name]
        out["trace.coverage"] = min(covered[p] / root_time[p] for p in passes)
        out["trace.run_s"] = sum(statistics.median(d) for d in per_instance.values())
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": parent, "instance": list(inst)}
            for n, s, e, parent, inst in self.spans
        ]
