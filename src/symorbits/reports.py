"""Structured outcomes of verifiers, with human and machine text forms.

The machine form is line-oriented ``key=value`` text with deterministic
key ordering: nested values are flattened with dotted keys and list
entries with numeric suffixes.  Values never contain newlines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any


class CertificateError(AssertionError):
    """A certificate failed its exact re-verification: an internal fault,
    never a verdict."""


class BudgetExceededError(RuntimeError):
    """The wall-clock deadline, or the fixed S-pair guard of a Groebner
    basis computation, ran out before the work finished: a resource limit,
    never a verdict."""


def check_deadline(deadline: float | None) -> None:
    """Raise BudgetExceededError once the absolute ``time.monotonic()``
    instant ``deadline`` has passed; ``None`` means no deadline."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError("wall-clock budget exceeded")


def _flatten(prefix: str, value: Any, out: list[tuple[str, str]]):
    if isinstance(value, dict):
        for k in sorted(value, key=str):
            _flatten(f"{prefix}.{k}", value[k], out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append((prefix, "[]"))
        for i, v in enumerate(value):
            _flatten(f"{prefix}.{i}", v, out)
    elif isinstance(value, bool):
        out.append((prefix, "true" if value else "false"))
    elif value is None:
        out.append((prefix, "none"))
    else:
        out.append((prefix, str(value).replace("\n", " ")))


@dataclass
class VerdictReport:
    """Outcome of one checkable claim.

    Positive membership verdicts always carry a certificate that has been
    re-verified by exact arithmetic before the report is constructed.
    """

    claim_id: str
    parameters: dict[str, Any]
    verdict: bool
    certificate: Any = None
    notes: str = ""

    def machine(self) -> str:
        rows: list[tuple[str, str]] = [("report", "verdict"), ("claim", self.claim_id)]
        _flatten("param", self.parameters, rows)
        rows.append(("verdict", "true" if self.verdict else "false"))
        if self.certificate is None:
            rows.append(("certificate", "none"))
        else:
            _flatten("certificate", self.certificate, rows)
        rows.append(("notes", self.notes.replace("\n", " ")))
        return "\n".join(f"{k}={v}" for k, v in rows)

    def human(self) -> str:
        lines = [f"claim: {self.claim_id}"]
        for k in sorted(self.parameters, key=str):
            lines.append(f"  {k}: {self.parameters[k]}")
        lines.append(f"verdict: {'true' if self.verdict else 'false'}")
        if self.certificate is not None:
            rows: list[tuple[str, str]] = []
            _flatten("certificate", self.certificate, rows)
            lines.extend(f"  {k}: {v}" for k, v in rows)
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)


@dataclass
class GenericityReport:
    """Tally of randomized trials of a verifier over a coefficient box."""

    support: tuple[tuple[int, ...], ...]
    group: str
    property_name: str
    trials: int
    successes: int
    failures: list[tuple[int, ...]] = field(default_factory=list)
    seed: int = 0
    coeff_box: int = 9
    notes: str = ""

    def __post_init__(self):
        if self.successes + len(self.failures) != self.trials:
            raise ValueError("successes + failures must equal trials")

    @property
    def success_rate(self) -> str:
        return f"{self.successes}/{self.trials}"

    def machine(self) -> str:
        rows: list[tuple[str, str]] = [
            ("report", "genericity"),
            ("property", self.property_name),
            ("group", self.group),
            ("support", ";".join(",".join(map(str, m)) for m in self.support)),
            ("trials", str(self.trials)),
            ("successes", str(self.successes)),
            ("seed", str(self.seed)),
            ("coeff_box", str(self.coeff_box)),
        ]
        for i, vec in enumerate(self.failures):
            rows.append((f"failure.{i}", ",".join(map(str, vec))))
        rows.append(("notes", self.notes.replace("\n", " ")))
        return "\n".join(f"{k}={v}" for k, v in rows)

    def human(self) -> str:
        lines = [
            f"genericity sampling: {self.property_name}",
            f"  group: {self.group}",
            f"  support: {self.support}",
            f"  seed: {self.seed}, coefficient box: [-{self.coeff_box}, {self.coeff_box}] \\ {{0}}",
            f"result: {self.successes}/{self.trials} trials succeeded",
        ]
        for vec in self.failures:
            lines.append(f"  failing coefficients: {vec}")
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)
