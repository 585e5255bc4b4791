"""Randomized sampling of genericity statements.

"General coefficients" means membership in a dense open subset of the
coefficient space, which no finite computation certifies; the sampler
draws integer coefficient vectors from a box, runs the corresponding
exact verifier per trial, and reports frequencies.  Reports are
deterministic for a fixed seed and never constitute proofs.
"""

from __future__ import annotations

import random

from .fields import QQ, Field
from .ideals import rank_condition
from .permutations import PermGroup
from .polynomials import Polynomial, SupportSet, analyze_support
from .reports import GenericityReport
from .verifiers import radical_orbit_equality

PROPERTIES = ("irrelevant_radical", "monomial_ideal", "radical_orbit")


def _validate_hypotheses(support: SupportSet, group: PermGroup, property_name: str,
                         deadline: float | None) -> str:
    profile = analyze_support(support)
    if support.nvars != group.degree:
        raise ValueError("support nvars must match group degree")
    notes = []
    if property_name == "irrelevant_radical":
        if not profile.homogeneous:
            raise ValueError("irrelevant_radical requires a homogeneous support set")
        if not any(sum(1 for e in m if e > 0) == 1 for m in support.elements):
            raise ValueError(
                "irrelevant_radical requires the support to contain a power of a variable"
            )
        if not group.transitive_on_variables():
            raise ValueError("irrelevant_radical requires a variable-transitive group")
    elif property_name == "monomial_ideal":
        if len(profile.types) != 1:
            raise ValueError("monomial_ideal requires a single-type support set")
        mono_type = next(iter(profile.types))
        if not group.transitive_on_type(mono_type, deadline=deadline):
            raise ValueError("monomial_ideal requires transitivity on the support type")
    elif property_name == "radical_orbit":
        if not profile.homogeneous:
            raise ValueError("radical_orbit requires a homogeneous support set")
        if not group.is_full_symmetric:
            notes.append("group is not the full symmetric group: outside stated hypotheses")
        if not profile.symmetric:
            notes.append("support set is not symmetric: outside stated hypotheses")
        if support.nvars < 5:
            notes.append("fewer than 5 variables: outside stated hypotheses")
    else:
        raise ValueError(f"unknown property {property_name!r}; choose from {PROPERTIES}")
    return "; ".join(notes)


def sample_genericity(
    support: SupportSet,
    group: PermGroup,
    property_name: str,
    trials: int,
    *,
    coeff_box: int = 9,
    seed: int = 0,
    field: Field = QQ,
    deadline: float | None = None,
) -> GenericityReport:
    """Draw coefficient vectors uniformly from the integers in
    [-coeff_box, coeff_box] that are nonzero in ``field`` (so every trial
    polynomial has the whole support), one per support element, and tally
    how often the property's verifier succeeds: ``radical_orbit_equality``
    for both radical properties, ``rank_condition`` for ``monomial_ideal``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if coeff_box < 1:
        raise ValueError(f"coeff_box must be at least 1, got {coeff_box}")
    notes = _validate_hypotheses(support, group, property_name, deadline)
    elements = support.sorted_elements()
    candidates = [c for c in range(-coeff_box, coeff_box + 1) if field.coerce(c) != field.zero]
    rng = random.Random(seed)
    successes = 0
    failures: list[tuple[int, ...]] = []
    for _ in range(trials):
        vector = tuple(rng.choice(candidates) for _ in elements)
        f = Polynomial(field, support.nvars, dict(zip(elements, vector)))
        if property_name == "monomial_ideal":
            ok = rank_condition(f, group, deadline=deadline).verdict
        else:
            ok = radical_orbit_equality(f, group, deadline=deadline).verdict
        if ok:
            successes += 1
        else:
            failures.append(vector)
    return GenericityReport(
        support=tuple(elements),
        group=group.descriptor,
        property_name=property_name,
        trials=trials,
        successes=successes,
        failures=failures,
        seed=seed,
        coeff_box=coeff_box,
        notes=notes,
    )
