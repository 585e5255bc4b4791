"""Command-line front end: parse the arguments, then call one handler.

Every command, and under ``verify`` every verifier, names in ``COMMANDS``
or ``VERIFIERS`` its handler and the arguments, taken from the one table
``ARGUMENTS``, that the handler reads; any other option is a usage error.
Before dispatch ``_resolve_inputs`` starts the deadline and parses every
text input once, so the handlers only compute and print.
The pinned computations behind ``repro`` live in ``scenarios.py``.

Exit codes: 0 verdict-true/success, 1 verdict-false, 2 usage error,
3 resource budget exceeded, 4 internal error or failed certificate.
Ideals are written in the mini-language ``orbit:<group>:<poly>`` with
group one of ``S<N>``, ``C<N>``, ``gens:<cycles>`` and poly either the
text grammar or ``e(n,d)``.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time
from typing import Callable, NamedTuple

from .fields import GF, QQ, Field, binomial
from .genericity import PROPERTIES, sample_genericity
from .groebner import radical_equals_irrelevant, radical_member
from .ideals import OrbitIdeal, orbit_ideal, rank_condition
from .permutations import DEFAULT_GROUP_BOUND, PermGroup
from .polynomials import (
    Polynomial,
    SupportSet,
    elementary_symmetric,
    format_polynomial,
    order_by_name,
    parse_polynomial,
)
from .reports import BudgetExceededError, GenericityReport, VerdictReport
from .scenarios import SCENARIOS
from .verifiers import (
    monomial_free_witness,
    radical_orbit_equality,
    verify_elimination_identity,
    verify_squarefree_orbit,
)


def parse_field(token: str) -> Field:
    """``Q`` or ``F<p>``; the argparse type of ``--field``."""
    if token in ("Q", "QQ"):
        return QQ
    match = re.fullmatch(r"F(\d+)", token)
    try:
        if match:
            return GF(int(match.group(1)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"unknown field {token!r}; use Q or F<p>")


def parse_group(token: str, nvars: int | None, deadline: float | None = None) -> PermGroup:
    """``S<N>``, ``C<N>`` or ``gens:<cycles>``, the generators separated by
    commas outside parentheses (so ``gens:(1,2,3),(1,2)`` also reads);
    ``nvars``, which ``gens:`` needs, must be the group's degree when
    given.  ``deadline`` bounds building a ``gens:`` group."""
    match = re.fullmatch(r"([SC])(\d+)", token)
    if match:
        build = PermGroup.symmetric if match.group(1) == "S" else PermGroup.cyclic
        group = build(int(match.group(2)))
    elif not token.startswith("gens:"):
        raise ValueError(f"unknown group {token!r}; use S<N>, C<N>, or gens:<cycles>")
    elif nvars is None:
        raise ValueError("gens:<cycles> groups need --nvars")
    else:
        cycles = re.split(r",(?![^(]*\))", token[len("gens:"):])
        group = PermGroup.generated(nvars, [c for c in cycles if c.strip()], deadline=deadline)
    if nvars is not None and group.degree != nvars:
        raise ValueError(f"group degree {group.degree} != nvars {nvars}")
    return group


def parse_poly_spec(token: str, nvars: int, field: Field) -> Polynomial:
    """The text grammar or ``e(n,d)``; an ``e(n,d)`` of more than
    ``DEFAULT_GROUP_BOUND`` terms is refused before any is built."""
    match = re.fullmatch(r"e\((\d+),(\d+)\)", token.replace(" ", ""))
    if match:
        n, d = int(match.group(1)), int(match.group(2))
        if n > nvars:
            raise ValueError(f"e({n},{d}) does not fit in {nvars} variables")
        terms = binomial(n, d)
        if terms > DEFAULT_GROUP_BOUND:
            raise ValueError(f"e({n},{d}) has {terms} terms, past the enumeration bound "
                             f"{DEFAULT_GROUP_BOUND}")
        return elementary_symmetric(nvars, range(1, n + 1), d, field)
    return parse_polynomial(token, nvars, field)


def parse_ideal_spec(token: str, nvars: int | None, field: Field,
                     deadline: float | None) -> OrbitIdeal:
    if not token.startswith("orbit:"):
        raise ValueError(f"ideal spec must start with 'orbit:', got {token!r}")
    rest = token[len("orbit:") :]
    prefix = "gens:" if rest.startswith("gens:") else ""
    group_token, colon, poly_text = rest[len(prefix) :].partition(":")
    if not colon:
        raise ValueError("ideal spec needs orbit:<group>:<poly>")
    group = parse_group(prefix + group_token, nvars, deadline)
    seed_poly = parse_poly_spec(poly_text, group.degree, field)
    return orbit_ideal([seed_poly], group, deadline=deadline)


# -- argument types -------------------------------------------------------------


def _seconds(token: str) -> float:
    seconds = float(token)
    # nan compares false with everything, so it would switch every deadline off
    if not seconds > 0:
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {token}")
    return seconds


def _resolve_inputs(args: argparse.Namespace) -> None:
    """Replace the text inputs on ``args`` by their values, once, before
    any handler runs.  Start ``args.deadline`` from ``--timeout``, then
    parse the group and the ideal (both built under that deadline), the order,
    the polynomial and the support; ``--nvars``, the group's degree and
    the ideal's variable count must agree, and ``args.nvars`` becomes
    that count."""
    timeout = getattr(args, "timeout", None)
    args.deadline = None if timeout is None else time.monotonic() + timeout
    nvars = getattr(args, "nvars", None)
    if getattr(args, "group", None) is not None:
        args.group = parse_group(args.group, nvars, args.deadline)
        nvars = args.group.degree
    if getattr(args, "ideal", None) is not None:
        args.ideal = parse_ideal_spec(args.ideal, nvars, args.field, args.deadline)
        nvars = args.ideal.nvars
    if getattr(args, "order", None) is not None:
        args.order = order_by_name(args.order)
    if getattr(args, "poly", None) is not None:
        args.poly = parse_poly_spec(args.poly, nvars, args.field)
    if getattr(args, "support", None) is not None:
        monos = [m for text in args.support.split(",")
                 for m in parse_polynomial(text.strip(), nvars, args.field).terms]
        args.support = SupportSet.of(nvars, monos)
    args.nvars = nvars


# -- handlers: one per command or verifier, reading only the arguments it names --


def _emit(report: VerdictReport | GenericityReport, fmt: str):
    print(report.machine() if fmt == "machine" else report.human())


def _verdict(report: VerdictReport, fmt: str) -> int:
    _emit(report, fmt)
    return 0 if report.verdict else 1


def _orbit(args) -> int:
    for g in orbit_ideal([args.poly], args.group).expanded:
        print(format_polynomial(g, args.order))
    return 0


def _gb(args) -> int:
    gb = args.ideal.groebner_basis(args.order, deadline=args.deadline)
    for i, g in enumerate(gb.basis):
        text = format_polynomial(g, args.order)
        print(f"basis.{i}={text}" if args.format == "machine" else text)
    return 0


def _membership(args, claim: str, verdict: bool) -> int:
    parameters = {"poly": str(args.poly), "group": args.ideal.group.descriptor,
                  "field": str(args.field), "nvars": args.nvars}
    return _verdict(VerdictReport(claim, parameters, verdict), args.format)


def _member(args) -> int:
    gb = args.ideal.groebner_basis(deadline=args.deadline)
    return _membership(args, "ideal-membership", gb.contains(args.poly))


def _radical_member(args) -> int:
    verdict = radical_member(args.poly, list(args.ideal.expanded), deadline=args.deadline)
    return _membership(args, "radical-membership", verdict)


def _eliminate(args) -> int:
    report = verify_elimination_identity(args.n, args.d, args.field, deadline=args.deadline)
    coeffs = report.certificate["coefficients"]
    if args.format == "machine":
        for j, c in enumerate(coeffs):
            print(f"coefficient.{j}={c}")
    else:
        print("coefficients:", ", ".join(coeffs))
    return _verdict(report, args.format)


def _sample_genericity(args) -> int:
    report = sample_genericity(
        args.support, args.group, args.property, trials=args.trials, coeff_box=args.coeff_box,
        seed=args.seed, field=args.field, deadline=args.deadline,
    )
    _emit(report, args.format)
    return 0


def _repro(args) -> int:
    ok, reports = SCENARIOS[args.scenario](args.deadline)
    for report in reports:
        _emit(report, args.format)
        if args.format == "human":
            print()
    print(f"scenario {args.scenario}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _verify_squarefree(args) -> int:
    report = verify_squarefree_orbit(args.poly, args.target_nvars, deadline=args.deadline)
    return _verdict(report, args.format)


def _verify_radical_orbit(args) -> int:
    report = radical_orbit_equality(args.poly, args.group, deadline=args.deadline)
    return _verdict(report, args.format)


def _verify_rank_condition(args) -> int:
    return _verdict(rank_condition(args.poly, args.group, deadline=args.deadline), args.format)


def _verify_irrelevant_radical(args) -> int:
    verdict = radical_equals_irrelevant(list(args.ideal.expanded), deadline=args.deadline)
    parameters = {"group": args.ideal.group.descriptor, "field": str(args.field),
                  "nvars": args.nvars}
    return _verdict(VerdictReport("irrelevant-radical", parameters, verdict), args.format)


def _verify_witness(args) -> int:
    f, group = args.poly, args.group
    witness = monomial_free_witness(f, group, deadline=args.deadline)
    found = witness is not None
    parameters = {"poly": str(f), "group": group.descriptor, "field": str(f.field), "nvars": f.nvars}
    report = VerdictReport(
        "monomial-free-witness", parameters, found,
        certificate={"point": [str(x) for x in witness]} if found else None,
        notes="" if found else "no witness found (not a proof of absence)",
    )
    return _verdict(report, args.format)


# -- argument parsing ----------------------------------------------------------


def _argument(*flags: str, **kwargs) -> tuple[str, tuple[tuple[str, ...], dict]]:
    return flags[0], (flags, kwargs)


# every argument some handler reads, keyed by its first flag (or its name)
ARGUMENTS = dict([
    _argument("poly"),
    _argument("ideal", help="orbit:<group>:<poly>"),
    _argument("scenario", choices=sorted(SCENARIOS)),
    _argument("--field", type=parse_field, default="Q", help="Q or F<p>"),
    _argument("--nvars", "--n", type=int),
    _argument("--order", choices=("lex", "grevlex"), default="grevlex"),
    _argument("--format", choices=("human", "machine"), default="human"),
    _argument("--timeout", type=_seconds, help="wall-clock budget in seconds"),
    _argument("--group"),
    _argument("--poly"),
    _argument("--ideal", help="orbit:<group>:<poly>"),
    _argument("--target-nvars", type=int),
    _argument("--n", type=int, help="number of elementary-symmetric variables"),
    _argument("--d", type=int),
    _argument("--support", help="comma-separated monomials, e.g. 'x1^3,x1*x2*x3'"),
    _argument("--property", choices=PROPERTIES),
    _argument("--seed", type=int, default=2026),
    _argument("--trials", type=int, default=20),
    _argument("--coeff-box", type=int, default=9),
])


class Command(NamedTuple):
    """A handler, its help line, the labels in ARGUMENTS it reads, and the
    options among them that are required."""

    handler: Callable[[argparse.Namespace], int]
    help: str
    arguments: tuple[str, ...]
    required: tuple[str, ...] = ()


COMMANDS = {
    "orbit": Command(_orbit, "expand the orbit of a polynomial",
                     ("poly", "--group", "--field", "--nvars", "--order"), ("--group",)),
    "gb": Command(_gb, "reduced Groebner basis of an orbit ideal",
                  ("ideal", "--field", "--nvars", "--order", "--format", "--timeout")),
    "member": Command(_member, "ideal membership",
                      ("poly", "--ideal", "--field", "--nvars", "--format", "--timeout"),
                      ("--ideal",)),
    "radical-member": Command(
        _radical_member, "radical membership",
        ("poly", "--ideal", "--field", "--nvars", "--format", "--timeout"), ("--ideal",)),
    "eliminate": Command(_eliminate, "elimination coefficients and identity",
                         ("--n", "--d", "--field", "--format", "--timeout"), ("--n", "--d")),
    "sample-genericity": Command(
        _sample_genericity, "randomized genericity sampling",
        ("--support", "--group", "--property", "--field", "--nvars", "--format",
         "--seed", "--trials", "--coeff-box", "--timeout"),
        ("--support", "--group", "--property")),
    "repro": Command(_repro, "re-run a pinned scenario", ("scenario", "--format", "--timeout")),
}

VERIFIERS = {
    "squarefree": Command(
        _verify_squarefree, "the orbit ideal in --target-nvars variables is square-free monomial",
        ("--poly", "--target-nvars", "--field", "--nvars", "--format", "--timeout"),
        ("--poly", "--nvars", "--target-nvars")),
    "radical-orbit": Command(
        _verify_radical_orbit,
        "the radical is the monomial ideal of the orbit's minimal term supports",
        ("--poly", "--group", "--field", "--nvars", "--format", "--timeout"),
        ("--poly", "--group")),
    "rank-condition": Command(
        _verify_rank_condition, "the orbit spans the monomials of its type",
        ("--poly", "--group", "--field", "--nvars", "--format", "--timeout"),
        ("--poly", "--group")),
    "irrelevant-radical": Command(
        _verify_irrelevant_radical, "the radical is (x1, ..., xN)",
        ("--ideal", "--field", "--nvars", "--format", "--timeout"), ("--ideal",)),
    "witness": Command(
        _verify_witness, "search for a point that kills every generator but not every term",
        ("--poly", "--group", "--field", "--nvars", "--format", "--timeout"),
        ("--poly", "--group")),
}


def _add_commands(subparsers, commands: dict[str, Command]):
    for name, command in commands.items():
        parser = subparsers.add_parser(name, help=command.help)
        for label in command.arguments:
            flags, kwargs = ARGUMENTS[label]
            if label in command.required:
                kwargs = {**kwargs, "required": True}
            parser.add_argument(*flags, **kwargs)
        parser.set_defaults(handler=command.handler)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symorbits",
        description="Exact verifiers for ideals generated by permutation orbits of polynomials",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    _add_commands(commands, COMMANDS)
    verify = commands.add_parser(
        "verify", help="run one named verifier; its options follow its name"
    )
    _add_commands(verify.add_subparsers(dest="verifier", required=True), VERIFIERS)
    return parser


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        _resolve_inputs(args)
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a failed re-verification or a fault must not read as "verdict false"
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
