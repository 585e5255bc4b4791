"""Command-line front end.

Exit codes: 0 verdict-true/success, 1 verdict-false, 2 usage error,
3 resource budget exceeded, 4 internal error or failed certificate.
Ideals are written in the mini-language ``orbit:<group>:<poly>`` with
group one of ``S<N>``, ``C<N>``, ``gens:<cycles>`` and poly either the
text grammar or ``e(n,d)``.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from .fields import GF, QQ, Field, binomial, binomial_alternating_sum
from .genericity import sample_genericity
from .groebner import DEFAULT_MAX_PAIRS, radical_equals_irrelevant, radical_member
from .ideals import OrbitIdeal, graded_member, ideal_equal, orbit_ideal, rank_condition
from .permutations import PermGroup
from .polynomials import (
    GREVLEX,
    LEX,
    SupportSet,
    elementary_symmetric,
    format_polynomial,
    order_by_name,
    parse_polynomial,
)
from .reports import BudgetExceededError, GenericityReport, VerdictReport
from .verifiers import (
    elimination_coefficients,
    monomial_free_witness,
    radical_orbit_equality,
    telescoping_certificate,
    verify_elimination_identity,
    verify_squarefree_orbit,
)


class UsageError(ValueError):
    pass


def parse_field(token: str) -> Field:
    if token in ("Q", "QQ"):
        return QQ
    match = re.fullmatch(r"F(\d+)", token)
    if not match:
        raise UsageError(f"unknown field {token!r}; use Q or F<p>")
    return GF(int(match.group(1)))


def parse_group(token: str, nvars: int | None) -> PermGroup:
    match = re.fullmatch(r"S(\d+)", token)
    if match:
        return PermGroup.symmetric(int(match.group(1)))
    match = re.fullmatch(r"C(\d+)", token)
    if match:
        return PermGroup.cyclic(int(match.group(1)))
    if token.startswith("gens:"):
        if nvars is None:
            raise UsageError("gens:<cycles> groups need --nvars")
        cycles = [c for c in token[5:].split(",") if c.strip()]
        return PermGroup.generated(nvars, cycles)
    raise UsageError(f"unknown group {token!r}; use S<N>, C<N>, or gens:<cycles>")


def parse_poly_spec(token: str, nvars: int, field: Field) -> Polynomial:
    match = re.fullmatch(r"e\((\d+),(\d+)\)", token.replace(" ", ""))
    if match:
        n, d = int(match.group(1)), int(match.group(2))
        if n > nvars:
            raise UsageError(f"e({n},{d}) does not fit in {nvars} variables")
        return elementary_symmetric(nvars, range(1, n + 1), d, field)
    return parse_polynomial(token, nvars, field)


def parse_ideal_spec(token: str, nvars: int | None, field: Field) -> OrbitIdeal:
    if not token.startswith("orbit:"):
        raise UsageError(f"ideal spec must start with 'orbit:', got {token!r}")
    rest = token[len("orbit:") :]
    if rest.startswith("gens:"):
        cycles_and_poly = rest[len("gens:") :]
        if ":" not in cycles_and_poly:
            raise UsageError("ideal spec needs orbit:<group>:<poly>")
        cycles, poly_text = cycles_and_poly.split(":", 1)
        group_token = "gens:" + cycles
    else:
        if ":" not in rest:
            raise UsageError("ideal spec needs orbit:<group>:<poly>")
        group_token, poly_text = rest.split(":", 1)
    group = parse_group(group_token, nvars)
    if nvars is None:
        nvars = group.degree
    if group.degree != nvars:
        raise UsageError(f"group degree {group.degree} != nvars {nvars}")
    seed_poly = parse_poly_spec(poly_text, nvars, field)
    return orbit_ideal([seed_poly], group)


def _emit(report: VerdictReport | GenericityReport, fmt: str):
    print(report.machine() if fmt == "machine" else report.human())


def _verdict_exit(ok: bool) -> int:
    return 0 if ok else 1


# -- scenario registry --------------------------------------------------------

PINNED_LEX_BASIS_E32_S4 = (
    "x1*x2 - x3*x4",
    "x1*x3 - x2*x4",
    "x1*x4 + x2*x4 + x3*x4",
    "x2*x3 + x2*x4 + x3*x4",
    "x2^2*x4",
    "x2*x4^2",
    "x3^2*x4",
    "x3*x4^2",
)


def _scenario_groebner_e32_s4(args) -> tuple[bool, list]:
    ideal = orbit_ideal(
        [elementary_symmetric(4, (1, 2, 3), 2, QQ)], PermGroup.symmetric(4)
    )
    gb = ideal.groebner_basis(LEX, max_pairs=args.budget, deadline=args._deadline)
    expected = {
        parse_polynomial(text, 4, QQ).monic(LEX) for text in PINNED_LEX_BASIS_E32_S4
    }
    got = {g.monic(LEX) for g in gb.basis}
    reports = [
        VerdictReport(
            "groebner-e32-s4",
            {"order": "lex", "field": "QQ", "basis_size": len(gb)},
            got == expected,
            certificate={"basis": [format_polynomial(g, LEX) for g in gb.basis]},
        )
    ]
    return got == expected, reports


def _scenario_f2_e32(args, nvars: int) -> tuple[bool, list]:
    field = GF(2)
    ideal = orbit_ideal(
        [elementary_symmetric(nvars, (1, 2, 3), 2, field)], PermGroup.symmetric(nvars)
    )
    gb = ideal.groebner_basis(GREVLEX, max_pairs=args.budget, deadline=args._deadline)
    x1x2 = parse_polynomial("x1*x2", nvars, field)
    not_member = not gb.contains(x1x2)
    square_member = gb.contains(x1x2 * x1x2)
    checks = {
        "x1x2_not_in_ideal": not_member,
        "x1x2_squared_in_ideal": square_member,
    }
    if nvars == 5:
        radical_ok = radical_orbit_equality(
            elementary_symmetric(nvars, (1, 2, 3), 2, field),
            PermGroup.symmetric(nvars),
            2,
            max_pairs=args.budget,
            deadline=args._deadline,
        ).verdict
        monomial_ideal = orbit_ideal(
            [parse_polynomial("x1*x2", nvars, field)], PermGroup.symmetric(nvars)
        )
        equal = ideal_equal(
            ideal, monomial_ideal, GREVLEX, max_pairs=args.budget, deadline=args._deadline
        ).verdict
        checks["radical_equals_monomial_orbit"] = radical_ok
        checks["ideal_equals_monomial_orbit"] = equal
        ok = not_member and square_member and radical_ok and not equal
    else:
        ok = not_member and square_member
    report = VerdictReport(
        f"f2-e32-n{nvars}", {"field": "GF(2)", "nvars": nvars}, ok, certificate=checks
    )
    return ok, [report]


def _scenario_counterexample(args) -> tuple[bool, list]:
    from .polynomials import Polynomial

    ok = True
    reports = []
    for n in (2, 3, 4):
        group = PermGroup.symmetric(n)
        target = parse_polynomial("x1^2", n, QQ)
        square = tuple([2] + [0] * (n - 1))
        mixed = tuple([1, 1] + [0] * (n - 2))
        for t in (1, 2, -1, 0):
            seed = Polynomial(QQ, n, {square: 1, mixed: t})
            res = graded_member(target, orbit_ideal([seed], group))
            expected = t == 0
            ok = ok and (res.verdict == expected)
            reports.append(
                VerdictReport(
                    "counterexample-x1sq",
                    {"n": n, "t": t},
                    res.verdict == expected,
                    notes=f"x1^2 {'in' if res.verdict else 'not in'} orbit ideal",
                )
            )
    return ok, reports


def _scenario_radical_x1x2x3(args) -> tuple[bool, list]:
    field = QQ
    f = parse_polynomial("x1^2*x2 + x1*x2^2", 3, field)
    ideal = orbit_ideal([f], PermGroup.symmetric(3))
    gens = list(ideal.expanded)
    in_radical = radical_member(
        parse_polynomial("x1*x2*x3", 3, field), gens,
        max_pairs=args.budget, deadline=args._deadline,
    )
    not_in_radical = not radical_member(
        parse_polynomial("x1*x2", 3, field), gens,
        max_pairs=args.budget, deadline=args._deadline,
    )
    witness_point = tuple(field.scalar(v) for v in (1, -1, 0))
    witness_kills = all(g.evaluate(witness_point).is_zero for g in gens)
    ok = in_radical and not_in_radical and witness_kills
    report = VerdictReport(
        "radical-x1x2x3",
        {"field": "QQ", "nvars": 3},
        ok,
        certificate={
            "x1x2x3_in_radical": in_radical,
            "x1x2_not_in_radical": not_in_radical,
            "witness_(1,-1,0)_kills_generators": witness_kills,
        },
    )
    return ok, [report]


def _scenario_inhomogeneous(args) -> tuple[bool, list]:
    reports = []
    f_q = parse_polynomial("x1 + x2 + x1^2 - x2^2", 3, QQ)
    ideal_q = orbit_ideal([f_q], PermGroup.symmetric(3))
    res = graded_member(parse_polynomial("2*x1", 3, QQ), ideal_q)
    ok = res.verdict
    reports.append(res)

    f2 = GF(2)
    f_f2 = parse_polynomial("x1 + x2 + x1^2 - x2^2", 3, f2)
    ideal_f2 = orbit_ideal([f_f2], PermGroup.symmetric(3))
    res2 = graded_member(parse_polynomial("x1", 3, f2), ideal_f2)
    ok = ok and not res2.verdict
    reports.append(
        VerdictReport(
            "inhomogeneous-monomial",
            {"field": "GF(2)"},
            not res2.verdict,
            notes="over GF(2) the combination collapses to zero, so x1 escapes the search",
        )
    )
    return ok, reports


def _scenario_squarefree_c_zero(args) -> tuple[bool, list]:
    f = parse_polynomial("x1*x2 - x2*x3", 3, QQ)
    res = verify_squarefree_orbit(
        f, 5, max_pairs=args.budget, deadline=args._deadline
    )
    ok = res.verdict and res.parameters.get("branch") == "all-ones-witness"
    return ok, [res]


def _scenario_elimination_grid(args) -> tuple[bool, list]:
    ok = True
    reports = []
    for n in range(2, 7):
        for d in range(1, n):
            res = verify_elimination_identity(n, d, QQ)
            ok = ok and res.verdict
            reports.append(res)
    coeffs = elimination_coefficients(3, 2, QQ)
    pinned = [str(c) for c in coeffs] == ["1", "1/2", "1"]
    ok = ok and pinned
    reports.append(
        VerdictReport("elimination-coefficients", {"n": 3, "d": 2}, pinned,
                      certificate={"coefficients": [str(c) for c in coeffs]})
    )
    return ok, reports


def _scenario_telescoping(args) -> tuple[bool, list]:
    cert = telescoping_certificate(3, 2, 5, QQ)
    ideal = orbit_ideal(
        [elementary_symmetric(5, (1, 2, 3), 2, QQ)], PermGroup.symmetric(5)
    )
    gb = ideal.groebner_basis(GREVLEX, max_pairs=args.budget, deadline=args._deadline)
    reduces = gb.contains(cert.final)
    report = VerdictReport(
        "telescoping-n3d2",
        {"n": 3, "d": 2, "nvars": 5},
        reduces,
        certificate={
            "chain": [format_polynomial(p) for p in cert.chain],
            "normal_form_zero": reduces,
        },
        notes="each link re-verified against its factored form at construction",
    )
    return reduces, [report]


def _scenario_lemma_grid(args) -> tuple[bool, list]:
    ok = True
    for n in range(2, 13):
        for d in range(1, n):
            for a in range(0, d + 1):
                value = binomial_alternating_sum(n, d, a)
                expected = binomial(n, d) if a == d else 0
                if value.value != expected:
                    ok = False
    report = VerdictReport(
        "lemma-grid",
        {"max_n": 12},
        ok,
        notes="alternating binomial sum collapses to C(n,d) at a=d and 0 below",
    )
    return ok, [report]


def _scenario_cyclic_hsop(args) -> tuple[bool, list]:
    # cyclic permutations of a general quadric in 4 variables cut out the
    # origin; integer draws miss the bad locus roughly 90% of the time
    from .polynomials import monomials_of_degree

    support = SupportSet.of(4, monomials_of_degree(4, 2))
    trials = args.trials or 10
    report = sample_genericity(
        support,
        PermGroup.cyclic(4),
        "irrelevant_radical",
        trials=trials,
        coeff_box=args.coeff_box,
        seed=args.seed if args.seed is not None else 2026,
        max_pairs=args.budget,
        deadline=args._deadline,
    )
    ok = report.successes >= (7 * trials) // 10
    return ok, [report]


SCENARIOS = {
    "groebner-e32-s4": _scenario_groebner_e32_s4,
    "f2-e32-n5": lambda args: _scenario_f2_e32(args, 5),
    "f2-e32-n6": lambda args: _scenario_f2_e32(args, 6),
    "f2-e32-n7": lambda args: _scenario_f2_e32(args, 7),
    "counterexample-x1sq": _scenario_counterexample,
    "radical-x1x2x3": _scenario_radical_x1x2x3,
    "inhomogeneous-monomial": _scenario_inhomogeneous,
    "squarefree-c-zero": _scenario_squarefree_c_zero,
    "elimination-grid": _scenario_elimination_grid,
    "telescoping-n3d2": _scenario_telescoping,
    "lemma-grid": _scenario_lemma_grid,
    "cyclic-hsop": _scenario_cyclic_hsop,
}


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symorbits",
        description="Exact verifiers for ideals generated by permutation orbits of polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, include_nvars=True):
        p.add_argument("--field", default="Q", help="Q or F<p>")
        if include_nvars:
            p.add_argument("--nvars", "--n", dest="nvars", type=int, default=None)
        p.add_argument("--order", choices=("lex", "grevlex"), default="grevlex")
        p.add_argument("--format", choices=("human", "machine"), default="human")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--coeff-box", type=int, default=9)
        p.add_argument("--budget", type=int, default=DEFAULT_MAX_PAIRS,
                       help="maximum number of S-pairs per basis computation")
        p.add_argument("--timeout", type=float, default=None,
                       help="wall-clock budget in seconds")

    p_orbit = sub.add_parser("orbit", help="expand the orbit of a polynomial")
    common(p_orbit)
    p_orbit.add_argument("--group", required=True)
    p_orbit.add_argument("poly")

    p_gb = sub.add_parser("gb", help="reduced Groebner basis of an orbit ideal")
    common(p_gb)
    p_gb.add_argument("ideal", help="orbit:<group>:<poly>")

    p_member = sub.add_parser("member", help="ideal membership")
    common(p_member)
    p_member.add_argument("poly")
    p_member.add_argument("--ideal", required=True)

    p_rad = sub.add_parser("radical-member", help="radical membership")
    common(p_rad)
    p_rad.add_argument("poly")
    p_rad.add_argument("--ideal", required=True)

    p_elim = sub.add_parser("eliminate", help="elimination coefficients and identity")
    common(p_elim, include_nvars=False)
    p_elim.add_argument("--n", type=int, required=True, dest="elim_n",
                        help="number of elementary-symmetric variables")
    p_elim.add_argument("--d", type=int, required=True)

    p_verify = sub.add_parser("verify", help="run one named verifier")
    common(p_verify)
    p_verify.add_argument("verifier", choices=(
        "squarefree", "radical-orbit", "rank-condition", "irrelevant-radical", "witness"))
    p_verify.add_argument("--poly")
    p_verify.add_argument("--group")
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--target-nvars", type=int, default=None)
    p_verify.add_argument("--ideal")

    p_sample = sub.add_parser("sample-genericity", help="randomized genericity sampling")
    common(p_sample)
    p_sample.add_argument("--support", required=True,
                          help="comma-separated monomials, e.g. 'x1^3,x1*x2*x3'")
    p_sample.add_argument("--group", required=True)
    p_sample.add_argument("--property", required=True,
                          choices=("irrelevant_radical", "monomial_ideal", "radical_orbit"))
    p_sample.add_argument("--k", type=int, default=None)

    p_repro = sub.add_parser("repro", help="re-run a pinned scenario")
    common(p_repro)
    p_repro.add_argument("scenario", choices=sorted(SCENARIOS))

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        field = parse_field(args.field)
        order = order_by_name(args.order)
        if args.command == "repro" and args.timeout is None:
            args.timeout = 60.0
        args._deadline = (
            time.monotonic() + args.timeout if args.timeout is not None else None
        )
        return _dispatch(args, field, order)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a failed re-verification or a fault must not read as "verdict false"
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


def _dispatch(args, field: Field, order) -> int:
    fmt = args.format
    if args.command == "orbit":
        group = parse_group(args.group, args.nvars)
        nvars = args.nvars or group.degree
        f = parse_poly_spec(args.poly, nvars, field)
        ideal = orbit_ideal([f], group)
        for g in ideal.expanded:
            print(format_polynomial(g, order))
        return 0

    if args.command == "gb":
        ideal = parse_ideal_spec(args.ideal, args.nvars, field)
        gb = ideal.groebner_basis(order, max_pairs=args.budget, deadline=args._deadline)
        if fmt == "machine":
            for i, g in enumerate(gb.basis):
                print(f"basis.{i}={format_polynomial(g, order)}")
        else:
            for g in gb.basis:
                print(format_polynomial(g, order))
        return 0

    if args.command in ("member", "radical-member"):
        ideal = parse_ideal_spec(args.ideal, args.nvars, field)
        nvars = ideal.nvars
        f = parse_poly_spec(args.poly, nvars, field)
        if args.command == "member":
            gb = ideal.groebner_basis(order, max_pairs=args.budget, deadline=args._deadline)
            verdict = gb.contains(f)
            claim = "ideal-membership"
        else:
            verdict = radical_member(
                f, list(ideal.expanded), max_pairs=args.budget, deadline=args._deadline
            )
            claim = "radical-membership"
        report = VerdictReport(
            claim,
            {"poly": str(f), "group": ideal.group.descriptor, "field": str(field),
             "nvars": nvars},
            verdict,
        )
        _emit(report, fmt)
        return _verdict_exit(verdict)

    if args.command == "eliminate":
        coeffs = elimination_coefficients(args.elim_n, args.d, field)
        report = verify_elimination_identity(args.elim_n, args.d, field)
        if fmt == "machine":
            for j, c in enumerate(coeffs):
                print(f"coefficient.{j}={c}")
            _emit(report, fmt)
        else:
            print("coefficients:", ", ".join(str(c) for c in coeffs))
            _emit(report, fmt)
        return _verdict_exit(report.verdict)

    if args.command == "verify":
        return _dispatch_verify(args, field, order)

    if args.command == "sample-genericity":
        group = parse_group(args.group, args.nvars)
        nvars = args.nvars or group.degree
        monos = []
        for text in args.support.split(","):
            poly = parse_polynomial(text.strip(), nvars, field)
            monos.extend(poly.terms)
        support = SupportSet.of(nvars, monos)
        report = sample_genericity(
            support,
            group,
            args.property,
            trials=args.trials or 20,
            k=args.k,
            coeff_box=args.coeff_box,
            seed=args.seed if args.seed is not None else 2026,
            max_pairs=args.budget,
            deadline=args._deadline,
        )
        _emit(report, fmt)
        return 0

    if args.command == "repro":
        ok, reports = SCENARIOS[args.scenario](args)
        for report in reports:
            _emit(report, fmt)
            if fmt == "human":
                print()
        print(f"scenario {args.scenario}: {'PASS' if ok else 'FAIL'}")
        return _verdict_exit(ok)

    raise UsageError(f"unknown command {args.command!r}")


def _dispatch_verify(args, field: Field, order) -> int:
    fmt = args.format
    if args.verifier == "squarefree":
        if not args.poly or not args.nvars or not args.target_nvars:
            raise UsageError("squarefree needs --poly, --nvars, and --target-nvars")
        f = parse_polynomial(args.poly, args.nvars, field)
        report = verify_squarefree_orbit(
            f, args.target_nvars, order, max_pairs=args.budget, deadline=args._deadline
        )
    elif args.verifier == "radical-orbit":
        if not args.poly or not args.group:
            raise UsageError("radical-orbit needs --poly and --group")
        group = parse_group(args.group, args.nvars)
        f = parse_poly_spec(args.poly, group.degree, field)
        k = args.k
        if k is None:
            k = min(sum(1 for e in m if e > 0) for m in f.terms)
        report = radical_orbit_equality(
            f, group, k, max_pairs=args.budget, deadline=args._deadline
        )
    elif args.verifier == "rank-condition":
        if not args.poly or not args.group:
            raise UsageError("rank-condition needs --poly and --group")
        group = parse_group(args.group, args.nvars)
        f = parse_poly_spec(args.poly, group.degree, field)
        report = rank_condition(f, group, deadline=args._deadline)
    elif args.verifier == "irrelevant-radical":
        if not args.ideal:
            raise UsageError("irrelevant-radical needs --ideal")
        ideal = parse_ideal_spec(args.ideal, args.nvars, field)
        verdict = radical_equals_irrelevant(
            list(ideal.expanded), max_pairs=args.budget, deadline=args._deadline
        )
        report = VerdictReport(
            "irrelevant-radical",
            {"group": ideal.group.descriptor, "field": str(field), "nvars": ideal.nvars},
            verdict,
        )
    else:  # witness
        if not args.poly or not args.group:
            raise UsageError("witness needs --poly and --group")
        group = parse_group(args.group, args.nvars)
        f = parse_poly_spec(args.poly, group.degree, field)
        witness = monomial_free_witness(f, group)
        report = VerdictReport(
            "monomial-free-witness",
            {"poly": str(f), "group": group.descriptor},
            witness is not None,
            certificate=None if witness is None else {
                "point": [str(x) for x in witness]
            },
            notes="" if witness is not None else "no witness found (not a proof of absence)",
        )
    _emit(report, fmt)
    return _verdict_exit(report.verdict)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
