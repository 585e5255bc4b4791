import json
import math
import shlex
import time
from pathlib import Path

import pytest

from symorbits import cli, groebner
from symorbits.cli import run

ROOT = Path(__file__).resolve().parents[1]
REPRO_GOLDEN = ROOT / "bench" / "data" / "repro_golden.json"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_member_true_exits_zero(self, capsys):
        code, out, _ = invoke(
            capsys, "member", "--field", "Q", "--n", "5",
            "x1*x2", "--ideal", "orbit:S5:e(3,2)",
        )
        assert code == 0 and "verdict: true" in out

    def test_member_false_exits_one(self, capsys):
        code, out, _ = invoke(
            capsys, "member", "--field", "F2", "--n", "5",
            "x1*x2", "--ideal", "orbit:S5:e(3,2)",
        )
        assert code == 1 and "verdict: false" in out

    def test_usage_error_exits_two(self, capsys):
        code, _, _ = invoke(capsys, "member", "x1", "--ideal", "orbit:S3:oops(")
        assert code == 2
        code, _, _ = invoke(capsys, "no-such-command")
        assert code == 2
        code, _, _ = invoke(capsys, "member", "--field", "F4", "--n", "3",
                            "x1", "--ideal", "orbit:S3:x1")
        assert code == 2
        for box in ("0", "-2"):  # an empty coefficient range
            code, out, err = invoke(
                capsys, "sample-genericity", "--nvars", "3", "--group", "S3",
                "--support", "x1^3,x1*x2*x3", "--property", "irrelevant_radical",
                "--trials", "2", "--coeff-box", box,
            )
            assert code == 2 and out == "" and "coeff_box" in err

    def test_budget_counts_only_reduced_pairs(self, capsys, monkeypatch):
        # the product criterion skips all three pairs of the squares, so the
        # S-pair budget is never charged: no pair is reduced
        reduced = []
        reduce_terms = groebner._reduce_terms

        def counting(*args, **kwargs):
            if kwargs.get("below") is not None:  # a signature reduction in _groebner
                reduced.append(args)
            return reduce_terms(*args, **kwargs)

        monkeypatch.setattr(groebner, "_reduce_terms", counting)
        code, out, _ = invoke(capsys, "gb", "orbit:S3:x1^2")
        assert code == 0 and sorted(out.split()) == ["x1^2", "x2^2", "x3^2"]
        assert reduced == []
        # while the orbit of the elementary quadric reduces some
        assert invoke(capsys, "gb", "--n", "4", "orbit:S4:e(3,2)")[0] == 0
        assert reduced

    def test_rank_condition_timeout_exits_three(self, capsys):
        # the orbit count checks the deadline per image, the spin per vector
        code, out, err = invoke(
            capsys, "verify", "rank-condition", "--group", "S6",
            "--poly", "x1^3*x2^2*x3 + 2*x2^3*x1^2*x3 - x4^3*x5^2*x6", "--timeout", "0.001",
        )
        assert code == 3 and out == "" and "budget" in err

    def test_symmetric_group_is_built_without_its_order(self, capsys, monkeypatch):
        # S<N> is full symmetric by construction and a type is counted by
        # binomials, so the bound refuses 200,000 variables before any N!
        def no_factorial(n):
            raise AssertionError(f"factorial({n}) computed")

        monkeypatch.setattr(math, "factorial", no_factorial)
        group = cli.parse_group("S200000", None)
        assert group.is_full_symmetric and group.degree == 200000
        code, out, err = invoke(
            capsys, "verify", "squarefree", "--nvars", "2", "--poly", "x1*x2",
            "--target-nvars", "200000", "--timeout", "0.1",
        )
        assert code == 2 and out == "" and "exceed enumeration bound" in err

    def test_cyclic_group_is_built_without_its_order(self, capsys, monkeypatch):
        # a given order is compared with nothing: C<N> computes no N!
        def no_factorial(n):
            raise AssertionError(f"factorial({n}) computed")

        monkeypatch.setattr(math, "factorial", no_factorial)
        group = cli.parse_group("C200000", None)
        assert not group.is_full_symmetric and group.order == 200000
        start = time.monotonic()
        code, out, err = invoke(capsys, "verify", "rank-condition", "--group", "C200000",
                                "--poly", "x1*x2", "--timeout", "0.1")
        assert code == 2 and out == "" and "exceed enumeration bound" in err
        assert time.monotonic() - start < 0.2

    def test_minimal_supports_of_many_subsets_within_budget(self, capsys):
        # C(16, 6) = 8,008 supports in the closure: only f's own two are
        # compared with it, and the all-ones point is the witness
        start = time.monotonic()
        code, out, _ = invoke(
            capsys, "verify", "witness", "--group", "S16",
            "--poly", "x1*x2*x3*x4*x5*x6 - x7*x8*x9*x10*x11*x12", "--timeout", "5",
            "--format", "machine",
        )
        assert code == 0 and all(f"certificate.point.{i}=1\n" in out for i in range(16))
        assert time.monotonic() - start < 1.0

    def test_rank_condition_s8_within_budget(self, capsys):
        # 336 monomials of type (3,2,1) against 20,160 orbit vectors, counted
        # by orbit-stabilizer; the deadline is checked per image walked by
        # the count and per vector spun.  The timeout is given e(7,5) in 12
        # variables, which is counted at once and spun for seconds
        argv = ("verify", "rank-condition", "--group", "S8", "--poly",
                "x1^3*x2^2*x3 + 2*x2^3*x1^2*x3 - x4^3*x5^2*x6", "--format", "machine")
        start = time.monotonic()
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and "verdict=true" in out and "param.rank=336" in out
        assert time.monotonic() - start < 2.0
        start = time.monotonic()
        code, out, err = invoke(capsys, "verify", "rank-condition", "--group", "S12",
                                "--poly", "e(7,5)", "--timeout", "0.01")
        assert code == 3 and out == "" and "budget" in err
        assert time.monotonic() - start < 2.0

    def test_witness_timeout_exits_three(self, capsys):
        # the witness search checks the deadline once per candidate point
        code, out, err = invoke(
            capsys, "verify", "witness", "--group", "S3", "--poly", "x1^2*x2 + x1*x2^2",
            "--timeout", "0.000001",
        )
        assert code == 3 and out == "" and "budget" in err

    def test_orbit_expansion_timeout_exits_three(self, capsys):
        # 665,280 images: the ideal is parsed under the handler's deadline,
        # which the expansion checks once per monomial and per image
        start = time.monotonic()
        code, out, err = invoke(
            capsys, "member", "--n", "12", "x1",
            "--ideal", "orbit:S12:x1^6*x2^5*x3^4*x4^3*x5^2*x6", "--timeout", "0.05",
        )
        assert code == 3 and out == "" and "budget" in err
        assert time.monotonic() - start < 0.5

    def test_group_building_timeout_exits_three(self, capsys):
        # S50 from a transposition and a 50-cycle: its Schreier-Sims chain
        # takes seconds, and it checks the deadline once per sifted
        # Schreier generator, for --group and for the group of an --ideal
        group = "gens:(1 2),(" + " ".join(map(str, range(1, 51))) + ")"
        for argv in (
            ["verify", "rank-condition", "--nvars", "50", "--group", group, "--poly", "x1"],
            ["member", "--n", "50", "x1", "--ideal", f"orbit:{group}:x1"],
        ):
            start = time.monotonic()
            code, out, err = invoke(capsys, *argv, "--timeout", "0.05")
            assert code == 3 and out == "" and "budget" in err
            assert time.monotonic() - start < 0.5

    def test_witness_root_search_timeout_exits_three(self, capsys):
        # over a 61-bit prime field the constant-point root search is
        # exhaustive; it checks the deadline once per candidate t.  The
        # diagonal t^2 - 3 has no root: 3 is a non-residue mod 2^61 - 1
        start = time.monotonic()
        code, out, err = invoke(
            capsys, "verify", "witness", "--group", "S2", "--poly", "x1*x2 - 3",
            "--field", "F2305843009213693951", "--timeout", "0.1",
        )
        assert code == 3 and out == "" and "budget" in err
        assert time.monotonic() - start < 0.5

    def test_witness_divisor_search_timeout_exits_three(self, capsys):
        # the rational-root search trial-divides the constant 10^30 up to
        # 10^15, checking the deadline once per trial
        start = time.monotonic()
        code, out, err = invoke(
            capsys, "verify", "witness", "--group", "S2",
            "--poly", "x1 + x2 - 1000000000000000000000000000000", "--timeout", "0.1",
        )
        assert code == 3 and out == "" and "budget" in err
        assert time.monotonic() - start < 0.5

    @pytest.mark.parametrize("argv, expected", [
        # coefficient sum 0 under S9: the all-ones point, though G.f has
        # 60,480 images
        (("--nvars", "9", "--group", "S9",
          "--poly", "x1*x2*x3 + 2*x1*x4*x5 + 3*x2*x5*x6 - 6*x3*x4*x6"), 0),
        # the sign patterns of S11 are built, not found among 11! permutations
        (("--group", "S11", "--poly", "x1^2*x2 + x1*x2^2"), 0),
        (("--group", "C12", "--poly", "x1^2 + x2^2", "--timeout", "1"), 1),
        # homogeneous: no exhaustive diagonal search over GF(2^61 - 1)
        (("--group", "S3", "--poly", "x1^2 + x2^2 - 3*x1*x2",
          "--field", "F2305843009213693951"), 1),
    ], ids=["s9-zero-sum", "s11-patterns", "c12-none", "gf61-homogeneous"])
    def test_witness_search_walks_candidate_orbits(self, capsys, argv, expected):
        start = time.monotonic()
        code, out, err = invoke(capsys, "verify", "witness", *argv)
        assert code == expected, err
        assert time.monotonic() - start < 1.0

    def test_eliminate_timeout_exits_three(self, capsys):
        # the identity check visits C(18, 9) = 48,620 subsets J in each of
        # its 10 classes, some 0.3 s of work, and checks the deadline once
        # per subset
        start = time.monotonic()
        code, out, err = invoke(capsys, "eliminate", "--n", "18", "--d", "9", "--timeout", "0.1")
        assert code == 3 and out == "" and "budget" in err
        assert time.monotonic() - start < 0.5

    def test_eliminate_past_the_subset_bound_exits_two(self, capsys):
        # C(30, 15), about 1.6e8 subsets per class, is refused before any is visited
        start = time.monotonic()
        code, out, err = invoke(capsys, "eliminate", "--n", "30", "--d", "15")
        assert code == 2 and out == "" and "exceed enumeration bound" in err
        assert time.monotonic() - start < 1.0

    def test_elementary_symmetric_past_the_term_bound_exits_two(self, capsys):
        # e(22,11) has C(22, 11) = 705,432 terms: refused in closed form
        # before any is built, under the bound that rank-condition and
        # eliminate follow
        start = time.monotonic()
        code, out, err = invoke(capsys, "verify", "rank-condition", "--group", "S22",
                                "--poly", "e(22,11)", "--timeout", "0.1")
        assert code == 2 and out == ""
        assert "e(22,11) has 705432 terms, past the enumeration bound 50000" in err
        assert time.monotonic() - start < 0.5

    @pytest.mark.parametrize("argv, expected", [
        (("--property", "radical_orbit", "--timeout", "0.05"), 3),
        (("--property", "monomial_ideal"), 2),
    ], ids=["radical-orbit-timeout", "monomial-ideal-refused"])
    def test_genericity_support_symmetry_is_counted(self, capsys, argv, expected):
        # type (6,5,4,3,2,1) has 665,280 monomials in 12 variables: whether
        # the support holds them all is read from counts, none listed, so
        # the deadline or the enumeration bound is reached at once
        start = time.monotonic()
        code, out, err = invoke(
            capsys, "sample-genericity", "--support", "x1^6*x2^5*x3^4*x4^3*x5^2*x6",
            "--group", "S12", "--nvars", "12", "--trials", "1", *argv,
        )
        assert code == expected and out == "", err
        assert time.monotonic() - start < 0.5

    def test_elimination_grid_timeout_exits_three(self, capsys):
        code, out, err = invoke(capsys, "repro", "elimination-grid", "--timeout", "0.000001")
        assert code == 3 and out == "" and "budget" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "witness", "--poly", "x1*x2"),
        ("verify", "radical-orbit", "--poly", "x1*x2"),
        ("verify", "rank-condition", "--poly", "x1*x2"),
        ("orbit", "x1*x2"),
        ("sample-genericity", "--support", "x1*x2", "--property", "irrelevant_radical"),
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_nvars_must_be_the_group_degree(self, capsys, argv):
        # the three verifiers used to read the polynomial in S3's variables
        # and ignore --nvars
        code, out, err = invoke(capsys, *argv, "--group", "S3", "--nvars", "4")
        assert code == 2 and out == "" and "group degree 3 != nvars 4" in err

    @pytest.mark.parametrize("argv", [
        ("gb", "orbit:S3:x1^2"),
        ("member", "x1", "--ideal", "orbit:S3:x1^2"),
        ("radical-member", "x1", "--ideal", "orbit:S3:x1^2"),
        ("verify", "irrelevant-radical", "--ideal", "orbit:S3:x1^2"),
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_nvars_must_be_the_ideal_group_degree(self, capsys, argv):
        code, out, err = invoke(capsys, *argv, "--nvars", "4")
        assert code == 2 and out == "" and "group degree 3 != nvars 4" in err

    def test_witness_of_zero_polynomial_is_usage_error(self, capsys):
        # every point kills the zero polynomial; it used to exit 0 with verdict true
        code, out, err = invoke(capsys, "verify", "witness", "--group", "S3", "--poly", "0")
        assert code == 2 and out == "" and "zero polynomial" in err

    def test_failed_certificate_exits_four(self, capsys, monkeypatch):
        # a cancellation system that disagrees with the closed form makes
        # the elimination check fail its re-verification
        monkeypatch.setattr(
            "symorbits.verifiers.solve_cancellation_system", lambda n, d: [0] * (d + 1)
        )
        code, out, err = invoke(capsys, "eliminate", "--n", "3", "--d", "2")
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "CertificateError" in err

    def test_exit_code_ignores_format(self, capsys):
        for fmt in ("human", "machine"):
            code, _, _ = invoke(
                capsys, "member", "--field", "F2", "--n", "5", "--format", fmt,
                "x1*x2", "--ideal", "orbit:S5:e(3,2)",
            )
            assert code == 1


class TestCommands:
    def test_gb_prints_basis(self, capsys):
        code, out, _ = invoke(
            capsys, "gb", "--n", "4", "--order", "lex", "orbit:S4:e(3,2)"
        )
        assert code == 0
        assert "x1*x2 - x3*x4" in out

    def test_gb_lex_of_an_inhomogeneous_c4_orbit_within_a_second(self, capsys):
        start = time.monotonic()
        code, out, _ = invoke(capsys, "gb", "--order", "lex", "orbit:C4:-x1^2 - 2*x1*x4 + x4")
        assert code == 0 and time.monotonic() - start < 1
        lines = out.strip().splitlines()
        assert len(lines) == 4 and "x4^16" in out

    def test_orbit_listing(self, capsys):
        code, out, _ = invoke(capsys, "orbit", "--group", "S3", "x1*x2")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 3

    def test_radical_member(self, capsys):
        code, out, _ = invoke(
            capsys, "radical-member", "--n", "3",
            "x1*x2*x3", "--ideal", "orbit:S3:x1^2*x2 + x1*x2^2",
        )
        assert code == 0 and "verdict: true" in out

    def test_eliminate_matches_spec_example(self, capsys):
        code, out, _ = invoke(capsys, "eliminate", "--n", "3", "--d", "2")
        assert code == 0
        assert "1, 1/2, 1" in out
        assert "verdict: true" in out

    def test_eliminate_machine_format(self, capsys):
        code, out, _ = invoke(capsys, "eliminate", "--n", "3", "--d", "2", "--format", "machine")
        assert code == 0
        assert out.splitlines() == [
            "coefficient.0=1",
            "coefficient.1=1/2",
            "coefficient.2=1",
            "report=verdict",
            "claim=elimination-identity",
            "param.d=2",
            "param.field=QQ",
            "param.n=3",
            "param.nvars=5",
            "verdict=true",
            "certificate.coefficients.0=1",
            "certificate.coefficients.1=1/2",
            "certificate.coefficients.2=1",
            "certificate.difference=0",
            "notes=symbolic expansion compared exactly",
        ]

    def test_verify_witness(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "witness", "--group", "S3",
            "--poly", "x1^2*x2 + x1*x2^2",
        )
        assert code == 0 and "certificate.point" in out

    def test_verify_witness_all_ones_at_nine(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "witness", "--nvars", "9", "--group", "S9",
            "--poly", "x1*x2*x3 + 2*x1*x4*x5 + 3*x2*x5*x6 - 6*x3*x4*x6", "--format", "machine",
        )
        points = [line for line in out.splitlines() if line.startswith("certificate.point.")]
        assert code == 0 and "param.field=QQ" in out and "param.nvars=9" in out
        assert points == [f"certificate.point.{i}=1" for i in range(9)]

    def test_verify_witness_rejects_points_that_kill_every_term(self, capsys):
        # (-1, 0, 0, 0, 1) kills every generator only by killing every term
        code, out, _ = invoke(
            capsys, "verify", "witness", "--group", "S5", "--poly", "x1*x2*x3",
            "--format", "machine",
        )
        assert code == 1 and "verdict=false" in out and "certificate=none" in out

    def test_verify_rank_condition(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "rank-condition", "--group", "S3", "--poly", "x1^2*x2"
        )
        assert code == 0

    def test_verify_squarefree(self, capsys):
        # 9 target variables need S9, which is never enumerated
        for target_nvars in ("5", "9"):
            code, out, _ = invoke(
                capsys, "verify", "squarefree", "--nvars", "3",
                "--poly", "x1*x2 - x2*x3", "--target-nvars", target_nvars,
            )
            assert code == 0 and "all-ones-witness" in out

    def test_verify_squarefree_at_n_plus_d(self, capsys):
        # e(6,3) has C(9,6) = 84 images in 9 variables, one per monomial
        code, out, _ = invoke(
            capsys, "verify", "squarefree", "--nvars", "6", "--poly", "e(6,3)",
            "--target-nvars", "9", "--format", "machine",
        )
        assert code == 0 and "certificate.rank=84" in out.splitlines()

    def test_verify_squarefree_generic_cubic_at_nine(self, capsys):
        # 60,480 images in 9 variables, counted as 9! / 3! since colour
        # refinement leaves only x7, x8, x9 in one cell; walking them was
        # refused by the 50,000 image bound
        cubic = "x1*x2*x3 + 2*x1*x4*x5 + 3*x2*x5*x6 {}*x3*x4*x6"
        argv = ("verify", "squarefree", "--nvars", "6", "--target-nvars", "9",
                "--format", "machine", "--poly")
        code, out, _ = invoke(capsys, *argv, cubic.format("+ 5"))
        lines = out.splitlines()
        assert code == 0 and "verdict=true" in lines and "certificate.rank=84" in lines
        start = time.monotonic()
        code, out, _ = invoke(capsys, *argv, cubic.format("- 6"))
        assert time.monotonic() - start < 0.1
        lines = out.splitlines()
        assert code == 0 and "param.branch=all-ones-witness" in lines
        assert "certificate.generators_checked=60480" in lines

    def test_verify_radical_orbit(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "radical-orbit", "--group", "S5",
            "--poly", "e(3,2)", "--field", "F3",
        )
        assert code == 1 and "verdict: false" in out

    def test_verify_irrelevant_radical(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "irrelevant-radical", "--n", "3",
            "--ideal", "orbit:S3:x1^3",
        )
        assert code == 0 and "verdict: true" in out

    def test_gb_machine_format(self, capsys):
        code, out, _ = invoke(
            capsys, "gb", "--n", "4", "--order", "lex", "--format", "machine",
            "orbit:S4:e(3,2)",
        )
        assert code == 0
        assert out.startswith("basis.0=")
        assert len(out.strip().splitlines()) == 8

    def test_generated_group_spec(self, capsys):
        code, out, _ = invoke(
            capsys, "orbit", "--nvars", "3", "--group", "gens:(1 2)", "x1"
        )
        assert code == 0
        assert len([l for l in out.splitlines() if l.strip()]) == 2

    def test_generated_group_past_enumeration(self, capsys):
        # A9 has order 181,440, read off a Schreier-Sims chain; the orbit
        # of the cubic has 1,680 images spanning the 84 monomials
        code, out, _ = invoke(
            capsys, "verify", "rank-condition", "--nvars", "9",
            "--group", "gens:(1 2 3),(1 2 3 4 5 6 7 8 9)",
            "--poly", "x1*x2*x3 + 2*x4*x5*x6", "--format", "machine",
        )
        assert code == 0 and "verdict=true" in out and "param.rank=84" in out
        assert "param.distinct_orbit_vectors=1680" in out

    def test_group_descriptor_reads_back(self, capsys):
        # the printed descriptor, and GAP-style commas inside the cycles
        for group in ("gens:(1 2 3 4),(1 4)(2 3)", "gens:(1,2,3,4),(1,4)(2,3)"):
            code, out, _ = invoke(capsys, "verify", "rank-condition", "--nvars", "4",
                                  "--group", group, "--poly", "x1", "--format", "machine")
            assert code == 0 and "param.group=gens:(1 2 3 4),(1 4)(2 3)\n" in out

    def test_sample_genericity_runs(self, capsys):
        code, out, _ = invoke(
            capsys, "sample-genericity", "--nvars", "3", "--group", "S3",
            "--support", "x1^3,x1*x2*x3", "--property", "irrelevant_radical",
            "--trials", "5", "--seed", "7", "--format", "machine",
        )
        assert code == 0
        assert "trials=5" in out and "seed=7" in out


def readme_commands() -> list[list[str]]:
    """The commands of the first code block of README's CLI section."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.strip()]


def test_readme_cli_block_runs():
    commands = readme_commands()
    assert len(commands) == 7
    for argv in commands:
        assert run(argv) in (0, 1), argv


class TestRadicalOrbit:
    @pytest.mark.parametrize("argv, code", [
        (("--group", "C4", "--poly", "x1*x3"), 0),
        (("--group", "S3", "--poly", "x1^2"), 0),
        (("--group", "S3", "--poly", "x1^2*x2 + x1*x2^2"), 1),
        (("--group", "S5", "--poly", "e(3,2)", "--field", "F3"), 1),
    ])
    def test_verdicts(self, capsys, argv, code):
        exit_code, out, _ = invoke(capsys, "verify", "radical-orbit", *argv)
        assert exit_code == code
        if code:
            assert "witness point" in out

    def test_zero_polynomial_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "verify", "radical-orbit", "--group", "S3", "--poly", "0")
        assert code == 2 and out == "" and "nonzero" in err


class TestMachineFormatStability:
    def test_repeated_runs_identical(self, capsys):
        argv = (
            "sample-genericity", "--nvars", "3", "--group", "S3",
            "--support", "x1^3,x1*x2*x3", "--property", "irrelevant_radical",
            "--trials", "4", "--seed", "11", "--format", "machine",
        )
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second

    def test_machine_format_is_key_value(self, capsys):
        _, out, _ = invoke(
            capsys, "member", "--field", "F2", "--n", "5", "--format", "machine",
            "x1*x2", "--ideal", "orbit:S5:e(3,2)",
        )
        for line in out.strip().splitlines():
            assert "=" in line


class TestScenarios:
    @pytest.mark.parametrize(
        "name",
        [
            "groebner-e32-s4",
            "counterexample-x1sq",
            "radical-x1x2x3",
            "inhomogeneous-monomial",
            "squarefree-c-zero",
            "telescoping-n3d2",
            "lemma-grid",
            "f2-e32-n5",
        ],
    )
    def test_fast_scenarios_pass(self, capsys, name):
        code, out, _ = invoke(capsys, "repro", name)
        assert code == 0, out
        assert f"scenario {name}: PASS" in out

    def test_elimination_grid_scenario(self, capsys):
        code, out, _ = invoke(capsys, "repro", "elimination-grid")
        assert code == 0

    def test_cyclic_hsop_scenario(self, capsys):
        code, out, _ = invoke(capsys, "repro", "cyclic-hsop")
        assert code == 0

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["f2-e32-n6", "f2-e32-n7"])
    def test_slow_scenarios_pass(self, capsys, name):
        code, out, _ = invoke(capsys, "repro", name)
        assert code == 0
        assert f"scenario {name}: PASS" in out

    def test_unknown_scenario_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "repro", "no-such-scenario")
        assert code == 2

    def test_deadline_is_timeout_or_none(self, capsys, monkeypatch):
        # repro keeps no budget of its own: --timeout, or no deadline at all
        deadlines = []

        def scenario(deadline):
            deadlines.append(deadline)
            return True, []

        monkeypatch.setitem(cli.SCENARIOS, "lemma-grid", scenario)
        assert invoke(capsys, "repro", "lemma-grid")[0] == 0
        start = time.monotonic()
        assert invoke(capsys, "repro", "lemma-grid", "--timeout", "5")[0] == 0
        assert deadlines[0] is None
        assert isinstance(deadlines[1], float) and start < deadlines[1] <= time.monotonic() + 5


# Every command with arguments it accepts; each exits 0 or 1 as written.
COMMAND_ARGV = {
    "orbit": ("orbit", "--group", "S3", "x1*x2"),
    "gb": ("gb", "--n", "3", "orbit:S3:x1^2"),
    "member": ("member", "x1^2", "--ideal", "orbit:S3:x1^2"),
    "radical-member": ("radical-member", "x1", "--ideal", "orbit:S3:x1^2"),
    "eliminate": ("eliminate", "--n", "3", "--d", "2"),
    "sample-genericity": (
        "sample-genericity", "--group", "S3", "--support", "x1^3,x1*x2*x3",
        "--property", "irrelevant_radical", "--trials", "2",
    ),
    "repro": ("repro", "lemma-grid"),
    "verify squarefree": (
        "verify", "squarefree", "--nvars", "3", "--poly", "x1*x2 - x2*x3",
        "--target-nvars", "5",
    ),
    "verify radical-orbit": ("verify", "radical-orbit", "--group", "S3", "--poly", "x1*x2"),
    "verify rank-condition": ("verify", "rank-condition", "--group", "S3", "--poly", "x1^2*x2"),
    "verify irrelevant-radical": ("verify", "irrelevant-radical", "--ideal", "orbit:S3:x1^3"),
    "verify witness": ("verify", "witness", "--group", "S3", "--poly", "x1^2*x2 + x1*x2^2"),
}

# The options each command does not read, with a value that is valid elsewhere.
UNREAD = {
    "orbit": "--format --seed --trials --coeff-box --budget --timeout",
    "gb": "--seed --trials --coeff-box",
    "member": "--order --seed --trials --coeff-box",
    "radical-member": "--order --seed --trials --coeff-box",
    "eliminate": "--order --seed --trials --coeff-box --budget",
    "sample-genericity": "--order --k",
    "repro": "--field --nvars --order --seed --trials --coeff-box",
    "verify squarefree": "--group --k --ideal --seed --trials --coeff-box --order --budget",
    "verify radical-orbit": "--k --order --target-nvars --ideal --seed --trials --coeff-box",
    "verify rank-condition": "--budget --k --order --target-nvars --ideal --seed",
    "verify irrelevant-radical": "--poly --group --order --k --target-nvars --trials",
    "verify witness": "--budget --k --order --target-nvars --ideal --coeff-box",
}
OPTION_VALUE = {
    "--format": "machine", "--seed": "1", "--trials": "5", "--coeff-box": "3",
    "--budget": "10", "--timeout": "5", "--order": "lex", "--field": "F7", "--nvars": "3",
    "--k": "2", "--group": "S3", "--poly": "x1", "--target-nvars": "5",
    "--ideal": "orbit:S3:x1",
}


class TestOptionsPerCommand:
    @pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
    def test_argv_is_valid(self, capsys, command):
        code, _, _ = invoke(capsys, *COMMAND_ARGV[command])
        assert code in (0, 1)

    @pytest.mark.parametrize(
        "command, option",
        [(command, option) for command, options in UNREAD.items() for option in options.split()],
    )
    def test_unread_option_is_usage_error(self, capsys, command, option):
        code, out, err = invoke(capsys, *COMMAND_ARGV[command], option, OPTION_VALUE[option])
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {option}" in err

    def test_verify_options_follow_the_verifier_name(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--group", "S3", "witness", "--poly", "x1^2*x2 + x1*x2^2"
        )
        assert code == 2 and out == ""

    @pytest.mark.parametrize("command", sorted(c for c in COMMAND_ARGV if c.startswith("verify")))
    def test_missing_verifier_input_is_argparse_error(self, capsys, command):
        argv = COMMAND_ARGV[command]
        # drop each option that has a value (all of a verifier's inputs are required)
        for i in range(2, len(argv), 2):
            code, out, err = invoke(capsys, *argv[:i], *argv[i + 2:])
            assert code == 2 and out == ""
            assert f"the following arguments are required: {argv[i]}" in err

    def test_sample_genericity_trials_zero(self, capsys):
        argv = COMMAND_ARGV["sample-genericity"][:-1]
        code, out, err = invoke(capsys, *argv, "0")
        assert code == 2 and out == "" and "at least one trial" in err

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "abc"])
    def test_timeout_must_be_positive(self, capsys, value):
        # nan used to switch every deadline off
        code, out, err = invoke(
            capsys, "verify", "rank-condition", "--group", "S6",
            "--poly", "x1^3*x2^2*x3 + 2*x2^3*x1^2*x3 - x4^3*x5^2*x6", "--timeout", value,
        )
        assert code == 2 and out == "" and "--timeout" in err

    @pytest.mark.parametrize("argv", [("gb", "orbit:S3:x1^2"), ("repro", "lemma-grid")],
                             ids=["gb", "repro"])
    def test_budget_is_not_an_option(self, capsys, argv):
        # --timeout is the one budget; the S-pair cap is a fixed guard
        code, out, err = invoke(capsys, *argv, "--budget", "1")
        assert code == 2 and out == "" and "unrecognized arguments: --budget" in err

    def test_infinite_timeout_is_no_deadline(self, capsys):
        code, out, _ = invoke(capsys, *COMMAND_ARGV["verify witness"], "--timeout", "inf")
        assert code == 0 and "certificate.point" in out

    def test_sample_genericity_honours_field(self, capsys):
        argv = (
            "sample-genericity", "--support", "x1^2,x1*x2", "--group", "S3",
            "--property", "irrelevant_radical", "--trials", "12", "--seed", "5",
            "--format", "machine",
        )
        outputs = {}
        for field in ("Q", "F2", "F3"):
            code, outputs[field], _ = invoke(capsys, *argv, "--field", field)
            assert code == 0
        assert "successes=11\n" in outputs["Q"] and "failure.0=-4,4\n" in outputs["Q"]
        # x1^2 + x1*x2 has coefficient sum 0 in GF(2), so every trial fails
        assert "successes=0\n" in outputs["F2"]
        assert len(set(outputs.values())) == 3


class TestReproGoldens:
    def test_machine_output_matches_goldens(self, capsys):
        golden = json.loads(REPRO_GOLDEN.read_text())
        assert sorted(cli.SCENARIOS) == sorted(golden)
        for name in sorted(golden):
            code, out, _ = invoke(capsys, "repro", name, "--format", "machine")
            assert code == 0, name
            assert out == golden[name], name
