import pytest

from symorbits.cli import run


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

    def test_budget_exceeded_exits_three(self, capsys):
        code, _, err = invoke(
            capsys, "gb", "--n", "5", "--budget", "1", "orbit:S5:e(3,2)",
        )
        assert code == 3 and "budget" in err.lower()

    def test_rank_condition_timeout_exits_three(self, capsys):
        # the elimination checks the deadline once per pivot column
        code, out, err = invoke(
            capsys, "verify", "rank-condition", "--group", "S6",
            "--poly", "x1^3*x2^2*x3 + 2*x2^3*x1^2*x3 - x4^3*x5^2*x6", "--timeout", "0.001",
        )
        assert code == 3 and out == "" and "budget" in err

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

    def test_verify_witness(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "witness", "--group", "S3",
            "--poly", "x1^2*x2 + x1*x2^2",
        )
        assert code == 0 and "certificate.point" in out

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

    def test_sample_genericity_runs(self, capsys):
        code, out, _ = invoke(
            capsys, "sample-genericity", "--nvars", "3", "--group", "S3",
            "--support", "x1^3,x1*x2*x3", "--property", "irrelevant_radical",
            "--trials", "5", "--seed", "7", "--format", "machine",
        )
        assert code == 0
        assert "trials=5" in out and "seed=7" in out


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
