import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schurbott
from schurbott import cli, soc
from schurbott import rep_ring as rr
from schurbott.bwb import BWBOutcome
from schurbott.cli import MAX_LABEL_D, MAX_POWER_ADDITIONS, MAX_TENSOR_DIM, main
from schurbott.partitions import Weight, parse_weight


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchur:
    def test_tensor_text(self, capsys):
        code, out, _ = run(capsys, "schur", "tensor", "--rank", "3", "2,1,0", "2,0,0")
        assert code == 0
        assert out.strip() == "S(4,1,0) + S(3,2,0) + S(3,1,1) + S(2,2,1)"

    def test_tensor_json(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "schur", "tensor", "--rank", "3", "2,1,0", "2,0,0"
        )
        assert code == 0
        data = json.loads(out)
        assert data["rank"] == 3
        assert {"weight": [4, 1, 0], "coeff": 1} in data["terms"]

    def test_sym_power(self, capsys):
        code, out, _ = run(capsys, "schur", "sym", "--rank", "2", "--power", "2", "2,0")
        assert code == 0 and out.strip() == "S(4,0) + S(2,2)"

    def test_ext_power(self, capsys):
        code, out, _ = run(capsys, "schur", "ext", "--rank", "2", "--power", "3", "2,0")
        assert code == 0 and out.strip() == "S(3,3)"

    def test_dual(self, capsys):
        code, out, _ = run(capsys, "schur", "dual", "--rank", "2", "2,0")
        assert code == 0 and out.strip() == "S(0,-2)"

    def test_row_longer_than_the_recursion_limit(self, capsys):
        code, out, _ = run(capsys, "schur", "ext", "--rank", "2", "--power", "1", "2000,0")
        assert code == 0 and out.strip() == "S(2000,0)"

    def test_full_column_at_the_rank_bound(self, capsys):
        column = ",".join(["1"] * MAX_LABEL_D)
        code, out, _ = run(capsys, "schur", "ext", "--rank", str(MAX_LABEL_D), "--power", "1", column)
        assert code == 0 and out.strip() == f"S({column})"

    def test_nearly_full_column_at_the_rank_bound(self, capsys):
        # 400 monomials: every Gelfand-Tsetlin branch ends in a full column,
        # which is divided out instead of walked row by row
        column = ",".join(["1"] * (MAX_LABEL_D - 1) + ["0"])
        code, out, _ = run(capsys, "schur", "ext", "--rank", str(MAX_LABEL_D), "--power", "1", column)
        assert code == 0 and out.strip() == f"S({column})"

    def test_tensor_of_a_tall_factor_and_a_long_row(self, capsys):
        # conjugated, this is 1 letter in 1202 rows, a recursion past Python's
        # limit; the LR search places 2 letters in 3 rows instead
        code, out, err = run(capsys, "schur", "tensor", "--rank", "3", "1,1,0", "1200,0,0")
        assert code == 0 and err == "" and out.strip() == "S(1201,1,0) + S(1200,1,1)"

    def test_tensor_needs_two_weights_is_usage_error(self, capsys):
        code, _, err = run(capsys, "schur", "tensor", "--rank", "2", "1,0")
        assert code == 2 and "two weights" in err

    @pytest.mark.parametrize(
        "operation, weights",
        [("dual", ["1,0", "2,0"]), ("sym", ["1,0", "2,0"]), ("ext", ["1,0", "2,0", "0,0"]),
         ("tensor", ["1,0", "2,0", "1,1"])],
    )
    def test_extra_weights_are_usage_errors(self, capsys, operation, weights):
        code, out, err = run(capsys, "schur", operation, "--rank", "2", *weights)
        count = "two weights" if operation == "tensor" else "one weight"
        assert code == 2 and out == "" and f"schur {operation} needs exactly {count}" in err

    def test_dim(self, capsys):
        code, out, _ = run(capsys, "schur", "dim", "--rank", "3", "2,1")
        assert code == 0 and "= 8" in out

    def test_dim_prints_one_line_per_input_in_order(self, capsys):
        code, out, _ = run(capsys, "schur", "dim", "--rank", "2", "1,0", "2,1", "1,0")
        assert code == 0
        assert out.splitlines() == ["dim S(1,0) = 2", "dim S(2,1) = 2", "dim S(1,0) = 2"]
        code, out, _ = run(capsys, "--format", "json", "schur", "dim", "--rank", "2", "1,0", "1,0")
        assert code == 0 and json.loads(out) == {"dims": {"(1,0)": 2}}

    def test_weight_longer_than_rank_follows_the_library(self, capsys):
        code, out, _ = run(capsys, "schur", "dual", "--rank", "2", "1,0,0")
        assert code == 0 and out.strip() == "S(0,-1)"
        code, out, _ = run(capsys, "schur", "dim", "--rank", "2", "1,1,1")
        assert code == 0 and out.strip() == "dim S(1,1,1) = 0"
        code, _, err = run(capsys, "schur", "dual", "--rank", "3", "1,-1")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("rank", ["-2", "-1", "0"])
    def test_non_positive_rank_is_usage_error(self, capsys, rank):
        code, out, err = run(capsys, "schur", "dim", "--rank", rank, "1")
        assert code == 2 and out == "" and "error: rank must be positive" in err

    def test_negative_weight_parsing(self, capsys):
        code, out, _ = run(capsys, "schur", "dual", "--rank", "2", "0,-2")
        assert code == 0 and out.strip() == "S(2,0)"

    def test_weight_starting_with_a_minus_is_a_weight_not_an_option(self, capsys):
        code, out, _ = run(capsys, "schur", "dual", "--rank", "2", "-1,-2")
        assert code == 0 and out.strip() == "S(2,1)"
        code, out, _ = run(capsys, "schur", "dim", "--rank", "2", "0,-1", "-1,-2")
        assert code == 0 and out.splitlines() == ["dim S(0,-1) = 2", "dim S(-1,-2) = 2"]
        code, out, _ = run(capsys, "schur", "tensor", "--rank", "1", "-3", "-2")
        assert code == 0 and out.strip() == "S(-5)"

    def test_unknown_option_is_still_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schur", "dim", "--rank", "2", "1,0", "-x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: -x" in capsys.readouterr().err


class TestBwb:
    def test_zero_outcome(self, capsys):
        code, out, _ = run(capsys, "bwb", "--d", "5", "--k", "2", "--q-weight", "1,0")
        assert code == 0
        assert out.strip() == "Zero (repeat at value 3)"

    def test_nonzero_outcome_json(self, capsys):
        code, out, _ = run(
            capsys,
            "--format", "json",
            "bwb", "--d", "2", "--k", "1", "--q-weight", "2", "--k-weight", "0",
        )
        assert code == 0
        data = json.loads(out)
        assert data == {"kind": "nonzero", "degree": 1, "beta": [1, 1], "dim": 1}

    def test_explicit_k_weight(self, capsys):
        code, out, _ = run(
            capsys, "bwb", "--d", "5", "--k", "2", "--k-weight", "1,1,1", "--q-weight", "0,0"
        )
        assert code == 0 and out.strip() == "degree 0: S(1,1,1,0,0) (dim 10)"

    def test_negative_q_weight(self, capsys):
        for argv in (["--q-weight", "-1,-2"], ["--q-weight=-1,-2"]):
            code, out, _ = run(capsys, "bwb", "--d", "5", "--k", "2", *argv)
            assert code == 0 and out.strip() == "degree 0: S(0,0,0,-1,-2) (dim 40)", argv
        code, out, _ = run(capsys, "bwb", "--d", "4", "--k", "2", "--k-weight", "-4,-4", "--q-weight", "0,0")
        assert code == 0 and out.strip() == "degree 4: S(-2,-2,-2,-2) (dim 1)"

    def test_invalid_k_is_usage_error(self, capsys):
        for d, k in (("5", "5"), ("5", "7"), ("0", "1")):  # k = d, k > d, no K-part
            code, _, err = run(capsys, "bwb", "--d", d, "--k", k, "--q-weight", "0,0")
            assert code == 2 and "need 1 <= k <= d-1" in err, (d, k)


class TestWedge:
    def test_wedge3(self, capsys):
        code, out, _ = run(capsys, "wedge", "--q", "3")
        assert code == 0 and "S(3,0)" in out and "rank 4" in out

    def test_middle(self, capsys):
        code, out, _ = run(capsys, "wedge", "--middle")
        assert code == 0 and "rank 15" in out

    def test_default_power_is_one(self, capsys):
        code, out, _ = run(capsys, "wedge")
        assert code == 0 and out.startswith("wedge^1 N' = S(2,-1)")

    @pytest.mark.parametrize("q", ["1", "3"])
    def test_middle_excludes_q(self, capsys, q):
        with pytest.raises(SystemExit) as exc:
            main(["wedge", "--middle", "--q", q])
        assert exc.value.code == 2
        assert "not allowed with argument --middle" in capsys.readouterr().err


class TestChecks:
    def test_exceptional_passes(self, capsys):
        code, out, _ = run(capsys, "check-exc", "--d", "5", "--alpha", "2,1")
        assert code == 0 and "pass" in out

    def test_ff_pass(self, capsys):
        code, out, _ = run(capsys, "check-ff", "--d", "6", "--alpha", "4,3")
        assert code == 0 and "pass" in out

    def test_ff_fail_exit_code_and_trace(self, capsys):
        code, out, _ = run(capsys, "check-ff", "--d", "5", "--alpha", "1,0")
        assert code == 1
        assert "fail" in out
        assert "q=2" in out and "(4,-2)" in out

    def test_ff_fail_json_verdict(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "check-ff", "--d", "5", "--alpha", "1,0"
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"

    def test_so_pass(self, capsys):
        code, out, _ = run(
            capsys, "check-so", "--d", "6", "--alpha", "4,3", "--beta", "3,3"
        )
        assert code == 0 and "pass" in out

    def test_so_bad_order_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "check-so", "--d", "6", "--alpha", "3,3", "--beta", "4,3"
        )
        assert code == 2 and "error:" in err

    def test_label_outside_box_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check-exc", "--d", "5", "--alpha", "4,0")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("d", ["2", "1", "-3"])
    def test_exceptional_below_three_is_usage_error(self, capsys, d):
        code, _, err = run(capsys, "check-exc", "--d", d, "--alpha", "0,0")
        assert code == 2 and "exceptional check requires d >= 3" in err

    REPORTS = [
        (["check-exc", "--d", "5", "--alpha", "2,1"], lambda: soc.check_exceptional((2, 1), 5)),
        (["check-ff", "--d", "5", "--alpha", "1,0"], lambda: soc.check_fully_faithful((1, 0), 5)),
        (["check-ff", "--d", "6", "--alpha", "4,3"], lambda: soc.check_fully_faithful((4, 3), 6)),
        (
            ["check-so", "--d", "6", "--alpha", "4,3", "--beta", "3,3"],
            lambda: soc.check_semiorthogonal((4, 3), (3, 3), 6),
        ),
    ]
    REPORT_IDS = ["exc-pass", "ff-fail", "ff-pass", "so-pass"]

    @pytest.mark.parametrize("argv, compute", REPORTS, ids=REPORT_IDS)
    def test_text_mode_never_builds_the_json_payload(self, capsys, monkeypatch, argv, compute):
        report = compute()
        expected = [f"{report.kind}: {'pass' if report.verdict else 'fail'} (Hom dimension {report.hom_dimension})"]
        expected += [
            f"  q={c.q} summand ({','.join(map(str, c.weight))}): {c.outcome}" for c in report.failures()
        ]

        def refuse(self):
            raise AssertionError("to_json called in text mode")

        monkeypatch.setattr(soc.VerificationReport, "to_json", refuse)
        code, out, _ = run(capsys, *argv)
        assert code == (0 if report.verdict else 1)
        assert out == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("argv, compute", REPORTS, ids=REPORT_IDS)
    def test_json_mode_prints_the_report_payload(self, capsys, argv, compute):
        report = compute()
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code == (0 if report.verdict else 1)
        assert out == json.dumps(report.to_json(), sort_keys=True) + "\n"


class TestEnumerate:
    def test_ff_labels(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--d", "5")
        assert code == 0
        assert "4 labels" in out
        assert out.index("(3,3)") < out.index("(0,0)")

    def test_sos_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "enumerate", "--d", "6", "--sos")
        assert code == 0
        assert json.loads(out)["labels"] == [[4, 4], [4, 3], [3, 3]]


class TestKummer:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "kummer", "--d", "5")
        assert code == 0 and out.strip() == "59049"

    def test_small_d_is_usage_error(self, capsys):
        code, _, err = run(capsys, "kummer", "--d", "4")
        assert code == 2 and "error:" in err


@pytest.fixture
def computed(monkeypatch):
    """Replace each size-guarded computation by a stub that records its call."""
    calls = []
    stubs = [
        (soc, "kummer_count", 0),
        (soc, "enumerate_ff", []),
        (soc, "enumerate_sos", []),
        (rr, "sym_power", rr.RepElement.zero(2)),
        (rr, "ext_power", rr.RepElement.zero(2)),
        (rr, "tensor", rr.RepElement.zero(2)),
        (cli, "bwb_single", BWBOutcome(repeated_value=1)),
        (soc, "check_exceptional", soc.VerificationReport(True, 5, Weight((0, 0)))),
        (soc, "check_fully_faithful", soc.VerificationReport(True, 5, Weight((0, 0)))),
        (soc, "check_semiorthogonal", soc.VerificationReport(True, 5, Weight((0, 0)))),
    ]
    for module, name, value in stubs:
        def stub(*args, name=name, value=value):
            calls.append(name)
            return value
        monkeypatch.setattr(module, name, stub)
    return calls


class TestSizeGuards:
    @pytest.mark.parametrize(
        "command",
        [
            ["kummer"],
            ["enumerate"],
            ["enumerate", "--sos"],
            ["bwb", "--k", "2", "--q-weight", "0,0"],
            ["check-exc", "--alpha", "0,0"],
            ["check-ff", "--alpha", "0,0"],
            ["check-so", "--alpha", "1,1", "--beta", "0,0"],
        ],
    )
    def test_label_d_bound(self, capsys, computed, command):
        code, _, err = run(capsys, *command, "--d", str(MAX_LABEL_D + 1))
        assert code == 2 and f"above {MAX_LABEL_D}" in err and computed == []
        code, _, _ = run(capsys, *command, "--d", str(MAX_LABEL_D))
        assert code == 0 and len(computed) == 1

    @pytest.mark.parametrize(
        "operation, rank, weight, largest",
        [("sym", "2", "1,0", 706), ("ext", "3", "6,0,0", 4), ("sym", "400", "1", 1)],
    )
    def test_power_bound(self, capsys, computed, operation, rank, weight, largest):
        # rank x m x combinations: sym^706 of S(1,0) makes 2 * 706 * 707 additions,
        # ext^4 of S(6,0,0) 3 * 4 * comb(28, 4), sym^1 of S(1) at rank 400 400 * 1 * 400
        code, _, err = run(capsys, "schur", operation, "--rank", rank, "--power", str(largest + 1), weight)
        assert code == 2 and f"over {MAX_POWER_ADDITIONS}" in err and computed == []
        code, _, _ = run(capsys, "schur", operation, "--rank", rank, "--power", str(largest), weight)
        assert code == 0 and computed == [f"{operation}_power"]

    @pytest.mark.parametrize(
        "rank, largest, refused",
        [("2", "49999,0", "50000,0"), ("3", "314,0,0", "315,0,0"), ("4", "64,0,0,0", "65,0,0,0")],
    )
    def test_tensor_bound(self, capsys, computed, rank, largest, refused):
        # the smaller factor's Weyl dimension, in either position: 50000 and
        # 50001 at rank 2, C(316,2) and C(317,2) at rank 3, C(67,3) and C(68,3) at rank 4
        assert rr.weyl_dim(parse_weight(largest)) <= MAX_TENSOR_DIM < rr.weyl_dim(parse_weight(refused))
        wide = ",".join(["100000"] + ["0"] * (int(rank) - 1))
        for pair in ((refused, wide), (wide, refused)):
            code, _, err = run(capsys, "schur", "tensor", "--rank", rank, *pair)
            assert code == 2 and f"over {MAX_TENSOR_DIM}" in err and computed == []
        code, _, _ = run(capsys, "schur", "tensor", "--rank", rank, wide, largest)
        assert code == 0 and computed == ["tensor"]

    @pytest.mark.parametrize(
        "operation, weights",
        [("dim", ["0"]), ("dual", ["0"]), ("sym", ["0"]), ("ext", ["0"]), ("tensor", ["0", "0"])],
    )
    def test_rank_bound(self, capsys, monkeypatch, operation, weights):
        calls = []

        def schur(rank, w):
            calls.append(rank)
            return rr.RepElement.zero(2)

        monkeypatch.setattr(rr.RepElement, "schur", schur)
        code, _, err = run(capsys, "schur", operation, "--rank", str(MAX_LABEL_D + 1), *weights)
        assert code == 2 and f"--rank {MAX_LABEL_D + 1} is above {MAX_LABEL_D}" in err and calls == []
        code, _, _ = run(capsys, "schur", operation, "--rank", str(MAX_LABEL_D), *weights)
        assert code == 0 and calls == [MAX_LABEL_D] * len(weights)

    def test_bounds_are_in_the_help(self, capsys):
        for command in ("schur", "bwb", "check-exc", "check-ff", "check-so", "kummer", "enumerate"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            out = capsys.readouterr().out
            assert f"at most {MAX_LABEL_D}" in out
            if command == "schur":
                assert f"at most {MAX_POWER_ADDITIONS}" in out
                assert f"at most {MAX_TENSOR_DIM}" in out


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        # the package's own source directory first, so no install is needed
        src = str(Path(schurbott.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "schurbott", "--format", "json", "verify-paper", "--d-max", "5"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert [r["verdict"] for r in json.loads(proc.stdout)] == ["pass"] * 10


class TestVerifyPaper:
    def test_all_pass(self, capsys):
        code, out, err = run(capsys, "verify-paper", "--d-max", "5")
        assert code == 0 and err == ""
        lines = [l for l in out.strip().splitlines() if l]
        assert len(lines) == 10
        assert all("PASS" in l for l in lines)

    def test_idempotent(self, capsys):
        _, first, _ = run(capsys, "verify-paper", "--d-max", "5")
        _, second, _ = run(capsys, "verify-paper", "--d-max", "5")
        assert first == second

    def test_capped_checks_are_named(self, capsys):
        code, _, err = run(capsys, "verify-paper", "--d-max", "12")
        assert code == 0
        assert err.splitlines() == [
            "note: fully-faithful checked d <= 9, not 12",
            "note: semi-orthogonality checked d <= 9, not 12",
            "note: exceptional-collection checked d <= 8, not 12",
            "note: cotangent-simplicity checked d <= 8, not 12",
        ]

    def test_empty_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify-paper", "--d-max", "1")
        assert code == 2 and "error:" in err
        assert "PASS" not in out

    def test_miscounted_labels_fail_with_a_report(self, capsys, monkeypatch):
        box = soc.box_partitions
        monkeypatch.setattr(soc, "box_partitions", lambda d: [a for a in box(d) if a != Weight((3, 3))])
        code, out, _ = run(capsys, "verify-paper", "--d-max", "7")
        assert code == 1
        lines = out.strip().splitlines()
        assert len(lines) == 10
        failed = {l.split()[0] for l in lines if "FAIL" in l}
        assert failed == {"counting", "kummer-count"}

    def test_wrong_closed_form_ext_fails_semi_orthogonality(self, capsys, monkeypatch):
        ext = soc.ext_decomposition

        def without_last_summand(a, b):
            terms = ext(a, b).sorted_terms()
            return rr.RepElement(2, dict(terms[:-1] if len(terms) >= 2 else terms))

        monkeypatch.setattr(soc, "ext_decomposition", without_last_summand)
        code, out, _ = run(capsys, "verify-paper", "--d-max", "7")
        assert code == 1
        (line,) = [l for l in out.splitlines() if l.startswith("semi-orthogonality")]
        assert "FAIL" in line and "closed form" in line

    def test_wrong_rank_two_product_fails_against_lr(self, capsys, monkeypatch):
        cg = rr._clebsch_gordan

        def without_last_summand(a, b):
            terms = cg(a, b).sorted_terms()
            return rr.RepElement(2, dict(terms[:-1] if len(terms) >= 2 else terms))

        monkeypatch.setattr(rr, "_clebsch_gordan", without_last_summand)
        code, out, _ = run(capsys, "verify-paper", "--d-max", "7")
        assert code == 1
        (line,) = [l for l in out.splitlines() if l.startswith("semi-orthogonality")]
        assert "FAIL" in line and "closed form" in line

    def test_json_list(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify-paper", "--d-max", "5")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 10
        assert all(r["verdict"] == "pass" for r in data)


def test_malformed_weight_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schur", "dual", "--rank", "2", "2;0"])
    assert exc.value.code == 2
