"""Command-line interface: payloads, renderers, exit codes, flag placement."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest

import lieconf
from lieconf import embed
from lieconf.cli import main
from lieconf.liealg import build_algebra
from lieconf.reps import casimir, dynkin_index, height_form, weyl_dim
from test_embed import (
    BAD_CATALOG_DOCUMENT_IDS,
    BAD_CATALOG_DOCUMENTS,
    BAD_CATALOG_FIELDS,
    BAD_CATALOG_IDS,
    toy_entry,
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _env():
    """The environment for a fresh interpreter that imports this lieconf."""
    return dict(os.environ, PYTHONPATH=str(Path(lieconf.__file__).resolve().parents[1]))


def run_json(argv):
    code, out, err = run(["--format", "json"] + argv)
    assert err == ""
    return code, json.loads(out)


class TestAlgebraInfo:
    def test_table_output(self):
        code, out, err = run(["algebra", "info", "G2"])
        assert code == 0 and err == ""
        assert "G2" in out and "dimension" in out and "14" in out

    def test_json_payload(self):
        code, doc = run_json(["algebra", "info", "G2"])
        assert code == 0
        assert doc["type"] == "G2"
        assert doc["rank"] == 2
        assert doc["dimension"] == 14
        assert doc["dual_coxeter"] == 4
        assert doc["positive_roots"] == 6

    def test_unknown_type_is_a_usage_error(self):
        code, out, err = run(["algebra", "info", "Z9"])
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_large_ambient_below_the_rank_cap(self):
        code, doc = run_json(["algebra", "info", "D72"])
        assert code == 0
        assert doc["dimension"] == 10296
        assert doc["dual_coxeter"] == 142
        assert doc["positive_roots"] == 72 * 71


class TestRep:
    def test_dim_matches_library(self):
        alg = build_algebra("F4")
        code, doc = run_json(["rep", "dim", "F4", "0,0,0,1"])
        assert code == 0
        assert doc["dim"] == weyl_dim(alg, (0, 0, 0, 1)) == 26

    def test_casimir_and_index_conventions(self):
        alg = build_algebra("A2")
        code, doc = run_json(["rep", "casimir", "A2", "1,1"])
        assert code == 0 and doc["casimir"] == str(casimir(alg, (1, 1)))
        code, doc = run_json(["rep", "index", "A2", "1,1"])
        assert code == 0 and doc["index"] == str(dynkin_index(alg, (1, 1)))
        code, doc = run_json(
            ["rep", "index", "A2", "1,1", "--convention", "killing"]
        )
        assert code == 0
        assert doc["index"] == str(dynkin_index(alg, (1, 1), convention="killing"))

    def test_weights_account_for_the_dimension(self):
        code, doc = run_json(["rep", "weights", "B2", "1,0"])
        assert code == 0
        assert sum(row["mult"] for row in doc["rows"]) == doc["dim"] == 5

    @pytest.mark.parametrize("typ, weight", [
        ("E7", "0,0,1,0,0,0,0"),
        ("B4", "0,1,1,0"),
        ("A3", "1,2,4"),
        ("F4", "0,1,0,0"),
        ("E8", "0,0,0,0,0,0,0,1"),
    ])
    def test_weight_rows_descend_by_height_then_coordinates(self, typ, weight):
        code, doc = run_json(["rep", "weights", typ, weight])
        assert code == 0
        form = height_form((build_algebra(typ),))
        weights = [tuple(int(c) for c in row["weight"][1:-1].split(",")) for row in doc["rows"]]
        assert len(set(weights)) == len(weights)
        assert weights == sorted(
            weights, key=lambda w: (-sum(c * t for c, t in zip(w, form)), [-c for c in w]))

    def test_tensor_preserves_dimension(self):
        code, doc = run_json(["rep", "tensor", "A1", "2", "3"])
        assert code == 0
        assert doc["total_dim"] == 3 * 4
        mults = {row["weight"]: row["mult"] for row in doc["rows"]}
        assert mults == {"[1]": 1, "[3]": 1, "[5]": 1}

    def test_wrong_coordinate_count_is_a_usage_error(self):
        code, _out, err = run(["rep", "dim", "A2", "1,0,0"])
        assert code == 2 and "coordinates" in err


class TestBranch:
    def test_tensor_pair_payload(self):
        code, doc = run_json(["branch", "dual-pair", "slsl", "2", "3"])
        assert code == 0
        assert doc["ambient"] == "A5"
        assert [f["type"] for f in doc["factors"]] == ["A1", "A2"]
        assert [f["index"] for f in doc["factors"]] == ["3", "2"]
        assert doc["p_dim"] == 24

    def test_bad_parameters_are_usage_errors(self):
        assert run(["branch", "dual-pair", "slsl", "1", "1"])[0] == 2
        assert run(["branch", "dual-pair", "xyxy", "2", "3"])[0] == 2


class TestConformalSolve:
    def test_catalog_case(self):
        code, doc = run_json(["conformal", "solve", "--case", "G2-in-B3"])
        assert code == 0
        assert doc["ambient"] == "B3"
        assert [row["level"] for row in doc["rows"]] == ["-2"]

    def test_explicit_ambient_and_factors(self):
        code, doc = run_json(
            ["conformal", "solve", "--ambient", "B3", "--factors", "G2^1"]
        )
        assert code == 0
        assert [row["level"] for row in doc["rows"]] == ["-2"]

    def test_dual_pair_criticality_flags(self):
        code, doc = run_json(["conformal", "solve", "--case", "slsl:3,3"])
        assert code == 0
        flagged = {row["level"]: row["critical_factors"] for row in doc["rows"]}
        assert flagged["-1"] != []
        assert flagged["1"] == []

    def test_bad_factor_spec_is_a_usage_error(self):
        code, _out, err = run(
            ["conformal", "solve", "--ambient", "B3", "--factors", "G2^^2"]
        )
        assert code == 2 and err.startswith("error:")

    def test_unknown_case_label_is_a_usage_error(self):
        assert run(["conformal", "solve", "--case", "nonesuch"])[0] == 2

    @pytest.mark.parametrize(
        "ambient, factors, levels",
        [
            ("E6", "A2,A2,A2", ["-3", "1"]),
            ("D4", "A1,A1,A1,A1", ["-2", "1"]),
        ],
    )
    def test_rational_roots_deflate_a_cubic(self, ambient, factors, levels):
        code, doc = run_json(["conformal", "solve", "--ambient", ambient, "--factors", factors])
        assert code == 0
        assert [row["level"] for row in doc["rows"]] == levels

    def test_cubic_without_a_rational_root_is_a_usage_error(self):
        code, out, err = run(
            ["conformal", "solve", "--ambient", "C4", "--factors", "A1^2,A1^3,A1"]
        )
        assert code == 2 and out == ""
        assert "keeps degree 3" in err

    @pytest.mark.parametrize(
        "label, levels",
        # so(625) and sl(3600): adjoints of 195000 and 12959999, above MAX_MODULE_DIM
        [("soso:25,25", ["-23/25", "1"]), ("slsl:60,60", ["-1", "1"])],
    )
    def test_levels_need_no_module_of_the_case(self, label, levels):
        code, doc = run_json(["conformal", "solve", "--case", label])
        assert code == 0
        assert [row["level"] for row in doc["rows"]] == levels

    def test_spsp_40_40_solves_without_trial_division(self):
        # a quadratic with 25-bit coefficients and a square discriminant
        code, doc = run_json(["conformal", "solve", "--case", "spsp:40,40"])
        assert code == 0
        rows = [(row["level"], row["critical_factors"]) for row in doc["rows"]]
        assert rows == [("-41/40", [0, 1]), ("1", [])]

    @pytest.mark.parametrize(
        "ambient, factors, level",
        [
            ("A100000000", "A1", "-200000003/100000003"),
            ("A1", "A10000000", "-20000003/10000003"),
            ("E8", "A1^10000000000000", "56249999999969/153125000000000"),
        ],
    )
    def test_linear_equation_with_huge_coefficients_solves_at_once(self, ambient, factors, level):
        start = time.perf_counter()
        code, doc = run_json(["conformal", "solve", "--ambient", ambient, "--factors", factors])
        assert code == 0 and [row["level"] for row in doc["rows"]] == [level]
        assert time.perf_counter() - start < 1.0


class TestConformalCheck:
    def test_balanced_level_exits_zero(self):
        code, doc = run_json(
            ["conformal", "check", "--case", "G2-in-B3", "--level", "-2"]
        )
        assert code == 0
        assert doc["all_balanced"] is True
        assert all(row["balanced"] for row in doc["rows"])

    def test_unbalanced_level_exits_one(self):
        code, doc = run_json(
            ["conformal", "check", "--case", "G2-in-B3", "--level", "1"]
        )
        assert code == 1
        assert doc["all_balanced"] is False

    def test_negative_fractional_level_is_accepted(self):
        code, doc = run_json(
            ["conformal", "check", "--case", "G2xA1-in-F4", "--level", "-5/2"]
        )
        assert code == 0 and doc["all_balanced"] is True
        code, doc = run_json(
            ["conformal", "check", "--case", "G2xA1-in-F4", "--level=-5/2"]
        )
        assert code == 0 and doc["all_balanced"] is True

    def test_negative_fractional_level_from_the_shell(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "lieconf.cli",
                "conformal",
                "check",
                "--case",
                "A2-in-G2",
                "--level",
                "-5/3",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "yes" in proc.stdout

    def test_unparseable_level_is_a_usage_error(self):
        code, _out, err = run(
            ["conformal", "check", "--case", "G2-in-B3", "--level", "x"]
        )
        assert code == 2 and err.startswith("error:")

    def test_missing_level_value_is_a_usage_error(self):
        assert run(["conformal", "check", "--case", "G2-in-B3", "--level"])[0] == 2


class TestClassify:
    def test_orthogonal_survivors(self):
        code, doc = run_json(["classify", "so-irreducible"])
        assert code == 0
        rows = [(r["algebra"], r["weight"], r["dim_V"]) for r in doc["rows"]]
        assert rows == [("B3", "[0,0,1]", 8), ("G2", "[1,0]", 7)]

    def test_linear_survivors_up_to_rank_four(self):
        code, doc = run_json(["classify", "sl-irreducible", "--max-rank", "4"])
        assert code == 0
        assert [r["algebra"] for r in doc["rows"]] == ["C2", "C3", "C4"]
        assert [r["dim_V"] for r in doc["rows"]] == [4, 6, 8]

    def test_fundamental_scan_hits_and_misses(self):
        code, doc = run_json(["classify", "table1", "B3", "--bound", "3"])
        assert code == 0
        assert any(r["weight"] == "[1,0,0]" for r in doc["rows"])
        code, doc = run_json(["classify", "table1", "A2"])
        assert code == 0 and doc["rows"] == []
        code, out, _err = run(["classify", "table1", "A2"])
        assert code == 0 and "(no rows)" in out

    def test_exceptional_catalog_all_ok(self):
        code, doc = run_json(["classify", "exceptional"])
        assert code == 0
        assert doc["rows"] and all(r["status"] == "ok" for r in doc["rows"])

    def test_grid_and_global_report(self):
        code, doc = run_json(["classify", "table2"])
        assert code == 0 and len(doc["rows"]) >= 100
        code, doc = run_json(["classify", "global"])
        assert code == 0
        assert len(doc["rows"]) == 114
        assert all(r["status"] == "ok" for r in doc["rows"])

    def test_wrong_stated_level_fails_exactly_its_row(self, tmp_path):
        shipped = json.loads(
            resources.files("lieconf").joinpath("data/exceptional.json").read_text()
        )
        entry = dict(shipped[0], level="-5")
        path = tmp_path / "cat.json"
        path.write_text(json.dumps([entry]))
        code, doc = run_json(["classify", "exceptional", "--catalog", str(path)])
        assert code == 1
        assert [(r["label"], r["status"]) for r in doc["rows"]] == [(entry["label"], "fail")]
        code, doc = run_json(["classify", "global", "--catalog", str(path)])
        assert code == 1
        failed = [r["label"] for r in doc["rows"] if r["status"] != "ok"]
        assert failed == [f"{entry['label']}@-5"]

    @pytest.mark.parametrize(
        "argv, checks",
        [
            (["branch", "dual-pair", "spsp", "2", "3"], 1),
            (["conformal", "check", "--case", "spso:2,3", "--level", "-1/2"], 1),
            (["conformal", "check", "--case", "G2-in-B3", "--level", "-2"], 1),
            (["classify", "global"], 83),
            (["conformal", "solve", "--case", "spso:2,3"], 0),
            (["classify", "table2"], 0),
        ],
    )
    def test_a_branching_is_checked_exactly_when_p_is_read(self, argv, checks):
        # The global report reads p of its 83 built-in rows; candidate levels
        # read the subalgebra alone.
        check = embed._verify_adjoint_branching
        with mock.patch.object(embed, "_verify_adjoint_branching", wraps=check) as spy:
            code = run(argv)[0]
        assert code == 0 and spy.call_count == checks

    def test_global_report_is_deterministic(self):
        _, first, _ = run(["--format", "json", "classify", "global"])
        _, second, _ = run(["--format", "json", "classify", "global"])
        assert first == second

    def test_bad_bound_is_a_usage_error(self):
        assert run(["classify", "table1", "B3", "--bound", "0"])[0] == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        (["classify", "global", "--max-rank", "3"], "classify global does not read --max-rank"),
        (["classify", "global", "--bound", "3"], "classify global does not read --bound"),
        (["classify", "table2", "B3"], "classify table2 does not read TYPE"),
        (["classify", "exceptional", "--bound", "0"], "classify exceptional does not read --bound"),
        (["classify", "so-irreducible", "--max-rank", "2"], "does not read --max-rank"),
        (["classify", "sl-irreducible", "--bound", "3"], "does not read --bound; only table1"),
        (["classify", "table1", "B3", "--max-rank", "8"], "only sl-irreducible does"),
        (["conformal", "solve", "--case", "spsp:2,2", "--ambient", "E8"], "with --ambient"),
        (["conformal", "solve", "--case", "spsp:2,2", "--factors", "A1"], "with --factors"),
        (["qseries", "char", "delta", "7", "--order", "3"], "qseries char delta does not read ell"),
        (["qseries", "char", "weyl_M3", "1"], "qseries char weyl_M3 does not read ell"),
        # Only conformal solve --case, conformal check and classify
        # exceptional|global read --catalog; the absent file is never opened.
        (["--catalog", "absent.json", "algebra", "info", "A1"], "algebra info does not read --catalog"),
        (["--catalog", "absent.json", "rep", "dim", "A1", "1"], "rep dim does not read --catalog"),
        (["rep", "casimir", "A1", "1", "--catalog", "absent.json"], "rep casimir does not read"),
        (["rep", "index", "A1", "1", "--catalog", "absent.json"], "rep index does not read"),
        (["rep", "weights", "A1", "1", "--catalog", "absent.json"], "rep weights does not read"),
        (["--catalog", "absent.json", "rep", "tensor", "A1", "1", "1"], "rep tensor does not read"),
        (["branch", "dual-pair", "slsl", "2", "2", "--catalog", "absent.json"],
         "branch dual-pair does not read --catalog"),
        (["conformal", "solve", "--ambient", "B3", "--factors", "G2", "--catalog", "absent.json"],
         "conformal solve without --case does not read --catalog"),
        (["classify", "table2", "--catalog", "absent.json"], "classify table2 does not read --catalog"),
        (["--catalog", "absent.json", "classify", "so-irreducible"], "so-irreducible does not read"),
        (["classify", "sl-irreducible", "--catalog", "absent.json"], "sl-irreducible does not read"),
        (["classify", "table1", "B3", "--catalog", "absent.json"], "table1 does not read --catalog"),
        (["qseries", "char", "delta", "--catalog", "absent.json"], "qseries char does not read"),
        (["--catalog", "absent.json", "qseries", "verify", "eq92"], "qseries verify does not read"),
    ],
)
def test_an_argument_the_command_does_not_read_is_refused(argv, named):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize(
    "argv, default",
    [(["classify", "table1", "B3"], ["--bound", "3"]),
     (["classify", "sl-irreducible"], ["--max-rank", "8"])],
)
def test_an_unset_bound_takes_its_default(argv, default):
    assert run(argv) == run(argv + default)


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["algebra", "info", "A1000"], "MAX_TABLE_RANK"),
        (["rep", "dim", "D101", ",".join(["0"] * 101)], "MAX_TABLE_RANK"),
        (["classify", "table1", "B3", "--bound", "1000000"], "MAX_SCAN_BOUND"),
        (["classify", "sl-irreducible", "--max-rank", "1000"], "MAX_SEARCH_RANK"),
        # a cubic and a quartic with 50- and 52-bit end coefficients, and a
        # quadratic with a 103-bit non-square discriminant
        (
            ["conformal", "solve", "--ambient", "E8", "--factors", "A1^10000000000000,A1,A1"],
            "MAX_LEVEL_COEFF",
        ),
        (
            ["conformal", "solve", "--ambient", "E8", "--factors", "A1^10000000000000,A1,A1,A1"],
            "MAX_LEVEL_COEFF",
        ),
        (
            ["conformal", "solve", "--ambient", "E8", "--factors", "A1^10000000000000,A1"],
            "MAX_LEVEL_COEFF",
        ),
        (
            ["conformal", "solve", "--ambient", "E8", "--factors", ",".join(["A1"] * 200)],
            "MAX_LEVEL_ENTRIES",
        ),
        (["rep", "weights", "A2", "400,400"], "MAX_MODULE_DIM"),
        (["rep", "tensor", "A2", "30,30", "30,30"], "MAX_MODULE_DIM"),
        # so(6400) and so(625): adjoints of 20476800 and 195000
        (["branch", "dual-pair", "spsp", "40", "40"], "MAX_MODULE_DIM"),
        (["branch", "dual-pair", "soso", "25", "25"], "MAX_MODULE_DIM"),
        # the scan recurses once per coordinate; A9999999 is refused before
        # any of its weights is built
        (["classify", "table1", "A1200"], "MAX_TABLE_RANK"),
        (["conformal", "solve", "--case", "slsl:10000000,2"], "MAX_TABLE_RANK"),
        (["branch", "dual-pair", "slsl", "10000000", "2"], "MAX_TABLE_RANK"),
    ],
)
def test_size_above_a_cap_fails_at_once(argv, cap):
    start = time.perf_counter()
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert "exceeds the cap" in err and cap in err
    assert time.perf_counter() - start < 1.0


class TestQseries:
    def test_character_terms(self):
        code, doc = run_json(["qseries", "char", "weyl_M3", "--order", "3"])
        assert code == 0
        rows = {r["exponent"]: r["coefficient"] for r in doc["rows"]}
        assert rows["1/8"] == "1"
        assert rows["5/8"] == "6"
        assert rows["9/8"] == "21"

    def test_character_with_highest_weight_argument(self):
        code, doc = run_json(["qseries", "char", "sl2_m32", "1", "--order", "4"])
        assert code == 0
        assert doc["ell"] == 1
        assert doc["rows"][0]["exponent"] == "15/8"
        assert doc["rows"][0]["coefficient"] == "2"

    @pytest.mark.parametrize("model", ["weyl_M3", "delta"])
    def test_ell_zero_passes_where_ell_is_not_read(self, model):
        found = run(["qseries", "char", model, "0", "--order", "3"])
        assert found[0] == 0 and found == run(["qseries", "char", model, "--order", "3"])

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize(
        "before, after",
        [
            (["sl2_m32", "1", "--order", "3"], ["sl2_m32", "--order", "3", "1"]),
            (["sl2_m4", "2", "--order", "3"], ["sl2_m4", "--order", "3", "2"]),
            (["sl2_m4", "0", "--order", "5"], ["sl2_m4", "--order=5", "0"]),
            (["delta", "0", "--order", "5"], ["delta", "--order", "5", "0"]),
            (["sl2_m32", "-1", "--order", "3"], ["sl2_m32", "--order", "3", "-1"]),
        ],
    )
    def test_ell_may_follow_the_order(self, fmt, before, after):
        found = run(["--format", fmt, "qseries", "char"] + before)
        assert found == run(["--format", fmt, "qseries", "char"] + after)
        assert found[0] == (2 if "-1" in before else 0)

    def test_type_may_follow_the_bound(self):
        found = run(["classify", "table1", "B3", "--bound", "2"])
        assert found[0] == 0 and found == run(["classify", "table1", "--bound", "2", "B3"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["qseries", "char", "sl2_m32", "0", "--order", "3", "1"], "unrecognized arguments: 1"),
            (["qseries", "char", "sl2_m32", "--order", "3", "1", "2"], "unrecognized arguments: 2"),
            (["qseries", "char", "sl2_m32", "--order", "3", "x"], "argument ell: invalid int"),
            (["qseries", "char", "sl2_m32", "--order", "3", "--bogus"], "arguments: --bogus"),
            (["qseries", "verify", "eq92", "--order", "3", "1"], "unrecognized arguments: 1"),
            (["classify", "table1", "B3", "--bound", "2", "A2"], "unrecognized arguments: A2"),
            (["classify", "table1", "--bogus"], "unrecognized arguments: --bogus"),
        ],
    )
    def test_any_other_stray_token_is_refused(self, argv, message):
        code, out, err = run(argv)
        assert code == 2 and out == "" and message in err

    def test_verify_banner_and_exit_code(self):
        code, out, err = run(["qseries", "verify", "eq92", "--order", "50"])
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "eq92: verified to q^50"

    def test_verify_json(self):
        code, doc = run_json(["qseries", "verify", "delta_eta", "--order", "40"])
        assert code == 0
        assert doc["verified"] is True and doc["mismatch"] is None

    def test_unknown_identity_is_a_usage_error(self):
        assert run(["qseries", "verify", "eq93", "--order", "20"])[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["qseries", "verify", "eq92", "--order", "100000"],
            ["qseries", "char", "weyl_M3", "--order", "100000"],
            ["qseries", "char", "sl2_m4", "100", "--order", "10"],
        ],
    )
    def test_order_above_the_bound_fails_at_once(self, argv):
        start = time.perf_counter()
        code, out, err = run(argv)
        assert code == 2 and out == ""
        assert "MAX_ORDER" in err
        assert time.perf_counter() - start < 0.5


class TestFlagsAndIO:
    def test_format_flag_accepted_before_and_after_subcommand(self):
        _, before, _ = run(["--format", "json", "algebra", "info", "D4"])
        _, after, _ = run(["algebra", "info", "D4", "--format", "json"])
        assert before == after

    def test_out_writes_file_instead_of_stdout(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run(
            ["--format", "json", "--out", str(target), "algebra", "info", "E6"]
        )
        assert code == 0 and out == "" and err == ""
        doc = json.loads(target.read_text())
        assert doc["dimension"] == 78

    @pytest.mark.parametrize("where", ["missing-dir/x.txt", "."], ids=["no-parent", "a-directory"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, where):
        code, out, err = run(["--out", str(tmp_path / where), "algebra", "info", "G2"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_catalog_override_and_builtin_fallback(self, tmp_path):
        doc = [
            {
                "label": "toy-G2-in-B3",
                "ambient": "B3",
                "factors": [{"type": "G2", "index": "1"}],
                "level": "-2",
                "p": [{"weights": [[1, 0]], "mult": 1}],
            }
        ]
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(doc))
        code, payload = run_json(
            ["conformal", "solve", "--case", "toy-G2-in-B3", "--catalog", str(path)]
        )
        assert code == 0 and payload["ambient"] == "B3"
        code, payload = run_json(
            ["conformal", "solve", "--case", "G2-in-B3", "--catalog", str(path)]
        )
        assert code == 0

    def test_catalog_path_starting_with_a_bracket_is_opened(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("[toy].json").write_text(json.dumps([toy_entry()]))
        assert main(["--catalog", "[toy].json", "classify", "exceptional"]) == 0

    @pytest.mark.parametrize("name, fields, message", BAD_CATALOG_FIELDS, ids=BAD_CATALOG_IDS)
    def test_non_string_catalog_field_is_a_usage_error(self, tmp_path, name, fields, message):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps([toy_entry(**fields)]))
        code, out, err = run(["classify", "exceptional", "--catalog", str(path)])
        assert code == 2 and out == ""
        assert err == f"error: case 'toy-G2-in-B3': {message}\n"

    @pytest.mark.parametrize(
        "name, document, message", BAD_CATALOG_DOCUMENTS, ids=BAD_CATALOG_DOCUMENT_IDS)
    def test_malformed_catalog_document_is_a_usage_error(self, tmp_path, name, document, message):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(document))
        code, out, err = run(["classify", "exceptional", "--catalog", str(path)])
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["classify", "exceptional"], ["conformal", "solve", "--case", "G2-in-B3"]])
    def test_repeated_catalog_label_is_a_usage_error(self, tmp_path, argv):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps([toy_entry(), toy_entry()]))
        code, out, err = run(argv + ["--catalog", str(path)])
        assert code == 2 and out == ""
        assert err == "error: duplicate label 'toy-G2-in-B3'\n"

    def test_missing_catalog_file_is_a_usage_error(self, tmp_path):
        code, out, err = run(
            ["classify", "exceptional", "--catalog", str(tmp_path / "absent.json")]
        )
        assert code == 2 and out == "" and err.startswith("error:")

    def test_no_arguments_is_a_usage_error(self):
        assert run([])[0] == 2

    def test_help_exits_zero(self):
        assert run(["--help"])[0] == 0

    def test_closed_stdout_exits_1_without_a_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "lieconf.cli", "algebra", "info", "G2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_env(),
        )
        proc.stdout.close()  # the reader goes away before the command writes
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lieconf.cli", "algebra", "info", "G2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "G2" in proc.stdout


# Each probe runs in a fresh interpreter: this process has every layer loaded.
_IMPORT_PROBE = r"""
import contextlib, io, json, sys
import lieconf.cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert lieconf.cli.main(argv) == 0
print(json.dumps(sorted(sys.modules)))
"""

LATE_LAYERS = {"lieconf.embed", "lieconf.conformal", "lieconf.qseries", "lieconf.surd"}


def _loaded_after(argv, *flags):
    """Every module loaded once a fresh interpreter has run ``lieconf argv``."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _IMPORT_PROBE, json.dumps(argv)],
        capture_output=True,
        text=True,
        check=True,
        env=_env(),
    )
    return set(json.loads(proc.stdout))


def _modules_after(argv):
    return {m for m in _loaded_after(argv) if m.split(".")[0] in ("lieconf", "dataclasses")}


class TestImportSets:
    def test_importing_the_cli_loads_no_layer(self):
        assert _modules_after([]) == {"lieconf", "lieconf.cli"}

    def test_qseries_loads_only_qseries(self):
        modules = _modules_after(["qseries", "verify", "eq92", "--order", "5"])
        assert modules == {"lieconf", "lieconf.cli", "lieconf.qseries"}

    @pytest.mark.parametrize("argv", [["rep", "dim", "A1", "1"], ["algebra", "info", "A2"]])
    def test_algebra_and_rep_load_no_later_layer(self, argv):
        modules = _modules_after(argv)
        assert "lieconf.liealg" in modules
        assert not modules & LATE_LAYERS

    # -S: no site hook may load these modules first and mask a regression.
    @pytest.mark.parametrize(
        "argv",
        [
            ["rep", "dim", "E8", "1,0,0,0,0,0,0,0"],
            ["branch", "dual-pair", "spso", "1", "3"],
            ["conformal", "check", "--case", "G2xA1-in-F4", "--level", "-5/2"],
            ["classify", "exceptional"],
        ],
        ids=["rep", "branch", "conformal", "classify"],
    )
    def test_no_command_loads_dataclasses_or_importlib_resources(self, argv):
        loaded = _loaded_after(argv, "-S")
        assert "lieconf.liealg" in loaded
        assert not loaded & {"dataclasses", "inspect", "importlib.resources"}

    def test_package_names_resolve_lazily(self):
        assert lieconf.AlgebraType is lieconf.liealg.AlgebraType
        assert lieconf.build_algebra("A2").dim == 8
        with pytest.raises(AttributeError):
            lieconf.no_such_name
