"""Command line interface: dispatch, reports, exit codes, JSON schema."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from mvop import cli
from mvop.catalog import entry
from mvop.cli import main, run
from mvop.dsl import CheckArg, CheckCommand, parse_spec
from mvop.exactalg import DomainError

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "mvop" / "data"


def read_data(name: str) -> str:
    return (DATA_DIR / name).read_text()


class TestRun:
    def test_jac2_file_reports_darboux_subchecks(self):
        doc = parse_spec(read_data("jac2.mvop"))
        report = run(doc, n_max=5)
        assert report["ok"]
        darboux = [c for c in report["checks"] if c["kind"] == "darboux"]
        assert len(darboux) == 7
        assert all(c["status"] == "pass" for c in darboux)

    def test_intertwine_and_entry_check_kinds(self):
        text = (
            "weight w1 = laguerre(alpha=1/2)\n"
            "weight w2 = laguerre(alpha=3/2)\n"
            "op T = d^1 - 1\n"
            "check intertwine(T, w1, w2)\n"
            "check entry(LAG2DIAG)\n"
        )
        report = run(parse_spec(text), n_max=4)
        assert report["ok"]
        inter = next(c for c in report["checks"] if c["kind"] == "intertwine")
        assert "lambda_n = -1" in inter["detail"]
        assert sum(1 for c in report["checks"] if c["kind"] == "entry") == 6

    def test_perturbed_factor_fails_and_names_cell(self):
        text = read_data("jac2.mvop")
        # bump the constant term of V: kappa -> kappa + 1 in cell (1,1)
        assert "op V = d^1*[x-1, 2; 0, 1+x] + [kappa, 0;" in text
        bad = text.replace(
            "op V = d^1*[x-1, 2; 0, 1+x] + [kappa, 0;",
            "op V = d^1*[x-1, 2; 0, 1+x] + [kappa+1, 0;",
        )
        report = run(parse_spec(bad), n_max=4)
        assert not report["ok"]
        fact = next(c for c in report["checks"] if "factorization" in c["name"])
        assert fact["status"] == "fail"
        assert "d^0 cell (0,0)" in fact["detail"]

    def test_engine_error_becomes_failed_check(self):
        # a structurally bad check: decompose a matrix operator (shape error)
        text = (
            "weight w1 = laguerre(alpha=1/2)\n"
            "weight w2 = laguerre(alpha=3/2)\n"
            "weight WW = dsum(w1, w2)\n"
            "op T = d^1*[0, 1; 0, 0]\n"
            "check decompose(T, w1, w2)\n"
        )
        report = run(parse_spec(text), n_max=4)
        assert not report["ok"]
        assert report["checks"][0]["status"] == "error"
        assert "ShapeError" in report["checks"][0]["detail"]

    def test_exit_status_is_conjunction(self):
        text = (
            "check classify(laguerre(alpha=1/2), laguerre(alpha=3/2), expect=true)\n"
            "check classify(laguerre(alpha=1/2), laguerre(alpha=1/3), expect=true)\n"
        )
        report = run(parse_spec(text), n_max=4)
        statuses = [c["status"] for c in report["checks"]]
        assert statuses == ["pass", "fail"]
        assert report["ok"] is False


# every check kind, each on a passing and a failing input: in_algebra,
# symmetric, darboux (a factorization mismatch and a degree witness),
# intertwine (the lambda_n list cut at six), search with and without dim and
# refused, decompose, classify with and without expect, entry (an unknown
# name is an error check)
ALL_KINDS_DOC = (
    "weight w1 = laguerre(alpha=1/2)\n"
    "weight w2 = laguerre(alpha=3/2)\n"
    "weight w3 = laguerre(alpha=1/3)\n"
    "op L = delta(w1)\n"
    "op T = d^1 - 1\n"
    "op U = d^1\n"
    "op N = d^1*x + 3/2\n"
    "op D = T*N\n"
    "op E = U*N\n"
    "op F = d^1*x^2\n"
    "check in_algebra(L, w1)\n"
    "check in_algebra(U, w1, nmax=3)\n"
    "check symmetric(L, w1)\n"
    "check symmetric(U, w1)\n"
    "check darboux(w1, w2, T, N, D)\n"
    "check darboux(w1, w2, U, N, E)\n"
    "check darboux(w1, w2, F, N, L)\n"
    "check intertwine(T, w1, w2, nmax=8)\n"
    "check intertwine(U, w1, w3, nmax=3)\n"
    "check search(w1, w2, order=1)\n"
    "check search(w1, hermite(b=0), order=1)\n"
    "check search(w1, w2, order=1, dim=1)\n"
    "check search(w1, w2, order=1, dim=2)\n"
    "check decompose(T, w1, w2)\n"
    "check decompose(L, w1, w2)\n"
    "check classify(w1, w2, expect=true)\n"
    "check classify(w1, w3, expect=true)\n"
    "check classify(w1, w3)\n"
    "check entry(LAG2DIAG)\n"
)
# sha256 of the report's JSON with time_ms dropped, recorded before the
# check results shared one type; any change to a name, status or detail
# changes it
ALL_KINDS_DIGEST = "6b87f21782e833f3498f904885e7cc146ded26fbedbd3d3036de629152955d25"


def all_kinds_doc():
    """ALL_KINDS_DOC parsed, with a `check entry(NOSUCH)` appended in code:
    the parser refuses that name, but a document built in code can still
    hold it, and its failure at run time is part of the report."""
    doc = parse_spec(ALL_KINDS_DOC)
    doc.checks.append(CheckCommand("entry", [CheckArg("NOSUCH", "NOSUCH")], line=doc.checks[-1].line + 1))
    return doc


class TestOutputDigest:
    def test_every_kind_passes_and_fails(self):
        report = run(all_kinds_doc(), n_max=3)
        statuses = {}
        for c in report["checks"]:
            statuses.setdefault(c["kind"], set()).add(c["status"] == "pass")
        assert statuses == {k: {True, False} for k in statuses} and len(statuses) == 8

    def test_report_digest(self):
        report = run(all_kinds_doc(), n_max=3)
        for c in report["checks"]:
            del c["time_ms"]
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == ALL_KINDS_DIGEST


class TestSchema:
    def test_reports_validate(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(read_data("report-schema.json"))
        doc = parse_spec(read_data("lag2diag.mvop"))
        report = run(doc, n_max=4)
        jsonschema.validate(report, schema)
        report_bad = run(
            parse_spec("check classify(laguerre(alpha=1/2), laguerre(alpha=1/3), expect=true)\n"),
            n_max=4,
        )
        jsonschema.validate(report_bad, schema)


def _call(argv, capsys):
    """(exit code, stdout, stderr) of ``main(argv)`` in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _separate_call(argv):
    """(exit code, stdout, stderr) of ``main(argv)`` in a new process."""
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    script = "import sys; from mvop.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


class TestParserBuiltOnce:
    """``main`` builds its argument parser once per process; the calls after
    the first reuse it and answer as separate processes do."""

    CALLS = [
        ["verify"],
        ["verify", str(DATA_DIR / "lag2diag.mvop"), "--nmax", "3"],
        ["entry", "GEG2", "--nmax", "3"],
        ["--help"],
    ]

    def test_one_process_answers_as_separate_processes(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(cli, "_PARSER", None)
        got, parsers = [], []
        for argv in self.CALLS:
            got.append(_call(argv, capsys))
            parsers.append(cli._PARSER)
        assert parsers[0] is not None and all(p is parsers[0] for p in parsers)
        assert [g[0] for g in got] == [2, 0, 0, 0]
        assert got == [_separate_call(argv) for argv in self.CALLS]


class TestMain:
    def test_verify_exit_zero(self, capsys):
        rc = main(["verify", str(DATA_DIR / "geg2.mvop"), "--nmax", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out

    def test_verify_json_output(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        rc = main(
            [
                "verify",
                str(DATA_DIR / "lag2diag.mvop"),
                "--nmax",
                "4",
                "--format",
                "json",
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["ok"] and report["nmax"] == 4

    def test_verify_params_override(self, capsys):
        rc = main(
            [
                "verify",
                str(DATA_DIR / "lag2diag.mvop"),
                "--params",
                "alpha=5/2",
                "--nmax",
                "4",
            ]
        )
        assert rc == 0

    def test_entry_subcommand(self, capsys):
        rc = main(["entry", "GEG2", "--nmax", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Gram-orthogonal" in out

    def test_search_subcommand_prints_basis(self, capsys):
        rc = main(
            ["search", "laguerre(alpha=1/2)", "laguerre(alpha=3/2)", "--order", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "basis [d^1 - 1]" in out

    def test_classify_subcommand(self, capsys):
        rc = main(
            ["classify", "hermite(b=0)", "hermite(b=1)"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "false" in out

    def test_parse_error_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.mvop"
        p.write_text("op T = d^\n")
        rc = main(["verify", str(p)])
        assert rc == 2
        assert "parse error" in capsys.readouterr().err

    def test_unknown_entry_exit_two(self, tmp_path, capsys):
        # it used to parse, then fail at run time with exit 1
        p = tmp_path / "bad.mvop"
        p.write_text("check entry(LAG2DIAG)\ncheck entry(NOSUCH)\n")
        rc = main(["verify", str(p)])
        assert rc == 2
        assert "line 2, column 13: unknown catalog entry 'NOSUCH'" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        rc = main(["verify", "/nonexistent/file.mvop"])
        assert rc == 2

    def test_failing_document_exit_one(self, tmp_path):
        p = tmp_path / "fail.mvop"
        p.write_text("check classify(laguerre(alpha=1/2), laguerre(alpha=1/3), expect=true)\n")
        rc = main(["verify", str(p)])
        assert rc == 1

    def test_entry_check_times_are_per_check(self, capsys):
        t0 = time.monotonic()
        rc = main(["entry", "JAC2", "--nmax", "4", "--format", "json"])
        wall_ms = (time.monotonic() - t0) * 1000
        report = json.loads(capsys.readouterr().out)
        assert rc == 0 and len(report["checks"]) > 10
        assert sum(c["time_ms"] for c in report["checks"]) <= wall_ms

    def test_entry_engine_error_is_an_error_check(self, monkeypatch, capsys):
        # an engine error while an entry's checks run used to end the process
        from mvop import catalog
        from mvop.exactalg import ShapeError

        def broken_verifier(*args):
            raise ShapeError("operator sizes differ")

        monkeypatch.setattr(catalog, "verify_in_DW", broken_verifier)
        rc = main(["entry", "GEG2", "--nmax", "2", "--format", "json"])
        out = capsys.readouterr()
        assert rc == 1 and out.err == ""
        checks = [{k: v for k, v in c.items() if k != "time_ms"} for c in json.loads(out.out)["checks"]]
        assert checks == [
            {"name": "entry(GEG2)", "kind": "entry", "status": "error", "detail": "ShapeError: operator sizes differ"}
        ]
        # the same check as `mvop verify` reports it
        report = run(parse_spec("check entry(GEG2)\n"), n_max=2)
        assert [{k: v for k, v in c.items() if k != "time_ms"} for c in report["checks"]] == checks


def test_darboux_on_mixed_supports_is_an_error_row(tmp_path, capsys):
    # at nmax 0 checks 1, 2 and 4 pass, and W (+) Wt cannot be formed
    p = tmp_path / "mixed.mvop"
    p.write_text("weight W = laguerre(alpha=1/2)\nweight H = hermite(b=0)\nop I = 1\ncheck darboux(W, H, I, I, I)\n")
    rc = main(["verify", str(p), "--nmax", "0"])
    assert rc == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "ERROR darboux(W, H, I, I, I)  [DomainError: direct sum blocks must share a support interval]"
    )


class TestBadParams:
    """Parameter and admission errors exit 2 with one message line."""

    def assert_usage_error(self, argv, capsys, needle):
        rc = main(argv)
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 2
        assert len(err) == 1 and needle in err[0]

    @pytest.mark.parametrize(
        "factor, identity, minor",
        [("[(x-20)^2-1]", "[1]", 1), ("[1, 0; 0, (x-20)^2-1]", "[1, 0; 0, 1]", 2)],
        ids=["1x1", "2x2"],
    )
    def test_factor_negative_inside_support_refused(self, factor, identity, minor, tmp_path, capsys):
        # (x - 20)^2 - 1 < 0 on (19, 21), inside Laguerre's (0, oo): the
        # weight is not positive definite there, so nothing about it may pass
        p = tmp_path / "w.mvop"
        p.write_text(f"weight W = laguerre(alpha=0) * {factor}\nop I = d^0*{identity}\ncheck in_algebra(I, W)\n")
        self.assert_usage_error(
            ["verify", str(p)], capsys,
            f"parse error: line 1, column 12: weight factor not positive definite: leading minor {minor} changes sign",
        )

    def test_factor_touching_zero_inside_support_admitted(self, tmp_path, capsys):
        # (x - 3)^2 vanishes at x = 3 only, so the weight is positive definite
        # almost everywhere on the support
        p = tmp_path / "w.mvop"
        p.write_text("weight W = laguerre(alpha=0) * [(x-3)^2]\nop I = d^0*[1]\ncheck in_algebra(I, W)\n")
        assert main(["verify", str(p)]) == 0
        assert "PASS  in_algebra(I, W)" in capsys.readouterr().out

    def test_inadmissible_entry_params(self, capsys):
        self.assert_usage_error(["entry", "JAC2", "--params", "kappa=5"], capsys, "JAC2")

    @pytest.mark.parametrize("cmd", [["entry", "JAC2"], ["verify", str(DATA_DIR / "jac2.mvop")]])
    def test_non_rational_value(self, cmd, capsys):
        self.assert_usage_error(cmd + ["--params", "alpha=abc"], capsys, "abc")

    @pytest.mark.parametrize("cmd", [["entry", "JAC2"], ["verify", str(DATA_DIR / "jac2.mvop")]])
    def test_repeated_param_refused(self, cmd, capsys):
        # used to run with the last value, alpha = 3
        self.assert_usage_error(cmd + ["--params", "alpha=1/2, alpha=3"], capsys, "'alpha' more than once")

    @pytest.mark.parametrize("cmd", [["entry", "JAC2"], ["verify", str(DATA_DIR / "jac2.mvop")]])
    @pytest.mark.parametrize("value", ["٣", "١/٢", "３"], ids=["arabic-indic", "ratio", "fullwidth"])
    def test_non_ascii_param_value_refused(self, cmd, value, capsys):
        # Fraction() reads these as 3, 1/2 and 3: verify passed 10/10 with
        # alpha = 3 while the same value in the document is a parse error
        self.assert_usage_error(
            cmd + ["--params", f"alpha={value}", "--nmax", "1"], capsys, f"--params value {value!r} for 'alpha' is not ASCII"
        )

    def test_unknown_name_in_document(self, capsys):
        self.assert_usage_error(
            ["verify", str(DATA_DIR / "jac2.mvop"), "--params", "zeta=1"], capsys, "zeta"
        )

    def test_entry_rule_named(self, capsys):
        self.assert_usage_error(
            ["entry", "JAC2", "--params", "kappa=5"], capsys, "JAC2 requires 0 < kappa < beta + 1"
        )

    @pytest.mark.parametrize("cmd", [["verify", str(DATA_DIR / "jac2.mvop")], ["entry", "GEG2"]])
    def test_negative_horizon_refused(self, cmd, capsys):
        # used to print "OK: ... (nmax=-1)" without checking any n
        self.assert_usage_error(cmd + ["--nmax", "-1"], capsys, "--nmax -1")

    def test_horizon_above_limit_refused(self, capsys):
        from mvop.dsl import LIMIT

        cmd = ["classify", "laguerre(alpha=1/2)", "laguerre(alpha=3/2)", "--nmax", str(LIMIT + 1)]
        self.assert_usage_error(cmd, capsys, f"--nmax {LIMIT + 1}")

    def test_deep_nesting_refused(self, tmp_path, capsys):
        # used to end in a RecursionError traceback and exit 1
        p = tmp_path / "deep.mvop"
        p.write_text("param a = " + "(" * 400 + "1" + ")" * 400 + "\n")
        self.assert_usage_error(["verify", str(p)], capsys, "nested deeper than")

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        # used to end in a FileNotFoundError traceback and exit 1, which
        # means that checks failed
        out = tmp_path / "missing" / "r.json"
        self.assert_usage_error(
            ["verify", str(DATA_DIR / "geg2.mvop"), "--nmax", "2", "--out", str(out)], capsys, "cannot write report"
        )

    @pytest.mark.parametrize(
        "value, needle",
        [
            # read as 3 by int()
            ("\u0663", "line 1, column 11: unexpected character"),
            # escaped as "bad parameters: invalid literal for int()"
            ("1\u00b2", "line 1, column 12: unexpected character"),
            # past int()'s 4,300-digit limit, escaped the same way
            ("9" * 5000, "line 1, column 11: integer literal exceeds 4096 bits"),
        ],
        ids=["arabic-indic-digit", "superscript-two", "5000-digits"],
    )
    def test_non_ascii_and_oversized_literals_are_parse_errors(self, value, needle, tmp_path, capsys):
        p = tmp_path / "lit.mvop"
        p.write_text(f"param a = {value}\n", encoding="utf-8")
        self.assert_usage_error(["verify", str(p)], capsys, f"parse error: {needle}")

    def test_slack_option_removed(self, capsys):
        # the search's ansatz holds every intertwiner, so it has no slack
        cmd = ["search", "laguerre(alpha=1/2)", "laguerre(alpha=3/2)", "--order", "1", "--slack", "1"]
        code, _, err = _call(cmd, capsys)
        assert code == 2 and "unrecognized arguments: --slack 1" in err

    def test_unknown_name_in_entry(self):
        with pytest.raises(DomainError, match="kapa"):
            entry("JAC2", {"kapa": F(1)})


def test_zero_operator_against_weight_of_another_size(tmp_path, capsys):
    # the size check comes before the zero operator's shortcut, so
    # symmetric() is an error row like in_algebra(), not a PASS
    p = tmp_path / "zero.mvop"
    p.write_text(
        "op Z = 0*d^1\n"
        "weight W = laguerre(alpha=0) * [1+x, x; x, 1+x^2]\n"
        "check symmetric(Z, W)\n"
        "check in_algebra(Z, W)\n"
    )
    rc = main(["verify", str(p)])
    assert rc == 1
    assert capsys.readouterr().out.splitlines()[:2] == [
        "ERROR symmetric(Z, W)  [ShapeError: operator and weight sizes differ]",
        "ERROR in_algebra(Z, W)  [ShapeError: operator and weight sizes differ]",
    ]
