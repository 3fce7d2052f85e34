import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracbk
from fracbk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [l for l in text.strip().split("\n") if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestEval:
    def test_known_error_cell(self, capsys):
        code, out, err = run_cli(
            capsys,
            "eval", "--fn", "f1", "--z", "0.5",
            "--m", "40", "--eta", "2", "--gamma", "4", "--alpha", "0.9", "--s", "3",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["z", "exact", "approx", "abs_error"]
        assert float(rows[0][3]) == pytest.approx(0.00255941, abs=5e-6)

    def test_constant_function_near_exact(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "1", "--z", "0.3")
        assert code == 0
        _, rows = csv_rows(out)
        assert abs(float(rows[0][3])) < 1e-12

    def test_grid_spec_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "f2", "--z", "0:1:201")
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 201
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 1.0

    def test_max_error_comment_present(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "f4", "--z", "0.2")
        assert code == 0
        assert "# max_error=" in out

    def test_bivariate_function_rejected(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "g1", "--z", "0.5")
        assert code == 2
        assert "biv-eval" in err

    def test_bad_grid_spec(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "f1", "--z", "0:1")
        assert code == 2
        assert "error" in err

    def test_bad_expression(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "2$z", "--z", "0.5")
        assert code == 2

    def test_evaluation_failure_is_numeric_exit(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "1/z", "--z", "0:1:3")
        assert code == 3
        assert "numeric failure" in err

    def test_gamma_below_one_matches_closed_form(self, capsys):
        # this used to exit 3: order 128 missed a 1e-9 cross-check
        code, out, _ = run_cli(capsys, "eval", "--fn", "z^2", "--z", "0.5", "--m", "10",
                               "--eta", "2", "--gamma", "0.7")
        assert code == 0
        _, rows = csv_rows(out)
        params = fracbk.OperatorParams(m=10, eta=2.0, gamma=0.7, alpha=1.0, s=2)
        assert float(rows[0][2]) == pytest.approx(fracbk.raw_moments(params, 0.5).e2, abs=1e-14)

    @pytest.mark.parametrize("command, fn", [
        ("eval", "(0-2)^0.5"), ("bounds", "z+(0-2)^0.5"), ("eval", "10^400*z"),
    ])
    def test_undefined_constant_is_numeric_exit(self, capsys, command, fn):
        # the first used to end in a TypeError traceback (a complex constant),
        # the second in exit 0 after a ComplexWarning, the third in a
        # RuntimeWarning before the error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, f"--fn={fn}", "--z", "0.5", "--m", "3")
        assert (code, out) == (3, "")
        assert err.startswith("fracbk: numeric failure: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flags, code", [
        pytest.param(("--fn", "2*\u00b2"), 2, id="superscript-digit"),
        pytest.param(("--fn", "z+\u0663"), 2, id="arabic-indic-digit"),
        pytest.param(("--fn", "1" + "0" * 400 + "*z"), 2, id="overflowing-literal"),
        pytest.param(("--fn", "f1", "--order", "4097"), 2, id="order-4097"),
        *(pytest.param(("--fn", "f1", "--eta", eta, "--order", order), 3, id=f"eta-{eta}-order-{order}")
          for eta in ("1e-16", "1e-300") for order in ("8", "16", "32", "64")),
    ])
    def test_one_error_line(self, capsys, flags, code):
        # a superscript digit used to end in a ValueError traceback, and an
        # Arabic-Indic one was read as 3, a 400-digit literal as inf (exit
        # 3); eta=1e-300 used to exit 0 at order 32 and 64 after a
        # RuntimeWarning, and the others with 3 lines
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run_cli(capsys, "eval", *flags, "--z", "0.5", "--m", "3")
        assert (got, out) == (code, "")
        assert err.startswith("fracbk: error: " if code == 2 else "fracbk: numeric failure: ")
        assert len(err.splitlines()) == 1

    def test_invalid_params_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--fn", "f1", "--z", "0.5", "--alpha", "2.0")
        assert code == 2


    def test_nan_eta_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--fn", "f1", "--z", "0.5", "--eta", "nan")
        assert code == 2
        assert out == ""
        assert "eta must be positive and finite" in err

    def test_infinite_gamma_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "f1", "--z", "0.5", "--gamma", "inf")
        assert code == 2
        assert "gamma must be positive and finite" in err

    @pytest.mark.parametrize("z", ["nan", "-0.1", "0:1.5:4"])
    def test_point_off_the_interval_is_usage_error(self, capsys, z):
        code, out, err = run_cli(capsys, "eval", "--fn", "f1", "--z", z)
        assert code == 2
        assert out == ""
        assert "z must lie in [0, 1]" in err

    @pytest.mark.parametrize(
        "fn", ["(" * 200 + "z" + ")" * 200, "-" * 1000 + "z", "z^" * 1000 + "z"],
        ids=["parentheses", "unary-minus", "power-chain"],
    )
    def test_deep_nesting_is_usage_error(self, capsys, fn):
        # these used to end in a RecursionError traceback, exit 1
        code, out, err = run_cli(capsys, "eval", f"--fn={fn}", "--z", "0.5")
        assert (code, out) == (2, "")
        assert err.startswith("fracbk: error: expression nested deeper than 100 levels")


class TestArgparseBehavior:
    def test_no_arguments_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["eval", "--z", "0.5"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for sub in ("eval", "table", "figure", "compare", "bounds", "biv-eval"):
            assert sub in out


class TestTableFigure:
    def test_table_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["z", "err_m40", "err_m100", "err_m250"]
        assert len(rows) == 9

    def test_table_out_file_matches_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "table", "4")
        assert code == 0
        path = tmp_path / "t4.csv"
        code2 = main(["table", "4", "--out", str(path)])
        capsys.readouterr()
        assert code2 == 0
        assert path.read_text() == out

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "table", "1", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("fracbk: error: cannot write")
        assert len(err.strip().splitlines()) == 1
        assert not target.exists()

    def test_table_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "table", "9")
        assert code == 2

    def test_figure_dataset(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "2")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["z", "phi", "op_a035", "op_a065", "op_a095"]
        assert len(rows) == 201

    def test_figure_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, "figure", "0")
        assert code == 2


class TestCompare:
    def test_reference_row_with_override(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--fn", "f4", "--m", "10", "--eta", "2", "--gamma", "3",
            "--alpha", "0.9", "--s", "2", "--z", "0.2", "--bbk-gamma", "2",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["m", "rlbk", "bbk", "fbk", "rlgbk"]
        values = [float(v) for v in rows[0][1:]]
        assert values == pytest.approx(
            [0.00871903, 0.00888781, 0.00921728, 0.00854246], abs=5e-6
        )
        rlbk, bbk, fbk, rlgbk = values
        assert rlgbk < rlbk < bbk < fbk

    def test_defaults_run(self, capsys):
        code, out, _ = run_cli(capsys, "compare")
        assert code == 0
        _, rows = csv_rows(out)
        assert [int(r[0]) for r in rows] == [10, 20, 40, 80]

    def test_empty_m_list(self, capsys):
        code, _, _ = run_cli(capsys, "compare", "--m", ",")
        assert code == 2

    def test_bivariate_function_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "compare", "--fn", "g2")
        assert code == 2


class TestBounds:
    def test_columns_and_dominance(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "--fn", "f1", "--z", "0.1:0.9:5",
            "--m", "25", "--eta", "2", "--gamma", "3", "--alpha", "0.9",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["z", "actual_error", "bound_t2", "bound_lipschitz",
                          "bound_kfunctional"]
        for row in rows:
            actual, t2 = float(row[1]), float(row[2])
            assert t2 + 1e-9 >= actual
            assert row[3] == ""
            assert row[4] == ""

    def test_identity_bound_matches_dispersion(self, capsys):
        from fracbk import OperatorParams, central_moments

        code, out, _ = run_cli(
            capsys,
            "bounds", "--fn", "z", "--z", "0.4", "--m", "30",
            "--M", "1", "--kappa", "1",
        )
        assert code == 0
        _, rows = csv_rows(out)
        params = OperatorParams(m=30, eta=1.0, gamma=1.0, alpha=1.0, s=2)
        sigma = np.sqrt(central_moments(params, 0.4).xi2)
        assert float(rows[0][3]) == pytest.approx(sigma, rel=1e-12)

    def test_constant_function_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--fn", "2", "--z", "0.5")
        assert code == 0
        _, rows = csv_rows(out)
        assert abs(float(rows[0][1])) < 1e-12
        assert abs(float(rows[0][2])) < 1e-12

    def test_kfunctional_column_with_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--fn", "f2", "--z", "0.5", "--C", "2.5"
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0][4] != ""
        assert float(rows[0][4]) >= 0.0

    def test_bound_t2_dominates_at_the_endpoints_for_large_m(self, capsys):
        # with grid moduli this printed bound_t2=0.0 at z=0 and z=1, where
        # the actual errors are 4.0e-12 and 1.26e-5
        code, out, _ = run_cli(capsys, "bounds", "--m", "100000", "--eta", "2", "--gamma", "4",
                               "--alpha", "0.9", "--s", "3", "--fn", "f1", "--z", "0:1:3")
        assert code == 0
        _, rows = csv_rows(out)
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
        for row in rows:
            actual, t2 = float(row[1]), float(row[2])
            assert 0.0 < actual <= t2

    def test_lipschitz_flags_must_pair(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--fn", "f1", "--z", "0.5", "--M", "1")
        assert code == 2
        assert "together" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--M", "nan", "--kappa", "1"), "M must be positive and finite"),
            (("--C", "-1"), "C must be non-negative and finite"),
            (("--C", "nan"), "C must be non-negative and finite"),
            (("--eta", "1e308", "--order", "1"), "log_gamma argument must be"),
        ],
    )
    def test_nonsense_constant_is_usage_error(self, capsys, flags, message):
        # the first three used to print nan or negative bounds with exit 0,
        # the last an OverflowError traceback with exit 1
        code, out, err = run_cli(capsys, "bounds", "--m", "10", "--fn", "f1",
                                 "--z", "0:1:3", *flags)
        assert (code, out) == (2, "")
        assert err.startswith(f"fracbk: error: {message}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("grid", ["65537", "100000"])
    def test_grid_above_the_cap_is_usage_error(self, capsys, grid):
        # the moduli cap expressions at 65,536 cells, so these printed the
        # rows of --grid 65536 under "# grid=100000" with exit 0
        code, out, err = run_cli(capsys, "bounds", "--m", "20", "--fn", "f1",
                                 "--z", "0:1:3", "--C", "2", "--grid", grid)
        assert (code, out) == (2, "")
        assert err.startswith(f"fracbk: error: grid_n must be <= 65536, got {grid}")
        assert len(err.splitlines()) == 1

    def test_grid_at_the_cap_runs(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--m", "20", "--fn", "f1",
                               "--z", "0:1:3", "--C", "2", "--grid", "65536")
        assert code == 0
        assert "grid=65536 " in out
        assert len(csv_rows(out)[1]) == 3


class TestBivEval:
    def test_known_cell(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "biv-eval", "--fn", "g1", "--z", "0.5", "--y", "0.5",
            "--m", "10", "--eta", "2", "--gamma", "3", "--alpha", "0.9", "--s", "2",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["z", "y", "exact", "approx", "abs_error"]
        assert float(rows[0][4]) == pytest.approx(0.152540436, abs=5e-6)
        assert "# max_error=" in out

    def test_product_grid_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "biv-eval", "--fn", "z*y", "--z", "0:1:3", "--y", "0:1:5"
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 15

    def test_second_axis_overrides(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "biv-eval", "--fn", "z*y", "--z", "0.5", "--y", "0.5",
            "--m", "5", "--m2", "9", "--eta", "2", "--eta2", "3",
        )
        assert code == 0
        assert "axis1 m=5 eta=2.0" in out
        assert "axis2 m=9 eta=3.0" in out

    def test_univariate_function_accepted(self, capsys):
        # functions of z alone are valid bivariate integrands
        code, out, _ = run_cli(
            capsys, "biv-eval", "--fn", "z^2", "--z", "0.5", "--y", "0.5"
        )
        assert code == 0

    @pytest.mark.parametrize("z, y, name", [("0.5", "2", "y"), ("0.5", "0:2:3", "y"), ("2", "0.5", "z")])
    def test_point_off_the_interval_names_its_axis(self, capsys, z, y, name):
        # a y point off [0, 1] used to be reported as "z must lie in [0, 1]"
        code, out, err = run_cli(capsys, "biv-eval", "--m", "3", "--fn", "z*y", "--z", z, "--y", y)
        assert (code, out) == (2, "")
        assert err == f"fracbk: error: {name} must lie in [0, 1], got 2.0\n"


# Run in a fresh interpreter so that modules imported by other tests (the
# scipy references among them) do not mask what the CLI itself loads.
_NO_SCIPY = """
import sys
{body}
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
if loaded:
    sys.exit("scipy modules loaded: " + ", ".join(loaded))
"""


def _fresh_env():
    src = str(Path(fracbk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_fresh(*args, **kwargs):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_fresh_env(),
                          timeout=120, **kwargs)


class TestNumpyOnlyRuntime:
    def test_import_loads_no_scipy(self):
        proc = _run_fresh("-c", _NO_SCIPY.format(body="import fracbk.cli"))
        assert proc.returncode == 0, proc.stderr

    def test_table_run_loads_no_scipy(self):
        body = "from fracbk.cli import main\nassert main(['table', '1']) == 0"
        proc = _run_fresh("-c", _NO_SCIPY.format(body=body))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("# table 1")


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [("table", "1"), ("figure", "4")])
    def test_reader_gone_is_one_error_line(self, argv):
        # a reader that closed first gave a BrokenPipeError traceback with
        # exit 1, or "Exception ignored ... BrokenPipeError" with exit 120
        proc = subprocess.Popen([sys.executable, "-m", "fracbk.cli", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=_fresh_env())
        proc.stdout.close()
        code = proc.wait(timeout=120)  # a one-line error fits the stderr pipe
        with proc.stderr:
            err = proc.stderr.read()
        assert code == 2, err
        assert err.startswith("fracbk: error: cannot write '<stdout>'")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


def _cap_address_space():
    """4 GiB of address space (or the hard limit, if lower), so that no
    allocation of terabytes can succeed on any machine."""
    import resource

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


class TestOversizedInputs:
    @pytest.mark.parametrize("argv, code", [
        pytest.param(("eval", "--m", "1000000000000"), 3, id="eval-m-1e12"),
        pytest.param(("bounds", "--m", "1000000000000"), 3, id="bounds-m-1e12"),
        pytest.param(("eval", "--z", "0:1:1000000000000"), 3, id="eval-z-1e12-points"),
        pytest.param(("biv-eval", "--fn", "g1", "--z", "0:1:3000000", "--y", "0:1:3000000", "--m", "2"),
                     3, id="biv-eval-3e6-squared"),
        pytest.param(("eval", "--m", "9007199254740992"), 2, id="eval-m-2-53"),
        pytest.param(("eval", "--m", "10000000000000000000"), 2, id="eval-m-1e19"),
    ])
    def test_one_error_line(self, argv, code):
        # each ended in a numpy MemoryError (or, from m = 2**60 on, a
        # ValueError) traceback with exit 1
        command, *flags = argv
        proc = _run_fresh("-m", "fracbk.cli", command, "--fn", "f1", "--z", "0.5", *flags,
                          preexec_fn=_cap_address_space)
        assert (proc.returncode, proc.stdout) == (code, "")
        assert proc.stderr.startswith("fracbk: error: " if code == 2 else "fracbk: numeric failure: ")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
