import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import funcalg
from funcalg.cli import main
from funcalg.io import dump_json, parse_complex


def run(args):
    return main(args)


class TestToeplitz:
    def test_csv_identity_symbol(self, tmp_path):
        out = tmp_path / "mat.csv"
        code = run(["toeplitz", "--symbol", "1", "--cutoff", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# config:")
        mat = np.array([[parse_complex(c) for c in row.split(",")]
                        for row in lines[1:]])
        np.testing.assert_allclose(mat, np.eye(4), atol=1e-10)

    def test_json_format(self, tmp_path):
        out = tmp_path / "mat.json"
        code = run(["toeplitz", "--symbol", "z", "--cutoff", "2",
                    "--format", "json", "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["config"]["symbol"] == "z"
        assert len(rec["matrix"]) == 3

    def test_bad_symbol_exit_2(self):
        assert run(["toeplitz", "--symbol", "exp(z)"]) == 2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["toeplitz", "--symbol", "z*conj(z)", "--out", str(a)])
        run(["toeplitz", "--symbol", "z*conj(z)", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestProjectAndNorm:
    def test_project_polynomial(self, tmp_path):
        out = tmp_path / "proj.json"
        assert run(["project", "--symbol", "1 + 2*z", "--cutoff", "4",
                    "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        coeffs = [parse_complex(c) for c in rec["coeffs"]]
        np.testing.assert_allclose(coeffs, [1, 2, 0, 0, 0], atol=1e-10)

    def test_norm_of_constant(self, tmp_path):
        out = tmp_path / "norm.json"
        assert run(["bergman-norm", "--symbol", "1", "--p", "2",
                    "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["value"] == pytest.approx(1.0, abs=1e-10)


class TestConvolution:
    def test_monomial_pair_exit_1(self, tmp_path):
        out = tmp_path / "conv.json"
        code = run(["convolution", "--f", "z", "--g", "z", "--p", "2",
                    "--out", str(out)])
        assert code == 1
        rec = json.loads(out.read_text())
        assert rec["holds"] is False
        assert rec["lhs"] == pytest.approx(1 / np.sqrt(3), abs=1e-9)
        assert rec["rhs"] == pytest.approx(0.5, abs=1e-9)

    def test_constant_pair_exit_0(self, tmp_path):
        out = tmp_path / "conv.json"
        assert run(["convolution", "--f", "1", "--g", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["holds"] is True

    def test_strict_paper_extra_field(self, tmp_path):
        out = tmp_path / "conv.json"
        run(["convolution", "--f", "1", "--g", "1", "--strict-paper",
             "--out", str(out)])
        rec = json.loads(out.read_text())
        assert "lhs_strict_paper" in rec


class TestBlochHardy:
    def test_bloch_z_squared(self, tmp_path):
        out = tmp_path / "bloch.json"
        assert run(["bloch", "--poly", "0,0,1", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["seminorm"] == pytest.approx(4 / (3 * np.sqrt(3)), abs=1e-6)

    def test_hardy_norm(self, tmp_path):
        out = tmp_path / "h.json"
        assert run(["hardy", "norm", "--poly", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(3.0, abs=1e-10)

    def test_hardy_kernel(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["hardy", "kernel", "--z", "0.5", "--xi", "1",
                    "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["poisson"] == pytest.approx(3.0, abs=1e-12)
        assert parse_complex(rec["szego"]) == pytest.approx(2.0, abs=1e-12)

    def test_hardy_toeplitz_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["hardy", "toeplitz", "--coeffs", "0:1,1:2,-1:3",
                    "--cutoff", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        mat = np.array([[parse_complex(c) for c in row.split(",")]
                        for row in lines[1:]])
        np.testing.assert_array_equal(mat, [[1, 3, 0], [2, 1, 3], [0, 2, 1]])

    def test_disc_membership(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["hardy", "disc-membership", "--symbol", "z + 0.5*conj(z)^2",
                    "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["member"] is False
        assert rec["witness"] == -2


class TestGelfand:
    def test_s3_check(self, tmp_path):
        out = tmp_path / "g.json"
        code = run(["gelfand", "check", "--group", "s3", "--subgroup", "0,1",
                    "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["gelfand"] is True

    def test_q8_check_exit_1(self, tmp_path):
        out = tmp_path / "g.json"
        code = run(["gelfand", "check", "--group", "q8", "--subgroup", "0",
                    "--out", str(out)])
        assert code == 1
        rec = json.loads(out.read_text())
        assert rec["gelfand"] is False
        assert rec["witness"] is not None

    def test_spherical(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["gelfand", "spherical", "--group", "z4", "--subgroup", "0",
                    "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["count"] == 4

    def test_invalid_subgroup_exit_2(self):
        # {identity, one 3-cycle} is not closed under multiplication
        assert run(["gelfand", "check", "--group", "s3", "--subgroup", "0,3"]) == 2

    def test_unknown_group_file_exit_2(self):
        assert run(["gelfand", "check", "--group", "/nonexistent/group.txt",
                    "--subgroup", "0"]) == 2


def write_fields(tmp_path, data):
    path = tmp_path / "fields.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestLie:
    def test_bracket(self, tmp_path):
        # [y d/dx, x d/dy] = (-x1, x2)
        path = write_fields(tmp_path, {
            "dim": 2,
            "fields": [[{"0,1": 1}, {"0,0": 0}],
                       [{"0,0": 0}, {"1,0": 1}]],
        })
        out = tmp_path / "br.json"
        assert run(["lie", "bracket", "--fields", path, "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["components"] == ["-x1", "x2"]

    def test_jacobi(self, tmp_path):
        path = write_fields(tmp_path, {
            "dim": 1,
            "fields": [[{"1": 1}], [{"2": 1}], [{"0": 1}]],
        })
        out = tmp_path / "j.json"
        assert run(["lie", "jacobi", "--fields", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["holds"] is True

    def test_flows(self, tmp_path):
        path = write_fields(tmp_path, {
            "dim": 1,
            "fields": [[{"0": 1}], [{"1": 1}]],
        })
        out = tmp_path / "f.json"
        assert run(["lie", "flows", "--fields", path, "--point", "0.5",
                    "--t", "0.05", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["symbolic"] == [1.0]
        assert rec["error"] < 0.1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_flow_exit_1(self, tmp_path):
        # strongly superlinear field whose trajectory passes the overflow guard
        path = write_fields(tmp_path, {
            "dim": 1,
            "fields": [[{"8": 1000.0}], [{"1": 1}]],
        })
        assert run(["lie", "flows", "--fields", path, "--point", "5.0",
                    "--t", "0.1"]) == 1

    def test_missing_file_exit_2(self):
        assert run(["lie", "bracket", "--fields", "/nonexistent.json"]) == 2

    def test_bracket_rational_text(self, tmp_path):
        # [x1/2 d/dx, x1^2 d/dx] = (x1/2 * 2 x1 - x1^2 / 2) d/dx = x1^2/2 d/dx
        path = write_fields(tmp_path, {"dim": 1, "fields": [[{"1": "1/2"}], [{"2": 1}]]})
        out = tmp_path / "br.json"
        assert run(["lie", "bracket", "--fields", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["components"] == ["x1**2/2"]

    def test_flows_point_dimension_exit_2(self, tmp_path):
        path = write_fields(tmp_path, {"dim": 1, "fields": [[{"0": 1}], [{"1": 1}]]})
        assert run(["lie", "flows", "--fields", path, "--point", "0.5,0.5"]) == 2

    def test_nan_coefficient_exit_2(self, tmp_path):
        path = tmp_path / "fields.json"
        path.write_text('{"dim": 1, "fields": [[{"1": NaN}], [{"1": 1}]]}')
        assert run(["lie", "bracket", "--fields", str(path)]) == 2


class TestColombeau:
    def test_rate_csv(self, tmp_path):
        out = tmp_path / "rate.csv"
        assert run(["colombeau", "rate", "--f", "exp", "--q", "2",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# config:")
        slope = float(lines[1].split(":")[1])
        assert slope == pytest.approx(4.0, abs=0.2)
        assert lines[2] == "epsilon,value"
        assert len(lines) == 3 + 12

    def test_unknown_function_exit_2(self):
        assert run(["colombeau", "rate", "--f", "nope"]) == 2

    def test_slope_below_noise_floor_is_not_inf(self, tmp_path):
        # every derivative of a constant regularizes to zero
        out = tmp_path / "rate.csv"
        assert run(["colombeau", "rate", "--f", "const", "--q", "2", "--alpha", "1",
                    "--out", str(out)]) == 0
        text = out.read_text()
        assert "inf" not in text
        assert text.split("\n")[1] == "# slope: none (every value below the noise floor)"


class TestSuite:
    def test_single_suite(self, capsys, tmp_path):
        out = tmp_path / "suite.json"
        code = run(["suite", "hardy", "--seed", "0", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "[PASS]" in printed
        assert "[FAIL]" not in printed
        rec = json.loads(out.read_text())
        assert all(r["passed"] for r in rec["results"])

    def test_unknown_suite_exit_2(self):
        assert run(["suite", "nope"]) == 2

    def test_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["suite", "gelfand", "--seed", "0", "--out", str(a)]) == 0
        assert run(["suite", "gelfand", "--seed", "0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestUsage:
    def test_no_command_exit_2(self):
        assert run([]) == 2

    @pytest.mark.parametrize("argv", [
        ["hardy", "norm"],
        ["hardy", "kernel", "--xi", "1"],
        ["hardy", "kernel", "--z", "0.5"],
        ["hardy", "toeplitz"],
        ["hardy", "disc-membership"],
    ])
    def test_missing_per_operation_option_exit_2(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "needs --" in err and "Traceback" not in err

    def test_unknown_command_exit_2(self):
        assert run(["frobnicate"]) == 2


class TestStrictJson:
    def test_dump_json_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                dump_json({"value": bad})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_norm_exit_1(self, tmp_path, capsys):
        out = tmp_path / "n.json"
        assert run(["bergman-norm", "--symbol", "1/(z-z)", "--out", str(out)]) == 1
        assert not out.exists()
        assert "non-finite" in capsys.readouterr().err

    def test_nan_coefficient_bloch_exit_1(self, capsys):
        assert run(["bloch", "--poly", "1,nan"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_toeplitz_csv_exit_1(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run(["toeplitz", "--symbol", "1/(z-z)", "--cutoff", "1",
                    "--out", str(out)]) == 1
        assert not out.exists()
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_hardy_toeplitz_csv_exit_1(self, capsys):
        assert run(["hardy", "toeplitz", "--coeffs", "0:nan", "--cutoff", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err


class TestBadInput:
    def test_negative_colombeau_order_exit_2(self, capsys):
        assert run(["colombeau", "rate", "--f", "abs", "--alpha", "-1"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_constant_overflow_exit_1(self, capsys):
        # 9.0^64 overflows on the next power: a divergence, not a traceback
        assert run(["bergman-norm", "--symbol", "((9^64)^64)^64"]) == 1
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["toeplitz", "--symbol", "z", "--cutoff", "-1"],
        ["project", "--symbol", "z", "--cutoff", "-3"],
        ["hardy", "toeplitz", "--coeffs", "0:1", "--cutoff", "-1"],
    ], ids=["toeplitz", "project", "hardy-toeplitz"])
    def test_negative_cutoff_exit_2(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "--cutoff" in err and "cutoff must be an integer >= 0" in err

    @pytest.mark.parametrize("subgroup", ["0,99", "0,-1"])
    def test_subgroup_index_out_of_range_exit_2(self, subgroup, capsys):
        assert run(["gelfand", "check", "--group", "s3", "--subgroup", subgroup]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "0..5" in err

    def test_empty_group_table_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert run(["gelfand", "check", "--group", str(path), "--subgroup", "0"]) == 2
        assert "empty group table" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"dim": 2, "fields": 3},
        {"dim": 2, "fields": [[1, 2], [3, 4]]},
        [1, 2],
    ], ids=["fields-not-a-list", "components-not-objects", "top-level-array"])
    def test_malformed_field_file_exit_2(self, data, tmp_path, capsys):
        path = write_fields(tmp_path, data)
        assert run(["lie", "bracket", "--fields", path]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "bad field file" in err

    def test_tower_of_powers_exits_2_quickly(self):
        proc = subprocess.run([sys.executable, "-m", "funcalg.cli", "bergman-norm",
                               "--symbol", "9^9^9^9"],
                              capture_output=True, text=True, env=_checkout_env(), timeout=10)
        assert proc.returncode == 2
        assert "exponent" in proc.stderr and "Traceback" not in proc.stderr


def _checkout_env() -> dict:
    """Environment for a subprocess that imports the funcalg under test."""
    package_root = str(Path(funcalg.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def test_cli_import_loads_neither_sympy_nor_scipy_optimize():
    code = ("import sys, funcalg.cli; "
            "print([m for m in ('sympy', 'scipy.optimize') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
