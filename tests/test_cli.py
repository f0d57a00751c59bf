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
        assert rec["tolerance"] == 1e-9

    def test_constant_pair_exit_0(self, tmp_path):
        out = tmp_path / "conv.json"
        assert run(["convolution", "--f", "1", "--g", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["holds"] is True

    @pytest.mark.parametrize("symbol", ["abs2(z)^8", "1e-5*abs2(z)^8"])
    def test_radial_pair_exit_1_at_any_scale(self, tmp_path, symbol):
        # the per-radius inequality is false for radius-dependent data, and the
        # relative tolerance keeps that answer when both inputs are scaled
        out = tmp_path / "conv.json"
        assert run(["convolution", "--f", symbol, "--g", symbol, "--out", str(out)]) == 1
        rec = json.loads(out.read_text())
        assert rec["holds"] is False and rec["lhs"] > 2.0 * rec["rhs"]

    def test_strict_paper_extra_field(self, tmp_path):
        out = tmp_path / "conv.json"
        run(["convolution", "--f", "1", "--g", "1", "--strict-paper",
             "--out", str(out)])
        rec = json.loads(out.read_text())
        assert "lhs_strict_paper" in rec

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_strict_paper_constants_read_c_squared(self, tmp_path, c, p):
        # f = g = c convolve to c^2 on every ring, so every circle norm is c^2
        # and the radial weights have unit mass
        out = tmp_path / "conv.json"
        run(["convolution", "--f", str(c), "--g", str(c), "--p", str(p), "--strict-paper",
             "--out", str(out)])
        rec = json.loads(out.read_text())
        assert rec["lhs_strict_paper"] == pytest.approx(c * c, rel=1e-13)

    @pytest.mark.parametrize("f, g", [("3", "3"), ("1 + 2*z", "conj(z) - 0.5*abs2(z)")])
    def test_strict_paper_equals_lhs_at_p1(self, tmp_path, f, g):
        out = tmp_path / "conv.json"
        run(["convolution", "--f", f, "--g", g, "--p", "1", "--strict-paper",
             "--out", str(out)])
        rec = json.loads(out.read_text())
        assert rec["lhs_strict_paper"] == pytest.approx(rec["lhs"], rel=1e-13)


class TestBlochHardy:
    def test_bloch_z_squared(self, tmp_path):
        out = tmp_path / "bloch.json"
        assert run(["bloch", "--poly", "0,0,1", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["seminorm"] == pytest.approx(4 / (3 * np.sqrt(3)), abs=1e-6)

    def test_bloch_writes_its_enclosure(self, tmp_path):
        out = tmp_path / "bloch.json"
        assert run(["bloch", "--poly", "0,0,1", "--alpha", "1", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["converged"] is True
        assert rec["seminorm"] <= 4 / (3 * np.sqrt(3)) <= rec["upper"]

    def test_bloch_level_budget_writes_unconverged(self, tmp_path, monkeypatch):
        from funcalg import bloch
        monkeypatch.setattr(bloch, "LEVELS", 1)
        out = tmp_path / "bloch.json"
        assert run(["bloch", "--poly", "0.3,1,0.5i,-0.7", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["converged"] is False and rec["upper"] > rec["seminorm"]

    @pytest.mark.parametrize("poly", ["1e200,1e200,1e200,1e200", "1e200,-1e200,1e200,-1e200"])
    def test_bloch_huge_coefficients_exit_0(self, tmp_path, poly):
        # (1 + 2r + 3r^2)(1 - r^2) peaks at 2.1031336922528343..., at theta = 0 for the
        # first and at theta = pi for the second; unscaled, |f'|^2 overflows
        out = tmp_path / "bloch.json"
        assert run(["bloch", "--poly", poly, "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["seminorm"] == pytest.approx(2.1031336922528343e200, rel=1e-13)
        assert rec["seminorm"] <= 2.1031336922528343e200 <= rec["upper"]

    def test_bloch_nan_middle_coefficient_exit_1(self, capsys):
        assert run(["bloch", "--poly", "0,1,nan,1"]) == 1
        assert capsys.readouterr().out == ""

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

    def test_spherical_non_gelfand_pair_exit_1(self, capsys):
        # the same verdict as `gelfand check` on this pair: property violated
        assert run(["gelfand", "check", "--group", "s4", "--subgroup", "0"]) == 1
        assert run(["gelfand", "spherical", "--group", "s4", "--subgroup", "0"]) == 1
        err = capsys.readouterr().err
        assert "not a Gelfand pair" in err and "Traceback" not in err

    @pytest.mark.parametrize("subgroup", ["0,3", "0,99", "1"])
    def test_spherical_bad_subgroup_exit_2(self, subgroup, capsys):
        assert run(["gelfand", "spherical", "--group", "s3", "--subgroup", subgroup]) == 2
        assert "Traceback" not in capsys.readouterr().err

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

    @pytest.mark.parametrize("t", ["0.5", "-1", "0", "0.100001"])
    def test_flows_t_outside_range_exit_2(self, t, tmp_path, capsys):
        path = write_fields(tmp_path, {"dim": 1, "fields": [[{"0": 1}], [{"1": 1}]]})
        assert run(["lie", "flows", "--fields", path, "--point", "0.5", f"--t={t}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --t must lie in (0, 0.1]") and err.count("\n") == 1

    def test_flow_over_step_budget_exit_1(self, tmp_path):
        # a rotation at angular speed 1e9 needs ~1e8 Taylor steps over t = 0.1
        path = write_fields(tmp_path, {"dim": 2, "fields": [
            [{"0,1": -1000000000}, {"1,0": 1000000000}], [{"1,0": 1}, {"0,1": 1}]]})
        proc = subprocess.run([sys.executable, "-m", "funcalg.cli", "lie", "flows",
                               "--fields", path, "--point", "1,0", "--t", "0.1"],
                              capture_output=True, text=True, env=_checkout_env(), timeout=60)
        assert proc.returncode == 1
        assert "Taylor steps" in proc.stderr and "Traceback" not in proc.stderr

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

    def test_unknown_suite_exit_2(self, capsys):
        assert run(["suite", "nope"]) == 2
        assert capsys.readouterr().err == 'error: "unknown suite \'nope\'"\n'

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

    @pytest.mark.parametrize("argv", [
        ["bloch", "--poly", "0,1", "--alpha", "nan"],
        ["bergman-norm", "--symbol", "z", "--p", "nan"],
        ["hardy", "norm", "--poly", "1,2", "--p", "inf"],
        ["hardy", "disc-membership", "--symbol", "z", "--tol", "nan"],
        ["toeplitz", "--symbol", "z", "--alpha", "inf"],
        ["lie", "flows", "--fields", "unread.json", "--t", "nan"],
        ["convolution", "--f", "z", "--g", "z", "--p", "1e400"],
    ], ids=["bloch-alpha", "bergman-p", "hardy-p", "disc-tol", "toeplitz-alpha", "lie-t",
            "convolution-p-overflow"])
    def test_non_finite_float_option_exit_2(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: expected a finite number" in err

    @pytest.mark.parametrize("m", ["-4", "0", "3"])
    def test_bad_boundary_grid_size_names_m_exit_2(self, m, capsys):
        assert run(["hardy", "disc-membership", "--symbol", "z", "--m", m]) == 2
        err = capsys.readouterr().err
        assert err == f"error: grid size must be a power of two, got {m}\n"

    @pytest.mark.parametrize("grid", [["--n-rad", "200000"], ["--n-ang", "3000000000"]],
                             ids=["n-rad", "n-ang"])
    def test_refused_allocation_exit_2(self, grid):
        # 298 GiB and 22.4 GiB arrays: an address-space limit on the child makes
        # numpy refuse them whatever memory the machine has
        code = ("import resource, runpy, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31)); "
                f"sys.argv = ['funcalg', 'toeplitz', '--symbol', 'z'] + {grid!r}; "
                "runpy.run_module('funcalg.cli', run_name='__main__')")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_checkout_env(), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: Unable to allocate")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("subgroup", ["0,99", "0,-1"])
    def test_subgroup_index_out_of_range_exit_2(self, subgroup, capsys):
        assert run(["gelfand", "check", "--group", "s3", "--subgroup", subgroup]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "0..5" in err

    @pytest.mark.parametrize("subgroup", ["0,99999999999999999999", "-99999999999999999999,0"])
    def test_subgroup_index_past_int64_exit_2(self, subgroup, capsys):
        assert run(["gelfand", "check", "--group", "s3", f"--subgroup={subgroup}"]) == 2
        err = capsys.readouterr().err
        assert err == "error: subgroup indices must lie in 0..5\n"

    def test_empty_group_table_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert run(["gelfand", "check", "--group", str(path), "--subgroup", "0"]) == 2
        assert "empty group table" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["-1\n0\n", "2\n0 1\n1 x\n", "0\n", "1.5\n0\n",
                                      "2\n0 1\n1 99999999999999999999\n"],
                             ids=["order-minus-1", "stray-token", "order-0", "float-order",
                                  "entry-past-int64"])
    def test_malformed_group_table_exit_2(self, text, tmp_path, capsys):
        path = tmp_path / "group.txt"
        path.write_text(text)
        assert run(["gelfand", "check", "--group", str(path), "--subgroup", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("symbol", ["1/(z-1)", "z/0", "1e300*z^64*1e300"])
    def test_disc_membership_non_finite_symbol_exit_1(self, symbol, capsys):
        # NaN compares False with any tolerance, so it would read as a non-member
        assert run(["hardy", "disc-membership", f"--symbol={symbol}"]) == 1
        assert tuple(capsys.readouterr()) == (
            "", "numerical failure: symbol is not finite on the boundary grid\n")

    @pytest.mark.parametrize("symbol", ["z/0", "abs2(z)^64 * 1e300", "1/0"])
    def test_numerical_failure_prints_one_line(self, symbol):
        proc = subprocess.run([sys.executable, "-m", "funcalg.cli", "bergman-norm",
                               f"--symbol={symbol}"],
                              capture_output=True, text=True, env=_checkout_env(), timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("numerical failure: ")
        assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr

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
            "print([m for m in sys.modules if m == 'sympy' or m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["toeplitz", "--symbol", "z*conj(z)", "--cutoff", "3"],
    ["hardy", "kernel", "--z", "0.3+0.2j", "--xi", "1j"],
    ["bloch", "--poly", "0,0,1", "--alpha", "1.5"],
    ["colombeau", "rate", "--f", "abs", "--q", "2", "--alpha", "1"],
    ["suite", "hardy"],
])
def test_cli_runs_with_scipy_blocked(argv):
    code = ("import runpy, sys; sys.modules['scipy'] = None; "
            f"sys.argv = ['funcalg'] + {argv!r}; "
            "runpy.run_module('funcalg.cli', run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_checkout_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# layers load on first use: each check runs in a fresh interpreter
# ---------------------------------------------------------------------------

LOADED = "sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('funcalg.'))"
BASE = ["cli", "io", "numcore"]


def _python(code: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_checkout_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_bare_import_loads_no_layer_and_no_numpy():
    proc = _python("import sys, funcalg; "
                   "print([m for m in sys.modules if m.split('.')[0] in ('funcalg', 'numpy')])")
    assert proc.stdout.strip() == "['funcalg']"


@pytest.mark.parametrize("argv, layer", [
    (["hardy", "kernel", "--z=0.1+0.2i", "--xi=1"], "hardy"),
    (["toeplitz", "--symbol", "z*conj(z)", "--cutoff", "3"], "bergman"),
    (["bloch", "--poly", "0,0,1"], "bloch"),
    (["colombeau", "rate", "--f", "abs", "--alpha", "1"], "colombeau"),
    (["lie", "bracket", "--fields", "{fields}"], "liefields"),
    (["gelfand", "check", "--group", "s3", "--subgroup", "0,1"], "gelfand"),
], ids=["hardy-kernel", "toeplitz", "bloch", "colombeau-rate", "lie-bracket",
        "gelfand-check"])
def test_subcommand_loads_only_its_layer(argv, layer, tmp_path):
    fields = write_fields(tmp_path, {"dim": 2, "fields": [[{"0,1": 1}, {"0,0": 0}],
                                                          [{"0,0": 0}, {"1,0": 1}]]})
    argv = [a.format(fields=fields) for a in argv] + ["--out", str(tmp_path / "out")]
    proc = _python(f"import sys, funcalg.cli; code = funcalg.cli.main({argv!r}); "
                   f"print(code, {LOADED})")
    assert proc.stdout.strip() == f"0 {sorted(BASE + [layer])}"


@pytest.mark.parametrize("layer", funcalg.__all__)
def test_layer_attribute_after_bare_import(layer):
    proc = _python(f"import sys, funcalg; m = funcalg.{layer}; "
                   f"print(m is sys.modules['funcalg.{layer}'], m.__name__)")
    assert proc.stdout.split() == ["True", f"funcalg.{layer}"]


@pytest.mark.parametrize("name", ["nosuch", "suites", "cli"])
def test_unknown_attribute_raises_attribute_error(name):
    # suites and cli are submodules but not layers: they stay plain imports
    proc = _python(f"import sys, funcalg\n"
                   f"try:\n    funcalg.{name}\n"
                   f"except AttributeError as exc:\n    print(exc, {LOADED})")
    assert proc.stdout.strip() == f"module 'funcalg' has no attribute '{name}' []"


def _cli(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "funcalg.cli", *argv], capture_output=True,
                          text=True, env=_checkout_env(), timeout=60)


def test_field_error_exit_1_in_fresh_process(tmp_path):
    # a coefficient past float range: liefields raises FieldError, which main
    # reports as a numerical failure although the layer loaded after main began
    path = write_fields(tmp_path, {"dim": 1, "fields": [[{"1": "1" + "0" * 400}], [{"0": 1}]]})
    proc = _cli("lie", "flows", "--fields", path, "--point", "0.5")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "numerical failure: coefficient too large for a float flow\n"


def test_non_gelfand_spherical_exit_1_in_fresh_process():
    proc = _cli("gelfand", "spherical", "--group", "s4", "--subgroup", "0")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("property violated: ") and proc.stderr.count("\n") == 1
