"""The suite record helpers can fail, and a fault in a module turns its record false."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import funcalg
from funcalg import bergman, bloch, colombeau, gelfand, hardy, suites


def by_name(records):
    return {r["name"]: r for r in records}


class TestMaxError:
    def test_passes_below_tolerance(self):
        rec = suites._max_error("p", [1e-12, 3e-11], 1e-10)
        assert rec == {"name": "p", "passed": True,
                       "detail": {"max_error": 3e-11, "tolerance": 1e-10}}

    def test_fails_above_tolerance(self):
        rec = suites._max_error("p", [1e-12, 2e-10, 0.0], 1e-10)
        assert rec["passed"] is False
        assert rec["detail"]["max_error"] == 2e-10

    def test_fails_at_tolerance(self):
        assert suites._max_error("p", [1e-10], 1e-10)["passed"] is False

    def test_empty_errors_read_zero(self):
        rec = suites._max_error("p", iter([]), 1e-10)
        assert rec["passed"] is True and rec["detail"]["max_error"] == 0.0


class TestSweep:
    def test_passes_when_every_pair_holds(self):
        rec = suites._sweep("s", [(1.0, 2.0), (3.0, 3.0)], 1e-9)
        assert rec == {"name": "s", "passed": True,
                       "detail": {"worst_gap": 0.0, "tolerance": 1e-9}}

    def test_fails_when_one_pair_breaks(self):
        rec = suites._sweep("s", [(1.0, 2.0), (3.5, 3.0), (0.0, 1.0)], 1e-9)
        assert rec["passed"] is False
        assert rec["detail"]["worst_gap"] == 0.5

    def test_boundary(self):
        # lhs == rhs + slack holds; anything above it does not
        assert suites._sweep("s", [(2.0, 1.0)], 1.0)["passed"] is True
        assert suites._sweep("s", [(2.0 + 2 ** -40, 1.0)], 1.0)["passed"] is False

    def test_consumes_every_pair(self):
        # a failing first pair must not stop a generator that draws the rest
        drawn = []

        def pairs():
            for lhs in (5.0, 0.0, 0.0):
                drawn.append(lhs)
                yield lhs, 1.0

        assert suites._sweep("s", pairs(), 1e-9)["passed"] is False
        assert drawn == [5.0, 0.0, 0.0]


class TestSlope:
    @staticmethod
    def power_net(order):
        eps = colombeau.default_ladder()
        return colombeau.EpsilonNet(epsilons=eps, values=eps ** order,
                                    meta={"K": (-1.0, 1.0), "alpha": 0})

    def test_passes_at_expected_slope(self):
        rec = suites._slope("r", self.power_net(3), 3)
        assert rec["passed"] is True
        assert rec["detail"]["slope"] == pytest.approx(3.0, abs=1e-9)
        assert rec["detail"]["expected"] == 3
        assert rec["detail"]["tolerance"] == 0.2

    @pytest.mark.parametrize("expected", [2.7, 3.3, -3])
    def test_fails_away_from_expected(self, expected):
        assert suites._slope("r", self.power_net(3), expected)["passed"] is False


class TestFaultsShow:
    def test_perturbed_conjugate_symbol_fails_hardy_adjoint(self, monkeypatch):
        conjugate = hardy.conjugate_symbol
        monkeypatch.setattr(hardy, "conjugate_symbol", lambda c: conjugate(c) * (1 + 1e-15))
        records = by_name(suites.hardy_suite(seed=0))
        assert records["Hardy-Toeplitz adjoint"]["passed"] is False
        assert records["Hardy-Toeplitz adjoint"]["detail"]["max_error"] > 0.0
        assert all(r["passed"] for name, r in records.items()
                   if name != "Hardy-Toeplitz adjoint")

    def test_transposed_toeplitz_fails_hardy_linearity(self, monkeypatch):
        toeplitz = hardy.hardy_toeplitz
        monkeypatch.setattr(hardy, "hardy_toeplitz",
                            lambda c, n: type(toeplitz(c, n))(toeplitz(c, n).entries.T))
        rec = by_name(suites.hardy_suite(seed=0))["Hardy-Toeplitz linearity"]
        assert rec["passed"] is False and rec["detail"]["max_error"] > 1.0

    def test_inflated_convolution_fails_the_circle_sweep(self, monkeypatch):
        convolve = bergman.circle_convolution
        monkeypatch.setattr(bergman, "circle_convolution",
                            lambda f, g: type(f)(3.0 * convolve(f, g).samples))
        rec = by_name(suites.bergman_suite(seed=0))["convolution norm submultiplicativity"]
        assert rec["passed"] is False and rec["detail"]["worst_gap"] > 0.0
        assert rec["detail"]["checked_on"] == "circle, 256 points"

    def test_inflated_seminorm_fails_gelfand_sweep(self, monkeypatch):
        seminorm = gelfand.phi_seminorm
        monkeypatch.setattr(gelfand, "phi_seminorm", lambda f, phi, g: 0.5 * seminorm(f, phi, g))
        records = by_name(suites.gelfand_suite(seed=0))
        rec = records["weighted seminorm submultiplicativity"]
        assert rec["passed"] is False and rec["detail"]["worst_gap"] > 0.0

    def test_scaled_spherical_functions_fail_plancherel(self, monkeypatch):
        name = "Plancherel dimensions are integers summing to the index"
        rec = by_name(suites.gelfand_suite(seed=0))[name]
        assert rec["passed"] is True
        assert rec["detail"]["dimensions"] == {
            "S3/<transposition>": [1, 2], "S4/S3": [1, 3], "S4/S2xS2": [1, 2, 3],
            "D5/<s>": [1, 2, 2], "Z6/1": [1] * 6}
        spherical = gelfand.spherical_functions
        monkeypatch.setattr(gelfand, "spherical_functions",
                            lambda *args, **kwargs: [1.01 * phi for phi in
                                                     spherical(*args, **kwargs)])
        rec = by_name(suites.gelfand_suite(seed=0))[name]
        assert rec["passed"] is False and rec["detail"]["max_error"] > 1e-3

    def test_dropped_spherical_function_fails_plancherel_sum(self, monkeypatch):
        # the remaining dimensions are still integers, but no longer sum to [G:K]
        spherical = gelfand.spherical_functions
        monkeypatch.setattr(gelfand, "spherical_functions",
                            lambda *args, **kwargs: spherical(*args, **kwargs)[:-1])
        rec = by_name(suites.gelfand_suite(seed=0))[
            "Plancherel dimensions are integers summing to the index"]
        assert rec["passed"] is False and rec["detail"]["max_error"] < 1e-9

    def test_nonlinear_regularization_fails_linearity(self, monkeypatch):
        # an error of 1e-9 relative to the terms; the slack scales with them
        regularize = colombeau.regularize
        monkeypatch.setattr(colombeau, "regularize",
                            lambda *args: regularize(*args) * (1 + 1e-9 * regularize(*args)))
        rec = by_name(suites.colombeau_suite(seed=0))["regularization linearity"]
        d = rec["detail"]
        assert rec["passed"] is False and d["max_error"] > d["tolerance"] * d["scale"] > 0

    def test_nonlinear_bloch_norm_fails_homogeneity(self, monkeypatch):
        # an error of 1e-9 relative to the norms; the tolerance is relative to them
        norm = bloch.bloch_norm
        monkeypatch.setattr(bloch, "bloch_norm",
                            lambda f, alpha=1.0: norm(f, alpha) * (1 + 1e-9 * norm(f, alpha)))
        rec = by_name(suites.bloch_suite(seed=0))["norm homogeneity"]
        assert rec["passed"] is False and rec["detail"]["max_error"] > rec["detail"]["tolerance"]

    def test_shifted_estimate_fails_every_rate(self, monkeypatch):
        estimate = colombeau.estimate_order

        def shifted(net, **kwargs):
            rep = estimate(net, **kwargs)
            return type(rep)(slope=rep.slope + 0.5, kind=rep.kind, order=rep.order)

        monkeypatch.setattr(colombeau, "estimate_order", shifted)
        failed = {r["name"] for r in suites.colombeau_suite(seed=0) if not r["passed"]}
        rates = {f"smooth regularization defect rate q={q}" for q in (0, 2, 4)}
        rates |= {"modulus-of-continuity defect rate for |t|",
                  "Heaviside derivative seminorm slope -1"}
        assert rates <= failed


def test_suites_take_only_a_seed():
    for suite in suites.SUITES.values():
        assert list(inspect.signature(suite).parameters) == ["seed"]


def test_all_prefixes_each_suite_in_table_order(monkeypatch):
    monkeypatch.setattr(suites, "SUITES", {
        "a": lambda seed: [suites._rec("x", True)],
        "b": lambda seed: [suites._rec("y", False, seed=seed)]})
    assert suites.run_suite("all", seed=4) == [
        {"name": "a: x", "passed": True, "detail": {}},
        {"name": "b: y", "passed": False, "detail": {"seed": 4}}]


def test_records_name_the_thresholds_their_pass_tests_use():
    records = by_name(suites.run_suite("all", seed=0))

    def detail(name):
        return records[name]["passed"], records[name]["detail"]

    passed, d = detail("hardy: Hardy-Toeplitz adjoint")
    assert d["tolerance"] == 0.0 and passed is (d["max_error"] <= d["tolerance"])
    passed, d = detail("gelfand: convolution unit and associativity")
    assert d["tolerance"] == 1e-12
    assert passed is (max(d["unit_error"], d["associativity_error"]) < d["tolerance"])
    passed, d = detail("gelfand: Z4 spherical functions are the characters")
    assert d["decimals"] == 9 and passed
    passed, d = detail("lie: flow-commutator first-order convergence")
    assert d["threshold"] == 0.9 and passed is (d["slope"] >= d["threshold"])
    for q in (0, 2, 4):
        passed, d = detail(f"colombeau: mollifier q={q} moments")
        assert (d["mass_tolerance"], d["tolerance"]) == (1e-10, 1e-9)
        assert passed is (d["mass_error"] < d["mass_tolerance"]
                          and d["max_moment"] < d["tolerance"])
    passed, d = detail("colombeau: product defect nonzero for |t| pair (non-subalgebra)")
    assert (d["threshold"], d["coarse_threshold"]) == (1e-10, 1e-9)
    assert passed is (d["min_defect"] > d["threshold"]
                      and d["defect_at_2pow_minus4"] > d["coarse_threshold"])
    passed, d = detail("colombeau: exact power-law slope")
    assert d["tolerance"] == 0.01 and passed and abs(d["slope"] - 3.0) <= d["tolerance"]
    passed, d = detail("colombeau: L1 embedding sup bound")
    assert (d["cells"], d["k_points"], d["tolerance"]) == (20000, 201, 1e-12) and passed
    passed, d = detail("bloch: seminorm of z^2 at alpha=1")
    assert d["tolerance"] == 1e-12 and passed
    assert passed is bool(d["error"] < d["tolerance"] and d["value"] <= d["expected"] <= d["upper"])
    passed, d = detail("bloch: norm homogeneity")
    assert d["tolerance"] == 1e-12 and passed is (d["max_error"] < d["tolerance"])
    passed, d = detail("bloch: norm subadditivity")
    assert d["tolerance"] == 1e-12 and passed is (d["worst_gap"] <= d["tolerance"])
    passed, d = detail("colombeau: regularization linearity")
    assert d["tolerance"] == 1e-10 and d["scale"] > 0
    assert passed is (d["max_error"] < d["tolerance"] * d["scale"])


@pytest.mark.parametrize("name, layer", [
    ("bergman", "bergman"), ("bloch", "bloch"), ("hardy", "hardy"), ("gelfand", "gelfand"),
    ("lie", "liefields"), ("colombeau", "colombeau")])
def test_suite_loads_only_its_layer(name, layer):
    # a fresh interpreter: importing suites loads numcore only, running one
    # suite adds the layer it checks and no other
    package_root = str(Path(funcalg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from funcalg import suites; "
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('funcalg.')); "
            f"print(loaded()); suites.run_suite({name!r}); print(loaded())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['funcalg.numcore', 'funcalg.suites']",
        str(sorted({"funcalg.numcore", "funcalg.suites", f"funcalg.{layer}"}))]
