"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line so a full run reads as a checklist.
The heavy per-module sweeps are computed once per session through the shared
suites and asserted here at the stated tolerances.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import funcalg
from funcalg import suites


@pytest.fixture(scope="session")
def suite_records():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = {r["name"]: r for r in suites.SUITES[name](seed=0)}
        return cache[name]

    return get


def report(label, passed):
    print(f"\nacceptance {'PASS' if passed else 'FAIL'}: {label}")
    assert passed, label


def test_1_bergman_projection(suite_records):
    recs = suite_records("bergman")
    ok = (recs["projection fixes holomorphic polynomials"]["passed"]
          and recs["projection annihilates antiholomorphic monomials"]["passed"])
    report("1 Bergman projection fixes degree<=16 and kills conj(z)^k", ok)


def test_2_toeplitz_identities(suite_records):
    recs = suite_records("bergman")
    ok = all(recs[name]["passed"] for name in (
        "Toeplitz linearity",
        "Toeplitz adjoint",
        "Toeplitz positivity for nonnegative symbols",
        "holomorphic multiplicativity on leading blocks",
    ))
    report("2 Toeplitz linearity/adjoint/positivity/multiplicativity at N=16", ok)


def test_3_convolution_submultiplicativity(suite_records):
    recs = suite_records("bergman")
    ok = recs["convolution norm submultiplicativity"]["passed"]
    report("3 convolution norm submultiplicative on 100 trig pairs, p in {1,2,4}", ok)


def test_4_bloch(suite_records):
    recs = suite_records("bloch")
    ok = all(recs[name]["passed"] for name in (
        "seminorm of z^2 at alpha=1",
        "Mobius involution",
        "product bound (proof-level)",
    ))
    report("4 Bloch seminorm value, Mobius involution, product bound", ok)


def test_5_hardy(suite_records):
    recs = suite_records("hardy")
    ok = all(recs[name]["passed"] for name in (
        "p=2 Parseval cross-check",
        "Poisson mean one",
        "Szego/Poisson reproduction",
        "Hardy-Toeplitz linearity",
        "Hardy-Toeplitz adjoint",
        "analytic-symbol product on leading blocks",
    ))
    report("5 Hardy Parseval/Poisson/reproduction and Toeplitz identities", ok)


def test_6_gelfand(suite_records):
    recs = suite_records("gelfand")
    ok = all(recs[name]["passed"] for name in (
        "(S3, <transposition>) is a Gelfand pair",
        "spherical multiplicativity on basis pairs",
        "(Q8, trivial) rejected with witness",
        "weighted seminorm submultiplicativity",
    ))
    report("6 Gelfand detection, spherical multiplicativity, seminorm sweep", ok)


def test_7_lie(suite_records):
    recs = suite_records("lie")
    ok = all(recs[name]["passed"] for name in (
        "bracket antisymmetry (exact)",
        "self-bracket vanishes (exact)",
        "Jacobi identity (exact)",
        "order-1 prolongation is a bracket morphism (exact)",
        "flow-commutator first-order convergence",
    ))
    report("7 exact bracket identities, prolongation morphism, flow slope", ok)


def test_8_colombeau(suite_records):
    recs = suite_records("colombeau")
    ok = all(recs[name]["passed"] for name in (
        "mollifier q=0 moments",
        "mollifier q=2 moments",
        "mollifier q=4 moments",
        "smooth regularization defect rate q=0",
        "smooth regularization defect rate q=2",
        "smooth regularization defect rate q=4",
        "product defect slope for smooth pair",
        "product defect nonzero for |t| pair (non-subalgebra)",
        "L1 embedding sup bound",
    ))
    report("8 mollifier moments, defect rates, product defects, L1 bound", ok)


def test_9_determinism(tmp_path):
    # the child imports the same funcalg as this process, installed or not
    package_root = str(Path(funcalg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "funcalg.cli", "suite", "all",
             "--seed", "0", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(out.read_bytes())
    report("9 suite all --seed 0 reruns are byte-identical", outputs[0] == outputs[1])
