"""Self-test of the benchmark harness, at tiny sizes and with no timing bounds.

    python3 bench/selftest.py

Checks that the oracles reproduce known values and reject a wrong answer,
that every workload runs both untraced and traced, checks its outputs and
prints every metric BENCHMARK.json names with its unit, and that the
benchmark refuses to run in a directory without the program.  Exits 0 when
everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import oracles as orc
import workloads as wl
from common import BENCH_DIR, OUT_DIR, ROOT, SRC, check_imported_from_checkout

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        FAILURES.append(what)


def test_oracles() -> None:
    expect(all(abs(orc.moment(0.0, k) - 1 / (k + 1)) < 1e-15 for k in range(20)),
           "unweighted moments are 1/(k+1)")
    expect(abs(orc.bloch_monomial(1.0, 2, 1.0) - 4 / (3 * math.sqrt(3))) < 1e-15,
           "Bloch seminorm of z^2 at alpha=1 is 4/(3 sqrt 3)")
    # [x d/dy, y d/dx] = x d/dx - y d/dy
    x = [{}, {(1, 0): 1}]
    y = [{(0, 1): 1}, {}]
    expect(orc.lie_bracket(x, y) == [{(1, 0): 1}, {(0, 1): -1}], "sl2 bracket")
    s3 = orc.symmetric_table(3)
    expect(orc.HeckeCounts(s3, orc.generated_subgroup(s3, 1)).gelfand, "(S3, S2) is Gelfand")
    d4 = orc.dihedral_table(4)
    expect(orc.HeckeCounts(d4, [0]).gelfand is False, "(D4, 1) is not Gelfand")
    expect(orc.taylor_rate("exp", 2) == 4.0 and orc.seminorm_rate("heaviside", 3) == -3.0,
           "known defect rates")


def test_checks_reject_wrong_answers() -> None:
    sys.path.insert(0, str(SRC))
    import funcalg
    import funcalg.io
    check_imported_from_checkout(funcalg)

    spec = {**wl.disc_block(0, 0, tiny=True)[0], "kind": "bergman.toeplitz_matrix",
            "alpha": 0.0, "cutoff": 4}
    out = wl.execute(spec, funcalg)
    expect(wl.check(spec, out)[0], "a correct Toeplitz matrix passes")
    out["value"] = out["value"].copy()
    out["value"][0, 0] += 1e-8
    expect(not wl.check(spec, out)[0], "a Toeplitz entry off by 1e-8 fails (exact rule)")
    spec["kind"] = "hardy.hardy_norm"
    spec["symbol"] = {"text": "(0.5+0.0j)*z^2", "terms": [(2, 0, 500, 0)]}
    spec["coeffs"] = wl.coeff_list_text(spec["symbol"])
    out = wl.execute(spec, funcalg)
    expect(wl.check(spec, out)[0], "a correct Hardy norm passes")
    out["value"] *= 1 + 1e-9
    expect(not wl.check(spec, out)[0], "a Hardy norm off by 1e-9 fails")


def run_bench(root, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


def test_workloads() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m_list, trace in ((spec["end_to_end"], "0"), (spec["per_layer"], "1")):
        for w in spec["workloads"]:
            res = run_bench(ROOT, "--workload", w["name"], "--seed", "1", "--seconds", "2",
                            "--trace", trace, "--tiny")
            try:
                out = json.loads(res.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{w['name']} trace={trace} prints a result: {res.stderr[-300:]}")
                continue
            expect(res.returncode == 0 and set(out) == {"correct", "attempted", "failed",
                                                        "metrics"},
                   f"{w['name']} trace={trace} exits 0 with the four keys")
            expect(out["correct"] and out["attempted"] >= 1 and out["failed"] == 0,
                   f"{w['name']} trace={trace}: {out['attempted']} checked, none failed")
            expect([k for k in out["metrics"]] == [m["name"] for m in m_list]
                   and all(out["metrics"][m["name"]]["unit"] == m["unit"] for m in m_list)
                   and all(isinstance(v["value"], (int, float)) for v in out["metrics"].values()),
                   f"{w['name']} trace={trace} prints every metric with its unit")


def test_refuses_without_program() -> None:
    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = run_bench(bare, "--workload", "disc", "--seed", "1", "--seconds", "2", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    last = res.stdout.strip().splitlines()[-1:] or [""]
    expect(res.returncode != 0 and not last[0].startswith("{"),
           "refuses to run where the program is absent")


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    test_oracles()
    test_checks_reject_wrong_answers()
    test_refuses_without_program()
    test_workloads()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
