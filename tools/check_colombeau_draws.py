"""Run every colombeau case the bench's ``algebra`` workload can draw through
the bench's own ``execute`` and ``check``, and exit 1 on any miss.

The ladder cases are (kind, q, f, alpha): taylor_defect over q in {0, 2, 4}
and the catalog without heaviside (21), and seminorm_net over q, the whole
catalog and alpha in {1, 2, 3} (72).  The L1 cases are (q, f, eps) with eps in
2^-2 .. 2^-6 (120).  The draws are deterministic in these fields, so these 213
cases are all the workload can ask; the script also draws the colombeau specs
of many blocks and fails if one falls outside them.

    python3 tools/check_colombeau_draws.py

It checks the funcalg of this checkout, under src/.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads as wl  # noqa: E402

import funcalg  # noqa: E402

BLOCKS = 200        # algebra blocks drawn per seed to confirm the list covers them


def all_cases() -> list[dict]:
    """Specs shaped like the drawn ones: every spec carries alpha and eps, and
    the fields a kind ignores hold 1 and 2^-2."""
    cases = []
    for q, f in itertools.product((0, 2, 4), wl.CATALOG):
        base = {"q": q, "f": f, "alpha": 1, "eps": 0.25}
        if f != "heaviside":
            cases.append({**base, "kind": "colombeau.taylor_defect"})
        cases += [{**base, "kind": "colombeau.seminorm_net", "alpha": a} for a in (1, 2, 3)]
        cases += [{**base, "kind": "colombeau.l1_embedding_bound", "eps": 2.0 ** -j}
                  for j in range(2, 7)]
    return cases


def key(spec: dict) -> tuple:
    """The fields a kind reads: alpha only for seminorm_net, eps only for L1."""
    kind = spec["kind"]
    return (kind, spec["q"], spec["f"],
            spec["alpha"] if kind == "colombeau.seminorm_net" else None,
            spec["eps"] if kind == "colombeau.l1_embedding_bound" else None)


def main() -> int:
    cases = all_cases()
    drawn = {key(s) for seed, block in itertools.product((1, 11), range(BLOCKS))
             for s in wl.algebra_block(seed, block) if s["kind"].startswith("colombeau.")}
    failures = [f"drawn but not listed: {k}" for k in drawn - {key(c) for c in cases}]
    for spec in cases:
        ok, why, _ = wl.check(spec, wl.execute(spec, funcalg))
        if not ok:
            failures.append(f"{key(spec)}: {why}")
    counts = dict(Counter(c["kind"] for c in cases))
    print(f"{len(cases)} cases {counts}, {len(drawn)} distinct drawn, "
          f"{len(failures)} failures")
    for line in failures:
        print("FAIL", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
