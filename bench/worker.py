"""One measured process of an in-process workload (disc, algebra, suite_all).

Started by run.py with the checkout's src/ on PYTHONPATH.  It imports funcalg,
runs one untimed warm-up operation of each kind, reports its set-up time, and
then runs operations in a closed loop until ``--seconds`` have passed,
printing one JSON line per operation: only the call into funcalg is timed;
generating inputs and checking outputs happen outside that region.

    python3 bench/worker.py --workload disc --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

from common import OUT_DIR, CheckoutError, blas_threads, check_imported_from_checkout, emit
import workloads as wl

SETUP_WARMUP_SUITES = ("hardy", "gelfand")


def warm_up(fa, workload: str) -> None:
    """One untimed operation of each kind, at the smallest sizes."""
    if workload == "suite_all":
        for name in SETUP_WARMUP_SUITES:
            fa.suites.run_suite(name, seed=0)
        return
    seen = set()
    for spec in wl.BLOCKS[workload](0, -1, tiny=True):
        if spec["kind"] not in seen:
            seen.add(spec["kind"])
            wl.execute(spec, fa)


def import_and_warm(workload: str):
    """Set-up as a user pays it: the import, then (in-process workloads) one
    warm-up operation of each kind.  For cli it is the import of funcalg.cli."""
    t0 = time.perf_counter()
    import funcalg
    check_imported_from_checkout(funcalg)
    if workload == "cli":
        import funcalg.cli
    else:
        import funcalg.io
        import funcalg.suites
        warm_up(funcalg, workload)
    return funcalg, time.perf_counter() - t0


def versions() -> dict:
    import numpy
    import scipy
    import sympy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "sympy": sympy.__version__, "blas_threads": blas_threads()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.BLOCKS) + ["cli"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--start-op", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    try:
        fa, setup_s = import_and_warm(args.workload)
    except (CheckoutError, ImportError) as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 2
    emit({"setup_s": setup_s, "versions": versions()})
    if args.setup_only or args.workload == "cli":
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    blocks = wl.BLOCKS[args.workload]
    deadline = time.perf_counter() + args.seconds
    op = 0
    block = 0
    while time.perf_counter() < deadline:
        # a traced run alternates traced and untraced stretches of blocks, so
        # it measures its own tracing overhead on the same mix of operations
        stretch = wl.TRACE_STRETCH[args.workload]
        traced = tracer if tracer is not None and (block // stretch) % 2 == 0 else None
        for spec in blocks(args.seed, block, tiny=args.tiny):
            if op >= args.start_op:
                if time.perf_counter() >= deadline:
                    break
                emit({"start": op, "kind": spec["kind"], "block": block})
                emit(run_one(spec, fa, op, block, traced))
            op += 1
        block += 1
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-worker-{args.workload}-{args.seed}-{args.start_op}.jsonl"
        tracer.dump(path)
        emit({"spans": str(path)})
    emit({"done": True})
    return 0


def run_one(spec: dict, fa, op: int, block: int, tracer) -> dict:
    rec = {"op": op, "block": block, "kind": spec["kind"], "traced": tracer is not None}
    if tracer is not None:
        tracer.op = op
        tracer.install(fa)
    t0 = time.perf_counter()
    try:
        out = wl.execute(spec, fa)
    except Exception as exc:     # a failure of the program under test: count it
        rec.update(dt=time.perf_counter() - t0, ok=False, fault="exception",
                   why=f"{type(exc).__name__}: {exc}",
                   trace=traceback.format_exc(limit=-3))
        return rec
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec["dt"] = time.perf_counter() - t0
    ok, why, errs = wl.check(spec, out)
    rec.update(ok=ok, fault=None if ok else "mismatch", why=why, errs=errs)
    if ok and spec["kind"] == "suites.run_suite":
        rec["records"] = len(out)
        rec["failed_records"] = [r["name"] for r in out if not r["passed"]]
    if "group" in spec:
        rec["group_key"] = [spec["group"]["kind"], spec["group"]["n"], spec["group"]["members"]]
    if "n_rad" in spec:
        rec["grid_key"] = [spec["n_rad"], spec["n_ang"], spec["alpha"]]
    return rec


if __name__ == "__main__":
    sys.exit(main())
