"""funcalg benchmark: one workload, one seed, one run; the last line of
standard output is the JSON result.

    python3 bench/run.py --workload disc --seed 1 --seconds 20 --trace 0

Workloads: disc, algebra, cli, suite_all (see workloads.py, cli_workload.py
and BENCHMARK.json).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is a separate run that records spans around every call into a
layer and reports the per-layer metrics.  ``--workload all`` runs every
workload both ways and prints every metric by name and unit.

The program is always the one in this checkout: children get
PYTHONPATH=<checkout>/src and refuse to run a funcalg imported from
elsewhere.  Closed loop, one caller, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time

import tracer as trc
from common import (BENCH_DIR, OUT_DIR, ROOT, CheckoutError, child_env, median,
                    percentile, provenance, require_checkout, run_child)

WORKLOADS = ("disc", "algebra", "cli", "suite_all")
SETUP_PROBES = 3            # fresh processes besides the measured worker
IMPORT_PROBES = 3
STARTUP_TIMEOUT_S = 60.0
OP_TIMEOUT_S = {"disc": 60.0, "algebra": 60.0, "suite_all": 90.0, "cli": 30.0}
PY = sys.executable

class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def probe_setup(workload: str, tiny: bool, result: dict) -> None:
    """Set-up time of one fresh process: import plus one warm-up of each kind."""
    res = run_child([PY, str(BENCH_DIR / "worker.py"), "--workload", workload, "--setup-only"]
                    + (["--tiny"] if tiny else []), STARTUP_TIMEOUT_S)
    if res.returncode != 0:
        raise BenchError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
    first = json.loads(res.stdout.splitlines()[0])
    result["setup"].append(first["setup_s"])
    result["versions"] = first["versions"]


def probe_import_ms() -> float:
    walls = []
    for _ in range(IMPORT_PROBES):
        res = run_child([PY, "-c", "import funcalg"], STARTUP_TIMEOUT_S)
        if res.returncode != 0:
            raise BenchError(f"import funcalg failed: {res.stderr.strip()[-500:]}")
        walls.append(res.wall_s * 1000.0)
    return median(walls)


# ---------------------------------------------------------------------------
# in-process workloads: a worker process streams one line per operation
# ---------------------------------------------------------------------------

class LineReader:
    """Lines from a pipe, each awaited for at most a given time."""

    def __init__(self, fd: int):
        self.fd = fd
        self.buf = b""

    def readline(self, timeout: float):
        end = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = end - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return "timeout"
            chunk = os.read(self.fd, 65536)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)


def run_inprocess(args, result: dict) -> list:
    """Run workers until the window closes; a hung or crashed operation is
    counted as failed and a fresh worker continues with the next one."""
    ops: list[dict] = []
    start_op = 0
    window_end = None
    timeout = OP_TIMEOUT_S[args.workload]
    while window_end is None or time.perf_counter() < window_end:
        seconds = args.seconds if window_end is None else window_end - time.perf_counter()
        err_path = OUT_DIR / f"worker-{os.getpid()}.err"
        with open(err_path, "wb") as err_fh:
            proc = subprocess.Popen(
                [PY, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
                 "--start-op", str(start_op)] + (["--tiny"] if args.tiny else []),
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err_fh)
        reader = LineReader(proc.stdout.fileno())
        pending = None
        finished = False
        try:
            first = reader.readline(STARTUP_TIMEOUT_S)
            if not isinstance(first, dict):
                raise BenchError("worker did not start: " + err_path.read_text()[-800:])
            result["setup"].append(first["setup_s"])
            result["versions"] = first["versions"]
            if window_end is None:
                window_end = time.perf_counter() + args.seconds
            while True:
                line = reader.readline(timeout if pending else STARTUP_TIMEOUT_S)
                if not isinstance(line, dict):
                    if pending is None:
                        raise BenchError("worker stopped between operations: "
                                         + err_path.read_text()[-800:])
                    fault = "timeout" if line == "timeout" else "crash"
                    why = (f"timeout after {timeout:.0f} s" if line == "timeout"
                           else "worker died: " + err_path.read_text()[-300:])
                    ops.append({"op": pending["start"], "block": pending["block"],
                                "kind": pending["kind"], "traced": bool(args.trace),
                                "dt": timeout, "ok": False, "fault": fault, "why": why,
                                "errs": {}})
                    start_op = pending["start"] + 1
                    break
                if "start" in line:
                    pending = line
                elif "op" in line:
                    ops.append(line)
                    pending = None
                elif "spans" in line:
                    result["span_files"].append(line["spans"])
                elif "done" in line:
                    finished = True
                    return ops
        finally:
            if not finished:
                proc.kill()
            # reap it here, for its own peak RSS, killed or not
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            result["rss"].append(usage.ru_maxrss / 1024.0)
            proc.stdout.close()
            err_path.unlink(missing_ok=True)
    return ops


# ---------------------------------------------------------------------------
# cli workload: the parent runs each call as a subprocess
# ---------------------------------------------------------------------------

def run_cli(args, result: dict) -> list:
    import cli_workload as cw

    ops: list[dict] = []
    op = block = 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        traced = bool(args.trace) and block % 2 == 0
        for spec in cw.cli_block(args.seed, block, op, tiny=args.tiny):
            if time.perf_counter() >= deadline:
                break
            for path, text in spec["files"].items():
                path.write_text(text)
            env = None
            if traced:
                spans_path = OUT_DIR / f"spans-cli-{os.getpid()}-{op}.jsonl"
                argv = [PY, str(BENCH_DIR / "cli_shim.py")] + spec["argv"]
                env = {"FUNCALG_BENCH_OP": str(op), "FUNCALG_BENCH_SPANS": str(spans_path)}
            else:
                argv = [PY, "-m", "funcalg.cli"] + spec["argv"]
            res = run_child(argv, OP_TIMEOUT_S["cli"], env)
            for path in spec["files"]:
                path.unlink(missing_ok=True)
            if res.timed_out:
                ok, fault, why, errs = False, "timeout", f"timeout after {res.wall_s:.0f} s", {}
            else:
                ok, why, errs = cw.check_call(spec, res.returncode, res.stdout, res.stderr)
                fault = None if ok else "mismatch"
            ops.append({"op": op, "block": block, "kind": spec["kind"], "traced": traced,
                        "dt": res.wall_s, "ok": ok, "fault": fault, "why": why, "errs": errs})
            result["rss"].append(res.maxrss_mb)
            if traced:
                result["cli_spans"].append((f"cli.{spec['kind']}", res.wall_s, op, not ok,
                                            spans_path))
            op += 1
        block += 1
    return ops


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def attempted_failed(workload: str, ops: list) -> tuple[int, int]:
    """Operations, except on suite_all: property records, as the suite reports them."""
    if workload != "suite_all":
        return len(ops), sum(not o["ok"] for o in ops)
    attempted = failed = 0
    for o in ops:
        n = o.get("records", 0)
        if o["ok"] and n:
            attempted += n
            failed += len(o["failed_records"])
        else:
            attempted += max(n, 1)
            failed += max(n, 1)
    return attempted, failed


def latencies_ms(workload: str, ops: list) -> list:
    # a failed operation misses any latency limit: charge it the timeout
    return [1000.0 * (o["dt"] if o["ok"] else OP_TIMEOUT_S[workload]) for o in ops]


def throughput(ops: list) -> float:
    busy = sum(o["dt"] for o in ops)
    return sum(o["ok"] for o in ops) / busy if busy > 0 else 0.0


def end_to_end(args, ops: list, result: dict) -> dict:
    lat = latencies_ms(args.workload, ops)
    attempted, failed = attempted_failed(args.workload, ops)
    return {"ops_per_s": throughput(ops),
            "op_p50_ms": percentile(lat, 50),
            "op_p90_ms": percentile(lat, 90),
            "ok_frac": 1.0 - failed / attempted,
            "setup_s": median(result["setup"]),
            "peak_rss_mb": max(result["rss"])}


def collect_spans(result: dict) -> tuple[list, dict]:
    spans: list = []
    counts: dict = {}
    for path in result["span_files"]:
        s, c = trc.load(path, base=len(spans))
        spans += s
        counts.update(c)
        os.unlink(path)
    for name, wall, op, failed, path in result["cli_spans"]:
        spans.append([name, 0.0, wall, -1, op, int(failed)])
        if os.path.exists(path):
            s, c = trc.load(path, parent_of_root={op: len(spans) - 1}, base=len(spans))
            spans += s
            counts.update(c)
            os.unlink(path)
    return spans, counts


def per_layer(args, ops: list, result: dict, names: list) -> dict:
    spans, counts = collect_spans(result)
    traced = [o for o in ops if o["traced"]]
    untraced = [o for o in ops if not o["traced"]]
    agg = trc.aggregate(spans, sum(o["dt"] for o in traced),
                        {o["op"] for o in ops if not o["ok"]})
    out: dict = {}
    for layer, vals in agg["layers"].items():
        for key, val in vals.items():
            out[f"{layer}.{key}"] = val
    for o in traced:
        # an exception is charged above, to the span that raised; a wrong
        # answer, a hang or a crash to the layer the operation called
        if not o["ok"] and o["fault"] != "exception":
            layer = "cli" if args.workload == "cli" else o["kind"].split(".")[0]
            out[f"{layer}.failed"] += 1
    for fn, durs in agg["per_fn"].items():
        out[f"{fn}.p50_ms"] = 1000.0 * percentile(durs, 50)
    for o in ops:
        for key, err in o.get("errs", {}).items():
            out[f"{key}.max_err"] = max(out.get(f"{key}.max_err", 0.0), err)
    block0 = {o["op"] for o in ops if o["block"] == 0}
    for (op, counter), total in counts.items():
        if op in block0:
            out[counter] = out.get(counter, 0) + total
    for metric, key in (("disc.grid_repeat_frac", "grid_key"),
                        ("algebra.group_repeat_frac", "group_key")):
        keys = [json.dumps(o[key]) for o in ops if key in o]
        if keys:
            out[metric] = 1.0 - len(set(keys)) / len(keys)
    out["cli.import_ms"] = probe_import_ms()
    if traced and untraced and throughput(untraced) > 0:
        out["trace.overhead_frac"] = 1.0 - throughput(traced) / throughput(untraced)
    # a layer or function this workload does not reach reads 0
    return {name: out.get(name, 0) for name in names}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_workload(args, spec: dict) -> dict:
    require_checkout()
    OUT_DIR.mkdir(exist_ok=True)
    result = {"setup": [], "rss": [], "span_files": [], "cli_spans": [], "versions": {}}
    probes = 1 if args.tiny else SETUP_PROBES
    for _ in range(probes):
        probe_setup(args.workload, args.tiny, result)
    if args.workload == "cli":
        ops = run_cli(args, result)
    else:
        ops = run_inprocess(args, result)
    if not ops:
        raise BenchError("no operation completed in the window")
    attempted, failed = attempted_failed(args.workload, ops)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(args, ops, result, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = end_to_end(args, ops, result)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {"ops": ops, "attempted": attempted, "failed": failed, "names": names,
            "values": values, "units": units, "versions": result["versions"],
            "setup": result["setup"]}


def report(args, run: dict) -> dict:
    """Human-readable lines, a result file, and the final JSON object."""
    ops = run["ops"]
    env = provenance(run["versions"])
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    lat = latencies_ms(args.workload, ops)
    print(f"# samples: {len(ops)} operations, {len(ops) - int(0.9 * len(ops))} at or beyond "
          f"p90, failed_frac={run['failed'] / run['attempted']:.6g} "
          f"({run['failed']}/{run['attempted']}), setup samples={len(run['setup'])}")
    if not args.trace:
        print(f"# latency ms: min={min(lat):.4g} p50={percentile(lat, 50):.4g} "
              f"p90={percentile(lat, 90):.4g} max={max(lat):.4g}")
    for o in [o for o in ops if not o["ok"]][:20]:
        print(f"# FAIL op={o['op']} kind={o['kind']}: {o['why']}")
    for name in run["names"]:
        print(f"# {name} = {run['values'][name]!r} {run['units'][name]}")
    out = {"correct": run["failed"] == 0, "attempted": run["attempted"],
           "failed": run["failed"],
           "metrics": {n: {"value": run["values"][n], "unit": run["units"][n]}
                       for n in run["names"]}}
    path = OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json"
    path.write_text(json.dumps({"env": env, "setup_samples": run["setup"], **out},
                               indent=1, sort_keys=True))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured window; default run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs and one set-up probe (self-test only)")
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if args.workload == "all":
            for wl_name in WORKLOADS:
                for trace in (0, 1):
                    sub = argparse.Namespace(**{**vars(args), "workload": wl_name,
                                                "trace": trace})
                    print(json.dumps(report(sub, run_workload(sub, spec))), flush=True)
            return 0
        out = report(args, run_workload(args, spec))
    except (BenchError, CheckoutError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
