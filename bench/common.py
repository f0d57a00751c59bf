"""Shared stdlib helpers of the benchmark: checkout layout, statistics,
child processes with per-child peak memory, and provenance.

Imports nothing from funcalg and nothing outside the standard library, so
the parent process of a run stays small and its own start-up cost does not
depend on the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


class CheckoutError(RuntimeError):
    """The checkout does not hold the code the benchmark must measure."""


def require_checkout() -> None:
    if not (SRC / "funcalg" / "__init__.py").is_file():
        raise CheckoutError(f"no funcalg package under {SRC}")


def child_env() -> dict:
    """Environment for every child: the checkout's src/ first on the path."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env


def check_imported_from_checkout(module) -> None:
    """Refuse to measure a funcalg that was imported from anywhere else."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise CheckoutError(f"funcalg imported from {path}, outside {SRC}")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0..100) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class ChildResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float
    timed_out: bool


def run_child(argv, timeout: float, extra_env: dict | None = None) -> ChildResult:
    """Run one child to completion; wall time, exit code and its own peak RSS.

    The child is reaped with ``os.wait4`` so that its ``ru_maxrss`` is its own,
    not the maximum over every child this process ever waited for.  A child
    that outlives ``timeout`` is killed and reported as timed out.
    """
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{os.getpid()}-{time.monotonic_ns()}"
    out_path = OUT_DIR / f"child-{tag}.out"
    err_path = OUT_DIR / f"child-{tag}.err"
    status = {}
    try:
        with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env={**child_env(), **(extra_env or {})},
                                    stdin=subprocess.DEVNULL, stdout=out_fh, stderr=err_fh)

            def reap():
                _, st, ru = os.wait4(proc.pid, 0)
                status["wall"] = time.perf_counter() - t0
                status["code"] = os.waitstatus_to_exitcode(st)
                status["rss"] = ru.ru_maxrss / 1024.0

            waiter = threading.Thread(target=reap, daemon=True)
            waiter.start()
            waiter.join(timeout)
            timed_out = waiter.is_alive()
            if timed_out:
                proc.kill()
                waiter.join()
            proc.returncode = status["code"]
        return ChildResult(status["code"], out_path.read_text(errors="replace"),
                           err_path.read_text(errors="replace"),
                           timeout if timed_out else status["wall"],
                           status["rss"], timed_out)
    finally:
        out_path.unlink(missing_ok=True)
        err_path.unlink(missing_ok=True)


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity, as the CLI contract requires."""
    def bad_constant(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=bad_constant)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def source_digest() -> str:
    """sha256 over src/funcalg/*.py; identifies the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((SRC / "funcalg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def blas_threads() -> str:
    """Thread count of the BLAS numpy loaded, read through its own API."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return f"{fn()} ({Path(lib).name})"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            return f"{os.environ[var]} (from {var})"
    return "unknown"


def provenance(versions: dict) -> dict:
    """Everything a result needs to say what was measured, and where."""
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **versions,
    }


def emit(obj) -> None:
    """One JSON line on stdout, flushed, for the reading side of a pipe."""
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()
