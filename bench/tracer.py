"""Spans around calls into funcalg's layers, recorded from the benchmark.

``Tracer.install`` replaces every public function of each layer module, in
every funcalg namespace that holds it (``from .x import f`` copies included,
and the suite table), with a wrapper that records a span: name, start, end,
parent span, operation id, and whether it raised.  ``uninstall`` puts the
originals back.  Spans stay in memory and are written out once, at the end.

A few boundaries also count work, so that counts are taken where the work
happens: quadrature nodes built, Toeplitz entries produced, double cosets
formed and epsilon points evaluated.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("numcore", "io", "bergman", "bloch", "hardy", "gelfand", "liefields",
          "colombeau", "suites", "cli")

# span name -> (counter, function of the returned value)
COUNTERS = {
    "numcore.build_disc_quadrature": ("numcore.nodes", lambda q: int(q.nodes.size)),
    "bergman.toeplitz_matrix": ("bergman.entries", lambda m: int(m.entries.size)),
    "gelfand.double_cosets": ("gelfand.cosets", len),
    "colombeau.seminorm_net": ("colombeau.eps_points", lambda net: len(net.epsilons)),
    "colombeau.taylor_defect": ("colombeau.eps_points", lambda net: len(net.epsilons)),
}


def span_name(layer: str, fn_name: str) -> str:
    if layer == "suites" and fn_name.endswith("_suite"):
        fn_name = fn_name[: -len("_suite")]
    return f"{layer}.{fn_name}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, t0, t1, parent, op, failed]
        self.counts: dict[tuple, int] = {}   # (op, counter) -> total
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                key = (self.op, counter[0])
                self.counts[key] = self.counts.get(key, 0) + counter[1](out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        if self._patches:
            return
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{package.__name__}.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = (fn, self.wrap(span_name(layer, attr), fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(package.__name__ + "."):
                continue
            for container in [vars(mod)] + [v for v in vars(mod).values()
                                           if isinstance(v, dict) and v is not vars(mod)]:
                for key, val in list(container.items()):
                    hit = wrappers.get(id(val))
                    if hit is not None and hit[0] is val:
                        self._patches.append((container, key, val))
                        container[key] = hit[1]

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            for (op, counter), total in sorted(self.counts.items()):
                fh.write(json.dumps(["#count", counter, op, total]) + "\n")


def load(path, parent_of_root: dict | None = None, base: int = 0):
    """Read a span file; spans without a parent are attached to
    ``parent_of_root[op]`` when given (a child process inside a parent span).
    Returns (spans with indices shifted by ``base``, counts)."""
    spans, counts = [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec[0] == "#count":
                counts[(rec[2], rec[1])] = counts.get((rec[2], rec[1]), 0) + rec[3]
                continue
            name, t0, t1, parent, op, failed = rec
            if parent >= 0:
                parent += base
            elif parent_of_root is not None:
                parent = parent_of_root.get(op, -1)
            spans.append([name, t0, t1, parent, op, failed])
    return spans, counts


def aggregate(spans: list, wall_s: float, failed_ops: set) -> dict:
    """Per-layer calls, busy, self, share and failed; per-function durations.

    busy time counts a layer's outermost spans only, so a layer calling itself
    is not counted twice; self time subtracts the time of direct children.
    A failed operation is charged to the innermost span that raised; an
    exception the caller expects (a failed operation it is not) is not.
    """
    child_time = [0.0] * len(spans)
    failed_child = [False] * len(spans)
    for name, t0, t1, parent, _, failed in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
            failed_child[parent] |= bool(failed)
    layers = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0}
              for layer in LAYERS}
    per_fn: dict[str, list[float]] = {}
    for i, (name, t0, t1, parent, _, failed) in enumerate(spans):
        layer = name.split(".", 1)[0]
        agg = layers[layer]
        dur = t1 - t0
        agg["calls"] += 1
        agg["self_s"] += dur - child_time[i]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            agg["busy_s"] += dur
        if failed and not failed_child[i] and spans[i][4] in failed_ops:
            agg["failed"] += 1
        per_fn.setdefault(name, []).append(dur)
    for agg in layers.values():
        agg["share"] = agg["busy_s"] / wall_s if wall_s > 0 else 0.0
    return {"layers": layers, "per_fn": per_fn}
