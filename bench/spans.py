"""Span recording around the public functions of each nogosuper layer.

The tracer replaces every public module-level function of a layer module,
in every nogosuper namespace (module globals and module-level dicts such as
``cli.COMMANDS``) that binds it, with a wrapper that records a span: name,
start, end, parent span, op id and whether it raised. Phase-policy calls are
caught at ``PhasePolicy.__call__``. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "nogosuper"
LAYERS = ("linalg", "states", "superposer", "discrimination", "pipeline", "cli")
PHASE_KINDS = {
    "ConstantPhase": "constant",
    "OverlapArgPhase": "overlap_arg",
    "CanonicalHashPhase": "canonical_hash",
}
# functions the per-layer table names, with the statistics it reports for each
NAMED = {
    "linalg.jacobi_eigh": ("calls", "self_s"),
    "linalg.numerical_rank": ("calls",),
    "linalg.max_eigenvalue_hermitian": ("self_s",),
    "linalg.gauss_jordan_inverse": ("self_s",),
    "linalg.orthonormal_span_basis": ("self_s",),
    "linalg.reciprocal_basis": ("self_s",),
    "states.canonicalize": ("calls", "self_s"),
    "states.normalize": ("calls",),
    "discrimination.build_usd": ("calls", "self_s"),
    "discrimination.success_probabilities": ("self_s",),
    "discrimination.born_distribution": ("calls",),
    "discrimination.simulate_usd": ("self_s",),
    "pipeline.apply_superposer_to_set": ("self_s",),
    "pipeline.apply_with_phases": ("self_s",),
    "pipeline.certify_independence": ("calls", "self_s"),
    "pipeline.scan_degeneracy_numeric": ("self_s",),
}
DEMO_ENTRY_PREFIX = "pipeline.forbidden_task_demo"
SCAN_KERNEL = "pipeline.scan_degeneracy_numeric"


class Tracer:
    """Records spans; `install` wraps the package, `uninstall` restores it."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start_ns, end_ns, raised)
        self.op = -1
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list = []

    def call(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        raised = True
        start = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
            raised = False
            return out
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end, raised))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def install(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
                    self.wrapped.add(f"{layer}.{name}")

        def replacement(obj):
            hit = wrappers.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for mod in modules:
            for name, obj in list(vars(mod).items()):
                new = replacement(obj)
                if new is not None:
                    self._undo.append((setattr, mod, name, obj))
                    setattr(mod, name, new)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        new = replacement(value)
                        if new is not None:
                            self._undo.append((dict.__setitem__, obj, key, value))
                            obj[key] = new

        policy = getattr(sys.modules.get(f"{PACKAGE}.superposer"), "PhasePolicy", None)
        if policy is not None and "__call__" in vars(policy):
            original = vars(policy)["__call__"]
            tracer = self

            def traced_call(self_, psi, phi):
                kind = PHASE_KINDS.get(type(self_).__name__, type(self_).__name__)
                return tracer.call(f"superposer.phase.{kind}", original, (self_, psi, phi), {})

            self._undo.append((setattr, policy, "__call__", original))
            policy.__call__ = traced_call
            self.wrapped.add("superposer.phase")
        return self

    def uninstall(self) -> None:
        for setter, target, key, value in reversed(self._undo):
            setter(target, key, value)
        self._undo.clear()

    def write(self, path: str) -> None:
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "raised")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _span_stats(spans):
    """Per-name calls, inclusive seconds, self seconds and raised count."""
    child_ns = defaultdict(int)
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "raised": 0})
    for sid, _, _, name, start, end, raised in spans:
        s = stats[name]
        s["calls"] += 1
        s["incl_s"] += (end - start) * 1e-9
        s["self_s"] += (end - start - child_ns[sid]) * 1e-9
        s["raised"] += raised
    return stats


def layer_metrics(tracer: Tracer, facts: dict, traced_s: float,
                  untraced_s: float) -> tuple[dict, list[str]]:
    """The per-layer metric table and the named functions absent at this commit.

    `facts` sums what the reports say (demo_trials, superposer_failures,
    conclusive, conclusive_attempts, grid_points, out_bytes); `traced_s` and
    `untraced_s` are the summed op latencies of the same ops with and
    without tracing.
    """
    stats = _span_stats(tracer.spans)
    root_s = sum(end - start for _, parent, _, _, start, end, _ in tracer.spans
                 if parent is None) * 1e-9
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        rows = [s for name, s in stats.items() if name.split(".")[0] == layer]
        self_s = sum(s["self_s"] for s in rows)
        metrics[f"{layer}.calls"] = sum(s["calls"] for s in rows)
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / root_s if root_s else 0.0
        metrics[f"{layer}.raised"] = sum(s["raised"] for s in rows)
    absent = sorted(name for name in NAMED if name not in tracer.wrapped)
    for name, keys in NAMED.items():
        for key in keys:
            metrics[f"{name}.{key}"] = stats[name][key] if name in stats else 0
    phase = {name: s for name, s in stats.items() if name.startswith("superposer.phase.")}
    metrics["superposer.phase.calls"] = sum(s["calls"] for s in phase.values())
    for kind in PHASE_KINDS.values():
        name = f"superposer.phase.{kind}"
        metrics[f"{name}.self_s"] = phase[name]["self_s"] if name in phase else 0.0
    if "superposer.phase" not in tracer.wrapped:
        absent.append("superposer.phase")

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    metrics["superposer.success_ratio"] = ratio(
        facts["demo_trials"] - facts["superposer_failures"], facts["demo_trials"])
    metrics["discrimination.conclusive_ratio"] = ratio(
        facts["conclusive"], facts["conclusive_attempts"])
    scan_s = stats[SCAN_KERNEL]["incl_s"] if SCAN_KERNEL in stats else 0.0
    metrics["pipeline.scan.ns_per_point"] = ratio(scan_s, facts["grid_points"], 1e9)
    demo = [s for name, s in stats.items() if name.startswith(DEMO_ENTRY_PREFIX)]
    metrics["pipeline.demo.self_s"] = sum(s["self_s"] for s in demo)
    metrics["pipeline.demo.ns_per_trial"] = ratio(
        sum(s["incl_s"] for s in demo), facts["demo_trials"], 1e9)
    metrics["cli.out_bytes"] = facts["out_bytes"]
    metrics["cli.ns_per_out_byte"] = ratio(metrics["cli.self_s"], facts["out_bytes"], 1e9)
    metrics["trace.overhead_frac"] = ratio(traced_s, untraced_s) - 1.0
    return metrics, absent
