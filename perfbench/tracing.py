"""Span tracing from outside the program, by wrapping public callables.

A wrapper replaces a name where its caller looks it up, for example
``semilind.harness.experiments.wigner_of_density`` or
``semilind.quantum.solve_ivp``.  Each call records a span (name, parent,
start, end); spans stay in memory and are written when the run ends.
Nothing under ``src/`` changes.  A target that a later version of the
program no longer has is skipped and listed in ``Tracer.missing``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

LAYERS = ("symbols", "gaussian", "semiclassical", "doubled", "quantum", "harness")

# Root span around run_experiment / run_portrait.  Its own (self) time is
# the harness glue the other spans do not cover.
ROOT = "harness.run"

# The top-level spans (children of ROOT) must cover at least this share of
# the traced wall time; the rest is unwrapped harness code.
MAX_UNACCOUNTED_SHARE = 0.10

# (module, attribute, span name).  Dotted attributes patch a class member.
TARGETS = [
    ("semilind.harness.experiments", "integrate", "semiclassical.integrate"),
    ("semilind.harness.experiments", "drift_x", "semiclassical.drift_x"),
    ("semilind.semiclassical", "drift_field", "semiclassical.drift_field"),
    ("semilind.harness.experiments", "propagate_superposition", "doubled.propagate_superposition"),
    ("semilind.doubled", "build_k", "doubled.build_k"),
    ("semilind.quantum", "weyl_quantize", "quantum.weyl_quantize"),
    ("semilind.harness.experiments", "integrate_master", "quantum.integrate_master"),
    ("semilind.harness.experiments", "wigner_of_density", "quantum.wigner_of_density"),
    ("semilind.harness.experiments", "moments_of_density", "quantum.moments_of_density"),
    ("semilind.harness.experiments", "eval_wigner", "gaussian.eval_wigner"),
    ("semilind.harness.experiments", "moments", "gaussian.moments"),
    ("semilind.harness.experiments", "write_observables", "harness.serialize"),
    ("semilind.harness.experiments", "trajectory_to_csv", "harness.serialize"),
    ("semilind.harness.experiments", "component_csv", "harness.serialize"),
    ("semilind.gaussian", "WignerGrid.to_text", "harness.serialize"),
    ("semilind.gaussian", "WignerGrid.to_json", "harness.serialize"),
    ("semilind.symbols", "PolyBatch.__call__", "symbols.PolyBatch"),
    ("semilind.symbols", "PolySymbol.eval", "symbols.PolySymbol.eval"),
]

# Modules whose ``solve_ivp`` is wrapped: the right-hand side gets a span
# per call and the solution's ``nfev`` is counted under the prefix.
ODE_TARGETS = [
    ("semilind.semiclassical", "semiclassical"),
    ("semilind.doubled", "doubled"),
    ("semilind.quantum", "quantum.master"),
]


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return traced

    def _wrap_solve_ivp(self, prefix: str, solve_ivp):
        tracer = self

        @functools.wraps(solve_ivp)
        def traced(fun, *args, **kwargs):
            sol = solve_ivp(tracer.wrap(f"{prefix}.rhs", fun), *args, **kwargs)
            tracer.counts[f"{prefix}.nfev"] += int(sol.nfev)
            return sol

        return traced

    def _wrap_quantum_jump(self, quantum_jump):
        tracer = self

        @functools.wraps(quantum_jump)
        def traced(*args, **kwargs):
            ens = quantum_jump(*args, **kwargs)
            tracer.counts["quantum.quantum_jump.trajectories"] += int(ens.n_traj)
            tracer.counts["quantum.quantum_jump.jumps"] += int(ens.jump_counts.sum())
            return ens

        return traced

    def _patch(self, module: str, attr: str, make) -> None:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        setattr(owner, leaf, make(original))

    def install(self) -> None:
        """Patch every target; call after the program is imported."""
        for module, attr, name in TARGETS:
            self._patch(module, attr, functools.partial(self.wrap, name))
        for module, prefix in ODE_TARGETS:
            self._patch(module, "solve_ivp", functools.partial(self._wrap_solve_ivp, prefix))
        self._patch(
            "semilind.harness.experiments",
            "quantum_jump",
            lambda fn: self.wrap("quantum.quantum_jump", self._wrap_quantum_jump(fn)),
        )

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": dict(self.counts), "missing": self.missing}, fh)


def summarize(spans: list, counts: dict) -> dict:
    """Per-name totals, self time per layer and the top-level accounting."""
    total = defaultdict(float)
    calls = Counter()
    child = defaultdict(float)
    for name, parent, start, end in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_time = {layer: 0.0 for layer in LAYERS}
    for sid, (name, _, start, end) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child[sid]
    roots = [sid for sid, s in enumerate(spans) if s[0] == ROOT]
    wall = sum(spans[r][3] - spans[r][2] for r in roots)
    covered = sum(child[r] for r in roots)
    drift_in_drift_x = sum(
        1 for name, parent, _, _ in spans
        if name == "semiclassical.drift_field" and parent >= 0
        and spans[parent][0] == "semiclassical.drift_x"
    )
    return {
        "total": dict(total),
        "calls": dict(calls),
        "self": self_time,
        "wall_s": wall,
        "accounted_share": covered / wall if wall > 0 else 0.0,
        "drift_field_in_drift_x": drift_in_drift_x,
        "counts": dict(counts),
    }


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(summary: dict, untraced_wall_s: float) -> dict:
    """The per-layer metric values named in BENCHMARK.json (0 where unused)."""
    tot, calls, cnt = summary["total"], summary["calls"], summary["counts"]

    def t(name):
        return tot.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    jumps_traj = cnt.get("quantum.quantum_jump.trajectories", 0)
    out = {
        "symbols.PolyBatch.calls": n("symbols.PolyBatch"),
        "symbols.PolyBatch.us_per_call": 1e6 * _per(t("symbols.PolyBatch"), n("symbols.PolyBatch")),
        "symbols.PolySymbol.eval.calls": n("symbols.PolySymbol.eval"),
        "symbols.PolySymbol.eval.s": t("symbols.PolySymbol.eval"),
        "semiclassical.integrate.s": t("semiclassical.integrate"),
        "semiclassical.integrate.nfev": cnt.get("semiclassical.nfev", 0),
        "semiclassical.rhs.us_per_call": 1e6 * _per(t("semiclassical.rhs"), n("semiclassical.rhs")),
        "semiclassical.drift_x.calls": n("semiclassical.drift_x"),
        "semiclassical.drift_x.us_per_call":
            1e6 * _per(t("semiclassical.drift_x"), n("semiclassical.drift_x")),
        "semiclassical.drift_field.per_drift_x":
            _per(summary["drift_field_in_drift_x"], n("semiclassical.drift_x")),
        "doubled.build_k.calls": n("doubled.build_k"),
        "doubled.build_k.s": t("doubled.build_k"),
        "doubled.propagate_superposition.s": t("doubled.propagate_superposition"),
        "doubled.nfev": cnt.get("doubled.nfev", 0),
        "doubled.rhs.us_per_call": 1e6 * _per(t("doubled.rhs"), n("doubled.rhs")),
        "quantum.weyl_quantize.calls": n("quantum.weyl_quantize"),
        "quantum.weyl_quantize.s": t("quantum.weyl_quantize"),
        "quantum.integrate_master.s": t("quantum.integrate_master"),
        "quantum.master.nfev": cnt.get("quantum.master.nfev", 0),
        "quantum.master.rhs.us_per_call":
            1e6 * _per(t("quantum.master.rhs"), n("quantum.master.rhs")),
        "quantum.quantum_jump.s": t("quantum.quantum_jump"),
        "quantum.quantum_jump.traj_per_s": _per(jumps_traj, t("quantum.quantum_jump")),
        "quantum.quantum_jump.jumps_per_traj":
            _per(cnt.get("quantum.quantum_jump.jumps", 0), jumps_traj),
        "quantum.wigner_of_density.s_per_frame":
            _per(t("quantum.wigner_of_density"), n("quantum.wigner_of_density")),
        "quantum.moments_of_density.us_per_call":
            1e6 * _per(t("quantum.moments_of_density"), n("quantum.moments_of_density")),
        "gaussian.eval_wigner.s_per_frame": _per(t("gaussian.eval_wigner"), n("gaussian.eval_wigner")),
        "gaussian.moments.us_per_call": 1e6 * _per(t("gaussian.moments"), n("gaussian.moments")),
        "harness.serialize.s": t("harness.serialize"),
        "harness.config.s": t("harness.config"),
        "trace.wall_s": summary["wall_s"],
        "trace.overhead_s": summary["wall_s"] - untraced_wall_s,
        "trace.accounted_share": summary["accounted_share"],
    }
    for layer in LAYERS:
        out[f"self.{layer}.s"] = summary["self"].get(layer, 0.0)
    return out
