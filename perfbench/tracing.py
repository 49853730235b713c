"""Timing wrappers for the traced run.

``install`` replaces each traced evikit function, in every module that
binds it, by a wrapper that counts its calls and adds up the time spent
inside it.  A function's self time is its time less the time spent in
the other traced functions it calls on the same thread.  The untraced
runs never call ``install``, so they time evikit unchanged.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

# metric name -> (module, attribute path) of each function it covers
TRACED = {
    "core.StatePoint.of": [("core", "StatePoint.of")],
    "spaces.pava_nondecreasing": [("spaces", "pava_nondecreasing")],
    "spaces.exact_flow_chart": [("core", "Space.exact_flow_chart"),
                                ("spaces", "CirSpace.exact_flow_chart"),
                                ("spaces", "QuadraticSpace.exact_flow_chart"),
                                ("spaces", "Wasserstein1DSpace.exact_flow_chart")],
    "flow.jko_step": [("flow", "jko_step")],
    "flow.flow_mms": [("flow", "flow_mms")],
    "flow.flow_exact": [("flow", "flow_exact")],
    "flow.verify_evi": [("flow", "verify_evi")],
    "flow.fit_quadratic_lower_bound": [("flow", "fit_quadratic_lower_bound")],
    "tataru.tataru_distance": [("tataru", "tataru_distance")],
    "tataru.tataru_batch": [("tataru", "tataru_batch")],
    "hj.solve_resolvent_1d": [("hj", "solve_resolvent_1d")],
    "hj.value_by_rollout": [("hj", "value_by_rollout")],
    "hj.verify_subsolution": [("hj", "verify_subsolution")],
    "hj.verify_supersolution": [("hj", "verify_supersolution")],
    "ekeland.tataru_matrix": [("ekeland", "tataru_matrix")],
    "ekeland.ekeland_optimize": [("ekeland", "ekeland_optimize")],
    "ekeland.quadruplicate": [("ekeland", "quadruplicate")],
    "cli.run": [("cli", "run")],
    "cli.write": [("cli", "_write_json"),
                  ("flow", "Trajectory.to_csv"),
                  ("flow", "EviReport.write_json"),
                  ("hj", "ResolventSolution.write_csv"),
                  ("hj", "ResolventSolution.write_json"),
                  ("ekeland", "QuadruplicationResult.write_json")],
}

# counters read from a traced call: name -> (function metric, reader)
COUNTERS = {
    "tataru.tataru_batch.pairs": ("tataru.tataru_batch", lambda args, result: len(args[1])),
    "hj.solve_resolvent_1d.iterations": ("hj.solve_resolvent_1d", lambda args, result: result[3]),
    "ekeland.ekeland_optimize.walk": ("ekeland.ekeland_optimize",
                                      lambda args, result: result.iterations),
}


def metric_units() -> dict[str, str]:
    """Every traced metric name with its unit."""
    units = {}
    for fn in TRACED:
        units.update({f"{fn}.calls": "count", f"{fn}.s": "s", f"{fn}.self_s": "s"})
    units.update(dict.fromkeys(COUNTERS, "count"))
    units["cli.write.bytes"] = "bytes"
    return units


class Tracer:
    """Per-function call counts, total and self times, and counters."""

    def __init__(self):
        self.totals = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.totals[name] += amount

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.totals)

    def wrap(self, name: str, fn, counters):
        calls, total, own = f"{name}.calls", f"{name}.s", f"{name}.self_s"

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)   # time of traced callees
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.totals[calls] += 1
                    self.totals[total] += elapsed
                    self.totals[own] += elapsed - inner
            for counter, read in counters:
                self.add(counter, read(args, result))
            return result
        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> None:
    """Replace every traced function in every evikit module binding it."""
    import importlib

    modules = [importlib.import_module(m) for m in
               ("evikit", "evikit.core", "evikit.potentials", "evikit.spaces", "evikit.flow",
                "evikit.tataru", "evikit.hj", "evikit.ekeland", "evikit.cli")]
    for name, targets in TRACED.items():
        counters = [(c, read) for c, (fn, read) in COUNTERS.items() if fn == name]
        for module_name, path in targets:
            owner = importlib.import_module(f"evikit.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(tracer.wrap(name, raw.__func__, counters)))
                continue
            wrapped = tracer.wrap(name, raw, counters)
            setattr(owner, attr, wrapped)
            if not outer:   # a module-level function: rebind its imports too
                for module in modules:
                    if module.__dict__.get(attr) is raw:
                        setattr(module, attr, wrapped)
