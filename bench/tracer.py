"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the public functions of the package's modules
with wrappers, in every module that binds them (``periodic.flow_T`` as
well as ``integrate.flow_T``), and ``uninstall`` puts the originals back.
A wrapper records one span per call: name, start, end, the span that
caused it and the operation it belongs to.  Self time is a span's
duration minus the time its child spans cover.  The hottest callables get
counters instead of spans: the force closures handed out by
``force_closure``/``force_dz_closure`` and ``Trajectory.interp``.

Functions a later version removes or renames are simply not wrapped; their
rows read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("model", "integrate", "_newton", "periodic", "homotopy", "verify", "cli")
# model's per-point helpers are called millions of times; the force field is
# counted through the closures instead
SKIP = {"model": {"envelope_value", "envelope_d1", "envelope_d2", "envelope_log_value",
                  "envelope_log_abs_d1", "potential", "force", "force_dz", "potential_dt",
                  "fixed_point_test", "fixed_point_classify", "default_params",
                  "plane_regime", "admissibility_probe", "potential_closure",
                  "potential_dt_closure"}}
COUNTED_CLOSURES = {"force_closure": "model.force.evals",
                    "force_dz_closure": "model.force_dz.evals"}
MAX_SPANS = 200_000


def layer_name(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[list] = []     # [span id, child time]
        self._active = defaultdict(int)
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- span bookkeeping --------------------------------------------------

    def _span(self, name, fn, after=None, on_raise=None, before=None):
        calls, total, self_time, stack, active = (self.calls, self.total, self.self_time,
                                                  self._stack, self._active)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            state = before() if before else None
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise:
                    on_raise(exc)
                raise
            finally:
                t1 = perf()
                dur = t1 - t0
                stack.pop()
                active[name] -= 1
                if not active[name]:
                    total[name] += dur
                self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, parent, self.op, name, t0, t1))
            if after:
                after(result, state)
            return result

        return wrapper

    def _counting_factory(self, factory, counter):
        counts = self.counts

        @functools.wraps(factory)
        def make(*args, **kwargs):
            inner = factory(*args, **kwargs)

            def counted(t, z):
                counts[counter] += 1
                return inner(t, z)

            return counted

        return make

    # -- hooks for derived rows ----------------------------------------------

    def _hooks(self, name):
        c = self.counts
        if name == "integrate.integrate":
            def after(traj, _):
                c["integrate.steps"] += len(traj.times) - 1
            return dict(after=after)
        if name in ("newton.solve_fixed_point", "newton.solve_fixed_point_bracketed"):
            def after(res, _):
                c["newton.map_evals"] += res.iterations

            def on_raise(exc):
                if type(exc).__name__ == "NoConvergence":
                    c["newton.failed"] += 1
            return dict(after=after, on_raise=on_raise)
        if name == "homotopy.solve_at_lambda":
            def on_raise(exc):
                if type(exc).__name__ == "NoConvergence":
                    c["homotopy.solve_at_lambda.failed"] += 1
            return dict(on_raise=on_raise)
        if name == "periodic.scan_orbits":
            def before():
                return self.calls["periodic.find_periodic"]

            def after(orbits, n_before):
                c["periodic.scan_orbits.orbits"] += len(orbits)
                c["periodic.scan_orbits.find_periodic"] += self.calls["periodic.find_periodic"] - n_before
            return dict(before=before, after=after)
        return {}

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        mods = {}
        for short in MODULES:
            try:
                mods[short] = importlib.import_module(f"conveyor.{short}")
            except ImportError:
                continue
        wrapped = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or attr.startswith("_"):
                    continue
                home = fn.__module__.rpartition(".")[2]
                if not fn.__module__.startswith("conveyor.") or attr in SKIP.get(home, ()):
                    continue
                if fn not in wrapped:
                    if home == "model" and attr in COUNTED_CLOSURES:
                        wrapped[fn] = self._counting_factory(fn, COUNTED_CLOSURES[attr])
                    else:
                        name = layer_name(home, fn.__name__)
                        wrapped[fn] = self._span(name, fn, **self._hooks(name))
                self._patch(mod, attr, wrapped[fn])
        traj = getattr(mods.get("integrate"), "Trajectory", None)
        if traj is not None and hasattr(traj, "interp"):
            orig = traj.interp
            counts = self.counts

            def interp(obj, t):
                counts["integrate.Trajectory.interp.calls"] += 1
                return orig(obj, t)

            self._patch(traj, "interp", interp)
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain totals, also used to hand a child process's trace to its parent."""
        rows = {}
        for name, n in self.calls.items():
            rows[f"{name}.calls"] = n
            rows[f"{name}.total_s"] = self.total[name]
            rows[f"{name}.self_s"] = self.self_time[name]
        rows.update(self.counts)
        return rows

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")
