"""Seeded inputs and the operations of the four workloads.

Each workload turns a seed into a fixed list of operations, one "round".
The timed loop repeats whole rounds, so every run attempts the same
operations in the same proportions whatever its length.  An operation
returns a compact copy of the program's output; ``checks`` judges it after
the timed phase.

Parameter sets are drawn by stratified sampling: each of f0, b and z0 is
split into as many equal strata as there are sets, every stratum is used
once, and the seed decides the pairing and the position inside a stratum.
Two seeds therefore cover the same ranges evenly and differ in detail.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import K_PI, CliCase, ContinuationCase, Params, SweepCase, TrajCase

from conveyor import homotopy, integrate, model, periodic, verify

F0_RANGE = (0.5, 1.2)
B_RANGE = (60.0, 140.0)
Z0_RANGE = (0.3, 0.5)
# Lorentzian sets for the orbit solvers stay where the multiplier is below
# about 0.993: nearer the neutral value the reported residual of a
# certified orbit can exceed the certification tolerance (see CHANGES.md)
LORENTZIAN_ORBIT = dict(b=(80.0, 140.0), z0=(0.3, 0.4))


def strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    """n values in [lo, hi], one uniform draw per equal stratum, shuffled."""
    u = (np.arange(n) + rng.random(n)) / n
    rng.shuffle(u)
    return [float(lo + (hi - lo) * x) for x in u]


def draw_params(rng, kind: str, n: int, f0=F0_RANGE, b=B_RANGE, z0=Z0_RANGE) -> list[Params]:
    return [Params(kind, a, c, d)
            for a, c, d in zip(strata(rng, n, *f0), strata(rng, n, *b), strata(rng, n, *z0))]


def interleave(*groups):
    return [x for row in zip(*groups) for x in row]


@dataclass
class Op:
    case: object                   # frozen input description, read by the checker
    run: Callable[[], object]      # runs the operation, returns its output


# ---------------------------------------------------------------------------
# orbit-sweep


WINDOWS = {"lorentzian": (-4.5, 4.5, 64), "gaussian": (-1.0, 1.0, 21)}


def _sweep(p, lo, hi, n):
    rows = []
    for o in periodic.scan_orbits(p, lo, hi, n):
        e = verify.identity_energy(o)
        f = verify.identity_force(o)
        m = verify.multiplier_cross_check(p, o)
        rows.append(checks.OrbitRow(o.z_star, o.multiplier, o.residual, o.force_free,
                                    e.rel_residual, f.rel_residual,
                                    m.variational, m.finite_difference))
    return rows


def orbit_params(rng, n: int) -> list[list[Params]]:
    return [draw_params(rng, "lorentzian", n, **LORENTZIAN_ORBIT), draw_params(rng, "gaussian", n)]


class OrbitSweep:
    name = "orbit-sweep"
    sets_per_kind = 12

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        groups = [[SweepCase(q, *WINDOWS[q.kind]) for q in qs]
                  for qs in orbit_params(rng, self.sets_per_kind)]
        self.ops = [Op(c, partial(_sweep, c.params.conveyor(), c.lo, c.hi, c.n))
                    for c in interleave(*groups)]

    check = staticmethod(checks.check_sweep)


# ---------------------------------------------------------------------------
# continuation


def _continue(p):
    tr = homotopy.continue_to_one(p)
    return tr.converged, tuple((s.lambda_h, s.z0, s.residual, s.sup_norm) for s in tr.steps)


class Continuation:
    name = "continuation"
    sets_per_kind = 12

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        groups = [[ContinuationCase(q) for q in qs] for qs in orbit_params(rng, self.sets_per_kind)]
        self.ops = [Op(c, partial(_continue, c.params.conveyor())) for c in interleave(*groups)]

    check = staticmethod(checks.check_continuation)


# ---------------------------------------------------------------------------
# trajectories

# envelope classes: (kind, f0 range, b range); the plane ranges keep the
# lock rate 2 f0 k^2 (about 140 f0) well clear of b on either side
TRAJ_CLASSES = {
    "lorentzian": ("lorentzian", F0_RANGE, B_RANGE),
    "gaussian": ("gaussian", F0_RANGE, B_RANGE),
    "plane-rectilinear": ("plane", (0.8, 1.2), (60.0, 100.0)),
    "plane-oscillatory": ("plane", (0.3, 0.6), (100.0, 140.0)),
}
RELEASE_RANGE = (-1.5, 1.5)
DENSE_PERIODS = 16
DENSE_SAMPLES = 161
FINAL_PERIODS = 32


def _dense(p, z_i, t_end, ts):
    traj = integrate.integrate(p, model.force_closure(p), z_i, 0.0, t_end)
    return traj.sample(ts)


def _final(p, z_i, t_end):
    return integrate.propagate(p, model.force_closure(p), z_i, 0.0, t_end)


class Trajectories:
    name = "trajectories"
    sets_per_class = 8

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        groups = []
        for kind, f0r, br in TRAJ_CLASSES.values():
            qs = draw_params(rng, kind, self.sets_per_class, f0=f0r, b=br)
            lanes = tuple(zip(qs, strata(rng, len(qs), *RELEASE_RANGE)))
            t_ref = FINAL_PERIODS * max(q.conveyor().period for q in qs)
            ops = []
            for lane, (q, z_i) in enumerate(lanes):
                p = q.conveyor()
                t_dense, t_final = DENSE_PERIODS * p.period, FINAL_PERIODS * p.period
                ts = np.linspace(0.0, t_dense, DENSE_SAMPLES)
                ops.append(Op(TrajCase(lanes, lane, "dense", t_dense, DENSE_SAMPLES, t_ref),
                              partial(_dense, p, z_i, t_dense, ts)))
                ops.append(Op(TrajCase(lanes, lane, "final", t_final, 1, t_ref),
                              partial(_final, p, z_i, t_final)))
            groups.append(ops)
        self.ops = interleave(*groups)

    check = staticmethod(checks.check_trajectory)


# ---------------------------------------------------------------------------
# cli

CHILD_TIMEOUT_S = 120


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def run_child(argv, cwd, env) -> tuple[int, float]:
    """Run one process to its end: (exit code, wall seconds).

    ``os.waitpid`` returns the moment the child ends, without the polling
    sleeps of ``Popen.wait(timeout)``; an alarm bounds the wait instead.
    """
    t0 = time.perf_counter()
    with open(Path(cwd) / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status = os.waitpid(proc.pid, 0)
    except ChildTimeout:
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall


def vmhwm_mb(status_text: str) -> float:
    """Peak resident size of the process's own address space (VmHWM).

    ``ru_maxrss`` is no substitute: Linux starts a child's figure at the
    resident size of its parent at the fork, so a command started from this
    benchmark would report the benchmark's memory whenever that is larger.
    """
    kb = next(line.split()[1] for line in status_text.splitlines() if line.startswith("VmHWM:"))
    return int(kb) / 1024.0


PEAK_FILE = "vmhwm.txt"
# ``python -m conveyor.cli ARGS``, which also saves its /proc/self/status
# in PEAK_FILE of its working directory as it exits
CLI_MAIN = f"""
import atexit, runpy
def _peak():
    with open("/proc/self/status") as src, open({PEAK_FILE!r}, "w") as dst:
        dst.write(src.read())
atexit.register(_peak)
runpy.run_module("conveyor.cli", run_name="__main__", alter_sys=True)
"""


def cli_commands(rng) -> list[CliCase]:
    """The fixed command mix; the seed moves each command's inputs within
    a narrow band around the reference parameters.  ``verify`` keeps the
    reference parameters: on a few per cent of other sets its multiplier
    cross-check fails spuriously (see CHANGES.md)."""
    near = dict(f0=(0.7, 0.9), b=(90.0, 110.0), z0=(0.33, 0.41))
    sim, scan = draw_params(rng, "lorentzian", 2, **near)
    gau = draw_params(rng, "gaussian", 1, **near)[0]

    def flags(q: Params):
        return ["--envelope", q.kind, "--z0", repr(q.z0), "--f0", repr(q.f0),
                "--b", repr(q.b), "--k-pi", repr(K_PI)]

    z_i = strata(rng, 1, -1.0, 1.0)[0]
    t_sim = strata(rng, 1, 1.5, 2.0)[0]
    # fig1 is the median-cost command of the mix, so its cost stays fixed
    # and op_s does not move with the seed
    t_fig = 2.0
    return [
        CliCase("simulate", ("simulate", *flags(sim), "--zi", repr(z_i), "--t-end", repr(t_sim),
                             "--out", "traj.csv"), "traj.csv", sim, (z_i, t_sim)),
        CliCase("find-periodic", ("find-periodic", *flags(scan), "--out", "orbits.csv"),
                "orbits.csv", scan, (-4.5, 4.5, 64)),
        CliCase("continue", ("continue", *flags(gau), "--out", "branch.csv"), "branch.csv", gau, ()),
        CliCase("reproduce-fig1", ("reproduce", "fig1", "--t-end", repr(t_fig), "--out-dir", "."),
                "fig1.csv", checks.FIGURE_PARAMS["fig1"], (t_fig,)),
        CliCase("reproduce-pot2", ("reproduce", "pot2", "--out-dir", "."), "pot2.csv",
                checks.FIGURE_PARAMS["pot2"], ()),
        CliCase("reproduce-plane-limit", ("reproduce", "plane-limit", "--out-dir", "."),
                "plane_limit.csv", checks.FIGURE_PARAMS["plane-limit"], ()),
        CliCase("verify", ("verify", "--out", "report.json"), "report.json",
                checks.FIGURE_PARAMS["fig1"], ()),
    ]


@dataclass
class CliRun:
    code: int
    wall_s: float
    rss_mb: float | None
    output: bytes | None
    manifest: bytes | None


class Cli:
    """Each operation runs one command twice, one process at a time, with
    identical flags in two scratch directories."""

    name = "cli"

    def __init__(self, seed: int, root: Path, scratch: Path):
        rng = np.random.default_rng([seed, 4])
        self.root = root
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PYTHONSTARTUP", None)
        self.traced = False
        self.child_traces: list[Path] = []
        self.ops = [Op(c, partial(self._pair, c)) for c in cli_commands(rng)]

    def argv(self, case: CliCase, trace_file: Path | None) -> list[str]:
        if trace_file is None:
            return [sys.executable, "-c", CLI_MAIN, *case.args]
        return [sys.executable, str(self.root / "bench" / "cli_child.py"), str(trace_file), *case.args]

    def _pair(self, case: CliCase):
        runs = []
        for side in ("a", "b"):
            d = self.scratch / side
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
            trace_file = None
            if self.traced:
                trace_file = self.scratch / f"trace-{len(self.child_traces)}.json"
                self.child_traces.append(trace_file)
            code, wall = run_child(self.argv(case, trace_file), d, self.env)
            out = d / case.output
            man = out.with_suffix(".manifest.json")
            peak = d / PEAK_FILE
            rss = vmhwm_mb(peak.read_text()) if peak.is_file() else None
            runs.append(CliRun(code, wall, rss,
                               out.read_bytes() if out.is_file() else None,
                               man.read_bytes() if man.is_file() else None))
        return runs

    check = staticmethod(checks.check_cli)


def import_probe(root: Path, cwd: Path) -> float:
    """Wall time of a fresh interpreter importing ``conveyor.cli``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code, wall = run_child([sys.executable, "-c", "import conveyor.cli"], cwd, env)
    if code != 0:
        raise RuntimeError(f"importing conveyor.cli exited with {code}")
    return wall


def peak_rss_self_mb() -> float:
    with open("/proc/self/status") as f:
        return vmhwm_mb(f.read())


LIBRARY = {w.name: w for w in (OrbitSweep, Continuation, Trajectories)}


def build(name: str, seed: int, root: Path, scratch: Path):
    if name == Cli.name:
        return Cli(seed, root, scratch)
    return LIBRARY[name](seed)
