"""Checks of every operation's output against the independent reference
(``reference.py``) or against a property the method must have.

A check returns a list of problems; an empty list means the output passed.
Nothing here compares against a stored copy of earlier output.  The
reference solves run after the timed phase and are memoised per input, so
an input repeated in every round is solved once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

import reference

K_PI = 2.66

FIXED_POINT_TOL = 1e-9        # |P_ref(z*) - z*|
MULTIPLIER_REL_TOL = 1e-5     # program multiplier vs central difference of P_ref
PROGRAM_FD_TOL = 1e-3         # the program's own difference (h = 1e-6, noise ~1e-4), absolute
IDENTITY_TOL = 1e-6           # relative residual of the integral identities
FIELD_REL_TOL = 1e-9          # dz/dt and V columns against F and V evaluated here
TRAJ_TOL_ABS = 1e-6           # trajectory bound: grows linearly with time,
TRAJ_TOL_PER_S = 2e-6         # like the global error at the default tolerance
CLOSED_FORM_TOL = 1e-8        # scipy reference vs the package's plane closed form


@dataclass(frozen=True)
class Params:
    kind: str
    f0: float
    b: float
    z0: float = 1.0

    @property
    def k(self) -> float:
        return K_PI * math.pi

    def conveyor(self):
        from conveyor.model import ConveyorParams, EnvelopeSpec

        return ConveyorParams(self.f0, self.b, self.k, EnvelopeSpec(self.kind, self.z0))

    def field(self) -> reference.Field:
        return reference.Field(self.kind, self.f0, self.b, self.k, self.z0)


@dataclass(frozen=True)
class SweepCase:
    params: Params
    lo: float
    hi: float
    n: int


@dataclass(frozen=True)
class ContinuationCase:
    params: Params


@dataclass(frozen=True)
class TrajCase:
    lanes: tuple          # ((Params, z_i), ...) of one envelope kind, one reference solve
    lane: int
    mode: str             # "dense": samples on linspace(0, t_end, n); "final": z(t_end)
    t_end: float
    n: int
    t_ref: float          # horizon of the shared reference solve

    @property
    def params(self) -> Params:
        return self.lanes[self.lane][0]

    @property
    def z_i(self) -> float:
        return self.lanes[self.lane][1]


@dataclass(frozen=True)
class CliCase:
    label: str
    args: tuple
    output: str
    params: Params
    extra: tuple


class OrbitRow(NamedTuple):
    z_star: float
    multiplier: float
    residual: float
    force_free: bool
    energy_rel: float
    force_rel: float
    mc_variational: float
    mc_finite_difference: float


FIGURE_PARAMS = {
    "fig1": Params("lorentzian", 0.8, 100.0, 0.37),
    "pot2": Params("gaussian", 0.8, 100.0, 0.37),
    "plane-limit": Params("plane", 0.8, 100.0),
}
FIG1_RELEASES = tuple(float(z) for z in np.linspace(-4.5, 4.5, 10))
FIG1_SAMPLES = 1001
PLANE_LIMIT_T = 1500.0
CSV_HEADERS = {
    "simulate": ["t_s", "z_lambda", "dzdt", "V"],
    "find-periodic": ["z_star", "multiplier", "residual", "sup_norm"],
    "continue": ["lambda", "z0", "residual", "sup_norm"],
    "reproduce-fig1": ["z_i", "t_s", "z_lambda"],
    "reproduce-pot2": ["z_lambda", "V"],
    "reproduce-plane-limit": ["t_s", "z_lambda"],
}
VERIFY_CHECKS = {
    *(f"fixed_point_scan[{k}]" for k in ("plane", "lorentzian", "gaussian")),
    *(f"{c}[{k}]" for c in ("orbit", "identity_energy", "identity_force", "multiplier_cross_check")
      for k in ("lorentzian", "gaussian")),
    "beta_bound",
}


def traj_tol(t):
    return TRAJ_TOL_ABS + TRAJ_TOL_PER_S * np.asarray(t, dtype=float)


class Reference:
    """Memoised reference quantities for one run."""

    def __init__(self):
        self._memo = {}

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def fixed_point(self, q: Params, z_star: float) -> tuple[float, float]:
        return self.memo(("fp", q, z_star), lambda: reference.fixed_point_data(q.field(), z_star))

    def sign_changes(self, q: Params, lo: float, hi: float, n: int) -> list[tuple[float, float]]:
        """Cells of a grid four times finer than the scan's where P_ref - z changes sign."""
        def compute():
            grid = np.linspace(lo, hi, 4 * (n - 1) + 1)
            s = reference.residual_signs(q.field(), grid)
            return [(float(grid[i]), float(grid[i + 1]))
                    for i in range(len(grid) - 1) if s[i] * s[i + 1] <= 0.0]
        return self.memo(("signs", q, lo, hi, n), compute)

    def homotopy_residuals(self, q: Params, lams: tuple, zs: tuple) -> np.ndarray:
        return self.memo(("hom", q, lams, zs),
                         lambda: np.abs(reference.period_map(q.field(), zs, lam=lams) - np.asarray(zs)))

    def dense(self, lanes: tuple, t_end: float):
        """Dense reference for ((Params, z_i), ...) lanes of one envelope kind."""
        return self.memo(("dense", lanes, t_end), lambda: reference.trajectories(
            [q.field() for q, _ in lanes], [z for _, z in lanes], t_end))

    def plane_closed_form(self, q: Params, z_i: float, ts: tuple) -> np.ndarray:
        def compute():
            from conveyor import analytic

            s = analytic.PlaneSolution(z_i, q.conveyor())
            return np.array([analytic.plane_solution(s, t) for t in ts])
        return self.memo(("closed", q, z_i, ts), compute)

    def plane_phase(self, q: Params, z_i: float, t: float) -> float:
        return self.memo(("phase", q, z_i, t), lambda: reference.plane_phase_limit(q.field(), z_i, t))


# ---------------------------------------------------------------------------
# shared pieces


def _orbit_problems(q: Params, z_star, mu, residual, ref: Reference, where="") -> list[str]:
    out = []
    if not 0.0 < mu < 1.0:
        out.append(f"{where}multiplier {mu!r} outside (0, 1)")
    if not residual < FIXED_POINT_TOL:
        out.append(f"{where}reported residual {residual!r} not below {FIXED_POINT_TOL}")
    res, mu_ref = ref.fixed_point(q, z_star)
    if not res < FIXED_POINT_TOL:
        out.append(f"{where}|P_ref(z*) - z*| = {res:.3e} at z* = {z_star!r}")
    if not abs(mu - mu_ref) < MULTIPLIER_REL_TOL * abs(mu_ref):
        out.append(f"{where}multiplier {mu!r} vs reference {float(mu_ref)!r}")
    return out


def _trajectory_problems(z, z_ref, ts, where="") -> list[str]:
    z = np.asarray(z, dtype=float)
    if z.shape != np.shape(z_ref) or not np.isfinite(z).all():
        return [f"{where}output shape {z.shape} or values unusable"]
    err = np.abs(z - z_ref)
    bad = err > traj_tol(ts)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"{where}{int(bad.sum())} samples off the reference, first at t = {float(ts[i])!r}: "
                f"error {err[i]:.3e} > {float(traj_tol(ts[i])):.3e}"]
    return []


def _homotopy_problems(q: Params, lams, zs, residuals, ref: Reference) -> list[str]:
    out = []
    if not lams:
        return ["no continuation steps"]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        out.append("lambda not strictly increasing")
    if not 0.0 < lams[0] < 0.1:
        out.append(f"branch starts at lambda = {lams[0]!r}")
    if lams[-1] != 1.0:
        out.append(f"branch ends at lambda = {float(lams[-1])!r}, not 1")
    if not all(r < FIXED_POINT_TOL for r in residuals):
        out.append(f"step residual up to {max(residuals):.3e}")
    res = ref.homotopy_residuals(q, tuple(lams), tuple(zs))
    if not (res < FIXED_POINT_TOL).all():
        i = int(np.argmax(res))
        out.append(f"|P_ref(z0) - z0| = {res[i]:.3e} at lambda = {lams[i]!r}")
    return out


# ---------------------------------------------------------------------------
# library workloads


def check_sweep(case: SweepCase, rows, ref: Reference) -> list[str]:
    if len(rows) != 1:
        return [f"{len(rows)} orbits in [{case.lo}, {case.hi}], expected exactly one"]
    r = rows[0]
    out = _orbit_problems(case.params, r.z_star, r.multiplier, r.residual, ref)
    if r.force_free:
        out.append("orbit flagged force_free")
    cells = ref.sign_changes(case.params, case.lo, case.hi, case.n)
    if len(cells) != 1:
        out.append(f"reference finds {len(cells)} sign changes of P - z in the window")
    elif not cells[0][0] <= r.z_star <= cells[0][1]:
        out.append(f"z* = {r.z_star!r} outside the reference bracket {cells[0]}")
    if not (r.energy_rel < IDENTITY_TOL and r.force_rel < IDENTITY_TOL):
        out.append(f"identity residuals {r.energy_rel:.3e}, {r.force_rel:.3e}")
    if r.mc_variational != r.multiplier:
        out.append("multiplier_cross_check reports another multiplier than the orbit")
    _, mu_ref = ref.fixed_point(case.params, r.z_star)
    if not abs(r.mc_finite_difference - mu_ref) < PROGRAM_FD_TOL:
        out.append(f"program finite difference {r.mc_finite_difference!r} vs reference {float(mu_ref)!r}")
    return out


def check_continuation(case: ContinuationCase, output, ref: Reference) -> list[str]:
    converged, steps = output
    if not converged:
        return ["continuation did not converge"]
    return _homotopy_problems(case.params, [s[0] for s in steps], [s[1] for s in steps],
                              [s[2] for s in steps], ref)


def trajectory_expected(case: TrajCase, ref: Reference):
    """(sample times, reference z, closed-form z or None) for one release."""
    ts = np.linspace(0.0, case.t_end, case.n) if case.mode == "dense" else np.array([case.t_end])
    z_ref = ref.dense(case.lanes, case.t_ref)(ts)[case.lane]
    closed = None
    if case.params.kind == "plane":
        closed = ref.plane_closed_form(case.params, case.z_i, tuple(ts))
    return ts, z_ref, closed


def check_trajectory(case: TrajCase, output, ref: Reference) -> list[str]:
    ts, z_ref, closed = ref.memo(("expected", case), lambda: trajectory_expected(case, ref))
    z = np.atleast_1d(np.asarray(output, dtype=float))
    out = _trajectory_problems(z, z_ref, ts)
    if closed is not None:
        out += _trajectory_problems(z, closed, ts, "closed form: ")
        gap = float(np.abs(closed - z_ref).max())
        if not gap < CLOSED_FORM_TOL * (1.0 + ts[-1]):
            out.append(f"closed form and reference differ by {gap:.3e}")
    return out


# ---------------------------------------------------------------------------
# cli


def parse_csv(data: bytes, header: list[str]) -> np.ndarray:
    """Header check plus numeric rows; raises ValueError on malformed text."""
    text = data.decode("utf-8")
    if not text.endswith("\n") or "\r" in text:
        raise ValueError("CSV must end with a newline and use \\n line endings")
    lines = text[:-1].split("\n")
    if lines[0].split(",") != header:
        raise ValueError(f"header {lines[0]!r}, expected {','.join(header)!r}")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("row with the wrong number of fields")
    return np.array(rows, dtype=float).reshape(len(rows), len(header))


def _cli_simulate(case: CliCase, rows: np.ndarray, ref: Reference) -> list[str]:
    z_i, t_end = case.extra
    t, z, dzdt, v = rows.T
    if len(t) < 2 or t[0] != 0.0 or t[-1] != t_end or not (np.diff(t) > 0).all():
        return [f"time column must rise strictly from 0 to {t_end!r}"]
    out = _trajectory_problems(z, ref.dense(((case.params, z_i),), t_end)(t)[0], t)
    fld = case.params.field()
    for name, col, want in (("dzdt", dzdt, fld.force(t, z)), ("V", v, fld.potential(t, z))):
        if not (np.abs(col - want) <= FIELD_REL_TOL * (1.0 + np.abs(want))).all():
            out.append(f"{name} column disagrees with the field at the same (t, z)")
    return out


def _cli_find_periodic(case: CliCase, rows: np.ndarray, ref: Reference) -> list[str]:
    if len(rows) != 1:
        return [f"{len(rows)} orbits, expected exactly one"]
    z_star, mu, residual, sup = rows[0]
    out = _orbit_problems(case.params, z_star, mu, residual, ref)
    lo, hi, n = case.extra
    cells = ref.sign_changes(case.params, lo, hi, n)
    if len(cells) != 1 or not cells[0][0] <= z_star <= cells[0][1]:
        out.append(f"z* = {z_star!r} does not match the reference sign changes {cells}")
    if not sup >= abs(z_star):
        out.append(f"sup_norm {sup!r} below |z*|")
    return out


def _cli_continue(case: CliCase, rows: np.ndarray, ref: Reference) -> list[str]:
    return _homotopy_problems(case.params, list(rows[:, 0]), list(rows[:, 1]), list(rows[:, 2]), ref)


def _cli_fig1(case: CliCase, rows: np.ndarray, ref: Reference) -> list[str]:
    (t_end,) = case.extra
    n_rel, n_t = len(FIG1_RELEASES), FIG1_SAMPLES
    if rows.shape[0] != n_rel * n_t:
        return [f"{rows.shape[0]} rows, expected {n_rel * n_t}"]
    zi, t, z = (c.reshape(n_rel, n_t) for c in rows.T)
    ts = np.linspace(0.0, t_end, n_t)
    if not (zi == np.array(FIG1_RELEASES)[:, None]).all() or not (t == ts).all():
        return ["releases or sample times not in the documented order"]
    z_ref = ref.dense(tuple((case.params, z) for z in FIG1_RELEASES), t_end)(ts)
    out = []
    for j in range(n_rel):
        out += _trajectory_problems(z[j], z_ref[j], ts, f"release {FIG1_RELEASES[j]}: ")
    return out


def _cli_pot2(case: CliCase, rows: np.ndarray, ref: Reference) -> list[str]:
    if rows.shape[0] != 2001:
        return [f"{rows.shape[0]} rows, expected 2001"]
    z, v = rows.T
    if not (np.abs(z - np.linspace(-6.0, 6.0, 2001)) <= 1e-14).all():
        return ["z grid is not linspace(-6, 6, 2001)"]
    want = case.params.field().potential(0.0, z)
    if not (np.abs(v - want) <= FIELD_REL_TOL * (1.0 + np.abs(want))).all():
        return ["V(0, z) disagrees with the potential"]
    return []


def _cli_plane_limit(case: CliCase, rows: np.ndarray, ref: Reference) -> list[str]:
    if rows.shape != (1, 2) or rows[0, 0] != PLANE_LIMIT_T:
        return [f"expected one row at t = {PLANE_LIMIT_T}"]
    want = ref.plane_phase(case.params, 0.0, PLANE_LIMIT_T)
    if not abs(rows[0, 1] - want) < 1e-6:
        return [f"z(1500) = {rows[0, 1]!r}, phase-equation reference {want!r}"]
    return []


def _cli_verify(case: CliCase, data: bytes, ref: Reference) -> list[str]:
    report = json.loads(data)
    found = {c["name"]: c for c in report["checks"]}
    out = []
    if report.get("passed") is not True:
        out.append("report says passed = false")
    failed = sorted(n for n, c in found.items() if c.get("passed") is not True)
    if failed:
        out.append(f"failed checks: {failed}")
    if set(found) != VERIFY_CHECKS:
        out.append(f"check names {sorted(found)} differ from the documented battery")
        return out
    for kind in ("lorentzian", "gaussian"):
        c = found[f"orbit[{kind}]"]
        q = Params(kind, case.params.f0, case.params.b, case.params.z0)
        out += _orbit_problems(q, c["z_star"], c["multiplier"], c["residual"], ref, f"{kind}: ")
    return out


CLI_CONTENT = {
    "simulate": _cli_simulate,
    "find-periodic": _cli_find_periodic,
    "continue": _cli_continue,
    "reproduce-fig1": _cli_fig1,
    "reproduce-pot2": _cli_pot2,
    "reproduce-plane-limit": _cli_plane_limit,
}


def _manifest_problem(data: bytes | None) -> str | None:
    if data is None:
        return "no manifest written"
    try:
        d = json.loads(data)["duration_s"]
    except (ValueError, KeyError, TypeError):
        return "manifest does not parse or lacks duration_s"
    if isinstance(d, bool) or not isinstance(d, (int, float)) or not math.isfinite(d) or d < 0:
        return f"manifest duration_s {d!r} is not a time"
    return None


def check_cli(case: CliCase, runs, ref: Reference) -> list[str]:
    """Both runs exit 0 and write a manifest with ``duration_s``; the two
    outputs are byte-identical; the content passes its command's check."""
    out = []
    for side, run in zip("ab", runs):
        if run.code != 0:
            out.append(f"run {side}: exit code {run.code}")
        if run.output is None:
            out.append(f"run {side}: no output file")
        problem = _manifest_problem(run.manifest)
        if problem:
            out.append(f"run {side}: {problem}")
    if out:
        return out
    if runs[0].output != runs[1].output:
        return ["the two runs wrote different bytes"]
    try:
        if case.label == "verify":
            return _cli_verify(case, runs[0].output, ref)
        rows = parse_csv(runs[0].output, CSV_HEADERS[case.label])
        return CLI_CONTENT[case.label](case, rows, ref)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc}"]
