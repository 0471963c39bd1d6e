"""Command-line interface: simulate, find-periodic, continue, reproduce, verify.

Every command writes deterministic CSV (17 significant digits, '.' decimal
separator, '\\n' line endings; identical flags give identical bytes) plus a
JSON run manifest recording the full parameter set, including the unit
interpretation of f0, the integrator configuration, tool version, output
files and wall-clock duration.  ``--dry-run`` prints the manifest without
computing.  Exit codes: 0 success, 2 flag errors, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import conveyor
from conveyor import analytic, homotopy, model, periodic, verify
from conveyor.errors import ContinuationStall, ConveyorError, NoConvergence, StepSizeUnderflow
from conveyor.integrate import IntegratorConfig, integrate
from conveyor.model import (
    F0_UNIT_NOTE,
    ConveyorParams,
    EnvelopeSpec,
    default_params,
    force_closure,
)

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "pot1", "pot2", "plane-limit")


@dataclass
class RunManifest:
    command: str
    parameters: dict
    integrator: dict
    tool_version: str = conveyor.__version__
    outputs: list[str] = field(default_factory=list)
    duration_s: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def write(self, out_path: Path):
        path = out_path.with_suffix(".manifest.json")
        path.write_text(self.to_json(), encoding="utf-8")
        return path


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _linspace(a: float, b: float, n: int) -> list[float]:
    """n >= 2 evenly spaced floats from a to b, bit for bit ``np.linspace``."""
    step = (b - a) / (n - 1)
    return [i * step + a for i in range(n - 1)] + [b]


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def _add_param_flags(ap: argparse.ArgumentParser):
    ap.add_argument("--envelope", choices=("plane", "lorentzian", "gaussian"),
                    default="lorentzian", help="axial strength profile (default lorentzian)")
    ap.add_argument("--z0", type=float, default=None,
                    help="envelope scale in wavelengths (default 0.37; invalid with plane)")
    ap.add_argument("--f0", type=float, default=0.8,
                    help="drive strength, wavelength^2/s (default 0.8)")
    ap.add_argument("--b", type=float, default=100.0, help="phase-slip rate, rad/s (default 100)")
    ap.add_argument("--k-pi", type=float, default=2.66,
                    help="wavenumber as a multiple of pi per wavelength (default 2.66)")
    ap.add_argument("--wavelength-nm", type=float, default=580.0,
                    help="reporting-only wavelength (default 580)")


def _add_integrator_flags(ap: argparse.ArgumentParser):
    ap.add_argument("--rtol", type=float, default=1e-10)
    ap.add_argument("--atol", type=float, default=1e-12)
    ap.add_argument("--max-step", type=float, default=None,
                    help="step ceiling in seconds (default period/20, capped at period/4)")
    ap.add_argument("--initial-step", type=float, default=None,
                    help="first trial step in seconds (default period/1000)")


def _params_from_args(parser: argparse.ArgumentParser, args) -> ConveyorParams:
    if args.envelope == "plane" and args.z0 is not None:
        parser.error("--z0 conflicts with --envelope plane (the plane envelope has no scale)")
    z0 = 0.37 if args.z0 is None else args.z0
    try:
        return ConveyorParams(
            f0=args.f0,
            b=args.b,
            k=args.k_pi * math.pi,
            envelope=EnvelopeSpec(args.envelope, z0),
            wavelength_nm=args.wavelength_nm,
        )
    except ValueError as exc:
        parser.error(str(exc))


def _config_from_args(parser: argparse.ArgumentParser, args, period: float) -> IntegratorConfig:
    try:
        cfg = IntegratorConfig(
            rtol=args.rtol,
            atol=args.atol,
            max_step=args.max_step,
            initial_step=args.initial_step,
        )
        cfg.resolved(period)  # surface bad step bounds as flag errors
        return cfg
    except ValueError as exc:
        parser.error(str(exc))


def _manifest(command: str, p: ConveyorParams, cfg: IntegratorConfig, extra: dict | None = None,
              ) -> RunManifest:
    parameters = {
        "envelope": {"kind": p.envelope.kind,
                     "z0_wavelengths": None if p.envelope.kind == "plane" else p.envelope.z0},
        "f0_wavelength2_per_s": p.f0,
        "f0_unit_note": F0_UNIT_NOTE,
        "b_rad_per_s": p.b,
        "k_rad_per_wavelength": p.k,
        "k_pi": p.k / math.pi,
        "wavelength_nm": p.wavelength_nm,
        "period_s": p.period,
    }
    if extra:
        parameters.update(extra)
    integrator = {
        "rtol": cfg.rtol,
        "atol": cfg.atol,
        "max_step_s": cfg.max_step,
        "initial_step_s": cfg.initial_step,
    }
    return RunManifest(command=command, parameters=parameters, integrator=integrator)


def _finish(manifest: RunManifest, out: Path, started: float, dry_run: bool) -> int:
    if dry_run:
        sys.stdout.write(manifest.to_json())
        return 0
    manifest.duration_s = time.perf_counter() - started
    manifest.write(out)
    return 0


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(parser: argparse.ArgumentParser, args) -> int:
    p = _params_from_args(parser, args)
    cfg = _config_from_args(parser, args, p.period)
    if not all(math.isfinite(x) for x in (args.zi, args.t0, args.t_end)):
        parser.error("--zi, --t0 and --t-end must be finite")
    if args.t_end <= args.t0:
        parser.error(f"--t-end must exceed --t0, got {args.t_end} <= {args.t0}")
    if args.stride < 1:
        parser.error(f"--stride must be >= 1, got {args.stride}")
    out = Path(args.out)
    manifest = _manifest("simulate", p, cfg, {
        "zi_wavelengths": args.zi,
        "t0_s": args.t0,
        "t_end_s": args.t_end,
        "stride": args.stride,
    })
    manifest.outputs = [str(out)]
    if args.dry_run:
        return _finish(manifest, out, 0.0, True)

    started = time.perf_counter()
    traj = integrate(p, force_closure(p), args.zi, args.t0, args.t_end, cfg)
    rhs = force_closure(p)
    pot = model.field(p).potential
    knot_t, _ = traj.knots
    times = knot_t[:: args.stride]
    if times[-1] != knot_t[-1]:
        times.append(knot_t[-1])
    rows = []
    for t in times:
        z = traj.interp(t)
        rows.append((t, z, rhs(t, z), pot(t, z)))
    _write_csv(out, ["t_s", "z_lambda", "dzdt", "V"], rows)
    return _finish(manifest, out, started, False)


def cmd_find_periodic(parser: argparse.ArgumentParser, args) -> int:
    p = _params_from_args(parser, args)
    cfg = _config_from_args(parser, args, p.period)
    if not math.isfinite(args.z_hi - args.z_lo):
        parser.error(f"window [{args.z_lo}, {args.z_hi}] and its width must be finite")
    if not args.z_lo < args.z_hi:
        parser.error(f"--z-lo must be below --z-hi, got [{args.z_lo}, {args.z_hi}]")
    if args.n_grid < 2:
        parser.error(f"--n-grid must be >= 2, got {args.n_grid}")
    out = Path(args.out)
    manifest = _manifest("find-periodic", p, cfg, {
        "z_lo_wavelengths": args.z_lo,
        "z_hi_wavelengths": args.z_hi,
        "n_grid": args.n_grid,
    })
    manifest.outputs = [str(out)]
    if args.dry_run:
        return _finish(manifest, out, 0.0, True)

    started = time.perf_counter()
    orbits = periodic.scan_orbits(p, args.z_lo, args.z_hi, args.n_grid, cfg)
    if not orbits:
        print("warning: no certified periodic orbit in the scan window", file=sys.stderr)
    rows = [(o.z_star, o.multiplier, o.residual, o.sup_norm) for o in orbits]
    _write_csv(out, ["z_star", "multiplier", "residual", "sup_norm"], rows)
    return _finish(manifest, out, started, False)


def cmd_continue(parser: argparse.ArgumentParser, args) -> int:
    p = _params_from_args(parser, args)
    cfg = _config_from_args(parser, args, p.period)
    out = Path(args.out)
    manifest = _manifest("continue", p, cfg)
    manifest.outputs = [str(out)]
    if args.dry_run:
        return _finish(manifest, out, 0.0, True)

    started = time.perf_counter()
    trace = homotopy.continue_to_one(p, cfg)
    rows = [(s.lambda_h, s.z0, s.residual, s.sup_norm) for s in trace.steps]
    _write_csv(out, ["lambda", "z0", "residual", "sup_norm"], rows)
    return _finish(manifest, out, started, False)


def _trajectory_series(p: ConveyorParams, cfg: IntegratorConfig, z_list, t0: float,
                       t_end: float, n_samples: int):
    """Long-format (z_i, t, z) rows, trajectories ordered by initial condition."""
    ts = _linspace(t0, t_end, n_samples)
    rows = []
    rhs = force_closure(p)
    for z_i in z_list:
        traj = integrate(p, rhs, z_i, t0, t_end, cfg)
        for t in ts:
            rows.append((z_i, t, traj.interp(t)))
    return rows


def cmd_reproduce(parser: argparse.ArgumentParser, args) -> int:
    fig = args.figure
    out_dir = Path(args.out_dir)
    out = out_dir / f"{fig.replace('-', '_')}.csv"

    if fig in ("fig1", "fig2", "pot1"):
        p = default_params("lorentzian")
    elif fig in ("fig3", "fig4", "pot2"):
        p = default_params("gaussian")
    else:
        p = default_params("plane")
    cfg = _config_from_args(parser, args, p.period)
    if not 0.0 < args.t_end < math.inf:
        parser.error(f"--t-end must be finite and > 0, got {args.t_end}")

    extra: dict = {"figure": fig}
    if fig in ("fig1", "fig3"):
        extra["t_end_s"] = args.t_end
    manifest = _manifest(f"reproduce {fig}", p, cfg, extra)
    manifest.outputs = [str(out)]
    if args.dry_run:
        return _finish(manifest, out, 0.0, True)

    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)

    if fig == "fig1":
        # approach to the trap from a spread of release points
        ics = _linspace(-4.5, 4.5, 10)
        rows = _trajectory_series(p, cfg, ics, 0.0, args.t_end, 1001)
        _write_csv(out, ["z_i", "t_s", "z_lambda"], rows)
    elif fig == "fig3":
        # central releases converge; outside the envelope the drive is null
        ics = sorted([-4.0, -3.0, 3.0, 4.0] + _linspace(-1.0, 1.0, 6))
        rows = _trajectory_series(p, cfg, ics, 0.0, args.t_end, 1001)
        _write_csv(out, ["z_i", "t_s", "z_lambda"], rows)
    elif fig in ("fig2", "fig4"):
        # settled behavior near the orbit: same frequency and amplitude
        orbit = periodic.find_periodic(p, 0.0, cfg)
        spread = 0.1 if fig == "fig2" else 0.05
        ics = [orbit.z_star + x for x in _linspace(-spread, spread, 5)]
        rows = _trajectory_series(p, cfg, ics, 0.0, 5.0 * p.period, 1001)
        _write_csv(out, ["z_i", "t_s", "z_lambda"], rows)
    elif fig in ("pot1", "pot2"):
        pot = model.field(p).potential
        zs = _linspace(-6.0, 6.0, 2001)
        _write_csv(out, ["z_lambda", "V"], [(z, pot(0.0, z)) for z in zs])
    else:  # plane-limit
        sol = analytic.PlaneSolution(0.0, p)
        t = 1500.0
        _write_csv(out, ["t_s", "z_lambda"], [(t, analytic.plane_solution(sol, t))])

    return _finish(manifest, out, started, False)


def cmd_verify(parser: argparse.ArgumentParser, args) -> int:
    checks: list[dict] = []

    def record(name: str, passed: bool, **details):
        checks.append({"name": name, "passed": bool(passed), **details})

    base = dict(f0=args.f0, b=args.b, k=args.k_pi * math.pi, wavelength_nm=args.wavelength_nm)
    z0 = 0.37 if args.z0 is None else args.z0
    try:
        plane_p = ConveyorParams(envelope=EnvelopeSpec("plane"), **base)
        params = {
            "plane": plane_p,
            "lorentzian": ConveyorParams(envelope=EnvelopeSpec("lorentzian", z0), **base),
            "gaussian": ConveyorParams(envelope=EnvelopeSpec("gaussian", z0), **base),
        }
    except ValueError as exc:
        parser.error(str(exc))

    cfg = _config_from_args(parser, args, plane_p.period)
    manifest = _manifest("verify", params["lorentzian"], cfg)
    out = Path(args.out)
    if args.dry_run:
        sys.stdout.write(manifest.to_json())
        return 0

    started = time.perf_counter()
    for kind, p in params.items():
        hits = verify.fixed_point_scan(p, -25.0, 25.0, 1001)
        record(f"fixed_point_scan[{kind}]", not hits, flagged=hits)

    for kind in ("lorentzian", "gaussian"):
        p = params[kind]
        try:
            orbit = periodic.find_periodic(p, 0.0, cfg)
        except NoConvergence as exc:
            record(f"orbit[{kind}]", False, error=str(exc))
            continue
        record(f"orbit[{kind}]", orbit.residual < 1e-9 and not orbit.force_free,
               z_star=orbit.z_star, multiplier=orbit.multiplier, residual=orbit.residual)
        ie = verify.identity_energy(orbit)
        record(f"identity_energy[{kind}]", ie.rel_residual < 1e-6,
               lhs=ie.lhs, rhs=ie.rhs, rel_residual=ie.rel_residual)
        if_ = verify.identity_force(orbit)
        record(f"identity_force[{kind}]", if_.rel_residual < 1e-6,
               lhs=if_.lhs, rhs=if_.rhs, rel_residual=if_.rel_residual)
        mc = verify.multiplier_cross_check(p, orbit, cfg)
        record(f"multiplier_cross_check[{kind}]", mc.rel_error < 1e-4,
               variational=mc.variational, finite_difference=mc.finite_difference,
               rel_error=mc.rel_error)

    bb = homotopy.beta_bound_audit(plane_p.period)
    record("beta_bound", bb.passed, beta=bb.beta, max_ratio=bb.max_ratio, n_cases=bb.n_cases)

    all_passed = all(c["passed"] for c in checks)
    report = {"passed": all_passed, "checks": checks}
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    manifest.outputs = [str(out)]
    manifest.duration_s = time.perf_counter() - started
    manifest.write(out)
    for c in checks:
        print(("PASS" if c["passed"] else "FAIL") + f" {c['name']}")
    return 0 if all_passed else 3


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conveyor",
        description="Optical conveyor-belt particle dynamics, periodic orbits, "
                    "and numerical certificates.",
    )
    parser.add_argument("--version", action="version", version=f"conveyor {conveyor.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ap = sub.add_parser("simulate", help="integrate one trajectory and write CSV")
    _add_param_flags(ap)
    _add_integrator_flags(ap)
    ap.add_argument("--zi", type=float, required=True, help="release position, wavelengths")
    ap.add_argument("--t0", type=float, default=0.0)
    ap.add_argument("--t-end", type=float, required=True)
    ap.add_argument("--stride", type=int, default=1,
                    help="emit every Nth dense-output sample (default 1)")
    ap.add_argument("--out", required=True, help="output CSV path")
    ap.add_argument("--dry-run", action="store_true")
    ap.set_defaults(func=cmd_simulate)

    ap = sub.add_parser("find-periodic", help="scan a window for certified periodic orbits")
    _add_param_flags(ap)
    _add_integrator_flags(ap)
    ap.add_argument("--z-lo", type=float, default=-4.5)
    ap.add_argument("--z-hi", type=float, default=4.5)
    ap.add_argument("--n-grid", type=int, default=64)
    ap.add_argument("--out", required=True)
    ap.add_argument("--dry-run", action="store_true")
    ap.set_defaults(func=cmd_find_periodic)

    ap = sub.add_parser("continue", help="follow the homotopy branch to the full equation")
    _add_param_flags(ap)
    _add_integrator_flags(ap)
    ap.add_argument("--out", required=True)
    ap.add_argument("--dry-run", action="store_true")
    ap.set_defaults(func=cmd_continue)

    ap = sub.add_parser("reproduce", help="emit the data series behind a named figure")
    ap.add_argument("figure", choices=FIGURE_IDS)
    _add_integrator_flags(ap)
    ap.add_argument("--t-end", type=float, default=5.0,
                    help="horizon for the trajectory figures (default 5 s)")
    ap.add_argument("--out-dir", default=".")
    ap.add_argument("--dry-run", action="store_true")
    ap.set_defaults(func=cmd_reproduce)

    ap = sub.add_parser("verify", help="run the certificate battery; exit 0 iff all pass")
    _add_param_flags(ap)
    _add_integrator_flags(ap)
    ap.add_argument("--out", default="verify_report.json",
                    help="JSON report path (default verify_report.json)")
    ap.add_argument("--dry-run", action="store_true")
    ap.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (StepSizeUnderflow, NoConvergence, ContinuationStall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConveyorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
