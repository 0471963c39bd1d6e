"""Command-line interface: simulate, find-periodic, continue, reproduce, verify.

Every command writes deterministic CSV (17 significant digits, '.' decimal
separator, '\\n' line endings; identical flags give identical bytes) plus a
JSON run manifest recording the full parameter set, including the unit
interpretation of f0, the integrator configuration, tool version, output
files and wall-clock duration.  ``--dry-run`` prints that manifest without
computing.  Flags must be spelled in full.  Exit codes: 0 success, 2 flag
errors (an unwritable output path among them), 3 numerical failure.

Every command runs in a fresh process, so importing this module loads only
``conveyor``, ``errors``, ``model`` and ``integrate``.  Each integrating
command checks its longest run, and ``find-periodic`` its window, with the
integrator's own checks at flag time, so ``--dry-run`` rejects what a run
would; each imports the solver modules it runs (``periodic``, ``homotopy``,
``verify``, ``analytic``) when it starts computing, and ``verify`` checks
``--b`` then.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import conveyor
from conveyor import model
from conveyor.errors import ConveyorError, NoConvergence
from conveyor.integrate import IntegratorConfig, _check_run, _check_window, integrate
from conveyor.model import (
    ENVELOPE_KINDS,
    F0_UNIT_NOTE,
    ConveyorParams,
    EnvelopeSpec,
    default_params,
    force_closure,
)

_FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "pot1", "pot2", "plane-limit")


def _linspace(a: float, b: float, n: int) -> list[float]:
    """n >= 2 evenly spaced floats from a to b, bit for bit ``np.linspace``."""
    step = (b - a) / (n - 1)
    return [i * step + a for i in range(n - 1)] + [b]


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write float tuples, each value as ``format(v, ".17g")`` would."""
    template = ",".join(["%.17g"] * len(header)) + "\n"
    text = ",".join(header) + "\n" + "".join([template % row for row in rows])
    path.write_text(text, encoding="utf-8", newline="")


def _json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _checked(parser: argparse.ArgumentParser, fn, *args, **kwargs):
    """fn(*args, **kwargs), a library ValueError made a flag error (exit 2)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _params_from_args(parser: argparse.ArgumentParser, args, kind: str) -> ConveyorParams:
    if kind == "plane" and args.z0 is not None:
        parser.error("--z0 conflicts with --envelope plane (the plane envelope has no scale)")
    z0 = 0.37 if args.z0 is None else args.z0
    return _checked(parser, lambda: ConveyorParams(
        f0=args.f0, b=args.b, k=args.k_pi * math.pi, envelope=EnvelopeSpec(kind, z0),
        wavelength_nm=args.wavelength_nm))


def _config_from_args(parser: argparse.ArgumentParser, args, period: float) -> IntegratorConfig:
    cfg = _checked(parser, IntegratorConfig, rtol=args.rtol, atol=args.atol,
                   max_step=args.max_step, initial_step=args.initial_step)
    _checked(parser, cfg.resolved, period)  # bad step bounds are flag errors
    return cfg


def _blocked(out: Path) -> bool:
    """Whether a directory stands where the output or its manifest goes."""
    return out.is_dir() or out.with_suffix(".manifest.json").is_dir()


def _out_path(parser: argparse.ArgumentParser, value: str) -> Path:
    """--out as a path, rejected unless it names a file in an existing directory."""
    out = Path(value)
    if _blocked(out):
        parser.error(f"--out {value} or its manifest is a directory")
    if not out.parent.is_dir():
        parser.error(f"--out {value}: no directory {out.parent}")
    return out


def _manifest(command: str, p: ConveyorParams, cfg: IntegratorConfig, out: Path,
              extra: dict | None = None) -> dict:
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
        **(extra or {}),
    }
    integrator = {
        "rtol": cfg.rtol,
        "atol": cfg.atol,
        "max_step_s": cfg.max_step,
        "initial_step_s": cfg.initial_step,
    }
    return {"command": command, "parameters": parameters, "integrator": integrator,
            "tool_version": conveyor.__version__, "outputs": [str(out)], "duration_s": None}


def _run(args, manifest: dict, compute) -> int:
    """The one way a command runs once its flags are checked.

    On --dry-run, print ``manifest`` and compute nothing.  Otherwise time
    ``compute()``, which writes the output and returns the exit code (None
    for 0), and write the manifest beside that output.
    """
    if args.dry_run:
        sys.stdout.write(_json(manifest))
        return 0
    started = time.perf_counter()
    code = compute()
    manifest["duration_s"] = time.perf_counter() - started
    out = Path(manifest["outputs"][0])
    out.with_suffix(".manifest.json").write_text(_json(manifest), encoding="utf-8")
    return code or 0


# ---------------------------------------------------------------------------
# commands


def _cmd_simulate(parser: argparse.ArgumentParser, args) -> int:
    p = _params_from_args(parser, args, args.envelope)
    cfg = _config_from_args(parser, args, p.period)
    _checked(parser, _check_run, p, cfg, args.zi, args.t0, args.t_end)
    if args.stride < 1:
        parser.error(f"--stride must be >= 1, got {args.stride}")
    out = _out_path(parser, args.out)
    manifest = _manifest("simulate", p, cfg, out, {
        "zi_wavelengths": args.zi,
        "t0_s": args.t0,
        "t_end_s": args.t_end,
        "stride": args.stride,
    })

    def compute():
        rhs = force_closure(p)
        traj = integrate(p, rhs, args.zi, args.t0, args.t_end, cfg)
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

    return _run(args, manifest, compute)


def _cmd_find_periodic(parser: argparse.ArgumentParser, args) -> int:
    p = _params_from_args(parser, args, args.envelope)
    cfg = _config_from_args(parser, args, p.period)
    _checked(parser, _check_window, args.z_lo, args.z_hi, args.n_grid)
    for z in (args.z_lo, args.z_hi):
        _checked(parser, _check_run, p, cfg, z, 0.0, 0.5 * p.period)
    out = _out_path(parser, args.out)
    manifest = _manifest("find-periodic", p, cfg, out, {
        "z_lo_wavelengths": args.z_lo,
        "z_hi_wavelengths": args.z_hi,
        "n_grid": args.n_grid,
    })

    def compute():
        from conveyor import periodic

        orbits = periodic.scan_orbits(p, args.z_lo, args.z_hi, args.n_grid, cfg)
        if not orbits:
            print("warning: no certified periodic orbit in the scan window", file=sys.stderr)
        rows = [(o.z_star, o.multiplier, o.residual, o.sup_norm) for o in orbits]
        _write_csv(out, ["z_star", "multiplier", "residual", "sup_norm"], rows)

    return _run(args, manifest, compute)


def _cmd_continue(parser: argparse.ArgumentParser, args) -> int:
    p = _params_from_args(parser, args, args.envelope)
    cfg = _config_from_args(parser, args, p.period)
    _checked(parser, _check_run, p, cfg, 0.0, 0.0, 0.5 * p.period)
    out = _out_path(parser, args.out)

    def compute():
        from conveyor import homotopy

        trace = homotopy.continue_to_one(p, cfg)
        rows = [(s.lambda_h, s.z0, s.residual, s.sup_norm) for s in trace.steps]
        _write_csv(out, ["lambda", "z0", "residual", "sup_norm"], rows)

    return _run(args, _manifest("continue", p, cfg, out), compute)


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


def _cmd_reproduce(parser: argparse.ArgumentParser, args) -> int:
    fig = args.figure
    out_dir = Path(args.out_dir)
    out = out_dir / f"{fig.replace('-', '_')}.csv"
    # mkdir descends from the nearest existing ancestor, which must be a directory
    nearest = next(d for d in (out_dir, *out_dir.parents) if d.exists())
    if not nearest.is_dir() or _blocked(out):
        parser.error(f"--out-dir {args.out_dir} cannot hold {out.name}")

    p = default_params("lorentzian" if fig in ("fig1", "fig2", "pot1") else
                       "gaussian" if fig in ("fig3", "fig4", "pot2") else "plane")
    cfg = _config_from_args(parser, args, p.period)

    extra: dict = {"figure": fig}
    if fig in ("fig1", "fig3"):
        _checked(parser, _check_run, p, cfg, 0.0, 0.0, args.t_end)
        extra["t_end_s"] = args.t_end
    elif not 0.0 < args.t_end < math.inf:  # the range of a flag no run here reads
        parser.error(f"--t-end must be finite and > 0, got {args.t_end}")
    if fig in ("fig2", "fig4"):  # five periods near the orbit
        _checked(parser, _check_run, p, cfg, 0.0, 0.0, 5.0 * p.period)

    def compute():
        out_dir.mkdir(parents=True, exist_ok=True)
        if fig in ("pot1", "pot2"):
            pot = model.field(p).potential
            zs = _linspace(-6.0, 6.0, 2001)
            _write_csv(out, ["z_lambda", "V"], [(z, pot(0.0, z)) for z in zs])
            return
        if fig == "plane-limit":
            from conveyor import analytic

            sol = analytic.PlaneSolution(0.0, p)
            t = 1500.0
            _write_csv(out, ["t_s", "z_lambda"], [(t, analytic.plane_solution(sol, t))])
            return
        t_end = args.t_end
        if fig == "fig1":
            # approach to the trap from a spread of release points
            ics = _linspace(-4.5, 4.5, 10)
        elif fig == "fig3":
            # central releases converge; outside the envelope the drive is null
            ics = sorted([-4.0, -3.0, 3.0, 4.0] + _linspace(-1.0, 1.0, 6))
        else:
            # fig2, fig4: settled behavior near the orbit, same frequency and amplitude
            from conveyor import periodic

            orbit = periodic.find_periodic(p, 0.0, cfg)
            spread = 0.1 if fig == "fig2" else 0.05
            ics = [orbit.z_star + x for x in _linspace(-spread, spread, 5)]
            t_end = 5.0 * p.period
        rows = _trajectory_series(p, cfg, ics, 0.0, t_end, 1001)
        _write_csv(out, ["z_i", "t_s", "z_lambda"], rows)

    return _run(args, _manifest(f"reproduce {fig}", p, cfg, out, extra), compute)


def _cmd_verify(parser: argparse.ArgumentParser, args) -> int:
    # the manifest records the Lorentzian set; the battery runs every kind at --z0
    lorentzian = _params_from_args(parser, args, "lorentzian")
    cfg = _config_from_args(parser, args, lorentzian.period)
    _checked(parser, _check_run, lorentzian, cfg, 0.0, 0.0, 0.5 * lorentzian.period)
    params = {kind: replace(lorentzian, envelope=EnvelopeSpec(kind, lorentzian.envelope.z0))
              for kind in ENVELOPE_KINDS}
    out = _out_path(parser, args.out)

    def compute() -> int:
        from conveyor import homotopy, periodic, verify

        if not homotopy._beta_grid_fits(lorentzian.period):  # here, so --dry-run loads no solver
            parser.error(f"--b {args.b} leaves the beta-bound check's grid no normal step")
        checks: list[dict] = []

        def record(name: str, passed: bool, **details):
            checks.append({"name": name, "passed": bool(passed), **details})

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
            certified = orbit.residual < periodic.CERTIFICATION_TOL and not orbit.force_free
            record(f"orbit[{kind}]", certified,
                   z_star=orbit.z_star, multiplier=orbit.multiplier, residual=orbit.residual)
            # a parked orbit satisfies both identities and has multiplier 1
            # by either method whatever the field, so they certify nothing
            live = not orbit.force_free
            ie = verify.identity_energy(orbit)
            record(f"identity_energy[{kind}]", live and ie.rel_residual < 1e-6,
                   lhs=ie.lhs, rhs=ie.rhs, rel_residual=ie.rel_residual)
            if_ = verify.identity_force(orbit)
            record(f"identity_force[{kind}]", live and if_.rel_residual < 1e-6,
                   lhs=if_.lhs, rhs=if_.rhs, rel_residual=if_.rel_residual)
            mc = verify.multiplier_cross_check(p, orbit)
            record(f"multiplier_cross_check[{kind}]", live and mc.rel_error < 1e-4,
                   variational=mc.variational, finite_difference=mc.finite_difference,
                   rel_error=mc.rel_error)

        bb = homotopy.beta_bound_check(lorentzian.period)
        record("beta_bound", bb.passed, beta=bb.beta, max_ratio=bb.max_ratio, n_cases=bb.n_cases)

        all_passed = all(c["passed"] for c in checks)
        out.write_text(_json({"passed": all_passed, "checks": checks}), encoding="utf-8")
        for c in checks:
            print(("PASS" if c["passed"] else "FAIL") + f" {c['name']}")
        return 0 if all_passed else 3

    return _run(args, _manifest("verify", lorentzian, cfg, out), compute)


# ---------------------------------------------------------------------------
# parser wiring: each flag is (name, add_argument keywords)

_ENVELOPE = ("--envelope", dict(choices=ENVELOPE_KINDS, default="lorentzian",
                                help="axial strength profile (default lorentzian)"))
_PARAM_FLAGS = (
    ("--z0", dict(type=float, default=None,
                  help="envelope scale in wavelengths (default 0.37; invalid with plane)")),
    ("--f0", dict(type=float, default=0.8, help="drive strength, wavelength^2/s (default 0.8)")),
    ("--b", dict(type=float, default=100.0, help="phase-slip rate, rad/s (default 100)")),
    ("--k-pi", dict(type=float, default=2.66,
                    help="wavenumber as a multiple of pi per wavelength (default 2.66)")),
    ("--wavelength-nm", dict(type=float, default=580.0,
                             help="reporting-only wavelength (default 580)")),
)
_SHARED_FLAGS = (  # every command takes these
    ("--rtol", dict(type=float, default=1e-10)),
    ("--atol", dict(type=float, default=1e-12)),
    ("--max-step", dict(type=float, default=None,
                        help="step ceiling in seconds (default period/20, capped at period/4)")),
    ("--initial-step", dict(type=float, default=None,
                            help="first trial step in seconds (default period/1000)")),
    ("--dry-run", dict(action="store_true",
                       help="print the manifest a run would write, and compute nothing")),
)
_OUT = ("--out", dict(required=True, help="output CSV path"))

_COMMANDS = {  # name: (function, help, flags besides the shared ones)
    "simulate": (_cmd_simulate, "integrate one trajectory and write CSV", (
        _ENVELOPE, *_PARAM_FLAGS,
        ("--zi", dict(type=float, required=True, help="release position, wavelengths")),
        ("--t0", dict(type=float, default=0.0)),
        ("--t-end", dict(type=float, required=True)),
        ("--stride", dict(type=int, default=1,
                          help="emit every Nth dense-output sample (default 1)")),
        _OUT)),
    "find-periodic": (_cmd_find_periodic, "scan a window for certified periodic orbits", (
        _ENVELOPE, *_PARAM_FLAGS,
        ("--z-lo", dict(type=float, default=-4.5)),
        ("--z-hi", dict(type=float, default=4.5)),
        ("--n-grid", dict(type=int, default=64)),
        _OUT)),
    "continue": (_cmd_continue, "follow the homotopy branch to the full equation",
                 (_ENVELOPE, *_PARAM_FLAGS, _OUT)),
    "reproduce": (_cmd_reproduce, "emit the data series behind a named figure", (
        ("figure", dict(choices=_FIGURE_IDS)),
        ("--t-end", dict(type=float, default=5.0,
                         help="horizon for the trajectory figures (default 5 s)")),
        ("--out-dir", dict(default=".")))),
    "verify": (_cmd_verify, "run the certificate battery on all three envelopes; "
                            "exit 0 iff all pass", (
        *_PARAM_FLAGS,
        ("--out", dict(default="verify_report.json",
                       help="JSON report path (default verify_report.json)")))),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conveyor",
        description="Optical conveyor-belt particle dynamics, periodic orbits, "
                    "and numerical certificates.",
    )
    parser.add_argument("--version", action="version", version=f"conveyor {conveyor.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, flags) in _COMMANDS.items():
        ap = sub.add_parser(name, help=help_, allow_abbrev=False)
        for flag, kwargs in flags + _SHARED_FLAGS:
            ap.add_argument(flag, **kwargs)
        # the command's own flag errors print its usage, as argparse's do
        ap.set_defaults(func=partial(func, ap))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConveyorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
