"""One-command benchmark of the conveyor package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's inputs are generated from the seed, then whole
rounds of its operations run one at a time in a closed loop until S seconds
have passed.  After the timed phase every operation's output is checked
against an independent scipy reference or a property the method must have.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run measures half its time untraced and half with the per-layer tracer
installed, and reports the per-layer rows and the tracing overhead.
Results and span files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5           # fresh processes before and again after the timed phase
WORKLOADS = ("orbit-sweep", "continuation", "trajectories", "cli")

END_TO_END = {"setup_s": "s", "op_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
SPAN_LAYERS = (
    "integrate.flow_T", "integrate.flow_T_with_sensitivity", "integrate.integrate",
    "integrate.propagate", "newton.solve_fixed_point", "newton.solve_fixed_point_bracketed",
    "periodic.scan_orbits", "periodic.find_periodic", "homotopy.continue_to_one",
    "homotopy.solve_at_lambda", "homotopy.beta_bound_audit", "homotopy.linear_bvp",
    "verify.fixed_point_scan", "verify.gauss_lobatto", "verify.identity_energy",
    "verify.identity_force", "verify.multiplier_cross_check",
)
COUNTERS = {
    "model.force.evals": "evals/op",
    "model.force_dz.evals": "evals/op",
    "integrate.steps": "steps/op",
    "integrate.Trajectory.interp.calls": "calls/op",
    "newton.map_evals": "evals/op",
    "newton.failed": "count/op",
    "homotopy.solve_at_lambda.failed": "count/op",
}
CLI_LABELS = ("simulate", "find-periodic", "continue", "reproduce-fig1", "reproduce-pot2",
              "reproduce-plane-limit", "verify")


def per_layer_units() -> dict:
    units = {}
    for layer in SPAN_LAYERS:
        units.update({f"{layer}.calls": "calls/op", f"{layer}.total_s": "s/op",
                      f"{layer}.self_s": "s/op"})
    units.update(COUNTERS)
    units["periodic.scan_orbits.useful_ratio"] = "ratio"
    for label in CLI_LABELS:
        units.update({f"cli.{label}.compute_s": "s", f"cli.{label}.wall_s": "s"})
    units.update({"trace.overhead_pct": "%", "trace.ops_per_s_untraced": "1/s",
                  "trace.ops_per_s_traced": "1/s"})
    return units


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: import and generate inputs, print the time, exit")
    return ap.parse_args(argv)


def require_source():
    """Import the package from this checkout's src/ or stop."""
    src = ROOT / "src"
    if not (src / "conveyor" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src}/conveyor; run from a source checkout")
    sys.path.insert(0, str(src))


# ---------------------------------------------------------------------------
# phases


def setup_probe(args, wl_module, scratch: Path) -> float:
    """Set-up time of one fresh process.

    Library workloads: process start to inputs ready, as printed by a probe
    run of this script (perf_counter is the system-wide monotonic clock).
    cli: wall time of a fresh interpreter importing ``conveyor.cli``.
    """
    if args.workload == "cli":
        return wl_module.import_probe(ROOT, scratch)
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    done = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, check=True,
                          timeout=wl_module.CHILD_TIMEOUT_S)
    return float(done.stdout.split()[-1]) - t0


def timed(wl, seconds: float, tracer=None):
    """Whole rounds of the workload's operations until ``seconds`` have passed.

    Returns ([(op index, wall seconds, output, error)], elapsed seconds).
    """
    records = []
    perf = time.perf_counter
    start = perf()
    while True:
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = len(records)
            t0 = perf()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a failing operation is counted, the run goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            records.append((i, perf() - t0, out, err))
        if perf() - start >= seconds:
            return records, perf() - start


def check_all(wl, records) -> list[str]:
    """One line per failed operation."""
    import checks

    ref = checks.Reference()
    failures = []
    for n, (i, _, out, err) in enumerate(records):
        case = wl.ops[i].case
        problems = [err] if err else wl.check(case, out, ref)
        if problems:
            what = getattr(case, "label", None) or case.params
            failures.append(f"op {n} ({what}): " + "; ".join(problems))
    return failures


# ---------------------------------------------------------------------------
# metrics


def end_to_end(wl, records, elapsed, setup_s, rss_mb) -> dict:
    """``op_s`` is the median over rounds of a round's mean operation time:
    every round holds the same operations, so a round is the unit that does
    not depend on which of its operations happen to be cheap."""
    n = len(wl.ops)
    rounds = [sum(r[1] for r in records[i:i + n]) / n for i in range(0, len(records), n)]
    return {
        "setup_s": statistics.median(setup_s),
        "op_s": statistics.median(rounds),
        "ops_per_s": len(records) / elapsed,
        "peak_rss_mb": rss_mb,
    }


def cli_peak_rss(records) -> float:
    return max((run.rss_mb for _, _, out, _ in records if out for run in out
                if run.rss_mb is not None), default=0.0)


def per_layer(totals: dict, n_ops: int, untraced, traced, wl) -> dict:
    units = per_layer_units()
    values = {}
    for name in units:
        if name in totals:
            values[name] = totals[name] / n_ops
    scans = totals.get("periodic.scan_orbits.find_periodic", 0.0)
    values["periodic.scan_orbits.useful_ratio"] = (
        totals.get("periodic.scan_orbits.orbits", 0.0) / scans if scans else 0.0)
    if wl.name == "cli":
        for label in CLI_LABELS:
            compute, wall = [], []
            for i, _, out, _ in untraced[0]:
                if wl.ops[i].case.label != label or not out:
                    continue
                for run in out:
                    wall.append(run.wall_s)
                    try:
                        compute.append(float(json.loads(run.manifest)["duration_s"]))
                    except (TypeError, ValueError, KeyError):
                        pass
            values[f"cli.{label}.compute_s"] = statistics.median(compute) if compute else 0.0
            values[f"cli.{label}.wall_s"] = statistics.median(wall) if wall else 0.0
    u = len(untraced[0]) / untraced[1]
    t = len(traced[0]) / traced[1]
    values.update({"trace.ops_per_s_untraced": u, "trace.ops_per_s_traced": t,
                   "trace.overhead_pct": 100.0 * (u / t - 1.0)})
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}


def cli_child_totals(paths) -> dict:
    totals: dict = {}
    for path in paths:
        try:
            rows = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        for k, v in rows.items():
            totals[k] = totals.get(k, 0.0) + v
    return totals


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")

    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed, ROOT, OUT)
        print(repr(time.perf_counter()))
        return 0

    scratch = OUT / f"scratch-{args.workload}-{args.seed}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        # the first probe warms the file cache and is discarded; the others
        # straddle the timed phase, so a drift in machine speed during the
        # run reaches set-up and timed figures alike
        setup_s = [] if args.trace else [setup_probe(args, workloads, scratch)
                                         for _ in range(SETUP_PROBES + 1)][1:]
        wl = workloads.build(args.workload, args.seed, ROOT, scratch)
        if not args.trace:
            records, elapsed = timed(wl, args.seconds)
            setup_s += [setup_probe(args, workloads, scratch) for _ in range(SETUP_PROBES)]
            rss = cli_peak_rss(records) if wl.name == "cli" else workloads.peak_rss_self_mb()
            all_records = records
        else:
            from tracer import Tracer

            untraced = timed(wl, args.seconds / 2.0)
            tracer = Tracer()
            if wl.name == "cli":
                wl.traced = True
            else:
                tracer.install()
            try:
                traced = timed(wl, args.seconds / 2.0, tracer)
            finally:
                tracer.uninstall()
            all_records = untraced[0] + traced[0]
            if wl.name == "cli":
                totals = cli_child_totals(wl.child_traces)
            else:
                totals = tracer.snapshot()
                tracer.write_spans(OUT / f"trace-{wl.name}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = check_all(wl, all_records)
    for line in failures[:20]:
        print("FAILED", line, file=sys.stderr)

    if not args.trace:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(wl, records, elapsed, setup_s, rss).items()}
    else:
        metrics = per_layer(totals, len(traced[0]), untraced, traced, wl)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    result = {"correct": not failures, "attempted": len(all_records), "failed": len(failures),
              "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
