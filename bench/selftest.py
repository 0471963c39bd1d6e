"""Proof that the benchmark's checks can fail.

    python3 bench/selftest.py

Runs one operation of every kind on seed-1 inputs, confirms that its real
output passes, then feeds the same check deliberately wrong copies of that
output and expects each to be rejected.  Prints one line per case and exits
non-zero if a correct output is rejected or a wrong one accepted.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

results: list[tuple[str, bool]] = []


def expect(label: str, check, case, output, ref, ok: bool):
    problems = check(case, output, ref)
    passed = (not problems) == ok
    results.append((label, passed))
    verdict = "accepted" if not problems else f"rejected ({problems[0][:90]})"
    print(f"{'ok  ' if passed else 'FAIL'} {label}: {verdict}")


def first(wl, predicate=lambda c: True):
    return next(op for op in wl.ops if predicate(op.case))


def sweep(ref):
    wl = workloads.OrbitSweep(1)
    op = first(wl, lambda c: c.params.kind == "lorentzian")
    rows = op.run()
    r = rows[0]
    expect("orbit-sweep correct", wl.check, op.case, rows, ref, True)
    expect("orbit-sweep z* + 1e-6", wl.check, op.case, [r._replace(z_star=r.z_star + 1e-6)], ref, False)
    bad_mu = r.multiplier + 1e-3
    expect("orbit-sweep mu + 1e-3", wl.check, op.case,
           [r._replace(multiplier=bad_mu, mc_variational=bad_mu)], ref, False)
    expect("orbit-sweep no orbit", wl.check, op.case, [], ref, False)
    expect("orbit-sweep duplicate orbit", wl.check, op.case, [r, r._replace(z_star=r.z_star + 0.5)], ref, False)
    expect("orbit-sweep identity residual 1e-3", wl.check, op.case, [r._replace(energy_rel=1e-3)], ref, False)


def continuation(ref):
    wl = workloads.Continuation(1)
    op = wl.ops[0]
    converged, steps = op.run()
    expect("continuation correct", wl.check, op.case, (converged, steps), ref, True)
    last = steps[-1]
    shifted = steps[:-1] + ((last[0], last[1] + 1e-6, *last[2:]),)
    expect("continuation final z0 + 1e-6", wl.check, op.case, (True, shifted), ref, False)
    expect("continuation not converged", wl.check, op.case, (False, steps), ref, False)
    expect("continuation stops short of 1", wl.check, op.case, (True, steps[:-1]), ref, False)


def trajectories(ref):
    wl = workloads.Trajectories(1)
    for kind in ("lorentzian", "plane"):
        for mode in ("dense", "final"):
            op = first(wl, lambda c: c.params.kind == kind and c.mode == mode)
            out = op.run()
            expect(f"trajectories {kind} {mode} correct", wl.check, op.case, out, ref, True)
            expect(f"trajectories {kind} {mode} + 1e-4", wl.check, op.case, out + 1e-4, ref, False)
            if mode == "dense":
                expect(f"trajectories {kind} dense reversed", wl.check, op.case, out[::-1], ref, False)
                expect(f"trajectories {kind} dense truncated", wl.check, op.case, out[:-1], ref, False)


def _swap_rows(data: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[1], lines[2] = lines[2], lines[1]
    return b"\n".join(lines)


def _truncate(data: bytes) -> bytes:
    return b"\n".join(data.split(b"\n")[:-2]) + b"\n"


def cli(ref):
    scratch = ROOT / ".bench_out" / "selftest"
    wl = workloads.Cli(1, ROOT, scratch)
    try:
        for op in wl.ops:
            case, runs = op.case, op.run()
            a, b = runs
            label = f"cli {case.label}"
            expect(f"{label} correct", wl.check, case, runs, ref, True)
            expect(f"{label} exit code 3", wl.check, case, [dataclasses.replace(a, code=3), b], ref, False)
            expect(f"{label} manifest without duration_s", wl.check, case,
                   [a, dataclasses.replace(b, manifest=b'{"command": "x"}')], ref, False)
            expect(f"{label} runs differ", wl.check, case,
                   [a, dataclasses.replace(b, output=b.output + b"\n")], ref, False)
            if case.label == "verify":
                report = json.loads(a.output)
                report["passed"] = False
                bad = json.dumps(report).encode()
                expect(f"{label} passed: false", wl.check, case,
                       [dataclasses.replace(r, output=bad) for r in runs], ref, False)
                continue
            variants = {"truncated": _truncate(a.output),
                        "header renamed": a.output.replace(b",", b";", 1)}
            if a.output.count(b"\n") > 3:
                variants["reordered"] = _swap_rows(a.output)
            for name, bad in variants.items():
                expect(f"{label} {name}", wl.check, case,
                       [dataclasses.replace(r, output=bad) for r in runs], ref, False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def benchmark_file(ref):
    import run

    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [{m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer")]
    ok = listed == [run.END_TO_END, run.per_layer_units()]
    results.append(("BENCHMARK.json", ok))
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json lists exactly the metrics run.py prints")


def main() -> int:
    ref = checks.Reference()
    for part in (benchmark_file, sweep, continuation, trajectories, cli):
        part(ref)
    bad = [label for label, passed in results if not passed]
    print(f"{len(results) - len(bad)}/{len(results)} cases behaved as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
