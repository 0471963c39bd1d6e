"""The reference commands' outputs, pinned for ``tests/test_golden.py``.

Run from the repository root to rewrite ``outputs.json`` beside this file:

    PYTHONPATH=src python tests/golden/record.py

Each command runs in process through ``cli.main``.  Its record holds the
exit code, stdout, stderr and manifest (without ``duration_s`` and the
output paths), and either the CSV's header, row count and columns or the
``verify`` report.  The time series and potential curves of ``simulate``
and ``reproduce`` keep every 50th row plus the last, as does a long
``flagged`` list of the report; solver outputs are kept in full.

``compare`` judges a fresh record against the pinned one.  Exit codes,
strings, headers, row counts, pass flags and the continuation's lambda
values must match exactly; residual-type numbers within 1e-13 absolute;
every other number within 1e-12 relative, so that another libm's last bit
of ``exp`` or ``sin`` does not fail the pin.  A change that moves these
numbers on purpose regenerates the file and lists the changed fields.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from conveyor.cli import main

OUTPUTS = Path(__file__).with_name("outputs.json")
FIGURES = ("fig1", "fig2", "fig3", "fig4", "pot1", "pot2", "plane-limit")
COMMANDS = {
    "simulate": ["simulate", "--zi", "0.5", "--t-end", "5"],
    "find-periodic lorentzian": ["find-periodic"],
    "find-periodic gaussian": ["find-periodic", "--envelope", "gaussian",
                               "--z-lo", "-1", "--z-hi", "1", "--n-grid", "21"],
    "continue lorentzian": ["continue"],
    "continue gaussian": ["continue", "--envelope", "gaussian"],
    "continue plane f0=0": ["continue", "--envelope", "plane", "--f0", "0"],
    **{f"reproduce {fig}": ["reproduce", fig] for fig in FIGURES},
    "verify f0=0.8": ["verify"],
    "verify f0=0": ["verify", "--f0", "0"],
    "verify f0=10": ["verify", "--f0", "10"],
}
EXACT = {"lambda"}
ABSOLUTE = {"residual", "rel_residual", "rel_error"}
REL_TOL = 1e-12
ABS_TOL = 1e-13
_THIN = 50


def _thin(values: list) -> list:
    return [v for i, v in enumerate(values) if i % _THIN == 0 or i == len(values) - 1]


def run(argv: list[str], out_dir: Path) -> dict:
    """One command's record, its outputs written under ``out_dir``."""
    if argv[0] == "reproduce":
        out = out_dir / f"{argv[1].replace('-', '_')}.csv"
        flags = ["--out-dir", str(out_dir)]
    else:
        out = out_dir / ("report.json" if argv[0] == "verify" else "out.csv")
        flags = ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv + flags)
    manifest = json.loads(out.with_suffix(".manifest.json").read_text(encoding="utf-8"))
    del manifest["duration_s"], manifest["outputs"]
    record = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
              "manifest": manifest}
    if argv[0] == "verify":
        report = json.loads(out.read_text(encoding="utf-8"))
        for check in report["checks"]:
            if "flagged" in check:
                check["flagged_n"] = len(check["flagged"])
                check["flagged"] = _thin(check["flagged"])
        record["report"] = report
    else:
        header, *lines = out.read_text(encoding="utf-8").splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines]
        if argv[0] in ("simulate", "reproduce"):
            rows = _thin(rows)
        names = header.split(",")
        record.update(header=names, n_rows=len(lines),
                      columns={n: [row[j] for row in rows] for j, n in enumerate(names)})
    return record


def run_all() -> dict:
    """Every reference command's record, keyed as ``COMMANDS``."""
    records = {}
    for name, argv in COMMANDS.items():
        with tempfile.TemporaryDirectory() as d:
            records[name] = run(argv, Path(d))
    return records


def _close(key: str, want: float, got: float) -> bool:
    if want == got:
        return True
    if key in EXACT:
        return False
    if key in ABSOLUTE:
        return abs(want - got) <= ABS_TOL
    return abs(want - got) <= REL_TOL * max(abs(want), abs(got))


def compare(want, got, where: str = "", key: str = "") -> list[str]:
    """Where ``got`` departs from ``want``; a number is judged by its key."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} instead of {sorted(want)}"]
        return [p for k in want for p in compare(want[k], got[k], f"{where}.{k}", k)]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: {len(got)} entries instead of {len(want)}"]
        return [p for i, (w, g) in enumerate(zip(want, got))
                for p in compare(w, g, f"{where}[{i}]", key)]
    if type(want) is float and type(got) is float:
        return [] if _close(key, want, got) else [f"{where}: {got!r} instead of {want!r}"]
    return [] if type(want) is type(got) and want == got else [
        f"{where}: {got!r} instead of {want!r}"]


def dumps(records: dict) -> str:
    """The file's text: one command per line, so a diff shows which moved."""
    lines = [f"{json.dumps(name)}: {json.dumps(rec, sort_keys=True)}"
             for name, rec in records.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    OUTPUTS.write_text(dumps(run_all()), encoding="utf-8")
    print(f"wrote {OUTPUTS}", file=sys.stderr)
