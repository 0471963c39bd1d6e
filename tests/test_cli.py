"""Command-line interface tests: determinism, manifests, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conveyor
from conveyor import homotopy, periodic, verify
from conveyor.cli import _build_parser, _linspace, _write_csv, main
from conveyor.errors import ContinuationStall
from conveyor.homotopy import ContinuationTrace
from conveyor.model import default_params


def run(argv):
    return main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_reference_invocation(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run([
            "simulate", "--envelope", "lorentzian", "--z0", "0.37", "--f0", "0.8",
            "--b", "100", "--k-pi", "2.66", "--zi", "1.0", "--t-end", "5",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t_s", "z_lambda", "dzdt", "V"]
        assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 1.0
        assert float(rows[-1][0]) == 5.0

        manifest = json.loads((tmp_path / "traj.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["outputs"] == [str(out)]
        assert manifest["parameters"]["f0_wavelength2_per_s"] == 0.8
        assert "pm/s" in manifest["parameters"]["f0_unit_note"]
        assert manifest["duration_s"] > 0.0
        assert manifest["tool_version"]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--zi", "0.25", "--t-end", "1.0", "--stride", "3"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_drive_constant_column(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert run(["simulate", "--envelope", "plane", "--f0", "0", "--zi", "0.3",
                    "--t-end", "1", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(float(r[1]) == 0.3 for r in rows)

    def test_plane_with_z0_is_a_flag_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(["simulate", "--envelope", "plane", "--z0", "1", "--zi", "0",
                 "--t-end", "1", "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    def test_bad_span_is_a_flag_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(["simulate", "--zi", "0", "--t-end", "0", "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    def test_bad_integrator_flags_exit_2(self, tmp_path):
        for extra in (["--rtol", "0"], ["--max-step", "99"]):
            with pytest.raises(SystemExit) as info:
                run(["simulate", "--zi", "0", "--t-end", "1",
                     "--out", str(tmp_path / "x.csv")] + extra)
            assert info.value.code == 2

    # the last two are finite but put the drive phase k*z - b*t/2 out of range
    @pytest.mark.parametrize("flags", [["--f0", "nan", "--zi", "0", "--t-end", "1"],
                                       ["--zi", "nan", "--t-end", "1"],
                                       ["--zi", "0", "--t-end", "inf"],
                                       ["--zi", "1e308", "--t-end", "1"],
                                       ["--zi", "0", "--t0=-1e308", "--t-end", "1e308"]])
    def test_non_finite_inputs_exit_2(self, tmp_path, flags):
        with pytest.raises(SystemExit) as info:
            run(["simulate", *flags, "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert run(["simulate", "--zi", "0.1", "--t-end", "1", "--out", str(out),
                    "--dry-run"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["command"] == "simulate"
        assert not out.exists()
        assert not (tmp_path / "traj.manifest.json").exists()


class TestFindPeriodic:
    def test_reference_scan_single_row(self, tmp_path):
        out = tmp_path / "orbits.csv"
        assert run(["find-periodic", "--n-grid", "17", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["z_star", "multiplier", "residual", "sup_norm"]
        assert len(rows) == 1
        assert float(rows[0][0]) == pytest.approx(0.638748527, abs=1e-6)
        assert 0.0 < float(rows[0][1]) < 1.0
        assert float(rows[0][2]) < 1e-9

    def test_empty_window_warns_but_succeeds(self, tmp_path, capsys):
        out = tmp_path / "orbits.csv"
        code = run(["find-periodic", "--envelope", "gaussian", "--z-lo", "5",
                    "--z-hi", "10", "--n-grid", "6", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert rows == []
        assert "no certified periodic orbit" in capsys.readouterr().err

    def test_unrepresentable_scale_is_a_flag_error(self, tmp_path):
        # 1e160 squares to inf; 1e-60 squares to a positive double, but the
        # kernels also reach z0**6, which is 0
        for z0 in ("1e160", "1e-60"):
            with pytest.raises(SystemExit) as info:
                run(["find-periodic", "--z0", z0, "--out", str(tmp_path / "o.csv")])
            assert info.value.code == 2

    @pytest.mark.parametrize("flags", [["--n-grid", "1"], ["--n-grid", "-3"],
                                       ["--z-hi", "inf"], ["--z-lo", "nan"],
                                       ["--z-lo=-1e308", "--z-hi=1e308"],
                                       # finite width, but k*z overflows at z-lo
                                       ["--z-lo=-1e308", "--z-hi=1e307"],
                                       # finite width and phases, but the grid
                                       # offset (z_hi - z_lo) * 2 overflows
                                       ["--k-pi", "1e-10", "--z-lo=-5e307", "--z-hi=5e307",
                                        "--n-grid", "3"]])
    def test_bad_window_exits_2(self, tmp_path, flags):
        with pytest.raises(SystemExit) as info:
            run(["find-periodic", *flags, "--out", str(tmp_path / "o.csv")])
        assert info.value.code == 2
        assert not (tmp_path / "o.csv").exists()

    def test_huge_grid_is_checked_without_building_it(self, tmp_path):
        # the window check must not build the grid: a billion floats would
        # take gigabytes, which the child's address-space limit refuses
        script = (
            "import resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))\n"
            "from conveyor.cli import main\n"
            "start = time.perf_counter()\n"
            "assert main(['find-periodic', '--n-grid', '1000000000', '--out',\n"
            "             sys.argv[1], '--dry-run']) == 0\n"
            "assert time.perf_counter() - start < 1.0, time.perf_counter() - start\n"
        )
        src = str(Path(conveyor.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script, str(tmp_path / "o.csv")], env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=30)
        assert list(tmp_path.iterdir()) == []

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "orbits.csv"
        assert run(["find-periodic", "--n-grid", "9", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "orbits.manifest.json").read_text())
        assert manifest["command"] == "find-periodic"
        assert manifest["parameters"]["n_grid"] == 9


class TestContinue:
    def test_branch_csv(self, tmp_path):
        out = tmp_path / "branch.csv"
        assert run(["continue", "--envelope", "gaussian", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["lambda", "z0", "residual", "sup_norm"]
        lams = [float(r[0]) for r in rows]
        assert lams[-1] == 1.0
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert all(float(r[2]) < 1e-9 for r in rows)
        assert json.loads((tmp_path / "branch.manifest.json").read_text())["command"] == "continue"

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        def stall(p, cfg=None):
            raise ContinuationStall(ContinuationTrace((), False))

        monkeypatch.setattr(homotopy, "continue_to_one", stall)
        code = run(["continue", "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_driven_plane_exits_3_at_once(self, tmp_path, capsys):
        out = tmp_path / "plane.csv"
        assert run(["continue", "--envelope", "plane", "--out", str(out)]) == 3
        assert "plane drive has no periodic orbit" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestReproduce:
    def test_fig1_layout(self, tmp_path):
        assert run(["reproduce", "fig1", "--t-end", "0.5", "--out-dir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "fig1.csv")
        assert header == ["z_i", "t_s", "z_lambda"]
        ics = sorted({float(r[0]) for r in rows})
        assert len(ics) == 10
        assert ics[0] == -4.5 and ics[-1] == 4.5
        assert (tmp_path / "fig1.manifest.json").exists()

    def test_fig3_includes_dead_zone_releases(self, tmp_path):
        assert run(["reproduce", "fig3", "--t-end", "0.5", "--out-dir", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "fig3.csv")
        ics = sorted({float(r[0]) for r in rows})
        assert {-4.0, -3.0, 3.0, 4.0} <= set(ics)

    def test_fig2_settled_window(self, tmp_path):
        assert run(["reproduce", "fig2", "--out-dir", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "fig2.csv")
        assert len({float(r[0]) for r in rows}) == 5

    def test_pot_curves(self, tmp_path):
        assert run(["reproduce", "pot1", "--out-dir", str(tmp_path)]) == 0
        assert run(["reproduce", "pot2", "--out-dir", str(tmp_path)]) == 0
        for name in ("pot1", "pot2"):
            header, rows = read_csv(tmp_path / f"{name}.csv")
            assert header == ["z_lambda", "V"]
            at_zero = [r for r in rows if float(r[0]) == 0.0]
            assert float(at_zero[0][1]) == pytest.approx(0.8, rel=1e-12)
            assert all(0.0 <= float(r[1]) <= 0.8 + 1e-12 for r in rows)

    def test_plane_limit_value(self, tmp_path):
        assert run(["reproduce", "plane-limit", "--out-dir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "plane_limit.csv")
        assert header == ["t_s", "z_lambda"]
        assert len(rows) == 1
        assert float(rows[0][0]) == 1500.0
        assert 8910.0 <= float(rows[0][1]) <= 9090.0

    @pytest.mark.parametrize("figure, t_end", [("fig1", "0"), ("fig1", "nan"), ("fig1", "-1"),
                                               ("fig3", "inf"), ("pot1", "-inf")])
    def test_bad_horizon_exits_2(self, tmp_path, figure, t_end):
        with pytest.raises(SystemExit) as info:
            run(["reproduce", figure, "--t-end", t_end, "--out-dir", str(tmp_path)])
        assert info.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(["reproduce", "fig9", "--out-dir", str(tmp_path)])
        assert info.value.code == 2


class TestVerify:
    def test_battery_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["verify", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "fixed_point_scan[plane]" in names
        assert "identity_energy[lorentzian]" in names
        assert "identity_force[gaussian]" in names
        assert "multiplier_cross_check[lorentzian]" in names
        assert "beta_bound" in names
        stdout = capsys.readouterr().out
        assert "PASS" in stdout and "FAIL" not in stdout
        assert (tmp_path / "report.manifest.json").exists()

    def test_rest_point_scans_fail_without_drive(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["verify", "--f0", "0", "--out", str(out)]) == 3
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        for kind in ("plane", "lorentzian", "gaussian"):
            scan = checks[f"fixed_point_scan[{kind}]"]
            assert scan["passed"] is False
            assert len(scan["flagged"]) == 1001
        assert "FAIL fixed_point_scan[plane]" in capsys.readouterr().out

    @pytest.mark.parametrize("f0, passed", [("0", False), ("0.8", True)])
    def test_parked_orbit_certificates_fail(self, tmp_path, f0, passed):
        # without drive both orbits park, where the identities and the two
        # multipliers agree whatever the field; they must not pass there
        out = tmp_path / "report.json"
        run(["verify", "--f0", f0, "--out", str(out)])
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        for kind in ("lorentzian", "gaussian"):
            for name in ("identity_energy", "identity_force", "multiplier_cross_check"):
                assert checks[f"{name}[{kind}]"]["passed"] is passed, (name, kind)

    @pytest.mark.parametrize("f0", ["0.04", "0.8", "2", "5", "10"])
    def test_battery_passes_across_drive_strengths(self, tmp_path, f0):
        # at f0 = 10 the Gaussian multiplier is about 8e-6, where a central
        # difference at the solve's own tolerances read 1e-3 relative error
        out = tmp_path / "report.json"
        assert run(["verify", "--f0", f0, "--out", str(out)]) == 0
        failed = [c["name"] for c in json.loads(out.read_text())["checks"] if not c["passed"]]
        assert failed == []

    def test_nan_drive_is_a_flag_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(["verify", "--f0", "nan", "--out", str(tmp_path / "report.json")])
        assert info.value.code == 2

    @pytest.mark.parametrize("b", ["1e308", "5e307"])
    def test_drive_too_fast_for_the_beta_grid_is_a_flag_error(self, tmp_path, b):
        # the beta-bound check's grid has no normal step there: 1e308 ended in
        # a math domain error traceback, 5e307 in a false FAIL beta_bound
        src = str(Path(conveyor.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "conveyor.cli", "verify", "--b", b,
             "--out", str(tmp_path / "report.json")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "--b" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_reference_report_reads_the_library(self, tmp_path, lorentzian_params):
        # the identities come from fresh orbits' one shared pass, the beta
        # bound from the check at the reference period, bit for bit
        out = tmp_path / "report.json"
        assert run(["verify", "--out", str(out)]) == 0
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        for kind in ("lorentzian", "gaussian"):
            orbit = periodic.find_periodic(default_params(kind), 0.0)
            for name, identity in (("identity_energy", verify.identity_energy),
                                   ("identity_force", verify.identity_force)):
                got = checks[f"{name}[{kind}]"]
                assert (got["lhs"], got["rhs"], got["rel_residual"]) == tuple(identity(orbit))
        bb = homotopy.beta_bound_check(lorentzian_params.period)
        assert checks["beta_bound"] == {"name": "beta_bound", "passed": True, "beta": bb.beta,
                                        "max_ratio": bb.max_ratio, "n_cases": bb.n_cases}

    def test_dry_run_lists_the_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["verify", "--out", str(out), "--dry-run"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["command"] == "verify"
        assert printed["outputs"] == [str(out)]
        assert list(tmp_path.iterdir()) == []


class TestUnwritableOutput:
    """An output path that cannot be written is a flag error, raised before
    any computing, where it used to end in a traceback after the run."""

    COMMANDS = {"simulate": ["simulate", "--zi", "1", "--t-end", "1"],
                "find-periodic": ["find-periodic"],
                "continue": ["continue"],
                "verify": ["verify"]}

    @staticmethod
    def assert_flag_error(argv, flag, capsys):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert flag in capsys.readouterr().err

    # a missing directory, the output itself a directory, and a directory
    # where its manifest goes
    @pytest.mark.parametrize("out, blocker", [("missing/x.csv", None), (".", None),
                                              ("x.csv", "x.manifest.json")])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_out(self, tmp_path, capsys, command, out, blocker):
        if blocker:
            (tmp_path / blocker).mkdir()
        self.assert_flag_error([*self.COMMANDS[command], "--out", str(tmp_path / out)],
                               "--out", capsys)
        assert [q.name for q in tmp_path.iterdir()] == ([blocker] if blocker else [])

    # a file, a path below a file, and a directory where the CSV or its
    # manifest goes
    @pytest.mark.parametrize("out_dir, blocker", [("f", "f"), ("f/sub", "f"), (".", "pot2.csv"),
                                                  (".", "pot2.manifest.json")])
    def test_reproduce_out_dir(self, tmp_path, capsys, out_dir, blocker):
        if blocker == "f":
            (tmp_path / blocker).write_text("")
        else:
            (tmp_path / blocker).mkdir()
        self.assert_flag_error(["reproduce", "pot2", "--out-dir", str(tmp_path / out_dir)],
                               "--out-dir", capsys)
        assert [q.name for q in tmp_path.iterdir()] == [blocker]


class TestFreshInterpreters:
    def test_hash_seed_does_not_change_bytes(self, tmp_path):
        # the in-process determinism tests cannot see hash-seed or
        # import-order effects; two fresh interpreters can
        script = ("import sys; from conveyor.cli import main; d = sys.argv[1]; "
                  "main(['reproduce', 'fig2', '--out-dir', d]); "
                  "main(['find-periodic', '--out', d + '/orbits.csv'])")
        src = str(Path(conveyor.__file__).resolve().parent.parent)
        dirs = [tmp_path / seed for seed in ("1", "4242")]
        for d in dirs:
            env = {**os.environ, "PYTHONHASHSEED": d.name, "PYTHONPATH": src}
            subprocess.run([sys.executable, "-c", script, str(d)], env=env, check=True,
                           timeout=60)
        for name in ("fig2.csv", "orbits.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def ceiling(max_step: str) -> list[str]:
    """Step flags with the first trial step at the ceiling."""
    return ["--max-step", max_step, "--initial-step", max_step]


# commands whose longest run is one map over 2*pi/b, then fig2 and fig4
SHORT_CEILING = [["find-periodic", "--out", "x.csv"], ["continue", "--out", "x.csv"],
                 ["verify", "--out", "x.csv"], ["reproduce", "fig2"], ["reproduce", "fig4"]]


class TestStepBudget:
    # 10^5 steps of the default ceiling period/20 is 628.3 s at the reference
    # set; --dry-run keeps an accepted horizon from computing
    @pytest.mark.parametrize("argv, accepted, rejected", [
        (["simulate", "--zi", "0", "--out", "x.csv"], ["--t-end", "628"], ["--t-end", "629"]),
        (["simulate", "--zi", "0", "--out", "x.csv"], ["--t0", "-628", "--t-end", "0"],
         ["--t0", "-1", "--t-end", "628"]),
        (["reproduce", "fig1"], ["--t-end", "628"], ["--t-end", "629"]),
        (["reproduce", "fig3"], ["--t-end", "628"], ["--t-end", "629"]),
        # one map over 2*pi/b = 0.0628 s: a ceiling of 6.28e-7 s at the edge
        *[(argv, ceiling("6.3e-7"), ceiling("6.2e-7")) for argv in SHORT_CEILING[:3]],
        # five periods of 4*pi/b = 0.628 s: a ceiling of 6.28e-6 s at the edge
        *[(argv, ceiling("6.3e-6"), ceiling("6.2e-6")) for argv in SHORT_CEILING[3:]],
    ])
    def test_budget_edge(self, argv, accepted, rejected):
        assert run(argv + accepted + ["--dry-run"]) == 0
        with pytest.raises(SystemExit) as info:
            run(argv + rejected + ["--dry-run"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", SHORT_CEILING,
                             ids=lambda argv: argv[1 if argv[0] == "reproduce" else 0])
    def test_short_ceiling_exits_2_before_computing(self, tmp_path, capsys, argv):
        # each command's longest run is checked with the stepper's own check
        # at flag time, so a ceiling below its edge writes nothing
        argv = [a.replace("x.csv", str(tmp_path / "x.csv")) for a in argv]
        argv += ["--out-dir", str(tmp_path)] if argv[0] == "reproduce" else []
        with pytest.raises(SystemExit) as info:
            run(argv + ceiling("1e-7"))
        assert info.value.code == 2
        assert "steps" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ["--zi", "0", "--t0", "1e13", "--t-end", "1.0000000000001e13"],
        ["--zi", "0.5", "--t-end", "5", "--initial-step", "1e-20"],
        ["--zi", "0.5", "--t-end", "5", "--initial-step", "1e-16"],
    ], ids=["late-start", "step-1e-20", "step-1e-16"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_first_step_below_floor_exits_2(self, tmp_path, capsys, flags, dry_run):
        # the stepper's floor would end each run on its first step (exit 3)
        with pytest.raises(SystemExit) as info:
            run(["simulate", *flags, "--out", str(tmp_path / "x.csv"), *dry_run])
        assert info.value.code == 2
        assert "first trial step" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_late_start_exits_2(self):
        # doubles near 1e17 are 16 s apart: no step of the ceiling moves t
        with pytest.raises(SystemExit) as info:
            run(["simulate", "--zi", "0", "--t0", "1e17", "--t-end", "1.000000000000001e17",
                 "--out", "x.csv", "--dry-run"])
        assert info.value.code == 2

    def test_long_horizons_exit_2_at_once(self, tmp_path):
        # without the budget each runs ~1.6e11 steps while its knots grow
        src = str(Path(conveyor.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        for argv in (["simulate", "--zi", "0", "--t-end", "1e9", "--out", "x.csv"],
                     ["reproduce", "fig1", "--t-end", "1e9", "--out-dir", "."],
                     ["reproduce", "fig3", "--t-end", "1e9", "--out-dir", "."]):
            proc = subprocess.run([sys.executable, "-m", "conveyor.cli", *argv], env=env,
                                  cwd=tmp_path, capture_output=True, text=True, timeout=10)
            assert proc.returncode == 2, argv
            assert "steps" in proc.stderr
        assert list(tmp_path.iterdir()) == []


class TestTolerances:
    @pytest.mark.parametrize("argv", [["find-periodic", "--rtol=5e-324"],
                                      ["continue", "--atol=5e-324"],
                                      ["reproduce", "fig2", "--rtol=5e-324"]],
                             ids=["find-periodic", "continue", "fig2"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_vanishing_hundredth_exits_2(self, tmp_path, capsys, argv, dry_run):
        # each orbit's stored run divides the tolerances by 100, which made
        # 5e-324 a zero tolerance: the run ended in a ValueError traceback
        out = (["--out-dir", str(tmp_path)] if argv[0] == "reproduce"
               else ["--out", str(tmp_path / "x.csv")])
        with pytest.raises(SystemExit) as info:
            run(argv + out + dry_run)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: conveyor {argv[0]}") and "normal double" in err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_multiplier_exits_3(self, tmp_path, capsys):
        # the half-period map's slope passes the double range here; math.exp
        # raised OverflowError, a traceback and exit 1
        assert run(["continue", "--atol=1e17", "--z0=1e-5",
                    "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err.startswith("error: no convergence")


class TestNumpyFreeCommands:
    def test_commands_run_without_numpy(self, tmp_path):
        # numpy comes only with the test extra: in one fresh interpreter where
        # importing it fails, every command and the library's solvers and
        # certificates must still run, and only the array getters need it
        script = (
            "import sys\n"
            "class NoNumpy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'numpy':\n"
            "            raise ImportError('numpy is not installed')\n"
            "sys.meta_path.insert(0, NoNumpy())\n"
            "from conveyor.cli import main; d = sys.argv[1]\n"
            "for argv in (['simulate', '--zi', '1', '--t-end', '1', '--out', d + '/s.csv'],\n"
            "             ['find-periodic', '--n-grid', '9', '--out', d + '/o.csv'],\n"
            "             ['find-periodic', '--out', d + '/dry.csv', '--dry-run'],\n"
            "             ['continue', '--out', d + '/c.csv'],\n"
            "             ['reproduce', 'fig1', '--out-dir', d],\n"
            "             ['reproduce', 'fig2', '--out-dir', d],\n"
            "             ['reproduce', 'pot2', '--out-dir', d],\n"
            "             ['reproduce', 'plane-limit', '--out-dir', d],\n"
            "             ['verify', '--out', d + '/v.json']):\n"
            "    assert main(argv) == 0, argv\n"
            "from conveyor import analytic, homotopy, periodic, verify\n"
            "from conveyor.model import default_params\n"
            "p = default_params('gaussian')\n"
            "orbit = periodic.find_periodic(p, 0.0)\n"
            "orbits = periodic.scan_orbits(p, -1.0, 1.0, 9)\n"
            "assert len(orbits) == 1, orbits\n"
            "assert abs(orbits[0].z_star - orbit.z_star) < periodic.DEDUPE_TOL\n"
            "assert periodic.basin_probe(p, [orbit.z_star], 10 * p.period, orbits)[0].converged\n"
            "assert homotopy.continue_to_one(p).converged\n"
            "assert verify.identity_energy(orbit).rel_residual < 1e-6\n"
            "assert verify.identity_force(orbit).rel_residual < 1e-6\n"
            "assert verify.multiplier_cross_check(p, orbit).rel_error < 1e-4\n"
            "assert verify.fixed_point_scan(p, -1.0, 1.0, 5) == []\n"
            "assert homotopy.beta_bound_check(p.period).passed\n"
            "ts = [0.0, 0.25, 0.5, 1.0]\n"
            "y = homotopy.linear_bvp(ts, [2.5] * 4, 0.0)\n"
            "assert max(abs(v - 2.5) for v in y) < 1e-12, y\n"
            "assert abs(homotopy.piecewise_linear_l1(ts, [2.5] * 4) - 2.5) < 1e-12\n"
            "q = default_params('plane')\n"
            "assert abs(analytic.plane_solution(analytic.PlaneSolution(0.2, q), 0.0) - 0.2) < 1e-12\n"
            "assert analytic.drift_velocity(q)[0] > 0.0\n"
            "assert analytic.taylor_small_f0(q, 0.2, 0.0) == 0.2\n"
            "try:\n"
            "    orbit.trajectory.times\n"
            "except ImportError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('Trajectory.times ran without numpy')\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = str(Path(conveyor.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        assert len(list(tmp_path.glob("*.csv"))) == 7


class TestImportGraph:
    def test_commands_load_only_their_solvers(self, tmp_path):
        # each command starts in a fresh process and pays for every module
        # it imports; a solver module back on the import path fails here
        script = (
            "import sys\n"
            "import conveyor.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'conveyor')\n"
            "base = ['conveyor', 'conveyor.cli', 'conveyor.errors', 'conveyor.integrate',\n"
            "        'conveyor.model']\n"
            "assert loaded() == base, loaded()\n"
            "d = sys.argv[1]\n"
            "for argv in (['simulate', '--zi', '1', '--t-end', '1', '--out', d + '/s.csv'],\n"
            "             ['reproduce', 'pot2', '--out-dir', d],\n"
            "             ['find-periodic', '--out', d + '/o.csv', '--dry-run'],\n"
            "             ['verify', '--out', d + '/v.json', '--dry-run']):\n"
            "    assert conveyor.cli.main(argv) == 0, argv\n"
            "try:\n"
            "    conveyor.cli.main(['continue', '--rtol', '0', '--out', d + '/c.csv'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 2, exc.code\n"
            "else:\n"
            "    raise AssertionError('--rtol 0 was accepted')\n"
            "assert loaded() == base, loaded()\n"
        )
        src = str(Path(conveyor.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        assert sorted(q.name for q in tmp_path.iterdir()) == [
            "pot2.csv", "pot2.manifest.json", "s.csv", "s.manifest.json"]


class TestWriteCsv:
    # the extremes of the float format: signed zeros and infinities, nan,
    # the smallest subnormal and normal, the largest finite float, values
    # without a short decimal form, and integral floats
    VALUES = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, 0.1, 1 / 3, 3.0, 1e22]
    VALUES += [-v for v in VALUES]

    @staticmethod
    def per_value(header, rows) -> bytes:
        """The writer's bytes as formatted one value at a time."""
        lines = [",".join(header)]
        lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
        return ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_bytes_match_per_value_format(self, tmp_path, width):
        header = [f"c{i}" for i in range(width)]
        vals = self.VALUES
        rows = [tuple(vals[(i + j) % len(vals)] for j in range(width)) for i in range(len(vals))]
        out = tmp_path / "x.csv"
        _write_csv(out, header, rows)
        data = out.read_bytes()
        assert data == self.per_value(header, rows)
        assert data.startswith((",".join(header) + "\n").encode())
        assert b"\r" not in data and data.count(b"\n") == len(rows) + 1

    def test_header_only(self, tmp_path):
        out = tmp_path / "x.csv"
        _write_csv(out, ["z_star", "multiplier"], [])
        assert out.read_bytes() == b"z_star,multiplier\n"


class TestLinspace:
    PERIOD = default_params("lorentzian").period  # the Gaussian figures share it
    CLI_CALLS = [(-4.5, 4.5, 10), (-1.0, 1.0, 6), (-0.1, 0.1, 5), (-0.05, 0.05, 5),
                 (-6.0, 6.0, 2001), (0.0, 5.0, 1001), (0.0, 0.5, 1001), (0.0, 5.0 * PERIOD, 1001)]

    @staticmethod
    def assert_bitwise(a, b, n):
        ours = _linspace(a, b, n)
        ref = np.linspace(a, b, n)
        assert len(ours) == n and all(type(x) is float for x in ours)
        assert [x.hex() for x in ours] == [float(x).hex() for x in ref]

    @pytest.mark.parametrize("a, b, n", CLI_CALLS)
    def test_cli_calls_match_numpy(self, a, b, n):
        self.assert_bitwise(a, b, n)

    def test_random_calls_match_numpy(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = (float(x) for x in rng.normal(scale=10.0 ** rng.integers(-3, 4), size=2))
            self.assert_bitwise(a, b, int(rng.integers(2, 3000)))


class TestParser:
    def test_own_flag_error_prints_command_usage(self, capsys):
        # the program's own flag checks, like argparse's, print the command's usage
        with pytest.raises(SystemExit) as info:
            run(["simulate", "--zi", "0", "--t0=-1e17", "--t-end", "0", "--out", "x.csv",
                 "--dry-run"])
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith("usage: conveyor simulate")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["--version"])
        assert info.value.code == 0
        assert "conveyor" in capsys.readouterr().out

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as info:
            run([])
        assert info.value.code == 2

    def test_flag_sets(self):
        # adding or removing a flag must change this list
        shared = {"-h", "--help", "--rtol", "--atol", "--max-step", "--initial-step", "--dry-run"}
        params = {"--z0", "--f0", "--b", "--k-pi", "--wavelength-nm"}
        expected = {
            "simulate": shared | params | {"--envelope", "--zi", "--t0", "--t-end", "--stride",
                                           "--out"},
            "find-periodic": shared | params | {"--envelope", "--z-lo", "--z-hi", "--n-grid",
                                                "--out"},
            "continue": shared | params | {"--envelope", "--out"},
            "reproduce": shared | {"--t-end", "--out-dir"},
            "verify": shared | params | {"--out"},
        }
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {name: {s for a in ap._actions for s in a.option_strings}
                 for name, ap in sub.choices.items()}
        assert found == expected

    @pytest.mark.parametrize("argv", [["verify", "--envelope", "gaussian", "--out", "report.json"],
                                      ["reproduce", "fig1", "--out", "x.csv"]])
    def test_unknown_or_abbreviated_flag_exits_2(self, tmp_path, monkeypatch, argv):
        # verify takes no --envelope; --out is not read as reproduce's --out-dir
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["simulate", "--zi", "0", "--t-end", "1", "--out", "x.csv"],
                                      ["find-periodic", "--out", "x.csv"],
                                      ["continue", "--out", "x.csv"],
                                      ["verify", "--out", "report.json"]])
    def test_overflowing_period_exits_2(self, tmp_path, monkeypatch, argv):
        # 4 pi / b is inf for b = 1e-320; verify and continue used to run
        # over it and fail with a traceback, simulate to write a file
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            run([*argv, "--b", "1e-320"])
        assert info.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["simulate", "--zi", "1e-40", "--t-end", "1",
                                       "--out", "x.csv"],
                                      ["find-periodic", "--out", "x.csv"],
                                      ["continue", "--out", "x.csv"],
                                      ["verify", "--out", "report.json"]])
    @pytest.mark.parametrize("flags", [["--f0", "1.1e307"], ["--f0", "1e300", "--z0", "1e-40"]])
    def test_unbounded_force_exits_2(self, tmp_path, monkeypatch, argv, flags):
        # F overflows somewhere: each command used to exit 1 with a math
        # domain error or 3 with a step-size underflow at t = 0
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            run([*argv, *flags])
        assert info.value.code == 2
        assert list(tmp_path.iterdir()) == []
