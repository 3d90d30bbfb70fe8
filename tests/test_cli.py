import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from multigrip import sim
from multigrip.cli import dispatch
from multigrip.config import default_config
from multigrip.sim import (EVENTS_HEADER, TRACE_HEADER, run_scenario,
                           switch_scenario, write_trace_csv)


BOX = str(Path(__file__).parent.parent / "fixtures" / "objects" / "box.object")


def run(capsys, *argv):
    rc = dispatch(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestValidateGears:
    def test_reference_output(self, capsys):
        rc, out, _ = run(capsys, "validate-gears")
        assert rc == 0
        assert "delta_theta_sw_deg=108" in out
        assert "n_GC=12" in out

    def test_with_config_file(self, capsys, fixtures_dir):
        rc, out, _ = run(capsys, "--config", str(fixtures_dir / "default.cfg"),
                         "validate-gears")
        assert rc == 0
        assert "delta_theta_sw_deg=108" in out

    def test_bad_gearing_fails(self, capsys, tmp_path):
        cfg = (fixture_text := (tmp_path / "bad.cfg"))
        cfg.write_text("""
[gears]
input_sprocket_radius_mm = 20
drive_sprocket_radius_mm = 15
shaft_gear_radius_3s_mm = 10
shaft_gear_radius_4s_mm = 10
body_gear_radius_3s_mm = 12
body_gear_radius_4s_mm = 12
""")
        rc, _, err = run(capsys, "--config", str(cfg), "validate-gears")
        assert rc == 1
        assert "antipodal" in err


class TestModes:
    def test_table_and_pairs(self, capsys):
        rc, out, _ = run(capsys, "modes")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "mode,label,surface_3s,surface_4s"
        assert lines[1].startswith("1,GC1,flat,flat")
        assert "distinct_pairs=9" in out
        assert sum(1 for l in lines if l and l[0].isdigit()) == 12


class TestSimulate:
    def test_grasp_trace(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        ev_file = tmp_path / "events.csv"
        rc, _, err = run(capsys, "simulate", "grasp", "--force", "40",
                         "--gap", "10", "--out", str(out_file),
                         "--events", str(ev_file))
        assert rc == 0
        assert "final_f_g_N=40" in err
        with open(out_file) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRACE_HEADER
        assert all(len(r) == len(TRACE_HEADER) for r in rows[1:])
        assert float(rows[-1][7]) == pytest.approx(40.0, abs=1e-9)
        with open(ev_file) as fh:
            ev_rows = list(csv.reader(fh))
        assert ev_rows[0] == EVENTS_HEADER
        assert any(r[1] == "ObjectContact" for r in ev_rows[1:])

    def test_config_with_nan_friction_torque_rejected(self, capsys, tmp_path,
                                                      fixtures_dir):
        cfg = tmp_path / "nan.cfg"
        lines = (fixtures_dir / "default.cfg").read_text().splitlines()
        lineno = lines.index("friction_torque_nmm = 0") + 1
        lines[lineno - 1] = "friction_torque_nmm = nan"
        cfg.write_text("\n".join(lines) + "\n")
        rc, out, err = run(capsys, "--config", str(cfg), "simulate", "switch",
                           "--from", "1", "--to", "2")
        assert rc == 1
        assert out == ""
        assert f"line {lineno}: non-finite value for friction_torque_nmm" in err

    def test_switch_single_step(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        ev_file = tmp_path / "events.csv"
        rc, _, err = run(capsys, "simulate", "switch", "--from", "1",
                         "--to", "2", "--out", str(out_file),
                         "--events", str(ev_file))
        assert rc == 0
        assert "mode_changes=1" in err
        with open(ev_file) as fh:
            ev_rows = list(csv.reader(fh))
        changes = [r for r in ev_rows[1:] if r[1] == "ModeChanged"]
        breakaways = [r for r in ev_rows[1:] if r[1] == "Breakaway"]
        assert len(changes) == 1 and len(breakaways) == 1
        with open(out_file) as fh:
            rows = list(csv.reader(fh))
        travel = (float(rows[int(changes[0][0]) + 1][1])
                  - float(rows[int(breakaways[0][0]) + 1][1]))
        assert travel == pytest.approx(108.0, abs=1e-6)

    def test_trace_stdout_out_file_and_writer_agree(self, capsys, tmp_path):
        argv = ["simulate", "switch", "--from", "1", "--to", "4"]
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        out_file = tmp_path / "trace.csv"
        rc, to_stdout, _ = run(capsys, *argv, "--out", str(out_file))
        assert rc == 0 and to_stdout == ""
        cfg = default_config()
        scenario, _ = switch_scenario(
            cfg.gears, cfg.magnet, cfg.counts, from_mode=1, to_mode=4,
            stroke_limit=cfg.stroke_limit, step_deg=cfg.step_deg,
            friction_torque=cfg.friction_torque)
        buf = io.StringIO()
        write_trace_csv(run_scenario(scenario), buf)
        assert out_file.read_bytes() == out.encode() == buf.getvalue().encode()

    def test_grasp_gap_beyond_stroke(self, capsys):
        rc, _, err = run(capsys, "simulate", "grasp", "--force", "10",
                         "--gap", "100")
        assert rc == 1
        assert "stroke" in err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "grasp", "--force", "40", "--gap", "0"],
         "--gap must be positive and finite, got 0"),
        (["simulate", "grasp", "--force", "40", "--gap", "nan"],
         "--gap must be positive and finite, got nan"),
        (["simulate", "grasp", "--force", "inf", "--gap", "10"],
         "--force must be positive and finite, got inf"),
        (["simulate", "grasp", "--force", "-5", "--gap", "10"],
         "--force must be positive and finite, got -5"),
        (["simulate", "grasp", "--force", "2e307", "--gap", "3"],
         "--force 2e+307 N overflows the motor torque target "
         "at the 20 mm input sprocket radius"),
        (["simulate", "switch", "--from", "1", "--to", "2", "--gap", "nan"],
         "--gap must be non-negative and finite, got nan"),
        (["simulate", "switch", "--from", "1", "--to", "2", "--gap", "-1"],
         "--gap must be non-negative and finite, got -1"),
        (["simulate", "switch", "--from", "1", "--to", "2", "--gap", "41"],
         "gap 41 mm exceeds the stroke limit 40 mm"),
        (["simulate", "switch", "--from", "1", "--to", "13"],
         "--to must be a mode in 1..12, got 13"),
        (["simulate", "switch", "--from", "13", "--to", "1"],
         "--from must be a mode in 1..12, got 13"),
        (["plan", "--object", BOX, "--current-mode", "13"],
         "--current-mode must be a mode in 1..12, got 13"),
        (["classify", "--object", BOX, "--mode", "0"], "--mode must be a mode in 1..12, got 0"),
        (["simulate", "grasp", "--force", "10", "--gap", "3", "--mode", "13"],
         "--mode must be a mode in 1..12, got 13"),
    ], ids=["grasp-gap-0", "grasp-gap-nan", "grasp-force-inf", "grasp-force-negative",
            "grasp-force-torque-overflow", "switch-gap-nan", "switch-gap-negative",
            "switch-gap-beyond-stroke", "switch-to-13", "switch-from-13",
            "plan-current-mode-13", "classify-mode-0", "grasp-mode-13-without-object"])
    def test_bad_gap_or_force_names_the_flag(self, capsys, tmp_path, argv, message):
        out_file = tmp_path / "t.csv"
        rc, out, err = run(capsys, *argv, "--out", str(out_file))
        assert (rc, out, err) == (1, "", f"error: {message}\n")
        assert not out_file.exists()

    def test_simulator_error_is_one_error_line(self, capsys, monkeypatch):
        def refuse(scenario):
            raise sim.StrokeLimitExceeded("finger travel 41 mm exceeds the stroke limit")

        monkeypatch.setattr(sim, "run_scenario", refuse)
        rc, out, err = run(capsys, "simulate", "switch", "--from", "1", "--to", "2")
        assert (rc, out) == (1, "")
        assert err == "error: finger travel 41 mm exceeds the stroke limit\n"

    def test_grasp_with_object_classification(self, capsys, fixtures_dir, tmp_path):
        rc, _, err = run(capsys, "simulate", "grasp", "--force", "20",
                         "--gap", "5",
                         "--object", str(fixtures_dir / "objects" / "box.object"),
                         "--out", str(tmp_path / "t.csv"))
        assert rc == 0
        assert "classification=force_closure" in err

    @pytest.mark.parametrize("obj, mode", [("box.object", "99"), ("nope.object", "1")])
    def test_grasp_bad_object_or_mode_fails_before_simulating(self, capsys, fixtures_dir,
                                                             tmp_path, obj, mode):
        out_file = tmp_path / "t.csv"
        rc, out, err = run(capsys, "simulate", "grasp", "--force", "40", "--gap", "10",
                           "--object", str(fixtures_dir / "objects" / obj),
                           "--mode", mode, "--out", str(out_file))
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_file.exists()

    def test_grasp_object_wider_than_stroke_fails_before_simulating(self, capsys,
                                                                   tmp_path):
        obj = tmp_path / "wide.object"
        obj.write_text("shape = circle\nradius_mm = 25\n")
        out_file = tmp_path / "t.csv"
        rc, out, err = run(capsys, "simulate", "grasp", "--force", "40", "--gap", "10",
                           "--object", str(obj), "--mode", "3", "--out", str(out_file))
        assert (rc, out) == (1, "")
        assert err == "error: object extent 50 mm exceeds the stroke 40 mm\n"
        assert not out_file.exists()
        # the same check and message as classify
        assert run(capsys, "classify", "--object", str(obj), "--mode", "3") == (1, "", err)


class TestPlanAndClassify:
    def test_plan_thin_plate(self, capsys, fixtures_dir):
        rc, out, _ = run(capsys, "plan", "--object",
                         str(fixtures_dir / "objects" / "thin_plate.object"),
                         "--current-mode", "1")
        assert rc == 0
        assert "k_goal=1" in out
        assert "fallback_used=false" in out

    def test_plan_cylinder(self, capsys, fixtures_dir):
        rc, out, _ = run(capsys, "plan", "--object",
                         str(fixtures_dir / "objects" / "large_cylinder.object"))
        assert rc == 0
        assert "k_goal=3" in out
        assert "rotation_deg=216" in out

    def test_plan_complex_fallback(self, capsys, fixtures_dir):
        rc, out, _ = run(capsys, "plan", "--object",
                         str(fixtures_dir / "objects" / "complex_bracket.object"))
        assert rc == 0
        assert "k_goal=4" in out
        assert "fallback_used=true" in out

    def test_classify_rejects_non_finite_friction(self, capsys, tmp_path):
        obj = tmp_path / "nan.object"
        obj.write_text("shape = box\nwidth_mm = 20\nheight_mm = 25\nmu = nan\n")
        rc, out, err = run(capsys, "classify", "--object", str(obj), "--mode", "1")
        assert rc == 1
        assert out == ""
        assert "line 4: non-finite value for mu" in err

    def test_classify_rejects_negative_radius(self, capsys, tmp_path):
        obj = tmp_path / "neg.object"
        obj.write_text("shape = circle\nradius_mm = -1\n")
        rc, out, err = run(capsys, "classify", "--object", str(obj), "--mode", "1")
        assert rc == 1
        assert out == ""
        assert "line 2: radius_mm must be positive" in err

    def test_classify_large_cylinder(self, capsys, fixtures_dir, tmp_path):
        contacts = tmp_path / "contacts.csv"
        rc, out, _ = run(capsys, "classify", "--object",
                         str(fixtures_dir / "objects" / "large_cylinder.object"),
                         "--mode", "3", "--contacts-out", str(contacts))
        assert rc == 0
        assert "classification=form_closure" in out
        assert "contacts=4" in out
        with open(contacts) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x_mm", "y_mm", "nx", "ny", "finger"]
        assert len(rows) == 5

    def test_classify_thin_plate_deformable(self, capsys, fixtures_dir):
        rc, out, _ = run(capsys, "classify", "--object",
                         str(fixtures_dir / "objects" / "thin_plate.object"),
                         "--mode", "4")
        assert rc == 0
        assert "classification=fail" in out

    def test_classify_warning_is_one_stderr_line(self, fixtures_dir, tmp_path):
        # the small cylinder at half size touches nothing at rest between
        # the closed pockets and escapes only through a gap of at most two cells
        half = tmp_path / "half_cylinder.object"
        half.write_text("shape = circle\nradius_mm = 2.5\nmu = 0.5\n"
                        "left_face = convex\nright_face = convex\n"
                        "height_mm = 10\nthickness_mm = 10\n")
        proc = _run_python("-m", "multigrip", "classify", "--object", str(half),
                           "--mode", "3")
        assert proc.returncode == 0
        assert proc.stdout == ("classification=fail contacts=0 posture_uncertain=false "
                               "reason='no closure and an escape path exists'\n")
        assert proc.stderr == ("warning: the escape path passes a gap at most two grid "
                               "cells (1 mm) wide; result may be resolution-limited\n")
        # the box in mode 5 touches a finger at rest, which is no narrow gap
        proc = _run_python("-m", "multigrip", "classify", "--object",
                           str(fixtures_dir / "objects" / "box.object"), "--mode", "5")
        assert proc.returncode == 0
        assert proc.stdout == ("classification=fail contacts=1 posture_uncertain=false "
                               "reason='no closure and an escape path exists'\n")
        assert proc.stderr == ""

    def test_missing_object_file(self, capsys):
        rc, _, err = run(capsys, "classify", "--object", "/nope.object",
                         "--mode", "1")
        assert rc == 1
        assert "error:" in err


class TestSweep:
    def test_magnet_coefficient_grid(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        rc, _, _ = run(capsys, "sweep", "--param",
                       "detent.magnet_coefficient_nmm2",
                       "--range", "1e-5:1e-4:1e-5",
                       "--metric", "breakaway", "--out", str(out_file))
        assert rc == 0
        with open(out_file) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "detent.magnet_coefficient_nmm2",
                           "breakaway_torque_nmm"]
        assert len(rows) == 11
        k = [float(r[1]) for r in rows[1:]]
        b = [float(r[2]) for r in rows[1:]]
        for i in range(1, 10):
            assert b[i] / b[0] == pytest.approx(k[i] / k[0], rel=1e-9)

    def test_rerunning_a_point_reproduces_it(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "sweep", "--param", "detent.magnet_gap_mm",
            "--range", "0.5:2.0:0.5", "--metric", "peak-detent",
            "--out", str(a))
        run(capsys, "sweep", "--param", "detent.magnet_gap_mm",
            "--range", "1.0:1.0:1.0", "--metric", "peak-detent",
            "--out", str(b))
        with open(a) as fh:
            rows_a = list(csv.reader(fh))
        with open(b) as fh:
            rows_b = list(csv.reader(fh))
        assert rows_a[2][1:] == rows_b[1][1:]

    def test_switch_interval_metric(self, capsys):
        rc, out, _ = run(capsys, "sweep", "--param", "gears.drive_sprocket_radius_mm",
                         "--range", "4:6:1", "--metric", "switch-interval")
        assert rc == 0
        rows = [r.split(",") for r in out.splitlines()[1:]]
        assert [float(r[1]) for r in rows] == [4.0, 5.0, 6.0]
        assert len({float(r[2]) for r in rows}) == 3

    @pytest.mark.parametrize("spec, metric", [("0:2:1", "switch-interval"),
                                              ("-50:0:25", "switch-interval")])
    def test_friction_torque_is_not_sweepable(self, capsys, spec, metric):
        # no sweep metric depends on it, so every row would be the same
        rc, out, err = run(capsys, "sweep", "--param", "sim.friction_torque_nmm",
                           f"--range={spec}", "--metric", metric)
        assert rc == 1
        assert out == ""
        assert "unknown sweep parameter 'sim.friction_torque_nmm'" in err

    def test_bad_range(self, capsys):
        rc, _, err = run(capsys, "sweep", "--param", "detent.magnet_gap_mm",
                         "--range", "nope", "--metric", "breakaway")
        assert rc == 1
        assert "error:" in err

    @pytest.mark.parametrize("spec, message", [
        ("1:2:nan", "non-finite"),
        ("1:inf:1", "non-finite"),
        ("nan:2:1", "non-finite"),
        ("-inf:2:1", "non-finite"),
        ("0:1e9:1", "more than 10000 points"),
        ("0:1:1e-12", "more than 10000 points"),
    ])
    def test_range_rejected_before_evaluating(self, capsys, spec, message):
        rc, out, err = run(capsys, "sweep", "--param", "detent.magnet_gap_mm",
                           f"--range={spec}", "--metric", "breakaway")
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and message in err

    def test_range_at_the_point_cap(self, capsys):
        rc, out, _ = run(capsys, "sweep", "--param", "detent.magnet_gap_mm",
                         "--range", "1:10.999:0.001", "--metric", "breakaway")
        assert rc == 0
        assert len(out.splitlines()) == 1 + 10_000

    def test_value_outside_config_domain(self, capsys):
        rc, out, err = run(capsys, "sweep", "--param", "detent.magnet_gap_mm",
                           "--range=-50:0:25", "--metric", "breakaway")
        assert rc == 1
        assert out == ""
        assert err == "error: detent.magnet_gap_mm must be positive, got -50.0\n"


def test_unknown_subcommand_nonzero(capsys):
    assert dispatch(["frobnicate"]) != 0


SRC = Path(__file__).parent.parent / "src"


def _run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120, check=False)


class TestColdStart:
    """No CLI path imports numpy or scipy: `import multigrip`, the grasp
    layer (classify, simulate grasp with --object, the caging search and the
    hull enumeration included) and the other subcommands run on plain
    Python.  Each subcommand loads exactly the package modules of the layers
    it runs."""

    LIST_SCIPY = ("print(sorted(m for m in sys.modules "
                  "if m == 'scipy' or m.startswith('scipy.')), file=sys.stderr)")
    LIST_FFT = ("print(sorted(m for m in sys.modules "
                "if m == 'numpy.fft' or m.startswith('numpy.fft.')), file=sys.stderr)")
    LIST_NUMPY = ("print(sorted(m for m in sys.modules "
                  "if m == 'numpy' or m.startswith('numpy.')), file=sys.stderr)")
    LIST_PACKAGE = ("print(sorted(m for m in sys.modules "
                    "if m.startswith('multigrip.')), file=sys.stderr)")
    CONFIG_LAYERS = ["_keyvalue", "cli", "config", "mechanics", "modes"]

    def test_import_loads_no_scipy(self):
        proc = _run_python("-c", "import sys, multigrip, multigrip.cli; " + self.LIST_SCIPY)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "[]"

    def test_import_loads_no_numpy(self):
        proc = _run_python("-c", "import sys, multigrip; " + self.LIST_NUMPY)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "[]"

    def test_grasp_import_loads_no_numpy(self):
        proc = _run_python("-c", "import sys, multigrip.grasp; " + self.LIST_NUMPY)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        # caging-decided: the closure tests, then the rest-angle slice
        ["classify", "--object", "box.object", "--mode", "5"],
        # form closure of a disk by the 2-D hull enumeration of its normals
        ["classify", "--object", "large_cylinder.object", "--mode", "3"],
        ["simulate", "grasp", "--force", "40", "--gap", "10", "--object", "box.object"],
    ], ids=["classify-caging", "classify-enumeration", "simulate-grasp-object"])
    def test_grasp_subcommands_load_no_numpy(self, argv, fixtures_dir):
        argv = [str(fixtures_dir / "objects" / a) if a.endswith(".object") else a
                for a in argv]
        proc = self._run_cli(*argv, listing=self.LIST_NUMPY)
        assert proc.stderr.strip().splitlines()[-1] == "[]"

    @pytest.mark.parametrize("code, modules", [
        ("import multigrip; multigrip.grasp", ["multigrip.grasp"]),
        ("import multigrip; multigrip.SurfaceKind", ["multigrip.modes"]),
        ("import multigrip.cli", ["multigrip.config", "multigrip.mechanics",
                                  "multigrip.modes"]),
    ])
    def test_lazy_loads_show_in_importtime(self, code, modules):
        proc = _run_python("-X", "importtime", "-c", code)
        assert proc.returncode == 0, proc.stderr
        logged = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert set(modules) <= logged

    def test_validate_gears_loads_no_scipy(self):
        code = ("import sys\n"
                "from multigrip.cli import main\n"
                "sys.argv = ['multigrip', 'validate-gears']\n"
                "try:\n"
                "    main()\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0, exc.code\n"
                + self.LIST_SCIPY)
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert "delta_theta_sw_deg=108" in proc.stdout
        assert proc.stderr.strip() == "[]"

    def _run_cli(self, *argv: str, listing: str = LIST_SCIPY) -> subprocess.CompletedProcess:
        code = ("import sys\n"
                "from multigrip.cli import main\n"
                f"sys.argv = ['multigrip', *{list(argv)!r}]\n"
                "try:\n"
                "    main()\n"
                "except SystemExit as exc:\n"
                "    assert exc.code in (0, None), exc.code\n"
                + listing)
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()
        return proc

    def test_caging_classify_loads_no_scipy(self, fixtures_dir):
        # box in mode 5 reaches the closure tests and the caging search,
        # which its rest-angle slice decides
        proc = self._run_cli("classify", "--object",
                             str(fixtures_dir / "objects" / "box.object"), "--mode", "5",
                             listing=self.LIST_SCIPY + "\n" + self.LIST_FFT)
        assert proc.stderr.strip().splitlines()[-2:] == ["[]", "[]"]

    def test_plan_loads_no_scipy(self, fixtures_dir):
        proc = self._run_cli("plan", "--object",
                             str(fixtures_dir / "objects" / "complex_bracket.object"))
        assert proc.stderr.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["modes"],
        ["validate-gears"],
        ["plan", "--object", "complex_bracket.object"],
        *[["sweep", "--param", "detent.magnet_gap_mm", "--range", "0.5:1:0.25",
           "--metric", metric] for metric in ("peak-detent", "breakaway",
                                              "switch-interval")],
        ["simulate", "grasp", "--force", "40", "--gap", "10"],
        ["simulate", "switch", "--from", "1", "--to", "12"],
    ], ids=lambda argv: (argv[-1] if argv[0] == "sweep"
                         else "-".join(argv[:2]) if argv[0] == "simulate"
                         else argv[0]))
    def test_math_subcommands_load_no_numpy(self, argv, fixtures_dir):
        argv = [str(fixtures_dir / "objects" / a) if a.endswith(".object") else a
                for a in argv]
        proc = self._run_cli(*argv, listing=self.LIST_NUMPY)
        *summary, listing = proc.stderr.strip().splitlines()
        assert listing == "[]"
        assert len(summary) == (argv[0] == "simulate")  # simulate's summary line

    @pytest.mark.parametrize("argv, layers", [
        (["validate-gears"], []),
        (["modes"], []),
        (["sweep", "--param", "detent.magnet_gap_mm", "--range", "0.5:1:0.25",
          "--metric", "peak-detent"], []),
        (["simulate", "switch", "--from", "1", "--to", "12"], ["control", "sim"]),
        (["simulate", "grasp", "--force", "40", "--gap", "10"], ["control", "sim"]),
        (["plan", "--object", "complex_bracket.object"], ["control", "objects", "planner"]),
        (["classify", "--object", "box.object", "--mode", "1"], ["grasp", "objects"]),
    ], ids=["validate-gears", "modes", "sweep", "simulate-switch", "simulate-grasp", "plan",
            "classify"])
    def test_subcommand_loads_only_its_layers(self, argv, layers, fixtures_dir):
        argv = [str(fixtures_dir / "objects" / a) if a.endswith(".object") else a
                for a in argv]
        proc = self._run_cli(*argv, listing=self.LIST_PACKAGE)
        loaded = proc.stderr.strip().splitlines()[-1]
        assert loaded == repr(sorted(f"multigrip.{m}" for m in self.CONFIG_LAYERS + layers))

    def test_python_dash_m_runs_the_cli(self, capsys):
        proc = _run_python("-m", "multigrip", "validate-gears")
        rc, out, _ = run(capsys, "validate-gears")
        assert proc.returncode == rc == 0
        assert proc.stdout == out
