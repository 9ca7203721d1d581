"""Command-line interface: exit codes, artifacts, output formats."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subdiff.cli import _CERTIFICATES, main
from subdiff.config import CertificatesConfig, parse_config
from subdiff.kernels import CompressionError
from subdiff.reporting import NORMS_HEADER
from subdiff.solver import StepFailure

FAST_RUN = """
problem = eigenmode, alpha = 0.5
[problem]
resolution = 33
[time]
horizon = 1.0
steps = 32
[certificates]
weakform = true
[output]
snapshot_times = [0.5, 1.0]
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestRunCommand:
    def test_successful_run(self, tmp_path, capsys):
        cfg = _write(tmp_path, FAST_RUN)
        out = tmp_path / "artifacts"
        code = main(["run", cfg, "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "certificate decay: PASS" in captured
        assert "certificate boundedness: PASS" in captured
        assert "certificate convexity: PASS" in captured
        assert "certificate weakform: PASS" in captured
        assert (out / "report.json").exists()
        assert (out / "norms.tsv").exists()
        assert (out / "snapshot_000.txt").exists()
        assert (out / "snapshot_001.txt").exists()

    def test_report_content(self, tmp_path):
        cfg = _write(tmp_path, FAST_RUN)
        out = tmp_path / "artifacts"
        main(["run", cfg, "--out", str(out), "--seed", "11"])
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["label"] == "eigenmode"
        assert report["solver"]["seed"] == 11
        assert report["solver"]["mode"] == "picard"
        assert report["solver"]["max_halvings"] == 0
        assert report["certificates"]["decay"]["passed"] is True
        assert report["certificates"]["decay"]["min_margin"] > 0.0
        assert 0.0 <= report["certificates"]["decay"]["ml_max_error_estimate"] <= 1e-10
        assert report["certificates"]["decay"]["ml_inaccurate"] == 0
        weak = report["certificates"]["weakform"]
        assert 0.0 < weak["worst_time"] < 1.0  # the peak of an interior time hat, horizon 1
        assert isinstance(weak["worst_node"], int) and 0 < weak["worst_node"] < 32  # interior of 33 nodes
        assert weak["worst_node"] in weak["near_worst_nodes"]
        assert "config_text" in report
        seconds = report["timings"]["certificates"]
        assert set(seconds) == set(report["certificates"])
        assert all(s >= 0.0 for s in seconds.values())

    def test_norms_tsv_format(self, tmp_path):
        cfg = _write(tmp_path, FAST_RUN)
        out = tmp_path / "artifacts"
        main(["run", cfg, "--out", str(out)])
        lines = (out / "norms.tsv").read_text().splitlines()
        assert lines[0] == NORMS_HEADER
        assert len(lines) == 2 + 32  # header + M+1 rows
        row = lines[1].split("\t")
        assert len(row) == 5
        assert float(row[0]) == 0.0

    def test_snapshot_format(self, tmp_path):
        cfg = _write(tmp_path, FAST_RUN)
        out = tmp_path / "artifacts"
        main(["run", cfg, "--out", str(out)])
        lines = (out / "snapshot_000.txt").read_text().splitlines()
        assert lines[0].startswith("# t=")
        assert "shape=33" in lines[0]
        assert len(lines) == 1 + 33
        values = np.array([float(v) for v in lines[1:]])
        assert np.all(np.isfinite(values))

    def test_failing_certificate_exits_one(self, tmp_path, capsys):
        # an unreachable residual threshold turns the weakform verdict red
        text = FAST_RUN.replace(
            "[certificates]\nweakform = true",
            "[certificates]\nweakform = true\nweakform_threshold = 1e-12",
        )
        cfg = _write(tmp_path, text)
        code = main(["run", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "certificate weakform: FAIL" in capsys.readouterr().out

    def test_refused_certificate_is_skipped_not_failed(self, tmp_path, capsys):
        # one time step leaves the weak form too few macro test cells: a refusal, which does not count
        text = (
            "problem = eigenmode\n[problem]\nresolution = 17\n[time]\nsteps = 1\n"
            "[certificates]\nweakform = true\ndecay = false\n"
        )
        out = tmp_path / "o"
        code = main(["run", _write(tmp_path, text), "--out", str(out)])
        assert code == 0
        assert "certificate weakform: SKIPPED (the time grid is too coarse" in capsys.readouterr().out
        weak = json.loads((out / "report.json").read_text())["certificates"]["weakform"]
        assert weak == {"passed": None, "skipped": "the time grid is too coarse for the requested macro test grid"}

    def test_every_certificate_flag_has_a_table_entry(self):
        flags = [f.name for f in dataclasses.fields(CertificatesConfig) if isinstance(f.default, bool)]
        assert flags and sorted(flags) == sorted(_CERTIFICATES)

    def test_compressed_history_run(self, tmp_path, capsys):
        text = """
        problem = porous, alpha = 0.5
        [problem]
        resolution = 17
        [time]
        horizon = 1.0
        steps = 64
        grading = 1.0
        """
        cfg = _write(tmp_path, text)
        code = main(["run", cfg, "--out", str(tmp_path / "o"), "--history", "compressed"])
        assert code == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["solver"]["history"] == "compressed"

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = _write(tmp_path, "alpha = 7\n")
        code = main(["run", cfg])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_overridden_config_text_parses_back(self, tmp_path, capsys):
        # every run override goes into config_text, which must parse back to the config the run used
        text = "problem = porous\n[problem]\nresolution = 17\n[time]\nhorizon = 1.0\nsteps = 64\ngrading = 1\n"
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out), "--seed", "7", "--history", "compressed"]) == 0
        capsys.readouterr()
        written = json.loads((out / "report.json").read_text())["config_text"]
        want = parse_config(text)
        want.output = dataclasses.replace(want.output, dir=str(out), seed=7)
        want.solver = dataclasses.replace(want.solver, history="compressed")
        assert parse_config(written) == want

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unsolvable_step_exits_two(self, tmp_path, capsys):
        text = """
        problem = porous
        [problem]
        resolution = 17
        [time]
        steps = 8
        [solver]
        tol = 1e-16
        max_iter = 1
        """
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        code = main(["run", cfg, "--out", str(out)])
        assert code == 2
        assert "run failed" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["failure"]["step"] >= 1


    def test_krylov_iteration_cap_exits_two_with_failure_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("subdiff.solver._KRYLOV_MAXITER", 1)
        cfg = _write(tmp_path, "problem = porous\n[problem]\ndimension = 2\nresolution = 17\n[time]\nsteps = 4\n")
        out = tmp_path / "o"
        code = main(["run", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "run failed" in err and "linear solve" in err
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["failure"]["step"] == 1

    def test_failure_report_records_halvings(self, tmp_path, capsys, monkeypatch):
        def failing(spec, options):
            raise StepFailure(step=3, t=0.5, residual=1.0, iterations=7, last_iterate=np.zeros(spec.grid.n_nodes),
                              message="step 3: stalled", halvings=2)

        monkeypatch.setattr("subdiff.cli.run_trajectory", failing)
        out = tmp_path / "o"
        assert main(["run", _write(tmp_path, FAST_RUN), "--out", str(out)]) == 2
        assert "stalled" in capsys.readouterr().err
        failure = json.loads((out / "report.json").read_text())["failure"]
        assert (failure["step"], failure["iterations"], failure["halvings"]) == (3, 7, 2)


class TestCompressedHistoryOnGradedGrid:
    """Compressed history runs on the presets' default graded grids and matches the direct run."""

    GRADED = "problem = porous\n[problem]\nresolution = 17\n[time]\nsteps = 64\n[output]\nsnapshot_times = [0.5, 5, 50]\n"

    def _run(self, tmp_path, capsys, argv, name):
        out = tmp_path / name
        code = main(argv + ["--out", str(out)])
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        verdicts = {k: v["passed"] for k, v in report["certificates"].items()}
        snaps = [np.loadtxt(out / f"snapshot_{i:03d}.txt") for i in range(3)]
        return code, report["solver"]["history"], verdicts, np.array(snaps)

    def _assert_matches_direct(self, tmp_path, capsys, compressed_argv):
        direct = self._run(tmp_path, capsys, ["run", _write(tmp_path, self.GRADED)], "direct")
        comp = self._run(tmp_path, capsys, compressed_argv, "comp")
        assert direct[0] == comp[0] == 0
        assert (direct[1], comp[1]) == ("direct", "compressed")
        assert comp[2] == direct[2]
        assert np.max(np.abs(comp[3] - direct[3])) <= 1e-7 * np.max(np.abs(direct[3]))

    def test_config_file(self, tmp_path, capsys):
        cfg = _write(tmp_path, self.GRADED + "[solver]\nhistory = compressed\n", name="comp.cfg")
        self._assert_matches_direct(tmp_path, capsys, ["run", cfg])

    def test_history_override(self, tmp_path, capsys):
        cfg = _write(tmp_path, self.GRADED, name="comp.cfg")
        self._assert_matches_direct(tmp_path, capsys, ["run", cfg, "--history", "compressed"])

    def test_explicit_grading_in_study(self, tmp_path, capsys):
        text = "problem = porous\n[problem]\nresolution = 17\n[time]\nsteps = 16\ngrading = 2.0\n"
        codes = []
        for history in ("direct", "compressed"):
            cfg = _write(tmp_path, text + f"[solver]\nhistory = {history}\n", name=f"{history}.cfg")
            codes.append(main(["study", cfg, "--out", str(tmp_path / history), "--levels", "2"]))
        assert codes == [0, 0]


class TestOtherErrorsExitTwo:
    """Errors that are not certificate verdicts exit 2 with one stderr line, not a traceback."""

    BASE = "problem = eigenmode\n[problem]\nresolution = 17\n[time]\nsteps = 8\ngrading = 1\n"

    def _assert_exit_two(self, code, capsys, *words):
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        for word in words:
            assert word in err

    @pytest.mark.parametrize(
        "argv, words",
        [
            (["props", "--count", "6", "--seed", "-1"], ["--seed"]),
            (["run", "{dir}"], ["cannot read {dir}"]),
            (["run", "{latin1}"], ["cannot read {latin1}", "UTF-8"]),
            (["run", "{cfg}", "--out", "{file}/sub"], ["cannot write {file}/sub"]),
            (["run", "{cfg}", "--seed", "-3", "--out", "{out}"], ["--seed", "output.seed=-3"]),
            (["run", "{cfg}", "--seed", "x", "--out", "{out}"], ["--seed", "output.seed"]),
            (["run", "{cfg}", "--out", "{out}#1"], ["--out", "output.dir", "'#'"]),
            (["run", "{cfg}", "--out", "{out},a"], ["--out", "output.dir", "','"]),
        ],
        ids=["negative-props-seed", "config-is-a-directory", "config-not-utf8", "unwritable-out",
             "negative-run-seed", "non-integer-run-seed", "out-with-comment-sign", "out-with-comma"],
    )
    def test_input_error(self, tmp_path, capsys, argv, words):
        paths = {"dir": tmp_path / "d", "latin1": tmp_path / "latin1.cfg", "cfg": tmp_path / "run.cfg",
                 "file": tmp_path / "file", "out": tmp_path / "o"}
        paths["dir"].mkdir()
        paths["latin1"].write_bytes(self.BASE.replace("eigenmode", "eigenmode  # \xe9t\xe9").encode("latin-1"))
        paths["cfg"].write_text(self.BASE)
        paths["file"].write_text("")
        code = main([arg.format(**paths) for arg in argv])
        self._assert_exit_two(code, capsys, *(word.format(**paths) for word in words))
        assert not paths["out"].exists()

    def test_extents_that_do_not_fit_the_dimension(self, tmp_path, capsys):
        cfg = _write(tmp_path, self.BASE + "problem.extents = [0, 1, 0, 2]\n")
        self._assert_exit_two(main(["run", cfg, "--out", str(tmp_path / "o")]), capsys, "extents", "dimension")

    def test_compressed_history_of_one_step(self, tmp_path, capsys):
        cfg = _write(tmp_path, self.BASE.replace("steps = 8", "steps = 1"))
        code = main(["run", cfg, "--out", str(tmp_path / "o"), "--history", "compressed"])
        self._assert_exit_two(code, capsys, "compressed", "steps")

    @pytest.mark.parametrize("command", ["run", "study"])
    def test_unreachable_compression_tolerance(self, tmp_path, capsys, command):
        cfg = _write(tmp_path, self.BASE + "[solver]\nhistory = compressed\neps_compress = 1e-30\n")
        code = main([command, cfg, "--out", str(tmp_path / "o")])
        self._assert_exit_two(code, capsys, "compression", "eps=1e-30")

    def test_unreachable_compression_of_a_long_slow_history_fits_in_memory(self, tmp_path):
        # at alpha = 0.05 and eps = 1e-30 every refinement misses and the ladder grows to hundreds of
        # thousands of modes; checking them must still fit in memory, so the run exits 2.  No tolerance
        # the config accepts misses, so the script lowers the floor.
        cfg = _write(
            tmp_path,
            "problem = eigenmode, alpha = 0.05\n[problem]\nresolution = 17\n[time]\nsteps = 16384\n"
            "grading = 1\n[solver]\nhistory = compressed\neps_compress = 1e-30\n",
        )
        out = tmp_path / "o"
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"
            "import subdiff.config\n"
            "subdiff.config._EPS_COMPRESS_FLOOR = 0.0\n"
            "from subdiff.cli import main\n"
            f"sys.exit(main(['run', {cfg!r}, '--out', {str(out)!r}]))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            OPENBLAS_NUM_THREADS="1",
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "history compression failed" in proc.stderr
        assert "MemoryError" not in proc.stderr
        assert not out.exists()


    def test_compression_error_leaves_no_output_directory(self, tmp_path, capsys):
        cfg = _write(tmp_path, self.BASE + "[solver]\nhistory = compressed\neps_compress = 1e-30\n")
        out = tmp_path / "o"
        self._assert_exit_two(main(["run", cfg, "--out", str(out)]), capsys, "compression")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "study"])
    def test_compression_failure_during_the_run(self, tmp_path, capsys, monkeypatch, command):
        # a tolerance the config accepts but the fit misses still exits 2, with no output directory
        def failing(*args, **kwargs):
            raise CompressionError("could not reach eps=1e-08 within the mode budget", achieved=1e-6)

        monkeypatch.setattr("subdiff.solver.compress_history", failing)
        cfg = _write(tmp_path, self.BASE + "[solver]\nhistory = compressed\n")
        out = tmp_path / "o"
        self._assert_exit_two(main([command, cfg, "--out", str(out)]), capsys, "compression", "eps=1e-08")
        assert not out.exists()


class TestStudyCommand:
    def test_space_study_on_eigenmode(self, tmp_path, capsys):
        # time over-resolved so the spatial error dominates on every level
        text = """
        problem = eigenmode
        [problem]
        resolution = 9
        [time]
        steps = 512
        [study]
        axis = space
        levels = 3
        """
        cfg = _write(tmp_path, text)
        out = tmp_path / "s"
        code = main(["study", cfg, "--out", str(out)])
        assert code == 0
        lines = (out / "study.tsv").read_text().splitlines()
        assert lines[0] == "level\tresolution\trel_l2_error\torder"
        assert len(lines) == 4
        # orders from the exact reference should be near 2
        orders = [float(l.split("\t")[3]) for l in lines[2:]]
        for o in orders:
            assert 1.6 < o < 2.4
        assert "refinement study along space" in capsys.readouterr().out

    def test_time_axis_self_reference(self, tmp_path):
        text = """
        problem = porous
        [problem]
        resolution = 17
        [time]
        horizon = 1.0
        steps = 16
        [study]
        axis = time
        """
        cfg = _write(tmp_path, text)
        out = tmp_path / "s"
        code = main(["study", cfg, "--out", str(out), "--levels", "2"])
        assert code == 0
        lines = (out / "study.tsv").read_text().splitlines()
        assert lines[0].startswith("level\tsteps")
        assert len(lines) == 3

    @pytest.mark.parametrize("levels", ["0", "1"])
    def test_too_few_levels(self, tmp_path, capsys, levels):
        cfg = _write(tmp_path, "problem = eigenmode\n")
        code = main(["study", cfg, "--levels", levels, "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert f"study.levels={levels}" in err
        assert not (tmp_path / "s").exists()


class TestPropsCommand:
    def test_small_sweep_passes(self, tmp_path, capsys):
        out = tmp_path / "p"
        code = main(["props", "--count", "60", "--seed", "1", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "property convexity: PASS" in captured
        assert "property comparison: PASS" in captured
        assert "property mittag_leffler: PASS" in captured
        data = json.loads((out / "props.json").read_text())
        assert data["convexity"]["violations"] == 0
        assert data["comparison"]["violations"] == 0

    def test_seed_changes_draws_not_verdict(self, capsys):
        assert main(["props", "--count", "18", "--seed", "5"]) == 0
        capsys.readouterr()


    @pytest.mark.parametrize("count", ["0", "5", "-6"])
    def test_count_below_one_per_pair_is_rejected(self, count, capsys):
        assert main(["props", "--count", count]) == 2
        assert "--count" in capsys.readouterr().err

    def test_count_rounds_down_to_whole_pairs(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert main(["props", "--count", "65", "--seed", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads((out / "props.json").read_text())
        assert data["convexity"]["histories"] == 60
        assert data["comparison"]["subsolutions"] == 60

    def test_props_json_is_reproducible(self, tmp_path, capsys):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["props", "--count", "60", "--seed", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert (outs[0] / "props.json").read_bytes() == (outs[1] / "props.json").read_bytes()


class TestArgumentErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_history_choice(self, tmp_path, capsys):
        cfg = _write(tmp_path, "problem = eigenmode\n")
        with pytest.raises(SystemExit):
            main(["run", cfg, "--history", "magic"])

    def test_study_takes_no_seed(self, tmp_path, capsys):
        cfg = _write(tmp_path, "problem = eigenmode\n")
        with pytest.raises(SystemExit) as exc:
            main(["study", cfg, "--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def _scipy_modules_after(tmp_path, script):
    """The ``scipy`` modules loaded in a fresh interpreter that ran ``script`` (from ``tmp_path``)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy(tmp_path):
    # any scipy submodule costs a large share of the package's import time and memory
    assert _scipy_modules_after(tmp_path, "import sys, subdiff.cli") == "[]"


@pytest.mark.parametrize("mode", ["picard", "newton"])
def test_2d_run_loads_no_scipy(tmp_path, mode):
    # the 2D step operator, preconditioner and Krylov solves are numpy only, also on their first call
    _write(
        tmp_path,
        "problem = porous\n[problem]\ndimension = 2\nresolution = 17\n[time]\nsteps = 4\ngrading = 1\n"
        f"[solver]\nmode = {mode}\n",
    )
    script = "import sys\nfrom subdiff.cli import main\nassert main(['run', 'run.cfg', '--out', 'out']) == 0"
    assert _scipy_modules_after(tmp_path, script) == "[]"
