"""Command-line interface: exit codes, artifacts, output formats."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subdiff.cli import _CERTIFICATES, _SWEEP_PAIRS, _props_comparison, _props_convexity, build_problem, main
from subdiff.config import CertificatesConfig, parse_config
from subdiff.diagnostics import decay_report, hoelder_seminorm
from subdiff.kernels import CompressionError
from subdiff.reporting import NORMS_HEADER, jsonable, write_norms_tsv, write_snapshot
from subdiff.solver import NormSeries, StepFailure, run_trajectory
from subdiff.spatial import build_grid

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


def _run_limited(script):
    """``script`` in a child Python under a 1.5 GB address-space limit, importing the package from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
    )
    limit = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"
    return subprocess.run([sys.executable, "-c", limit + script], env=env, capture_output=True, text=True, timeout=120)


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
        # an estimate without a threshold is an observable, not part of the decay verdict
        assert "tail_exponent" not in report["certificates"]["decay"]
        assert report["observables"] == {"tail_exponent": pytest.approx(-0.5, abs=0.3)}
        weak = report["certificates"]["weakform"]
        assert 0.0 < weak["worst_time"] < 1.0  # the peak of an interior time hat, horizon 1
        assert isinstance(weak["worst_node"], int) and 0 < weak["worst_node"] < 32  # interior of 33 nodes
        assert weak["worst_node"] in weak["near_worst_nodes"]
        assert "config_text" in report
        seconds = report["timings"]["certificates"]
        assert set(seconds) == set(report["certificates"])
        assert all(s >= 0.0 for s in seconds.values())

    @pytest.mark.parametrize("weakform", [False, True], ids=["streamed", "full record"])
    def test_a_run_reduces_each_step_once(self, tmp_path, monkeypatch, weakform):
        # norms.tsv and the four certificates read one per-step norm record, and each step's field is reduced to
        # its norms exactly once: in the run's windows when the run streams, on the record's first read when the
        # weak form makes it keep every field.  Windows of 5 rows split the 33 fields into seven, the last partial.
        import subdiff.cli as cli
        import subdiff.solver as solver

        text = FAST_RUN.replace("weakform = true", f"weakform = {str(weakform).lower()}")
        spec, options = build_problem(parse_config(text))
        step_of = {row.tobytes(): n for n, row in enumerate(run_trajectory(spec, options).fields)}
        assert len(step_of) == spec.time_grid.steps + 1  # every step's field differs, so a row names its step
        runs, reduced = [], []
        reduce_norms = solver._reduce_norms

        def spy(window, *args):
            reduced.extend(step_of[row.tobytes()] for row in window)
            return reduce_norms(window, *args)

        monkeypatch.setattr(solver, "_WINDOW_VALUES", 5 * spec.grid.n_nodes)
        monkeypatch.setattr(solver, "_reduce_norms", spy)
        monkeypatch.setattr(cli, "run_trajectory", lambda *a, **k: runs.append(run_trajectory(*a, **k)) or runs[-1])
        assert main(["run", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all(report["certificates"][name]["passed"] for name in _CERTIFICATES if name != "weakform" or weakform)
        assert len(runs) == 1 and (runs[0].kept is None) == weakform
        assert sorted(reduced) == list(range(spec.time_grid.steps + 1))

    # a streamed run against a full record: compressed on a uniform grid, direct on the default graded grid in
    # both 1D modes (whose starts extrapolate from u_{n-2}), and 2D Picard on a graded grid
    STREAMED = {
        "1d-uniform-compressed": ("problem = eigenmode, alpha = 0.5\n[problem]\nresolution = 257\n[time]\n"
                                  "horizon = 1.0\nsteps = 600\ngrading = 1\n[solver]\nhistory = compressed\n",
                                  (0.25, 0.5, 1.0)),
        "1d-graded-picard": ("problem = porous\n[problem]\nresolution = 33\n[time]\nsteps = 96\n", (0.5, 5.0, 50.0)),
        "1d-graded-newton": ("problem = porous\n[problem]\nresolution = 33\n[time]\nsteps = 96\n[solver]\n"
                             "mode = newton\n", (0.5, 5.0, 50.0)),
        "2d-graded-picard": ("problem = porous\n[problem]\ndimension = 2\nresolution = 17\n[time]\nhorizon = 1.0\n"
                             "steps = 24\n", (0.0, 0.1, 1.0)),
    }

    @pytest.mark.parametrize("case", STREAMED)
    def test_a_streamed_run_writes_the_full_records_artifacts(self, tmp_path, monkeypatch, case):
        # The uniform case's 600 steps fill two default windows of 255 rows and part of a third; the others run
        # in windows of 7 rows, so the extrapolated starts read u_{n-2} across window ends.
        import subdiff.cli as cli
        import subdiff.solver as solver

        text, times = self.STREAMED[case]
        cfg = _write(tmp_path, text + "[output]\nsnapshot_times = [" + ", ".join(map(str, times)) + "]\n")
        if case != "1d-uniform-compressed":
            monkeypatch.setattr(solver, "_WINDOW_VALUES", 7 * build_problem(parse_config(text))[0].grid.n_nodes)
        runs = {}
        for side in ("streamed", "full"):
            monkeypatch.setattr(cli, "run_trajectory", lambda s, o, keep=None, side=side: runs.setdefault(
                side, run_trajectory(s, o, keep=keep if side == "streamed" else None)))
            assert main(["run", cfg, "--out", str(tmp_path / side)]) == 0

        streamed, full = runs["streamed"], runs["full"]
        snapshots = {int(np.argmin(np.abs(full.times - t))) for t in times}
        assert full.kept is None and streamed.kept.tolist() == sorted(snapshots | {full.spec.time_grid.steps})
        assert streamed.fields[-1].tobytes() == full.fields[-1].tobytes()
        for name in ["norms.tsv"] + [f"snapshot_{i:03d}.txt" for i in range(len(times))]:
            assert (tmp_path / "streamed" / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name
        reports = [json.loads((tmp_path / side / "report.json").read_text()) for side in ("streamed", "full")]
        for section in ("certificates", "observables", "solver"):
            assert json.dumps(reports[0][section]) == json.dumps(reports[1][section]), section

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

    @staticmethod
    def _awkward_columns(n):
        # negative, subnormal, signed-zero, tiny and large values in every column (squares stay finite)
        rng = np.random.default_rng(7)
        special = [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -1e150, 1.0 / 3.0, -2.0 / 3.0]
        cols = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-320, 150, (5, n))
        cols[:, : len(special)] = special
        return cols

    def test_norms_tsv_bytes_are_the_per_row_form(self, tmp_path):
        n = 600  # rows over several writes
        t, l2, sup, _, env = self._awkward_columns(n)
        env[::3] = np.nan
        series = NormSeries(times=t, l2=l2, sup=sup)
        expected = NORMS_HEADER + "\n"
        for k in range(n):
            expected += "%.17g\t%.17g\t%.17g\t%.17g\t%.17g\n" % (t[k], l2[k], sup[k], series.energy[k], env[k])
        write_norms_tsv(tmp_path / "a.tsv", series, env)
        assert (tmp_path / "a.tsv").read_bytes() == expected.encode()
        # without a decay certificate the envelope column is nan in every row
        write_norms_tsv(tmp_path / "b.tsv", series)
        rows = (tmp_path / "b.tsv").read_text().splitlines()[1:]
        assert len(rows) == n and all(row.split("\t")[4] == "nan" for row in rows)

    def test_snapshot_bytes_are_the_per_value_form(self, tmp_path):
        grid = build_grid(1, (0.0, 1.0), 97)
        values = self._awkward_columns(97)[0]
        write_snapshot(tmp_path / "s.txt", grid, 0.1, values)
        expected = "# t=0.10000000000000001 shape=97\n" + "".join("%.17g\n" % v for v in values)
        assert (tmp_path / "s.txt").read_bytes() == expected.encode()

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

    def test_hoelder_observable(self, tmp_path, capsys):
        text = "problem = porous\n[problem]\nresolution = 17\n[time]\nsteps = 32\n[output]\nhoelder = true\n"
        out = tmp_path / "o"
        assert main(["run", _write(tmp_path, text), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "SKIPPED" not in printed
        assert "certificate hoelder" not in printed
        traj = run_trajectory(build_problem(parse_config(text))[0])
        est, tail = hoelder_seminorm(traj), decay_report(traj).tail_exponent
        assert f"observable tail_exponent: {tail:.6g}\n" in printed
        assert f"observable hoelder: beta_time=0.25, beta_space=0.5, value={est.value:.6g}, n_samples=" in printed
        report = json.loads((out / "report.json").read_text())
        assert set(report["certificates"]) == {"convexity", "boundedness", "decay"}
        assert all(rec["passed"] is not None for rec in report["certificates"].values())
        assert report["observables"] == {"tail_exponent": tail, "hoelder": dataclasses.asdict(est)}
        assert set(report["observables"]["hoelder"]) == {"value", "beta_time", "beta_space", "region", "n_samples"}

    def test_report_is_strict_json_when_a_value_is_not_finite(self, tmp_path):
        # the zero run has W = 0, so its tail-exponent fit has no usable node and is NaN, which RFC 8259 cannot hold
        out = tmp_path / "o"
        assert main(["run", _write(tmp_path, "problem = zero\n[problem]\nresolution = 17\n[time]\nsteps = 8\n"),
                     "--out", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        assert report["observables"]["tail_exponent"] is None
        assert jsonable({"a": np.nan, "b": [np.inf, -np.inf], "c": np.float64(1.5)}) == {"a": None, "b": [None, None], "c": 1.5}

    def test_no_observables_without_decay_or_hoelder(self, tmp_path, capsys):
        out = tmp_path / "o"
        text = "problem = zero\n[time]\nsteps = 8\n[certificates]\ndecay = false\n"
        assert main(["run", _write(tmp_path, text), "--out", str(out)]) == 0
        assert "observable " not in capsys.readouterr().out
        assert json.loads((out / "report.json").read_text())["observables"] == {}

    @pytest.mark.parametrize("key", ["hoelder = true", "hoelder_beta_time = 0.25", "hoelder_beta_space = 0.5"])
    def test_removed_certificate_keys_are_unknown(self, tmp_path, capsys, key):
        code = main(["run", _write(tmp_path, f"[certificates]\n{key}\n"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"unknown key certificates.{key.split()[0]}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        def failing(spec, options, keep=None):
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

    def test_utf8_config_under_an_ascii_locale(self, tmp_path):
        # the config is UTF-8 whatever the locale's encoding; under the C locale with neither UTF-8 mode nor
        # locale coercion, a non-ASCII comment was once refused as "not UTF-8 text"
        cfg = tmp_path / "utf.cfg"
        cfg.write_bytes("# \u03b1 = 0.5\nproblem = zero\n[problem]\nresolution = 17\n[time]\nsteps = 8\n".encode("utf-8"))
        out = tmp_path / "o"
        script = "import sys\nfrom subdiff.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            OPENBLAS_NUM_THREADS="1",
            LC_ALL="C",
            PYTHONUTF8="0",
            PYTHONCOERCECLOCALE="0",
        )
        argv = [sys.executable, "-c", script, "run", str(cfg), "--out", str(out)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "report.json").read_text())["passed"] is True

    def test_extents_that_do_not_fit_the_dimension(self, tmp_path, capsys):
        cfg = _write(tmp_path, self.BASE + "problem.extents = [0, 1, 0, 2]\n")
        self._assert_exit_two(main(["run", cfg, "--out", str(tmp_path / "o")]), capsys, "extents", "dimension")

    def test_grading_that_underflows_the_first_step(self, tmp_path, capsys):
        # 512 default steps: t_1 = 50 * 512^-150 underflows to 0, so the run's time grid cannot be built
        cfg = _write(tmp_path, "problem = porous\n[time]\ngrading = 150\n")
        out = tmp_path / "o"
        self._assert_exit_two(main(["run", cfg, "--out", str(out)]), capsys, "invalid configuration", "time.grading=150")
        assert not out.exists()

    def test_snapshot_time_past_the_horizon(self, tmp_path, capsys):
        cfg = _write(tmp_path, self.BASE + "[output]\nsnapshot_times = [0.5, 100.0]\n")
        out = tmp_path / "o"
        code = main(["run", cfg, "--out", str(out)])
        self._assert_exit_two(code, capsys, "invalid configuration", "output.snapshot_times", "horizon 1.0")
        assert not out.exists()

    def test_compression_refuses_a_horizon_whose_rates_overflow(self, tmp_path, capsys):
        # refused before the Gauss rule squares rates near 40 / T: no RuntimeWarning, no LinAlgError
        cfg = _write(
            tmp_path,
            "problem = porous\n[problem]\nresolution = 9\n[time]\nsteps = 2\nhorizon = 1e-300\n"
            "[solver]\nhistory = compressed\n",
        )
        out = tmp_path / "o"
        self._assert_exit_two(main(["run", cfg, "--out", str(out)]), capsys, "history compression failed", "shortest step")
        assert not out.exists()

    def test_time_study_whose_finest_level_underflows_the_first_step(self, tmp_path, capsys):
        # 4 steps give t_1 = 50 * 4^-400 > 0; the reference level of a 2-level study has 16 steps, and 50 * 16^-400 = 0
        cfg = _write(
            tmp_path,
            "problem = porous\n[problem]\nresolution = 9\n[time]\nsteps = 4\ngrading = 400\n"
            "[study]\naxis = time\nlevels = 2\n",
        )
        out = tmp_path / "o"
        code = main(["study", cfg, "--out", str(out)])
        self._assert_exit_two(code, capsys, "invalid configuration", "time.steps=16", "time.grading=400")
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, extents",
        [
            ("eigenmode", "[0, 1e-160]"),
            ("porous", "[0, 1e200]"),
            ("porous", "[1e16, 1e16000000]"),
            ("eigenmode", "[0, 8e-154]"),
            ("eigenmode", "[0, 1.2e-153]"),
        ],
        ids=[
            "spacing-squared-underflows",
            "spacing-squared-overflows",
            "extent-overflows",
            "diagonal-overflows",
            "diagonal-near-the-float-limit",
        ],
    )
    def test_box_that_gives_no_grid_is_refused_before_any_step(self, tmp_path, capsys, monkeypatch, preset, extents):
        # each of these once failed inside the run: no convergence at residual nan, an OverflowError, non-finite u0,
        # an overflow in the step matrix's diagonals, a decay envelope of NaN; a time study checks no finer box
        monkeypatch.setattr("subdiff.cli.run_trajectory", lambda *args: pytest.fail("the run started"))
        text = f"problem = {preset}\n[problem]\nresolution = 9\nextents = {extents}\n[time]\nsteps = 4\n"
        cfg = _write(tmp_path, text + "[study]\naxis = time\n")
        out = tmp_path / "o"
        self._assert_exit_two(main(["run", cfg, "--out", str(out)]), capsys, "invalid configuration: ", "problem.extents=")
        assert not out.exists()

    def test_non_finite_settings_are_refused(self, tmp_path, capsys):
        # with these three at inf every step was accepted after one correction and every certificate passed
        text = "problem = porous\n[problem]\nresolution = 9\n[time]\nsteps = 4\n[certificates]\nweakform = true\n"
        infinite = "[solver]\ntol = inf\n[certificates]\nslack = inf\nweakform_threshold = inf\n"
        out = tmp_path / "o"
        assert main(["run", _write(tmp_path, text), "--out", str(out)]) == 1  # decay and the weak form fail
        capsys.readouterr()
        code = main(["run", _write(tmp_path, text + infinite), "--out", str(tmp_path / "inf")])
        self._assert_exit_two(code, capsys, "line 9: solver.tol=inf is not finite", "line 11: certificates.slack=inf",
                              "line 12: certificates.weakform_threshold=inf is not finite")
        assert not (tmp_path / "inf").exists()

    @pytest.mark.parametrize("eps", ["1e7", "2e7", "inf"])
    def test_compression_tolerance_of_one_or_more_is_refused(self, tmp_path, capsys, eps):
        # each once crashed the run: a ZeroDivisionError at 1e7, a math domain error at 2e7 and inf
        cfg = _write(tmp_path, self.BASE + f"[solver]\nhistory = compressed\neps_compress = {eps}\n")
        out = tmp_path / "o"
        self._assert_exit_two(main(["run", cfg, "--out", str(out)]), capsys, "invalid configuration", "solver.eps_compress")
        assert not out.exists()

    def test_overflow_in_the_run(self, tmp_path, capsys, monkeypatch):
        # an arithmetic error inside the run is an error of the run: one line naming it, exit 2
        def overflowing(*args, **kwargs):
            raise OverflowError(34, "Numerical result out of range")

        monkeypatch.setattr("subdiff.solver.assemble_quasilinear_operator", overflowing)
        cfg = _write(tmp_path, "problem = porous\n[problem]\nresolution = 17\n[time]\nsteps = 4\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == ["run failed: OverflowError: (34, 'Numerical result out of range')"]

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_loses_no_artifact(self, tmp_path, unbuffered):
        # as under `subdiff run k.cfg | head -1`, with the reader gone before the first line: every artifact is
        # written before anything is printed, and the error names standard output.  A block-buffered stdout
        # first writes at the flush that ends main, and the interpreter's own flush at exit stays silent.
        cfg = _write(tmp_path, "problem = porous\n[problem]\nresolution = 9\n[time]\nsteps = 8\n")
        out = tmp_path / "o"
        script = "import sys\nfrom subdiff.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                   OPENBLAS_NUM_THREADS="1")
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-c", script, "run", cfg, "--out", str(out)]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 2
        assert err.splitlines() == ["cannot write standard output: Broken pipe"]
        report = json.loads((out / "report.json").read_text(), parse_constant=pytest.fail)
        assert set(report["certificates"]) == {"convexity", "boundedness", "decay"}
        assert (out / "norms.tsv").read_text().startswith(NORMS_HEADER)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_full_stdout_loses_no_artifact(self, tmp_path, unbuffered):
        # as under `subdiff run k.cfg > /dev/full`: every write to standard output fails with ENOSPC, which a
        # full disk under an artifact raises too, also without a file name; the error names standard output
        cfg = _write(tmp_path, "problem = porous\n[problem]\nresolution = 9\n[time]\nsteps = 8\n")
        out = tmp_path / "o"
        script = "import sys\nfrom subdiff.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                   OPENBLAS_NUM_THREADS="1")
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-c", script, "run", cfg, "--out", str(out)]
        with open("/dev/full", "w") as full:
            done = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE, text=True)
        assert done.returncode == 2
        assert done.stderr.splitlines() == ["cannot write standard output: No space left on device"]
        json.loads((out / "report.json").read_text(), parse_constant=pytest.fail)

    def test_a_full_disk_under_an_artifact_is_not_standard_output(self, tmp_path, capsys, monkeypatch):
        # a write that fails without a file name, as on a full disk, still names the artifact side
        def full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("subdiff.cli.write_norms_tsv", full)
        cfg = _write(tmp_path, "problem = porous\n[problem]\nresolution = 9\n[time]\nsteps = 8\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == ["cannot write an artifact: No space left on device"]

    def test_linear_algebra_error_in_the_run(self, tmp_path, capsys, monkeypatch):
        # an eigenvalue solve that does not converge is an error of the run: one line naming it, exit 2
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("subdiff.solver.compress_history", failing)
        cfg = _write(tmp_path, self.BASE + "[solver]\nhistory = compressed\n")
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["run failed: LinAlgError: Eigenvalues did not converge"]
        assert not out.exists()

    def test_compressed_history_of_one_step(self, tmp_path, capsys):
        cfg = _write(tmp_path, self.BASE.replace("steps = 8", "steps = 1"))
        code = main(["run", cfg, "--out", str(tmp_path / "o"), "--history", "compressed"])
        self._assert_exit_two(code, capsys, "compressed", "steps")

    @pytest.mark.parametrize("command", ["run", "study"])
    def test_unreachable_compression_tolerance(self, tmp_path, capsys, command):
        cfg = _write(tmp_path, self.BASE + "[solver]\nhistory = compressed\neps_compress = 1e-30\n")
        code = main([command, cfg, "--out", str(tmp_path / "o")])
        self._assert_exit_two(code, capsys, "invalid configuration", "solver.eps_compress=1e-30", "[1e-13, 1)")

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
            "import subdiff.config, sys\n"
            "subdiff.config._EPS_COMPRESS_FLOOR = 0.0\n"
            "from subdiff.cli import main\n"
            f"sys.exit(main(['run', {cfg!r}, '--out', {str(out)!r}]))\n"
        )
        proc = _run_limited(script)
        assert proc.returncode == 2, proc.stderr
        assert "history compression failed" in proc.stderr
        assert "MemoryError" not in proc.stderr
        assert not out.exists()

    def test_compression_at_a_tiny_alpha_is_refused_before_allocating(self, tmp_path):
        # at alpha = 1e-6 the first ladder would hold 1.1e8 rates, gigabytes with the Gauss step's basis (such a
        # run was killed on an 8 GB machine).  Under the limit the config is refused when it is parsed, naming
        # problem.alpha, and compress_history, reached without a config, raises before it allocates the ladder
        cfg = _write(tmp_path, "alpha = 1e-6\n[time]\nsteps = 64\n[solver]\nhistory = compressed\n")
        out = tmp_path / "o"
        argv = ["run", cfg, "--out", str(out)]
        proc = _run_limited(f"import sys\nfrom subdiff.cli import main\nsys.exit(main({argv!r}))\n")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("invalid configuration") and "problem.alpha=1e-06 is too small" in proc.stderr
        assert not out.exists()
        script = (
            "import sys\n"
            "from subdiff.kernels import CompressionError, L1Weights, TimeGrid, compress_history\n"
            "try:\n"
            "    compress_history(L1Weights(alpha=1e-6, grid=TimeGrid.uniform(1.0, 64)), 1e-8)\n"
            "except CompressionError as exc:\n"
            "    sys.exit(f'refused: {exc}')\n"
        )
        proc = _run_limited(script)
        assert proc.returncode == 1
        assert proc.stderr.startswith("refused: alpha=1e-06 at eps=1e-08 needs a ladder of 1.09e+08 rates"), proc.stderr

    def test_props_sweep_too_large_for_memory(self, tmp_path):
        # 10**9 histories per pair: the sweep's first array (8 GB) cannot be allocated under the limit,
        # which is an error of the run, not a failed check, so it exits 2 with one line on stderr
        out = tmp_path / "p"
        argv = ["props", "--count", "6000000000", "--out", str(out)]
        proc = _run_limited(f"import sys\nfrom subdiff.cli import main\nsys.exit(main({argv!r}))\n")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("out of memory")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "Traceback" not in proc.stderr
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

    @pytest.mark.parametrize(
        "axis, time", [("space", "steps = 32"), ("time", "horizon = 1.0\nsteps = 16")], ids=["space", "time"]
    )
    def test_a_study_keeps_only_final_fields(self, tmp_path, monkeypatch, axis, time):
        # every level and the reference keep their final field alone, in memory of its own, and study.tsv is
        # byte for byte that of runs that keep every field
        import subdiff.cli as cli

        cfg = _write(tmp_path, f"problem = porous\n[problem]\nresolution = 9\n[time]\n{time}\n[study]\naxis = {axis}\n")
        runs = []
        monkeypatch.setattr(cli, "run_trajectory", lambda *a, **k: runs.append(run_trajectory(*a, **k)) or runs[-1])
        assert main(["study", cfg, "--out", str(tmp_path / "kept"), "--levels", "2"]) == 0
        assert len(runs) == 3  # two levels and the reference
        for traj in runs:
            final = traj.fields[-1]
            assert traj.kept.tolist() == [traj.spec.time_grid.steps] and final.base.nbytes == final.nbytes
        monkeypatch.setattr(cli, "run_trajectory", lambda spec, options, keep=None: run_trajectory(spec, options))
        assert main(["study", cfg, "--out", str(tmp_path / "every"), "--levels", "2"]) == 0
        assert (tmp_path / "kept" / "study.tsv").read_bytes() == (tmp_path / "every" / "study.tsv").read_bytes()

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

    def test_seed_changes_draws_not_verdict(self, tmp_path, capsys):
        outs = {seed: tmp_path / f"s{seed}" for seed in (5, 6)}
        for seed, out in outs.items():
            assert main(["props", "--count", "18", "--seed", str(seed), "--out", str(out)]) == 0
        capsys.readouterr()
        data = {seed: json.loads((out / "props.json").read_text()) for seed, out in outs.items()}
        assert all(family["passed"] for d in data.values() for family in d.values())
        assert (outs[5] / "props.json").read_bytes() != (outs[6] / "props.json").read_bytes()

    @pytest.mark.parametrize("sweep", [_props_convexity, _props_comparison])
    def test_sweeps_draw_a_fixed_number_of_arrays_per_pair(self, sweep):
        # the random numbers of a pair come from a few array calls, however many histories it holds
        calls = []
        for count in (60, 600):
            rng = _CountingGenerator(np.random.default_rng(4))
            assert sweep(rng, count)["passed"]
            calls.append(rng.calls)
        assert calls[0] == calls[1] <= 8 * _SWEEP_PAIRS


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


class _CountingGenerator:
    """A ``numpy.random.Generator`` that counts the calls made to its methods."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


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


def _modules_after(tmp_path, script, packages=("scipy",)):
    """The modules of ``packages`` loaded in a fresh interpreter that ran ``script`` (from ``tmp_path``)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script += f"\nprint(sorted(m for m in sys.modules if m.split('.')[0] in {tuple(packages)!r}))"
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()[-1]


def test_package_root_imports_no_module(tmp_path):
    # every name has one import path, its module: the package root loads none of them, nor numpy
    assert _modules_after(tmp_path, "import sys, subdiff", ("subdiff", "numpy")) == "['subdiff']"


def test_import_loads_no_scipy(tmp_path):
    # any scipy submodule costs a large share of the package's import time and memory
    assert _modules_after(tmp_path, "import sys, subdiff.cli") == "[]"


def test_2d_run_loads_no_scipy(tmp_path):
    # the 2D step operator, preconditioner and CG solves are numpy only, also on their first call
    _write(tmp_path, "problem = porous\n[problem]\ndimension = 2\nresolution = 17\n[time]\nsteps = 4\ngrading = 1\n")
    script = "import sys\nfrom subdiff.cli import main\nassert main(['run', 'run.cfg', '--out', 'out']) == 0"
    assert _modules_after(tmp_path, script) == "[]"
