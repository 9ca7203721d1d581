"""Run-configuration parsing, validation, and round-tripping."""

from dataclasses import replace

import pytest

from subdiff import cli
from subdiff.cli import build_problem
from subdiff.config import ConfigError, RunConfig, parse_config, render_config, study_levels
from subdiff.solver import ProblemSpec, SolverOptions


class TestParsing:
    def test_minimal(self):
        cfg = parse_config("problem = eigenmode\n")
        assert cfg.problem.preset == "eigenmode"
        assert cfg.problem.alpha is None
        assert cfg.solver.mode == "picard"
        assert cfg.certificates.decay is True
        assert cfg.output.dir == "out"

    def test_inline_assignments_and_dotted_keys(self):
        cfg = parse_config("problem = porous, alpha = 0.7\ntime.steps = 128\n")
        assert cfg.problem.preset == "porous"
        assert cfg.problem.alpha == 0.7
        assert cfg.time.steps == 128

    def test_sections_comments_and_lists(self):
        text = """
        # full-form configuration
        [problem]
        preset = porous
        dimension = 2
        resolution = 33
        extents = [0.0, 3.141592653589793]

        [time]
        horizon = 10.0    # long run
        steps = 256
        grading = 2.0

        [solver]
        history = compressed
        tol = 1e-9

        [certificates]
        weakform = true
        slack = 1.1

        [output]
        dir = results
        seed = 3
        snapshot_times = [0.5, 2.0, 10.0]
        """
        cfg = parse_config(text)
        assert cfg.problem.dimension == 2
        assert cfg.problem.extents == (0.0, 3.141592653589793)
        assert cfg.time.horizon == 10.0
        assert cfg.time.grading == 2.0
        assert cfg.solver.history == "compressed"
        assert cfg.solver.tol == 1e-9
        assert cfg.certificates.weakform is True
        assert cfg.certificates.slack == 1.1
        assert cfg.output.dir == "results"
        assert cfg.output.seed == 3
        assert cfg.output.snapshot_times == (0.5, 2.0, 10.0)

    def test_booleans(self):
        cfg = parse_config("problem=zero\n[certificates]\ndecay=false\n[output]\nhoelder=true\n")
        assert cfg.certificates.decay is False
        assert cfg.output.hoelder is True

    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.problem.preset == "eigenmode"


class TestErrorAggregation:
    def test_unknown_key_names_location(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("volume = 11\n")
        assert any("volume" in p for p in exc.value.problems)

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[grid]\nh = 0.5\n")
        assert any("[grid]" in p for p in exc.value.problems)

    def test_out_of_range_values_carry_requirement_text(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("alpha = 1.5\n")
        msg = exc.value.problems[0]
        assert "problem.alpha" in msg
        assert "(0, 1)" in msg

    def test_duplicate_assignment(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("alpha = 0.5\nalpha = 0.6\n")
        assert any("duplicate" in p for p in exc.value.problems)

    def test_unterminated_header(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[problem\npreset = porous\n")
        assert any("unterminated" in p for p in exc.value.problems)

    def test_all_violations_reported_at_once(self):
        text = "alpha = 2.0\nvolume = 1\n[study]\nlevels = 1\n[solver]\nmode = banana\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        probs = exc.value.problems
        assert len(probs) == 4
        assert any("alpha" in p for p in probs)
        assert any("volume" in p for p in probs)
        assert any("levels" in p for p in probs)
        assert any("mode" in p for p in probs)

    def test_compressed_history_on_any_grid(self):
        for grading in ("", "[time]\ngrading = 1\n", "[time]\ngrading = 2.5\n"):
            cfg = parse_config("[solver]\nhistory = compressed\n" + grading)
            assert cfg.solver.history == "compressed"

    def test_compression_tolerance_floor(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[solver]\neps_compress = 1e-14\n")
        assert exc.value.problems == [
            "line 2: solver.eps_compress=1e-14 is out of range (must be in [1e-13, 1), what compression can reach)"
        ]
        assert parse_config("[solver]\neps_compress = 1e-13\n").solver.eps_compress == 1e-13

    def test_compression_at_a_tiny_alpha_is_refused_naming_alpha(self):
        # at alpha = 1e-6 the first ladder of compress_history would hold 1.1e8 rates, above MAX_LADDER_RUNGS
        text = "problem = eigenmode, alpha = {}\n[time]\nsteps = 16\n"
        compressed = "[solver]\nhistory = compressed\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text.format("1e-6") + compressed)
        assert exc.value.problems == [
            "problem.alpha=1e-06 is too small for solver.history=compressed at solver.eps_compress=1e-08: "
            "its ladder would hold 1.09e+08 rates, above 1048576; use solver.history=direct"
        ]
        with pytest.raises(ConfigError, match="problem.alpha=1e-310 is too small"):  # Gamma(alpha) overflows
            parse_config(text.format("1e-310") + compressed)
        assert parse_config(text.format("1e-6")).solver.history == "direct"  # direct history has no ladder
        # alpha = 0.001 compresses at the tolerance floor too (a ladder of 2.3e5 rates), and so does the default
        for cfg in (text.format("0.001") + "[solver]\nhistory = compressed, eps_compress = 1e-13\n", compressed):
            assert parse_config(cfg).solver.history == "compressed"

    def test_grading_that_underflows_the_first_step(self):
        # t_1 = T M^-r: 50 * 512^-150 underflows to 0 on the porous preset's default grid, 50 * 4^-150 does not
        with pytest.raises(ConfigError) as exc:
            parse_config("problem = porous\n[time]\ngrading = 150\n")
        assert exc.value.problems == [
            "problem.preset=porous, time.grading=150.0 give no grids: time nodes must be strictly increasing"
        ]
        assert parse_config("problem = porous\n[time]\ngrading = 150\nsteps = 4\n").time.grading == 150.0

    def test_time_study_checks_the_grid_of_its_finest_level(self):
        # a time study doubles the steps per level, and without an exact solution it runs one more level as
        # reference: with 4 steps at r = 300, t_1 = T 8^-300 > 0 but T 16^-300 underflows to 0
        text = "[time]\nhorizon = 1.0\nsteps = 4\ngrading = 300\n[study]\naxis = time\nlevels = 2\n"
        with pytest.raises(ConfigError) as exc:
            parse_config("problem = porous\n" + text)
        assert exc.value.problems == [
            "study.axis=time, study.levels=2 refine to time.steps=16, where problem.preset=porous, time.horizon=1.0, "
            "time.steps=4, time.grading=300.0 give no grids: time nodes must be strictly increasing"
        ]
        assert parse_config("problem = eigenmode\n" + text).study.axis == "time"  # its finest level has 8 steps
        assert parse_config("problem = porous\n" + text.replace("axis = time", "axis = space")).study.levels == 2

    @pytest.mark.parametrize(
        "dimension, extents, shown, spacing",
        [
            (1, "[0, 1e-160]", "[0.0, 1e-160]", "1.25e-161"),  # h^2 is subnormal, 1 / h^2 overflows
            (1, "[0, 1e200]", "[0.0, 1e+200]", "1.25e+199"),  # h^2 overflows
            (2, "[0, 1, 0, 1e200]", "[0.0, 1.0, 0.0, 1e+200]", "1.25e+199"),  # on the second axis only
        ],
    )
    def test_box_whose_spacing_squared_leaves_the_floats(self, dimension, extents, shown, spacing):
        text = f"problem = porous\n[problem]\ndimension = {dimension}\nresolution = 9\nextents = {extents}\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text + "[time]\nsteps = 4\n")
        (problem,) = exc.value.problems
        assert problem.startswith(
            f"problem.preset=porous, problem.dimension={dimension}, problem.resolution=9, problem.extents={shown}, "
            "time.steps=4 give no grids: extents "
        )
        assert problem.endswith(f"give an axis spacing h = {spacing} whose h^2 or 1/h^2 is not finite and positive")

    def test_space_study_checks_the_grid_of_its_finest_level(self):
        # 9 nodes on [0, 1e-151] give h = 1.25e-152 and a largest diagonal 2 lam / h^2 = 1.9e304 (lam = 1.5);
        # the 2-level porous study's reference level has 33 nodes, h = 3.1e-153 and 3.07e305, above float max / 1024
        text = "problem = porous\n[problem]\nresolution = 9\nextents = [0, 1e-151]\n[time]\nsteps = 4\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text + "[study]\nlevels = 2\n")
        (problem,) = exc.value.problems
        assert problem.startswith(
            "study.axis=space, study.levels=2 refine to problem.resolution=33, where problem.preset=porous, "
            "problem.resolution=9, problem.extents=[0.0, 1e-151], time.steps=4 give no grids: "
        )
        assert "on (33,) nodes, with time steps from 0.7812, gives a step matrix's largest diagonal of 3.072e+305" \
            in problem
        # an eigenmode study has an exact reference and no extra level: from 5 nodes on [0, 4e-152] its finest level
        # has 9 nodes and a largest diagonal 2 / h^2 = 8e304 (lam = 1), where 17 nodes would have 3.2e305
        text = "problem = eigenmode\n[problem]\nresolution = 5\nextents = [0, 4e-152]\n[time]\nsteps = 4\n"
        assert parse_config(text + "[study]\nlevels = 2\n").study.levels == 2
        with pytest.raises(ConfigError, match="refine to problem.resolution=17, where"):
            parse_config(text + "[study]\nlevels = 3\n")

    @pytest.mark.parametrize(
        "extents, horizon, what, value",
        [
            # 1 / h^2 = 1e308 is finite, 2 / h^2 is not: the run overflowed in the step matrix's diagonals
            ("[0, 8e-154]", 1.0, "step matrix's largest diagonal", "inf"),
            # 2 / h^2 = 8.9e307: the run's decay envelope, E_a at -1.4e307, came out NaN and failed
            ("[0, 1.2e-153]", 1.0, "step matrix's largest diagonal", "8.889e+307"),
            # 2 / h^2 = 1.3e302 passes, but the decay rate 2 lambda_1 = 2e301 times T^a = 1e5 does not
            ("[0, 1e-150]", 1e10, "decay rate times max(1, T)^alpha", "1.974e+306"),
        ],
        ids=["diagonal-overflows", "diagonal-near-the-limit", "decay-rate-near-the-limit"],
    )
    def test_box_whose_scales_near_the_float_limit(self, extents, horizon, what, value):
        # a time study checks no finer box, so these would reach the run
        text = f"problem = eigenmode\n[problem]\nresolution = 9\nextents = {extents}\n[time]\nhorizon = {horizon}\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text + "steps = 4\n[study]\naxis = time\n")
        (problem,) = exc.value.problems
        assert problem.startswith("problem.preset=eigenmode, problem.resolution=9, problem.extents=[0.0, ")
        assert "give no grids: the box " in problem
        assert problem.endswith(f"gives a {what} of {value}, above 1.756e+305, 2^10 below the float maximum")

    @pytest.mark.parametrize(
        "key", ["solver.tol", "certificates.slack", "certificates.weakform_threshold", "time.horizon", "problem.alpha"]
    )
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_numbers_are_refused_by_key(self, key, value):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"{key} = {value}\n")
        assert exc.value.problems == [f"line 1: {key}={value} is not finite"]

    @pytest.mark.parametrize("key", ["problem.extents", "output.snapshot_times"])
    def test_non_finite_list_entries_are_refused_by_key(self, key):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"{key} = [0, inf]\n")
        assert exc.value.problems == [f"line 1: {key}=[0, inf] is not finite"]
        with pytest.raises(ConfigError, match="is not finite"):
            parse_config(f"{key} = [0, 1e16000000]\n")  # overflows to inf when read

    @pytest.mark.parametrize("eps", ["1", "1e7", "2e7"])
    def test_compression_tolerance_is_relative(self, eps):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"[solver]\neps_compress = {eps}\n")
        assert exc.value.problems == [
            f"line 2: solver.eps_compress={eps} is out of range (must be in [1e-13, 1), what compression can reach)"
        ]
        assert parse_config("[solver]\neps_compress = 0.5\n").solver.eps_compress == 0.5

    def test_snapshot_time_past_the_horizon(self):
        # a run to T = 1 would write a snapshot asked for at t = 100 at its last node, t = 1
        with pytest.raises(ConfigError) as exc:
            parse_config("problem = eigenmode\n[output]\nsnapshot_times = [0.5, 100.0]\n")
        assert exc.value.problems == ["output.snapshot_times has [100.0] past the time horizon 1.0"]
        cfg = parse_config("problem = eigenmode\n[time]\nhorizon = 100\n[output]\nsnapshot_times = [0.5, 100.0]\n")
        assert cfg.output.snapshot_times == (0.5, 100.0)

    def test_newton_in_2d_is_refused(self, tmp_path, capsys, monkeypatch):
        # 2D runs are Picard only; a run and a study stop at the config, before any step
        text = "problem = porous\n[problem]\ndimension = 2\nresolution = 9\n[solver]\nmode = newton\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.problems == [
            "solver.mode=newton solves 1D problems only, not problem.dimension=2; 2D runs use picard"
        ]
        monkeypatch.setattr(cli, "run_trajectory", lambda *args: pytest.fail("a step ran"))
        (tmp_path / "n.cfg").write_text(text)
        for command in ("run", "study"):
            assert cli.main([command, str(tmp_path / "n.cfg"), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("invalid configuration: solver.mode=newton") and "problem.dimension=2" in err
        assert not (tmp_path / "o").exists()
        assert parse_config(text.replace("dimension = 2", "dimension = 1")).solver.mode == "newton"

    def test_newton_in_2d_is_reported_with_the_other_cross_key_problems(self):
        text = "problem = porous\n[problem]\ndimension = 2\n[time]\nsteps = 1\n"
        text += "[solver]\nmode = newton\nhistory = compressed\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.problems == [
            "solver.history=compressed needs time.steps >= 2 (one step has no history)",
            "solver.mode=newton solves 1D problems only, not problem.dimension=2; 2D runs use picard",
        ]

    def test_mode_choices_listed(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[solver]\nmode = banana\n")
        assert "picard" in exc.value.problems[0]
        assert "newton" in exc.value.problems[0]


class TestStudyLevels:
    """``study_levels`` refines a config along its study axis by a factor of 2 per level."""

    BASE = "[problem]\nresolution = 9\n[time]\nsteps = 8\n"

    @pytest.mark.parametrize(
        "text, section, key, sizes, reference",
        [
            ("problem = porous\n" + BASE + "[study]\nlevels = 3\n", "problem", "resolution", [9, 17, 33], 65),
            ("problem = porous\n" + BASE + "[study]\naxis = time\nlevels = 3\n", "time", "steps", [8, 16, 32], 64),
            # the base is the preset's default step count when time.steps is unset
            ("problem = porous\n[study]\naxis = time\nlevels = 2\n", "time", "steps", [512, 1024], 2048),
            # the eigenmode preset's exact solution is its reference: no extra level
            ("problem = eigenmode\n[problem]\ndimension = 2\nresolution = 5\n[study]\nlevels = 2\n", "problem",
             "resolution", [5, 9], None),
        ],
    )
    def test_level_sizes(self, text, section, key, sizes, reference):
        cfg = parse_config(text)
        runs, ref = study_levels(cfg)
        assert [size for _, size in runs] == sizes
        assert (ref[1] if ref else None) == reference
        for level, size in runs + [ref] * (ref is not None):
            assert getattr(getattr(level, section), key) == size
            assert replace(level, **{section: getattr(cfg, section)}) == cfg  # nothing else is refined


class TestRoundTrip:
    def test_parse_render_parse_is_identity(self):
        text = """
        problem = porous, alpha = 0.35
        [time]
        horizon = 5.0
        steps = 96
        [solver]
        mode = newton
        [certificates]
        weakform = true
        [output]
        snapshot_times = [1.0, 5.0]
        """
        cfg = parse_config(text)
        again = parse_config(render_config(cfg))
        assert again == cfg

    def test_accepted_output_dir_round_trips(self):
        cfg = parse_config("", {"--out": ("output.dir", "runs/a b=[1]/\u00e9t\u00e9")})
        assert parse_config(render_config(cfg)) == cfg

    @pytest.mark.parametrize("path", ["res#1,a", "res#1", "res,a", "res\na", " res", "res "])
    def test_output_dir_that_would_not_read_back_is_rejected(self, path):
        with pytest.raises(ConfigError, match="output.dir"):
            parse_config("", {"--out": ("output.dir", path)})

    def test_default_config_round_trips(self):
        cfg = RunConfig()
        assert parse_config(render_config(cfg)) == cfg

    def test_render_omits_unset_optionals(self):
        out = render_config(parse_config("problem = zero\n"))
        assert "[time]" not in out
        assert "preset=zero" in out


class TestBuildProblem:
    def test_eigenmode_mapping(self):
        cfg = parse_config(
            "problem = eigenmode, alpha = 0.4\n[time]\nhorizon = 2.0\nsteps = 32\n"
            "[problem]\nresolution = 33\n[solver]\nmode = newton\ntol = 1e-8\n"
        )
        spec, options = build_problem(cfg)
        assert isinstance(spec, ProblemSpec)
        assert isinstance(options, SolverOptions)
        assert spec.alpha == 0.4
        assert spec.time_grid.horizon == 2.0
        assert spec.time_grid.steps == 32
        assert spec.grid.n_nodes == 33
        assert options.mode == "newton"
        assert options.tol == 1e-8

    def test_defaults_flow_through(self):
        spec, options = build_problem(parse_config("problem = porous\n"))
        assert spec.label == "porous"
        assert spec.alpha == 0.5
        assert options.mode == "picard"
        assert options.history == "direct"

    def test_uniform_grading_override(self):
        cfg = parse_config("problem = porous\n[time]\ngrading = 1.0\nsteps = 16\n")
        spec, _ = build_problem(cfg)
        assert spec.time_grid.is_uniform()
