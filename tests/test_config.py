"""Run-configuration parsing, validation, and round-tripping."""

import pytest

from subdiff.cli import build_problem
from subdiff.config import ConfigError, RunConfig, parse_config, render_config
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
        mode = newton
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
        assert cfg.solver.mode == "newton"
        assert cfg.solver.tol == 1e-9
        assert cfg.certificates.weakform is True
        assert cfg.certificates.slack == 1.1
        assert cfg.output.dir == "results"
        assert cfg.output.seed == 3
        assert cfg.output.snapshot_times == (0.5, 2.0, 10.0)

    def test_booleans(self):
        cfg = parse_config("problem=zero\n[certificates]\ndecay=false\nhoelder=true\n")
        assert cfg.certificates.decay is False
        assert cfg.certificates.hoelder is True

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
            "history compression cannot reach eps=1e-14: solver.eps_compress must be >= 1e-13"
        ]
        assert parse_config("[solver]\neps_compress = 1e-13\n").solver.eps_compress == 1e-13

    def test_mode_choices_listed(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[solver]\nmode = banana\n")
        assert "picard" in exc.value.problems[0]
        assert "newton" in exc.value.problems[0]


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
        assert spec.time_grid.r == 1.0 and spec.time_grid.is_uniform()
