"""Command line entry points: ``subdiff run|study|props``.

``run`` solves one configured problem, writes norms.tsv / snapshots /
report.json into the output directory, prints one line per certificate, and
exits 0 when no enabled certificate failed.  A certificate that refuses the
run (boundedness with forcing, decay with forcing or boundary data, the weak
form on a time grid too coarse for its test hats) is reported as skipped and
does not count; neither does the Hoelder observable, which has no threshold.
``study`` performs a mesh-refinement study along the axis chosen in the
[study] section and reports observed convergence orders.  ``props`` sweeps
randomized property checks (discrete convexity, comparison with relaxation
supersolutions, Mittag-Leffler bounds) that need no PDE run at all.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_config, render_config
from .diagnostics import (
    boundedness_report,
    convexity_report,
    decay_report,
    hoelder_seminorm,
    l2_norm,
    norm_series,
    weakform_residual,
)
from .kernels import CompressionError, TimeGrid, check_discrete_convexity, default_grading
from .mittag_leffler import ml_tail_bound, ml_values
from .presets import build_preset, eigenmode_exact
from .relaxation import _subsolution_draws, solve_relaxation_l1
from .relaxation import random_subsolution  # noqa: F401  (bench/tracing.py wraps this name)
from .reporting import RunReport, jsonable, snapshot_path, write_norms_tsv, write_report, write_snapshot
from .solver import StepFailure, run_trajectory

__all__ = ["main", "build_problem"]


def build_problem(cfg: RunConfig):
    """Materialize (ProblemSpec, SolverOptions) from a parsed configuration."""
    spec = build_preset(
        cfg.problem.preset,
        alpha=cfg.problem.alpha,
        dimension=cfg.problem.dimension,
        extents=cfg.problem.extents,
        resolution=cfg.problem.resolution,
        horizon=cfg.time.horizon,
        steps=cfg.time.steps,
        grading=cfg.time.grading,
    )
    return spec, cfg.solver


# name -> (fields report.json reads off the record beside ``passed``, call on the trajectory and the
# [certificates] section), in run order.  Each call looks its certificate up in this module when it runs,
# so the benchmark's spans, which replace these names, see every call.
_CERTIFICATES = {
    "convexity": (("min_margin", "worst_step"), lambda traj, cc: convexity_report(traj)),
    "boundedness": (("bound", "max_sup", "arg_step"), lambda traj, cc: boundedness_report(traj)),
    "decay": (
        ("mu", "slack", "min_margin", "tail_exponent", "ml_max_error_estimate", "ml_inaccurate"),
        lambda traj, cc: decay_report(traj, slack=cc.slack),
    ),
    "weakform": (
        ("max_scaled_residual", "threshold", "worst_time", "worst_node", "near_worst_nodes"),
        lambda traj, cc: weakform_residual(traj, threshold=cc.weakform_threshold),
    ),
    "hoelder": (
        ("value", "beta_time", "beta_space", "note"),
        lambda traj, cc: hoelder_seminorm(traj, cc.hoelder_beta_time, cc.hoelder_beta_space),
    ),
}


def _collect_certificates(traj, cc):
    """Run the enabled certificates; returns (verdicts, records, wall seconds), each keyed by certificate.

    A certificate that refuses the run (a ``ValueError``) is reported as
    ``{"passed": None, "skipped": <reason>}`` and leaves no record.
    """
    certs = {}
    records = {}
    seconds = {}
    for name, (reported, certify) in _CERTIFICATES.items():
        if not getattr(cc, name):
            continue
        t0 = time.perf_counter()
        try:
            rep = records[name] = certify(traj, cc)
        except ValueError as exc:
            certs[name] = {"passed": None, "skipped": str(exc)}
        else:
            certs[name] = {"passed": rep.passed, **{key: getattr(rep, key) for key in reported}}
        seconds[name] = time.perf_counter() - t0
    return certs, records, seconds


def _print_verdicts(kind: str, verdicts: dict) -> bool:
    """One ``<kind> <name>: PASS|FAIL|SKIPPED (...)`` line per verdict; True unless one failed.

    A verdict with ``passed`` None (a refusal or an observable) prints as
    SKIPPED and does not count.
    """
    all_passed = True
    for name, info in verdicts.items():
        if info["passed"] is None:
            print(f"{kind} {name}: SKIPPED ({info.get('skipped', 'no threshold')})")
            continue
        verdict = "PASS" if info["passed"] else "FAIL"
        detail = ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in info.items()
            if k != "passed" and not isinstance(v, str)
        )
        print(f"{kind} {name}: {verdict} ({detail})")
        all_passed = all_passed and info["passed"]
    return all_passed


# flag -> the config path it overrides; argparse keeps each value as text, which the schema reads
_OVERRIDES = {"--out": "output.dir", "--seed": "output.seed", "--history": "solver.history", "--levels": "study.levels"}


def _load_config(args) -> RunConfig:
    """The config file with the command-line overrides that ``args`` carries."""
    given = {flag: getattr(args, flag[2:], None) for flag in _OVERRIDES}
    overrides = {flag: (_OVERRIDES[flag], raw) for flag, raw in given.items() if raw is not None}
    return parse_config(Path(args.config).read_text(), overrides)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    spec, options = build_problem(cfg)
    out = Path(cfg.output.dir)
    try:
        traj = run_trajectory(spec, options)
    except StepFailure as exc:
        report = RunReport(
            label=spec.label,
            passed=False,
            certificates={},
            solver={"mode": options.mode, "history": options.history},
            timings={},
            config_text=render_config(cfg),
            failure={
                "step": exc.step,
                "t": exc.t,
                "residual": exc.residual,
                "iterations": exc.iterations,
                "halvings": exc.halvings,
                "message": str(exc),
                "last_iterate": exc.last_iterate,
            },
        )
        out.mkdir(parents=True, exist_ok=True)
        write_report(out / "report.json", report)
        print(f"run failed: {exc}", file=sys.stderr)
        return 2

    series = norm_series(traj)
    certs, records, cert_seconds = _collect_certificates(traj, cfg.certificates)
    decay = records.get("decay")
    out.mkdir(parents=True, exist_ok=True)
    write_norms_tsv(out / "norms.tsv", series, None if decay is None else decay.envelope)
    for i, t_req in enumerate(cfg.output.snapshot_times):
        n = int(np.argmin(np.abs(traj.times - t_req)))
        write_snapshot(snapshot_path(out, i), spec.grid, float(traj.times[n]), traj.fields[n])
    passed = _print_verdicts("certificate", certs)
    report = RunReport(
        label=spec.label,
        passed=passed,
        certificates=certs,
        solver={
            "mode": options.mode,
            "history": options.history,
            "max_iterations": int(traj.iterations[1:].max()),
            "mean_iterations": float(traj.iterations[1:].mean()),
            "max_halvings": int(traj.halvings[1:].max()),
            "max_residual": float(traj.residuals[1:].max()),
            "seed": cfg.output.seed,
        },
        timings={**traj.timings, "certificates": cert_seconds},
        config_text=render_config(cfg),
    )
    write_report(out / "report.json", report)
    print(f"artifacts in {out}")
    return 0 if passed else 1


def _restrict(values: np.ndarray, shape, stride: int) -> np.ndarray:
    field = values.reshape(shape)
    sl = tuple(slice(None, None, stride) for _ in shape)
    return field[sl].ravel()


def cmd_study(args) -> int:
    cfg = _load_config(args)
    levels = cfg.study.levels
    axis = cfg.study.axis
    base_spec, options = build_problem(cfg)
    base_res = base_spec.grid.shape[0]
    base_steps = base_spec.time_grid.steps
    exact = None
    if cfg.problem.preset == "eigenmode":
        exact = eigenmode_exact(base_spec)

    def level_spec(l: int):
        if axis == "space":
            size = (base_res - 1) * 2**l + 1
            level = replace(cfg, problem=replace(cfg.problem, resolution=size))
        else:
            size = base_steps * 2**l
            level = replace(cfg, time=replace(cfg.time, steps=size))
        return build_problem(level)[0], size

    try:
        finals = []
        sizes = []
        specs = []
        for l in range(levels):
            spec_l, size = level_spec(l)
            traj = run_trajectory(spec_l, options)
            finals.append(traj.fields[-1])
            sizes.append(size)
            specs.append(spec_l)
        if exact is not None:
            refs = [eigenmode_exact(s)(s.time_grid.horizon) for s in specs]
        else:
            ref_spec, _ = level_spec(levels)
            ref_traj = run_trajectory(ref_spec, options)
            refs = []
            for l, s in enumerate(specs):
                if axis == "space":
                    refs.append(_restrict(ref_traj.fields[-1], ref_spec.grid.shape, 2 ** (levels - l)))
                else:
                    refs.append(ref_traj.fields[-1])
    except StepFailure as exc:
        print(f"study failed: {exc}", file=sys.stderr)
        return 2

    errors = [
        l2_norm(s.grid, u - r) / max(l2_norm(s.grid, r), 1e-300)
        for s, u, r in zip(specs, finals, refs)
    ]
    orders = [float("nan")] + [
        float(np.log2(errors[l - 1] / errors[l])) if errors[l] > 0 else float("nan")
        for l in range(1, levels)
    ]
    out = Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    label = "resolution" if axis == "space" else "steps"
    with open(out / "study.tsv", "w") as fh:
        fh.write(f"level\t{label}\trel_l2_error\torder\n")
        for l in range(levels):
            fh.write("%d\t%d\t%.17g\t%.17g\n" % (l, sizes[l], errors[l], orders[l]))
    reference = "exact eigenmode solution" if exact is not None else "one-level-finer run"
    print(f"refinement study along {axis} (reference: {reference})")
    print(f"{'level':>5} {label:>10} {'rel_l2_error':>14} {'order':>7}")
    for l in range(levels):
        print(f"{l:>5} {sizes[l]:>10} {errors[l]:>14.6e} {orders[l]:>7.3f}")
    print(f"artifacts in {out}")
    return 0


_SWEEP_PAIRS = 6  # the (alpha, grid) pairs _sweep_grids yields


def _sweep_grids(horizon: float):
    """(alpha, grid) pairs of the property sweeps: three orders, uniform and graded 48-step grids."""
    for alpha in (0.3, 0.5, 0.8):
        yield alpha, TimeGrid.uniform(horizon, 48)
        yield alpha, TimeGrid.graded(horizon, 48, default_grading(alpha))


def _props_convexity(rng, count: int):
    """``count`` random histories per (alpha, grid) pair, checked as one stack per pair."""
    worst = np.inf
    violations = 0
    total = 0
    for alpha, grid in _sweep_grids(2.0):
        hists = np.empty((count, grid.steps + 1))
        for hist in hists:
            scale = 10.0 ** rng.uniform(-2.0, 2.0)
            hist[:] = scale * np.cumsum(rng.standard_normal(grid.steps + 1))
        rep = check_discrete_convexity(alpha, grid, hists)
        total += count
        worst = min(worst, float(np.min(rep.margins + rep.roundoff)))
        violations += rep.violations
    return {
        "passed": violations == 0,
        "histories": total,
        "violations": violations,
        "worst_allowed_margin": worst,
    }


def _props_comparison(rng, count: int):
    """``count`` random sub-solutions per (alpha, grid) pair against the discrete relaxation solution.

    The sub-solutions and the relaxation solutions of one pair share the
    grid and the rates ``mu``, so one :func:`solve_relaxation_l1` call marches them.
    """
    eps = np.finfo(float).eps
    violations = 0
    total = 0
    worst = np.inf
    for alpha, grid in _sweep_grids(3.0):
        mu = np.empty(count)
        w0 = np.empty(count)
        start = np.empty(count)
        slack = np.zeros((2 * count, grid.steps))
        for i in range(count):
            mu[i] = 10.0 ** rng.uniform(-1.0, 1.5)
            w0[i] = 10.0 ** rng.uniform(-1.0, 1.0)
            start[i], slack[i] = _subsolution_draws(rng, w0[i], grid.steps)
        marched = solve_relaxation_l1(alpha, np.tile(mu, 2), np.concatenate([start, w0]), grid, slack)
        W, V = marched[:count], marched[count:]
        tol = 64.0 * (grid.steps + 4.0) * eps * np.maximum(np.max(np.abs(V), axis=1), np.max(np.abs(W), axis=1))
        gap = np.min(V - W, axis=1)
        total += count
        worst = min(worst, float(np.min(gap + tol)))
        violations += int(np.count_nonzero(gap < -tol))
    return {"passed": violations == 0, "subsolutions": total, "violations": violations, "worst_gap": worst}


def _props_mittag_leffler():
    from scipy.special import erfcx  # the independent reference for E_{1/2}(-x)

    xs = np.linspace(0.0, 30.0, 1000)
    half = ml_values(0.5, -xs)
    err_half = float(np.max(np.abs(half - erfcx(xs))))
    ys = np.linspace(-50.0, 0.0, 400)
    err_exp = float(np.max(np.abs(ml_values(1.0, ys) - np.exp(ys))))
    grid = np.concatenate(([0.0], np.geomspace(1e-8, 1e4, 600)))
    tail = ml_tail_bound(0.5, grid)
    return {
        "passed": bool(err_half <= 1e-10 and err_exp <= 1e-12 and tail.sup_weighted <= 1.2 and tail.decreasing and tail.convex),
        "max_err_vs_erfcx": err_half,
        "max_err_vs_exp": err_exp,
        "sup_weighted_tail": tail.sup_weighted,
        "decreasing": tail.decreasing,
        "convex": tail.convex,
    }


def cmd_props(args) -> int:
    if args.count < _SWEEP_PAIRS:
        print(f"props needs --count >= {_SWEEP_PAIRS}, one history per (alpha, grid) pair; got {args.count}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"props needs --seed >= 0; got {args.seed}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    per_combo = args.count // _SWEEP_PAIRS
    results = {
        "convexity": _props_convexity(rng, per_combo),
        "comparison": _props_comparison(rng, per_combo),
        "mittag_leffler": _props_mittag_leffler(),
    }
    all_passed = _print_verdicts("property", results)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "props.json").write_text(json.dumps(jsonable(results), indent=2, sort_keys=True) + "\n")
        print(f"artifacts in {out}")
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subdiff",
        description="L1 subdiffusion solver with decay, convexity, and boundedness certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one configured problem and certify it")
    p_run.add_argument("config", help="path to a run configuration file")
    p_run.add_argument("--out", help="output directory (overrides [output] dir)")
    p_run.add_argument("--seed", help="seed recorded in the report")
    p_run.add_argument("--history", choices=("direct", "compressed"), help="memory accumulation mode")
    p_run.set_defaults(func=cmd_run)

    p_study = sub.add_parser("study", help="mesh refinement study along the [study] axis")
    p_study.add_argument("config", help="path to a run configuration file")
    p_study.add_argument("--levels", help="number of refinement levels (overrides [study] levels)")
    p_study.add_argument("--out", help="output directory")
    p_study.set_defaults(func=cmd_study)

    p_props = sub.add_parser("props", help="randomized property sweeps (no PDE run)")
    p_props.add_argument(
        "--count",
        type=int,
        default=1002,
        help="histories per property family, at least 6; rounded down to a multiple of 6, "
        "the number of (alpha, grid) pairs",
    )
    p_props.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_props.add_argument("--out", help="directory for props.json")
    p_props.set_defaults(func=cmd_props)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("invalid configuration: " + "; ".join(exc.problems), file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:  # the config file is the one file decoded
        print(f"cannot read {args.config}: not UTF-8 text ({exc.reason} at byte {exc.start})", file=sys.stderr)
        return 2
    except OSError as exc:
        # the config file is the one file read; every other file operation writes an artifact
        config = getattr(args, "config", None)
        operation = "read" if config is not None and exc.filename == str(Path(config)) else "write"
        print(f"cannot {operation} {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except CompressionError as exc:
        print(f"history compression failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
