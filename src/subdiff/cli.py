"""Command line entry points: ``subdiff run|study|props``.

``run`` solves one configured problem, writes norms.tsv / snapshots /
report.json into the output directory, prints one line per certificate and
per observable, and exits 0 when no enabled certificate failed, 1 when one
failed and 2 on any other error.  A certificate passes or fails against its
threshold; one that refuses the run (boundedness with forcing, decay with
forcing or boundary data, the weak form on a time grid too coarse for its
test hats) is reported as skipped and does not count.  Observables
(``tail_exponent``, and ``hoelder`` under ``[output] hoelder``) have none.
``study`` performs a mesh-refinement study along the axis chosen in the
[study] section and reports observed convergence orders.  ``props`` sweeps
randomized property checks (discrete convexity, comparison with relaxation
supersolutions, Mittag-Leffler bounds) that need no PDE run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_config, render_config, study_levels
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
    return build_preset(**vars(cfg.problem), **vars(cfg.time)), cfg.solver


# name -> (fields report.json reads off the record beside ``passed``, call on the trajectory and the
# [certificates] section), in run order.  Each call looks its certificate up in this module when it runs,
# so the benchmark's spans, which replace these names, see every call.
_CERTIFICATES = {
    "convexity": (("min_margin", "worst_step", "allowance"), lambda traj, cc: convexity_report(traj)),
    "boundedness": (("bound", "max_sup", "arg_step"), lambda traj, cc: boundedness_report(traj)),
    "decay": (
        ("mu", "slack", "min_margin", "ml_max_error_estimate", "ml_inaccurate"),
        lambda traj, cc: decay_report(traj, slack=cc.slack),
    ),
    "weakform": (
        ("max_scaled_residual", "threshold", "worst_time", "worst_node", "near_worst_nodes"),
        lambda traj, cc: weakform_residual(traj, threshold=cc.weakform_threshold),
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


def _detail(value) -> str:
    if isinstance(value, dict):
        return ", ".join(f"{k}={_detail(v)}" for k, v in value.items())
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_verdicts(kind: str, verdicts: dict) -> None:
    """One ``<kind> <name>: PASS|FAIL|SKIPPED (...)`` line per verdict; a refusal (``passed`` None) is SKIPPED."""
    for name, info in verdicts.items():
        if info["passed"] is None:
            print(f"{kind} {name}: SKIPPED ({info['skipped']})")
        else:
            verdict = "PASS" if info["passed"] else "FAIL"
            print(f"{kind} {name}: {verdict} ({_detail({k: v for k, v in info.items() if k != 'passed'})})")


def _passed(verdicts: dict) -> bool:
    """True unless a verdict failed; a refusal does not count."""
    return all(info["passed"] is not False for info in verdicts.values())


# flag -> the config path it overrides; argparse keeps each value as text, which the schema reads
_OVERRIDES = {"--out": "output.dir", "--seed": "output.seed", "--history": "solver.history", "--levels": "study.levels"}


def _load_config(args) -> RunConfig:
    """The config file with the command-line overrides that ``args`` carries."""
    given = {flag: getattr(args, flag[2:], None) for flag in _OVERRIDES}
    overrides = {flag: (_OVERRIDES[flag], raw) for flag, raw in given.items() if raw is not None}
    return parse_config(Path(args.config).read_text(encoding="utf-8"), overrides)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    spec, options = build_problem(cfg)
    out = Path(cfg.output.dir)
    times = spec.time_grid.nodes
    snapshots = [int(np.argmin(np.abs(times - t_req))) for t_req in cfg.output.snapshot_times]
    # the weak form and the Hoelder estimate read every field; the other outputs read the snapshot rows and the norms
    every_field = cfg.certificates.weakform or cfg.output.hoelder
    try:
        traj = run_trajectory(spec, options, keep=None if every_field else snapshots)
    except StepFailure as exc:
        report = RunReport(
            label=spec.label,
            passed=False,
            certificates={},
            observables={},
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
    for i, n in enumerate(snapshots):
        write_snapshot(snapshot_path(out, i), spec.grid, float(times[n]), traj.field(n))
    observables = {} if decay is None else {"tail_exponent": decay.tail_exponent}
    if cfg.output.hoelder:
        observables["hoelder"] = asdict(hoelder_seminorm(traj))
    report = RunReport(
        label=spec.label,
        passed=_passed(certs),
        certificates=certs,
        observables=observables,
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
    # every artifact is written before the first line goes out, so a closed stdout loses none
    _print_verdicts("certificate", certs)
    for name, value in observables.items():
        print(f"observable {name}: {_detail(value)}")
    print(f"artifacts in {out}")
    return 0 if report.passed else 1


def _restrict(values: np.ndarray, shape, stride: int) -> np.ndarray:
    field = values.reshape(shape)
    sl = tuple(slice(None, None, stride) for _ in shape)
    return field[sl].ravel()


def cmd_study(args) -> int:
    cfg = _load_config(args)
    levels = cfg.study.levels
    axis = cfg.study.axis
    runs, reference = study_levels(cfg)
    specs = [build_problem(level)[0] for level, _ in runs]
    sizes = [size for _, size in runs]

    try:
        # each level keeps its final field alone
        finals = [run_trajectory(s, cfg.solver, keep=()).fields[-1] for s in specs]
        if reference is None:  # the eigenmode preset: its exact solution is the reference
            refs = [eigenmode_exact(s)(s.time_grid.horizon) for s in specs]
        else:
            ref_spec = build_problem(reference[0])[0]
            ref = run_trajectory(ref_spec, cfg.solver, keep=()).fields[-1]
            refs = [
                _restrict(ref, ref_spec.grid.shape, 2 ** (levels - l)) if axis == "space" else ref
                for l in range(levels)
            ]
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
    source = "exact eigenmode solution" if reference is None else "one-level-finer run"
    print(f"refinement study along {axis} (reference: {source})")
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
    """``count`` random histories per (alpha, grid) pair, drawn as arrays and checked as one stack per pair."""
    worst = np.inf
    violations = 0
    total = 0
    for alpha, grid in _sweep_grids(2.0):
        scale = 10.0 ** rng.uniform(-2.0, 2.0, (count, 1))
        hists = scale * np.cumsum(rng.standard_normal((count, grid.steps + 1)), axis=1)
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

    Each pair draws its rates ``mu``, its starts ``w0`` and, in one
    :func:`_subsolution_draws` call, every sub-solution's start and slacks, as
    arrays in that order.  The sub-solutions and the relaxation solutions of
    one pair share the grid and the rates, so one :func:`solve_relaxation_l1`
    call marches them.
    """
    eps = np.finfo(float).eps
    violations = 0
    total = 0
    worst = np.inf
    for alpha, grid in _sweep_grids(3.0):
        mu = 10.0 ** rng.uniform(-1.0, 1.5, count)
        w0 = 10.0 ** rng.uniform(-1.0, 1.0, count)
        start, slack = _subsolution_draws(rng, w0, grid.steps)
        slack = np.concatenate([slack, np.zeros_like(slack)])
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
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "props.json").write_text(json.dumps(jsonable(results), indent=2, sort_keys=True, allow_nan=False) + "\n")
    _print_verdicts("property", results)
    if args.out:
        print(f"artifacts in {out}")
    return 0 if _passed(results) else 1


class _StandardOutputError(OSError):
    """A write to standard output failed."""


class _StandardOutput:
    """Standard output while a command runs: a failed write or flush raises :class:`_StandardOutputError`.

    A failed artifact write raises an ``OSError`` that names no file either
    (a full disk fails the write, not the open), so only this tells the two apart.
    """

    def __init__(self, stream):
        self._stream = stream

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def write(self, text):
        try:
            return self._stream.write(text)
        except OSError as exc:
            raise _StandardOutputError(exc.errno, exc.strerror) from exc

    def flush(self):
        try:
            self._stream.flush()
        except OSError as exc:
            raise _StandardOutputError(exc.errno, exc.strerror) from exc


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
    stdout, sys.stdout = sys.stdout, _StandardOutput(sys.stdout)
    try:
        status = args.func(args)
        # a closed stdout fails here, inside the handlers, and not in the interpreter's flush at exit
        sys.stdout.flush()
        return status
    except ConfigError as exc:
        print("invalid configuration: " + "; ".join(exc.problems), file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:  # the config file is the one file decoded
        print(f"cannot read {args.config}: not UTF-8 text ({exc.reason} at byte {exc.start})", file=sys.stderr)
        return 2
    except OSError as exc:
        # the config file is the one file read; every other file operation writes an artifact or standard output
        config = getattr(args, "config", None)
        operation = "read" if config is not None and exc.filename == str(Path(config)) else "write"
        closed = isinstance(exc, _StandardOutputError)  # a closed pipe or a full device
        target = "standard output" if closed else exc.filename or "an artifact"
        print(f"cannot {operation} {target}: {exc.strerror or exc}", file=sys.stderr)
        if closed:
            # what stdout still buffers goes to the interpreter's flush at exit: send it nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout.fileno())
            os.close(devnull)
        return 2
    except CompressionError as exc:
        print(f"history compression failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means a failed certificate, so any other error exits 2
        print(f"{args.command} failed: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2
    finally:
        sys.stdout = stdout


if __name__ == "__main__":
    raise SystemExit(main())
