"""Spans around the calls into each subdiff layer, installed from outside the package.

Each span replaces a function under the name its *calling* module looks it
up by (``subdiff.solver.spsolve``, not ``scipy.sparse.linalg.spsolve``), so
it counts exactly the calls the program makes through that module.
``patched`` installs a list of spans for the length of a ``with`` block and
always restores the originals.

``ONCE_PER_RUN`` holds the handful of spans the untraced runs need for the
end-to-end metrics; ``PER_CALL`` adds the per-layer spans of a traced run.
``layer_metrics`` turns one traced run into the per-layer figures.
"""

from __future__ import annotations

import contextlib
import importlib
import os
from collections import defaultdict
from time import perf_counter

import numpy as np


class Recorder:
    """Totals of one `subdiff` call: seconds, calls and intervals per span, plus extras."""

    def __init__(self):
        self.secs = defaultdict(float)
        self.intervals = defaultdict(list)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.results = {}
        self.step_marks = []
        self.solving = False
        self.solve_end = 0.0


def _span(key, keep=False, after=None):
    def install(rec, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            t1 = perf_counter()
            rec.secs[key] += t1 - t0
            rec.intervals[key].append((t0, t1))
            rec.calls[key] += 1
            if keep:
                rec.results[key] = out
            if after is not None:
                after(rec, out, args)
            return out

        return wrapper

    return install


def _solve_span(rec, fn):
    """run_trajectory: keeps the trajectory and opens the window step marks are taken in."""

    def wrapper(*args, **kwargs):
        rec.solving = True
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.solving = False
            rec.solve_end = perf_counter()
        rec.secs["solver.run"] += rec.solve_end - t0
        rec.intervals["solver.run"].append((t0, rec.solve_end))
        rec.calls["solver.run"] += 1
        rec.results["solver.run"] = out
        return out

    return wrapper


def _step_mark(rec, fn):
    """ProblemSpec.source_at runs once per time step inside run_trajectory."""

    def wrapper(*args, **kwargs):
        if rec.solving:
            rec.step_marks.append(perf_counter())
        return fn(*args, **kwargs)

    return wrapper


def _ml_eval(rec, out, args):
    rec.counts[f"mittag_leffler.evals_{out.method}"] += 1
    if not out.accurate:
        rec.counts["mittag_leffler.inaccurate"] += 1
    rec.counts["mittag_leffler.max_err_est"] = max(rec.counts["mittag_leffler.max_err_est"], out.error_estimate)


def _file_written(rec, out, args):
    rec.counts["reporting.bytes"] += os.path.getsize(args[0])


ONCE_PER_RUN = [
    ("subdiff.cli", "parse_config", _span("config.parse")),
    ("subdiff.cli", "build_problem", _span("presets.build")),
    ("subdiff.solver", "compress_history", _span("kernels.compress_build", keep=True)),
    ("subdiff.cli", "run_trajectory", _solve_span),
    ("subdiff.cli", "convexity_report", _span("diagnostics.convexity", keep=True)),
    ("subdiff.cli", "boundedness_report", _span("diagnostics.boundedness", keep=True)),
    ("subdiff.cli", "decay_report", _span("diagnostics.decay", keep=True)),
    ("subdiff.cli", "weakform_residual", _span("diagnostics.weakform", keep=True)),
    ("subdiff.cli", "_props_convexity", _span("props.convexity")),
    ("subdiff.cli", "_props_comparison", _span("props.comparison")),
    ("subdiff.cli", "_props_mittag_leffler", _span("props.mittag_leffler")),
]

PER_CALL = [
    ("subdiff.solver", "ProblemSpec.source_at", _step_mark),
    ("subdiff.solver", "assemble_quasilinear_operator", _span("spatial.assemble")),
    ("subdiff.solver", "newton_jacobian", _span("spatial.jacobian")),
    ("subdiff.solver", "spsolve", _span("solver.spsolve")),
    ("subdiff.diagnostics", "assemble_quasilinear_operator", _span("diagnostics.weakform_assemble")),
    ("subdiff.cli", "norm_series", _span("diagnostics.norms")),
    ("subdiff.relaxation", "mittag_leffler", _span("mittag_leffler", after=_ml_eval)),
    ("subdiff.mittag_leffler", "mittag_leffler", _span("mittag_leffler", after=_ml_eval)),
    ("subdiff.cli", "random_subsolution", _span("relaxation.subsolution")),
    ("subdiff.cli", "solve_relaxation_l1", _span("relaxation.l1_solve")),
    ("subdiff.cli", "check_discrete_convexity", _span("kernels.convexity_check")),
    ("subdiff.cli", "write_norms_tsv", _span("reporting.write", after=_file_written)),
    ("subdiff.cli", "write_snapshot", _span("reporting.write", after=_file_written)),
    ("subdiff.cli", "write_report", _span("reporting.write", after=_file_written)),
]

CERTIFICATES = ("diagnostics.convexity", "diagnostics.boundedness", "diagnostics.decay", "diagnostics.weakform")


@contextlib.contextmanager
def patched(rec: Recorder, spans):
    saved = []
    try:
        for module, path, install in spans:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, install(rec, original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("config.parse_s", "s"),
    ("presets.build_s", "s"),
    ("kernels.compress_build_s", "s"),
    ("solver.compression_build_s", "s"),
    ("kernels.soe_modes", "count"),
    ("solver.steps", "count"),
    ("solver.inner_iters", "count"),
    ("solver.inner_iters_max", "count"),
    ("solver.run_s", "s"),
    ("solver.driver_self_s", "s"),
    ("solver.step_ms_p50", "ms"),
    ("solver.step_ms_tail", "ms"),
    ("solver.step_ms_tail_pct", "%"),
    ("spatial.assemble_calls", "count"),
    ("spatial.assemble_s", "s"),
    ("spatial.jacobian_calls", "count"),
    ("spatial.jacobian_s", "s"),
    ("solver.assembly_s", "s"),
    ("solver.linsolve_s", "s"),
    ("solver.spsolve_calls", "count"),
    ("solver.spsolve_s", "s"),
    ("kernels.history_s", "s"),
    ("kernels.history_bytes", "B-computed"),
    ("kernels.history_gbps", "GB/s-computed"),
    ("diagnostics.norms_s", "s"),
    ("diagnostics.convexity_s", "s"),
    ("diagnostics.decay_s", "s"),
    ("diagnostics.weakform_s", "s"),
    ("diagnostics.boundedness_s", "s"),
    ("diagnostics.weakform_assemble_calls", "count"),
    ("diagnostics.weakform_assemble_s", "s"),
    ("diagnostics.convexity_min_margin", "1"),
    ("diagnostics.decay_min_margin", "1"),
    ("diagnostics.weakform_residual", "1"),
    ("mittag_leffler.evals", "count"),
    ("mittag_leffler.s", "s"),
    ("mittag_leffler.evals_series", "count"),
    ("mittag_leffler.evals_asymptotic", "count"),
    ("mittag_leffler.evals_integral", "count"),
    ("mittag_leffler.inaccurate", "count"),
    ("mittag_leffler.max_err_est", "1"),
    ("relaxation.subsolution_calls", "count"),
    ("relaxation.subsolution_s", "s"),
    ("relaxation.l1_solve_s", "s"),
    ("kernels.convexity_check_calls", "count"),
    ("kernels.convexity_check_s", "s"),
    ("reporting.write_s", "s"),
    ("reporting.bytes", "B"),
    ("reporting.files", "count"),
    ("trace.assembly_gap_frac", "ratio"),
    ("trace.linsolve_gap_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

_TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
_FOLD_BLOCK = 16  # CompressedHistory folds its buffer into the mode table every 16 pushes


def step_percentiles(step_ms: np.ndarray):
    """Median step time and the highest listed percentile with at least 10 steps beyond it."""
    pct = next((p for p in _TAIL_PERCENTILES if step_ms.size * (1.0 - p / 100.0) >= 10.0), 50.0)
    return float(np.median(step_ms)), float(np.percentile(step_ms, pct)), pct


def history_bytes(traj) -> float:
    """Bytes the memory layer reads and writes over a run, computed from array sizes.

    Counts the operands of each numpy call the memory timer covers and
    ignores caches, so it is a lower bound on traffic, not a measurement.
    """
    M = traj.spec.time_grid.steps
    N = traj.spec.grid.n_nodes
    n = np.arange(2, M + 1, dtype=float)
    push = 3.0 * N * M  # U[n] - U[n-1] into the history store
    if traj.options.history == "compressed":
        K = float(traj.timings["compression_modes"])
        fill = (n - 1) % _FOLD_BLOCK
        query = np.sum(fill * (N + 1) + 2.0 * N)
        folds = M // _FOLD_BLOCK
        fold = folds * (7.0 * K * N + 2.0 * _FOLD_BLOCK * (K + N))
        total = push + query + fold
    else:
        total = push + np.sum((n - 1) * (N + 1) + N)
        if not traj.spec.time_grid.is_uniform():
            total += np.sum(8.0 * n)  # weights.row(n) is rebuilt every step
    return 8.0 * total


def layer_metrics(rec: Recorder, scale: float) -> dict:
    """Per-layer figures of one traced `subdiff` call; 0 where a layer did not run.

    Times are multiplied by ``scale``, the call's reference-speed factor.
    """
    m = {name: 0.0 for name, _ in PER_LAYER}
    for key in ("config.parse", "presets.build", "kernels.compress_build", "spatial.assemble", "spatial.jacobian",
                "solver.spsolve", "diagnostics.norms", "diagnostics.convexity", "diagnostics.decay",
                "diagnostics.weakform", "diagnostics.boundedness", "diagnostics.weakform_assemble",
                "relaxation.subsolution", "relaxation.l1_solve", "kernels.convexity_check", "reporting.write"):
        m[f"{key}_s"] = rec.secs[key]
    for key in ("spatial.assemble", "spatial.jacobian", "solver.spsolve", "diagnostics.weakform_assemble",
                "relaxation.subsolution", "kernels.convexity_check"):
        m[f"{key}_calls"] = float(rec.calls[key])
    m["mittag_leffler.evals"] = float(rec.calls["mittag_leffler"])
    m["mittag_leffler.s"] = rec.secs["mittag_leffler"]
    for key in ("evals_series", "evals_asymptotic", "evals_integral", "inaccurate", "max_err_est"):
        m[f"mittag_leffler.{key}"] = rec.counts[f"mittag_leffler.{key}"]
    m["reporting.bytes"] = rec.counts["reporting.bytes"]
    m["reporting.files"] = float(rec.calls["reporting.write"])

    res = rec.results
    if "diagnostics.convexity" in res:
        m["diagnostics.convexity_min_margin"] = res["diagnostics.convexity"].min_margin
    if "diagnostics.decay" in res:
        m["diagnostics.decay_min_margin"] = float(res["diagnostics.decay"].margins.min())
    if "diagnostics.weakform" in res:
        m["diagnostics.weakform_residual"] = res["diagnostics.weakform"].max_scaled_residual
    if "kernels.compress_build" in res:
        m["kernels.soe_modes"] = float(res["kernels.compress_build"].n_modes)

    traj = res.get("solver.run")
    if traj is not None:
        _solver_metrics(m, rec, traj)
    for name, unit in PER_LAYER:
        if unit in ("s", "ms"):
            m[name] *= scale
    if m["kernels.history_s"] > 0.0:
        m["kernels.history_gbps"] = m["kernels.history_bytes"] / m["kernels.history_s"] / 1e9
    return m


def _solver_metrics(m: dict, rec: Recorder, traj) -> None:
    t = traj.timings
    m["solver.compression_build_s"] = t["compression_build"]
    m["solver.assembly_s"] = t["assembly"]
    m["solver.linsolve_s"] = t["linear_solve"]
    m["kernels.history_s"] = t["memory"]
    m["solver.steps"] = float(traj.spec.time_grid.steps)
    m["solver.inner_iters"] = float(traj.iterations.sum())
    m["solver.inner_iters_max"] = float(traj.iterations.max())
    m["solver.run_s"] = rec.secs["solver.run"]
    m["solver.driver_self_s"] = rec.secs["solver.run"] - (
        t["assembly"] + t["memory"] + t["linear_solve"] + t["compression_build"]
    )
    marks = np.array(rec.step_marks + [rec.solve_end])
    m["solver.step_ms_p50"], m["solver.step_ms_tail"], m["solver.step_ms_tail_pct"] = step_percentiles(
        1e3 * np.diff(marks)
    )
    m["kernels.history_bytes"] = history_bytes(traj)
    wrapped = rec.secs["spatial.assemble"] + rec.secs["spatial.jacobian"]
    m["trace.assembly_gap_frac"] = (t["assembly"] - wrapped) / max(t["assembly"], 1e-12)
    m["trace.linsolve_gap_s"] = t["linear_solve"] - rec.secs["solver.spsolve"]
