"""End-to-end acceptance gate.

Each test verifies one advertised guarantee of the package at its stated
tolerance and prints a single verdict line so the suite output doubles as a
checklist.  Tolerances are fixed here on purpose; loosening one is a contract
change, not a test fix.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from scipy.special import erfcx

from subdiff.cli import _props_comparison, _props_convexity
from subdiff.diagnostics import (
    boundedness_report,
    convexity_report,
    decay_report,
    l2_norm,
    weakform_residual,
)
from subdiff.mittag_leffler import ml_tail_bound, ml_values
from subdiff.presets import build_preset, eigenmode_exact
from subdiff.solver import SolverOptions, run_trajectory
from subdiff.spatial import assemble_quasilinear_operator, constant_law


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def eigenmode_run():
    """Default eigenmode preset solved once, with the solve wall time."""
    spec = build_preset("eigenmode")
    t0 = time.perf_counter()
    traj = run_trajectory(spec)
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def porous_runs():
    """Quasilinear decay preset at the three reference orders."""
    return {alpha: run_trajectory(build_preset("porous", alpha=alpha)) for alpha in (0.3, 0.5, 0.8)}


@pytest.fixture(scope="module")
def horizon_run():
    """Quasilinear preset pushed to a deliberately long horizon."""
    return run_trajectory(build_preset("porous", horizon=100.0))


@pytest.fixture(scope="module")
def classical_run():
    """Near-classical order on a uniform grid, for the heat-equation limit."""
    spec = build_preset(
        "eigenmode", alpha=1.0 - 1e-3, resolution=65, steps=256, horizon=1.0, grading=1.0
    )
    return run_trajectory(spec)


@pytest.fixture(scope="module")
def compression_runs():
    """One long uniform run under both history modes, individually timed."""
    spec = build_preset("eigenmode", resolution=257, steps=16384, horizon=1.0, grading=1.0)
    direct = run_trajectory(spec, SolverOptions(history="direct"))
    compressed = run_trajectory(spec, SolverOptions(history="compressed", eps_compress=1e-8))
    return direct, compressed


def test_eigenmode_oracle(eigenmode_run):
    """Constant-law eigenmode tracks the known relaxation profile at every node."""
    traj, runtime = eigenmode_run
    spec = traj.spec
    exact = eigenmode_exact(spec)
    rels = []
    for n, t in enumerate(spec.time_grid.nodes):
        ref = exact(t)
        rels.append(l2_norm(spec.grid, traj.fields[n] - ref) / l2_norm(spec.grid, ref))
    worst = max(rels)
    ok = worst <= 0.02 and runtime < 10.0
    _verdict("eigenmode_oracle", ok, f"max rel L2 err {worst:.3e}, solve {runtime:.2f}s")


def test_decay_envelope(porous_runs):
    """Energy stays under 1.05x the relaxation envelope and decays at rate alpha."""
    details = []
    ok = True
    for alpha, traj in porous_runs.items():
        cert = decay_report(traj, slack=1.05)
        offset = abs(cert.tail_exponent + alpha)
        ok = ok and cert.passed and offset <= 0.1
        details.append(
            f"alpha {alpha}: min margin {np.min(cert.margins):.2e}, tail offset {offset:.3f}"
        )
    _verdict("decay_envelope", ok, "; ".join(details))


def test_convexity_sweep():
    """Weak discrete convexity holds for random histories on both grid kinds."""
    # 1000 histories for each of the six (alpha, grid) pairs: uniform and graded, T = 2
    result = _props_convexity(np.random.default_rng(1137), 1000)
    total = result["histories"]
    violations = result["violations"]
    worst = result["worst_allowed_margin"]
    ok = violations == 0 and total >= 6000
    _verdict(
        "convexity_sweep",
        ok,
        f"{total} histories, {violations} violations, worst allowed margin {worst:.2e}",
    )


def test_sup_norm_bound(eigenmode_run, porous_runs, horizon_run, classical_run, compression_runs):
    """Every unforced acceptance run respects the initial sup-norm bound."""
    runs = [eigenmode_run[0], horizon_run, classical_run, *porous_runs.values(), *compression_runs]
    worst_excess = -np.inf
    ok = True
    for traj in runs:
        rep = boundedness_report(traj, tol=1e-12)
        worst_excess = max(worst_excess, rep.max_sup - rep.bound)
        ok = ok and rep.passed
    _verdict("sup_norm_bound", ok, f"{len(runs)} runs, worst excess {worst_excess:.2e}")


def test_comparison_sweep():
    """Random discrete sub-solutions stay below the relaxation solution."""
    # 167 sub-solutions for each of the six (alpha, grid) pairs: uniform and graded, T = 3,
    # each allowed a roundoff gap of 64 (M + 4) eps max(|V|, |W|)
    result = _props_comparison(np.random.default_rng(2026), 167)
    total = result["subsolutions"]
    violations = result["violations"]
    worst = result["worst_gap"]
    ok = violations == 0 and total >= 1000
    _verdict(
        "comparison_sweep",
        ok,
        f"{total} sub-solutions, {violations} violations, worst allowed gap {worst:.2e}",
    )


def test_mittag_leffler_accuracy():
    """Half-order values match erfcx, order one matches exp, tails stay monotone."""
    xs = np.linspace(0.0, 30.0, 1000)
    err_half = float(np.max(np.abs(ml_values(0.5, -xs) - erfcx(xs))))
    ys = np.linspace(-50.0, 0.0, 1000)
    err_exp = float(np.max(np.abs(ml_values(1.0, ys) - np.exp(ys))))
    tail_grid = np.concatenate(([0.0], np.geomspace(1e-6, 1e4, 800)))
    monotone = True
    for alpha in (0.3, 0.5, 0.8):
        rep = ml_tail_bound(alpha, tail_grid)
        monotone = monotone and rep.decreasing and rep.convex
    ok = err_half <= 1e-10 and err_exp <= 1e-12 and monotone
    _verdict(
        "mittag_leffler_accuracy",
        ok,
        f"erfcx dev {err_half:.2e}, exp dev {err_exp:.2e}, monotone {monotone}",
    )


def test_tail_constant():
    """The weighted tail (1+x) E_{1/2}(-x) stays below 1.2 on the sample."""
    tail_grid = np.concatenate(([0.0], np.geomspace(1e-6, 1e4, 800)))
    rep = ml_tail_bound(0.5, tail_grid)
    ok = np.isfinite(rep.sup_weighted) and rep.sup_weighted <= 1.2
    _verdict("tail_constant", ok, f"sup (1+x)E(-x) = {rep.sup_weighted:.6f} at x={rep.argmax:g}")


def test_classical_limit(classical_run):
    """Order close to one reproduces a backward-Euler heat trajectory."""
    traj = classical_run
    spec = traj.spec
    grid = spec.grid
    interior = ~grid.boundary_mask
    tau = spec.time_grid.nodes[1] - spec.time_grid.nodes[0]
    A = assemble_quasilinear_operator(grid, constant_law(1.0), spec.u0)
    mass = sp.diags(np.where(interior, 1.0 / tau, 0.0))
    B = (sp.csr_matrix((A @ np.eye(grid.n_nodes)).T) + mass).tocsc()
    u = spec.u0.copy()
    worst = 0.0
    for n in range(1, spec.time_grid.nodes.size):
        rhs = np.where(interior, u / tau, 0.0)
        u = spsolve(B, rhs)
        u[~interior] = 0.0
        rel = l2_norm(grid, traj.fields[n] - u) / l2_norm(grid, u)
        worst = max(worst, rel)
    ok = worst <= 0.01
    _verdict("classical_limit", ok, f"max rel L2 deviation {worst:.3e}")


def test_long_horizon_certificates(horizon_run):
    """The quasilinear preset reaches T=100 with every certificate green."""
    traj = horizon_run
    bnd = boundedness_report(traj)
    dec = decay_report(traj)
    cvx = convexity_report(traj)
    wf = weakform_residual(traj)
    ok = bnd.passed and dec.passed and cvx.passed and wf.passed
    _verdict(
        "long_horizon",
        ok,
        f"T={traj.spec.time_grid.horizon:g}, bounded {bnd.passed}, decay {dec.passed}, "
        f"convexity {cvx.passed}, weakform {wf.passed}",
    )


def test_history_compression(compression_runs):
    """Compressed memory matches the direct sum and is at least 10x faster."""
    direct, compressed = compression_runs
    scale = float(np.max(np.abs(direct.fields)))
    dev = float(np.max(np.abs(direct.fields - compressed.fields))) / scale
    for traj in (direct, compressed):
        assert {"memory", "total"} <= set(traj.timings)
    ratio = direct.timings["memory"] / compressed.timings["memory"]
    ok = dev <= 1e-7 and ratio >= 10.0
    _verdict(
        "history_compression",
        ok,
        f"sup-rel deviation {dev:.2e}, memory path {direct.timings['memory']:.2f}s direct "
        f"vs {compressed.timings['memory']:.2f}s compressed ({ratio:.1f}x)",
    )


def test_convergence_orders():
    """Second order in space on the eigenmode, at least first order in time."""
    errs = []
    widths = []
    for res in (17, 33, 65):
        spec = build_preset("eigenmode", resolution=res, steps=1024)
        traj = run_trajectory(spec)
        ref = eigenmode_exact(spec)(spec.time_grid.horizon)
        errs.append(l2_norm(spec.grid, traj.fields[-1] - ref) / l2_norm(spec.grid, ref))
        widths.append(spec.grid.spacing[0])
    space_order = float(np.polyfit(np.log(widths), np.log(errs), 1)[0])

    ref_spec = build_preset("eigenmode", resolution=33, steps=1024)
    ref_final = run_trajectory(ref_spec).fields[-1]
    terrs = []
    for steps in (64, 128, 256):
        spec = build_preset("eigenmode", resolution=33, steps=steps)
        traj = run_trajectory(spec)
        terrs.append(
            l2_norm(spec.grid, traj.fields[-1] - ref_final) / l2_norm(spec.grid, ref_final)
        )
    torders = np.log2(np.array(terrs[:-1]) / np.array(terrs[1:]))
    ok = 1.7 <= space_order <= 2.3 and bool(np.all(torders >= 1.0))
    _verdict(
        "convergence_orders",
        ok,
        f"space order {space_order:.2f}, time orders " + ", ".join(f"{o:.2f}" for o in torders),
    )
