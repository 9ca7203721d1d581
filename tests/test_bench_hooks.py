"""The benchmark's tracing spans patch names inside the package; every one must resolve.

``bench/tracing.py`` wraps functions under the names their callers look them
up by.  A rename in the package would otherwise leave a span silently
unpatched and the benchmark reporting zeros for that layer.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from subdiff.cli import main


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
SPANS = tracing.ONCE_PER_RUN + tracing.PER_CALL


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _ in SPANS])
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(module)
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


# a nonlinear law, assembled per iterate, and a constant one, whose linear steps reuse one step matrix;
# the history-bytes figure of layer_metrics has one branch per history mode
@pytest.mark.parametrize(
    "problem, history",
    [("porous", "compressed"), ("eigenmode, alpha = 0.8", "compressed"), ("porous", "direct"),
     ("eigenmode, alpha = 0.8", "direct")],
    ids=["porous", "eigenmode, alpha = 0.8", "porous-direct", "eigenmode-direct"],
)
def test_run_calls_go_through_traced_names(tmp_path, problem, history):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"problem = {problem}\n[problem]\nresolution = 17\n[time]\nhorizon = 1.0\nsteps = 64\ngrading = 1\n"
        f"[solver]\nhistory = {history}\n[certificates]\nweakform = true\nweakform_threshold = 0.1\n"
    )
    rec = tracing.Recorder()
    with tracing.patched(rec, SPANS):
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    for key in ("config.parse", "presets.build", "solver.run", "spatial.assemble",
                "solver.spsolve", "diagnostics.convexity", "diagnostics.boundedness", "diagnostics.decay",
                "diagnostics.weakform", "diagnostics.weakform_assemble", "diagnostics.norms", "reporting.write"):
        assert rec.calls[key] >= 1, key
    assert rec.calls["kernels.compress_build"] == (history == "compressed")
    # one step mark per time step, taken inside run_trajectory
    assert len(rec.step_marks) == 64
    # the per-layer figures read report attributes and timing keys; a dropped one fails here
    metrics = tracing.layer_metrics(rec, 1.0)
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    assert metrics["kernels.history_bytes"] > 0.0


def test_props_calls_go_through_traced_names(capsys):
    # props' solve_s and certify_s are read off these spans; a verdict printer that bypassed them would read 0
    rec = tracing.Recorder()
    with tracing.patched(rec, SPANS):
        assert main(["props", "--count", "12"]) == 0
    capsys.readouterr()
    for key in ("props.convexity", "props.comparison", "props.mittag_leffler", "kernels.convexity_check",
                "relaxation.l1_solve"):
        assert rec.calls[key] >= 1, key
