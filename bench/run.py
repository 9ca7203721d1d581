"""subdiff benchmark: run one workload through `subdiff.cli.main`, check it, print its metrics.

    python3 bench/run.py --workload eigen1d-soe --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload is repeated in-process until ``--seconds`` have
passed (at least three times; twice when traced), and every metric is the
median over the repetitions.  Times are converted to a reference machine
speed (see ``speed.py``).  ``--trace 0`` wraps only the once-per-run calls
and reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics (see ``tracing.py``).
Every repetition is checked: exit status 0, every enabled certificate or
property PASS, and for ``eigen1d-soe`` the relative L2 error against the
exact solution under ``REL_ERR_BOUND``.  The last line of standard output
is one JSON object; the exit status is 0 only if every repetition passed.
Inputs, artifacts and a full result file go to
``.bench_out/<workload>/seed-<n>/``.
"""

import os

# Pinned before numpy loads; every import probe inherits the same setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe
from tracing import CERTIFICATES, ONCE_PER_RUN, PER_CALL, PER_LAYER, Recorder, layer_metrics, patched
from workloads import REL_ERR_BOUND, WORKLOADS, RunWorkload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_REPS = 3

END_TO_END = [
    ("total_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("certify_s", "s"),
    ("peak_rss_mb", "MB"),
]

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import subdiff.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def import_seconds(probe: SpeedProbe) -> float:
    """Time `import subdiff.cli` in a fresh interpreter, at reference speed.

    The child runs on the benchmark's own core so that the speed samples
    taken here while it runs describe the core it ran on.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        with probe.sampling():
            t0 = perf_counter()
            done = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
            )
            t1 = perf_counter()
    finally:
        os.sched_setaffinity(0, allowed)
    return float(done.stdout.strip().splitlines()[-1]) * probe.reference_seconds(t0, t1) / (t1 - t0)


def cache_bytes() -> dict:
    """Per-core L2 and shared L3 sizes from sysfs; None where not exposed."""
    sizes = {2: None, 3: None}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level in sizes and kind != "Instruction":
            scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
            sizes[level] = int(size.rstrip("KM")) * scale
    return sizes


def environment(inputs: dict) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        pass
    caches = cache_bytes()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2_bytes": caches[2],
        "l3_bytes": caches[3],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        **inputs,
    }


def working_set(traj) -> dict:
    """Field and history-store sizes of a run, set against the last-level cache."""
    n_nodes = traj.spec.grid.n_nodes
    steps = traj.spec.time_grid.steps
    if traj.options.history == "compressed":
        rows = int(traj.timings["compression_modes"]) + 32  # mode table plus the fold buffers
    else:
        rows = steps + 1
    llc = cache_bytes()[3]
    history = 8 * rows * n_nodes
    return {
        "field_bytes": 8 * n_nodes,
        "history_store_bytes": history,
        "trajectory_bytes": 8 * (steps + 1) * n_nodes,
        "llc_bytes": llc,
        "history_store_in_llc": None if llc is None else history <= llc,
    }


class Repetition:
    """One `subdiff` call: its verdict and figures.

    Everything is derived before the constructor returns, and the
    trajectory is not kept, so peak memory stays that of one call.
    """

    def __init__(self, workload, argv, traced: bool, probe: SpeedProbe):
        import subdiff.cli

        rec = Recorder()
        self.traced = traced
        self.problems = []
        stdout = io.StringIO()
        t0 = perf_counter()
        try:
            spans = ONCE_PER_RUN + (PER_CALL if traced else [])
            with patched(rec, spans), contextlib.redirect_stdout(stdout), probe.sampling():
                code = subdiff.cli.main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = "an exception"
        t1 = perf_counter()

        if code != 0:
            self.problems.append(f"exit status {code}")
        if isinstance(workload, RunWorkload):
            wanted = [f"certificate {c}: PASS" for c in workload.certificates()]
        else:
            wanted = [f"property {p}: PASS" for p in ("convexity", "comparison", "mittag_leffler")]
        self.problems += [f"missing '{w}'" for w in wanted if w not in stdout.getvalue()]

        traj = rec.results.get("solver.run")
        self.rel_err = None if traj is None or traj.spec.label != "eigenmode" else self._rel_err(traj)
        if self.rel_err is not None and not self.rel_err <= REL_ERR_BOUND:
            self.problems.append(f"rel_err {self.rel_err:.3e} above {REL_ERR_BOUND:g}")
        self.sha256 = None if traj is None else hashlib.sha256(traj.fields[-1].tobytes()).hexdigest()
        self.working_set = None if traj is None else working_set(traj)
        self.figures = self._end_to_end(rec, probe, t0, t1)
        self.layers = layer_metrics(rec, self.figures["scale"]) if traced else None

    @staticmethod
    def _rel_err(traj) -> float:
        from subdiff.diagnostics import l2_norm
        from subdiff.presets import eigenmode_exact

        exact = eigenmode_exact(traj.spec)(float(traj.times[-1]))
        return l2_norm(traj.spec.grid, traj.fields[-1] - exact) / l2_norm(traj.spec.grid, exact)

    @staticmethod
    def _end_to_end(rec, probe, t0, t1) -> dict:
        """End-to-end figures at reference speed, plus the raw wall time."""

        def span(key):
            return sum(probe.reference_seconds(a, b) for a, b in rec.intervals[key])

        if rec.calls["solver.run"]:
            solve = span("solver.run") - span("kernels.compress_build")
            certify = sum(span(c) for c in CERTIFICATES)
        else:  # props: relaxation marching is its solve, the other two families its checks
            solve = span("props.comparison")
            certify = span("props.convexity") + span("props.mittag_leffler")
        total = probe.reference_seconds(t0, t1)
        return {
            "total_s": total,
            "setup_in_process_s": span("config.parse") + span("presets.build") + span("kernels.compress_build"),
            "solve_s": solve,
            "certify_s": certify,
            "raw_total_s": t1 - t0,
            "scale": total / (t1 - t0),
        }


def median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "subdiff" / "__init__.py").is_file():
        print(f"no subdiff sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import subdiff

    if Path(subdiff.__file__).resolve().parent != SRC / "subdiff":
        print(f"imported subdiff from {subdiff.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    wl = WORKLOADS[args.workload]
    out = Path(".bench_out") / wl.name / f"seed-{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(wl, RunWorkload):
        cfg = out / "config.cfg"
        cfg.write_text(wl.config_text(args.seed, str(out / "artifacts")))
        call = ["run", str(cfg)]
        inputs = {"alpha": wl.alpha_for(args.seed), "replay": f"subdiff run {cfg}"}
    else:
        call = wl.argv(args.seed, str(out / "artifacts"))
        inputs = {"replay": "subdiff " + " ".join(call)}
        (out / "command.txt").write_text(inputs["replay"] + "\n")

    probe = SpeedProbe()
    import_seconds(probe)  # the first import of a fresh checkout also compiles bytecode
    imports, reps = [], []
    start = perf_counter()
    while True:
        if not args.trace:
            imports.append(import_seconds(probe))
        gc.collect()  # every repetition starts from the same heap state
        t0 = perf_counter()
        reps.append(Repetition(wl, call, bool(args.trace) and len(reps) % 2 == 1, probe))
        rep_s = perf_counter() - t0
        enough = len(reps) >= (2 if args.trace else MIN_REPS)
        if enough and perf_counter() + rep_s > start + args.seconds:
            break

    failed = [r for r in reps if r.problems]
    for r in failed:
        print(f"repetition failed: {'; '.join(r.problems)}", file=sys.stderr)
    untraced = [r.figures for r in reps if not r.traced]
    hashes = sorted({r.sha256 for r in reps if r.sha256})
    rel_errs = [r.rel_err for r in reps if r.rel_err is not None]

    if args.trace:
        values = {name: median_of([r.layers for r in reps if r.traced], name) for name, _ in PER_LAYER}
        solve_untraced = median_of(untraced, "solve_s")
        solve_traced = median_of([r.figures for r in reps if r.traced], "solve_s")
        values["trace.overhead_frac"] = (solve_traced - solve_untraced) / solve_untraced
        units = dict(PER_LAYER)
    else:
        values = {
            "total_s": median_of(untraced, "total_s"),
            "setup_s": statistics.median(imports) + median_of(untraced, "setup_in_process_s"),
            "solve_s": median_of(untraced, "solve_s"),
            "certify_s": median_of(untraced, "certify_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(inputs),
        "working_set": next((r.working_set for r in reps if r.working_set), None),
        "repetitions": len(reps),
        "failed_frac": len(failed) / len(reps),
        "rel_err": statistics.median(rel_errs) if rel_errs else None,
        "final_field_sha256": hashes,
        "import_s": imports,
        "untraced": untraced,
        "metrics": metrics,
    }
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"{wl.name} seed={args.seed} trace={args.trace}: {len(reps)} repetitions, "
          f"failed_frac={record['failed_frac']:g}" + (f", rel_err={record['rel_err']:.4e}" if rel_errs else ""))
    for k, v in metrics.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    print(f"  final field sha256: {', '.join(hashes) or '-'}")
    print("  environment: " + json.dumps(record["environment"]))
    print(f"  inputs and results: {out}")
    print(json.dumps({"correct": not failed, "attempted": len(reps), "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
