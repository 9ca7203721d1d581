"""Artifact writers: norm tables, field snapshots, JSON run reports."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path

import numpy as np

from .solver import NormSeries
from .spatial import SpatialGrid

__all__ = [
    "RunReport",
    "jsonable",
    "write_report",
    "write_norms_tsv",
    "write_snapshot",
    "snapshot_path",
]

NORMS_HEADER = "t\tL2\tsup\tW\tV_envelope"
_NORMS_ROW = "%.17g\t%.17g\t%.17g\t%.17g\t%.17g\n"
_ROWS_PER_WRITE = 256


@dataclass(eq=False)
class RunReport:
    label: str
    passed: bool
    certificates: dict  # name -> passed, failed or skipped (with the reason); no estimate without a threshold
    observables: dict  # the estimates: name -> value or record
    solver: dict
    timings: dict
    config_text: str
    failure: dict | None = None


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and dataclasses for json; a non-finite float becomes None (null)."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    # bool before int: Python bool is an int subclass
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_report(path, report: RunReport) -> None:
    Path(path).write_text(json.dumps(jsonable(report), indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_norms_tsv(path, series: NormSeries, envelope=None) -> None:
    """Norm history as TSV with columns t, L2, sup, W, V_envelope.

    ``envelope`` is the decay-certificate envelope at the same nodes; when no
    decay certificate ran the column holds nan.
    """
    n = series.times.size
    env = np.full(n, np.nan) if envelope is None else np.asarray(envelope, dtype=float)
    if env.shape != (n,):
        raise ValueError("envelope must hold one value per time node")
    columns = [np.asarray(c, dtype=float) for c in (series.times, series.l2, series.sup, series.energy, env)]
    with open(path, "w") as fh:
        fh.write(NORMS_HEADER + "\n")
        # formatted from Python floats, _ROWS_PER_WRITE rows per write, so the rows in memory stay few
        for k in range(0, n, _ROWS_PER_WRITE):
            rows = zip(*(c[k : k + _ROWS_PER_WRITE].tolist() for c in columns))
            fh.write("".join(map(_NORMS_ROW.__mod__, rows)))


def snapshot_path(out_dir, index: int) -> Path:
    return Path(out_dir) / f"snapshot_{index:03d}.txt"


def write_snapshot(path, grid: SpatialGrid, t: float, values: np.ndarray) -> None:
    """Flat field values, one per line, under a header naming the grid shape."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size != grid.n_nodes:
        raise ValueError("values do not match the grid")
    shape = " ".join(str(s) for s in grid.shape)
    with open(path, "w") as fh:
        fh.write(f"# t={t:.17g} shape={shape}\n" + "".join(map("%.17g\n".__mod__, values.tolist())))
