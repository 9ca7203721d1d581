"""Run configuration: a small line-based ``key=value`` format.

Documents look like::

    # comments run to end of line
    problem=porous, alpha=0.7

    [time]
    horizon=50, steps=512

    [output]
    snapshot_times=[0.1, 1, 10]

Assignments may share a line when separated by commas (commas inside
bracketed lists do not split).  Keys live in the section opened by the last
``[section]`` header; before any header, bare ``problem`` and ``alpha`` are
accepted as shorthand for ``problem.preset`` and ``problem.alpha``, and any
dotted path works anywhere.  Unknown sections or keys are rejected with the
offending path named, and parsing reports every violation at once rather
than stopping at the first.  Every number must be finite, and
``eps_compress`` is a relative tolerance in [1e-13, 1): no compression
reaches less.  Settings that are valid one by one but cannot run together
are rejected too: compressed history on a one-step time grid, Newton mode
on a 2D problem (2D runs are Picard only), problem and
time settings that give no grids (extents that do not fit the dimension, a
box whose spacing squared over- or underflows, a box so small that the step
matrix's largest diagonal or the decay rate comes within 2^10 of the float
maximum, a grading whose first steps underflow to zero), also on the finest
level of a study, and a snapshot time past the horizon.  An ``output.dir``
must read back unchanged from :func:`render_config`'s text, so a path with
``#``, ``,``, a line break or surrounding spaces is rejected.  Command-line overrides go through the same
schema and checks.  The ``[solver]`` section is a
:class:`~subdiff.solver.SolverOptions` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .kernels import MAX_LADDER_RUNGS, ladder_rungs
from .presets import preset_grids
from .solver import SolverOptions

__all__ = [
    "ConfigError",
    "ProblemConfig",
    "TimeConfig",
    "CertificatesConfig",
    "StudyConfig",
    "OutputConfig",
    "RunConfig",
    "parse_config",
    "check_config",
    "study_levels",
    "render_config",
]


class ConfigError(ValueError):
    """Carries every problem found in a document, one per line."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


@dataclass
class ProblemConfig:
    preset: str = "eigenmode"
    alpha: Optional[float] = None
    dimension: Optional[int] = None
    resolution: Optional[int] = None
    extents: Optional[tuple] = None


@dataclass
class TimeConfig:
    horizon: Optional[float] = None
    steps: Optional[int] = None
    grading: Optional[float] = None  # 1 forces a uniform grid; None = alpha default


@dataclass
class CertificatesConfig:
    decay: bool = True
    boundedness: bool = True
    convexity: bool = True
    weakform: bool = False
    slack: float = 1.05
    weakform_threshold: float = 1e-2


@dataclass
class StudyConfig:
    axis: str = "space"
    levels: int = 3


@dataclass
class OutputConfig:
    dir: str = "out"
    seed: int = 0
    snapshot_times: tuple = ()
    hoelder: bool = False  # report the Hoelder estimate among the observables


@dataclass
class RunConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    solver: SolverOptions = field(default_factory=SolverOptions)
    certificates: CertificatesConfig = field(default_factory=CertificatesConfig)
    study: StudyConfig = field(default_factory=StudyConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_SECTIONS = {
    "problem": ProblemConfig,
    "time": TimeConfig,
    "solver": SolverOptions,
    "certificates": CertificatesConfig,
    "study": StudyConfig,
    "output": OutputConfig,
}


def _reads_back(text: str) -> bool:
    """True when ``key=text`` parses back to ``text``: parsing cuts comments, splits lines and commas, and strips."""
    return "#" not in text and "," not in text and len(text.splitlines()) <= 1 and text == text.strip()


# smallest solver.eps_compress accepted: compress_history fits the kernel to eps / 100, at worst
# 7.7e-16 at eps = 1e-13 (alpha 0.05 to 0.95; 64, 256, 2048 uniform and 1024 graded steps), while
# at eps = 1e-14 the rounding of the sums themselves stops it near 2.4e-15
_EPS_COMPRESS_FLOOR = 1e-13

# key -> (kind, checker, requirement text); kinds: str, int, float, bool, floats
_SCHEMA = {
    "problem.preset": ("str", lambda v: v in ("eigenmode", "porous", "zero"), "one of eigenmode, porous, zero"),
    "problem.alpha": ("float", lambda v: 0.0 < v < 1.0, "in the open interval (0, 1)"),
    "problem.dimension": ("int", lambda v: v in (1, 2), "1 or 2"),
    "problem.resolution": ("int", lambda v: v >= 4, ">= 4"),
    "problem.extents": ("floats", lambda v: len(v) in (2, 4), "2 or 4 numbers"),
    "time.horizon": ("float", lambda v: v > 0.0, "> 0"),
    "time.steps": ("int", lambda v: v >= 1, ">= 1"),
    "time.grading": ("float", lambda v: v >= 1.0, ">= 1"),
    "solver.mode": ("str", lambda v: v in ("picard", "newton"), "picard or newton"),
    "solver.tol": ("float", lambda v: v > 0.0, "> 0"),
    "solver.max_iter": ("int", lambda v: v >= 1, ">= 1"),
    "solver.history": ("str", lambda v: v in ("direct", "compressed"), "direct or compressed"),
    "solver.eps_compress": ("float", lambda v: _EPS_COMPRESS_FLOOR <= v < 1.0, "in [1e-13, 1), what compression can reach"),
    "certificates.decay": ("bool", None, ""),
    "certificates.boundedness": ("bool", None, ""),
    "certificates.convexity": ("bool", None, ""),
    "certificates.weakform": ("bool", None, ""),
    "certificates.slack": ("float", lambda v: v >= 1.0, ">= 1"),
    "certificates.weakform_threshold": ("float", lambda v: v > 0.0, "> 0"),
    "study.axis": ("str", lambda v: v in ("space", "time"), "space or time"),
    "study.levels": ("int", lambda v: v >= 2, ">= 2"),
    "output.dir": ("str", _reads_back, "a path without '#', ',', line breaks or surrounding spaces"),
    "output.seed": ("int", lambda v: v >= 0, ">= 0"),
    "output.snapshot_times": ("floats", lambda v: all(t >= 0.0 for t in v), "nonnegative times"),
    "output.hoelder": ("bool", None, ""),
}

_TOPLEVEL_ALIASES = {"problem": "problem.preset", "alpha": "problem.alpha"}


def _split_assignments(line: str):
    """Split on commas that are not inside a bracketed list."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(line):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth = max(0, depth - 1)
        elif ch == "," and depth == 0:
            parts.append(line[start:i])
            start = i + 1
    parts.append(line[start:])
    return [p.strip() for p in parts if p.strip()]


def _parse_value(path: str, raw: str):
    """``raw`` read and range-checked as the value of ``path``; a ``ValueError`` names what is wrong."""
    kind, check, req = _SCHEMA[path]
    try:
        if kind == "str":
            val = raw
        elif kind == "bool":
            low = raw.lower()
            if low not in ("true", "false"):
                raise ValueError
            val = low == "true"
        elif kind == "int":
            val = int(raw)
        elif kind == "float":
            val = float(raw)
        elif kind == "floats":
            inner = raw.strip()
            if not (inner.startswith("[") and inner.endswith("]")):
                raise ValueError
            body = inner[1:-1].strip()
            val = tuple(float(x) for x in body.split(",")) if body else ()
        else:  # pragma: no cover - schema kinds are fixed above
            raise AssertionError(kind)
    except ValueError:
        raise ValueError(f"{path} expects {kind}, got {raw!r}") from None
    numbers = {"float": (val,), "floats": val}.get(kind, ())
    if not all(map(math.isfinite, numbers)):
        raise ValueError(f"{path}={raw} is not finite")
    if check is not None and not check(val):
        raise ValueError(f"{path}={raw} is out of range (must be {req})")
    return val


def parse_config(text: str, overrides: Optional[dict] = None) -> RunConfig:
    """Read ``text``, then ``overrides``, ``{flag: (path, raw text)}`` from the command line.

    An override replaces the file's value and is read against the same
    schema entry; its problems name the flag.
    """
    errors: list[str] = []
    assigned: dict[str, object] = {}
    section: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                errors.append(f"line {lineno}: unterminated section header {line!r}")
                continue
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                errors.append(f"line {lineno}: unknown section [{name}]")
                section = None
            else:
                section = name
            continue
        for frag in _split_assignments(line):
            if "=" not in frag:
                errors.append(f"line {lineno}: expected key=value, got {frag!r}")
                continue
            key, rawval = (s.strip() for s in frag.split("=", 1))
            if "." in key:
                path = key
            elif section is not None:
                path = f"{section}.{key}"
            elif key in _TOPLEVEL_ALIASES:
                path = _TOPLEVEL_ALIASES[key]
            else:
                errors.append(f"line {lineno}: unknown key {key!r} outside any section")
                continue
            if path not in _SCHEMA:
                errors.append(f"line {lineno}: unknown key {path}")
                continue
            if path in assigned:
                errors.append(f"line {lineno}: duplicate assignment of {path}")
                continue
            try:
                assigned[path] = _parse_value(path, rawval)
            except ValueError as exc:
                errors.append(f"line {lineno}: {exc}")
    for flag, (path, raw) in (overrides or {}).items():
        try:
            assigned[path] = _parse_value(path, raw)
        except ValueError as exc:
            errors.append(f"{flag}: {exc}")
    if errors:
        raise ConfigError(errors)
    values = {sect: {} for sect in _SECTIONS}
    for path, val in assigned.items():
        sect, key = path.split(".", 1)
        values[sect][key] = val
    cfg = RunConfig(**{sect: cls(**values[sect]) for sect, cls in _SECTIONS.items()})
    check_config(cfg)
    return cfg


def check_config(cfg: RunConfig) -> None:
    """Reject settings that are valid one by one but cannot run together.

    The problem and time settings must build the run's grids
    (:func:`~subdiff.presets.preset_grids`) and those of a study's finest
    level (:func:`study_levels`), and compressed history needs an alpha whose
    ladder fits (:func:`~subdiff.kernels.ladder_rungs`); a problem names the
    settings by their dotted paths.
    """
    problems = []
    if cfg.solver.history == "compressed" and cfg.time.steps == 1:
        problems.append("solver.history=compressed needs time.steps >= 2 (one step has no history)")
    if cfg.solver.mode == "newton" and cfg.problem.dimension == 2:
        problems.append("solver.mode=newton solves 1D problems only, not problem.dimension=2; 2D runs use picard")

    def grids(run, where=""):
        try:
            return preset_grids(**vars(run.problem), **vars(run.time))
        except ValueError as exc:
            given = (f"{sect}.{key}={text}" for sect in ("problem", "time") for key, text in _settings(cfg, sect))
            problems.append(f"{where}{', '.join(given)} give no grids: {exc}")

    built = grids(cfg)
    if built is not None:
        late = [s for s in cfg.output.snapshot_times if s > built[1].horizon]
        if late:
            problems.append(f"output.snapshot_times has {late} past the time horizon {built[1].horizon!r}")
        # alpha None is the presets' 0.5, whose ladder holds a few hundred rates
        alpha, eps = cfg.problem.alpha, cfg.solver.eps_compress
        if cfg.solver.history == "compressed" and alpha is not None and built[1].steps >= 2:
            rungs = ladder_rungs(alpha, eps, built[1])
            if rungs > MAX_LADDER_RUNGS:
                problems.append(
                    f"problem.alpha={alpha!r} is too small for solver.history=compressed at "
                    f"solver.eps_compress={eps!r}: its ladder would hold {rungs:.3g} rates, above "
                    f"{MAX_LADDER_RUNGS}; use solver.history=direct"
                )
        levels, reference = study_levels(cfg)
        finest, size = reference or levels[-1]
        key = "time.steps" if cfg.study.axis == "time" else "problem.resolution"
        grids(finest, f"study.axis={cfg.study.axis}, study.levels={cfg.study.levels} refine to {key}={size}, where ")
    if problems:
        raise ConfigError(problems)


def study_levels(cfg: RunConfig):
    """The runs of ``cfg``'s study as ``(levels, reference)``, each run a ``(config, size)`` pair.

    Level ``l`` is ``cfg`` refined ``l`` times along ``study.axis``: to
    ``(base - 1) 2^l + 1`` nodes per axis on a space study, to ``base 2^l``
    steps on a time study, with ``base`` the size of ``cfg``'s own grids,
    preset defaults included.  ``levels`` holds levels 0 to
    ``study.levels - 1``.  ``reference`` is the next level, which the study
    runs as its reference, or None for the eigenmode preset, whose exact
    solution is the reference.  Raises ``ValueError`` when ``cfg``'s own
    grids cannot be built.
    """
    grid, time_grid = preset_grids(**vars(cfg.problem), **vars(cfg.time))
    levels, runs = cfg.study.levels, []
    for l in range(levels + (cfg.problem.preset != "eigenmode")):
        if cfg.study.axis == "space":
            size = (grid.shape[0] - 1) * 2**l + 1
            runs.append((replace(cfg, problem=replace(cfg.problem, resolution=size)), size))
        else:
            size = time_grid.steps * 2**l
            runs.append((replace(cfg, time=replace(cfg.time, steps=size)), size))
    return runs[:levels], runs[levels] if len(runs) > levels else None


def _format_value(kind: str, val) -> str:
    if kind == "bool":
        return "true" if val else "false"
    if kind == "floats":
        return "[" + ", ".join(repr(float(x)) for x in val) + "]"
    if kind == "float":
        return repr(float(val))
    return str(val)


def _settings(cfg: RunConfig, sect: str) -> list:
    """``(key, text)`` of each field of section ``sect`` that is not None, the text as :func:`render_config` writes it."""
    obj = getattr(cfg, sect)
    values = [(f.name, getattr(obj, f.name)) for f in fields(obj)]
    return [(key, _format_value(_SCHEMA[f"{sect}.{key}"][0], v)) for key, v in values if v is not None]


def render_config(cfg: RunConfig) -> str:
    """Canonical text for ``cfg``; ``parse_config`` round-trips it exactly.

    Fields still at None (meaning "preset default") are omitted.
    """
    lines = []
    for sect in _SECTIONS:
        block = [f"{key}={text}" for key, text in _settings(cfg, sect)]
        if block:
            lines.append(f"[{sect}]")
            lines.extend(block)
            lines.append("")
    return "\n".join(lines)
