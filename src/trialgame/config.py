"""JSON run configuration: schema, validation, and grid materialisation.

A configuration file drives the CLI.  Top-level keys:

    instance     required; economics of the approval problem
    prior        truncated normal belief distribution (sweeps only)
    weights      loss weights, default both 1
    quadrature   Simpson panels over the effective side, default 2000
    grids        alpha / R / c0 grids, either explicit values or
                 {start, stop, points, spacing} with linear or log spacing
    output       default CSV destination
    description  free-form note, ignored by the solvers

Each section and grid is one table row, and the allowed keys come from the
tables.  Config checks the JSON shape (no unknown keys anywhere), that each
value is a finite number, and the grids; the records own the integer and
range rules.  Validation is collected: a failed load reports every offending
field by path.  Presets are the JSON files in ``presets`` beside this module.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

from .agent import EconomicInstance, _is_int
from .errors import ConfigError, DomainError
from .loss import LossWeights, QuadratureSpec
from .stats import TruncatedNormalPrior, finite

# Each section: key (also its RunConfig field), record, value when absent
# (MISSING: the section is required), whether every field is required.
_SECTIONS = (
    ("instance", EconomicInstance, dataclasses.MISSING, False),
    ("prior", TruncatedNormalPrior, None, False),
    ("weights", LossWeights, LossWeights(), True),
    ("quadrature", QuadratureSpec, QuadratureSpec(), False),
)
# Each grid: key under ``grids``, RunConfig field, values within (0, 1).
_GRIDS = (("alpha", "alpha_grid", True), ("R", "r_grid", False), ("c0", "c0_grid", False))
_GRID_SPEC_KEYS = ("start", "stop", "points", "spacing")  # the alternative to "values"
_PRESETS = Path(__file__).with_name("presets")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated, materialised contents of one configuration file."""

    instance: EconomicInstance
    prior: TruncatedNormalPrior | None
    weights: LossWeights
    quadrature: QuadratureSpec
    alpha_grid: tuple[float, ...] | None
    r_grid: tuple[float, ...] | None
    c0_grid: tuple[float, ...] | None
    output: str | None
    description: str = ""


def default_alpha_grid() -> tuple[float, ...]:
    """400 log-spaced levels from 1e-4 to 0.9, swept when a configuration names none."""
    return _log_spaced(1e-4, 0.9, 400)


def _lin_spaced(start: float, stop: float, points: int) -> tuple[float, ...]:
    return tuple(start + i * (stop - start) / (points - 1) for i in range(points))


def _log_spaced(start: float, stop: float, points: int) -> tuple[float, ...]:
    return tuple(10.0**x for x in _lin_spaced(math.log10(start), math.log10(stop), points))


_SPACINGS = {"linear": _lin_spaced, "log": _log_spaced}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and finite(x)


def _check_unknown(obj: dict, allowed: set[str], path: str, problems: list[str]) -> None:
    for key in sorted(set(obj) - allowed):
        problems.append(f"{path}{key}: unknown key")


def _parse_section(obj, section: str, record, problems: list[str], *, require_all: bool = False):
    """Build ``record`` from one config section, or report why it cannot be built.

    Checks here are JSON-side only: an object, known keys, the required keys
    (fields without a default, or all with ``require_all``), and a finite
    number (no bool) per value, passed on as JSON gave it.  The record owns
    the integer and range rules, each problem reported under ``section.``.
    """
    if not isinstance(obj, dict):
        problems.append(f"{section}: expected an object")
        return None
    fields = dataclasses.fields(record)
    _check_unknown(obj, {f.name for f in fields}, f"{section}.", problems)
    kwargs = {}
    seen = len(problems)
    for f in fields:
        path, value = f"{section}.{f.name}", obj.get(f.name)
        if f.name not in obj:
            if require_all or f.default is dataclasses.MISSING:
                problems.append(f"{path}: required")
        elif _is_number(value):
            kwargs[f.name] = value
        else:
            problems.append(f"{path}: expected a finite number, got {value!r}")
    if len(problems) > seen:
        return None
    try:
        return record(**kwargs)
    except DomainError as exc:
        problems.extend(f"{section}.{p}" for p in exc.problems)
        return None


def _parse_grid(obj, path: str, problems: list[str], *, unit: bool) -> tuple[float, ...] | None:
    if not isinstance(obj, dict):
        problems.append(f"{path}: expected an object")
        return None
    _check_unknown(obj, {"values", *_GRID_SPEC_KEYS}, f"{path}.", problems)
    if "values" in obj:
        for key in _GRID_SPEC_KEYS:
            if key in obj:
                problems.append(f"{path}.{key}: cannot be combined with explicit values")
        values = obj["values"]
        if not isinstance(values, list) or not values or not all(_is_number(v) for v in values):
            problems.append(f"{path}.values: expected a nonempty list of finite numbers")
            return None
        grid = tuple(float(v) for v in values)
    else:
        for key in ("start", "stop", "points"):
            if key not in obj:
                problems.append(f"{path}.{key}: required (or give explicit values)")
                return None
        start, stop, points = obj["start"], obj["stop"], obj["points"]
        spacing = obj.get("spacing", "linear")
        if not (_is_number(start) and _is_number(stop) and start < stop):
            problems.append(f"{path}: need numeric start < stop, got {start!r} and {stop!r}")
            return None
        if not _is_int(points) or points < 2:
            problems.append(f"{path}.points: expected an integer >= 2, got {points!r}")
            return None
        if spacing not in _SPACINGS:
            problems.append(f"{path}.spacing: expected 'linear' or 'log', got {spacing!r}")
            return None
        if spacing == "log" and not start > 0.0:
            problems.append(f"{path}.start: log spacing requires a positive start, got {start!r}")
            return None
        grid = _SPACINGS[spacing](float(start), float(stop), points)
    if not all(b > a for a, b in zip(grid, grid[1:])):
        problems.append(f"{path}: grid values must be strictly increasing")
        return None
    if grid[0] <= 0.0:
        problems.append(f"{path}: grid values must be positive")
        return None
    if unit and not grid[-1] < 1.0:
        problems.append(f"{path}: grid values must lie strictly within (0, 1)")
        return None
    return grid


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a configuration file, reporting all problems."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a JSON object"])

    problems: list[str] = []
    top_keys = {key for key, *_ in _SECTIONS} | {"grids", "output", "description"}
    _check_unknown(raw, top_keys, "", problems)
    fields = {}
    for key, record, absent, require_all in _SECTIONS:
        if key in raw:
            fields[key] = _parse_section(raw[key], key, record, problems, require_all=require_all)
        elif absent is dataclasses.MISSING:
            problems.append(f"{key}: required")
        else:
            fields[key] = absent

    grids = raw.get("grids", {})
    if not isinstance(grids, dict):
        problems.append("grids: expected an object")
        grids = {}
    _check_unknown(grids, {key for key, _, _ in _GRIDS}, "grids.", problems)
    for key, field, unit in _GRIDS:
        if key in grids:
            fields[field] = _parse_grid(grids[key], f"grids.{key}", problems, unit=unit)
        else:
            fields[field] = None

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        problems.append(f"output: expected a string path, got {output!r}")
    description = raw.get("description", "")
    if not isinstance(description, str):
        problems.append(f"description: expected a string, got {description!r}")

    if problems:
        raise ConfigError(problems)
    return RunConfig(**fields, output=output, description=description)


def available_presets() -> list[str]:
    """Names of the configuration presets bundled with the package."""
    return sorted(p.stem for p in _PRESETS.glob("*.json"))


def preset_path(name: str) -> Path:
    """Filesystem path of a bundled preset, by bare name or file name."""
    path = _PRESETS / f"{name.removesuffix('.json')}.json"
    if not path.exists():
        raise FileNotFoundError(f"no bundled preset named {name!r}")
    return path
