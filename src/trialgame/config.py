"""JSON run configuration: schema, validation, and grid materialisation.

A configuration file drives the CLI.  Top-level keys:

    instance     required; economics of the approval problem
    prior        truncated normal belief distribution (sweeps only)
    weights      loss weights, default both 1
    quadrature   Simpson panels per segment, default 2000
    grids        alpha / R / c0 grids, either explicit values or
                 {start, stop, points, spacing} with linear or log spacing
    output       default CSV destination
    description  free-form note, ignored by the solvers

Config checks the JSON shape (no unknown keys anywhere), that each value is a
finite number, and the grids; the records own the integer and range rules.
Validation is collected: a failed load reports every offending field by path.
"""

from __future__ import annotations

import dataclasses
import json
import math
from importlib import resources
from pathlib import Path

from .agent import EconomicInstance, _is_int
from .errors import ConfigError, DomainError
from .loss import LossWeights, QuadratureSpec
from .stats import TruncatedNormalPrior, finite

_TOP_KEYS = {"instance", "prior", "weights", "quadrature", "grids", "output", "description"}
_GRID_KEYS = {"alpha", "R", "c0"}
_GRID_SPEC_KEYS = {"values", "start", "stop", "points", "spacing"}


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


def _log_spaced(start: float, stop: float, points: int) -> tuple[float, ...]:
    a, b = math.log10(start), math.log10(stop)
    return tuple(10.0 ** (a + i * (b - a) / (points - 1)) for i in range(points))


def _lin_spaced(start: float, stop: float, points: int) -> tuple[float, ...]:
    return tuple(start + i * (stop - start) / (points - 1) for i in range(points))


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
    _check_unknown(obj, _GRID_SPEC_KEYS, f"{path}.", problems)
    if "values" in obj:
        for key in ("start", "stop", "points", "spacing"):
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
        if spacing not in ("linear", "log"):
            problems.append(f"{path}.spacing: expected 'linear' or 'log', got {spacing!r}")
            return None
        if spacing == "log" and not start > 0.0:
            problems.append(f"{path}.start: log spacing requires a positive start, got {start!r}")
            return None
        grid = (
            _log_spaced(float(start), float(stop), points)
            if spacing == "log"
            else _lin_spaced(float(start), float(stop), points)
        )
    for a, b in zip(grid, grid[1:]):
        if not b > a:
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
    _check_unknown(raw, _TOP_KEYS, "", problems)

    instance = None
    if "instance" not in raw:
        problems.append("instance: required")
    else:
        instance = _parse_section(raw["instance"], "instance", EconomicInstance, problems)

    prior = None
    if "prior" in raw:
        prior = _parse_section(raw["prior"], "prior", TruncatedNormalPrior, problems)
    weights = LossWeights()
    if "weights" in raw:
        weights = _parse_section(raw["weights"], "weights", LossWeights, problems, require_all=True)
    quadrature = QuadratureSpec()
    if "quadrature" in raw:
        quadrature = _parse_section(raw["quadrature"], "quadrature", QuadratureSpec, problems)

    alpha_grid = r_grid = c0_grid = None
    if "grids" in raw:
        grids = raw["grids"]
        if not isinstance(grids, dict):
            problems.append("grids: expected an object")
        else:
            _check_unknown(grids, _GRID_KEYS, "grids.", problems)
            if "alpha" in grids:
                alpha_grid = _parse_grid(grids["alpha"], "grids.alpha", problems, unit=True)
            if "R" in grids:
                r_grid = _parse_grid(grids["R"], "grids.R", problems, unit=False)
            if "c0" in grids:
                c0_grid = _parse_grid(grids["c0"], "grids.c0", problems, unit=False)

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        problems.append(f"output: expected a string path, got {output!r}")
    description = raw.get("description", "")
    if not isinstance(description, str):
        problems.append(f"description: expected a string, got {description!r}")

    if problems:
        raise ConfigError(problems)
    return RunConfig(
        instance=instance,
        prior=prior,
        weights=weights,
        quadrature=quadrature,
        alpha_grid=alpha_grid,
        r_grid=r_grid,
        c0_grid=c0_grid,
        output=output,
        description=description,
    )


def available_presets() -> list[str]:
    """Names of the configuration presets bundled with the package."""
    root = resources.files("trialgame") / "presets"
    return sorted(p.name.removesuffix(".json") for p in root.iterdir() if p.name.endswith(".json"))


def preset_path(name: str) -> Path:
    """Filesystem path of a bundled preset, by bare name or file name."""
    base = name.removesuffix(".json")
    candidate = resources.files("trialgame") / "presets" / f"{base}.json"
    with resources.as_file(candidate) as p:
        if not p.exists():
            raise FileNotFoundError(f"no bundled preset named {name!r}")
        return Path(p)
