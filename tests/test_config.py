"""Configuration loading: schema, validation aggregation, grids, presets."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trialgame
from trialgame import (
    ConfigError,
    EconomicInstance,
    LossWeights,
    QuadratureSpec,
    TruncatedNormalPrior,
    available_presets,
    default_alpha_grid,
    load_config,
    preset_path,
)

FULL = {
    "description": "round-trip fixture",
    "instance": {"R": 2.0, "c0": 0.1, "c": 0.001, "mu_b": 0.45, "n_min": 2, "n_max": 300},
    "prior": {"mean": 0.6, "sd": 0.05, "lo": 0.35, "hi": 0.75},
    "weights": {"lambda_fp": 2.0, "lambda_fn": 0.5},
    "quadrature": {"panels": 200},
    "grids": {
        "alpha": {"values": [0.01, 0.05, 0.2]},
        "R": {"start": 1.0, "stop": 5.0, "points": 5, "spacing": "linear"},
        "c0": {"start": 0.01, "stop": 1.0, "points": 3, "spacing": "log"},
    },
    "output": "out.csv",
}


def write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload, "utf-8")
    return path


def test_full_round_trip(tmp_path):
    cfg = load_config(write(tmp_path, FULL))
    assert cfg.instance == EconomicInstance(2.0, 0.1, 0.001, 0.45, 2, 300)
    assert cfg.prior == TruncatedNormalPrior(0.6, 0.05, 0.35, 0.75)
    assert cfg.weights == LossWeights(2.0, 0.5)
    assert cfg.quadrature == QuadratureSpec(panels=200)
    assert cfg.alpha_grid == (0.01, 0.05, 0.2)
    assert cfg.r_grid == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert len(cfg.c0_grid) == 3
    assert cfg.c0_grid[0] == pytest.approx(0.01) and cfg.c0_grid[-1] == pytest.approx(1.0)
    assert cfg.output == "out.csv"
    assert cfg.description == "round-trip fixture"


def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(write(tmp_path, {"instance": {"R": 1.0, "c0": 0.05, "c": 0.002, "mu_b": 0.5}}))
    assert cfg.instance.n_min == 1 and cfg.instance.n_max == 100_000
    assert cfg.prior is None
    assert cfg.weights == LossWeights()
    assert cfg.quadrature == QuadratureSpec()
    assert cfg.alpha_grid is None and cfg.r_grid is None and cfg.c0_grid is None
    assert cfg.output is None
    assert cfg.description == ""


def test_all_problems_reported_at_once(tmp_path):
    payload = {
        "instance": {"R": -3.0, "c0": 0.05, "c": 0.002, "mu_b": 1.7},
        "prior": {"mean": 50.0, "sd": 0.04, "lo": 0.1, "hi": 0.2},
        "weights": {"lambda_fp": 0.0, "lambda_fn": 0.0},
        "quadrature": {"panels": 401},
        "grids": {"alpha": {"values": [0.5, 0.2]}},
        "mystery": 1,
    }
    with pytest.raises(ConfigError) as excinfo:
        load_config(write(tmp_path, payload))
    message = str(excinfo.value)
    assert "instance.R must be" in message
    assert "instance.mu_b must" in message
    assert "prior.support must carry probability mass" in message
    assert "weights.lambda_fp or lambda_fn must be positive" in message
    assert "quadrature.panels must be an even integer" in message
    assert "grids.alpha" in message
    assert "mystery: unknown key" in message
    assert len(excinfo.value.problems) == 7

    payload["prior"] = {"mean": 0.6, "sd": -1.0, "lo": 0.3, "hi": 0.7}
    with pytest.raises(ConfigError, match="prior.sd must be"):
        load_config(write(tmp_path, payload))


def test_unknown_nested_keys_rejected(tmp_path):
    payload = dict(FULL, instance=dict(FULL["instance"], bonus=1))
    with pytest.raises(ConfigError, match="instance.bonus: unknown key"):
        load_config(write(tmp_path, payload))
    # Simpson is the only rule, so the quadrature section takes no scheme.
    payload = dict(FULL, quadrature={"panels": 200, "scheme": "simpson"})
    with pytest.raises(ConfigError, match="quadrature.scheme: unknown key"):
        load_config(write(tmp_path, payload))


def test_boolean_not_accepted_as_integer(tmp_path):
    payload = {"instance": {"R": 1.0, "c0": 0.0, "c": 0.0, "mu_b": 0.5, "n_min": True}}
    with pytest.raises(ConfigError, match="instance.n_min: expected a finite number, got True"):
        load_config(write(tmp_path, payload))


def test_integer_too_large_for_a_float_is_a_config_error(tmp_path):
    # JSON reads a 401-digit integer exactly, but no float can hold it.
    payload = {"instance": dict(FULL["instance"], R=10**400)}
    with pytest.raises(ConfigError, match="instance.R: expected a finite number, got 1000"):
        load_config(write(tmp_path, payload))
    # Past the interpreter's int digit limit, where there is one, json.loads
    # itself refuses the integer.
    text = json.dumps(payload).replace("1" + "0" * 400, "1" + "0" * 5000)
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, text))


def test_missing_instance_reported(tmp_path):
    with pytest.raises(ConfigError, match="instance: required"):
        load_config(write(tmp_path, {"description": "nothing here"}))


def test_grid_values_and_spacing_are_exclusive(tmp_path):
    grids = {"alpha": {"values": [0.1, 0.2], "start": 0.1}}
    payload = {"instance": FULL["instance"], "grids": grids}
    with pytest.raises(ConfigError, match="cannot be combined"):
        load_config(write(tmp_path, payload))


def test_grid_spec_requires_all_three_fields(tmp_path):
    grids = {"R": {"start": 1.0, "points": 5}}
    payload = {"instance": FULL["instance"], "grids": grids}
    with pytest.raises(ConfigError, match="grids.R.stop: required"):
        load_config(write(tmp_path, payload))


def _r_grid(**spec):
    return {"grids": {"R": spec}}


# One malformed part of a configuration per case, and the problem it reports.
REJECTIONS = [
    ({"prior": [0.6, 0.05]}, "prior: expected an object"),
    ({"grids": [1, 2]}, "grids: expected an object"),
    ({"grids": {"R": 3.0}}, "grids.R: expected an object"),
    (_r_grid(values=[]), "grids.R.values: expected a nonempty list of finite numbers"),
    (_r_grid(values=3.0), "grids.R.values: expected a nonempty list of finite numbers"),
    (_r_grid(values=[1.0, "2"]), "grids.R.values: expected a nonempty list of finite numbers"),
    (_r_grid(stop=5.0, points=3), "grids.R.start: required (or give explicit values)"),
    (_r_grid(start=1.0, stop=5.0), "grids.R.points: required (or give explicit values)"),
    (_r_grid(start=5.0, stop=5.0, points=3), "grids.R: need numeric start < stop, got 5.0 and 5.0"),
    (_r_grid(start=1.0, stop=5.0, points=1), "grids.R.points: expected an integer >= 2, got 1"),
    (_r_grid(start=1.0, stop=5.0, points=2.5), "grids.R.points: expected an integer >= 2, got 2.5"),
    (
        _r_grid(start=1.0, stop=5.0, points=3, spacing="cubic"),
        "grids.R.spacing: expected 'linear' or 'log', got 'cubic'",
    ),
    (_r_grid(start=-1.0, stop=1.0, points=3), "grids.R: grid values must be positive"),
    (_r_grid(values=[0.0, 1.0]), "grids.R: grid values must be positive"),
    ({"output": 3}, "output: expected a string path, got 3"),
    ({"description": ["note"]}, "description: expected a string, got ['note']"),
    # Unhashable spacings once raised TypeError from the lookup of the name.
    (_r_grid(start=1.0, stop=5.0, points=3, spacing=["log"]),
     "grids.R.spacing: expected 'linear' or 'log', got ['log']"),
    (_r_grid(start=1.0, stop=5.0, points=3, spacing={}), "grids.R.spacing: expected 'linear' or 'log', got {}"),
]


@pytest.mark.parametrize(
    "extra, problem", REJECTIONS, ids=[f"{i}-{p.split(':')[0]}" for i, (_, p) in enumerate(REJECTIONS)]
)
def test_malformed_part_is_rejected_by_path(tmp_path, extra, problem):
    with pytest.raises(ConfigError) as excinfo:
        load_config(write(tmp_path, {"instance": FULL["instance"], **extra}))
    assert excinfo.value.problems == [problem]


def test_malformed_parts_are_reported_together(tmp_path):
    payload = {
        "instance": 1.0,
        "grids": {"R": {"values": []}, "c0": {"start": 2.0, "stop": 1.0, "points": 3}},
        "output": False,
        "description": 7,
    }
    with pytest.raises(ConfigError) as excinfo:
        load_config(write(tmp_path, payload))
    assert excinfo.value.problems == [
        "instance: expected an object",
        "grids.R.values: expected a nonempty list of finite numbers",
        "grids.c0: need numeric start < stop, got 2.0 and 1.0",
        "output: expected a string path, got False",
        "description: expected a string, got 7",
    ]


def test_log_grid_needs_positive_start(tmp_path):
    grids = {"R": {"start": -1.0, "stop": 10.0, "points": 4, "spacing": "log"}}
    payload = {"instance": FULL["instance"], "grids": grids}
    with pytest.raises(ConfigError, match="log spacing requires a positive start"):
        load_config(write(tmp_path, payload))


def test_alpha_grid_must_stay_inside_unit_interval(tmp_path):
    grids = {"alpha": {"values": [0.5, 1.5]}}
    payload = {"instance": FULL["instance"], "grids": grids}
    with pytest.raises(ConfigError, match="strictly within"):
        load_config(write(tmp_path, payload))


def test_invalid_json_reported(tmp_path):
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(write(tmp_path, "{ nope"))


def test_text_that_is_not_utf8_is_one_config_problem(tmp_path):
    # The file was once decoded outside the JSON error handling, so such
    # bytes raised UnicodeDecodeError.
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert len(excinfo.value.problems) == 1 and excinfo.value.problems[0].startswith("not UTF-8 text: ")


def test_non_object_top_level_rejected(tmp_path):
    with pytest.raises(ConfigError, match="top level"):
        load_config(write(tmp_path, "[1, 2, 3]"))


def test_bundled_presets_enumerate_and_load():
    names = available_presets()
    assert names == sorted(names)
    assert {
        "cardiovascular",
        "oncology",
        "vaccine",
        "fn-curves-053",
        "fn-curves-062",
        "fn-curves-067",
    } <= set(names)
    for name in names:
        cfg = load_config(preset_path(name))
        assert cfg.instance.R > 0.0
        assert cfg.prior is not None
        assert cfg.alpha_grid is not None


def test_category_presets_carry_heatmap_grids():
    for name in ("cardiovascular", "oncology", "vaccine"):
        cfg = load_config(preset_path(name))
        assert len(cfg.r_grid) == 50
        assert len(cfg.c0_grid) == 50
    cardio = load_config(preset_path("cardiovascular"))
    assert cardio.instance == EconomicInstance(3560.0, 141.0, 0.128, 0.5, 1, 100_000)


def test_preset_path_accepts_either_name_form():
    assert preset_path("oncology") == preset_path("oncology.json")
    with pytest.raises(FileNotFoundError):
        preset_path("no-such-preset")


def test_every_listed_preset_is_a_file_in_the_package():
    presets = Path(trialgame.__file__).with_name("presets")
    names = available_presets()
    assert names
    for name in names:
        path = preset_path(name)
        assert path.is_file()
        assert path.parent == presets and path.name == f"{name}.json"


def test_cli_import_leaves_importlib_resources_unloaded():
    # Presets are found next to the package's own file.  Without site (-S),
    # nothing else at start-up imports importlib.resources.
    code = "import sys, trialgame.cli; sys.exit('importlib.resources' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(trialgame.__file__).parent.parent)}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, timeout=60)
    assert result.returncode == 0


def test_default_alpha_grid_shape():
    grid = default_alpha_grid()
    assert len(grid) == 400
    assert grid[0] == pytest.approx(1e-4)
    assert grid[-1] == pytest.approx(0.9)
    assert all(b > a for a, b in zip(grid, grid[1:]))
    # Log spacing: constant ratio between neighbours.
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert max(ratios) - min(ratios) < 1e-9


def test_weights_partial_object_rejected(tmp_path):
    payload = {"instance": FULL["instance"], "weights": {"lambda_fp": 1.0}}
    with pytest.raises(ConfigError, match="weights.lambda_fn: required"):
        load_config(write(tmp_path, payload))


def test_quadrature_odd_panels_rejected(tmp_path):
    payload = {"instance": FULL["instance"], "quadrature": {"panels": 401}}
    with pytest.raises(ConfigError, match="quadrature.panels"):
        load_config(write(tmp_path, payload))
