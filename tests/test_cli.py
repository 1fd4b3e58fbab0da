"""Command-line interface: subcommands, CSV emission, exit codes."""

import dataclasses
import hashlib
import json
import subprocess
import sys

import pytest

from trialgame import (
    LossWeights,
    QuadratureSpec,
    TruncatedNormalPrior,
    best_response,
    critical_alpha,
    loss_components,
    participation_threshold,
)
from trialgame.agent import EconomicInstance
from trialgame.cli import HEATMAP_COLUMNS, SWEEP_COLUMNS, main

INSTANCE_FLAGS = [
    "--R", "1", "--c0", "0.05", "--c", "0.002", "--mu-b", "0.5", "--n-max", "500",
]
INST = EconomicInstance(R=1.0, c0=0.05, c=0.002, mu_b=0.5, n_min=1, n_max=500)
PRIOR = TruncatedNormalPrior(mean=0.62, sd=0.04, lo=0.4, hi=0.7)


def sweep_config(tmp_path, **extra):
    payload = {
        "instance": {"R": 1.0, "c0": 0.05, "c": 0.002, "mu_b": 0.5, "n_min": 1, "n_max": 500},
        "prior": {"mean": 0.62, "sd": 0.04, "lo": 0.4, "hi": 0.7},
        "quadrature": {"panels": 50},
        "grids": {"alpha": {"values": [0.02, 0.05, 0.1, 0.2]}},
    }
    payload.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), "utf-8")
    return path


def test_best_response_prints_decision(capsys):
    code = main(["best-response", "--alpha", "0.05", "--mu0", "0.6", *INSTANCE_FLAGS])
    out = capsys.readouterr().out
    assert code == 0
    assert "participates: yes" in out
    assert "n_star: 166" in out


def test_best_response_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "br.csv"
    code = main(
        ["best-response", "--alpha", "0.05", "--mu0", "0.6", *INSTANCE_FLAGS,
         "--output", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text("utf-8").splitlines()
    assert lines[0] == "participates,n_star,pass_prob,utility"
    cells = lines[1].split(",")
    br = best_response(0.05, 0.6, INST)
    assert cells[0] == "1" and cells[1] == "166"
    assert float(cells[2]) == pytest.approx(br.pass_prob, abs=1e-9)
    assert float(cells[3]) == pytest.approx(br.utility, abs=1e-9)
    assert "wrote 1 rows" in capsys.readouterr().out


def test_csv_writes_integers_exactly(tmp_path, capsys):
    # Floats keep 10 significant digits; an int cell is written in full.
    out_path = tmp_path / "br.csv"
    flags = ["--alpha", "0.05", "--mu0", "0.500001", "--R", "1", "--c0", "0", "--c", "1e-14",
             "--mu-b", "0.5", "--n-max", str(10**13)]
    code = main(["best-response", *flags, "--output", str(out_path), "--quiet"])
    assert code == 0
    n_star = best_response(0.05, 0.500001, EconomicInstance(1.0, 0.0, 1e-14, 0.5, 1, 10**13)).n_star
    assert n_star > 10**10
    assert f"n_star: {n_star}" in capsys.readouterr().out
    cells = out_path.read_text("utf-8").splitlines()[1].split(",")
    assert cells[:2] == ["1", str(n_star)]


def test_quiet_suppresses_notes(tmp_path, capsys):
    out_path = tmp_path / "br.csv"
    code = main(
        ["best-response", "--alpha", "0.05", "--mu0", "0.6", *INSTANCE_FLAGS,
         "--output", str(out_path), "--quiet"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote" not in out
    assert "participates" in out  # the decision itself still prints


def test_threshold_subcommand(capsys):
    code = main(["threshold", "--alpha", "0.1", *INSTANCE_FLAGS])
    out = capsys.readouterr().out
    assert code == 0
    th = participation_threshold(0.1, INST)
    assert f"mu_tau: {th.mu_tau:.6g}" in out
    assert "status: interior" in out


def test_threshold_has_no_tolerance_option(capsys):
    # The threshold is always bracketed to 2**-34 and the critical level is
    # exact with a fixed clamp margin, so --eps is a usage error for both.
    assert main(["threshold", "--alpha", "0.1", "--eps", "1e-3", *INSTANCE_FLAGS]) == 2
    assert "--eps" in capsys.readouterr().err
    assert main(["critical-alpha", "--config", "cardiovascular", "--eps", "0.05"]) == 2
    assert "--eps" in capsys.readouterr().err


def test_critical_alpha_subcommand_with_preset(capsys):
    code = main(["critical-alpha", "--config", "cardiovascular"])
    out = capsys.readouterr().out
    assert code == 0
    assert "alpha_hat: 0.0396427" in out
    assert "closed_form: 0.0396427" in out
    assert "status: interior" in out


def test_flag_overrides_apply_on_top_of_config(capsys):
    # Doubling revenue halves the closed-form critical level.
    code = main(["critical-alpha", "--config", "cardiovascular", "--R", "7120"])
    out = capsys.readouterr().out
    assert code == 0
    assert "closed_form: 0.0198213" in out


def test_loss_sweep_writes_expected_csv(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    out_path = tmp_path / "sweep.csv"
    code = main(["loss-sweep", "--config", str(cfg), "--output", str(out_path), "--quiet"])
    assert code == 0
    raw = out_path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert lines[0] == "alpha,mu_tau,fp_particip,fn_particip,fn_abstain,fn_total,total_loss"
    assert len(lines) == 5
    assert lines[1].startswith("0.02,")
    # Each row is the loss decomposition at its level, fn_total their sum.
    alpha, mu_tau, fp, fn_p, fn_a, fn_total, total = map(float, lines[3].split(","))
    bd = loss_components(0.1, INST, PRIOR, QuadratureSpec(panels=50), LossWeights())
    assert alpha == 0.1
    for got, want in zip(
        (mu_tau, fp, fn_p, fn_a, fn_total, total),
        (bd.mu_tau, bd.fp_particip, bd.fn_particip, bd.fn_abstain, bd.fn_particip + bd.fn_abstain, bd.total),
    ):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-15)


def test_loss_sweep_preset_bytes_are_pinned(tmp_path):
    # A change to the solvers' arithmetic or to the CSV writer moves these
    # digests; a faster solver that returns the same answers does not.
    # cardiovascular reaches n_max = 100,000 and the curvature breaks, which
    # the n_max = 500 of fn-curves-062 does not.  cardiovascular was re-frozen
    # when the threshold's participating end became a one-size witness, which
    # moves mu_tau by under 6e-11 on rows where sizes nearly tie at break-even.
    # Both were re-frozen when fp_particip became Gauss-Legendre over n_min's
    # pay pieces: fp_particip moved by up to 1.4e-8 and total_loss by up to
    # 8.2e-9 relative (Simpson's error), and no other column moved.  The
    # other four were frozen before the effective-side integrand began to
    # pass each node a size hint; vaccine's entering applicant buys n_max at
    # alpha <= 0.01, so its hints sit at the cap.
    pinned = {
        "fn-curves-062": "b3fed2b86f6b9a8e107bba1c7ddb5664fee368fb8e6fbd6c3ecaeb85074f0896",
        "cardiovascular": "b32bf837b745a8ef8d050b9d9dc018c9a19e87f171cbfade660e7edb54f66ed6",
        "oncology": "d82d33e9f4ff96b7355b303a506d5bd3dd89d9f373e787d857f573886ef4c668",
        "vaccine": "1da7c46b7ef5a714846314ea1a1ff6b64ef03e8265b5d5b647d1c71a73f21542",
        "fn-curves-053": "c1d87a83994104e5b2512f8a7f48f306a134c55544b44f19b888f7835f406e12",
        "fn-curves-067": "f75d1513ef3f8697e81eac7c10dad521f9be2dd74c0a4832e68caab02e28d142",
    }
    for preset, digest in pinned.items():
        out_path = tmp_path / f"sweep-{preset}.csv"
        args = ["loss-sweep", "--config", preset, "--output", str(out_path), "--quiet"]
        assert main(args) == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest, preset


def test_heatmap_preset_bytes_are_pinned(tmp_path):
    # The category presets' full R x c0 grids, each through the closed-form
    # critical level.
    pinned = {
        "cardiovascular": "da88b515e2173a1c862beb5e884d54f6fe3b5a4feca019303fae685368fbe8f3",
        "oncology": "3b44dd6534a4d7af5aeca114d0493acd490a78af2b4f491119abaa95bd901aa1",
        "vaccine": "1325898f3f0e55bdbf3e25cba926e8bc18628542006ef27376549e15108dd1c9",
    }
    for preset, digest in pinned.items():
        out_path = tmp_path / f"heat-{preset}.csv"
        args = ["heatmap", "--config", preset, "--output", str(out_path), "--quiet"]
        assert main(args) == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest, preset


def test_loss_sweep_output_from_config(tmp_path, capsys):
    out_path = tmp_path / "from-config.csv"
    cfg = sweep_config(tmp_path, output=str(out_path))
    code = main(["loss-sweep", "--config", str(cfg)])
    assert code == 0
    assert out_path.exists()
    assert "wrote 4 rows" in capsys.readouterr().out


def test_loss_sweep_requires_config_and_prior(tmp_path, capsys):
    assert main(["loss-sweep"]) == 2
    assert "--config" in capsys.readouterr().err
    payload = {"instance": {"R": 1.0, "c0": 0.05, "c": 0.002, "mu_b": 0.5}}
    path = tmp_path / "noprior.json"
    path.write_text(json.dumps(payload), "utf-8")
    assert main(["loss-sweep", "--config", str(path), "--output", "x.csv"]) == 2
    assert "prior" in capsys.readouterr().err


def test_loss_sweep_requires_some_output(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    assert main(["loss-sweep", "--config", str(cfg)]) == 2
    assert "output" in capsys.readouterr().err


def test_heatmap_grid_ordering_and_flag(tmp_path):
    cfg = sweep_config(
        tmp_path,
        grids={
            "alpha": {"values": [0.05]},
            "R": {"values": [1.0, 2.0]},
            "c0": {"values": [0.03, 0.06]},
        },
    )
    out_path = tmp_path / "heat.csv"
    code = main(["heatmap", "--config", str(cfg), "--output", str(out_path), "--quiet"])
    assert code == 0
    lines = out_path.read_text("utf-8").splitlines()
    assert lines[0] == ",".join(HEATMAP_COLUMNS)
    assert lines[0] == "R,c0,alpha_hat,clamped,alpha_hat_le_0_05"
    assert len(lines) == 5
    # Revenue-major ordering, fixed-cost minor.
    firsts = [line.split(",")[0] for line in lines[1:]]
    assert firsts == ["1", "1", "2", "2"]
    for line in lines[1:]:
        r, c0, alpha_hat, clamped, flag = line.split(",")
        expected = critical_alpha(
            EconomicInstance(float(r), float(c0), 0.002, 0.5, 1, 500)
        )
        assert float(alpha_hat) == pytest.approx(expected.alpha_hat, abs=1e-9)
        assert clamped == expected.status
        assert flag == str(int(expected.alpha_hat <= 0.05))


def test_heatmap_requires_both_grids(tmp_path, capsys):
    cfg = sweep_config(tmp_path)  # has only an alpha grid
    assert main(["heatmap", "--config", str(cfg), "--output", "h.csv"]) == 2
    err = capsys.readouterr().err
    assert "grids.R" in err and "grids.c0" in err


def test_csv_commands_report_every_missing_input_at_once(tmp_path, capsys):
    path = tmp_path / "instance-only.json"
    payload = {"instance": {"R": 1.0, "c0": 0.05, "c": 0.002, "mu_b": 0.5}}
    path.write_text(json.dumps(payload), "utf-8")
    wants = {
        "heatmap": ["grids.R: required", "grids.c0: required", "output: the heatmap command"],
        "loss-sweep": ["prior: required", "output: the loss-sweep command"],
    }
    for command, parts in wants.items():
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 + len(parts), err
        assert all(part in err for part in parts), err


def test_missing_instance_flags_are_named_together(capsys):
    # No configuration and no economics flags: each field without a default
    # is reported, in one error.
    assert main(["best-response", "--alpha", "0.05", "--mu0", "0.6"]) == 2
    err = capsys.readouterr().err
    for flag in ("--R", "--c0", "--c", "--mu-b"):
        assert f"{flag}: required when no configuration supplies the instance" in err
    assert "--n-min" not in err and "--n-max" not in err


def test_domain_failures_exit_three(capsys):
    code = main(["best-response", "--alpha", "2", "--mu0", "0.6", *INSTANCE_FLAGS])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_subnormal_cost_answers(capsys):
    code = main(["threshold", "--alpha", "0.05", "--R", "1", "--c0", "0.05", "--c", "5e-324",
                 "--mu-b", "0.5", "--n-max", "500"])
    assert code == 0
    assert "status: interior" in capsys.readouterr().out


def test_size_too_large_for_a_float_exits_two(capsys):
    flags = [*INSTANCE_FLAGS[:-1], "1" + "0" * 400]  # --n-max 10**400
    code = main(["best-response", "--alpha", "0.05", "--mu0", "0.6", *flags])
    assert code == 2
    assert "n_max must be an integer, got 1000" in capsys.readouterr().err


def test_help_shows_the_instance_size_defaults(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help entry per line
    assert main(["best-response", "--help"]) == 0
    out = capsys.readouterr().out
    for f in dataclasses.fields(EconomicInstance):
        if f.default is not dataclasses.MISSING:
            assert f"(default {f.default})" in out


def test_config_validation_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"instance": {"R": -1, "c0": 0, "c": 0, "mu_b": 0.5}}), "utf-8")
    code = main(["critical-alpha", "--config", str(path)])
    assert code == 2
    assert "instance.R" in capsys.readouterr().err
    # A prior with no mass on its support is a configuration problem too,
    # reported alongside the others.
    out_path = tmp_path / "sweep.csv"
    cfg = sweep_config(
        tmp_path,
        instance={"R": 1.0, "c0": 0.05, "c": 0.002, "mu_b": 1.5},
        prior={"mean": 50.0, "sd": 0.04, "lo": 0.1, "hi": 0.2},
    )
    assert main(["loss-sweep", "--config", str(cfg), "--output", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert "instance.mu_b" in err and "prior.support" in err
    assert not out_path.exists()


def test_prior_with_a_subnormal_mass_exits_two(tmp_path, capsys):
    # Its mass, 3e-323, once passed validation and the sweep's first density
    # divided by zero, exiting 1 with a traceback.
    out_path = tmp_path / "sweep.csv"
    cfg = sweep_config(
        tmp_path,
        instance={"R": 1.0, "c0": 0.05, "c": 0.002, "mu_b": 0.9844, "n_min": 1, "n_max": 500},
        prior={"mean": 0.9042317154104523, "sd": 0.0027966647181192055,
               "lo": 0.43148444649486345, "hi": 0.7967748006897861},
        grids={"alpha": {"values": [0.2822]}},
    )
    assert main(["loss-sweep", "--config", str(cfg), "--output", str(out_path)]) == 2
    assert "prior.support must carry probability mass" in capsys.readouterr().err
    assert not out_path.exists()


def test_unknown_preset_exits_four(capsys):
    code = main(["critical-alpha", "--config", "no-such-preset"])
    assert code == 4
    err = capsys.readouterr().err
    assert "neither a file nor a bundled preset" in err
    assert "cardiovascular" in err  # the message lists what is available


def test_unwritable_output_exits_four(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.csv"
    code = main(
        ["best-response", "--alpha", "0.05", "--mu0", "0.6", *INSTANCE_FLAGS,
         "--output", str(target)]
    )
    assert code == 4
    assert "I/O error" in capsys.readouterr().err


def test_usage_errors_exit_two():
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["best-response", "--mu0", "0.6"]) == 2  # --alpha missing


def test_module_entry_point_help():
    result = subprocess.run(
        [sys.executable, "-m", "trialgame", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    for name in ("best-response", "threshold", "critical-alpha", "loss-sweep", "heatmap"):
        assert name in result.stdout
