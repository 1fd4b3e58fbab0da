"""Tests of the benchmark's own checks: bad outputs must count as failures.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import trialgame  # noqa: E402
from trialgame import EconomicInstance, best_response, load_config, participation_threshold  # noqa: E402
from trialgame.cli import main as cli_main  # noqa: E402

SMALL_SWEEP = {
    "instance": {"R": 1.0, "c0": 0.05, "c": 0.002, "mu_b": 0.5, "n_min": 1, "n_max": 500},
    "prior": {"mean": 0.62, "sd": 0.04, "lo": 0.4, "hi": 0.7},
    "quadrature": {"panels": 40},
    "grids": {"alpha": {"start": 0.01, "stop": 0.5, "points": 5, "spacing": "log"}},
}


def _invocation(output: bytes, code: int = 0) -> run.Invocation:
    return run.Invocation(code=code, wall_s=1.0, maxrss_kb=1, output=output, stderr="")


def _sweep_job(tmp_path):
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL_SWEEP), encoding="utf-8")
    csv = tmp_path / "small.csv"
    assert cli_main(["loss-sweep", "--config", str(config), "--output", str(csv), "--quiet"]) == 0
    cfg = load_config(config)
    job = run.Job("small sweep", [], len(cfg.alpha_grid), run.sweep_check(cfg, [1, 3]))
    return job, csv.read_bytes()


def _corrupt_row(data: bytes, row: int, column: int, delta: float) -> bytes:
    lines = data.decode().split("\n")
    fields = lines[row + 1].split(",")
    fields[column] = f"{float(fields[column]) + delta:.10g}"
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines).encode()


def _checked(job) -> run.Outcome:
    out = run.Outcome(attempted=len(job.runs))
    run.check_jobs([job], out)
    return out


def test_clean_sweep_passes(tmp_path):
    job, data = _sweep_job(tmp_path)
    job.runs = [_invocation(data), _invocation(data)]
    out = _checked(job)
    assert (out.failed, out.problems) == (0, [])


def test_corrupted_sweep_row_fails_its_invariants(tmp_path):
    job, data = _sweep_job(tmp_path)
    bad = _corrupt_row(data, 2, 3, 0.01)  # fn_particip no longer sums to fn_total
    job.runs = [_invocation(bad), _invocation(bad)]
    out = _checked(job)
    assert out.failed == 2
    assert "fn_total" in out.problems[0]


def test_consistent_corruption_fails_the_reference(tmp_path):
    job, data = _sweep_job(tmp_path)
    bad = data
    for column in (3, 5, 6):  # fn_particip, fn_total and total_loss move together
        bad = _corrupt_row(bad, 1, column, 0.01)
    job.runs = [_invocation(bad)]
    out = _checked(job)
    assert out.failed == 1
    assert "fine-panel reference" in out.problems[0]


def test_differing_rerun_and_bad_exit_are_failures(tmp_path):
    job, data = _sweep_job(tmp_path)
    job.runs = [_invocation(data), _invocation(_corrupt_row(data, 0, 2, 1e-6)), _invocation(b"", code=3)]
    out = _checked(job)
    assert out.failed == 2
    assert any("different CSV bytes" in p for p in out.problems)
    assert any("exited 3" in p for p in out.problems)


def _query_outcome(query, result) -> run.Outcome:
    out = run.Outcome(attempted=1)
    run.check_queries([(query, result)], out)
    return out


def test_wrong_best_response_is_a_failure():
    for n_max in (500, 100_000):
        inst = EconomicInstance(R=1.0, c0=0.05, c=0.0002, mu_b=0.5, n_max=n_max)
        query = ("best_response", 0.05, 0.6, inst)
        good = best_response(0.05, 0.6, inst)
        assert good.participates
        assert _query_outcome(query, good).failed == 0
        worse_n = max(inst.n_min, good.n_star // 3)
        wrong = dataclasses.replace(good, n_star=worse_n, utility=trialgame.utility(0.05, 0.6, worse_n, inst))
        assert _query_outcome(query, wrong).failed == 1, n_max
        abstains = trialgame.BestResponse(False, 0, 0.0, 0.0)
        assert _query_outcome(query, abstains).failed == 1, n_max


def test_wrong_threshold_is_a_failure():
    inst = EconomicInstance(R=1.0, c0=0.05, c=0.002, mu_b=0.5, n_max=500)
    query = ("threshold", 0.05, 0.0, inst)
    good = participation_threshold(0.05, inst)
    assert good.status == "interior"
    assert _query_outcome(query, good).failed == 0
    shifted = dataclasses.replace(good, mu_tau=good.mu_tau + 10 * good.epsilon)
    assert _query_outcome(query, shifted).failed == 1


def test_heatmap_cells_against_the_weak_belief_scan():
    cardio = EconomicInstance(R=3560.0, c0=141.0, c=0.128, mu_b=0.5)
    closed = trialgame.critical_alpha_closed_form(cardio)
    assert oracles.classify_cell(cardio, closed, "interior") is None
    assert oracles.classify_cell(cardio, 1.05 * closed, "interior") not in (None, "known_defect")
    assert oracles.classify_cell(cardio, 0.95 * closed, "interior") not in (None, "known_defect")
    defect = EconomicInstance(**run.DEFECT_INSTANCE)
    assert oracles.classify_cell(defect, 6.30e-4, "interior") == "known_defect"
    assert oracles.classify_cell(defect, 4.73e-4, "interior") is None


def test_spans_report_self_time_and_parents():
    tracer = spans.Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.span("leaf", leaf)
    outer = tracer.span("outer", lambda: traced_leaf() + traced_leaf())
    assert outer() == 2
    (leaf_key, leaf_rec), (outer_key, outer_rec) = sorted(tracer.spans.items(), key=lambda kv: kv[0][1])
    assert leaf_key == (("outer",), "leaf") and leaf_rec[0] == 2
    assert outer_key == ((), "outer") and outer_rec[0] == 1
    assert abs(outer_rec[2] - (outer_rec[1] - leaf_rec[1])) < 1e-12
