"""End-to-end acceptance checks for the released behaviour.

Each test covers one headline guarantee, prints a single summary line,
and pins the tolerance it enforces.  Random-instance generators are
seeded so every run exercises the identical population.  Their ranges,
with ``k = (c0 + c*n_min) / R`` the cost share of the least trial:

- criterion 1 draws baseline rates ``mu_b`` from 0.05 to 0.95 and money
  values that put ``k`` between about 1e-7 and 400.  That reaches where
  participation is not one interval in the belief (the strict ``xfail``s
  in ``tests/test_thresholds.py`` have two pieces at ``mu_b = 0.838``, ``k
  = 1.6e-3``, and at ``mu_b = 0.3``, ``k = 0.95``), but a best response
  checked against the exhaustive scan needs no monotone participation;
- criterion 2 draws ``mu_b`` from 0.2 to 0.6 and ``k`` from 3e-3 to 0.6;
- criterion 4 draws ``mu_b`` from 0.35 to 0.6 and ``k`` from 5e-3 to 0.5;
- criterion 6 takes rates 0.3 to 0.7 on a fixed grid, and draws nothing;
- criterion 9a draws ``mu_b`` from 0.05 to 0.95 and ``k`` up to 0.95, since
  its claim holds at every baseline.
"""

import dataclasses
import math
import random
import subprocess
import sys
import time

from scipy.stats import binom, norm

from trialgame import (
    EconomicInstance,
    QuadratureSpec,
    TruncatedNormalPrior,
    best_response,
    best_response_bruteforce,
    critical_alpha,
    critical_alpha_closed_form,
    default_alpha_grid,
    load_config,
    loss_components,
    participation_threshold,
    preset_path,
    std_normal_cdf,
    std_normal_quantile,
    sweep_alpha,
)
from trialgame.agent import _level
from trialgame.thresholds import _pay_interval
from reference import normal_pass, simpson


def report(name: str, ok: bool, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    return line


def test_criterion_1_solver_matches_exhaustive_scan():
    """500 random instances: best_response equals the exhaustive scan."""
    rng = random.Random(11)
    started = time.monotonic()
    worst = 0.0
    mismatches = 0
    for _ in range(500):
        mu_b = rng.uniform(0.05, 0.95)
        mu0 = rng.uniform(1e-6, 1.0 - 1e-6)
        alpha = 10.0 ** rng.uniform(-4.0, math.log10(0.5))
        R = 10.0 ** rng.uniform(-1.0, 3.0)
        c0 = 10.0 ** rng.uniform(-4.0, 1.0)
        c = 10.0 ** rng.uniform(-6.0, 0.0)
        n_min = rng.randrange(1, 30)
        n_max = n_min + rng.randrange(10, 4000)
        inst = EconomicInstance(R, c0, c, mu_b, n_min, n_max)
        fast = best_response(alpha, mu0, inst)
        slow = best_response_bruteforce(alpha, mu0, inst)
        gap = abs(fast.utility - slow.utility)
        worst = max(worst, gap)
        if gap > 1e-9 * max(1.0, R) or fast.participates != slow.participates:
            mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 60.0
    line = report(
        "criterion 1 (solver vs exhaustive scan)",
        ok,
        f"0 of 500 allowed, got {mismatches}; worst utility gap {worst:.3e}; {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_2_critical_alpha_closed_form_agreement():
    """Critical level matches (c0 + c*n_min)/R to 2e-6 for mu_b <= 0.6."""
    rng = random.Random(42)
    worst = 0.0
    for _ in range(200):
        mu_b = rng.uniform(0.2, 0.6)
        n_min = rng.choice([1, 1, 1, 2, 10, 50])
        c0 = 10.0 ** rng.uniform(-4.0, 2.0)
        c = 10.0 ** rng.uniform(-6.0, 0.0)
        target = 10.0 ** rng.uniform(math.log10(3e-3), math.log10(0.6))
        R = (c0 + c * n_min) / target
        inst = EconomicInstance(R, c0, c, mu_b, n_min, n_min + rng.randrange(100, 5000))
        result = critical_alpha(inst)
        worst = max(worst, abs(result.alpha_hat - critical_alpha_closed_form(inst)))
    cardio = load_config(preset_path("cardiovascular")).instance
    cardio_hat = critical_alpha(cardio).alpha_hat
    cardio_gap = abs(cardio_hat - 0.03965)
    ok = worst <= 2e-6 and cardio_gap <= 1e-4
    line = report(
        "criterion 2 (closed-form critical level)",
        ok,
        f"worst gap {worst:.3e} over 200 instances (allowed 2e-6); "
        f"cardiovascular alpha_hat {cardio_hat:.6f} within 1e-4 of 0.03965: {cardio_gap:.2e}",
    )
    assert ok, line


def test_criterion_3_oncology_band_and_revenue_crossing():
    """Oncology level sits in [0.1, 0.2]; crossing revenue is 12963 +/- 1."""
    onco = load_config(preset_path("oncology")).instance
    alpha_hat = critical_alpha(onco).alpha_hat
    in_band = 0.1 <= alpha_hat <= 0.2

    def below(r: float) -> bool:
        return critical_alpha(dataclasses.replace(onco, R=r)).alpha_hat <= 0.05

    lo, hi = 1000.0, 60000.0
    assert not below(lo) and below(hi)
    while hi - lo > 0.05:
        mid = 0.5 * (lo + hi)
        if below(mid):
            hi = mid
        else:
            lo = mid
    crossing = 0.5 * (lo + hi)
    ok = in_band and abs(crossing - 12963.0) <= 1.0
    line = report(
        "criterion 3 (oncology regime)",
        ok,
        f"alpha_hat {alpha_hat:.6f} in [0.1, 0.2]; 0.05-crossing revenue {crossing:.2f} "
        f"within 1 of 12963",
    )
    assert ok, line


def test_criterion_4_threshold_monotone_in_alpha():
    """20 instances x 400-point grid: marginal belief never increases."""
    rng = random.Random(7)
    grid = default_alpha_grid()
    started = time.monotonic()
    violations = 0
    worst_step = 0.0
    for _ in range(20):
        mu_b = rng.uniform(0.35, 0.6)
        n_min = rng.choice([1, 1, 5, 20])
        c0 = 10.0 ** rng.uniform(-3.0, 1.0)
        c = 10.0 ** rng.uniform(-5.0, -1.0)
        target = 10.0 ** rng.uniform(math.log10(5e-3), math.log10(0.5))
        R = (c0 + c * n_min) / target
        inst = EconomicInstance(R, c0, c, mu_b, n_min, n_min + rng.randrange(200, 3000))
        previous = None
        for alpha in grid:
            mu_tau = participation_threshold(alpha, inst).mu_tau
            if previous is not None and mu_tau > previous + 1e-6:
                violations += 1
                worst_step = max(worst_step, mu_tau - previous)
            previous = mu_tau
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed < 300.0
    line = report(
        "criterion 4 (threshold monotone in alpha)",
        ok,
        f"{violations} violations over 20x400 evaluations (worst step {worst_step:.1e}); "
        f"{elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_5_missed_approval_curve_shapes():
    """Sweep shapes: rise-then-fall for means 0.53/0.62, monotone for 0.67."""
    outcomes = []
    for name, expect_rise in (
        ("fn-curves-053", True),
        ("fn-curves-062", True),
        ("fn-curves-067", False),
    ):
        cfg = load_config(preset_path(name))
        alpha_hat = critical_alpha(cfg.instance).alpha_hat
        alphas = cfg.alpha_grid
        rows = sweep_alpha(alphas, cfg.instance, cfg.prior, cfg.weights, cfg.quadrature)
        curve = [bd.fn_particip for bd in rows]
        peak = max(curve)
        # A rise must clear 1e-3 to count at this grid resolution; the
        # mean-0.67 prior keeps a vanishing sliver of mass near the
        # baseline, so its curve is flat-to-falling up to that slack.
        rises_below = [
            later - earlier
            for alpha, earlier, later in zip(alphas, curve, curve[1:])
            if alpha < alpha_hat and later - earlier > 1e-3
        ]
        if expect_rise:
            shape_ok = bool(rises_below) and curve[-1] < peak - 0.01
            detail = f"{name}: {len(rises_below)} rising steps below {alpha_hat:.3f}, peak {peak:.3f}"
        else:
            any_rise = max(
                (later - earlier for earlier, later in zip(curve, curve[1:])), default=0.0
            )
            shape_ok = any_rise <= 1e-3
            detail = f"{name}: largest rise {any_rise:.1e} (allowed 1e-3)"
        outcomes.append((shape_ok, detail))
    ok = all(flag for flag, _ in outcomes)
    line = report(
        "criterion 5 (missed-approval curve shapes)",
        ok,
        "; ".join(detail for _, detail in outcomes),
    )
    assert ok, line


def test_criterion_6_normal_approximation_close_to_binomial():
    """Pass chance within 0.05 of the exact binomial tail on a rate grid."""
    worst = 0.0
    worst_at = None
    rates = [0.3, 0.4, 0.5, 0.6, 0.7]
    for n in (50, 100, 200, 500):
        for alpha in (0.01, 0.05, 0.2):
            for mu_b in rates:
                # The smallest success count at or above the critical region.
                k = math.ceil(n * mu_b + norm.isf(alpha) * math.sqrt(n * mu_b * (1.0 - mu_b)))
                for mu0 in rates:
                    exact = binom.sf(k - 1, n, mu0)
                    approx = normal_pass(alpha, mu0, n, mu_b)
                    gap = abs(approx - exact)
                    if gap > worst:
                        worst, worst_at = gap, (n, alpha, mu_b, mu0)
    ok = worst <= 0.05
    line = report(
        "criterion 6 (normal approximation accuracy)",
        ok,
        f"worst |approx - exact| {worst:.4f} at (n, alpha, mu_b, mu0)={worst_at} "
        f"(allowed 0.05)",
    )
    assert ok, line


def test_criterion_7_special_function_accuracy():
    """Quantile round trip, a pinned CDF value, and prior normalisation."""
    roundtrip = max(
        abs(std_normal_cdf(std_normal_quantile(i / 2000.0)) - i / 2000.0)
        for i in range(1, 2000)
    )
    cdf_gap = abs(std_normal_cdf(1.6448536) - 0.95)
    prior = TruncatedNormalPrior(mean=0.62, sd=0.04, lo=0.4, hi=0.7)
    mass_gap = abs(simpson(prior.pdf, 0.4, 0.7, 2000) - 1.0)
    ok = roundtrip <= 1e-9 and cdf_gap <= 1e-7 and mass_gap <= 1e-8
    line = report(
        "criterion 7 (special-function accuracy)",
        ok,
        f"roundtrip {roundtrip:.1e} (allowed 1e-9); cdf(1.6448536) off by {cdf_gap:.1e} "
        f"(allowed 1e-7); prior mass off by {mass_gap:.1e} (allowed 1e-8)",
    )
    assert ok, line


def test_criterion_8_repeated_runs_are_byte_identical(tmp_path):
    """Two CLI runs of the bundled cardiovascular preset emit equal bytes."""

    def run(command: str, destination) -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "trialgame", command, "--config", "cardiovascular",
             "--output", str(destination), "--quiet"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return destination.read_bytes()

    sweep_a = run("loss-sweep", tmp_path / "sweep-a.csv")
    sweep_b = run("loss-sweep", tmp_path / "sweep-b.csv")
    heat_a = run("heatmap", tmp_path / "heat-a.csv")
    heat_b = run("heatmap", tmp_path / "heat-b.csv")
    sweep_ok = sweep_a == sweep_b
    heat_ok = heat_a == heat_b
    headers_ok = sweep_a.startswith(
        b"alpha,mu_tau,fp_particip,fn_particip,fn_abstain,fn_total,total_loss\n"
    ) and heat_a.startswith(b"R,c0,alpha_hat,clamped,alpha_hat_le_0_05\n")
    clean_text = b"\r" not in sweep_a and b"\r" not in heat_a
    ok = sweep_ok and heat_ok and headers_ok and clean_text
    line = report(
        "criterion 8 (byte-identical reruns)",
        ok,
        f"loss-sweep {len(sweep_a)} bytes identical: {sweep_ok}; "
        f"heatmap {len(heat_a)} bytes identical: {heat_ok}; headers pinned: {headers_ok}",
    )
    assert ok, line


def test_criterion_9a_false_positives_vanish_below_alpha_hat_and_never_fall_above():
    """fp_particip is exactly 0 below alpha_hat and never falls above it.

    Below the critical level no weak belief pays.  Above it, raising alpha
    lowers ``d``, so ``n_min``'s pay set at alpha lies inside its pay set at
    any higher level and its pass chance rises at every belief: the
    integrand and its domain both grow over a fixed weak mass.  The weak
    side is integrated to 1e-13 relative, so a fall of more than 1e-12
    relative fails.  ``fp_particip`` reads no Simpson panels, so 10 do.
    """
    quad = QuadratureSpec(10)
    started = time.monotonic()
    cases = []
    for name in ("cardiovascular", "oncology", "vaccine",
                 "fn-curves-053", "fn-curves-062", "fn-curves-067"):
        cfg = load_config(preset_path(name))
        alpha_hat = critical_alpha(cfg.instance).alpha_hat
        near = {alpha_hat * (1.0 + s) for s in (-1e-3, -1e-9, 1e-9, 1e-3)}
        cases.append((cfg.instance, cfg.prior, sorted(near.union(cfg.alpha_grid))))
    # Seeded instances: baselines above 0.6, and cheapest-trial shares k on
    # both sides of 1/2, where n_min's pay set is one interval or two ends.
    rng = random.Random(9)
    high_baseline = k_above_half = 0
    while len(cases) < 6 + 300:
        mu_b = rng.uniform(0.05, 0.95)
        n_min = rng.randrange(1, 51)
        k = rng.choice((10.0 ** rng.uniform(-3.0, math.log10(0.5)), rng.uniform(0.5, 0.95)))
        R = 10.0 ** rng.uniform(0.0, 3.0)
        c = k * R * rng.random() / n_min
        inst = EconomicInstance(R, k * R - c * n_min, c, mu_b, n_min, n_min + rng.randrange(10, 5000))
        critical = critical_alpha(inst)
        if critical.status != "interior":
            continue
        prior = TruncatedNormalPrior(
            mu_b + rng.uniform(-0.15, 0.15), rng.uniform(0.02, 0.3),
            mu_b * rng.uniform(0.01, 0.9), mu_b + (1.0 - mu_b) * rng.uniform(0.1, 0.99),
        )
        near = {critical.alpha_hat * (1.0 + s) for s in (-1e-3, -1e-9, 1e-9, 1e-3)}
        spread = {10.0 ** rng.uniform(-4.0, math.log10(1.0 - 1e-6)) for _ in range(30)}
        close = {critical.alpha_hat * (1.0 + rng.uniform(0.0, 0.5)) for _ in range(26)}
        grid = sorted(a for a in near | spread | close if a < 1.0)
        high_baseline += mu_b > 0.6
        k_above_half += k > 0.5
        cases.append((inst, prior, grid))
    nonzero_below = falls = steps = escapes = two_piece = 0
    for inst, prior, grid in cases:
        alpha_hat = critical_alpha(inst).alpha_hat
        previous = previous_pieces = None
        for alpha in grid:
            fp = loss_components(alpha, inst, prior, quad).fp_particip
            if alpha < alpha_hat:
                nonzero_below += fp != 0.0
            elif previous is not None and previous[0] >= alpha_hat:
                steps += 1
                falls += fp < previous[1] * (1.0 - 1e-12)
            # The reason: each of n_min's pay pieces lies inside one at the next level.
            pieces = _pay_interval(_level(alpha, inst), inst.n_min)
            two_piece += len(pieces) == 2
            if previous_pieces is not None:
                escapes += sum(
                    not any(lo2 <= lo and hi <= hi2 for lo2, hi2 in pieces)
                    for lo, hi in previous_pieces
                )
            previous, previous_pieces = (alpha, fp), pieces
    elapsed = time.monotonic() - started
    ok = (nonzero_below == falls == escapes == 0 and high_baseline and k_above_half
          and two_piece and elapsed < 60.0)
    line = report(
        "criterion 9a (false positives vanish below alpha_hat, never fall above)",
        ok,
        f"{len(cases)} instances ({high_baseline} with mu_b > 0.6, {k_above_half} with k > 1/2): "
        f"{nonzero_below} non-zero below alpha_hat, {falls} falls in {steps} steps above, "
        f"{escapes} pay pieces leaving the next level's ({two_piece} two-piece sets); {elapsed:.1f}s",
    )
    assert ok, line
