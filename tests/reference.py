"""Test oracles for the applicant model and the regulator's loss.

The applicant-model oracles are the slope of expected profit, the curvature
partition of the trial-size range, and the critical level found by
evaluating the weak-belief maximand at its peak.  They are restated here
from the model's formulas rather than imported from ``trialgame``, so a test
that checks the solver against them checks it against an independent
derivation.  They are plain oracles: arguments are not validated, the slope
and the partition apply only on the effective side ``mu0 > mu_b``, and the
critical level only where ``(c0 + c * n_min) / R`` lies in ``(0, 1/2)``.

Four helpers are not restated.  :func:`normal_pass` is the kernel's own
scorer, ``agent._score``, at a unit instance: the model's normal-approximation
pass chance, with the kernel's bits.  :func:`grid_optimal_alpha` searches the
package's own loss (``sweep_alpha``) on a uniform grid of levels, so it pins
where the least loss sits, not what the loss is.  :func:`participation_set`
merges the package's closed-form pay sets, one per admissible size, and asks
no best response, so it is independent of the kernel and the threshold
search it checks.  :func:`record_sweep_calls` records the kernel's own calls
for replay, and :func:`count_kernel_math` counts what they ask of ``math``.

:func:`simpson` is the composite rule the loss applies to its effective
side, in the loss's summation order.

The exact binomial test that the model approximates is restated too, from
the standard library alone: :func:`exact_critical_count` and
:func:`exact_binomial_pass` let a test measure where the approximation is
thin.
"""

import math
import types
from typing import NamedTuple

from trialgame import DEFAULT_EPS, agent, critical_alpha, load_config, loss, preset_path, sweep_alpha, thresholds
from trialgame.agent import EconomicInstance, _level, _score
from trialgame.stats import std_normal_quantile, std_normal_sf
from trialgame.thresholds import _pay_interval


def normal_pass(alpha, mu0, n, mu_b):
    """The kernel's pass chance of ``n`` samples at belief ``mu0``, scored at a unit instance."""
    return _score(_level(alpha, EconomicInstance(1.0, 0.0, 0.0, mu_b)), mu0, n)[1]


def _binomial_tail(n, p, k):
    """``P(X >= k)`` for ``X ~ Binomial(n, p)``, summed term by term."""
    ln_p, ln_q, ln_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    return math.fsum(math.exp(ln_n - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * ln_p + (n - j) * ln_q)
                     for j in range(k, n + 1))


def exact_critical_count(alpha, n, mu_b):
    """Least success count ``k`` with ``P(X >= k | mu_b) <= alpha``: the exact size-``alpha`` test's.

    ``n + 1``, which no trial reaches, where no count of ``n`` samples is
    rare enough.  At a tie, ``P(X >= k | mu_b) == alpha``, the count turns
    on the rounding of the tail's sum.
    """
    lo, hi = 0, n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _binomial_tail(n, mu_b, mid) <= alpha:
            hi = mid
        else:
            lo = mid + 1
    return lo


def exact_binomial_pass(alpha, mu0, n, mu_b):
    """Chance that ``n`` samples at rate ``mu0`` reach the exact size-``alpha`` test's critical count."""
    return _binomial_tail(n, mu0, exact_critical_count(alpha, n, mu_b))


class CurvatureRegion(NamedTuple):
    """Maximal interval of trial sizes with a single curvature sign."""

    n_lo: float
    n_hi: float
    shape: str  # "concave" or "convex"


def utility_slope(alpha, mu0, n, inst):
    """Derivative of expected profit with respect to a real-valued ``n``."""
    d = -std_normal_quantile(alpha)
    dmu = mu0 - inst.mu_b
    sigma0 = math.sqrt(mu0 * (1.0 - mu0))
    sigma_b = math.sqrt(inst.mu_b * (1.0 - inst.mu_b))
    rootn = math.sqrt(n)
    v = (d * sigma_b - dmu * rootn) / sigma0
    pdf = 1.0 / math.sqrt(2.0 * math.pi) * math.exp(-0.5 * v * v)  # the normal density
    return pdf * inst.R * dmu / (2.0 * sigma0 * rootn) - inst.c


def convex_window(alpha, mu0, inst):
    """Real sizes ``(n1, n2)`` bounding the window where expected profit is convex in ``n``.

    With ``v(n) = (d*s_b - dmu*sqrt(n)) / s_0`` the second derivative of
    expected profit has, in ``t = sqrt(n)``, the sign of the quadratic
    ``t^2 - (d*s_b/dmu)*t + s_0^2/dmu^2`` (positive means concave).  When
    its roots are real and positive they bound the window; otherwise there
    is none, reported as ``(0.0, 0.0)``.  Takes ``mu0 > mu_b``.
    """
    dmu = mu0 - inst.mu_b
    b = -std_normal_quantile(alpha) * math.sqrt(inst.mu_b * (1.0 - inst.mu_b)) / dmu
    disc = b * b - 4.0 * mu0 * (1.0 - mu0) / (dmu * dmu)
    if b > 0.0 and disc > 0.0:
        return ((b - math.sqrt(disc)) / 2.0) ** 2, ((b + math.sqrt(disc)) / 2.0) ** 2
    return 0.0, 0.0


def curvature_regions(alpha, mu0, inst):
    """Ordered, contiguous partition of [n_min, n_max] by the curvature of expected profit.

    The convex window of :func:`convex_window` splits the range into at most
    a concave, a convex and a concave piece.
    """
    n1, n2 = convex_window(alpha, mu0, inst)
    lo, hi = float(inst.n_min), float(inst.n_max)
    regions, a = [], lo
    for end, shape in ((n1, "concave"), (n2, "convex"), (hi, "concave")):
        end = min(end, hi)
        if a < end:
            regions.append(CurvatureRegion(a, end, shape))
            a = end
    # Degenerate n_min = n_max: classify the single admissible size.
    return tuple(regions) or (CurvatureRegion(lo, hi, "convex" if n1 < lo < n2 else "concave"),)


def peak_critical_alpha(inst):
    """Unclamped critical level, ``sf`` of the weak-belief maximand at its peak.

    A weak belief ``mu`` enters at ``alpha`` when ``Phi^{-1}(1 - alpha) <=
    g(mu) = (z s(mu) - (mu_b - mu) sqrt(n_min)) / s(mu_b)``.  For ``k < 1/2``
    the maximand is concave and peaks at ``(1 + sqrt(n_min / (z^2 +
    n_min))) / 2``; over ``[BELIEF_FLOOR, mu_b]`` it is largest there or, if
    the peak lies beyond ``mu_b``, at ``mu_b``.
    """
    k = (inst.c0 + inst.c * inst.n_min) / inst.R
    z = -std_normal_quantile(k)
    mu_b, root_n = inst.mu_b, math.sqrt(inst.n_min)

    def g(mu):
        return (z * math.sqrt(mu * (1.0 - mu)) - (mu_b - mu) * root_n) / math.sqrt(mu_b * (1.0 - mu_b))

    return std_normal_sf(g(min(0.5 * (1.0 + root_n / math.sqrt(z * z + inst.n_min)), mu_b)))


def grid_optimal_alpha(inst, prior, weights, quad):
    """Least-loss level among 100 evenly spaced in ``[alpha_hat, 1 - DEFAULT_EPS]``.

    Below the critical level the false-positive channel is flat at zero
    while missed approvals only grow, so the grid starts at ``alpha_hat``.
    Ties resolve to the smaller level.
    """
    a0 = critical_alpha(inst).alpha_hat
    step = (1.0 - DEFAULT_EPS - a0) / 99
    grid = [a0 + i * step for i in range(100)]
    losses = [b.total for b in sweep_alpha(grid, inst, prior, weights, quad)]
    return grid[losses.index(min(losses))]


def simpson(f, a, b, panels):
    """Composite Simpson integral of ``f`` on ``[a, b]`` over ``panels`` panels; 0 on an empty interval.

    ``loss_components`` sums its effective-side nodes in this order, ``f(a) +
    f(b)`` and then the interior upwards, so a test can rebuild its sum bit
    for bit.
    """
    if b <= a:
        return 0.0
    h = (b - a) / panels
    total = f(a) + f(b)
    for i in range(1, panels):
        total += f(a + i * h) * (4.0 if i % 2 else 2.0)
    return total * h / 3.0


def participation_set(alpha, inst):
    """Beliefs that participate at ``alpha``, as sorted disjoint pieces ``(lo, hi)``.

    Abstaining earns exactly 0 and a tie with 0 goes to participating, so a
    belief participates exactly when some admissible size pays.  The set is
    the union of ``_pay_interval`` over every size in ``[n_min, n_max]``,
    with pieces that touch or overlap merged.  It asks no best response.
    """
    level = _level(alpha, inst)
    merged = []
    for lo, hi in sorted(p for n in range(inst.n_min, inst.n_max + 1) for p in _pay_interval(level, n)):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def record_sweep_calls(presets, stride):
    """Every kernel call of every ``stride``-th row of each preset's sweep.

    The calls are recorded where ``loss`` and ``thresholds`` make them, as
    ``(level, mu, hint, answer)`` in the order made, so a test can replay
    them with ``agent._respond``.  A row with an effective piece, one whose
    ``fn_particip`` is not 0, must make all ``panels + 1`` of its Simpson
    nodes' calls through the name ``loss._respond``: a kernel the loss
    reached by another name would escape this recorder and every test that
    swaps that name.
    """
    calls, nodes, real = [], [], agent._respond

    def recorded(level, mu, hint=0):
        answer = real(level, mu, hint)
        calls.append((level, mu, hint, answer))
        return answer

    def recorded_node(level, mu, hint=0):
        nodes.append(mu)
        return recorded(level, mu, hint)

    thresholds._respond, loss._respond = recorded, recorded_node
    try:
        for preset in presets:
            cfg = load_config(preset_path(preset))
            for alpha in cfg.alpha_grid[::stride]:
                nodes.clear()
                row = loss.loss_components(alpha, cfg.instance, cfg.prior, cfg.quadrature, cfg.weights)
                assert len(nodes) in (0, cfg.quadrature.panels + 1) and (nodes or not row.fn_particip), (
                    preset, alpha, len(nodes))
    finally:
        thresholds._respond = loss._respond = real
    return calls


class KernelMath:
    """What ``agent``'s math module was asked since the last :meth:`clear`.

    ``erfc`` and ``log`` count calls.  ``events`` lists, in order, each
    integer that ``sqrt`` is taken of, a size the kernel scores or a piece
    end it starts Newton from, and ``None`` for each ``log``.
    """

    def __init__(self):
        self.clear()

    def clear(self):
        self.erfc = self.log = 0
        self.events = []

    @property
    def sizes(self):
        return [x for x in self.events if x is not None]


def count_kernel_math(monkeypatch):
    """Swap ``agent.math`` for a counting copy; return its :class:`KernelMath`.

    The kernel reaches ``erfc``, ``log`` and ``sqrt`` through its module's
    ``math``, so the counts see every call, whatever name the kernel was
    called by.
    """
    counts = KernelMath()

    def erfc(x):
        counts.erfc += 1
        return math.erfc(x)

    def log(x):
        counts.log += 1
        counts.events.append(None)
        return math.log(x)

    def sqrt(x):
        if isinstance(x, int):
            counts.events.append(x)
        return math.sqrt(x)

    monkeypatch.setattr(agent, "math", types.SimpleNamespace(
        **{**vars(math), "erfc": erfc, "log": log, "sqrt": sqrt}))
    return counts
