"""Applicant-side model: trial economics, pass probability, best response.

An applicant with private success probability ``mu0`` faces a one-sided
approval test: run ``n`` samples and pass when the observed success count
clears the critical region of a size-``alpha`` binomial test against a
baseline rate ``mu_b``.  Under the normal approximation the pass chance is

    pass(alpha, mu0, n) = 1 - Phi(d * s_b / s_0 - (mu0 - mu_b) * sqrt(n) / s_0)

with ``d = Phi^{-1}(1 - alpha)`` and ``s_b``, ``s_0`` the Bernoulli standard
deviations at ``mu_b`` and ``mu0``.  Utility is revenue times pass chance
minus a fixed cost and a per-sample cost; abstaining earns exactly zero.

The expected-utility curve over real-valued ``n`` is pieced together from
at most three curvature regions (the sign of the second derivative is
governed by a quadratic in ``sqrt(n)``).  On each concave region the
first-order condition, a zero slope of expected profit in ``n``, has at most
one root, which a bracketed Newton iteration in ``sqrt(n)`` finds from
logarithms alone, with no normal tail evaluated.  The integer optimum lies
within a sample of that root, so the best response scores a handful of sizes
around each root plus the ends of the convex region, and nothing else.  The
pieces are walked from the top down, largest size first, and ties go to the
smaller size.  On the effective side the pass chance never falls as ``n``
grows, so the pass chance of a size that does not win bounds every smaller
size, and the walk stops as soon as that bound leaves them no chance.  What
depends only on the level, the root's ``ln R - ln c`` among it, is set up once
by ``_level``; the threshold and the loss integrals then ask ``_respond`` for
each belief.  A single best response at a weak belief, or with one admissible
size, scores ``n_min`` straight from the instance and builds no level.  The
exhaustive scan is retained as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SearchRangeError, reject
from .stats import _SQRT2, finite, std_normal_quantile

# Beliefs are clamped away from {0, 1} so the Bernoulli variance never
# degenerates inside the solvers.
BELIEF_FLOOR = 1e-6
BELIEF_CEIL = 1.0 - 1e-6

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _is_int(x) -> bool:
    """Whether ``x`` is an integer a float can hold, counting no bool as one."""
    return isinstance(x, int) and not isinstance(x, bool) and finite(x)


@dataclass(frozen=True, slots=True)
class EconomicInstance:
    """Economics of one approval problem.

    ``R`` is the revenue on approval, ``c0`` the fixed cost of running any
    trial at all, ``c`` the marginal cost per sample, ``mu_b`` the baseline
    success rate the test is sized against, and ``[n_min, n_max]`` the
    admissible trial sizes.  All monetary fields share one arbitrary unit.
    """

    R: float
    c0: float
    c: float
    mu_b: float
    n_min: int = 1
    n_max: int = 100_000

    def __post_init__(self) -> None:
        problems = []
        if not (self.R > 0.0 and finite(self.R)):
            problems.append(f"R must be a positive finite number, got {self.R!r}")
        if not (self.c0 >= 0.0 and finite(self.c0)):
            problems.append(f"c0 must be a nonnegative finite number, got {self.c0!r}")
        if not (self.c >= 0.0 and finite(self.c)):
            problems.append(f"c must be a nonnegative finite number, got {self.c!r}")
        if not 0.0 < self.mu_b < 1.0:
            problems.append(f"mu_b must lie strictly between 0 and 1, got {self.mu_b!r}")
        # One problem per size: a size that is no integer gets no range rule.
        whole = _is_int(self.n_min)
        if not whole:
            problems.append(f"n_min must be an integer, got {self.n_min!r}")
        elif self.n_min < 1:
            problems.append(f"n_min must be at least 1, got {self.n_min!r}")
        if not _is_int(self.n_max):
            problems.append(f"n_max must be an integer, got {self.n_max!r}")
        elif whole and self.n_max < self.n_min:
            problems.append(f"n_max must be >= n_min, got {self.n_max!r}")
        reject(self, problems)


# Results are plain slotted records, not frozen ones: a frozen dataclass sets
# each field through object.__setattr__, about 0.7 us a record against 0.2 us,
# and a weak-belief best response takes about 0.8 us in all (Python 3.11).
# The solvers' inputs stay frozen and hashable.
@dataclass(slots=True)
class BestResponse:
    """Outcome of the applicant's participation and trial-size choice."""

    participates: bool
    n_star: int
    pass_prob: float
    utility: float


def _check_belief(mu0: float) -> None:
    if not (BELIEF_FLOOR <= mu0 <= BELIEF_CEIL):
        raise DomainError(
            f"belief must lie within [{BELIEF_FLOOR}, {BELIEF_CEIL}], got {mu0!r}"
        )


def pass_probability(alpha: float, mu0: float, n: int, mu_b: float) -> float:
    """Chance that a trial of size ``n`` clears the test, believed rate ``mu0``.

    Scored at the level of ``EconomicInstance(1.0, 0.0, 0.0, mu_b)``, which
    reports a bad ``mu_b``.  Running no trial never passes, so ``n = 0`` maps
    to exactly zero.
    """
    level = _level(alpha, EconomicInstance(1.0, 0.0, 0.0, mu_b))
    _check_belief(mu0)
    if not (n >= 0 and finite(n)):
        raise DomainError(f"sample count must be a nonnegative finite number, got {n!r}")
    return _score(level, mu0, n)[1] if n else 0.0


def utility(alpha: float, mu0: float, n: int, inst: EconomicInstance) -> float:
    """Expected profit of ``n`` samples at a checked level and belief; ``n = 0`` earns 0."""
    level = _level(alpha, inst)
    _check_belief(mu0)
    if n == 0:
        return 0.0
    if not (inst.n_min <= n <= inst.n_max):
        raise DomainError(
            f"sample count must be 0 or within [{inst.n_min}, {inst.n_max}], got {n!r}"
        )
    return _score(level, mu0, n)[0]


def _ds(alpha: float, mu_b: float) -> float:
    """Checked ``alpha``'s ``d * s_b``, with ``d = Phi^{-1}(1 - alpha) = -Phi^{-1}(alpha)``.

    ``d`` is taken in the second form so that a small ``alpha`` is not
    rounded away in ``1 - alpha``, and ``s_b = sqrt(mu_b * (1 - mu_b))``.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"significance level must lie strictly between 0 and 1, got {alpha!r}")
    return -std_normal_quantile(alpha) * math.sqrt(mu_b * (1.0 - mu_b))


def _level(alpha: float, inst: EconomicInstance) -> tuple:
    """Checked ``alpha`` and the best response's belief-independent constants.

    ``(mu_b, d * s_b, R, c0, c, n_min, n_max, ln R - ln c - ln sqrt(2*pi),
    c0 + c*n_min, 1e-12*R)``, with ``d * s_b`` from :func:`_ds`.  The log
    term is ``inf`` when ``c = 0``, and no positive ``R`` or ``c`` overflows
    it, as each is logged on its own.  The last two are the cheapest trial's
    cost and the walk's margin.
    """
    mu_b, R, c = inst.mu_b, inst.R, inst.c
    ds = _ds(alpha, mu_b)
    k_level = math.log(R) - math.log(c) - _LOG_SQRT_2PI if c else math.inf
    return mu_b, ds, R, inst.c0, c, inst.n_min, inst.n_max, k_level, inst.c0 + c * inst.n_min, 1e-12 * R


def _score(level: tuple, mu0: float, n) -> tuple[float, float]:
    """``(utility, pass_prob)`` of ``n`` samples at belief ``mu0`` and a :func:`_level`.

    Reads the first five entries of a level.  :func:`_respond`'s walk, hint
    check and one-size branch, and :func:`best_response`'s one-size path,
    inline it, bit for bit: a call per size made a ``cardiovascular`` sweep
    slice and 20,000 best-response queries about 20% slower (Python 3.11).
    """
    mu_b, ds, R, c0, c = level[:5]
    p = 0.5 * math.erfc((ds - (mu0 - mu_b) * math.sqrt(n)) / math.sqrt(mu0 * (1.0 - mu0)) / _SQRT2)
    return R * p - (c0 + c * n), p


def _respond(level: tuple, mu0: float, hint: int = 0) -> tuple[float, int, float]:
    """:func:`best_response` at a :func:`_level` as ``(utility, n_star, pass_prob)``.

    Abstaining is ``(0.0, 0, 0.0)``.  A weak belief, or a single admissible
    size, scores ``n_min`` alone.  Otherwise ``[n_min, n_max]`` is cut into
    pieces by the window ``(n1, n2)`` where the utility is convex, and the
    pieces are walked from the top down; each candidate size is scored as it
    comes, and a size not below the one scored before it is skipped.  With
    ``v(n) = (d*s_b - dmu*sqrt(n)) / s_0``, the second derivative of expected
    profit has the sign of ``v*dmu*sqrt(n)/s_0 - 1``, so in ``t = sqrt(n)``
    the window lies between the roots of ``t^2 - (ds/dmu)*t + s_0^2/dmu^2``,
    whose product is positive: two positive roots, or no window at all.  A
    concave piece offers the sizes from ``floor(root) + 2`` down to
    ``floor(root) - 1`` within it, where ``root`` is the real size at which
    the slope of expected profit vanishes.  A convex piece offers its top
    end, then its bottom end.  A size whose utility ties the best replaces
    it, so the smallest of equal utilities wins.  Sizes are scored as
    :func:`_score` scores them: the walk, the hint check and the one-size
    branch inline it for speed, and the flat-top probe calls it.

    No size below ``n`` passes more often than ``n`` or costs less than
    ``n_min``.  So once a size that does not become the best has ``R*p(n) -
    (c0 + c*n_min)`` short of the best utility by more than ``1e-12*R``,
    nothing left can win or tie, and the walk stops.  Every size up to
    ``n2`` has ``sqrt(n) <= ds/dmu``, so ``v >= 0`` and a pass chance of at
    most 1/2; the walk therefore also stops before the convex piece, without
    scoring its top, once ``R/2 - (c0 + c*n_min)`` is short by that margin.
    ``below``, the first size scored after the best, is the largest scored
    size under it; the flat-top probe (participants only) skips ``best_n -
    1`` if it is ``below``.

    In ``t = sqrt(n)``, ``h(t) = ln((slope + c) / c) = k - v^2/2 - ln t``
    has the sign of the slope, with ``v = (ds - dmu*t)/s_0`` and ``k =
    ln(R*dmu/(2*s_0*c)) - ln sqrt(2*pi)``, the level's log term plus
    ``ln(dmu/(2*s_0))``.  On a concave piece ``h'(t) = v*dmu/s_0 - 1/t < 0``,
    so ``h`` has at most one root.  If ``h <= 0`` at the piece's start, the
    start is the root.  Otherwise Newton steps start where ``h`` would vanish
    if ``ln t`` kept its value there; ``h = ln t_lo - ln t <= 0`` at that
    start, so the root lies below it, and only a start at or past the
    piece's top end asks whether ``h`` stays positive up to that end, which
    is then the root.  Each step is replaced by bisection if it would leave
    the bracket, until one moves ``n`` by less than a quarter sample.  On
    the top piece ``t >= sqrt(n2) >= s_0/dmu``, so ``h`` is concave and
    every Newton step, from any start, ends at or above the root: where no
    step was bisected and ``c > 1e-12*R`` (below that the utility is flat at
    float resolution), the window there reaches only ``floor(root) + 1``.

    A ``hint`` is a guess at the answer: ``loss_components`` passes the size
    extrapolated from its two previous nodes, and every other caller passes
    none (0).  On the first piece walked, if it is concave, the hint is
    checked before Newton: ``hint`` and ``hint + 1`` are scored, then sizes
    on towards the higher of the two while the utility rises, six sizes at
    most.  The exact utility is concave in ``n`` there, so a size whose
    computed utility beats both neighbours' by more than the margin
    ``1e-12*R`` is the piece's best, and the walk would take it with the
    same bits, as long as the margin is above twice the rounding error of a
    computed utility.  That error is about
    ``2**-53 * (R*(0.8*ds/s_0 + 10) + 2*(c0 + c*n))``, the ``ds/s_0`` term
    from the rounding of the erfc argument; so the check takes only a size
    of nonnegative utility (its cost is at most ``R``, and that of a size
    within three of it at most ``2R``), and only where ``ds < 4000*s_0``,
    which keeps the error below ``4e-13*R``.  It also needs both neighbours
    strictly inside the piece.  The walk then goes on as if it had scored
    the size's window, with ``below`` and ``last`` the size under it, where
    the stop bound is tried.  Where the utility is flat at float resolution,
    sizes tie within ulps of ``R`` and none clears the margin.  A hint that
    is not certified plays no further part, so a hint moves no answer.  On
    every 8th row of the ``cardiovascular`` and ``fn-curves-062`` sweeps the
    check certifies 90% and 97% of the effective calls, and Newton steps per
    call fall from 3.3 unhinted to 0.45 and 0.07.

    ``mu0`` is not checked: :func:`best_response` checks it once, and the
    other callers (``thresholds._threshold`` and ``_bracket``, the loss
    integrands) only pass beliefs in ``[BELIEF_FLOOR, BELIEF_CEIL]``.
    """
    mu_b, ds, R, c0, c, n_min, n_max, k_level, cost_min, margin = level
    var0 = mu0 * (1.0 - mu0)
    sigma0 = math.sqrt(var0)
    dmu = mu0 - mu_b
    if dmu <= 0.0 or n_min == n_max:
        p = 0.5 * math.erfc((ds - dmu * math.sqrt(n_min)) / sigma0 / _SQRT2)
        u = R * p - cost_min
        return (u, n_min, p) if u >= 0.0 else (0.0, 0, 0.0)
    k = k_level + math.log(dmu / (2.0 * sigma0))  # inf without a per-sample cost
    disc = ds * ds - 4.0 * var0
    n1 = n2 = 0.0
    if disc > 0.0 and ds > 0.0:
        t2 = (ds + math.sqrt(disc)) / (2.0 * dmu)
        t1 = (var0 / (dmu * dmu)) / t2
        n1, n2 = t1 * t1, t2 * t2
    best_n, best_u, best_p, last, below, hi = 0, -math.inf, 0.0, n_max + 1, 0, n_max
    # The pieces start at n2, n1 and n_min, clipped to the range.  One of
    # positive length is walked, and the next piece ends at its start.  A
    # piece's second entry is how far above the root its window reaches, and
    # 0 marks the convex piece; above a convex window h is concave.
    top = 1 if n2 and c > margin else 2
    for a_real, up in ((n2, top), (n1, 0), (n_min, 2)):
        if a_real < n_min:
            a_real = n_min
        if not a_real < hi:
            continue
        a, b = math.ceil(a_real), math.floor(hi)
        hi = a_real
        if not up:
            # Every size left has v >= 0, so a pass chance of at most 1/2.
            if R * 0.5 - cost_min < best_u - margin:
                break
            window = (b, a) if a <= b else ()
        else:
            if hint and last > n_max and ds < 4e3 * sigma0:
                # Nothing is scored yet.  Score hint, then hint + 1, then walk
                # on towards the higher of the two while the utility rises.  A
                # size of nonnegative utility that beats both neighbours by more
                # than the margin is this piece's best: take it as its window
                # would, try the stop bound at the size under it, and go on.
                n, step, u_m, p_m = hint, 1, -math.inf, 0.0
                for _ in range(6):
                    if not a < n < b:
                        break
                    p = 0.5 * math.erfc((ds - dmu * math.sqrt(n)) / sigma0 / _SQRT2)
                    u = R * p - (c0 + c * n)
                    if u > u_m:
                        m, u_m, p_m, u_pre, p_pre = n, u, p, u_m, p_m
                    elif n == hint + 1:
                        step, n, u_pre, p_pre = -1, hint, u, p
                    else:
                        if u_m - margin > u and u_m - margin > u_pre and u_m >= 0.0:
                            best_n, best_u, best_p = m, u_m, p_m
                            below = last = m - 1
                            if R * (p_pre if step > 0 else p) - cost_min < best_u - margin:
                                hi = n_min
                        break
                    n += step
                if best_n:
                    continue
            t_lo = math.sqrt(a)
            v = (ds - dmu * t_lo) / sigma0
            h_lo = k - 0.5 * v * v - math.log(t_lo)
            if h_lo <= 0.0:
                root = a
            else:
                # h <= 0 at this start, so the root lies below it, and the top
                # end can be the root only when the start reaches it.
                t = (ds + sigma0 * math.sqrt(2.0 * h_lo + v * v)) / dmu
                t_hi = math.sqrt(b)
                if not t < t_hi and (
                        k - 0.5 * (v_hi := (ds - dmu * t_hi) / sigma0) * v_hi - math.log(t_hi) >= 0.0):
                    root = b
                else:
                    if not t_lo < t < t_hi:
                        t = 0.5 * (t_lo + t_hi)
                    while True:
                        v = (ds - dmu * t) / sigma0
                        h = k - 0.5 * v * v - math.log(t)
                        if h > 0.0:
                            t_lo = t
                        else:
                            t_hi = t
                        t_next = t - h / (v * dmu / sigma0 - 1.0 / t)
                        if not t_lo < t_next < t_hi:
                            t_next, up = 0.5 * (t_lo + t_hi), 2
                        if abs(t_next * t_next - t * t) < 0.25:
                            break
                        t = t_next
                    root = math.floor(t_next * t_next)
            window = range(root + up if root + up < b else b, (root - 1 if root - 1 > a else a) - 1, -1)
        for n in window:
            if n < last:
                p = 0.5 * math.erfc((ds - dmu * math.sqrt(n)) / sigma0 / _SQRT2)
                u = R * p - (c0 + c * n)
                if u >= best_u:
                    best_n, best_u, best_p, below = n, u, p, 0
                else:
                    if not below:
                        below = n
                    # Nothing smaller can reach best_u, so nothing is left to
                    # walk.  The margin covers an ``erfc`` that misses
                    # monotonicity by an ulp.
                    if R * p - cost_min < best_u - margin:
                        hi = n_min
                        break
                last = n
    if best_u < 0.0:
        return 0.0, 0, 0.0
    # A scored size below best_n scored strictly less.  An unscored one that
    # ties marks a flat top (the pass chance rounded to its limit), which the
    # utility rises to and stays on: bisect for its first size, probing
    # best_n - 1 first unless it was scored, that is, unless it is ``below``.
    lo_n, n = n_min, best_n - 1
    if best_n > n_min and below != n:
        while lo_n < best_n:
            u, p = _score(level, mu0, n)
            if u == best_u:
                best_n, best_p = n, p
            else:
                lo_n = n + 1
            n = (lo_n + best_n) // 2
    return best_u, best_n, best_p


def best_response(alpha: float, mu0: float, inst: EconomicInstance) -> BestResponse:
    """Participation decision and optimal integer trial size.

    On the weak side (``mu0 <= mu_b``) more samples only hurt, so the only
    candidate is ``n_min``.  On the effective side the curvature partition
    splits ``[n_min, n_max]`` into concave and convex spans.  A convex span
    peaks at an end; a concave one peaks within a sample of the ``root``
    where the slope of expected profit vanishes (found in :func:`_respond`),
    so the sizes from ``floor(root) - 1`` to ``floor(root) + 2`` that lie in
    the span are scored (above a convex span only up to ``floor(root) + 1``,
    unless a Newton step was bisected or ``c <= 1e-12*R``), and the winner's
    pass chance is kept, not recomputed.

    Exact utility ties resolve to the smaller trial size, and a tie with
    zero resolves to participating.  Where the pass chance rounds to its
    limit the utility is flat in floating point (always so far enough out
    when ``c = 0``); the answer is then the smallest size whose utility
    equals the best, found by bisection.

    Where ``c / R`` is near the float resolution (``c`` in [1e-14, 1e-9]
    with ``R`` up to 1,000) the utility is flat or noisy over several sizes
    near the root, so ``n_star`` can miss the scan's by a few samples, with
    a utility at most an ulp or two of ``R`` lower.

    A weak belief, or a single admissible size, is answered from the
    instance: ``n_min`` is scored with the operations of :func:`_respond`'s
    one-size branch, so the bits are the kernel's, and no :func:`_level` is
    built, whose slope constant only the walk reads.  Such queries are more
    than half of a uniform query stream, and answering them so cut its
    median query time by more than a quarter (Python 3.11, 2-CPU host).
    ``alpha`` is still checked before a numeric belief.
    """
    mu_b, n_min = inst.mu_b, inst.n_min
    if mu0 <= mu_b or n_min == inst.n_max:
        ds = _ds(alpha, mu_b)
        _check_belief(mu0)
        p = 0.5 * math.erfc((ds - (mu0 - mu_b) * math.sqrt(n_min)) / math.sqrt(mu0 * (1.0 - mu0)) / _SQRT2)
        u = inst.R * p - (inst.c0 + inst.c * n_min)
        return BestResponse(True, n_min, p, u) if u >= 0.0 else BestResponse(False, 0, 0.0, 0.0)
    level = _level(alpha, inst)
    _check_belief(mu0)
    u, n_star, p = _respond(level, mu0)
    return BestResponse(n_star > 0, n_star, p, u)


def best_response_bruteforce(alpha: float, mu0: float, inst: EconomicInstance) -> BestResponse:
    """Exhaustive reference solver scanning every admissible trial size.

    Kept deliberately simple so it can arbitrate the first-order solver.
    Refuses ranges beyond a million sizes, where scanning stops being a
    reasonable oracle.
    """
    level = _level(alpha, inst)
    _check_belief(mu0)
    if inst.n_max - inst.n_min > 1_000_000:
        raise SearchRangeError(
            f"exhaustive scan over [{inst.n_min}, {inst.n_max}] is too large; "
            "use best_response instead"
        )
    best_n, best_u, best_p = 0, -math.inf, 0.0
    for n in range(inst.n_min, inst.n_max + 1):
        u, p = _score(level, mu0, n)
        if u > best_u:
            best_n, best_u, best_p = n, u, p
    if best_u >= 0.0:
        return BestResponse(True, best_n, best_p, best_u)
    return BestResponse(False, 0, 0.0, 0.0)
