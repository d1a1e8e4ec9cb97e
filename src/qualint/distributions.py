"""Normal / bivariate-normal tail kernels and a batched root finder, array-first.

Every routine here is a pure function of its arguments, so the module is
safe under unrestricted concurrent use.  The inference layer builds all of
its p-values and power numbers out of these primitives, which is why the
accuracy budgets are the tightest in the package: absolute error below
1e-12 for the univariate CDF and below 1e-10 for bivariate rectangle
probabilities.

The tail kernels evaluate whole arrays elementwise (scalar arguments give a
float back), and ``first_crossing`` solves one root per row for a whole
batch of monotone functions, so callers pay the Python overhead once per
batch rather than once per element.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

__all__ = [
    "bvn_upper_tail",
    "chi2_1_tail",
    "first_crossing",
    "std_normal_cdf",
    "std_normal_quantile",
]

_TWO_PI = 2.0 * math.pi

# |rho| within this distance of 1 is collapsed onto the exactly-degenerate
# line; the continuous Owen decomposition loses accuracy past this point.
_DEGENERATE_RHO_TOL = 1e-12

# first_crossing stops refining a bracket once it is this many ulps wide.
_ULPS = 4.0 * np.finfo(float).eps
# A bracket that has not halved over this many steps is bisected, so the
# width at least halves every _BISECT_WINDOW steps: a doubling bracket
# (at most 2^28 wide) reaches a few ulps within about 160 steps.
_BISECT_WINDOW = 3
_MAX_SOLVER_STEPS = 200


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x).

    Backed by the complementary error function, so the absolute error is at
    the few-ulp level (far below the 1e-12 budget).  Non-finite input is a
    domain error.
    """
    if not math.isfinite(x):
        raise ValueError(f"std_normal_cdf requires finite x, got {x!r}")
    return float(ndtr(x))


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF on the open interval (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"std_normal_quantile requires 0 < p < 1, got {p!r}")
    return float(ndtri(p))


def chi2_1_tail(t):
    """Upper tail P(chi-squared_1 > t), composed exactly as 2(1 - Phi(sqrt(t))).

    Elementwise over arrays; a scalar argument gives a float.  Returns 1 for
    t <= 0 (the full mass) and 0 at t = +inf.
    """
    t = np.asarray(t, dtype=float)
    if np.isnan(t).any():
        raise ValueError("chi2_1_tail requires a non-NaN argument")
    inside = t <= 0.0
    tail = np.where(inside, 1.0, 2.0 * ndtr(-np.sqrt(np.where(inside, 0.0, t))))
    return tail if tail.ndim else float(tail)


def _phi2(h: np.ndarray, k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lower-left rectangle P(X <= h, Y <= k) for correlation rho, |rho| < 1.

    Owen's decomposition: Phi2(h,k,rho) = (Phi(h)+Phi(k))/2 - T(h,a_h)
    - T(k,a_k) - delta, with delta = 1/2 when h and k have opposite signs.
    The h = 0 / k = 0 limits are taken analytically so the a-arguments stay
    finite; they are consistent from both sides because T(0, +-inf) = +-1/4
    flips in step with delta.  Arguments are arrays that broadcast together.
    """
    denom = np.sqrt((1.0 - rho) * (1.0 + rho))
    h_zero = h == 0.0
    k_zero = k == 0.0
    any_on_axis = bool((h_zero | k_zero).any())
    if any_on_axis:  # keep the general formula finite on rows it does not decide
        h_safe = np.where(h_zero, 1.0, h)
        k_safe = np.where(k_zero, 1.0, k)
    else:
        h_safe, k_safe = h, k
    a_h = (k_safe / h_safe - rho) / denom
    a_k = (h_safe / k_safe - rho) / denom
    delta = np.where((h > 0.0) != (k > 0.0), 0.5, 0.0)
    p = 0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, a_h) - owens_t(k, a_k) - delta
    # The algebra can dip a few ulp outside [0, 1]; clamp rather than return
    # a (tiny) negative probability.
    p = np.minimum(1.0, np.maximum(0.0, p))
    if any_on_axis:
        slope = -rho / denom
        p = np.where(h_zero, 0.5 * ndtr(k) - owens_t(k, slope), p)
        p = np.where(k_zero, 0.5 * ndtr(h) - owens_t(h, slope), p)
        p = np.where(h_zero & k_zero, 0.25 + np.arcsin(rho) / _TWO_PI, p)
    return p


def bvn_upper_tail(a, b, rho):
    """P(X > a, Y > b) for a standardized bivariate normal pair.

    X and Y have zero mean, unit variance, and correlation ``rho``.  The
    upper-right rectangle is the canonical primitive here; callers express
    the other quadrants through reflections of the arguments, so this single
    code path carries the whole accuracy budget (absolute error <= 1e-10;
    the Owen decomposition below is good to ~1e-14).

    Arguments broadcast against each other and are evaluated elementwise;
    when all three are scalars the result is a float.

    Computed as Phi2(-a, -b, rho) - the lower CDF at the reflected point -
    which avoids subtracting near-equal one-dimensional tails.  Correlations
    within 1e-12 of +-1 are treated as exactly degenerate:

    * rho = +1: X = Y, so the tail is 1 - Phi(max(a, b));
    * rho = -1: X = -Y, so the tail is max(0, Phi(-b) - Phi(a)).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("bvn_upper_tail requires finite thresholds")
    if not (np.abs(rho) <= 1.0).all():
        raise ValueError("bvn_upper_tail requires -1 <= rho <= 1")
    positive = rho >= 1.0 - _DEGENERATE_RHO_TOL
    negative = rho <= -1.0 + _DEGENERATE_RHO_TOL
    independent = rho == 0.0
    if not (positive | negative | independent).any():
        p = _phi2(-a, -b, rho)
    else:
        p = _phi2(-a, -b, np.where(positive | negative, 0.0, rho))
        p = np.where(independent, ndtr(-a) * ndtr(-b), p)
        p = np.where(positive, ndtr(-np.maximum(a, b)), p)
        p = np.where(negative, np.maximum(0.0, ndtr(-b) - ndtr(a)), p)
    return p if p.ndim else float(p)


def first_crossing(
    f: Callable[[object, np.ndarray], np.ndarray],
    lo: float,
    f_lo: np.ndarray,
    start: float,
    cap: float,
    tol: float = 0.0,
) -> np.ndarray:
    """First upward zero crossing past ``lo`` of many functions at once.

    ``f(x, rows)`` returns the values of the functions of the given rows
    at x, a scalar shared by those rows or one value per row.  Row i's
    function must be continuous, with value ``f_lo[i] < 0`` at ``lo``.  The upper end
    doubles through start, 2 start, 4 start, ... while it stays <= cap, for
    all rows together; the first point where a row's function is >= 0
    closes its bracket [previous point, that point] (a point where it is
    exactly 0 is the root).  All brackets are then refined together by a
    safeguarded Illinois solver to width ``tol + 4 eps |x|``, and the root
    is known to lie within half that width of the returned value.  Rows
    without a crossing at any point up to the cap get +inf.
    """
    f_lo = np.array(f_lo, dtype=float)
    lo = np.full(f_lo.shape, float(lo))
    roots = np.full(f_lo.shape, math.inf)
    rows = np.arange(f_lo.size)
    brackets = []
    hi = float(start)
    while hi <= cap and rows.size:
        f_hi = f(hi, rows)
        crossed = f_hi >= 0.0
        if crossed.any():
            exact = f_hi == 0.0
            roots[rows[exact]] = hi
            opened = crossed & ~exact
            brackets.append((rows[opened], lo[opened], np.full(opened.sum(), hi),
                             f_lo[opened], f_hi[opened]))
            rows, f_hi = rows[~crossed], f_hi[~crossed]
        lo, f_lo = np.full(rows.size, hi), f_hi
        hi *= 2.0
    if brackets:
        b_rows, b_lo, b_hi, b_flo, b_fhi = (np.concatenate(p) for p in zip(*brackets))
        roots[b_rows] = _illinois(f, b_rows, b_lo, b_hi, b_flo, b_fhi, tol)
    return roots


def _illinois(f, rows, lo, hi, f_lo, f_hi, tol):
    """Roots of increasing functions on brackets with f_lo < 0 < f_hi, in bulk.

    Each step evaluates the secant point of the bracket and moves the end
    whose sign it shares.  When the same end moves twice running, the
    value kept at the other end is halved (the Illinois rule), which keeps
    both ends converging.  A secant point outside the open bracket, or a
    bracket that has not halved over the last three steps, is replaced by
    the midpoint, so every iterate stays inside the bracket and the width
    shrinks at least geometrically.  Rows are independent: each row's
    iterates do not depend on the other rows in the batch.
    """
    out = np.empty(rows.size)
    live = np.arange(rows.size)
    moved = np.zeros(rows.size)  # -1: lo moved last, +1: hi moved last
    # bracket widths 3, 2 and 1 steps ago
    widths = [np.full(rows.size, math.inf) for _ in range(_BISECT_WINDOW)]
    for _ in range(_MAX_SOLVER_STEPS):
        width = hi - lo
        finished = width <= tol + _ULPS * np.abs(hi)
        x = np.where(finished, lo + 0.5 * width, lo - f_lo * (width / (f_hi - f_lo)))
        if not finished.all():
            bisect = ~((x > lo) & (x < hi)) | (width > 0.5 * widths[0])
            x = np.where(bisect, lo + 0.5 * width, x)
            fx = f(x, rows[live])
            if np.isnan(fx).any():
                raise ArithmeticError("root search: objective returned NaN")
            below = fx < 0.0
            above = fx > 0.0
            finished |= ~(below | above)
            f_hi = np.where(below & (moved < 0.0), 0.5 * f_hi, f_hi)
            f_lo = np.where(above & (moved > 0.0), 0.5 * f_lo, f_lo)
            lo = np.where(below, x, lo)
            f_lo = np.where(below, fx, f_lo)
            hi = np.where(above, x, hi)
            f_hi = np.where(above, fx, f_hi)
            moved = np.where(below, -1.0, np.where(above, 1.0, moved))
            widths = widths[1:] + [width]
        if finished.any():
            out[live[finished]] = x[finished]
            keep = ~finished
            if not keep.any():
                return out
            live, lo, hi, f_lo, f_hi, moved = (
                v[keep] for v in (live, lo, hi, f_lo, f_hi, moved)
            )
            widths = [w[keep] for w in widths]
    raise ArithmeticError("root search failed to converge")
