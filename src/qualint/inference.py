"""Tests for qualitative interactions between two sub-population effects.

Given asymptotically normal per-group estimates (theta_hat_1, theta_hat_2)
with standard errors, this module provides:

* the classical Gail-Simon crossover test (opposite-sign alternative);
* the relative-difference test of the bounded-ratio null
  ``max|theta| <= kappa * min|theta|`` for a pre-specified kappa > 1;
* the omnibus test whose alternative also admits same-sign pairs with one
  effect more than kappa times the other;
* local asymptotic power for both tests;
* the effect-ratio summary kappa_max: the largest kappa at which the
  relative-difference test still rejects, found by test inversion.

Every null hypothesis here is composite, so p-values are supremum p-values:
the largest tail probability of the statistic over the null region.  Each
supremum is attained either at a boundary point far from the origin (a
normal tail) or at the origin itself (a bivariate-normal tail mixture), and
both components are recorded on the result.  The omnibus p-value is the
larger of the two.  For the relative-difference test the zero-point tail
never exceeds the boundary tail (see kappa_max), so its p-value is the
boundary tail, and its zero-point component is a diagnostic computed only
when the components are read.

Conventions (uniform across the module):

* A pair inside (or on the boundary of) the null region has p-value 1.
  The relative-difference statistic is then non-positive.  The Gail-Simon
  and omnibus statistics are squares, 0 off the alternative region, and
  their p-values follow the region rather than the statistic: a pair in
  the region whose statistic underflows to 0 gets the t -> 0+ limit of
  its p-value, not 1.
* The boundary component of the relative-difference family is the
  two-sided tail min(1, 2(1 - Phi(t))); the omnibus boundary component is
  the one-sided 1 - Phi(sqrt(t)).  The kappa_max inversion, the null
  quantiles, and the power routines all use the same conventions, so
  rejection decisions and inverted roots agree to tolerance.
* A normal point Phi^{-1}(1 - p) is computed as -Phi^{-1}(p), which keeps
  its digits where 1 - p rounds to 1 (p below about 1e-16).
* All formulas depend on (sigma_g, n_g) only through se_g = sigma_g /
  sqrt(n_g) and on scale-free ratios thereof, so the API takes per-group
  (estimate, std_error) pairs and no sample sizes.

Array-first core: every test, statistic, kappa_max and rd_power_approx
takes a PairBatch, one row per pair, and returns its batch form (TestBatch,
KappaMaxBatch, or an array with one entry per row).  One pair is the
one-row batch PairBatch.from_rows([(est1, se1, est2, se2)]), and its
result is row 0, so row i of a batch result equals the result of the
one-row batch of row i.  A TestResult reads its diagnostic components
from its batch, which computes them only when first read.  The core
evaluates every formula on rows rescaled by the power of two that puts
the larger standard error in [0.5, 1), and with kappa split into a power
of two times a mantissa in [0.5, 1).  Both rescalings are exact in binary
floating point and every formula is a ratio invariant under them, so
ordinary inputs give the same bits as the plain formulas, while standard
errors near 1e-300 or kappa near 1e300 no longer underflow or overflow.
A contrast's variance that still falls below the normal range (past
kappa = 2^510, with a standard error near 1/kappa) is taken by hypot of
its unsquared terms.

All operations are pure functions; nothing retains state between calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from qualint.distributions import (
    bvn_upper_tail,
    chi2_1_tail,
    first_crossing,
    ndtr,
    std_normal_quantile,
)

__all__ = [
    "KappaMaxBatch",
    "KappaMaxResult",
    "LocalAlternative",
    "PairBatch",
    "TestBatch",
    "TestResult",
    "gail_simon_test",
    "kappa_max",
    "omnibus_local_power",
    "omnibus_null_tail",
    "omnibus_statistic",
    "omnibus_test",
    "rd_local_power",
    "rd_null_tail",
    "rd_power_approx",
    "rd_statistic",
    "rd_test",
]

# Standard errors at or below this are indistinguishable from a degenerate
# (zero-variance) estimate; every formula divides by se-derived quantities.
_SE_FLOOR = 1e-300

# the point deciding whether any kappa > 1 rejects
_KAPPA_PROBE = 1.0 + 1e-9
# kappa_max inverts the rd test at alpha below this only
_KAPPA_MAX_ALPHA = 0.5

_BATCH_FIELDS = ("est1", "se1", "est2", "se2")
# which rows of an (est1, se1, est2, se2) stack hold standard errors
_SE_ROWS = np.array([[False], [True], [False], [True]])


# ---------------------------------------------------------------------------
# the input rule
# ---------------------------------------------------------------------------


def _valid(values, se) -> np.ndarray:
    """The one rule for valid inputs, entry by entry: an estimate must be
    finite, a standard error finite and > _SE_FLOOR.  ``se`` marks the
    standard errors: a bool, or a mask such as _SE_ROWS."""
    values = np.asarray(values, dtype=float)
    return np.isfinite(values) & ((values > _SE_FLOOR) | np.logical_not(se))


def _rule_violation(name: str, value: float, se: bool) -> str:
    """What a value that breaks the input rule is told, naming it ``name``."""
    rule = f"finite and > {_SE_FLOOR:g}" if se else "finite"
    return f"{name} must be {rule}, got {float(value)!r}"


def _check_input(name: str, value: float, se: bool) -> None:
    if not _valid(value, se):
        raise ValueError(_rule_violation(name, value, se))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class _Rows(NamedTuple):
    """Batch rows rescaled so the larger standard error lies in [0.5, 1)."""

    x1: np.ndarray  # estimates, divided by 2^shrink
    x2: np.ndarray
    se1: np.ndarray
    se2: np.ndarray
    shrink: np.ndarray  # integer >= 0 per row, 0 unless an estimate passes 2^1020


def _rows(x1, se1, x2, se2) -> _Rows:
    """Estimates and standard errors rescaled together, exactly, by the power
    of two that puts max(se1, se2) in [0.5, 1).  A row whose estimates would
    pass 2^1020 once rescaled has them divided by a further 2^shrink, so no
    rescaled estimate is infinite.  Contrasts are linear in the estimates
    and squared statistics quadratic, so _unshrunk by shrink (2 shrink for a
    square) turns one of the rows into that of the inputs, +-inf only past
    the float range; where shrink is 0 the bits are those of the plain
    formula."""
    exponent = -np.frexp(np.maximum(se1, se2))[1]
    shrink = np.maximum(0, np.frexp(np.maximum(np.abs(x1), np.abs(x2)))[1] + exponent - 1020)
    s1, s2 = np.ldexp(se1, exponent), np.ldexp(se2, exponent)
    x1, x2 = np.ldexp(x1, exponent - shrink), np.ldexp(x2, exponent - shrink)
    return _Rows(x1, x2, s1, s2, shrink)


def _unshrunk(values, shrink):
    """Values of _rows rows times 2^shrink: those of the unshrunk inputs."""
    with np.errstate(over="ignore"):  # +-inf past the float range
        return np.ldexp(values, shrink)


@dataclass(frozen=True, eq=False)
class PairBatch:
    """Two-group inputs as columns: the one input of every test,
    statistic, kappa_max and rd_power_approx.

    ``est1``, ``se1``, ``est2`` and ``se2`` are equal-length 1-D float
    arrays (scalars broadcast), validated row by row: an estimate must be
    finite, a standard error finite and > 1e-300; the first bad value is
    named by field and row, as in ``se1[0]``.  One pair is a one-row batch.
    """

    est1: np.ndarray
    se1: np.ndarray
    est2: np.ndarray
    se2: np.ndarray
    scaled: _Rows = field(init=False, repr=False)

    def __post_init__(self) -> None:
        fields = (getattr(self, name) for name in _BATCH_FIELDS)
        stack = np.array(np.broadcast_arrays(*fields), dtype=float)  # one row per field
        if stack.ndim != 2:
            raise ValueError("PairBatch columns must be one-dimensional")
        valid = _valid(stack, _SE_ROWS)
        if not valid.all():  # the first bad field, then its first bad row
            i, row = np.unravel_index(np.argmin(valid), valid.shape)
            name = f"{_BATCH_FIELDS[i]}[{row}]"
            raise ValueError(_rule_violation(name, stack[i, row], _SE_ROWS[i, 0]))
        stack.setflags(write=False)
        for name, column in zip(_BATCH_FIELDS, stack):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "scaled", _rows(*stack))

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[float, float, float, float]]) -> "PairBatch":
        """Batch of (est1, se1, est2, se2) rows."""
        return cls(*np.array(list(rows), dtype=float).reshape(-1, 4).T)

    def __len__(self) -> int:
        return int(self.est1.shape[0])


@dataclass(frozen=True)
class TestResult:
    """Outcome of one test on one pair: row ``_row`` of the TestBatch
    ``_batch``, which holds p_value = max(components) and
    rejected = p_value < alpha.

    Equality compares the scalar fields.  ``components`` is read from the
    batch, so its diagnostic tails are computed only when read.
    """

    statistic: float
    p_value: float
    rejected: bool
    alpha: float
    _batch: TestBatch = field(compare=False, repr=False)
    _row: int = field(compare=False, repr=False)

    __test__ = False  # keep pytest from collecting this despite the name

    @property
    def components(self) -> dict[str, float]:
        return {k: float(v[self._row]) for k, v in self._batch.components.items()}


@dataclass(frozen=True, eq=False)
class TestBatch:
    """Outcomes of one test on every row of a PairBatch, as arrays.

    p_value is the elementwise maximum of the components and rejected is
    p_value < alpha.  ``components`` is a read-only mapping built on its
    first read, so a caller of p_value and rejected alone never evaluates a
    diagnostic tail.  ``batch[i]`` is the TestResult of row i.
    """

    statistic: np.ndarray
    p_value: np.ndarray
    rejected: np.ndarray
    alpha: float
    _components: Callable[[], dict[str, np.ndarray]] = field(repr=False)

    __test__ = False

    @functools.cached_property
    def _component_columns(self) -> dict[str, np.ndarray]:
        return self._components()  # cached as a plain dict, which pickles

    @property
    def components(self) -> Mapping[str, np.ndarray]:
        return MappingProxyType(self._component_columns)

    def __len__(self) -> int:
        return int(self.statistic.shape[0])

    def __getitem__(self, index: int) -> TestResult:
        return TestResult(float(self.statistic[index]), float(self.p_value[index]),
                          bool(self.rejected[index]), self.alpha, self, index)


@dataclass(frozen=True)
class KappaMaxResult:
    """Inverted-test summary of one pair: the largest kappa at which the
    relative-difference test rejects.

    ``binding_root`` is ``normal_boundary`` when kappa_max is the boundary
    tail's root (the zero-point tail never binds; see kappa_max), or
    ``none`` when no kappa > 1 rejects (then kappa_max = 1 by convention).
    """

    kappa_max: float
    alpha: float
    binding_root: str


@dataclass(frozen=True, eq=False)
class KappaMaxBatch:
    """kappa_max of every row of a PairBatch, as arrays; ``batch[i]`` is
    the KappaMaxResult of row i."""

    kappa_max: np.ndarray
    alpha: float
    binding_root: np.ndarray

    def __len__(self) -> int:
        return int(self.kappa_max.shape[0])

    def __getitem__(self, index: int) -> KappaMaxResult:
        binding = str(self.binding_root[index])
        return KappaMaxResult(float(self.kappa_max[index]), self.alpha, binding)


@dataclass(frozen=True)
class LocalAlternative:
    """A sqrt(n)-scaled local alternative (c1, c2) with nuisance parameters.

    ``lam`` is the limiting fraction of observations in group 1's complement,
    i.e. lam = lim n_1 / N, so group 1's effective standard error scales with
    sqrt(1 - lam) * sigma1 and group 2's with sqrt(lam) * sigma2.  (The name
    avoids the reserved word ``lambda``.)  c1 and c2 may be equal-shape
    arrays: a grid of alternatives sharing the nuisance parameters, whose
    power functions then return one value per grid point.
    """

    c1: float
    c2: float
    sigma1: float
    sigma2: float
    lam: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.c1).all() and np.isfinite(self.c2).all()):
            raise ValueError("local effects c1, c2 must be finite")
        if not (self.sigma1 > 0.0 and math.isfinite(self.sigma1)):
            raise ValueError(f"sigma1 must be positive, got {self.sigma1!r}")
        if not (self.sigma2 > 0.0 and math.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be positive, got {self.sigma2!r}")
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must lie in (0, 1), got {self.lam!r}")


# ---------------------------------------------------------------------------
# validation and batch helpers
# ---------------------------------------------------------------------------


def _check_alpha(alpha: float, upper: float = 1.0) -> None:
    if not 0.0 < alpha < upper:
        raise ValueError(f"alpha must lie in (0, {upper:g}), got {alpha!r}")


def _check_kappa(kappa: float, strict: bool = False) -> None:
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa!r}")
    if not (kappa > 1.0 if strict else kappa >= 1.0):
        raise ValueError(f"kappa must be {'>' if strict else '>='} 1, got {kappa!r}")


def _tested(statistic, p_value, components: Callable[[], dict], alpha: float) -> TestBatch:
    """The test's outcome; ``components`` builds the component columns, whose
    maximum is p_value, when they are first read."""
    return TestBatch(statistic, p_value, p_value < alpha, float(alpha), components)


def _kappa_split(kappa):
    """(m, s) with kappa = m / s, m in [0.5, 1) and s a power of two.

    Formulas below multiply through by s: with kappa written as m / s,
    x1 - kappa x2 becomes x1 s - m x2 and v1 + kappa^2 v2 becomes
    v1 s^2 + m^2 v2.  The scaling is exact, so each ratio keeps the bits of
    the plain formula, and no term overflows however large kappa is.  Past
    kappa = 2^510, s^2 and a small v can underflow; _variance marks the
    sums that fall below the normal range, and _root takes those by hypot.
    """
    m, exponent = np.frexp(kappa)
    return m, np.ldexp(1.0, -exponent)


def _local_rows(alt: LocalAlternative) -> _Rows:
    """The sqrt(n)-scaled alternative as _rows: true effects
    sqrt(1-lam) c1 and sqrt(lam) c2, with standard errors sqrt(1-lam) sigma1
    and sqrt(lam) sigma2."""
    w1 = math.sqrt(1.0 - alt.lam)
    w2 = math.sqrt(alt.lam)
    return _rows(
        np.multiply(w1, alt.c1), w1 * alt.sigma1, np.multiply(w2, alt.c2), w2 * alt.sigma2
    )


# ---------------------------------------------------------------------------
# core algebra (rescaled rows, kappa split by _kappa_split)
# ---------------------------------------------------------------------------


_TINY = np.finfo(float).tiny  # the smallest normal float


def _variance(se_a, se_b, c, d):
    """The variance v = (c se_a)^2 + (d se_b)^2 of a contrast whose terms
    are scaled by kappa's factors c and d, and the rows where it is low.

    v is summed as v_a c^2 + d^2 v_b with v = se^2, the rounding that gives
    the statistics their bits.  Only past kappa = 2^510 can it fall below
    the normal range, losing bits or all of them; ``low`` marks those rows
    (None when there are none), where _root takes hypot instead.
    """
    v = (se_a * se_a) * (c * c) + (d * d) * (se_b * se_b)
    low = v < _TINY
    return v, (low if low.any() else None)


def _root(v, low, se_a, se_b, c, d):
    """sqrt(v) of a _variance, or on its low rows hypot(c se_a, d se_b),
    which keeps the bits v lost and is never 0."""
    root = np.sqrt(v)
    return root if low is None else np.where(low, np.hypot(se_a * c, se_b * d), root)


def _contrast(x1, x2, se1, se2, m, s):
    """(x1 - kappa x2) / sqrt(se1^2 + kappa^2 se2^2): a standardized contrast."""
    v, low = _variance(se1, se2, s, m)
    with np.errstate(over="ignore"):  # +-inf past the float range
        return (x1 * s - m * x2) / _root(v, low, se1, se2, s, m)


def _square_contrast(diff, se_a, se_b, c, d):
    """diff^2 / ((c se_a)^2 + (d se_b)^2) for the scaled difference diff."""
    v, low = _variance(se_a, se_b, c, d)
    if low is None:
        with np.errstate(over="ignore"):  # +inf past the float range
            return diff * diff / v
    root = _root(v, low, se_a, se_b, c, d)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # low rows replaced
        return np.where(low, (diff / root) ** 2, diff * diff / v)


def _rd_stat(rows: _Rows, m, s):
    """Relative-difference statistic of the rows: the contrast of the larger
    absolute estimate against the smaller, or on exact ties the smaller of
    both assignments' contrasts.  Only these are evaluated, so the discarded
    assignment of a lopsided row cannot overflow."""
    a1, a2, se1, se2 = np.abs(rows.x1), np.abs(rows.x2), rows.se1, rows.se2
    first = a1 >= a2
    a_max, a_min = np.where(first, a1, a2), np.where(first, a2, a1)
    se_max, se_min = np.where(first, se1, se2), np.where(first, se2, se1)
    t = _contrast(a_max, a_min, se_max, se_min, m, s)
    tie = a1 == a2
    if tie.any():  # a tie's other assignment only swaps the standard errors
        t = np.minimum(t, _contrast(a_max, a_min, np.where(tie, se_min, se_max),
                                    np.where(tie, se_max, se_min), m, s))
    return _unshrunk(t, rows.shrink)


def _difference_ratio(se_a, se_b, c, d):
    """((c se_a)^2 - (d se_b)^2) / ((c se_a)^2 + (d se_b)^2), in [-1, 1]."""
    v, low = _variance(se_a, se_b, c, d)
    difference = (se_a * se_a) * (c * c) - (d * d) * (se_b * se_b)
    if low is None:
        ratio = difference / v
    else:
        root = _root(v, low, se_a, se_b, c, d)
        ua, ub = se_a * c / root, se_b * d / root
        with np.errstate(divide="ignore", invalid="ignore"):  # low rows replaced
            ratio = np.where(low, (ua - ub) * (ua + ub), difference / v)
    return np.maximum(-1.0, np.minimum(1.0, ratio))


def _rd_nu(se1, se2, m, s):
    return _difference_ratio(se1, se2, s, m), _difference_ratio(se2, se1, s, m)


def _rd_zero_tail(t, nu1, nu2):
    both = bvn_upper_tail(t, t, np.stack([nu1, nu2]))  # one call for both pairs
    return np.minimum(1.0, 2.0 * (both[0] + both[1]))


def _rd_boundary(rows: _Rows, m, s):
    """(statistic, normal_boundary) of the rd test per row, kappa = m / s."""
    t = _rd_stat(rows, m, s)
    return t, np.where(t > 0.0, np.minimum(1.0, 2.0 * ndtr(-t)), 1.0)


def _omnibus_region(x1, x2, m, s):
    s1, s2 = x1 * s, x2 * s
    k1, k2 = m * x1, m * x2  # kappa x scaled by s, like s1 and s2
    return (
        ((s1 > k2) & (x1 > 0.0))
        | ((-s1 > -k2) & (x1 < 0.0))
        | ((s2 > k1) & (x2 > 0.0))
        | ((-s2 > -k1) & (x2 < 0.0))
    )


def _omnibus_stat(rows: _Rows, m, s):
    """The omnibus statistic of the rows and their alternative-region mask."""
    x1, x2, se1, se2 = rows.x1, rows.x2, rows.se1, rows.se2
    q1 = _square_contrast(x1 * s - m * x2, se1, se2, s, m)
    q2 = _square_contrast(m * x1 - x2 * s, se1, se2, m, s)
    q = _unshrunk(np.minimum(q1, q2), 2 * rows.shrink)
    region = _omnibus_region(x1, x2, m, s)
    return np.where(region, q, 0.0), region


def _omnibus_nu(se1, se2, m, s):
    """Correlation of the omnibus zero-point limit pair; always in (0, 1]."""
    va, low_a = _variance(se1, se2, s, m)
    vb, low_b = _variance(se1, se2, m, s)
    product = va * vb
    root = np.sqrt(product)
    low = product < _TINY  # va or vb low, or their product has lost bits
    if low.any():
        roots = _root(va, low_a, se1, se2, s, m) * _root(vb, low_b, se1, se2, m, s)
        root = np.where(low, roots, root)
    nu = m * ((se1 * se1 + se2 * se2) * s) / root
    # the zero-point tail is ill-conditioned in nu near 1, so past 1/2 nu is
    # 1 - u^2 / (1 + nu) with u^2 = 1 - nu^2, which has no cancellation
    u = (se1 * se2) * ((m - s) * (m + s)) / root
    nu = np.where(nu > 0.5, 1.0 - u * u / (1.0 + nu), nu)
    return np.maximum(0.0, np.minimum(1.0, nu))


# ---------------------------------------------------------------------------
# crossover (positive/negative) test
# ---------------------------------------------------------------------------


def _opposite_signs(x1, x2):
    return ((x1 > 0.0) & (x2 < 0.0)) | ((x1 < 0.0) & (x2 > 0.0))


def gail_simon_test(batch: PairBatch, alpha: float) -> TestBatch:
    """Crossover likelihood-ratio test (Gail & Simon).

    The statistic is the smaller squared standardized estimate when the
    signs strictly oppose, and 0 otherwise; the supremum p-value is
    (1/2) P(chi-squared_1 > t) when they oppose, also where t underflows
    to 0, and 1 otherwise.
    """
    _check_alpha(alpha)
    # each group's z from its own columns: a rescaling shared by both groups
    # would underflow the smaller group to 0 / 0 once its SE is 2^-1074 of
    # the other's
    with np.errstate(over="ignore"):  # +inf past the float range
        z1 = batch.est1 / batch.se1
        z2 = batch.est2 / batch.se2
        squares = np.minimum(z1 * z1, z2 * z2)
    crossed = _opposite_signs(batch.est1, batch.est2)
    statistic = np.where(crossed, squares, 0.0)
    p = np.where(crossed, 0.5 * chi2_1_tail(statistic), 1.0)
    return _tested(statistic, p, functools.partial(dict, half_chi2=p), alpha)


# ---------------------------------------------------------------------------
# relative-difference test
# ---------------------------------------------------------------------------


def rd_statistic(batch: PairBatch, kappa: float) -> np.ndarray:
    """Signed root statistic for the bounded-ratio null max|th| <= kappa*min|th|.

    With theta_hat_max / theta_hat_min the larger / smaller absolute
    estimate and tau the squared standard error of the group attaining each,
    the value is (theta_hat_max - kappa*theta_hat_min) /
    sqrt(tau_max + kappa^2 * tau_min).  On exact ties |theta_hat_1| =
    |theta_hat_2| both assignments are evaluated and the smaller value is
    returned (the minimum-distance completion; deterministic even though the
    event has measure zero).
    """
    _check_kappa(kappa)
    return _rd_stat(batch.scaled, *_kappa_split(kappa))


def _null_scales(t: float, kappa: float, se1: float, se2: float):
    """(se1, se2, m, s) of a zero-point null tail at t > 0, its arguments
    checked: the standard errors rescaled together and kappa split."""
    if not t > 0.0:
        raise ValueError(f"tail characterized for t > 0 only, got t={t!r}")
    _check_kappa(kappa)
    _check_input("se1", se1, se=True)
    _check_input("se2", se2, se=True)
    rows = _rows(0.0, se1, 0.0, se2)
    return (rows.se1, rows.se2, *_kappa_split(kappa))


def rd_null_tail(t: float, kappa: float, se1: float, se2: float) -> float:
    """Zero-point null tail of the relative-difference statistic at t > 0.

    At the origin of the null region both absolute estimates fold, and the
    statistic's limit exceeds t exactly on four symmetric orthant events:
    the tail is 2*[P(W11>t, W12>t) + P(W21>t, W22>t)] with each pair unit
    bivariate normal.  The correlations are
    nu1 = (se1^2 - kappa^2 se2^2) / (se1^2 + kappa^2 se2^2) and its
    group-swapped analogue nu2; only the ratio of the squared standard
    errors matters, and for kappa > 1 at most one of the two is positive.
    """
    return float(_rd_zero_tail(t, *_rd_nu(*_null_scales(t, kappa, se1, se2))))


def rd_test(batch: PairBatch, kappa: float, alpha: float) -> TestBatch:
    """Relative-difference test of max|theta| <= kappa * min|theta|.

    Components recorded on the result:

    * ``normal_boundary`` - the two-sided tail min(1, 2(1 - Phi(t))) from
      null boundary points away from the origin;
    * ``zero_point`` - the folded bivariate tail from the origin
      (rd_null_tail), computed when the components are first read.

    The supremum p-value is the larger of the two, which is always the
    boundary tail: the zero-point tail never exceeds it (see kappa_max), so
    the test and kappa_max decide by the one rule in _rd_boundary.  The
    zero-point column is recorded as at most the boundary tail, which moves
    only subnormal values.  A statistic t <= 0 places the estimates inside
    the null region and the p-value is 1.
    """
    _check_kappa(kappa, strict=True)
    _check_alpha(alpha)
    rows = batch.scaled
    m, s = _kappa_split(kappa)
    t, boundary = _rd_boundary(rows, m, s)
    components = functools.partial(_rd_components, rows, m, s, t, boundary)
    return _tested(t, boundary, components, alpha)


def _rd_components(rows: _Rows, m, s, t, boundary) -> dict[str, np.ndarray]:
    """rd_test's component columns, the zero-point tail at most the boundary's."""
    outside = t > 0.0
    nu1, nu2 = _rd_nu(rows.se1[outside], rows.se2[outside], m, s)
    zero_point = boundary.copy()  # 1 inside the null region
    zero_point[outside] = np.minimum(boundary[outside], _rd_zero_tail(t[outside], nu1, nu2))
    return {"normal_boundary": boundary, "zero_point": zero_point}


def _rd_power(rows: _Rows, kappa: float, alpha: float):
    """Four-orthant rejection probability of the relative-difference test.

    Under an alternative with true effects (x1, x2) and per-group standard
    errors (se1, se2), the statistic exceeds the null quantile t* exactly
    when one of four bivariate-normal pairs lands beyond (t*, t*) or beyond
    (-t*, -t*); the lower quadrants reduce to upper tails with negated
    means.  t* is the test's 1 - alpha null quantile, the normal point
    Phi^{-1}(1 - alpha/2), since the test decides by its boundary tail.
    The effects may be arrays (one alternative per element), rescaled by
    _rows, and one kernel call evaluates all four orthants.
    """
    x1, x2, se1, se2 = rows.x1, rows.x2, rows.se1, rows.se2
    m, s = _kappa_split(kappa)
    t_star = -std_normal_quantile(alpha / 2.0)
    c11, c12, c21, c22, shrink, nu1, nu2 = np.broadcast_arrays(
        _contrast(x1, x2, se1, se2, m, s), _contrast(x1, -x2, se1, se2, m, s),
        _contrast(x2, x1, se2, se1, m, s), _contrast(x2, -x1, se2, se1, m, s),
        rows.shrink, *_rd_nu(se1, se2, m, s))
    first = _unshrunk(np.stack([c11, -c11, c21, -c21]), shrink)
    second = _unshrunk(np.stack([c12, -c12, c22, -c22]), shrink)
    tails = bvn_upper_tail(t_star - first, t_star - second, np.stack([nu1, nu1, nu2, nu2]))
    power = np.minimum(1.0, tails[0] + tails[1] + tails[2] + tails[3])
    return power if power.ndim else float(power)


def rd_local_power(alt: LocalAlternative, kappa: float, alpha: float):
    """Local asymptotic power of the relative-difference test at (c1, c2).

    The sqrt(n)-scaled alternative enters only through the effective
    quantities sqrt(1-lam)*c1, sqrt(lam)*c2 and matching effective standard
    errors, so this delegates to the same shifted-orthant sum used by
    rd_power_approx.  A grid of alternatives shares one null quantile.
    """
    _check_kappa(kappa, strict=True)
    _check_alpha(alpha, upper=0.5)
    return _rd_power(_local_rows(alt), kappa, alpha)


def rd_power_approx(truth: PairBatch, kappa: float, alpha: float) -> np.ndarray:
    """Finite-sample power approximation at the true effects of each row.

    The estimate columns carry the *true* per-group effects and the
    standard-error columns their anticipated standard errors; scaling all
    four numbers of a row by a common positive constant leaves its power
    unchanged.
    """
    _check_kappa(kappa, strict=True)
    _check_alpha(alpha, upper=0.5)
    return _rd_power(truth.scaled, kappa, alpha)


# ---------------------------------------------------------------------------
# omnibus test (crossover or bounded-ratio violation)
# ---------------------------------------------------------------------------


def omnibus_statistic(batch: PairBatch, kappa: float) -> np.ndarray:
    """Omnibus likelihood-ratio statistic.

    min{ (th1 - kappa*th2)^2 / (se1^2 + kappa^2 se2^2),
         (kappa*th1 - th2)^2 / (kappa^2 se1^2 + se2^2) } inside the
    alternative region, 0 outside.  The region unions four cones: the larger
    effect is positive and more than kappa times the other, or negative and
    more than kappa times in the negative direction, for either group;
    opposite-sign pairs always qualify.
    """
    _check_kappa(kappa)
    return _omnibus_stat(batch.scaled, *_kappa_split(kappa))[0]


def _omnibus_zero_tail(root_t, nu):
    return np.minimum(1.0, 2.0 * bvn_upper_tail(root_t, root_t, nu))


def omnibus_null_tail(t: float, kappa: float, se1: float, se2: float) -> float:
    """Zero-point null tail of the omnibus statistic at t > 0.

    2 * P(V1 > sqrt(t), V2 > sqrt(t)) for a unit bivariate normal pair with
    correlation kappa (se1^2 + se2^2) / sqrt((se1^2 + kappa^2 se2^2)
    (kappa^2 se1^2 + se2^2)).  At kappa = 1 the correlation degenerates to 1
    and the tail collapses to the chi-squared_1 tail.
    """
    nu = _omnibus_nu(*_null_scales(t, kappa, se1, se2))
    return float(_omnibus_zero_tail(math.sqrt(t), nu))


def omnibus_test(batch: PairBatch, kappa: float, alpha: float) -> TestBatch:
    """Omnibus test: crossover or same-sign ratio beyond kappa.

    Components recorded on the result:

    * ``normal_boundary`` - the boundary tail (1/2) P(chi-squared_1 > t)
      = 1 - Phi(sqrt(t)), the supremum over non-origin null points;
    * ``zero_point`` - omnibus_null_tail(t).

    Estimates outside the alternative region (statistic 0) yield p-value
    1; inside it, a statistic that underflows to 0 yields the components'
    t -> 0+ limits.  For very large kappa the p-value converges to the
    Gail-Simon p-value.
    """
    _check_kappa(kappa, strict=True)
    _check_alpha(alpha)
    rows = batch.scaled
    m, s = _kappa_split(kappa)
    t, region = _omnibus_stat(rows, m, s)
    boundary = np.where(region, 0.5 * chi2_1_tail(t), 1.0)
    zero_point = np.ones_like(t)
    nu = _omnibus_nu(rows.se1[region], rows.se2[region], m, s)
    zero_point[region] = _omnibus_zero_tail(np.sqrt(t[region]), nu)
    components = {"normal_boundary": boundary, "zero_point": zero_point}
    return _tested(t, np.maximum(boundary, zero_point), components.copy, alpha)


def _omnibus_threshold(nu, alpha: float) -> float:
    """Rejection threshold of the omnibus test on the sqrt-statistic scale,
    for the zero-point correlation nu: the larger of the one-sided normal
    point z = Phi^{-1}(1 - alpha) and the root s of 2 P(V1>s, V2>s) = alpha.

    The tail decreases in s, so the threshold is z when the tail at z is
    at most alpha, and no root is searched for.  Otherwise the root lies in
    (z, Phi^{-1}(1 - alpha/2)], since 2 P(V1>s, V2>s) <= 2 Phi(-s), which is
    alpha at the upper end; the search may double once past it, which
    covers the rounding of that bound.
    """
    excess = lambda q: alpha - _omnibus_zero_tail(q, nu)
    z = -std_normal_quantile(alpha)
    at_z = excess(z)
    if at_z >= 0.0:
        return z
    return float(first_crossing(excess, z, at_z, -std_normal_quantile(alpha / 2.0)))


def omnibus_local_power(alt: LocalAlternative, kappa: float, alpha: float):
    """Local asymptotic power of the omnibus test at (c1, c2).

    The rejection threshold on the sqrt-statistic scale is the larger of the
    one-sided normal point Phi^{-1}(1 - alpha) and the zero-point root; the
    power is the two-term shifted orthant sum P(V1>s*, V2>s*) +
    P(V1<-s*, V2<-s*).  A grid of alternatives shares one threshold.
    """
    _check_kappa(kappa, strict=True)
    _check_alpha(alpha, upper=0.5)
    x1, x2, se1, se2, shrink = _local_rows(alt)
    m, s = _kappa_split(kappa)
    nu = _omnibus_nu(se1, se2, m, s)
    s_star = _omnibus_threshold(nu, alpha)
    c1 = _contrast(x1, x2, se1, se2, m, s)
    c2 = -_contrast(x2, x1, se2, se1, m, s)
    first = _unshrunk(np.stack([c1, -c1]), shrink)
    second = _unshrunk(np.stack([c2, -c2]), shrink)
    tails = bvn_upper_tail(s_star - first, s_star - second, nu)  # both orthants in one call
    power = np.minimum(1.0, tails[0] + tails[1])
    return power if power.ndim else float(power)


# ---------------------------------------------------------------------------
# kappa_max inversion
# ---------------------------------------------------------------------------


def kappa_max(batch: PairBatch, alpha: float) -> KappaMaxBatch:
    """Largest kappa > 1 at which the relative-difference test rejects.

    The test rejects until its boundary tail climbs to alpha at pi_1 or its
    zero-point tail does at pi_2.  For kappa >= 1 and t > 0, nu1 <= -nu2
    (rd_null_tail) and P(X > t, Y > t; rho) grows with rho (Slepian), so the
    zero-point tail is at most the boundary tail min(1, 2 Phi(-t)), so
    pi_1 <= pi_2, kappa_max = pi_1, and pi_2 is never computed.  pi_1
    solves t(kappa) = z = Phi^{-1}(1 - alpha/2): with a, s_a the larger
    |estimate| and its standard error and b, s_b the other's,
    pi_1 = k / (r + hypot(z (s_b/a) sqrt(k), r e)) for r = b/a,
    e = z s_a/a and k = (1 - e)(1 + e).  Rejecting at kappa = 1 keeps r, e
    and z s_b/a below 1, so no term is negative, and hypot does not
    underflow where s_b^2 would.  The ratios are taken on the unscaled
    columns, where no estimate overflows.  No cap: pi_1 is +inf only past
    the float range.  If kappa = 1 + 1e-9 does not reject, kappa_max is 1
    and no root binds; the boundary tail alone decides this, as it decides
    rd_test, since the zero-point tail never exceeds it.
    """
    _check_alpha(alpha, upper=_KAPPA_MAX_ALPHA)
    rejecting = _rd_boundary(batch.scaled, *_kappa_split(_KAPPA_PROBE))[1] < alpha
    x1, se1, x2, se2 = (getattr(batch, name)[rejecting] for name in _BATCH_FIELDS)
    z = -std_normal_quantile(alpha / 2.0)
    first = np.abs(x1) >= np.abs(x2)
    a = np.abs(np.where(first, x1, x2))
    r = np.abs(np.where(first, x2, x1)) / a
    e = z * (np.where(first, se1, se2) / a)
    k = (1.0 - e) * (1.0 + e)
    f = z * (np.where(first, se2, se1) / a)
    kmax = np.ones(len(batch))
    with np.errstate(divide="ignore", over="ignore"):  # +inf past the float range
        kmax[rejecting] = k / (r + np.hypot(f * np.sqrt(k), r * e))
    binding = np.where(rejecting, "normal_boundary", "none")
    return KappaMaxBatch(kmax, float(alpha), binding)
