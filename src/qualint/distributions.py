"""Normal / bivariate-normal tail kernels, array-first, and a scalar root finder.

Every routine here is a pure function of its arguments, so the module is
safe under unrestricted concurrent use.  The inference layer builds all of
its p-values and power numbers out of these primitives, and the module
computes them with numpy and the standard library alone:

* ``ndtr`` (the standard normal CDF Phi) is, in the manner of Cody (1969,
  Math. Comp. 23:631), exp(-x^2/2) times a piecewise approximation of the
  scaled tail Phi(-x) exp(x^2/2), with x^2 split so the Gaussian factor
  keeps full relative accuracy.  It is within 4 ulp relative of the exact
  value wherever Phi(x) >= 1e-300.
* ``std_normal_quantile`` is Wichura's AS 241 (1988), through
  ``statistics.NormalDist``.
* ``bvn_upper_tail`` is Genz's (2004, Stat. Comput. 14:251) Gauss-Legendre
  algorithm, absolute error about 1e-15 (the budget is 1e-14), and in the
  upper tail Owen's (1956) decomposition written as a sum of positive
  integrals, which keeps about 1e-13 relative accuracy down to 1e-300.
  Their Gauss-Legendre and Gauss-Laguerre node tables are frozen
  constants, as in Genz's own code, so importing the module computes none.

The tail kernels evaluate whole arrays elementwise (scalar arguments give a
float back), so callers pay the Python overhead once per batch rather than
once per element.  The tails return their limits at +-inf arguments, so no
caller special-cases them, and refuse NaN.  ``first_crossing`` solves one
scalar root in a bracket that doubles at most once: the omnibus test's
zero-point threshold.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Callable

import numpy as np

__all__ = [
    "bvn_upper_tail",
    "chi2_1_tail",
    "first_crossing",
    "ndtr",
    "std_normal_quantile",
]

_TWO_PI = 2.0 * math.pi


class _DomainError(ValueError, ArithmeticError):
    """A kernel argument outside the kernel's domain.  A ValueError to a
    library caller; to the CLI, whose validators accepted its inputs before
    any kernel ran, a numerical failure."""


# |rho| within this distance of 1 is collapsed onto the exactly-degenerate
# line, where the tail has a closed form.
_DEGENERATE_RHO_TOL = 1e-12

# first_crossing stops refining a bracket once it is this many ulps wide.
_ULPS = 4.0 * np.finfo(float).eps
# A bracket that has not halved over this many steps is bisected, so the
# width at least halves every _BISECT_WINDOW steps: a bracket hi wide
# reaches 4 eps hi within about 150 steps.
_BISECT_WINDOW = 3
_MAX_SOLVER_STEPS = 200

# Phi(-40) < 1e-349, so past +-40 both normal tails are at their limits in
# double precision; ndtr and the Genz kernel work on arguments clipped there.
_FAR = 40.0

# m(x) = Phi(-x) exp(x^2/2) in pieces: row j of the first 13 is a polynomial
# in x - j/2 on |x - j/2| <= 1/4; the last row is x m(x) as a polynomial in
# 1/x^2 for x >= 6.25.  Highest power first; relative error below 5e-18.
# Polynomials rather than Cody's rationals: his degree-8 ratios on [0.5, 4]
# lose about 4 ulp to rounding in their own evaluation, these about 1.
# Generated by tests/oracles/gen_normal_cdf_pieces.py.
_PHI_PIECES = np.array([
    [-2.9955666023907007e-06, 1.1021652106694622e-05, -3.837454735159175e-05,
     0.00013019360186417432, -0.0004221613027830312, 0.0013020839619078794,
     -0.0037994502860460183, 0.010416666652906761, -0.02659615202679856,
     0.06250000000014339, -0.13298076013381074, 0.24999999999999944,
     -0.3989422804014327, 0.5],
    [-5.053682997577895e-07, 1.992112990706319e-06, -7.468238110647062e-06,
     2.7313378804561284e-05, -9.581458453163531e-05, 0.00032106442959286717,
     -0.001022863212910768, 0.0030799462473619687, -0.008700015618766044,
     0.02282968530660828, -0.05491492074709609, 0.11877620159989054,
     -0.22413286304123364, 0.34961883472039806],
    [-9.560174458816856e-08, 4.035582746230486e-07, -1.627617604934682e-06,
     6.412582351469962e-06, -2.4317803779817882e-05, 8.844776131238613e-05,
     -0.0003073079423575564, 0.0010148898919494877, -0.003166045489439066,
     0.009255384843447245, -0.025085612290634086, 0.062107151664407015,
     -0.1373639885363093, 0.2615782918651234],
    [-2.011216177435519e-08, 9.084446061948725e-08, -3.9372279095111997e-07,
     1.6693421927323172e-06, -6.83527375272124e-06, 2.6947147102158015e-05,
     -0.00010193817268301238, 0.0003684844080775727, -0.0012662938211225306,
     0.0041103471806046505, -0.012496989876517614, 0.03518687353719186,
     -0.09027127993534065, 0.2057806669773947],
    [-4.667790420754291e-09, 2.2537097049432297e-08, -1.0481564514531091e-07,
     4.776014148621173e-07, -2.1082487103737146e-06, 8.992688797656891e-06,
     -3.6959613141963826e-05, 0.00014586073062415486, -0.0005504387532978219,
     0.0019760418904396664, -0.0067042775473679294, 0.021312722656493838,
     -0.06273827795509146, 0.1681020012231706],
    [-1.1860466036647685e-09, 6.113403863865421e-09, -3.046089108342444e-08,
     1.489228218059846e-07, -7.073960207374105e-07, 3.257760536206027e-06,
     -1.4510964777212627e-05, 6.233949479196176e-05, -0.00025742549043533843,
     0.0010176006948637499, -0.003831129189335926, 0.01364822575279465,
     -0.0456139519499944, 0.1413313313805753],
    [-3.275582077991784e-10, 1.7998281762049917e-09, -9.590541459633031e-09,
     5.0216358097974884e-08, -2.5615042263114344e-07, 1.2706258195353963e-06,
     -6.117231048808238e-06, 2.8516699328749216e-05, -0.0001283707153322185,
     0.0005562123419752852, -0.0023104906025869067, 0.009156321175661819,
     -0.034400435334746175, 0.12151394835556217],
    [-9.766261643441946e-11, 5.711314944483544e-10, -3.2483888911739455e-09,
     1.817994596143823e-08, -9.936372209012593e-08, 5.295755656105959e-07,
     -2.747787913156664e-06, 1.3853862115988356e-05, -6.772303279938978e-05,
     0.0003201537874955159, -0.0014591534202312417, 0.0063876521207913975,
     -0.026734242683463614, 0.10634515363370545],
    [-3.1238211167794493e-11, 1.940967314938386e-10, -1.1759857905935855e-09,
     7.0201402616327355e-09, -4.1016934326396796e-08, 2.3427006824264733e-07,
     -1.3062326605690623e-06, 7.0990911565729e-06, -3.7539993250714967e-05,
     0.00019275451994281637, -0.000958718046024836, 0.0046058902638706056,
     -0.02129971519355693, 0.09441064130196894],
    [-1.0657055365122959e-11, 7.023018997400854e-11, -4.523485366946824e-10,
     2.8741546554441486e-09, -1.7909712629396494e-08, 1.0933555243251365e-07,
     -6.531973921963103e-07, 3.8140726741495617e-06, -2.173570877920121e-05,
     0.00012069512555147004, -0.0006518066088776198, 0.0034159102421551677,
     -0.017327015916331113, 0.08480339210780034],
    [-3.8571293627342135e-12, 2.6910427440348593e-11, -1.8388420483245457e-10,
     1.2409165780335518e-09, -8.227375958258487e-09, 5.354614794407053e-08,
     -3.417771206187736e-07, 2.137254783156708e-06, -1.3078713760171932e-05,
     7.821709749985716e-05, -0.0004564790563001449, 0.002595263671500153,
     -0.014345755526401199, 0.07691930497500629],
    [-1.4738372201515177e-12, 1.086644368193068e-11, -7.861430058979185e-11,
     5.622584370104798e-10, -3.957204460847202e-09, 2.738724596624728e-08,
     -1.8624469190631382e-07, 1.2434437719513248e-06, -8.142653589098664e-06,
     5.224525737177133e-05, -0.00032806218349023543, 0.00201332303868338,
     -0.012057463263229295, 0.07034269402512788],
    [-5.919223920557424e-13, 4.6036451034178155e-12, -3.519149919186832e-11,
     2.6619547359643583e-10, -1.9842897519411347e-09, 1.4567707373829575e-08,
     -1.0526485158153367e-07, 7.481307679982906e-07, -5.225638569069532e-06,
     3.5842616022414835e-05, -0.00024118388897983656, 0.0015904737979686788,
     -0.010266394454751582, 0.06477931432444685],
    [-92046859183.61679, 21126049270.360863, -2403919124.758061, 189520784.06232858,
     -12477301.71013647, 791916.3624023746, -53749.77545148947, 4145.897301935073,
     -376.9952086677397, 41.88892315807923, -5.984134175474592, 1.1968268411741783,
     -0.3989422804014209, 0.3989422804014327],
])
_PHI_COEFFICIENTS = _PHI_PIECES.T.copy()  # one row per power, for take(piece, axis=1)
_PHI_TAIL = len(_PHI_PIECES) - 1

_STANDARD_NORMAL = NormalDist()

# Gauss-Legendre rules on (-1, 1), frozen as constants as in Genz's own code:
# the positive nodes of each symmetric rule, ascending, and their weights,
# keyed by the number of points.  _legendre(n) gives the bits of numpy's
# leggauss(n).
_LEGENDRE_HALVES = {
    6: ([0.2386191860831969, 0.6612093864662645, 0.9324695142031519],
        [0.46791393457269104, 0.3607615730481387, 0.17132449237917027]),
    12: ([0.1252334085114689, 0.3678314989981802, 0.5873179542866175, 0.7699026741943047,
          0.9041172563704748, 0.9815606342467192],
         [0.2491470458134027, 0.2334925365383546, 0.20316742672306573, 0.16007832854334642,
          0.10693932599531907, 0.04717533638651141]),
    16: ([0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
          0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499],
         [0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
          0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
          0.062253523938647456, 0.027152459411754176]),
    20: ([0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
          0.5108670019508271, 0.636053680726515, 0.7463319064601508, 0.8391169718222188,
          0.912234428251326, 0.9639719272779138, 0.993128599185095],
         [0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
          0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
          0.040601429800386446, 0.017614007139150893]),
}


def _legendre(n):
    """The n-point Gauss-Legendre nodes, ascending, and weights."""
    x, w = map(np.array, _LEGENDRE_HALVES[n])
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


# Genz's rule: Gauss-Legendre nodes, mapped to (0, 2), by |rho| regime.
_GENZ_NODES = [(1.0 + x, w) for x, w in map(_legendre, (6, 12, 20))]
# |rho| below each bound takes the nodes of that index; from 0.925 on the
# kernel integrates Genz's asymptotic expansion with the 20 nodes instead.
_GENZ_REGIMES = np.array([0.3, 0.75, 0.925])
# Genz's error is absolute, so rows with both thresholds >= 0 and one of
# them >= _DEEP, whose tails are below 3e-7, take _owen_upper instead; its
# y integral is Gauss-Legendre on [y0, max(y0, 6)] (the fewest nodes that
# kept 1e-13 relative against mpmath) and Gauss-Laguerre past it (its
# integrand's singularity lies 18 or more from 0, so 16 nodes reach 2e-15).
_DEEP = 5.0
_OWEN_SPLIT = 6.0
_OWEN_NEAR = _legendre(16)
# the 16-point Gauss-Laguerre nodes and weights, frozen: numpy's laggauss(16)
_OWEN_FAR = tuple(map(np.array, (
    [0.08764941047892776, 0.4626963289150804, 1.1410577748312265, 2.1292836450983805,
     3.4370866338932067, 5.078018614549768, 7.070338535048234, 9.438314336391938,
     12.21422336886616, 15.441527368781617, 19.180156856753136, 23.515905693991908,
     28.57872974288214, 34.58339870228662, 41.94045264768833, 51.70116033954332],
    [0.2061517149578049, 0.3310578549508783, 0.2657957776442144, 0.13629693429637874,
     0.04732892869412563, 0.011299900080339598, 0.0018490709435263271,
     0.0002042719153082809, 1.4844586873981502e-05, 6.828319330871331e-07,
     1.8810248410797222e-08, 2.862350242973897e-10, 2.1270790332241214e-12,
     6.29796700251788e-15, 5.050473700035608e-18, 4.161462370372851e-22],
)))


def _gaussian(x, m):
    """m exp(-x^2/2) for 0 <= x <= 40, with full relative accuracy: x is cut
    to 20 fraction bits, xh, so xh^2 / 2 is exact, and the rest of x^2 / 2,
    d = (x - xh)(x + xh)/2 < 4e-5, enters through expm1."""
    xh = np.trunc(x * 2.0**20) * 2.0**-20
    return (m + m * np.expm1((xh - x) * (0.5 * (x + xh)))) * np.exp(-0.5 * (xh * xh))


def ndtr(x):
    """Standard normal CDF Phi, elementwise; a scalar argument gives a float.

    Phi(-|x|) = exp(-x^2/2) m(|x|) with m from the piecewise polynomials of
    _PHI_PIECES, and Phi(|x|) = 1 - Phi(-|x|).  The Gaussian factor loses
    nothing to the rounding of x^2 (_gaussian), so the lower tail stays
    within a few ulp relative down to the underflow threshold.
    ndtr(-inf) = 0, ndtr(inf) = 1 and NaN gives NaN.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.reshape(-1)
    xa = np.minimum(np.abs(x), _FAR)
    piece = np.fmin(2.0 * xa + 0.5, _PHI_TAIL).astype(np.intp)  # NaN: the tail row
    tail = piece == _PHI_TAIL
    u = np.where(tail, 1.0 / np.maximum(xa * xa, 1.0), xa - 0.5 * piece)
    coefficients = _PHI_COEFFICIENTS.take(piece, axis=1)
    m = coefficients[0]  # Horner's rule
    for c in coefficients[1:]:
        m = m * u + c
    m = _gaussian(xa, m / np.where(tail, xa, 1.0))
    p = np.where(x < 0.0, m, 1.0 - m).reshape(shape)
    return p if p.ndim else float(p)


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF on the open interval (0, 1) (AS 241)."""
    if not 0.0 < p < 1.0:
        raise _DomainError(f"std_normal_quantile requires 0 < p < 1, got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)


def chi2_1_tail(t):
    """Upper tail P(chi-squared_1 > t), composed exactly as 2(1 - Phi(sqrt(t))).

    Elementwise over arrays; a scalar argument gives a float.  Returns 1 for
    t <= 0 (the full mass) and 0 at t = +inf.
    """
    t = np.asarray(t, dtype=float)
    if np.isnan(t).any():
        raise _DomainError("chi2_1_tail requires a non-NaN argument")
    inside = t <= 0.0
    tail = np.where(inside, 1.0, 2.0 * ndtr(-np.sqrt(np.where(inside, 0.0, t))))
    return tail if tail.ndim else float(tail)


def _genz_low(h, k, r, independent_part, regime):
    """Genz's |rho| < 0.925 rule on rows of one regime: P(X > h, Y > k) is
    Phi(-h) Phi(-k) plus the integral over theta in (0, asin r) of
    exp((sin(theta) hk - (h^2 + k^2)/2) / cos^2(theta)) / (2 pi)."""
    x, w = _GENZ_NODES[regime]
    asr = np.arcsin(r) / 2.0
    sn = np.sin(asr[:, None] * x)
    f = sn * (h * k)[:, None]  # exp((sn hk - hs) / (1 - sn^2)), in place
    f -= ((h * h + k * k) / 2.0)[:, None]
    sn *= sn
    f /= 1.0 - sn
    tail = np.einsum("ij,j->i", np.exp(f, out=f), w) * asr / _TWO_PI + independent_part
    return np.minimum(1.0, np.maximum(0.0, tail))


def _genz_high(h, k, r, tail_h, tail_k):
    """Genz's 0.925 <= |rho| < 1 rule: an asymptotic expansion in 1 - rho^2
    plus a 20-node correction, measured from Phi(-max(h, k)) for rho > 0
    and from the rho = -1 limit for rho < 0.  tail_h, tail_k are Phi(-h),
    Phi(-k)."""
    negative = r < 0.0
    k = np.where(negative, -k, k)  # rho < 0 works with (h, -k) and -rho
    hk = h * k
    a_sq = (1.0 - r) * (1.0 + r)
    a = np.sqrt(a_sq)
    b_sq = (h - k) ** 2
    b = np.sqrt(b_sq)
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    cdf_h, cdf_flipped, cdf_ratio = ndtr(np.stack([h, np.where(negative, -k, k), -b / a]))
    asr = -(b_sq / a_sq + hk) / 2.0  # <= 0
    bvn = np.where(asr > -100.0, a * np.exp(asr) * (
        1.0 - c * (b_sq - a_sq) * (1.0 - d * b_sq) / 3.0 + c * d * a_sq * a_sq), 0.0)
    bvn = bvn - np.where(hk > -100.0, np.exp(-np.maximum(hk, -100.0) / 2.0) * (
        math.sqrt(_TWO_PI) * cdf_ratio * b * (1.0 - c * b_sq * (1.0 - d * b_sq) / 3.0)), 0.0)
    x, w = _GENZ_NODES[2]
    half_a = a / 2.0
    xs = (half_a[:, None] * x) ** 2
    asr = -(b_sq[:, None] / xs + hk[:, None]) / 2.0  # <= 0
    rs = np.sqrt(1.0 - xs)
    ep = np.exp(-(hk[:, None] / 2.0) * xs / (1.0 + rs) ** 2) / rs
    sp = 1.0 + c[:, None] * xs * (1.0 + 5.0 * d[:, None] * xs)
    terms = np.where(asr > -100.0, np.exp(asr) * (sp - ep), 0.0)
    bvn = (half_a * np.einsum("ij,j->i", terms, w) - bvn) / _TWO_PI
    # for rho < 0, Phi(k) and Phi(-k) of the flipped k are tail_k and cdf_flipped
    from_limit = np.where(h < 0.0, tail_k - cdf_h, tail_h - cdf_flipped) - bvn
    tail = np.where(negative, np.where(h >= k, -bvn, from_limit),
                    bvn + np.where(h >= k, tail_h, tail_k))
    return np.minimum(1.0, np.maximum(0.0, tail))


def _owen_upper(h, k, r, tail_h, tail_k):
    """P(X > h, Y > k) for h, k >= 0 as a sum of positive terms.

    Owen's T decomposition gives U(h, (k - rh)/(hs)) + U(k, (h - rk)/(ks))
    with s = sqrt(1 - r^2) and U(c, alpha) = (1/2 pi) integral_alpha^inf
    exp(-c^2 (1 + x^2)/2) / (1 + x^2) dx, which is
    (c/2 pi) exp(-c^2/2) integral_{c alpha}^inf exp(-y^2/2) / (c^2 + y^2) dy,
    and U(c, alpha) = Phi(-c) - U(c, -alpha) for alpha < 0.  Neither sum
    nor difference cancels, so the tail keeps its relative accuracy however
    small it is.  tail_h, tail_k are Phi(-h), Phi(-k).  Where h = k, as in
    every zero-point tail, the two terms are equal and one is computed.
    """
    s = np.sqrt((1.0 - r) * (1.0 + r))
    other = h != k
    c = np.concatenate([h, k[other]])
    y = np.concatenate([(k - r * h) / s, ((h - r * k) / s)[other]])  # c alpha
    y0 = np.minimum(np.abs(y), 1e8)  # U is 0 to double precision long before
    # exp(y0^2/2) integral_y0^inf exp(-y^2/2) / (c^2 + y^2) dy, the part below
    # y1 by Legendre nodes and the part above by Laguerre nodes in (y^2 - y1^2)/2
    y1 = np.maximum(y0, _OWEN_SPLIT)
    c2 = (c * c)[:, None]
    x, w = _OWEN_NEAR
    half = (y1 - y0) / 2.0
    t = half[:, None] * (1.0 + x)  # y - y0 at the Legendre nodes, then in place:
    near = -0.5 * t  # exp(-(y^2 - y0^2)/2) / (c^2 + y^2) = exp(-t (y0 + t/2)) / ...
    near -= y0[:, None]
    near *= t
    t += y0[:, None]
    t *= t
    t += c2
    near = np.exp(near, out=near) / t
    x, w_far = _OWEN_FAR
    yf = (y1 * y1)[:, None] + 2.0 * x  # y^2 at the Laguerre nodes, then in place:
    far = yf + c2  # 1 / (y (c^2 + y^2))
    far *= np.sqrt(yf, out=yf)
    integral = (half * np.einsum("ij,j->i", near, w)
                + np.exp((y0 - y1) * (0.5 * (y1 + y0))) * np.einsum("ij,j->i", 1.0 / far, w_far))
    gauss = _gaussian(np.stack([c, np.minimum(y0, _FAR)]), 1.0)
    u = gauss[0] * gauss[1] * (c / _TWO_PI * integral)
    u = np.where(y >= 0.0, u, np.concatenate([tail_h, tail_k[other]]) - u)
    first = u[: len(h)]
    second = first.copy()
    second[other] = u[len(h):]
    return first + second


def _bvn_limits(h, k, r, tail_h, tail_k, infinite):
    """The closed forms: 1 - Phi(max(h, k)) at rho = +1 and where a
    threshold is infinite, Phi(-h) Phi(-k) at rho = 0, and
    max(0, Phi(-k) - Phi(h)) at rho = -1."""
    p = np.where(h >= k, tail_h, tail_k)
    p = np.where(r == 0.0, tail_h * tail_k, p)
    negative = (r <= -1.0 + _DEGENERATE_RHO_TOL) & ~infinite  # infinite keeps its exact limit
    if negative.any():
        p = np.where(negative, np.maximum(0.0, tail_k - ndtr(h)), p)
    return p


def bvn_upper_tail(a, b, rho):
    """P(X > a, Y > b) for a standardized bivariate normal pair.

    X and Y have zero mean, unit variance, and correlation ``rho``.  The
    upper-right rectangle is the canonical primitive here; callers express
    the other quadrants through reflections of the arguments, so this single
    code path carries the whole accuracy budget (absolute error <= 1e-14).

    Arguments broadcast against each other and are evaluated elementwise;
    when all three are scalars the result is a float.  A threshold at +-inf
    gives the limit 1 - Phi(max(a, b)): 0 when either is +inf, the other's
    tail when one is -inf.  NaN thresholds and |rho| > 1 are domain errors.

    Genz's bvnu (Stat. Comput. 14:251, 2004): for |rho| < 0.925 the tail
    is Phi(-a) Phi(-b) plus a Gauss-Legendre integral over the angle
    asin(rho), with 6, 12 or 20 nodes for |rho| below 0.3, 0.75 or 0.925;
    above that, an expansion in 1 - rho^2 with a 20-node correction.  The
    absolute error is about 1e-15.  Where both thresholds are >= 0 and one
    is >= 5 the tail is below 3e-7 and Genz's absolute error would be a
    large relative one, so those rows take Owen's decomposition as a sum of
    positive integrals (_owen_upper) instead, about 1e-13 relative down to
    the underflow threshold.  Each row's method and nodes depend on that row
    alone, so row i of a batch equals the single-row call for row i.  Closed
    forms replace both at rho = 0, and at correlations within 1e-12 of +-1,
    which are treated as exactly degenerate:

    * rho = +1: X = Y, so the tail is 1 - Phi(max(a, b));
    * rho = -1: X = -Y, so the tail is max(0, Phi(-b) - Phi(a)).
    """
    a, b, rho = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, rho)))
    shape = rho.shape
    ab = np.stack([a.reshape(-1), b.reshape(-1)])
    rho = rho.reshape(-1)
    if np.isnan(ab).any():
        raise _DomainError("bvn_upper_tail requires non-NaN thresholds")
    size = np.abs(rho)
    if not (size <= 1.0).all():
        raise _DomainError("bvn_upper_tail requires -1 <= rho <= 1")
    # Phi(-a) and Phi(-b) in one call; the zero-point tails have a = b
    tail_a, tail_b = (ndtr(-ab[0]),) * 2 if np.array_equal(ab[0], ab[1]) else ndtr(-ab)
    # 0-2: Genz's integral with 6, 12 or 20 nodes; 3: Genz for |rho| >= 0.925;
    # 4: the upper tail by Owen; 5: the closed forms
    regime = np.searchsorted(_GENZ_REGIMES, size, side="right")
    regime[(np.minimum(ab[0], ab[1]) >= 0.0) & (np.maximum(ab[0], ab[1]) >= _DEEP)] = 4
    infinite = np.isinf(ab[0]) | np.isinf(ab[1])
    regime[(size >= 1.0 - _DEGENERATE_RHO_TOL) | (rho == 0.0) | infinite] = 5
    h, k = np.minimum(_FAR, np.maximum(-_FAR, ab))
    columns = np.stack([h, k, rho, tail_a, tail_b])
    p = np.empty(rho.shape)
    for g in np.flatnonzero(np.bincount(regime, minlength=6)):
        rows = np.flatnonzero(regime == g)
        h, k, r, tail_h, tail_k = columns.take(rows, axis=1)
        if g < 3:
            p[rows] = _genz_low(h, k, r, tail_h * tail_k, g)
        elif g == 3:
            p[rows] = _genz_high(h, k, r, tail_h, tail_k)
        elif g == 4:
            p[rows] = _owen_upper(h, k, r, tail_h, tail_k)
        else:
            p[rows] = _bvn_limits(h, k, r, tail_h, tail_k, infinite[rows])
    p = p.reshape(shape)
    return p if p.ndim else float(p)


def first_crossing(f: Callable[[float], float], lo: float, f_lo: float, hi: float) -> float:
    """First upward zero crossing past ``lo`` of a continuous f with value
    ``f_lo < 0`` at ``lo``, searched for up to 2 hi.

    f is evaluated at hi, then at 2 hi if it is still negative there; the
    first of them where f >= 0 closes the bracket [previous point, that
    point], and one where f is exactly 0 is the root.  When f is negative
    at both the result is +inf.  The bracket is refined by safeguarded
    Illinois steps: each evaluates the secant point and moves the end whose
    sign it shares, and when the same end moves twice running the value
    kept at the other end is halved, which keeps both ends converging.  A
    secant point outside the open bracket, or a bracket that has not halved
    over the last three steps, is replaced by the midpoint, so every iterate
    stays inside the bracket and its width shrinks at least geometrically.
    The search stops at width 4 eps |hi|, and the root lies within half
    that width of the returned midpoint.
    """
    for hi in (hi, 2.0 * hi):
        f_hi = f(hi)
        if f_hi >= 0.0:
            break
        lo, f_lo = hi, f_hi
    else:
        return math.inf
    if f_hi == 0.0:
        return hi
    moved = 0.0  # -1: lo moved last, +1: hi moved last
    widths = [math.inf] * _BISECT_WINDOW  # bracket widths 3, 2 and 1 steps ago
    for _ in range(_MAX_SOLVER_STEPS):
        width = hi - lo
        if width <= _ULPS * abs(hi):
            return lo + 0.5 * width
        x = lo - f_lo * (width / (f_hi - f_lo))
        if not lo < x < hi or width > 0.5 * widths[0]:
            x = lo + 0.5 * width
        fx = f(x)
        if math.isnan(fx):
            raise ArithmeticError("root search: objective returned NaN")
        if fx < 0.0:
            if moved < 0.0:
                f_hi *= 0.5
            lo, f_lo, moved = x, fx, -1.0
        elif fx > 0.0:
            if moved > 0.0:
                f_lo *= 0.5
            hi, f_hi, moved = x, fx, 1.0
        else:
            return x
        widths = widths[1:] + [width]
    raise ArithmeticError("root search failed to converge")
