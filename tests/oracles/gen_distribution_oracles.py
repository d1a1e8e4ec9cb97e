"""Regenerate the frozen constants used by tests/test_distributions.py.

Same machinery as gen_inference_oracles.py: the univariate CDF values come
from mpmath's erfc at 40-digit precision, the bivariate rectangle
probabilities from the one-dimensional conditional-normal quadrature
P(X > a, Y > b) = integral_a^inf phi(x) * Phi((rho x - b)/sqrt(1-rho^2)) dx,
split into quarter steps around the integrand's peak, with finer steps
where the inner Phi turns over (x = b / rho), and scaled by the peak, so
the quadrature stays accurate for |rho| near 1 and in deep tails.  Each value is computed at 40
and at 50 digits and the script stops if the two differ past the 20th
significant digit.  Neither shares code with the kernels under test.  Run
with python3 tests/oracles/gen_distribution_oracles.py and paste the printed
blocks over the constants in the test file if they ever need re-deriving.
"""

import random

import mpmath as mp

mp.mp.dps = 40


def phi(x):
    """Standard normal CDF."""
    return mp.erfc(-x / mp.sqrt(2)) / 2


def phi_pdf(x):
    return mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)


def bvn_upper(a, b, rho):
    """P(X > a, Y > b) for unit bivariate normals with correlation rho."""
    rho = mp.mpf(rho)
    s = mp.sqrt(1 - rho * rho)
    integrand = lambda x: phi_pdf(x) * phi((rho * x - b) / s)
    # the integrand is log-concave: find its peak on a coarse grid, then
    # take quarter steps within 10 of it, where all but e^-50 of its mass
    # lies, and steps of the inner Phi's scale around its turnover
    grid = [a + mp.mpf(i) / 4 for i in range(321)]
    peak = max(grid, key=integrand)
    points = [x for x in grid if abs(x - peak) <= 10]
    if rho != 0:
        points += [b / rho + i * s / 2 for i in range(-16, 17)]
    points = sorted(set([a] + [x for x in points if a <= x <= peak + 10]))
    # quad's stopping rule is absolute, so integrate relative to the peak
    scale = integrand(peak)
    return mp.quad(lambda x: integrand(x) / scale, points + [mp.inf]) * scale


def checked(f, *args):
    """f(*args) at 50 digits, after agreeing with 40 digits to 20 digits.

    Each argument is the double nearest its decimal text, taken exactly, as
    the tests pass it: in a deep tail the difference from the decimal value
    moves the result by many ulp."""
    values = []
    for dps in (40, 50):
        with mp.workdps(dps):
            values.append(f(*(mp.mpf(float(v)) for v in args)))
    if abs(values[0] - values[1]) > mp.mpf(10) ** -20 * abs(values[1]):
        raise SystemExit(f"oracle did not converge at {args}: {values}")
    return values[1]


PHI_POINTS = ["-37.5", "-37", "-30.25", "-20", "-12.3", "-8.01", "-6.3", "-5.6",
              "-3.7", "-1.2", "-0.26", "0.3", "1.959964", "2.0", "4.2", "7.9"]

# Genz regimes by |rho|: < 0.3, < 0.75, < 0.925 and the expansion above,
# both signs; thresholds on an axis; and deep tails out to +-38.
BVN_POINTS = [
    ("1.0", "0.5", "0.0"),
    ("0.5", "-0.7", "0.2"),
    ("-1.3", "2.1", "-0.25"),
    ("0.0", "0.0", "0.5"),
    ("1.0", "1.0", "-0.6"),
    ("-0.5", "1.25", "0.37"),
    ("0.0", "0.8", "-0.3"),
    ("0.3", "0.0", "0.72"),
    ("1.0", "1.0", "0.8"),
    ("2.0", "-3.0", "-0.85"),
    ("-2.2", "-0.4", "0.65"),
    ("0.0", "1.7", "0.9"),
    ("1.5", "1.5", "0.999"),
    ("0.3", "0.0", "0.95"),
    ("2.5", "3.0", "0.93"),
    ("-1.1", "0.6", "0.9999"),
    ("0.7", "0.7", "-0.95"),
    ("-1.0", "-1.0", "-0.99"),
    ("0.0", "-0.5", "-0.97"),
    ("-0.3", "0.4", "-0.999"),
    ("-1.5", "1.2", "-0.93"),
    ("3.5", "2.5", "0.45"),
    ("5.0", "5.0", "-0.5"),
    ("12.0", "12.0", "-0.5"),
    ("20.0", "3.0", "-0.7"),
    ("8.0", "6.5", "0.2"),
    ("10.0", "12.0", "0.95"),
    ("25.0", "25.0", "0.9"),
    ("36.0", "36.0", "0.99"),
    ("37.0", "0.0", "0.3"),
    ("-38.0", "37.5", "0.95"),
    ("30.0", "-38.0", "-0.6"),
    ("-38.0", "-38.0", "-0.99"),
    ("6.0", "-6.0", "-0.97"),
]

# Upper-quadrant rows with rho < 0, where Genz's terms of opposite sign
# cancel: named points, then a seeded grid with h, k ~ U(0, 5) and
# rho ~ U(-0.999, 0), each value cut to 4 decimals.
_draw = random.Random(32)
BVN_NEGATIVE_RHO_POINTS = [("3.92", "4.47", "-0.859"), ("2.0", "2.0", "-0.95"),
                           ("0.7", "0.7", "-0.95")] + [
    tuple(f"{v:.4f}" for v in (_draw.uniform(0, 5), _draw.uniform(0, 5),
                               _draw.uniform(-0.999, 0)))
    for _ in range(160)
]

print("PHI_ORACLE = {")
for x in PHI_POINTS:
    print(f"    {x}: {mp.nstr(checked(phi, x), 22)},")
print("}")

print()
print("BVN_ORACLE = [")
for a, b, rho in BVN_POINTS:
    print(f"    ({a}, {b}, {rho}, {mp.nstr(checked(bvn_upper, a, b, rho), 22)}),")
print("]")

print()
print("BVN_NEGATIVE_RHO_ORACLE = [")
for a, b, rho in BVN_NEGATIVE_RHO_POINTS:
    print(f"    ({a}, {b}, {rho}, {mp.nstr(checked(bvn_upper, a, b, rho), 22)}),")
print("]")
