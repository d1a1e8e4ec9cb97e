"""Regenerate the frozen constants used by tests/test_inference.py.

Everything here is computed independently of the package: the normal CDF
comes from mpmath's erfc at 40-digit precision, and the bivariate upper
tail P(X > a, Y > b; rho) is a one-dimensional conditional-normal
quadrature.  Run with  python3 tests/oracles/gen_inference_oracles.py  and
paste the printed block over the constants in the test file if they ever
need to be re-derived.
"""

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
    return mp.quad(integrand, [a, mp.inf])


def z_quantile(p):
    return mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)


def fmt(name, value):
    print(f"{name} = {mp.nstr(value, 22)}")


SQRT5 = mp.sqrt(5)
Z975 = z_quantile("0.975")
Z95 = z_quantile("0.95")

print("# --- crossover test ---")
fmt("GS_P_AT_STAT4", phi(-2))

print("# --- relative-difference tails (kappa=2, se1=se2) => nu = -3/5 ---")
fmt("RD_EXAMPLE_STAT", SQRT5)
fmt("RD_EXAMPLE_BOUNDARY", 2 * phi(-SQRT5))
fmt("RD_EXAMPLE_ZERO_TAIL", 4 * bvn_upper(SQRT5, SQRT5, mp.mpf(-3) / 5))
fmt("RD_NULL_TAIL_T1", 4 * bvn_upper(1, 1, mp.mpf(-3) / 5))
fmt(
    "RD_ZERO_QUANTILE_K2",
    mp.findroot(lambda q: 4 * bvn_upper(q, q, mp.mpf(-3) / 5) - mp.mpf("0.05"), 0.7),
)

print("# --- omnibus tails (kappa=2, se1=se2) => nu = 4/5 ---")
fmt("OMNI_NULL_TAIL_T1", 2 * bvn_upper(1, 1, mp.mpf(4) / 5))
s72 = mp.sqrt(mp.mpf("7.2"))
fmt("OMNI_EXAMPLE_BOUNDARY", phi(-s72))
fmt("OMNI_EXAMPLE_ZERO_TAIL", 2 * bvn_upper(s72, s72, mp.mpf(4) / 5))

print("# --- omnibus zero-point quantile, kappa=1.1, se1=se2=1 => nu=220/221 ---")
nu11 = mp.mpf(220) / 221
root = mp.findroot(lambda s: 2 * bvn_upper(s, s, nu11) - mp.mpf("0.05"), 1.9)
fmt("OMNI_ZERO_QUANTILE_K110", root)
# the threshold panel: the root s of 2 P(V1 > s, V2 > s; nu) = alpha where it
# binds, i.e. exceeds z = -Phi^-1(alpha).  With x = s + t/s the conditional
# integral is phi(s)/s times an integral in t of order 1, which mp.quad keeps
# to 40 digits far in the tail (on x it lost 7e-5 relative at s = 21); it is
# split on the scale of exp(-t) and where Phi's argument steps, for nu near 1
print("OMNI_THRESHOLD_PANEL = [  # (nu, alpha, root)")
for nu, nu_text in [(mp.mpf("0.5"), "0.5"), (mp.mpf("0.8"), "0.8"),
                    (mp.mpf(220) / 221, "220 / 221"), (1 - mp.mpf("1e-9"), "1 - 1e-9")]:
    s_nu = mp.sqrt(1 - nu * nu)

    def zero_tail(s):
        step = s * (s / nu - s)  # where nu (s + t/s) = s
        cuts = sorted({c for c in (1, 4, 16, 64, step - 8 * s * s_nu, step, step + 8 * s * s_nu)
                       if c > 0})
        integrand = lambda t: mp.exp(-t - t * t / (2 * s * s)) * phi((nu * (s + t / s) - s) / s_nu)
        return 2 * phi_pdf(s) / s * mp.quad(integrand, [0, *cuts, mp.inf])

    for alpha in ("0.45", "0.05", "1e-6", "1e-100"):
        with mp.workdps(200):  # 2 alpha - 1 keeps alpha's digits
            z, upper = (+(-z_quantile(mp.mpf(alpha) / d)) for d in (1, 2))
        if zero_tail(z) > mp.mpf(alpha):
            root = mp.findroot(lambda s: mp.log(zero_tail(s) / mp.mpf(alpha)), (z, upper),
                               solver="anderson")
            print(f"    ({nu_text}, {alpha}, {mp.nstr(root, 22)}),")
print("]")
fmt("Z95", Z95)
fmt("Z975", Z975)

print("# --- local power pins ---")
# relative-difference: c=(6,0), sigma=(1,1), lam=1/2, kappa=2, alpha=.05
# effective thetas (6/sqrt2, 0), ses (1/sqrt2, 1/sqrt2); offsets +-6/sqrt5,
# +-12/sqrt5; threshold = z_{.975} (the zero-point root 0.65... never binds).
c1 = 6 / SQRT5
c2 = 12 / SQRT5
nu = mp.mpf(-3) / 5
power = (
    bvn_upper(Z975 - c1, Z975 - c1, nu)
    + bvn_upper(Z975 + c1, Z975 + c1, nu)
    + bvn_upper(Z975 + c2, Z975 - c2, nu)
    + bvn_upper(Z975 - c2, Z975 + c2, nu)
)
fmt("RD_LOCAL_POWER_PIN", power)

# finite-sample approximation: theta=(1,0), se=(0.1,0.1), kappa=2, alpha=.05
d = mp.sqrt(mp.mpf("0.05"))
c1 = 1 / d
c2 = 2 / d
power = (
    bvn_upper(Z975 - c1, Z975 - c1, nu)
    + bvn_upper(Z975 + c1, Z975 + c1, nu)
    + bvn_upper(Z975 + c2, Z975 - c2, nu)
    + bvn_upper(Z975 - c2, Z975 + c2, nu)
)
fmt("RD_POWER_APPROX_PIN", power)

# omnibus: c=(6,-6), sigma=(1,1), lam=1/2, kappa=2, alpha=.05
# effective thetas (6/sqrt2, -6/sqrt2); both offsets 18/sqrt5; nu=4/5;
# threshold = z_{.95} (zero root binds only for kappa near 1).
c = 18 / SQRT5
nu = mp.mpf(4) / 5
power = bvn_upper(Z95 - c, Z95 - c, nu) + bvn_upper(Z95 + c, Z95 + c, nu)
fmt("OMNI_LOCAL_POWER_PIN", power)

print("# --- src/qualint/inference.py: the normal point where alpha/2 rounds to 0 ---")
tiny = mp.mpf(2) ** -1075
fmt("_SMALLEST_ALPHA_POINT", mp.findroot(lambda z: mp.log(phi(-z) / tiny), 38.5))
