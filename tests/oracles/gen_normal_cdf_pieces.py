"""Regenerate the coefficient table of qualint.distributions.ndtr.

ndtr computes Phi(-|x|) = exp(-x^2/2) m(x), with m(x) = Phi(-x) exp(x^2/2)
(Mills' ratio over sqrt(2 pi)), which is smooth and between 0.06 and 0.5
on [0, 6.25].  Two kinds of piece approximate m:

* for |x| < 6.25, piece j covers |x - j/2| <= 1/4 and is a degree-13
  polynomial in t = x - j/2 (piece 0 thus gives m(0) = 1/2 exactly);
* from 6.25 on, the last piece is x m(x) as a degree-13 polynomial in
  w = 1/x^2 on [0, 1/6.25^2], where x m(x) tends to 1/sqrt(2 pi).

Each polynomial is mpmath's Chebyshev interpolant at 40 digits.  The script
prints the worst relative error of every piece (all below 5e-18, a
twentieth of a double's unit roundoff) and then the table, one row per
piece, highest power first, ready to paste over ``_PHI_PIECES``.  Run with
python3 tests/oracles/gen_normal_cdf_pieces.py.
"""

import mpmath as mp

mp.mp.dps = 40

DEGREE = 13
WIDTH = mp.mpf(1) / 2
PIECES = 13  # centres 0, 1/2, ..., 6
TAIL_FROM = (PIECES - mp.mpf(1) / 2) * WIDTH


def mills(x):
    """m(x) = Phi(-x) exp(x^2/2)."""
    return mp.erfc(x / mp.sqrt(2)) / 2 * mp.exp(x * x / 2)


def tail(w):
    """x m(x) at x = 1/sqrt(w)."""
    if w == 0:
        return 1 / mp.sqrt(2 * mp.pi)
    x = 1 / mp.sqrt(w)
    return x * mills(x)


def worst_relative(poly, f, lo, hi):
    grid = [lo + (hi - lo) * mp.mpf(i) / 400 for i in range(401)]
    return max(abs(mp.polyval(poly, v) / f(v) - 1) for v in grid)


rows = []
for j in range(PIECES):
    centre = j * WIDTH
    piece = lambda t, c=centre: mills(c + t)
    poly = mp.chebyfit(piece, [-WIDTH / 2, WIDTH / 2], DEGREE + 1)
    print(f"# piece {j}: worst relative error "
          f"{mp.nstr(worst_relative(poly, piece, -WIDTH / 2, WIDTH / 2), 3)}")
    rows.append(poly)
w_max = 1 / TAIL_FROM**2
poly = mp.chebyfit(tail, [0, w_max], DEGREE + 1)
print(f"# tail: worst relative error {mp.nstr(worst_relative(poly, tail, mp.mpf(0), w_max), 3)}")
rows.append(poly)

print("_PHI_PIECES = np.array([")
for poly in rows:
    cells = [repr(float(c)) for c in poly]
    lines, line = [], "    ["
    for cell in cells:
        if len(line) + len(cell) + 2 > 88:
            lines.append(line.rstrip())
            line = "     "
        line += cell + ", "
    lines.append(line.rstrip(", ") + "],")
    print("\n".join(lines))
print("])")
