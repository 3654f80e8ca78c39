"""Numerics made apart from ratdyn, and the property checks built on them.

Nothing here imports ratdyn: maps are plain ascending coefficient arrays,
evaluated by this file's own Horner loop, and distances are chordal.
"""

import math

import numpy as np


class CheckFailed(AssertionError):
    """A job's output broke a property it must satisfy."""


def expect(ok, name, detail=""):
    if not ok:
        raise CheckFailed(f"{name}: {detail}" if detail else name)


# ---------------------------------------------------------------------------
# maps on the sphere, evaluated independently
# ---------------------------------------------------------------------------

class Map:
    """R = P/Q from ascending coefficients, with the 1/z chart for |z| > 1."""

    def __init__(self, p, q=(1,)):
        d = max(len(p), len(q)) - 1
        self.degree = d
        self.p = np.zeros(d + 1, dtype=complex)
        self.q = np.zeros(d + 1, dtype=complex)
        self.p[:len(p)] = p
        self.q[:len(q)] = q

    def __call__(self, z, isinf=None):
        """(values, isinf) of R on arrays; infinity in, infinity out allowed."""
        z = np.asarray(z, dtype=complex)
        inf = (np.zeros(z.shape, dtype=bool) if isinf is None
               else np.asarray(isinf, dtype=bool))
        big = inf | (np.abs(z) > 1.0)
        safe = np.where(big & ~inf, z, 1.0)
        w = np.where(inf, 0j, np.where(big, 1.0 / safe, z))
        num = np.where(big, horner(self.p[::-1], w), horner(self.p, w))
        den = np.where(big, horner(self.q[::-1], w), horner(self.q, w))
        out_inf = den == 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            val = np.where(out_inf, 0j, num / np.where(out_inf, 1.0, den))
        out_inf |= ~np.isfinite(val)
        return np.where(out_inf, 0j, val), out_inf

    def derivative_numerator(self):
        """W = P'Q - PQ' as ascending coefficients."""
        pd = np.polynomial.polynomial
        return pd.polysub(pd.polymul(pd.polyder(self.p), self.q),
                          pd.polymul(self.p, pd.polyder(self.q)))


def horner(c, z):
    acc = np.zeros(np.shape(z), dtype=complex)
    for k in range(len(c) - 1, -1, -1):
        acc = acc * z + c[k]
    return acc


def chordal(a, ainf, b, binf):
    """Chordal distance between arrays of sphere points."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ainf = np.asarray(ainf, dtype=bool)
    binf = np.asarray(binf, dtype=bool)
    both = 2.0 * np.abs(a - b) / (np.hypot(1.0, np.abs(a)) * np.hypot(1.0, np.abs(b)))
    to_inf = 2.0 / np.hypot(1.0, np.abs(np.where(ainf, b, a)))
    return np.where(ainf & binf, 0.0, np.where(ainf | binf, to_inf, both))


def iterate(R, z, isinf, n):
    for _ in range(n):
        z, isinf = R(z, isinf)
    return z, isinf


def arcsine_moment(k, half_width):
    """k-th moment of the arcsine law on [-h, h]: C(k, k/2) (h/2)^k, 0 if odd."""
    if k % 2:
        return 0.0
    return math.comb(k, k // 2) * (half_width / 2.0) ** k


def square_root_fiber(y, n):
    """The 2^n preimages of y under z^2, in closed form."""
    k = np.arange(2 ** n)
    return abs(y) ** (0.5 ** n) * np.exp(1j * (np.angle(y) + 2.0 * np.pi * k) / 2 ** n)


def trig_poly(coeffs, z):
    """sum over (j, k) of c z^j conj(z)^k, by this file's own arithmetic."""
    z = np.asarray(z, dtype=complex)
    return sum(c * z ** j * np.conj(z) ** k for (j, k), c in coeffs.items())


# ---------------------------------------------------------------------------
# property checks shared by the library and CLI workloads
# ---------------------------------------------------------------------------

TREE_TOL = 1e-7      # chordal |R^n(x) - y|; forward error grows like |(R^n)'|
STEP_TOL = 1e-9      # chordal |R(x_{k+1}) - x_k| for one backward step
ON_SET_TOL = 1e-6    # distance of a sample from its known Julia set


def check_tree(R, y, n, pts, isinf, ints, den, label):
    expect(den == R.degree ** n, f"{label} denominator", f"{den}")
    expect(sum(int(w) for w in ints) == R.degree ** n,
           f"{label} weights sum to d^n", f"{sum(ints)} != {R.degree ** n}")
    expect(all(int(w) >= 1 for w in ints), f"{label} positive weights")
    img, img_inf = iterate(R, pts, isinf, n)
    err = chordal(img, img_inf, np.full(img.shape, y), np.zeros(img.shape, bool))
    expect(float(np.max(err)) <= TREE_TOL, f"{label} R^n(x) = y",
           f"chordal error {float(np.max(err)):.3g}")


def check_backward_steps(R, start, chain, label):
    """chain[k] are preimages of chain[k-1], chain[0] of start (arrays)."""
    prev = np.full(chain.shape[1:], start, dtype=complex)
    worst = 0.0
    for row in chain:
        img, img_inf = R(row)
        worst = max(worst, float(np.max(chordal(
            img, img_inf, prev, np.zeros(prev.shape, bool)))))
        prev = row
    expect(worst <= STEP_TOL, f"{label} R(x_k+1) = x_k", f"error {worst:.3g}")


def check_consecutive(R, pts, block, label):
    """Walker-major samples: within a block, each point maps to the previous."""
    pts = np.asarray(pts, dtype=complex)
    worst = 0.0
    for s in range(0, pts.size, block):
        run = pts[s:s + block]
        img, img_inf = R(run[1:])
        err = chordal(img, img_inf, run[:-1], np.zeros(img.shape, bool))
        worst = max(worst, float(np.max(err, initial=0.0)))
    expect(worst <= STEP_TOL, f"{label} consecutive samples", f"error {worst:.3g}")


def check_on_circle(z, label):
    dev = float(np.max(np.abs(np.abs(z) - 1.0)))
    expect(dev <= ON_SET_TOL, f"{label} |z| = 1", f"deviation {dev:.3g}")


def check_on_interval(z, half, label):
    z = np.asarray(z, dtype=complex)
    im = float(np.max(np.abs(z.imag)))
    re = float(np.max(np.abs(z.real)))
    expect(im <= ON_SET_TOL, f"{label} real", f"max |Im| {im:.3g}")
    expect(re <= half + ON_SET_TOL, f"{label} in [-{half}, {half}]",
           f"max |Re| {re:.6g}")


def check_arcsine_mc(x, half, label):
    """Mean of x^2 against the arcsine law, within 4 sigma / sqrt(N)."""
    x = np.asarray(x, dtype=complex).real
    want = arcsine_moment(2, half)
    sigma = math.sqrt(arcsine_moment(4, half) - want ** 2)
    got = float(np.mean(x * x))
    bound = 4.0 * sigma / math.sqrt(x.size)
    expect(abs(got - want) <= bound, f"{label} E x^2",
           f"{got:.6g} vs {want} (bound {bound:.3g})")
