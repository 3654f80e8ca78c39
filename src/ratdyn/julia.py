"""Julia-set sampling, membership tests, and rendering.

The Julia set is approximated by backward random walks: preimages are dense
in J, and choosing each preimage x with probability e(x)/d makes the visit
law consistent with the balanced measure the rest of the package integrates
against. Each step draws a uniform column of ratmap's fiber table, whose
rows list x e(x) times. Escape-time classification covers the polynomial
case.

A sample is a `JuliaCloud`, an array-backed point set; `read_cloud_csv`
reads the point CSV format back to a point tuple that keeps its arrays.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetExceeded
from .numkernel import (SpherePoint, _PointSet, _as_arrays, _as_pair,
                        _read_points_csv, _write_points_csv, chordal_distance,
                        embed_points, sphere_embed, sphere_nearest)
from .ratmap import _fiber_table, critical_points, evaluate

BURN_IN = 20

# cap on steps * walkers of one backward walk (its output cells)
WALK_BUDGET = 1 << 26

# walkers of a sample that only feeds a statistic and is never written out.
# Backward orbits equidistribute however many chains run side by side, and
# per-call overhead dominates an 8-row step, so 64 chains reach a count in
# an eighth of the steps at a fraction of the time. Written clouds keep the
# default of 8, which fixes their bits.
_STAT_WALKERS = 64


@dataclass(frozen=True, eq=False)
class JuliaCloud(_PointSet):
    """A sampled Julia set, held as arrays (`numkernel._PointSet`).

    z and isinf are read-only arrays of the samples (z is 0 at infinity).
    `points`, and iteration, give them as SpherePoints, built on first
    access; `mesh` is measured on first access. A slice is the sub-cloud
    of those samples. generator names the numeric criterion the points
    satisfy: "inverse_iteration" (backward-walk samples) or
    "escape_boundary".
    """
    z: np.ndarray
    isinf: np.ndarray
    generator: str
    seed: int
    depth: int
    burn_in: int

    @property
    def points(self):
        return self._points

    def __getitem__(self, key):
        """A point, or for a slice the sub-cloud of those samples."""
        if isinstance(key, slice):
            return replace(self, z=self.z[key], isinf=self.isinf[key])
        return self.points[key]

    def finite_values(self):
        """Finite points as a complex array (infinite samples dropped)."""
        return self.z[~self.isinf]


# ---------------------------------------------------------------------------
# batched backward walk
# ---------------------------------------------------------------------------

def backward_walk(R, start, steps, walkers, rng):
    """Lockstep backward chains: returns (steps, walkers) complex points.

    Each chain independently picks one of the d preimages of its current
    point uniformly with multiplicity, i.e. x with probability e(x)/d.
    Also returns the matching is-infinity flags. Each step solves every
    walker's fiber with ratmap's fiber table, whose row lists x e(x)
    times, and each walker takes the entry of its row in a uniformly drawn
    column. Raises BudgetExceeded before allocating when steps * walkers
    exceeds WALK_BUDGET.
    """
    return _walk(R, start, steps, walkers, rng, steps)


def _walk(R, start, steps, walkers, rng, keep):
    """`backward_walk`, storing only its last `keep` rows."""
    if R.degree < 1:
        raise ValueError("backward walks need a nonconstant map")
    if steps * walkers > WALK_BUDGET:
        raise BudgetExceeded(
            f"{steps} steps x {walkers} walkers exceeds the walk budget "
            f"of {WALK_BUDGET} cells")
    zv, zinf = _as_pair(start)
    z = np.full(walkers, zv, dtype=complex)
    isinf = np.full(walkers, zinf, dtype=bool)
    out = np.empty((keep, walkers), dtype=complex)
    out_inf = np.empty((keep, walkers), dtype=bool)
    cols = np.arange(walkers)
    for k in range(steps):
        pick = rng.integers(0, R.degree, size=walkers)
        roots, at, _ = _fiber_table(R, z, isinf)
        z = roots[cols, pick]
        isinf = np.zeros(walkers, bool) if at is None else at[cols, pick]
        if k >= steps - keep:
            out[k - steps + keep], out_inf[k - steps + keep] = z, isinf
    return out, out_inf


def sample_inverse_iteration(R, start, depth=60, count=2000, seed=0,
                             burn_in=BURN_IN, walkers=8):
    """Backward-walk sample of the Julia set.

    Runs `walkers` lockstep chains from `start`, discards the first
    `burn_in` levels of each, and returns `count` points concatenated in
    walker order. Identical seeds give bit-identical clouds.
    """
    if R.degree < 2:
        raise ValueError("inverse iteration needs degree >= 2")
    if count <= 0:
        return JuliaCloud((), (), "inverse_iteration", seed, depth, burn_in)
    walkers = max(1, min(walkers, count))
    tail = -(-count // walkers)
    steps = max(depth, burn_in + tail)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    chains, chain_inf = _walk(R, start, steps, walkers, rng, tail)
    # walker-major order: each walker's last `tail` points in turn
    return JuliaCloud(chains.T.ravel()[:count], chain_inf.T.ravel()[:count],
                      "inverse_iteration", seed, depth, burn_in)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def default_escape_radius(R):
    """max(2, largest numerator coefficient magnitude + 1)."""
    return max(2.0, float(np.max(np.abs(R._p))) + 1.0)


def escape_membership(R, z, max_iter=256, escape_radius=None):
    """'escapes' iff some iterate of the polynomial map leaves the radius."""
    if not R.is_polynomial:
        raise ValueError("escape classification is for polynomial maps")
    if escape_radius is None:
        escape_radius = default_escape_radius(R)
    zv, zinf = _as_pair(z)
    if zinf:
        return "escapes"
    c = R._p / R._q[0]
    w = complex(zv)
    for _ in range(max_iter):
        if abs(w) > escape_radius:
            return "escapes"
        w = complex(np.polynomial.polynomial.polyval(w, c))
    return "bounded"


def mandelbrot_member(c, max_iter=256):
    """True iff the orbit of 0 under z^2 + c stays within radius 2."""
    c = complex(c)
    z = 0j
    for _ in range(max_iter):
        z = z * z + c
        if abs(z) > 2.0:
            return False
    return True


def critical_points_in_julia(R, points, tol=1e-3):
    """Critical points whose chordal distance to the sample is below tol.

    points is any sequence of sample points: a JuliaCloud, a complex
    array, SpherePoints or complex numbers.
    """
    return _critical_near(R, *_sample_arrays(points), tol)


def _sample_arrays(points):
    """A Julia sample as (z, isinf); an empty one raises ValueError."""
    z, isinf = _as_arrays(points)
    if not z.size:
        raise ValueError("need a nonempty Julia sample")
    return z, isinf


def _critical_near(R, z, isinf, tol):
    """`critical_points_in_julia` of the sample (z, isinf)."""
    crit = critical_points(R)
    dist, _ = sphere_nearest(sphere_embed(z, isinf),
                             embed_points(cd.point for cd in crit))
    return tuple(cd for cd, dv in zip(crit, dist) if dv < tol)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

MAX_PIXELS = 8192 * 8192


def render(R, window, resolution, mode="auto", max_iter=96, samples=40000,
           depth=60, seed=0):
    """Grayscale image of the dynamics over a rectangular window.

    window = (re_min, re_max, im_min, im_max); resolution int or (w, h).
    Escape-time shading for polynomial maps (interior white, exterior shaded
    by escape speed); inverse-iteration density histogram otherwise. Row 0
    is the top of the window. Deterministic for a fixed seed. A window
    with a non-finite bound or an empty range (`_check_window`) and
    max_iter below 1 raise ValueError.

    The density histogram only counts its sample, so the sample walks
    `_STAT_WALKERS` chains, not the 8 of a written cloud.
    """
    x0, x1, y0, y1 = _check_window(window)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if isinstance(resolution, int):
        w = h = resolution
    else:
        w, h = resolution
    if w * h > MAX_PIXELS:
        raise BudgetExceeded(f"{w}x{h} exceeds the pixel budget")
    if w <= 0 or h <= 0:
        return np.zeros((max(h, 0), max(w, 0)), dtype=np.uint8)
    if mode == "auto":
        mode = "escape" if R.is_polynomial else "density"
    if mode == "escape":
        if not R.is_polynomial:
            raise ValueError("escape rendering is for polynomial maps")
        xs = x0 + (np.arange(w) + 0.5) * (x1 - x0) / w
        ys = y1 - (np.arange(h) + 0.5) * (y1 - y0) / h
        z = xs[None, :] + 1j * ys[:, None]
        c = R._p / R._q[0]
        radius = default_escape_radius(R)
        count = np.zeros(z.shape, dtype=np.int32)
        alive = np.ones(z.shape, dtype=bool)
        for k in range(max_iter):
            out = alive & (np.abs(z) > radius)
            count[out] = k
            alive &= ~out
            if not alive.any():
                break
            z[alive] = np.polynomial.polynomial.polyval(z[alive], c)
        img = np.where(alive, 255,
                       (254.0 * count / max_iter)).astype(np.uint8)
        return img
    if mode != "density":
        raise ValueError(f"unknown render mode: {mode!r}")
    cloud = sample_inverse_iteration(
        R, _render_start(R), depth=depth, count=samples, seed=seed,
        walkers=_STAT_WALKERS)
    zs = cloud.finite_values()
    hist, _, _ = np.histogram2d(
        zs.real, zs.imag, bins=(w, h), range=((x0, x1), (y0, y1)))
    hist = hist.T[::-1]  # row 0 at the top
    top = hist.max()
    if top <= 0:
        return np.zeros((h, w), dtype=np.uint8)
    return np.rint(255.0 * hist / top).astype(np.uint8)


def _check_window(window):
    """The window (re_min, re_max, im_min, im_max) as floats; a bound that
    is not finite, or a min not below its max, raises ValueError."""
    x0, x1, y0, y1 = bounds = tuple(float(t) for t in window)
    if not (x0 < x1 and y0 < y1 and np.isfinite(bounds).all()):
        raise ValueError(f"window {bounds} needs finite bounds, each min "
                         "below its max")
    return bounds


# chordal distance within which two points count as one in `_exceptional`
# and `_render_start`
_SAME = 1e-9


def _exceptional(R):
    """E_R, the points with a finite grand orbit: the critical points of
    index d that R fixes or that R swaps in a pair; at most two."""
    full = [cd for cd in critical_points(R) if cd.index == R.degree]
    return [a.point for a in full
            if any(chordal_distance(a.value, b.point) <= _SAME
                   and chordal_distance(b.value, a.point) <= _SAME
                   for b in full)]


def _render_start(R):
    """A generic start for backward walks: a few forward iterates of a
    fixed irrational-angle seed, or the seed itself when they escape or
    end on the exceptional set, where a backward walk stays for ever (the
    iterates of z^n, n >= 6, underflow to 0)."""
    seed = z = SpherePoint.finite(0.4242 + 0.2718j)
    for _ in range(4):
        z = evaluate(R, z)
        if z.is_infinity or abs(z.z) > 1e6:
            return seed
    if any(chordal_distance(z, e) <= _SAME for e in _exceptional(R)):
        return seed
    return z


def write_pgm(path, image):
    """Binary PGM (P5, maxval 255)."""
    image = np.asarray(image, dtype=np.uint8)
    h, wd = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{wd} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def write_cloud_csv(path, cloud):
    """One line re,im,is_infinity per point of a cloud or point sequence."""
    _write_points_csv(path, *_as_arrays(cloud))


def read_cloud_csv(path):
    """Points from a cloud CSV, as a tuple that keeps its arrays."""
    return _PointSet(*_read_points_csv(path)[:2])._points


def circle_neighbor_stats(points, anchors=64):
    """Fraction of net anchors with exactly two net neighbors.

    Heuristic check that a planar cloud traces a simple closed curve: thin
    the cloud to a well-separated net, order it by angle about the centroid,
    and ask each anchor for its neighbors within a radius just beyond the
    adjacent gaps. On a topological circle nearly every anchor sees exactly
    its two arc neighbors.
    """
    zs = np.asarray(points, dtype=complex)
    center = np.mean(zs)
    order = np.argsort(np.angle(zs - center))
    zs = zs[order]
    # greedy angular net
    step = max(1, zs.size // anchors)
    net = zs[::step]
    n = net.size
    if n < 4:
        return 0.0
    good = 0
    for i in range(n):
        prev_d = abs(net[i] - net[(i - 1) % n])
        next_d = abs(net[i] - net[(i + 1) % n])
        r = 1.05 * max(prev_d, next_d)
        cnt = int(np.sum(np.abs(net - net[i]) <= r)) - 1
        if cnt == 2:
            good += 1
    return good / n
