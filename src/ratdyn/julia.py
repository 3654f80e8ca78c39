"""Julia-set sampling, membership tests, and rendering.

The Julia set is approximated by backward random walks: preimages are dense
in J, and choosing each preimage x with probability e(x)/d makes the visit
law consistent with the balanced measure the rest of the package integrates
against. Each step draws a uniform column of ratmap's fiber table, whose
rows list x e(x) times. Escape-time classification covers the polynomial
case, through one orbit loop (`_escape_counts`).

A sample is a `JuliaCloud`, an array-backed point set; `read_cloud_csv`
reads the point CSV format back to a point tuple that keeps its arrays.
"""

import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetExceeded
from .numkernel import (SpherePoint, _PointSet, _as_arrays, _as_pair,
                        _read_points_csv, _write_points_csv, chordal_distance,
                        embed_points, poly_eval, sphere_embed,
                        sphere_nearest)
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
    satisfy: "inverse_iteration" (backward-walk samples).
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
    """max(2, max_k |P_k| + 1, rho), rho the one positive root of |a_d| r^d
    - sum_{k<d} |a_k| r^k - r with a = P / Q0: beyond rho, |p(z)| > |z| and
    orbits escape (Milnor, Dynamics in One Complex Variable, 3rd ed., 2006)."""
    f = -np.abs(R._p / R._q[0])
    f[-1] *= -1.0
    f[1:2] -= 1.0   # the -r term; a constant map has none
    rho = np.roots(f[::-1]).real.max(initial=0.0)
    return max(2.0, float(np.max(np.abs(R._p))) + 1.0, float(rho))


def _escape_counts(c, z, radius, max_iter):
    """For each start z_0 = z, the first k < max_iter with |z_k| > radius,
    where z_{k+1} = poly(c)(z_k), or -1 when there is none. c is a (d + 1,)
    coefficient table, constant term first, or (d + 1, n) for one map per
    start. `poly_eval`, whose bits do not depend on numpy's SIMD dispatch,
    steps the live orbits only. max_iter below 1 and a non-finite
    coefficient raise ValueError."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not np.isfinite(c).all():
        raise ValueError("an escape-time map needs finite coefficients")
    z = np.asarray(z, dtype=complex).ravel()
    count, live = np.full(z.size, -1), np.arange(z.size)
    for k in range(max_iter):
        out = np.hypot(z.real, z.imag) > radius
        if out.any():   # escaped orbits leave the live arrays
            count[live[out]] = k
            live, z, c = live[~out], z[~out], c[:, ~out] if c.ndim > 1 else c
            if not live.size:
                break
        z = poly_eval(c, z)
    return count


def escape_membership(R, z, max_iter=256, escape_radius=None):
    """'escapes' iff some iterate of the polynomial map leaves the radius."""
    if not R.is_polynomial:
        raise ValueError("escape classification is for polynomial maps")
    if escape_radius is None:
        escape_radius = default_escape_radius(R)
    zv, zinf = _as_pair(z)
    count = _escape_counts(R._p / R._q[0], np.inf if zinf else zv,
                           escape_radius, max_iter)
    return "bounded" if count[0] < 0 else "escapes"


def mandelbrot_member(c, max_iter=256):
    """True iff the orbit of 0 under z^2 + c stays within radius 2."""
    return bool(_mandelbrot_counts(c, max_iter)[0] < 0)


def _mandelbrot_counts(c, max_iter=256):
    """`_escape_counts` of 0 under z^2 + c for each parameter c: the table
    [c, 0, 1], started at z_1 = c, with radius 2."""
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    table = np.stack([c, np.zeros_like(c), np.ones_like(c)])
    return _escape_counts(table, c, 2.0, max_iter)


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

    window = (re_min, re_max, im_min, im_max); resolution integer or (w, h).
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
    w, h = map(operator.index, np.broadcast_to(resolution, 2))
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
        count = _escape_counts(R._p / R._q[0], z, default_escape_radius(R),
                               max_iter).reshape(h, w)
        return np.where(count < 0, 255,
                        254.0 * count / max_iter).astype(np.uint8)
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
    zs = zs[np.argsort(np.angle(zs - np.mean(zs)))]
    net = zs[::max(1, zs.size // anchors)]   # greedy angular net
    n = net.size
    if n < 4:
        return 0.0
    r = 1.05 * np.maximum(np.abs(net - np.roll(net, 1)),
                          np.abs(net - np.roll(net, -1)))
    # each anchor's neighbours within r, itself excluded
    cnt = np.sum(np.abs(net - net[:, None]) <= r[:, None], axis=1) - 1
    return np.count_nonzero(cnt == 2) / n
