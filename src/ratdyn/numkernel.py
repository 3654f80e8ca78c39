"""Sphere geometry, polynomial arithmetic, and a multiplicity-aware root finder.

Points live on the Riemann sphere: a finite complex value or the point at
infinity. All distances are chordal, so infinity is an ordinary point at
distance <= 2 from everything else. Polynomial coefficients are stored in
ascending order (constant term first).

Besides the one-polynomial finder, `_row_roots` solves a stack of
polynomials of one degree at once, and `_cluster_rows` groups each row's
roots into multiplicity clusters, for the one-polynomial finder too.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import EvaluationAtInfinity, NonConvergence

EPS = float(np.finfo(float).eps)

# Default clustering radius factor for root identification: two approximate
# roots within CLUSTER_FACTOR * (1 + |root|) of each other count as one root.
CLUSTER_FACTOR = 1e-6

# Iteration budget for the simultaneous root solver.
ROOT_BUDGET = 500


# ---------------------------------------------------------------------------
# sphere points and the chordal metric
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpherePoint:
    """A point of the Riemann sphere: finite complex value or infinity."""

    z: complex = 0j
    is_infinity: bool = False

    def __post_init__(self):
        if not self.is_infinity:
            v = complex(self.z)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("finite SpherePoint with non-finite components")
            object.__setattr__(self, "z", v)
        else:
            object.__setattr__(self, "z", 0j)

    @classmethod
    def finite(cls, z):
        return cls(complex(z), False)

    @classmethod
    def infinity(cls):
        return cls(0j, True)

    @classmethod
    def from_value(cls, value):
        """Coerce a complex number or SpherePoint; non-finite complex -> infinity."""
        if isinstance(value, SpherePoint):
            return value
        v = complex(value)
        if math.isfinite(v.real) and math.isfinite(v.imag):
            return cls(v, False)
        return cls.infinity()

    @property
    def value(self) -> complex:
        if self.is_infinity:
            raise EvaluationAtInfinity("point at infinity has no complex value")
        return self.z

    def isclose(self, other, tol=1e-9):
        return chordal_distance(self, other) <= tol

    def sort_key(self):
        return (1 if self.is_infinity else 0, self.z.real, self.z.imag)

    def __repr__(self):
        if self.is_infinity:
            return "SpherePoint(inf)"
        return f"SpherePoint({self.z!r})"


def _as_pair(p):
    """Internal: coerce to (complex, is_infinity)."""
    if isinstance(p, SpherePoint):
        return p.z, p.is_infinity
    v = complex(p)
    if math.isfinite(v.real) and math.isfinite(v.imag):
        return v, False
    return 0j, True


def chordal_distance(a, b):
    """Chordal metric on the sphere: 2|z-w| / sqrt((1+|z|^2)(1+|w|^2)).

    Accepts complex numbers or SpherePoints. The metric is invariant under
    z -> 1/z, which is used to evaluate stably when either modulus exceeds 1;
    the distance from a finite z to infinity is 2 / sqrt(1+|z|^2).
    """
    za, ia = _as_pair(a)
    zb, ib = _as_pair(b)
    if ia and ib:
        return 0.0
    # move to the reciprocal chart when large; infinity becomes the origin
    if ia or abs(za) > 1.0 or ib or abs(zb) > 1.0:
        if (ia or abs(za) > 1.0) and (ib or abs(zb) > 1.0):
            za = 0j if ia else 1.0 / za
            zb = 0j if ib else 1.0 / zb
            ia = ib = False
        elif ia or ib:
            zf = zb if ia else za
            return 2.0 / math.hypot(1.0, abs(zf))
    qa = math.hypot(1.0, abs(za))
    qb = math.hypot(1.0, abs(zb))
    return 2.0 * abs(za - zb) / (qa * qb)


def sphere_embed(zs, isinf=None):
    """Embed points into R^3 so Euclidean distance equals chordal distance.

    Parameters
    ----------
    zs : array-like of complex
    isinf : optional boolean mask marking points at infinity

    Returns
    -------
    (n, 3) float array on the unit sphere.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    if isinf is None:
        isinf = np.zeros(zs.shape, dtype=bool)
    else:
        isinf = np.asarray(isinf, dtype=bool).ravel()
    m2 = np.abs(zs) ** 2
    denom = 1.0 + m2
    out = np.empty((zs.size, 3))
    out[:, 0] = 2.0 * zs.real / denom
    out[:, 1] = 2.0 * zs.imag / denom
    out[:, 2] = (m2 - 1.0) / denom
    out[isinf] = (0.0, 0.0, 1.0)
    return out


def embed_points(points):
    """`sphere_embed` of a sequence of SpherePoints or complex numbers."""
    pairs = [_as_pair(p) for p in points]
    return sphere_embed(np.array([z for z, _ in pairs], dtype=complex),
                        np.array([f for _, f in pairs], dtype=bool))


# cap on the (queries, points) block of one brute-force chunk
_NEAREST_BLOCK = 1 << 18


def _sq_dist(a, b):
    d = a - b
    return (d[..., 0] ** 2 + d[..., 1] ** 2) + d[..., 2] ** 2


def sphere_nearest(cloud, queries=None):
    """Chordal distance to, and index of, the nearest point of a cloud.

    cloud and queries are (n, 3) arrays from `sphere_embed`. Queries are
    matched against every cloud point. Without queries each cloud point gets
    its nearest other point (inf and -1 when alone), by a sweep sorted on
    the widest coordinate.
    """
    n = len(cloud)
    m = n if queries is None else len(queries)
    dist, idx = np.full(m, np.inf), np.full(m, -1)
    if queries is not None:
        step = max(1, _NEAREST_BLOCK // max(n, 1))
        for lo in range(0, len(queries) if n else 0, step):
            d2 = _sq_dist(queries[lo:lo + step, None], cloud[None])
            idx[lo:lo + step] = k = np.argmin(d2, axis=1)
            dist[lo:lo + step] = np.sqrt(d2[np.arange(k.size), k])
        return dist, idx
    if n < 2:
        return dist, idx
    x = cloud[:, np.argmax(np.ptp(cloud, axis=0))]
    order = np.argsort(x, kind="stable")
    s, x = cloud[order], x[order]
    for k in range(1, n):
        # sorted neighbours k apart; dist >= gap, so a pair whose gap
        # reaches both current bests cannot improve either, and neither
        # can any pair further apart
        i = np.flatnonzero(x[k:] - x[:-k] < np.maximum(dist[:-k], dist[k:]))
        if not i.size:
            break
        d = np.sqrt(_sq_dist(s[i], s[i + k]))
        for a, b in ((i, i + k), (i + k, i)):
            better = d < dist[a]
            dist[a[better]], idx[a[better]] = d[better], b[better]
    back = np.argsort(order)
    return dist[back], order[idx[back]]


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def poly_trim(coeffs, rel_tol=0.0):
    """Drop leading coefficients that vanish (relatively, when rel_tol > 0)."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    scale = np.max(np.abs(c)) if c.size else 0.0
    cut = rel_tol * scale
    n = c.size
    while n > 1 and abs(c[n - 1]) <= cut:
        n -= 1
    return np.array(c[:n])


def poly_eval(coeffs, z):
    """Horner evaluation; z may be scalar or ndarray."""
    c = np.asarray(coeffs, dtype=complex)
    if np.isscalar(z) or isinstance(z, complex):
        acc = 0j
        for k in range(c.size - 1, -1, -1):
            acc = acc * z + c[k]
        return acc
    return npoly.polyval(np.asarray(z, dtype=complex), c)


def poly_eval_with_bound(coeffs, z):
    """Horner evaluation together with the running magnitude sum.

    The second return is sum_k |c_k| |z|^k, which bounds the attainable
    floating-point noise of the evaluation (times a small multiple of eps).
    """
    c = np.asarray(coeffs, dtype=complex)
    z = np.asarray(z, dtype=complex)
    az = np.abs(z)
    acc = np.zeros(z.shape, dtype=complex)
    mag = np.zeros(z.shape, dtype=float)
    for k in range(c.size - 1, -1, -1):
        acc = acc * z + c[k]
        mag = mag * az + abs(c[k])
    return acc, mag


def poly_derivative(coeffs):
    c = np.asarray(coeffs, dtype=complex)
    if c.size <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, c.size)


def poly_mul(a, b):
    return npoly.polymul(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def poly_add(a, b):
    return npoly.polyadd(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


class Polynomial:
    """Polynomial with ascending complex coefficients.

    The zero polynomial is represented by the single coefficient 0. Leading
    exact zeros are trimmed at construction; pass rel_tol to also strip
    leading coefficients that are tiny relative to the largest one.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, rel_tol=0.0):
        self.coeffs = poly_trim(coeffs, rel_tol)

    @property
    def degree(self):
        # the zero polynomial reports degree 0 alongside constants
        return self.coeffs.size - 1

    def __call__(self, z):
        return poly_eval(self.coeffs, z)

    def derivative(self):
        return Polynomial(poly_derivative(self.coeffs))

    def is_zero(self, tol=0.0):
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def __add__(self, other):
        return Polynomial(poly_add(self.coeffs, _poly_coeffs(other)))

    def __sub__(self, other):
        return Polynomial(poly_add(self.coeffs, -_poly_coeffs(other)))

    def __mul__(self, other):
        return Polynomial(poly_mul(self.coeffs, _poly_coeffs(other)))

    __rmul__ = __mul__
    __radd__ = __add__

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


def _poly_coeffs(p):
    if isinstance(p, Polynomial):
        return p.coeffs
    if np.isscalar(p) or isinstance(p, complex):
        return np.array([complex(p)])
    return np.asarray(p, dtype=complex)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootSet:
    """Roots of a polynomial with multiplicities.

    entries are (root, multiplicity) pairs sorted by (re, im); multiplicities
    sum to the polynomial degree. residual_bound is max |p(root)| over the
    returned roots after normalizing the leading coefficient to 1.
    """

    entries: tuple = field(default_factory=tuple)
    residual_bound: float = 0.0

    @property
    def degree(self):
        return sum(m for _, m in self.entries)

    def points(self):
        return [r for r, _ in self.entries]

    def multiplicities(self):
        return [m for _, m in self.entries]


def _aberth(c, budget=ROOT_BUDGET):
    """Simultaneous root iteration for a monic-normalized coefficient array.

    Returns deg(c) approximations; clusters around multiple roots are left
    for the caller to merge. Raises NonConvergence on budget exhaustion.
    """
    n = c.size - 1
    c1 = poly_derivative(c)
    # perturbed unit-circle initializers: golden-ratio angular stagger breaks
    # symmetric stalls of the simultaneous iteration
    k = np.arange(n)
    ang = 2.0 * np.pi * (k / n + 0.61803398874989 * (k + 1) / (n + 1)) + 0.4
    z = np.exp(1j * ang) * (1.0 + 1e-3 * k / max(n, 1))
    freeze_scale = 4.0 * (n + 1) * EPS
    for _ in range(budget):
        p, mag = poly_eval_with_bound(c, z)
        frozen = np.abs(p) <= freeze_scale * mag + 1e-300
        dp = poly_eval(c1, z)
        bad = dp == 0
        if np.any(bad):
            dp = np.where(bad, 1.0, dp)
        newton = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        small = np.abs(diff) < 1e-300
        if np.any(small):
            diff = np.where(small, 1e-300, diff)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * s
        step = np.where(np.abs(denom) > 1e-12, newton / denom, newton)
        step = np.where(frozen, 0.0, step)
        if np.any(bad):
            # derivative vanished exactly at an iterate: nudge it off
            step = np.where(bad & ~frozen, -1e-6 * (1.0 + np.abs(z)), step)
        z = z - step
        if np.all(frozen | (np.abs(step) <= 1e-14 * (1.0 + np.abs(z)))):
            return z
    raise NonConvergence(
        f"root iteration did not settle within {budget} iterations (degree {n})"
    )


def _solve_quadratic(c):
    """Stable closed form for c0 + c1 z + c2 z^2."""
    c0, c1, c2 = c[0], c[1], c[2]
    if c0 == 0:
        return np.array([0j, -c1 / c2])
    disc = c1 * c1 - 4.0 * c2 * c0
    s = cmath.sqrt(disc)
    if (c1.real * s.real + c1.imag * s.imag) >= 0.0:
        q = -0.5 * (c1 + s)
    else:
        q = -0.5 * (c1 - s)
    if q == 0:  # c1 == 0 and disc == 0
        return np.array([0j, 0j])
    return np.array([q / c2, c0 / q])


def _raw_roots(c, budget=ROOT_BUDGET):
    """All deg(c) roots (repetitions for multiplicities live in clusters)."""
    c = np.asarray(c, dtype=complex)
    n = c.size - 1
    if n <= 0:
        return np.zeros(0, dtype=complex)
    # exact zero roots split off first: common for monomial-heavy fibers
    k0 = 0
    while k0 < n and c[k0] == 0:
        k0 += 1
    zeros = np.zeros(k0, dtype=complex)
    c = c[k0:]
    n -= k0
    if n == 0:
        return zeros
    c = c / c[-1]
    if n == 1:
        rest = np.array([-c[0]])
    elif n == 2:
        rest = _solve_quadratic(c)
    else:
        rest = _aberth(c, budget)
    return np.concatenate([zeros, rest])


@functools.lru_cache(maxsize=None)
def _pairs(d):
    """Index pairs i < j of d roots, cached per degree."""
    return np.triu_indices(d, 1)


def _near(roots, factor=CLUSTER_FACTOR):
    """Which pairs of roots of each row lie within the clustering radius.

    Returns (near, i, j): near[r, t] says roots i[t] < j[t] of row r lie
    within factor * (1 + (|x| + |y|) / 2) of each other.
    """
    i, j = _pairs(roots.shape[1])
    a = np.abs(roots)
    near = (np.abs(roots[:, i] - roots[:, j])
            <= factor * (1.0 + 0.5 * (a[:, i] + a[:, j])))
    return near, i, j


def _row_roots(f):
    """The d roots of every row of f in solver order, a multiple root repeated.

    d <= 2 uses the stable closed form. d >= 3 takes the eigenvalues of the
    companion matrices, then one Newton step on each simple root (one near
    no other root of its row).
    """
    m, d = f.shape[0], f.shape[1] - 1
    if d == 1:
        return -f[:, :1] / f[:, 1:]
    if d == 2:
        # q = -(c1 + sqrt(c1^2 - 4 c2 c0)) / 2 with the sign that avoids
        # cancellation; the roots are q / c2 and c0 / q
        c0, c1, c2 = f[:, 0], f[:, 1], f[:, 2]
        sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
        sq = np.where(c1.real * sq.real + c1.imag * sq.imag < 0.0, -sq, sq)
        q = -0.5 * (c1 + sq)
        qz = q == 0  # double root at the origin
        return np.stack([q / c2, np.where(qz, 0j, c0 / np.where(qz, 1.0, q))],
                        axis=1)
    monic = f / f[:, -1:]
    comp = np.zeros((m, d, d), dtype=complex)
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    comp[:, :, -1] = -monic[:, :-1]
    roots = np.linalg.eigvals(comp)
    # Horner for the monic row and its derivative at every root
    val = np.ones_like(roots)
    der = np.zeros_like(roots)
    for k in range(d - 1, -1, -1):
        der = der * roots + val
        val = val * roots + monic[:, k, None]
    near, i, j = _near(roots)
    ends = (np.arange(d) == i[:, None]) | (np.arange(d) == j[:, None])
    ok = ~(near @ ends) & (der != 0)  # simple roots
    step = val / np.where(ok, der, 1.0)
    return np.where(ok & np.isfinite(step), roots - step, roots)


def _cluster_rows(roots, factor=CLUSTER_FACTOR):
    """Single-linkage clusters of each row's roots, linked by `_near`.

    Returns (centers, counts, row): one entry per cluster, its centre the
    mean of its roots, sorted by row and then by (re, im).
    """
    m, d = roots.shape
    centers, counts = roots, np.ones((m, d), dtype=np.int64)
    near, i, j = _near(roots, factor)
    tied = np.flatnonzero(near.any(axis=1))
    if tied.size:
        # cluster slot k of a row collects the roots whose smallest linked
        # index is k; slots left empty sort last and are dropped
        link = np.broadcast_to(np.eye(d, dtype=bool), (tied.size, d, d)).copy()
        link[:, i, j] = link[:, j, i] = near[tied]
        label = np.broadcast_to(np.arange(d), (tied.size, d))
        while True:
            nxt = np.where(link, label[:, None, :], d).min(axis=2)
            if np.array_equal(nxt, label):
                break
            label = nxt
        member = label[:, None, :] == np.arange(d)[None, :, None]
        n = member.sum(axis=2)
        sums = np.where(member, roots[tied][:, None, :], 0j).sum(axis=2)
        centers = roots.copy()
        centers[tied] = np.where(n > 0, sums / np.maximum(n, 1), np.inf)
        counts[tied] = n
    flat = (np.lexsort((centers.imag, centers.real), axis=1)
            + d * np.arange(m)[:, None]).ravel()
    centers, counts = centers.ravel()[flat], counts.ravel()[flat]
    row = flat // max(d, 1)
    if not tied.size:
        return centers, counts, row
    keep = counts > 0
    return centers[keep], counts[keep], row[keep]


def _newton_steps(c, c1, x, m, steps=3):
    """Multiplicity-accelerated Newton iteration for an m-fold root near x."""
    for _ in range(steps):
        p, mag = poly_eval_with_bound(c, x)
        if abs(p) <= 10.0 * EPS * mag:
            break  # already below evaluation noise: further steps just wander
        dp = poly_eval(c1, x)
        if dp == 0:
            break
        step = m * p / dp
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        x = x - step
        if abs(step) <= 1e-15 * (1.0 + abs(x)):
            break
    return x


def _polish_root(c, c1, x, m):
    """Final polish pass: only for m <= 2, where Newton gains digits.

    Beyond m = 2 the accepted merge center already sits at the conditioning
    limit and further iteration would move it off.
    """
    if m > 2:
        return x
    return _newton_steps(c, c1, x, m)


def _multiplicity_estimate(c, x):
    """Estimated order of x as a root of c (0 when x is not a root).

    The derivative sequence gives the count k of sub-noise derivatives; the
    Newton ratio g'^2 / (g'^2 - g g'') applied to the first derivative g
    with usable signal then refines the answer to k + (order of x in g).
    The ratio is exact on exact m-fold roots and stays well conditioned on
    clusters scattered at the floating-point limit.
    """
    k = local_multiplicity(c, x)
    if k == 0:
        return 0
    deg = c.size - 1
    g = np.asarray(c, dtype=complex)
    for _ in range(k):
        g = poly_derivative(g)
    g1 = poly_derivative(g)
    g2 = poly_derivative(g1)
    gv = poly_eval(g, complex(x))
    g1v = poly_eval(g1, complex(x))
    g2v = poly_eval(g2, complex(x))
    denom = g1v * g1v - gv * g2v
    if denom != 0:
        m = (g1v * g1v / denom).real
        if 0.5 <= m <= deg - k + 0.5 and abs(m - round(m)) < 0.25 and round(m) >= 1:
            return min(k + int(round(m)), deg)
    return k


def local_multiplicity(coeffs, x, guard=1e5, max_order=None):
    """Order of x as a root of the polynomial, judged by derivative magnitudes.

    Returns the smallest k with |p^(k)(x)| decisively above the floating-point
    noise floor of its own evaluation; 0 means x is not a root. The guard
    factor sets how far above the Horner error bound a value must rise to
    count as nonzero.
    """
    c = np.asarray(coeffs, dtype=complex)
    limit = c.size - 1 if max_order is None else min(max_order, c.size - 1)
    for k in range(limit + 1):
        val, mag = poly_eval_with_bound(c, complex(x))
        if abs(val) > guard * EPS * (mag + 1.0e-300):
            return k
        c = poly_derivative(c)
    return limit + 1


def roots_with_multiplicity(poly, cluster_radius=CLUSTER_FACTOR, budget=ROOT_BUDGET):
    """Find all roots of a polynomial with multiplicities.

    Close approximations are merged by single-linkage clustering at radius
    cluster_radius * (1 + |root|); cluster cardinality gives the multiplicity,
    cross-checked against derivative magnitudes at the cluster center. When
    the derivative test calls for a larger multiplicity than the cardinality,
    nearby clusters are merged (ties resolve toward the larger multiplicity).

    Returns a RootSet; multiplicities always sum to the degree.
    """
    c = _poly_coeffs(poly)
    c = poly_trim(c)
    if c.size <= 1:
        return RootSet((), 0.0)
    centers, counts, _ = _cluster_rows(_raw_roots(c, budget)[None, :],
                                       cluster_radius)
    c_monic = c / c[-1]
    c1 = poly_derivative(c_monic)
    centers = np.array([
        _polish_root(c_monic, c1, centers[i], counts[i]) for i in range(centers.size)
    ])
    # cross-check cluster cardinalities against derivative behaviour: a
    # multiple root scattered wider than the base radius is re-merged, but a
    # candidate merge only commits when the estimator at the merged center
    # confirms the combined multiplicity, so genuinely separate neighbours
    # are never eaten
    changed = True
    while changed and centers.size > 1:
        changed = False
        for i in range(centers.size):
            target = _multiplicity_estimate(c_monic, centers[i])
            if target <= counts[i]:
                continue
            # members of the split cluster lie within the conditioning blob
            # ~ (noise)^(1/target) around the true root
            _, mag = poly_eval_with_bound(c_monic, centers[i])
            blob = 10.0 * (1e5 * EPS * (mag + 1.0)) ** (1.0 / target)
            r = min(max(blob, 50.0 * cluster_radius * (1.0 + abs(centers[i]))),
                    0.1 * (1.0 + abs(centers[i])))
            near = [j for j in range(centers.size) if j != i
                    and abs(centers[i] - centers[j]) <= r]
            near.sort(key=lambda j: abs(centers[i] - centers[j]))
            prefix = []
            total = int(counts[i])
            for j in near:
                if total + counts[j] > target:
                    break
                prefix.append(j)
                total += int(counts[j])
            accepted = None
            while prefix:
                sel = [i] + prefix
                tot = int(sum(counts[t] for t in sel))
                centroid = complex(
                    np.sum(centers[sel] * counts[sel]) / tot)
                cand = _newton_steps(c_monic, c1, centroid, tot)
                if _multiplicity_estimate(c_monic, cand) >= tot:
                    accepted = (cand, tot, list(prefix))
                    break
                prefix.pop()  # drop the farthest candidate and retry
            if accepted is not None:
                cand, tot, used = accepted
                centers[i] = cand
                counts[i] = tot
                keep = [t for t in range(centers.size) if t not in used]
                centers = centers[keep]
                counts = counts[keep]
                changed = True
                break
    centers = np.array([
        _polish_root(c_monic, c1, centers[i], counts[i]) for i in range(centers.size)
    ])
    order = np.lexsort((centers.imag, centers.real))
    centers, counts = centers[order], counts[order]
    residual = float(np.max(np.abs(poly_eval(c_monic, centers)))) if centers.size else 0.0
    entries = tuple(
        (SpherePoint.finite(centers[i]), int(counts[i])) for i in range(centers.size)
    )
    return RootSet(entries, residual)
