"""Sphere geometry, polynomial arithmetic, and a multiplicity-aware root finder.

Points live on the Riemann sphere: a finite complex value or the point at
infinity. All distances are chordal, so infinity is an ordinary point at
distance <= 2 from everything else. Polynomial coefficients are stored in
ascending order (constant term first).

One solver finds roots: `_row_roots` solves a stack of polynomials of one
degree at once and decides multiplicities by one tie rule, and
`_cluster_rows` lists each row's distinct roots with their multiplicities.
`roots_with_multiplicity` is its one-row case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import EvaluationAtInfinity, NonConvergence

EPS = float(np.finfo(float).eps)

# A value counts as zero when it is at most GUARD times the rounding-noise
# bound EPS * (Horner magnitude of its terms) of its evaluation.
GUARD = 10.0

# Roots closer than LINK times their rounding-noise radius are candidates
# for one multiple root. Eigenvalues scatter by the solver's backward
# error, which can far exceed the Horner noise at the root; a wide radius
# only costs acceptance tests.
LINK = 1e5


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


def _as_arrays(points):
    """Internal: points as (complex array, is-infinity mask).

    A point set (`_PointSet`), and the point tuple it hands out, give the
    set's own arrays, and a numeric ndarray is taken whole (non-finite
    entries are infinity); any other sequence is read point by point.
    """
    isinf = getattr(points, "isinf", None)
    if isinf is not None:
        return points.z, isinf
    if isinstance(points, np.ndarray) and points.dtype.kind in "biufc":
        z = points.astype(complex)
        isinf = ~np.isfinite(z)
        z[isinf] = 0j
        return z, isinf
    pairs = [_as_pair(p) for p in points]
    return (np.array([z for z, _ in pairs], dtype=complex),
            np.array([f for _, f in pairs], dtype=bool))


class _Points(tuple):
    """A tuple of SpherePoints that keeps the arrays (z, isinf) it was built
    from, so `_as_arrays` takes it whole."""


class _PointSet:
    """Points of the sphere held as read-only arrays: the base of Julia
    clouds, weighted clouds, fibers and root sets.

    z and isinf are the points' values and is-infinity mask (z is 0 at
    infinity); a finite point with a non-finite part raises ValueError.
    `_points`, and iteration, give the points as SpherePoints, built on
    first access; the tuple keeps the arrays, so operators take it whole.
    `mesh`, the largest distance from a point to its nearest other point,
    is measured on first access too.
    """

    def __init__(self, z, isinf):
        isinf = np.array(isinf, dtype=bool)
        z = np.where(isinf, 0j, np.asarray(z, dtype=complex))
        if not np.isfinite(z).all():
            raise ValueError("finite point with non-finite components")
        z.flags.writeable = isinf.flags.writeable = False
        self.__dict__.update(z=z, isinf=isinf)

    def __post_init__(self):   # a frozen dataclass with fields z and isinf
        _PointSet.__init__(self, self.z, self.isinf)

    @functools.cached_property
    def _points(self):
        # the arrays are checked, so each point is filled in directly,
        # without SpherePoint's own check
        inf, pts, put = SpherePoint.infinity(), [], object.__setattr__
        for v, f in zip(self.z.tolist(), self.isinf.tolist()):
            p = inf
            if not f:
                p = object.__new__(SpherePoint)
                put(p, "z", v)
                put(p, "is_infinity", False)
            pts.append(p)
        pts = _Points(pts)
        pts.z, pts.isinf = self.z, self.isinf
        return pts

    @functools.cached_property
    def mesh(self):
        return float(np.max(sphere_nearest(sphere_embed(self.z,
                                                        self.isinf))[0]))

    def __len__(self):
        return self.z.size

    def __iter__(self):
        return iter(self._points)


class _Entries(_PointSet):
    """The base of Fiber and RootSet, frozen dataclasses whose field
    `entries` pairs distinct points with integer counts."""

    def __post_init__(self):
        _PointSet.__init__(self, *_as_arrays([p for p, _ in self.entries]))

    @classmethod
    def _from_arrays(cls, z, isinf, counts, **fields):
        """The set of the points (z, isinf) with counts, built from arrays."""
        out = cls.__new__(cls)
        _PointSet.__init__(out, z, isinf)
        out.__dict__.update(
            fields, entries=tuple(zip(out._points, counts.tolist())))
        return out

    def points(self):
        return [p for p, _ in self.entries]


def _values_at(f, z, isinf, points=None):
    """The values of f at the points (z, isinf), as an array.

    An evaluator with an array method `at(z, isinf)` takes the arrays
    whole; any other callable is called once per point with a SpherePoint,
    taken from `points`, the point set of (z, isinf), when given.
    """
    at = getattr(f, "at", None)
    if at is not None:
        return at(z, isinf)
    pts = (_PointSet(z, isinf) if points is None else points)._points
    return np.array([complex(f(p)) for p in pts], dtype=complex)


def _write_points_csv(path, z, isinf, w=None):
    """One line re,im,is_infinity per point, with a weight column when w
    is given; parts in %.17g, which reads back to the same doubles."""
    rows = ("0,0,1" if f else "%.17g,%.17g,0" % (re, im)
            for re, im, f in zip(z.real.tolist(), z.imag.tolist(),
                                 isinf.tolist()))
    if w is not None:
        rows = (r + ",%.17g" % x for r, x in zip(rows, w.tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("re,im,is_infinity" + ("" if w is None else ",weight") + "\n")
        fh.writelines(r + "\n" for r in rows)


def _read_points_csv(path, weighted=False):
    """(z, isinf, w) as lists from a file of `_write_points_csv`; w is None
    unless weighted. A header without the columns or a short row raises
    ValueError; blank lines and extra columns are ignored."""
    n = 4 if weighted else 3
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header.split(",")[:n] != ["re", "im", "is_infinity", "weight"][:n]:
            raise ValueError(f"unexpected point CSV header: {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if any(len(r) < n for r in rows):
        raise ValueError(f"a point CSV row has fewer than {n} columns")
    isinf = [r[2].strip() == "1" for r in rows]
    # complex(re, im), not re + 1j*im: the sum would lose the sign of a
    # negative-zero imaginary part and break byte round trips
    z = [0j if f else complex(float(r[0]), float(r[1]))
         for r, f in zip(rows, isinf)]
    return z, isinf, [float(r[3]) for r in rows] if weighted else None


def _at_point(at, x):
    """The value at one point of a function given by its array method."""
    zv, isinf = _as_pair(x)
    return complex(at(np.array([zv]), np.array([isinf]))[0])


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


_HYPOT = np.frompyfunc(math.hypot, 2, 1)


def _reciprocal(z):
    """1 / z of a nonzero complex array, rounded as Python's `1.0 / z`."""
    br, bi = z.real, z.imag
    wide = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(wide, bi / br, br / bi)
        denom = np.where(wide, br + bi * ratio, br * ratio + bi)
        out = np.empty(z.shape, dtype=complex)
        out.real = np.where(wide, (1.0 + 0.0 * ratio) / denom,
                            (1.0 * ratio + 0.0) / denom)
        out.imag = np.where(wide, (0.0 - 1.0 * ratio) / denom,
                            (0.0 * ratio - 1.0) / denom)
    return out


def chordal_distances(a, zs, isinf):
    """`chordal_distance` from a to each point of (zs, isinf), bit for bit.

    The same charts and roundings as the scalar metric: moduli by hypot,
    reciprocals as Python's complex division, and math.hypot for the
    factors sqrt(1 + |z|^2). The scalar metric stays for single pairs,
    where numpy's per-call overhead would make this path 40 times slower.
    """
    za, ia = _as_pair(a)
    zs = np.where(isinf, 0j, zs)
    far_a = ia or abs(za) > 1.0
    za_chart = (0j if ia else 1.0 / za) if far_a else za
    # both beyond the unit circle: the reciprocal chart, infinity at 0
    both = (isinf | (np.hypot(zs.real, zs.imag) > 1.0)) & far_a
    zb = zs.copy()
    flip = both & ~isinf
    zb[flip] = _reciprocal(zs[flip])
    qa = np.where(both, math.hypot(1.0, abs(za_chart)),
                  math.hypot(1.0, abs(za)))
    qb = _HYPOT(1.0, np.hypot(zb.real, zb.imag)).astype(float)
    d = np.where(both, za_chart, za) - zb
    out = 2.0 * np.hypot(d.real, d.imag) / (qa * qb)
    # one point at infinity and the other inside the unit disc
    out = np.where(ia & ~both, 2.0 / qb, out)
    out = np.where(isinf & ~both, 2.0 / math.hypot(1.0, abs(za)), out)
    return np.where(isinf & ia, 0.0, out)


@np.errstate(over="ignore", invalid="ignore")
def sphere_embed(zs, isinf=None):
    """Embed points into R^3 so Euclidean distance equals chordal distance.

    Parameters
    ----------
    zs : array-like of complex
    isinf : optional boolean mask marking points at infinity

    Returns
    -------
    (n, 3) float array on the unit sphere. A point whose |z|^2 overflows
    goes through the reciprocal chart: (x, -y, -h) of w = 1/z's (x, y, h).
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
    far = np.isfinite(zs) & ~np.isfinite(m2)
    if far.any():
        out[far] = sphere_embed(1.0 / zs[far]) * (1.0, -1.0, -1.0)
    out[isinf] = (0.0, 0.0, 1.0)
    return out


def embed_points(points):
    """`sphere_embed` of a sequence of SpherePoints or complex numbers."""
    return sphere_embed(*_as_arrays(points))


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
class RootSet(_Entries):
    """Roots of a polynomial with multiplicities, an array-backed point set.

    entries are (root, multiplicity) pairs sorted by (re, im); multiplicities
    sum to the polynomial degree. residual_bound is max |p(root)| over the
    returned roots after normalizing the leading coefficient to 1.
    """

    entries: tuple = field(default_factory=tuple)
    residual_bound: float = 0.0

    @property
    def degree(self):
        return sum(m for _, m in self.entries)

    def multiplicities(self):
        return [m for _, m in self.entries]


def _horner(c, s, x):
    """Each row of c and its derivative at that row's points x[r].

    c is (m, n) ascending, x is (m, p), and s (m, n) holds the sizes of
    the terms each coefficient was computed from (|c| for exact data).
    Returns (value, derivative, magnitude), the magnitude
    sum_k s_k |x|^k bounding the rounding noise of the value (times a small
    multiple of EPS).
    """
    val = np.zeros(x.shape, dtype=complex)
    der = np.zeros(x.shape, dtype=complex)
    mag = np.zeros(x.shape)
    ax = np.abs(x)
    for k in range(c.shape[1] - 1, -1, -1):
        der = der * x + val
        val = val * x + c[:, k, None]
        mag = mag * ax + s[:, k, None]
    return val, der, mag


def _derivative_rows(c, k):
    """Coefficients of the k-th derivative of each row of c."""
    n = c.shape[1] - k
    w = np.ones(n)
    for s in range(1, k + 1):
        w = w * np.arange(s, n + s)
    return c[:, k:] * w


def _orders(c, s, x):
    """Order of x[r] as a root of row r of c, judged by derivative sizes.

    The order is the first k with |c_r^(k)(x_r)| above GUARD times the
    rounding noise of its own evaluation (`_horner`, term sizes s); the row
    length when no derivative rises above it, as for the zero row.
    """
    order = np.zeros(x.size, dtype=np.int64)
    live = np.arange(x.size)
    for _ in range(c.shape[1]):
        val, _, mag = _horner(c, s, x[:, None])
        zero = np.abs(val[:, 0]) <= GUARD * EPS * (mag[:, 0] + 1e-300)
        live, c, s, x = live[zero], c[zero], s[zero], x[zero]
        if not live.size:
            break
        order[live] += 1
        c, s = _derivative_rows(c, 1), _derivative_rows(s, 1)
    return order


def local_multiplicity(coeffs, x):
    """Order of x as a root of the polynomial, judged by derivative sizes.

    Returns the smallest k with |p^(k)(x)| decisively (GUARD times) above
    the floating-point noise of its own evaluation; 0 means x is not a root.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))[None, :]
    return int(_orders(c, np.abs(c), np.array([complex(x)]))[0])


@functools.lru_cache(maxsize=None)
def _pairs(d):
    """Index pairs i < j of d roots, cached per degree."""
    return np.triu_indices(d, 1)


def _labels(link):
    """Connected components of each row's link matrix (t, d, d): every
    root's label is the smallest index linked to it."""
    d = link.shape[1]
    label = np.broadcast_to(np.arange(d), link.shape[:2])
    while True:
        nxt = np.where(link, label[:, None, :], d).min(axis=2)
        if np.array_equal(nxt, label):
            return label
        label = nxt


def _polish(g, s, x, k):
    """One Newton step from x[r] on the (k[r] - 1)-th derivative of row r
    of g, where a k-fold root is simple (term sizes s)."""
    out = x.copy()
    for kk in np.unique(k):
        at = k == kk
        val, der, _ = _horner(_derivative_rows(g[at], kk - 1),
                              _derivative_rows(s[at], kk - 1), x[at, None])
        step = val[:, 0] / np.where(der[:, 0] == 0, 1.0, der[:, 0])
        out[at] = np.where(np.isfinite(step), x[at] - step, x[at])
    return out


def _tie(roots, g, size, near, i, j):
    """The tie rule on the rows that have candidate pairs.

    Linked candidates form clusters. A cluster of k roots is one k-fold
    root when the derivatives 0..k-1 of its row g (term sizes `size`)
    vanish (`_orders`) at its centre: the cluster mean after one Newton
    step on the (k-1)-th derivative (`_polish`). A rejected cluster loses
    every link at least half as long as its longest one, and its parts are
    tried again. Returns (label, centre): each root's cluster label, and
    the centre of its cluster (nan for simple roots).
    """
    t, d = roots.shape
    link = np.broadcast_to(np.eye(d, dtype=bool), (t, d, d)).copy()
    link[:, i, j] = link[:, j, i] = near
    gap = np.abs(roots[:, :, None] - roots[:, None, :])
    off = ~np.eye(d, dtype=bool)
    slots = np.arange(d)
    while True:
        label = _labels(link)
        member = label[:, None, :] == slots[:, None]      # (t, slot, root)
        count = member.sum(axis=2)
        rr, ss = np.nonzero(count >= 2)
        k = count[rr, ss]
        mean = np.where(member[rr, ss], roots[rr], 0j).sum(axis=1) / k
        centre = _polish(g[rr], size[rr], mean, k)
        ok = _orders(g[rr], size[rr], centre) >= k
        if ok.all():
            break
        bad, inside = rr[~ok], member[rr[~ok], ss[~ok]]
        within = link[bad] & inside[:, :, None] & inside[:, None, :] & off
        span = np.where(within, gap[bad], 0.0)
        cut = np.zeros_like(link)
        np.logical_or.at(cut, bad, within & (
            span >= 0.5 * span.max(axis=(1, 2))[:, None, None]))
        link &= ~cut
    out = np.full((t, d), np.nan + 0j)
    out[rr, ss] = centre
    return label, out[np.arange(t)[:, None], label]


# a batch of monic rows with a coefficient above this is scaled to its root
# bound before the eigenvalue solve
_UNBALANCED = 2.0 ** 32


def _ldexp(z, n):
    """z * 2^n, exact short of overflow or underflow."""
    if np.iscomplexobj(z):
        return np.ldexp(z.real, n) + 1j * np.ldexp(z.imag, n)
    return np.ldexp(z, n)


def _row_roots(f, s=None):
    """The roots of every row of f, multiplicities decided by one tie rule.

    f is (m, d + 1) with nonzero leading coefficients; s holds the sizes of
    the terms each coefficient was computed from (default |f|), which set
    its rounding noise. Returns (roots, label), both (m, d): each row's d
    roots in solver order and each root's cluster label (the solver
    position of the first root of its cluster; None when no root is tied).
    Every root of a k-fold cluster holds the cluster's centre, so a row
    lists each distinct root as often as its multiplicity.

    d <= 2 uses the stable closed form, d >= 3 the eigenvalues of the
    companion matrices followed by one Newton step on each simple root.
    When a monic coefficient of a d >= 3 batch exceeds _UNBALANCED, its rows
    are solved in u = z / 2^e, with e the integer nearest to log2 of the
    root bound max_k |f_k / f_d|^(1/(d-k)), so that their companion
    matrices stay balanced and Horner sums stay in range. The tie rule
    follows Z. Zeng, "Computing multiple roots of inexact polynomials",
    Math. Comp. 74 (2005):

    - candidates: two roots x, y of a row whose distance is at most the sum
      of their noise radii LINK * EPS * mag / |f'| (mag the Horner
      magnitude of the terms), the distance within which a root of an
      m-fold cluster cannot be told from its cluster mates;
    - acceptance and polish: see `_tie`.

    Rows without candidate pairs skip the tie rule. Raises NonConvergence
    when a monic row or the roots are not finite, or when the roots spread
    over more scales than the solve resolves.
    """
    m, d = f.shape[0], f.shape[1] - 1
    g, size, e = f, (np.abs(f) if s is None else s), None
    if d == 1:
        with np.errstate(over="ignore", invalid="ignore"):
            u = -f[:, :1] / f[:, 1:]
    elif d == 2:
        # q = -(c1 + sqrt(c1^2 - 4 c2 c0)) / 2 with the sign that avoids
        # cancellation; the roots are q / c2 and c0 / q
        c0, c1, c2 = f[:, 0], f[:, 1], f[:, 2]
        with np.errstate(over="ignore", invalid="ignore"):
            sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
            sq = np.where(c1.real * sq.real + c1.imag * sq.imag < 0.0, -sq, sq)
            q = -0.5 * (c1 + sq)
            qz = q == 0  # double root at the origin
            u = np.empty((m, 2), dtype=complex)
            u[:, 0] = q / c2
            u[:, 1] = np.where(qz, 0j, c0 / np.where(qz, 1.0, q))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            g, size = f / f[:, -1:], size / np.abs(f[:, -1:])
        if not (np.isfinite(g).all() and np.isfinite(size).all()):
            raise NonConvergence(
                "a fiber polynomial leaves the floating-point range once "
                "normalized")
        if np.abs(g).max(initial=0.0) > _UNBALANCED:
            with np.errstate(divide="ignore"):
                bound = np.max(np.log2(np.abs(g[:, :-1]))
                               / np.arange(d, 0, -1), axis=1)
            e = np.where(np.isfinite(bound), np.round(bound), 0).astype(int)
            power = e[:, None] * (np.arange(d + 1) - d)
            scaled = _ldexp(g, power)
            big = np.abs(g) > EPS * np.max(np.abs(g), axis=1, keepdims=True)
            if np.any(big & (np.abs(scaled) < np.finfo(float).tiny)):
                raise NonConvergence(
                    "fiber roots spread over more scales than floating "
                    "point holds")
            g, size = scaled, _ldexp(size, power)
        comp = np.zeros((m, d, d), dtype=complex)
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        comp[:, :, -1] = -g[:, :-1]
        u = np.linalg.eigvals(comp)
    if not np.isfinite(u).all():
        raise NonConvergence("fiber roots beyond the floating-point range")
    if d == 1:
        return u, None
    # candidates: |x - y| <= r_x + r_y, multiplied out so that a root with
    # a vanishing derivative (an infinite radius) links to everything
    i, j = _pairs(d)
    if d == 2:
        # |f'| at either root of a quadratic is |c2| times their distance
        a1, a2 = np.abs(u[:, 0]), np.abs(u[:, 1])
        mag = (2.0 * size[:, 0] + size[:, 1] * (a1 + a2)
               + size[:, 2] * (a1 * a1 + a2 * a2))    # at both roots
        gap = np.abs(u[:, 0] - u[:, 1])
        near = (np.abs(f[:, 2]) * gap * gap <= LINK * EPS * mag)[:, None]
    else:
        val, der, mag = _horner(g, size, u)
        slope = np.abs(der)
        near = (np.abs(u[:, i] - u[:, j]) * slope[:, i] * slope[:, j]
                <= LINK * EPS * (mag[:, i] * slope[:, j]
                                 + mag[:, j] * slope[:, i]))
    tied = np.flatnonzero(near.any(axis=1))
    label = None
    if tied.size:
        label = np.tile(np.arange(d), (m, 1))
        label[tied], centre = _tie(u[tied], g[tied], size[tied], near[tied],
                                   i, j)
        merged = ~np.isnan(centre)
        u = u.copy()
        u[tied] = np.where(merged, centre, u[tied])
    if d >= 3:
        ok = der != 0
        if tied.size:
            ok[tied] &= ~merged
        step = val / np.where(ok, der, 1.0)
        u = np.where(ok & np.isfinite(step), u - step, u)
        # an eigenvalue far from any root that Newton did not bring in means
        # the row's roots spread over more scales than the companion holds
        far = np.flatnonzero((np.abs(val) > 1e-3 * mag).any(axis=1))
        if far.size:
            val, _, mag = _horner(g[far], size[far], u[far])
            if np.any(np.abs(val) > 1e-3 * mag):
                raise NonConvergence("companion eigenvalues missed roots")
    if e is not None:
        u = _ldexp(u, e[:, None])
        if not np.isfinite(u).all():
            raise NonConvergence("fiber roots beyond the floating-point range")
    return u, label


def _cluster_rows(roots, label):
    """Each row's distinct roots with multiplicities, from `_row_roots`.

    Returns (centers, counts, row): one entry per cluster, sorted by row
    and then by (re, im), ties in solver order.
    """
    m, d = roots.shape
    centers = roots
    if label is not None:
        counts = np.bincount((label + d * np.arange(m)[:, None]).ravel(),
                             minlength=m * d).reshape(m, d)
        centers = np.where(counts > 0, roots, np.inf)
    # numpy orders complex numbers by (re, im); a stable sort keeps ties
    flat = (np.argsort(centers, axis=1, kind="stable")
            + d * np.arange(m)[:, None]).ravel()
    centers, row = centers.ravel()[flat], flat // d
    if label is None:
        return centers, np.ones(flat.size, dtype=np.int64), row
    counts = counts.ravel()[flat]
    keep = counts > 0
    return centers[keep], counts[keep], row[keep]


def roots_with_multiplicity(poly):
    """All roots of a polynomial with multiplicities.

    The one-row case of the fiber solver `_row_roots` and its tie rule.
    Returns a RootSet; multiplicities always sum to the degree.
    """
    c = poly_trim(_poly_coeffs(poly))
    if c.size <= 1:
        return RootSet((), 0.0)
    centers, counts, _ = _cluster_rows(*_row_roots(c[None, :]))
    centers = centers + 0.0   # report a root at 0 as 0, not -0
    residual = float(np.max(np.abs(poly_eval(c / c[-1], centers))))
    return RootSet._from_arrays(centers, np.zeros(centers.size, dtype=bool),
                                counts, residual_bound=residual)
