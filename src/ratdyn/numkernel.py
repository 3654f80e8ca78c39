"""Sphere geometry, polynomial arithmetic, and a multiplicity-aware root finder.

Points live on the Riemann sphere: a finite complex value or the point at
infinity. All distances are chordal, so infinity is an ordinary point at
distance <= 2 from everything else. Polynomial coefficients are stored in
ascending order (constant term first).

One solver finds roots: `_row_roots` solves a stack of polynomials of one
degree at once and decides multiplicities by one tie rule. Degrees up to
4 take closed forms (`_quadratic`, `_cardano` and `_ferrari`, through
`_closed_roots`, which deflates rows whose roots spread), degree 5 and up
the companion eigenvalues. `_sort_rows` orders each row by (re, im), and
`_merge_runs` lists each sorted row's distinct roots with their
multiplicities; `roots_with_multiplicity` is the one-row case of both.
"""

from __future__ import annotations

import functools
import json
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import EvaluationAtInfinity, NonConvergence

EPS = float(np.finfo(float).eps)

# A value counts as zero when it is at most GUARD times the rounding-noise
# bound EPS * (Horner magnitude of its terms) of its evaluation.
GUARD = 10.0

# Roots closer than LINK times their rounding-noise radius are candidates
# for one multiple root. Closed-form roots and eigenvalues scatter by the
# solve's backward error, which can far exceed the Horner noise at the
# root; a wide radius only costs acceptance tests.
LINK = 1e5


# ---------------------------------------------------------------------------
# sphere points and the chordal metric
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
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

    def sort_key(self):
        return (1 if self.is_infinity else 0, self.z.real, self.z.imag)

    def __repr__(self):
        if self.is_infinity:
            return "SpherePoint(inf)"
        return f"SpherePoint({self.z!r})"


# the slot setters of SpherePoint, which bypass its frozen __setattr__
_SET_Z, _SET_INF = SpherePoint.z.__set__, SpherePoint.is_infinity.__set__


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
        if np.count_nonzero(np.isfinite(z)) < z.size:
            raise ValueError("finite point with non-finite components")
        z.flags.writeable = isinf.flags.writeable = False
        self.__dict__.update(z=z, isinf=isinf)

    def __post_init__(self):   # a frozen dataclass with fields z and isinf
        _PointSet.__init__(self, self.z, self.isinf)

    @functools.cached_property
    def _points(self):
        # the arrays are checked, so each point's slots are filled in
        # directly, without SpherePoint's own check
        n = self.z.size
        pts = list(map(object.__new__, repeat(SpherePoint, n)))
        deque(map(_SET_Z, pts, self.z.tolist()), 0)
        deque(map(_SET_INF, pts, repeat(False, n)), 0)
        if np.count_nonzero(self.isinf):
            inf = SpherePoint.infinity()
            for k in np.flatnonzero(self.isinf).tolist():
                pts[k] = inf
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
    return np.fromiter(map(f, pts), complex, len(pts))


def _write_points_csv(path, z, isinf, w=None):
    """One line re,im,is_infinity per point, with a weight column when w
    is given; parts in %.17g, which reads back to the same doubles."""
    tail = "\n" if w is None else ",%.17g\n"
    fin, inf = "%.17g,%.17g,0" + tail, "0,0,1" + tail
    cols = [z.real.tolist(), z.imag.tolist()]
    if w is not None:
        cols.append(w.tolist())
    # one format per row; an infinite row formats only its weight
    text = "".join(inf % row[2:] if f else fin % row
                   for row, f in zip(zip(*cols), isinf.tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("re,im,is_infinity" + ("" if w is None else ",weight") + "\n")
        fh.write(text)


def _write_json(path, obj):
    """obj as ASCII JSON, keys sorted, indent 2, with a final newline."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


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


class _Evaluator:
    """The base of functions given by an array method `at(z, isinf)`: a
    call at one point is the one-point case of `at`."""

    __slots__ = ()

    def __call__(self, x):
        zv, isinf = _as_pair(x)
        return complex(self.at(np.array([zv]), np.array([isinf]))[0])


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


def _hypot1(r):
    """math.hypot(1.0, r) for an array r >= 0, bit for bit.

    CPython 3.11's vector_norm of the coordinates (1, r): both are scaled
    by 2^-e, e the frexp exponent of max(1, r), squared exactly (Dekker's
    split) and added into 1.0 by fast two-sums whose errors are kept
    apart; a square root and one differential correction follow.
    Infinity passes through and NaN stays NaN. math.hypot(1.0, r) of
    CPython 3.10, 3.11, 3.12 and 3.13 gives the same bits on four million
    r (the value sets of `test_vector_hypot_matches_math_hypot`), though
    3.10 adds up its error terms in another order.
    """
    def square(x):   # x * x as hi + lo, exactly
        t = x * 134217729.0   # 2^27 + 1
        hi = t - (t - x)
        lo = x - hi
        p, q = hi * hi, hi * lo + lo * hi
        z = p + q
        return z, p - z + q + lo * lo

    with np.errstate(invalid="ignore"):
        scale = np.ldexp(1.0, -np.frexp(np.maximum(r, 1.0))[1])
        csum, frac1, frac2 = 1.0, 0.0, 0.0
        for x in (scale, r * scale):
            hi, lo = square(x)
            s = csum + hi
            csum, frac1, frac2 = s, frac1 + lo, frac2 + ((csum - s) + hi)
        h = np.sqrt(csum - 1.0 + (frac1 + frac2))
        hi, lo = square(h)
        s = csum - hi
        x = s - 1.0 + ((frac1 - lo) + (frac2 + ((csum - s) - hi)))
        return np.where(np.isinf(r), np.inf, (h + x / (2.0 * h)) / scale)


def _quotient(a, b):
    """a / b for complex arrays b and a (or a number a), rounded as
    Python's complex division: Smith's algorithm in CPython's order of
    operations. A zero divisor gives non-finite parts, not an error."""
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    wide = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(wide, bi / br, br / bi)
        denom = np.where(wide, br + bi * ratio, br * ratio + bi)
        out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)),
                       dtype=complex)
        out.real = np.where(wide, ar + ai * ratio, ar * ratio + ai) / denom
        out.imag = np.where(wide, ai - ar * ratio, ai * ratio - ar) / denom
    return out


def chordal_distances(a, zs, isinf):
    """`chordal_distance` from a to each point of (zs, isinf), bit for bit.

    The same charts and roundings as the scalar metric: moduli by hypot,
    reciprocals as Python's complex division, and math.hypot's rounding
    for the factors sqrt(1 + |z|^2) (`_hypot1`). The scalar metric stays
    for single pairs, where numpy's per-call overhead would make this path
    40 times slower.
    """
    za, ia = _as_pair(a)
    zs = np.where(isinf, 0j, zs)
    far_a = ia or abs(za) > 1.0
    za_chart = (0j if ia else 1.0 / za) if far_a else za
    # both beyond the unit circle: the reciprocal chart, infinity at 0
    both = (isinf | (np.hypot(zs.real, zs.imag) > 1.0)) & far_a
    zb = zs.copy()
    flip = both & ~isinf
    zb[flip] = _quotient(1.0, zs[flip])
    qa = np.where(both, math.hypot(1.0, abs(za_chart)),
                  math.hypot(1.0, abs(za)))
    qb = _hypot1(np.hypot(zb.real, zb.imag))
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
    goes through the reciprocal chart: (x, -y, -h) of w = 1/z's (x, y, h),
    and an infinite value goes to the pole, flagged or not.
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
    big = ~np.isfinite(m2)
    if big.any():
        finite = np.isfinite(zs)
        far = big & finite
        if far.any():
            out[far] = sphere_embed(1.0 / zs[far]) * (1.0, -1.0, -1.0)
        # an infinite value the mask does not flag is the pole as well
        isinf = isinf | (big & ~finite & ~np.isnan(zs))
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
        x, y, w = np.array(cloud.T)   # contiguous; `_sq_dist`'s association
        for lo in range(0, len(queries) if n else 0, step):
            q = queries[lo:lo + step, :, None]
            d2 = ((q[:, 0] - x) ** 2 + (q[:, 1] - y) ** 2) + (q[:, 2] - w) ** 2
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
    """Horner evaluation at z, a number or an array, rounded as Python
    rounds `acc = acc * z + c[k]` from acc = 0j.

    Each complex product is formed in real arithmetic, in the order of
    Python's complex product: its bits do not depend on numpy's SIMD
    dispatch, as those of numpy's complex array product do. coeffs may be
    a table whose axis 0 runs over the coefficients and whose other axes
    broadcast against z.
    """
    c = np.asarray(coeffs, dtype=complex)
    x, y = np.real(z), np.imag(z)
    re = im = 0.0
    for ck in c[::-1]:
        re, im = re * x - im * y + ck.real, re * y + im * x + ck.imag
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out[()]


def poly_derivative(coeffs):
    c = np.asarray(coeffs, dtype=complex)
    if c.shape[0] <= 1:
        return np.zeros((1,) + c.shape[1:], dtype=complex)
    k = np.arange(1, c.shape[0]).reshape((-1,) + (1,) * (c.ndim - 1))
    return c[1:] * k


def _series(c):
    """c as complex coefficients without trailing zeros, but at least one,
    as numpy.polynomial trims its inputs and results."""
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    nz = np.flatnonzero(c)
    return c[:nz[-1] + 1 if nz.size else 1]


def poly_mul(a, b):
    return _series(np.convolve(_series(a), _series(b)))


def poly_add(a, b):
    """numpy.polynomial's sum: the shorter added into the longer's copy."""
    a, b = sorted((_series(a), _series(b)), key=len)
    out = b.copy()
    out[:a.size] += a
    return _series(out)


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
    ax = np.abs(x)
    val, der, mag = c[:, -1:], None, s[:, -1:]   # the first step from 0
    for k in range(c.shape[1] - 2, -1, -1):
        der = val if der is None else der * x + val
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


@functools.lru_cache(maxsize=None)
def _companion(d):
    """The companion matrix skeleton of degree d: ones below the diagonal."""
    skel = np.zeros((d, d), dtype=complex)
    skel[np.arange(1, d), np.arange(d - 1)] = 1.0
    skel.flags.writeable = False
    return skel


# the cube roots of unity 1, w, w^2 and their conjugates
_CUBE = np.array([1.0, complex(-0.5, 0.8660254037844386),
                  complex(-0.5, -0.8660254037844386)])
_CUBE_BAR = _CUBE.conj()
_PM = np.array([1.0, -1.0])   # the signs of Ferrari's two quadratics


def _quadratic(c0, c1, c2):
    """The roots (q / c2, c0 / q) of c2 u^2 + c1 u + c0, stacked on a last
    axis: q = -(c1 + sqrt(c1^2 - 4 c2 c0)) / 2 with the sign that avoids
    cancellation; q = 0 is a double root at the origin, 0 twice."""
    sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
    sq = np.where(c1.real * sq.real + c1.imag * sq.imag < 0.0, -sq, sq)
    q = -0.5 * (c1 + sq)
    u = np.empty(c0.shape + (2,), dtype=complex)
    np.divide(q, c2, out=u[..., 0])
    np.divide(c0, q, out=u[..., 1])
    if np.count_nonzero(np.isfinite(u[..., 1])) < q.size:   # c0 / q = 0 / 0
        np.copyto(u[..., 1], 0j, where=q == 0)
    return u


# a closed-form row whose smallest root is below this times its largest is
# deflated by its largest root (`_closed_roots`); against 40-digit roots,
# one Newton step repairs the undeflated small roots of cubics down to
# about 2^-14 and of quartics down to about 2^-10
_SPREAD = 2.0 ** -8


def _cardano(c0, c1, c2):
    """The roots (m, 3) of u^3 + c2 u^2 + c1 u + c0: Cardano's formula in
    t = u + c2 / 3, with the sign of the square root that avoids
    cancellation in the cube w^3 and the other term v = -p / (3 w) set to
    0 at w = 0."""
    a = c2 / 3
    sq = a * a
    k = c1 / 3 - sq                        # p / 3
    h = 0.5 * (c0 - a * (c1 - 2 * sq))     # q / 2
    s = np.sqrt(h * h + k * k * k)
    s = s * np.copysign(1.0, h.real * s.real + h.imag * s.imag)
    w = (h + s) ** (1 / 3)   # -w is a cube root of -q/2 - s
    v = k / (w + (w == 0))
    return v[:, None] * _CUBE_BAR - (w[:, None] * _CUBE + a[:, None])


def _ferrari(c0, c1, c2, c3):
    """The roots (m, 4) of u^4 + c3 u^3 + c2 u^2 + c1 u + c0: Ferrari's
    formula in t = u + c3 / 4, through the largest root z of the resolvent
    cubic and the two stable quadratics t^2 -+ s t + p / 2 + z +- q / (2 s),
    s = sqrt(2 z)."""
    a = c3 / 4
    sq = a * a
    p = c2 - 6 * sq
    q = c1 - a * (2 * c2 - 8 * sq)
    r = c0 - a * (c1 - a * (c2 - 3 * sq))
    z = _cardano(-(0.125 * (q * q)), 0.25 * (p * p) - r, p)
    z = z[np.arange(z.shape[0]), np.abs(z).argmax(axis=1)]   # the largest
    s = np.sqrt(2 * z)
    h = q / (2 * s + (s == 0))
    t = _quadratic((0.5 * p + z)[:, None] + h[:, None] * _PM,
                   s[:, None] * -_PM, 1.0)
    return t.reshape(-1, 4) - a[:, None]


def _closed_roots(c):
    """The roots (m, d) of monic rows of degree d = 2, 3 or 4 given by
    their other coefficients c = [c_0, ..., c_(d-1)], arrays of m.

    The cubic's and the quartic's shift costs the small roots accuracy
    relative to the largest, which the Newton step of `_row_roots`
    repairs unless a root is far smaller. In a row whose smallest root is
    below _SPREAD times its largest, only the largest root of `_cardano`
    or `_ferrari` is kept; the rest come from the row deflated by it
    backward, from the constant term, as W. Kahan does ("To solve a real
    cubic equation", 1986): the quotient keeps the small roots' products.
    Its roots may be any amount smaller, so it is solved at the scale
    `_balance` gives it.
    """
    d = len(c)
    if d == 2:
        return _quadratic(c[0], c[1], 1.0)
    u = _cardano(*c) if d == 3 else _ferrari(*c)
    au = np.abs(u)
    far = au.min(axis=1) < _SPREAD * au.max(axis=1)
    if np.count_nonzero(far):
        rows = np.flatnonzero(far)
        top = u[rows, au[rows].argmax(axis=1)]
        low = np.empty((rows.size, d - 1), dtype=complex)
        low[:, 0] = -c[0][rows] / top
        for n in range(1, d - 1):
            low[:, n] = (low[:, n - 1] - c[n][rows]) / top
        wide, e = _balance(np.abs(low))
        if e is not None:
            power = e[:, None] * (np.arange(1, d) - d)
            low[wide] = _ldexp(low[wide], power)
        v = _closed_roots(list(low.T))
        if e is not None:
            v[wide] = _ldexp(v[wide], e[:, None])
        u[rows, 0] = top
        u[rows, 1:] = v
    return u


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
    tried again; one of equal roots cannot be split and raises
    NonConvergence. Returns (label, centre): each root's cluster label, and
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
        if not span.max(axis=(1, 2)).all():   # equal roots cannot split
            raise NonConvergence("the root solve missed roots")
        cut = np.zeros_like(link)
        np.logical_or.at(cut, bad, within & (
            span >= 0.5 * span.max(axis=(1, 2))[:, None, None]))
        link &= ~cut
    out = np.full((t, d), np.nan + 0j)
    out[rr, ss] = centre
    return label, out[np.arange(t)[:, None], label]


# a monic row of degree 3 or more with a coefficient above this, or whose
# coefficients are all below its inverse and not all 0, is scaled to its
# root bound before the solve
_UNBALANCED = 2.0 ** 32


def _ldexp(z, n):
    """z * 2^n, exact short of overflow or underflow."""
    if np.iscomplexobj(z):
        return np.ldexp(z.real, n) + 1j * np.ldexp(z.imag, n)
    return np.ldexp(z, n)


def _balance(ag):
    """(rows, e): the monic rows, given by the moduli ag (m, d) of their
    other coefficients (constant term first), that are to be solved in
    u = z / 2^e, and for each the integer e nearest to log2 of its root
    bound max_k ag_k^(1/(d-k)); (None, None) when there are none. A row
    is scaled when its largest coefficient is above _UNBALANCED or below
    1 / _UNBALANCED but not 0: the closed forms square and cube terms of
    the size of its roots' powers, which leave the floating-point range
    first."""
    top = ag.max(axis=1)
    rows = (top > _UNBALANCED) | ((top < 1.0 / _UNBALANCED) & (top > 0.0))
    if not np.count_nonzero(rows):
        return None, None
    # log2 of a zero coefficient is -inf: callers ignore divide warnings
    bound = np.max(np.log2(ag[rows]) / np.arange(ag.shape[1], 0, -1), axis=1)
    return rows, np.where(np.isfinite(bound), np.round(bound), 0).astype(int)


def _missed(val, mag):
    """The roots whose residual val is above 1e-3 of its Horner magnitude
    mag, or not finite, or whose Horner sum overflowed."""
    return ~(np.abs(val) <= 1e-3 * mag) | np.isinf(mag)


def _row_roots(f, s=None):
    """The roots of every row of f, multiplicities decided by one tie rule.

    f is (m, d + 1) with nonzero leading coefficients; s holds the sizes of
    the terms each coefficient was computed from (default |f|), which set
    its rounding noise. Returns (roots, label), both (m, d): each row's d
    roots in solver order and each root's cluster label (the solver
    position of the first root of its cluster; None when no root is tied).
    Every root of a k-fold cluster holds the cluster's centre, so a row
    lists each distinct root as often as its multiplicity.

    d <= 4 uses closed forms (`_quadratic`, `_closed_roots`), d >= 5 the
    eigenvalues of the companion matrices; for d >= 3 one Newton step on
    each simple root follows. A d >= 3 row with a monic coefficient above
    _UNBALANCED, or with all of them below 1 / _UNBALANCED and not all 0,
    is solved in u = z / 2^e, with e the integer nearest to log2 of the
    root bound max_k |f_k / f_d|^(1/(d-k)) (`_balance`), so that the solve
    sees roots of size about 1 and its Horner sums stay in range. The
    decision is made row by row, so a row's roots never depend on the
    other rows of its batch. The tie rule follows Z. Zeng, "Computing
    multiple roots of inexact polynomials", Math. Comp. 74 (2005):

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
    # one errstate for the solve: non-finite coefficients and roots raise
    with np.errstate(all="ignore"):
        if d <= 2:
            u = (-f[:, :1] / f[:, 1:] if d == 1
                 else _quadratic(f[:, 0], f[:, 1], f[:, 2]))
        else:
            lead = f[:, -1:]
            g, size = f / lead, size / np.abs(lead)
            if np.count_nonzero(np.isfinite(g) & np.isfinite(size)) < g.size:
                raise NonConvergence("a fiber polynomial leaves the "
                                     "floating-point range once normalized")
            wide, e = _balance(np.abs(g[:, :-1]))
            if e is not None:
                gw = g[wide]
                power = e[:, None] * (np.arange(d + 1) - d)
                scaled = _ldexp(gw, power)
                big = np.abs(gw) > EPS * np.abs(gw).max(axis=1, keepdims=True)
                if np.any(big & (np.abs(scaled) < np.finfo(float).tiny)):
                    raise NonConvergence(
                        "fiber roots spread over more scales than floating "
                        "point holds")
                g[wide], size[wide] = scaled, _ldexp(size[wide], power)
            if d <= 4:
                u = _closed_roots([g[:, k] for k in range(d)])
            else:
                comp = np.empty((m, d, d), dtype=complex)
                comp[:] = _companion(d)
                np.negative(g[:, :-1], out=comp[:, :, -1])
                u = np.linalg.eigvals(comp)
    if np.count_nonzero(np.isfinite(u)) < u.size:
        raise NonConvergence("fiber roots beyond the floating-point range")
    if d == 1:
        return u, None
    # candidates: |x - y| <= r_x + r_y, multiplied out so that a root with
    # a vanishing derivative (an infinite radius) links to everything
    i, j = _pairs(d)
    if d == 2:
        # |f'| at either root of a quadratic is |c2| times their distance
        au = np.abs(u)
        a1, a2 = au[:, 0], au[:, 1]
        mag = (2.0 * size[:, 0] + size[:, 1] * (a1 + a2)
               + size[:, 2] * (a1 * a1 + a2 * a2))    # at both roots
        gap = np.abs(u[:, 0] - u[:, 1])
        near = (np.abs(f[:, 2]) * gap * gap <= LINK * EPS * mag)[:, None]
    else:
        val, der, mag = _horner(g, size, u)
        slope = np.abs(der)
        si, sj = slope.take(i, axis=1), slope.take(j, axis=1)
        near = (np.abs(u.take(i, axis=1) - u.take(j, axis=1)) * si * sj
                <= LINK * EPS * (mag.take(i, axis=1) * sj
                                 + mag.take(j, axis=1) * si))
    label = None
    if np.count_nonzero(near):
        tied = np.flatnonzero(near.any(axis=1))
        label = np.tile(np.arange(d), (m, 1))
        label[tied], centre = _tie(u[tied], g[tied], size[tied], near[tied],
                                   i, j)
        merged = ~np.isnan(centre)
        u = u.copy()
        u[tied] = np.where(merged, centre, u[tied])
    if d >= 3:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = val / der   # a non-finite step is not taken
        if label is not None:
            step[tied] = np.where(merged, np.nan, step[tied])
        np.subtract(u, step, out=u, where=np.isfinite(step))
        # a root far from any root that Newton did not bring in means the
        # row's roots spread over more scales than the solve resolves
        far = _missed(val, mag).any(axis=1)
        if np.count_nonzero(far):
            val, _, mag = _horner(g[far], size[far], u[far])
            if np.count_nonzero(_missed(val, mag)):
                raise NonConvergence("the root solve missed roots")
    if e is not None:
        u[wide] = _ldexp(u[wide], e[:, None])
        if np.count_nonzero(np.isfinite(u[wide])) < u[wide].size:
            raise NonConvergence("fiber roots beyond the floating-point range")
    return u, label


def _sort_rows(roots, label):
    """`_row_roots`' tables with each row sorted by (re, im), ties in
    solver order, np.inf last, as flat arrays (rows one after another);
    label (None when nothing is tied) is permuted alike. A cluster's roots
    share its value and its label, the solver position of its first root,
    so they end up side by side."""
    m, d = roots.shape
    if d == 2:   # one comparison orders each row's pair
        swap = (roots[:, 1] < roots[:, 0])[:, None]
        return (np.where(swap, roots[:, ::-1], roots).ravel(),
                None if label is None
                else np.where(swap, label[:, ::-1], label).ravel())
    # numpy orders complex numbers by (re, im); equal values go by label
    order = (np.argsort(roots, axis=1, kind="stable") if label is None
             else np.lexsort((label, roots.imag, roots.real), axis=1))
    if m > 1:
        order += d * np.arange(m)[:, None]
    order = order.ravel()
    return (roots.ravel()[order],
            None if label is None else label.ravel()[order])


def _merge_runs(label, d, *columns):
    """(counts, row, *picked): the runs of equal labels in sorted rows of
    d entries (flat, row after row), each run's length and row, and each
    flat column at the runs' first entries; a None label makes every entry
    a run of one."""
    size = columns[0].size
    if label is None:
        return (np.ones(size, dtype=np.int64),
                np.arange(size) // d, *columns)
    start = np.ones(size, dtype=bool)
    start[1:] = label[1:] != label[:-1]
    start[::d] = True
    first = np.flatnonzero(start)
    return (np.diff(first, append=size), first // d,
            *(c[first] for c in columns))


def roots_with_multiplicity(poly):
    """All roots of a polynomial with multiplicities.

    The one-row case of the fiber solver `_row_roots` and its tie rule,
    its roots sorted (`_sort_rows`) and merged (`_merge_runs`). Returns a
    RootSet; multiplicities always sum to the degree.
    """
    c = poly_trim(poly)
    if c.size <= 1:
        return RootSet((), 0.0)
    roots, label = _sort_rows(*_row_roots(c[None, :]))
    counts, _, centers = _merge_runs(label, c.size - 1, roots)
    centers = centers + 0.0   # report a root at 0 as 0, not -0
    residual = float(np.max(np.abs(poly_eval(c / c[-1], centers))))
    return RootSet._from_arrays(centers, np.zeros(centers.size, dtype=bool),
                                counts, residual_bound=residual)
