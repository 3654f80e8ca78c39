"""Rational self-maps of the Riemann sphere as branched coverings.

A map R = P/Q in lowest terms has degree d = max(deg P, deg Q). Every point
w has exactly d preimages counted with branch indices: the index e(x) is the
local multiplicity of R at x, equal to 1 + (order of x as a zero of the
derivative numerator W = P'Q - PQ'). Work near infinity happens in the
reciprocal chart w = 1/z throughout.

Every fiber goes through one solver, `_expand_level`: it builds the fiber
polynomials of a whole batch of bases (`_fiber_rows`), groups the rows by
degree (bases at infinity and degree-drop bases form the groups of lower
degree, with their preimage at infinity) and solves each group with
numkernel's `_row_roots`, whose tie rule decides the branch indices.
`preimages` is its one-row case; trees, backward walks and expansion
times call it on batches. `_forest` expands the preimage trees of many
bases together, one call per level; `tree_levels` is its one-base case.
A `Fiber` is an array-backed point set built from the solver's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, CoprimalityError
from .numkernel import (
    Polynomial,
    SpherePoint,
    _Entries,
    _as_arrays,
    _as_pair,
    local_multiplicity,
    poly_add,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_trim,
    roots_with_multiplicity,
    _cluster_rows,
    _row_roots,
)

# budget for polynomial degrees produced by composition
DEGREE_BUDGET = 256
# budget for preimage-tree nodes
NODE_BUDGET = 10 ** 6

_DROP_TOL = 1e-12


@dataclass(frozen=True)
class CriticalDatum:
    """A critical point with its branch index and critical value."""

    point: SpherePoint
    index: int
    value: SpherePoint


@dataclass(frozen=True)
class Fiber(_Entries):
    """Preimage set of a base point under R^depth, with branch indices.

    entries are (point, index) pairs, pairwise distinct points; the indices
    sum to degree^depth. An array-backed point set (`numkernel._PointSet`).
    """

    base: SpherePoint
    depth: int
    entries: tuple

    @property
    def total_index(self):
        return sum(m for _, m in self.entries)

    def indices(self):
        return [m for _, m in self.entries]


class RationalMap:
    """R = P/Q with coprime polynomial numerator and denominator.

    Construction trims exact leading zeros, rejects non-finite coefficients
    and a vanishing denominator, and checks coprimality (a common factor
    above tolerance is an error).
    """

    def __init__(self, numerator, denominator=(1,), check=True):
        p = numerator.coeffs if isinstance(numerator, Polynomial) else \
            np.atleast_1d(np.asarray(numerator, dtype=complex))
        q = denominator.coeffs if isinstance(denominator, Polynomial) else \
            np.atleast_1d(np.asarray(denominator, dtype=complex))
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise ValueError("map coefficients must be finite")
        p = poly_trim(p)
        q = poly_trim(q)
        if np.all(q == 0):
            raise ValueError("denominator is the zero polynomial")
        if np.all(p == 0) and p.size > 1:
            p = np.zeros(1, dtype=complex)
        self._p = p
        self._q = q
        d = max(p.size, q.size) - 1
        self.degree = d
        # padded to a common length d+1; reversed copies serve the 1/z chart
        self._p_pad = np.zeros(d + 1, dtype=complex)
        self._p_pad[: p.size] = p
        self._q_pad = np.zeros(d + 1, dtype=complex)
        self._q_pad[: q.size] = q
        self._rp = self._p_pad[::-1].copy()
        self._rq = self._q_pad[::-1].copy()
        # term sizes |P| and |Q| of the fiber polynomials (`_fiber_rows`)
        self._pq_abs = np.abs(np.array((self._p_pad, self._q_pad)))
        self.is_polynomial = q.size == 1
        self._w = None
        self._wt = None
        if check:
            self._check_coprime()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs):
        """The polynomial map z -> p(z)."""
        return cls(coeffs, (1,), check=False)

    @classmethod
    def _raw(cls, p, q):
        """Internal: build without the coprimality check (trusted inputs)."""
        return cls(p, q, check=False)

    def _check_coprime(self):
        dp, dq = self._p.size - 1, self._q.size - 1
        if min(dp, dq) < 1:
            return
        low, high = (self._p, self._q) if dp <= dq else (self._q, self._p)
        rs = _row_roots((low / np.max(np.abs(low)))[None, :])[0][0]
        vals = np.abs(poly_eval(high, rs))
        scale = np.max(np.abs(high)) * np.maximum(1.0, np.abs(rs)) ** (high.size - 1)
        if np.any(vals <= 1e-10 * scale):
            raise CoprimalityError(
                "numerator and denominator share a root within tolerance")

    # -- basic data ----------------------------------------------------------

    @property
    def numerator(self):
        return Polynomial(self._p)

    @property
    def denominator(self):
        return Polynomial(self._q)

    def derivative_numerator(self):
        """W = P'Q - PQ', whose zero orders are branch indices minus 1."""
        if self._w is None:
            w = poly_add(poly_mul(poly_derivative(self._p), self._q),
                         -poly_mul(self._p, poly_derivative(self._q)))
            self._w = poly_trim(w, rel_tol=1e-12)
        return self._w

    def _chart_w(self):
        """W of the conjugated map (1/R(1/z)), for branch data at infinity."""
        if self._wt is None:
            w = poly_add(poly_mul(poly_derivative(self._rq), self._rp),
                         -poly_mul(self._rq, poly_derivative(self._rp)))
            self._wt = poly_trim(w, rel_tol=1e-12)
        return self._wt

    def __call__(self, z):
        return evaluate(self, z)

    def __repr__(self):
        return (f"RationalMap(degree={self.degree}, "
                f"P={list(self._p)}, Q={list(self._q)})")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _eval_ratio(num_c, den_c, z):
    """Evaluate num/den at z with l'Hopital fallback for exact 0/0."""
    num = poly_eval(num_c, z)
    den = poly_eval(den_c, z)
    while num == 0 and den == 0 and (len(num_c) > 1 or len(den_c) > 1):
        num_c = poly_derivative(num_c)
        den_c = poly_derivative(den_c)
        num = poly_eval(num_c, z)
        den = poly_eval(den_c, z)
    if den == 0:
        return SpherePoint.infinity()
    return SpherePoint.from_value(num / den)


def evaluate(R, z):
    """Apply the map; accepts complex or SpherePoint, returns SpherePoint.

    Moduli above 1 are evaluated through the reciprocal chart, so the result
    is stable arbitrarily close to (and at) infinity.
    """
    zv, isinf = _as_pair(z)
    if isinf:
        return _eval_ratio(R._rp, R._rq, 0j)
    if abs(zv) <= 1.0:
        return _eval_ratio(R._p_pad, R._q_pad, zv)
    return _eval_ratio(R._rp, R._rq, 1.0 / zv)


def _evaluate_arrays(R, z, isinf):
    """`evaluate` on (z, isinf) arrays: the images as (values, isinf).

    The same charts as `evaluate`: moduli above 1 and infinity go through
    the reciprocal chart. An exact 0/0 takes `evaluate`'s l'Hopital route.
    """
    far = isinf | (np.abs(z) > 1.0)
    u = np.where(far, 0j, z)
    u[far & ~isinf] = 1.0 / z[far & ~isinf]
    num = np.where(far, poly_eval(R._rp, u), poly_eval(R._p_pad, u))
    den = np.where(far, poly_eval(R._rq, u), poly_eval(R._q_pad, u))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = num / den
    inf = (den == 0) | ~np.isfinite(w)
    for i in np.flatnonzero((num == 0) & (den == 0)):
        p = evaluate(R, SpherePoint(z[i], isinf[i]))
        w[i], inf[i] = p.z, p.is_infinity
    return np.where(inf, 0j, w), inf


def value_at_infinity(R):
    return evaluate(R, SpherePoint.infinity())


# ---------------------------------------------------------------------------
# branch data
# ---------------------------------------------------------------------------

def branch_index(R, x):
    """Multiplicity of x in the fiber over evaluate(R, x); 1 off criticals.

    Computed as 1 + (order of x as a zero of W = P'Q - PQ'), which matches
    the fiber multiplicity at every finite point, poles included; infinity
    goes through the reciprocal chart.
    """
    xv, isinf = _as_pair(x)
    if isinf:
        return 1 + local_multiplicity(R._chart_w(), 0j)
    if abs(xv) <= 1.0:
        return 1 + local_multiplicity(R.derivative_numerator(), xv)
    return 1 + local_multiplicity(R._chart_w(), 1.0 / xv)


def critical_points(R):
    """All critical points with branch indices and critical values.

    Finite critical points are the roots of W = P'Q - PQ' (index = order + 1);
    the chart map covers infinity. The returned data satisfies the branched
    covering count sum(e - 1) = 2 deg(R) - 2.
    """
    out = []
    w = R.derivative_numerator()
    if w.size > 1:
        rs = roots_with_multiplicity(w)
        for pt, mult in rs.entries:
            out.append(CriticalDatum(pt, mult + 1, evaluate(R, pt)))
    wt = R._chart_w()
    scale = np.max(np.abs(wt))
    k = 0
    while k < wt.size - 1 and abs(wt[k]) <= _DROP_TOL * scale:
        k += 1
    if k >= 1:
        inf = SpherePoint.infinity()
        out.append(CriticalDatum(inf, k + 1, evaluate(R, inf)))
    out.sort(key=lambda cd: cd.point.sort_key())
    return out


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

def _fiber_rows(R, pts, inf):
    """Fiber polynomials of a batch of bases: (f, s, n).

    Row j of f holds the d+1 coefficients of P - w Q for |w| <= 1, of
    P/w - Q for |w| > 1 (w = pts[j]), and of Q over infinity; s holds the
    sizes of the two terms of each coefficient. Only the first n[j]
    coefficients count: a leading coefficient at most _DROP_TOL times the
    size of its terms drops (w = R(infinity)), and each dropped degree is
    one more preimage at infinity, d + 1 - n[j] in all.
    """
    r = np.abs(pts)
    small = r <= 1.0
    a = 1.0 / np.where(small, 1.0 + 0j, pts)   # 1, or 1/w
    b = np.where(small, pts, 1.0 + 0j)         # w, or 1
    # built as (d + 1, rows) and transposed: numpy loops fast over rows
    f = (a * R._p_pad[:, None] - b * R._q_pad[:, None]).T
    ab = np.empty((r.size, 2))                 # |a| and |b|
    ab[:, 0] = 1.0 / np.maximum(r, 1.0)
    ab[:, 1] = np.minimum(r, 1.0)
    s = ab @ R._pq_abs
    if inf.any():
        f[inf], s[inf] = R._q_pad, R._pq_abs[1]
    n = np.full(f.shape[0], f.shape[1])
    low = np.abs(f[:, -1]) <= _DROP_TOL * s[:, -1]
    if low.any():
        low = np.flatnonzero(low)
        keep = np.abs(f[low]) > _DROP_TOL * s[low]
        keep[:, 0] = True
        n[low] -= np.argmax(keep[:, ::-1], axis=1)
    return f, s, n


# cap on the entries of one chunk's (rows, d, d) work arrays
_WORK_ENTRIES = 1 << 18


def _chunks(m, d):
    """Row slices that keep a chunk's (rows, d, d) arrays within the cap."""
    step = max(1, _WORK_ENTRIES // (d * d))
    return [slice(lo, lo + step) for lo in range(0, max(m, 1), step)]


def _expand_level(R, pts, inf):
    """One backward step for a batch of points: the fiber solver.

    Returns (points, isinf, counts, parent): the children of every input
    point with their branch indices and parent positions. Children of one
    parent are contiguous, sorted by (re, im), infinity last. Rows are
    grouped by the length n of their fiber polynomial (`_fiber_rows`); each
    group is solved by `_row_roots` in chunks of bounded size, and a group
    with n <= d adds one child at infinity of index d + 1 - n per row.
    """
    f, s, n = _fiber_rows(R, pts, inf)
    d = R.degree
    if d == 0:   # a constant map has empty fibers
        none = np.zeros(0, dtype=np.int64)
        return none.astype(complex), none.astype(bool), none, none
    parts = []
    for k in [d + 1] if (n > d).all() else np.unique(n):
        group = np.flatnonzero(n == k)
        for sl in _chunks(group.size, k - 1) if k > 1 else ():
            rows = group[sl]
            if rows.size == n.size:   # every row: no copies
                rows = slice(None)
            centers, counts, row = _cluster_rows(
                *_row_roots(f[rows, :k], s[rows, :k]))
            parts.append((centers, np.zeros(centers.size, dtype=bool), counts,
                          row if isinstance(rows, slice) else rows[row]))
        if k <= d:
            parts.append((np.zeros(group.size, dtype=complex),
                          np.ones(group.size, dtype=bool),
                          np.full(group.size, d + 1 - k), group))
    if len(parts) == 1:
        return parts[0]
    cp, cn, cc, par = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(par, kind="stable")
    return cp[order], cn[order], cc[order], par[order]


def preimages(R, w):
    """The fiber over w: distinct preimage points with branch indices.

    Indices sum to deg(R) exactly. The preimage at infinity appears when the
    fiber polynomial loses degree (w = R(infinity)) or, over w = infinity,
    when deg P exceeds deg Q; finite preimages of infinity are the poles
    with their orders. This is the one-row case of `_expand_level`.
    """
    pts, inf, idx, _ = _expand_level(R, *_as_arrays([w]))
    return Fiber._from_arrays(pts, inf, idx, base=SpherePoint.from_value(w),
                              depth=1)


def _forest(R, pts, inf, n, node_budget=NODE_BUDGET):
    """Yield (k, points, isinf, indices, root) for the trees of many bases.

    The bases (pts, inf) are expanded together, one `_expand_level` call
    per level; root gives each node's base. A base's nodes are contiguous
    and in the order its tree has alone (`tree_levels`). Bases go in
    groups of as many trees as fit in node_budget at d^n nodes each, and
    each group yields its levels k = 1..n before the next group starts, so
    a group exceeds the budget exactly when one of its trees would alone.
    """
    d = R.degree
    if d < 1:
        raise ValueError("preimage trees need a nonconstant map")
    group = node_budget
    for _ in range(n):
        if group <= 1:
            break
        group //= d
    group = max(1, group)
    for lo in range(0, pts.size, group):
        z, f = pts[lo:lo + group], inf[lo:lo + group]
        idx = np.ones(z.size, dtype=np.int64)
        root = np.arange(lo, lo + z.size)
        for k in range(1, n + 1):
            if z.size * d > node_budget:
                raise BudgetExceeded(
                    f"preimage tree would exceed {node_budget} nodes")
            z, f, cc, par = _expand_level(R, z, f)
            idx, root = cc * idx[par], root[par]
            yield k, z, f, idx, root


def tree_levels(R, y, n, node_budget=NODE_BUDGET):
    """Yield the depth-k fibers of y for k = 1..n as parallel arrays.

    Each yielded triple is (points, isinf, indices): the full preimage set of
    y under R^k with chain-rule indices (integer arrays). Order within a
    level is deterministic: parents in order, children sorted by (re, im)
    with infinity last. This is the one-base case of the forest `_forest`.
    """
    for _, pts, inf, idx, _ in _forest(R, *_as_arrays([y]), n, node_budget):
        yield pts, inf, idx


def preimage_tree(R, y, n, node_budget=NODE_BUDGET):
    """Depth-n preimage fiber of y with chain-rule branch indices.

    Indices are products e(x) e(R x) ... e(R^{n-1} x) and sum to deg(R)^n
    exactly (integer bookkeeping).
    """
    if n < 1:
        raise ValueError("depth must be at least 1")
    for pts, inf, idx in tree_levels(R, y, n, node_budget):
        pass
    return Fiber._from_arrays(pts, inf, idx, base=SpherePoint.from_value(y),
                              depth=n)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def compose(R, S, degree_budget=DEGREE_BUDGET):
    """The composite map z -> R(S(z)).

    Degrees multiply; a result above degree_budget raises BudgetExceeded.
    """
    d = R.degree * S.degree
    if d > degree_budget:
        raise BudgetExceeded(
            f"composition degree {d} exceeds budget {degree_budget}")
    dr = R.degree
    u = np.zeros(S.degree + 1, dtype=complex)
    u[: S._p.size] = S._p
    v = np.zeros(S.degree + 1, dtype=complex)
    v[: S._q.size] = S._q
    # powers of the inner numerator and denominator up to dr
    upow = [np.array([1.0 + 0j])]
    vpow = [np.array([1.0 + 0j])]
    for _ in range(dr):
        upow.append(poly_mul(upow[-1], u))
        vpow.append(poly_mul(vpow[-1], v))
    pc = np.zeros(1, dtype=complex)
    qc = np.zeros(1, dtype=complex)
    for k in range(dr + 1):
        lift = poly_mul(upow[k], vpow[dr - k])
        if R._p_pad[k] != 0:
            pc = poly_add(pc, R._p_pad[k] * lift)
        if R._q_pad[k] != 0:
            qc = poly_add(qc, R._q_pad[k] * lift)
    return RationalMap._raw(pc, qc)


def iterate_map(R, n, degree_budget=DEGREE_BUDGET):
    """The n-fold composition R^n (n >= 1)."""
    if n < 1:
        raise ValueError("iterate count must be >= 1")
    if R.degree ** n > degree_budget:
        raise BudgetExceeded(
            f"iterate degree {R.degree ** n} exceeds budget {degree_budget}")
    acc = R
    for _ in range(n - 1):
        acc = compose(R, acc, degree_budget)
    return acc


def periodic_points(R, n, include_nonrepelling=False, degree_budget=DEGREE_BUDGET):
    """Finite fixed points of R^n, by default only the repelling ones.

    Repelling periodic points all lie on the Julia set, which makes them a
    well-spread, forward-invariant probe set. Returns a sorted complex array.
    """
    rn = iterate_map(R, n, degree_budget)
    f = poly_trim(poly_add(rn._p_pad, -poly_mul(np.array([0, 1.0]), rn._q_pad)),
                  rel_tol=1e-14)
    if f.size <= 1:
        return np.zeros(0, dtype=complex)
    pts = roots_with_multiplicity(f).z
    if not include_nonrepelling:
        w = rn.derivative_numerator()
        qv = poly_eval(rn._q_pad, pts)
        ok = qv != 0
        mult = np.zeros(pts.shape, dtype=float)
        mult[ok] = np.abs(poly_eval(w, pts[ok]) / qv[ok] ** 2)
        pts = pts[mult > 1.0 + 1e-9]
    order = np.lexsort((pts.imag, pts.real))
    return pts[order]
