"""Rational self-maps of the Riemann sphere as branched coverings.

A map R = P/Q in lowest terms has degree d = max(deg P, deg Q). Every point
w has exactly d preimages counted with branch indices: the index e(x) is the
local multiplicity of R at x, equal to 1 + (order of x as a zero of the
derivative numerator W = P'Q - PQ'). Work near infinity happens in the
reciprocal chart w = 1/z throughout.

Every image goes through one evaluator, `_evaluate_arrays`, on arrays of
points; `evaluate` is its one-point case. It rounds as Python's complex
arithmetic does, so its bits do not depend on numpy's SIMD dispatch.

Every fiber goes through one table, `_fiber_table`, built from the fiber
polynomials of a batch of bases (`_fiber_rows`) and numkernel's row solve
`_row_roots`, whose tie rule decides the branch indices: row j lists the
d preimages of base j, x as often as its index e(x). How a batch is solved
is decided here alone. Backward walks draw from the rows. `_sorted_table`
sorts each row by (re, im), infinity last. Callers that only sum read
`_leaves`: each base's depth-k leaves as d^k table entries, so a sum
with branch-index weights is a plain row sum (`_row_sums`). Callers
that list distinct points read `_expand_level`, which merges each sorted
row's runs; `preimages` is its one-row case, and `tree_levels` expands
one base's tree, one call per level. A `Fiber` is an array-backed point
set built from the solver's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, CoprimalityError
from .numkernel import (
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
    _merge_runs,
    _quotient,
    _row_roots,
    _sort_rows,
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
        p = np.atleast_1d(np.asarray(numerator, dtype=complex))
        q = np.atleast_1d(np.asarray(denominator, dtype=complex))
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
        # (P, Q) and its reversal, as (d + 1, 2, 1) tables for the two charts
        self._charts = [np.stack(pq, axis=1)[:, :, None] for pq in
                        ((self._p_pad, self._q_pad), (self._rp, self._rq))]
        # term sizes |P| and |Q| of the fiber polynomials (`_fiber_rows`)
        self._pq_abs = np.abs(np.array((self._p_pad, self._q_pad)))
        self.is_polynomial = q.size == 1
        self._w = None
        self._wt = None
        self._crit = None
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

def evaluate(R, z):
    """Apply the map; accepts complex or SpherePoint, returns SpherePoint.

    The one-point case of `_evaluate_arrays`.
    """
    zv, isinf = _as_pair(z)
    w, inf = _evaluate_arrays(R, np.array([zv]), np.array([isinf]))
    return SpherePoint.infinity() if inf[0] else SpherePoint(w[0].item())


def _evaluate_arrays(R, z, isinf):
    """The images of the points (z, isinf), as (values, isinf).

    Moduli up to 1 (by hypot, as Python's abs) evaluate P and Q at z; other
    points evaluate the reversed coefficients at 1/z (Python's division),
    infinity at 0, so the result is stable arbitrarily close to (and at)
    infinity. The polynomials round as Python's complex arithmetic
    (`poly_eval`) and num / den is numpy's division, so the bits do not
    depend on numpy's SIMD dispatch. An exact 0/0 differentiates both
    polynomials until one value is nonzero (l'Hopital).
    """
    far = isinf | (np.hypot(z.real, z.imag) > 1.0)
    u = np.where(far, 0j, z)
    flip = far & ~isinf
    u[flip] = _quotient(1.0, z[flip])
    c = np.where(far, R._charts[1], R._charts[0])   # (d + 1, 2, rows)
    nd = poly_eval(c, u)
    hold = np.flatnonzero((nd[0] == 0) & (nd[1] == 0))
    while hold.size and c.shape[0] > 1:
        c = poly_derivative(c)
        nd[:, hold] = poly_eval(c[:, :, hold], u[hold])
        hold = hold[(nd[0, hold] == 0) & (nd[1, hold] == 0)]
    num, den = nd
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = num / den
    inf = (den == 0) | ~np.isfinite(w)
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
    covering count sum(e - 1) = 2 deg(R) - 2. Computed once per map; each
    call returns a fresh list.
    """
    if R._crit is not None:
        return list(R._crit)
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
    R._crit = tuple(out)
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
    one more preimage at infinity, d + 1 - n[j] in all. n is None when no
    row drops a coefficient.
    """
    r = np.abs(pts)
    small = r <= 1.0
    a = 1.0 / np.where(small, 1.0 + 0j, pts)   # 1, or 1/w
    b = np.where(small, pts, 1.0 + 0j)         # w, or 1
    # built as (d + 1, rows) and transposed: numpy loops fast over rows
    f = (a * R._p_pad[:, None] - b * R._q_pad[:, None]).T
    ab = np.empty((r.size, 2))                 # |a| and |b|
    np.divide(1.0, np.maximum(r, 1.0), out=ab[:, 0])
    np.minimum(r, 1.0, out=ab[:, 1])
    s = ab @ R._pq_abs
    if np.count_nonzero(inf):
        f[inf], s[inf] = R._q_pad, R._pq_abs[1]
    n = None
    low = np.abs(f[:, -1]) <= _DROP_TOL * s[:, -1]
    if np.count_nonzero(low):
        n = np.full(f.shape[0], f.shape[1])
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


def _fiber_table(R, pts, inf):
    """The fibers of a batch of bases as a table: (roots, isinf, label).

    Each is (m, d): row j lists the d preimages of base j, x e(x) times,
    so a uniform column picks x with probability e(x)/d. A row whose fiber
    polynomial keeps its d + 1 coefficients (`_fiber_rows`) holds
    `_row_roots`' roots and labels in solver order; a row of length n <= d
    holds its shorter polynomial's roots, then d + 1 - n entries at
    infinity (value 0) labelled as one cluster. Rows are solved by length,
    in chunks of bounded size. isinf is None when no entry is at infinity,
    label None when none is tied: in the common case, full-length rows in
    one chunk, the table is one `_row_roots` call. A constant map, whose
    fibers are empty, raises ValueError.
    """
    m, d = pts.size, R.degree
    if d < 1:
        raise ValueError("fibers need a nonconstant map")
    f, s, n = _fiber_rows(R, pts, inf)
    if n is None:
        if m <= max(1, _WORK_ENTRIES // (d * d)):   # one chunk
            roots, label = _row_roots(f, s)
            return roots, None, label
        n = np.full(m, d + 1)
    roots = np.zeros((m, d), dtype=complex)
    label = np.tile(np.arange(d), (m, 1))
    for k in np.unique(n):
        group = np.flatnonzero(n == k)
        for sl in _chunks(group.size, k - 1) if k > 1 else ():
            rows = group[sl]
            roots[rows, :k - 1], tie = _row_roots(f[rows, :k], s[rows, :k])
            if tie is not None:
                label[rows, :k - 1] = tie
        label[group, k - 1:] = k - 1   # the preimage at infinity
    isinf = np.arange(d) >= n[:, None] - 1
    return (roots, isinf if isinf.any() else None,
            label if (label != np.arange(d)).any() else None)


def _sorted_table(R, pts, inf):
    """(points, isinf, label): the fiber table with each row sorted by
    (re, im), stably (`_sort_rows`), infinity last. All three run row
    after row, d entries per base; label is None when nothing is tied."""
    roots, isinf, label = _fiber_table(R, pts, inf)
    if isinf is None:
        roots, label = _sort_rows(roots, label)
        return roots, np.zeros(roots.size, dtype=bool), label
    roots, label = _sort_rows(np.where(isinf, np.inf, roots), label)
    at = np.isinf(roots)
    return np.where(at, 0j, roots), at, label


def _expand_level(R, pts, inf):
    """One backward step for a batch: each sorted table row's runs merged.

    Returns (points, isinf, counts, parent): the children of every input
    point with their branch indices and parent positions. Children of one
    parent are contiguous, sorted by (re, im), infinity last.
    """
    pts, inf, label = _sorted_table(R, pts, inf)
    counts, row, pts, inf = _merge_runs(label, R.degree, pts, inf)
    return pts, inf, counts, row


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


def _within(size, node_budget):
    """Refuse a tree level of size nodes beyond node_budget."""
    if size > node_budget:
        raise BudgetExceeded(f"preimage tree would exceed {node_budget} nodes")


def _depth_within(d, budget=NODE_BUDGET):
    """The largest k >= 1 with d^k <= budget (1 for d < 2): the deepest
    tree whose leaves for one base fit `_leaves`' budget."""
    k = 1
    while d > 1 and d ** (k + 1) <= budget:
        k += 1
    return k


def _leaves(R, pts, inf, n, node_budget=NODE_BUDGET):
    """Yield (k, lo, points, isinf): the depth-k leaves of bases lo, ...

    Base lo + j owns the d^k leaves from j d^k on, its depth-(k - 1)
    leaves' sorted table rows (`_sorted_table`) in turn, so a preimage x
    of R^k appears as often as its chain-rule index and a sum over them
    is a plain row sum (`_row_sums`). Bases go in groups of as many as
    fit in node_budget at d^n leaves each, and each group yields its
    levels k = 1..n before the next group starts, so a group exceeds the
    budget exactly when one of its bases would alone.
    """
    d = R.degree
    if d < 1:
        raise ValueError("fibers need a nonconstant map")
    group = max(1, node_budget // d ** n)
    for lo in range(0, pts.size, group):
        z, f = pts[lo:lo + group], inf[lo:lo + group]
        for k in range(1, n + 1):
            _within(z.size * d, node_budget)
            z, f, _ = _sorted_table(R, z, f)
            yield k, lo, z, f


def _row_sums(values, width):
    """Sum of each row of `width` values, from 0 and left to right, as a
    scalar loop adds; numpy's pairwise sum would differ in the last bits."""
    return 0.0 + np.cumsum(values.reshape(-1, width), axis=1)[:, -1]


def tree_levels(R, y, n, node_budget=NODE_BUDGET):
    """Yield the depth-k fibers of y for k = 1..n as parallel arrays.

    Each yielded triple is (points, isinf, indices): the full preimage set of
    y under R^k with chain-rule indices (integer arrays), one `_expand_level`
    call per level. Order within a level is deterministic: parents in
    order, children sorted by (re, im) with infinity last.
    """
    z, f = _as_arrays([y])
    idx = np.ones(1, dtype=np.int64)
    for _ in range(n):
        _within(z.size * R.degree, node_budget)
        z, f, cc, par = _expand_level(R, z, f)
        idx = cc * idx[par]
        yield z, f, idx


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
