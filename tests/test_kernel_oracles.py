"""The lean fiber-kernel paths against the routes they replace, bit for bit.

The references below are the straightforward forms of the row solve, the
grouped fiber solver, the power table, the two-forest KMS run and the
sums over a distinct-point forest. Every comparison is on float bits
(`view(np.uint64)`), except one: on a base whose fibers are tied, the
grouped sums add a k-fold root once with weight k, so there the row sums
match them within a bound and match the same forest summed in leaf order
bit for bit.
"""

import math
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratdyn import bimodule, ratmap, transfer
from ratdyn.errors import BudgetExceeded, NonConvergence
from ratdyn.numkernel import (
    EPS,
    LINK,
    _SPREAD,
    _UNBALANCED,
    _closed_roots,
    _horner,
    _merge_runs,
    _missed,
    _ldexp,
    _pairs,
    _row_roots,
    _sort_rows,
    _tie,
    SpherePoint,
    _PointSet,
    _as_arrays,
    _values_at,
    roots_with_multiplicity,
    sphere_embed,
)
from ratdyn.bimodule import (Frame, GraphFunction, _OnArrays,
                             frame_reconstruction_defect, inner_product,
                             norm_two)
from ratdyn.measure import WeightedCloud, convergence_diagnostic
from ratdyn.ratmap import (RationalMap, _chunks, _expand_level, _fiber_rows,
                          _fiber_table)
from ratdyn.registry import get, list_examples
from ratdyn.transfer import (ProductFunction, TestFunction, alpha, h_op,
                             kms_defect, kms_iterate, lemma31_defect,
                             transfer_E)

DROP = RationalMap([1, 0, 0, 1], [0, -1, 0, 2])   # R(infinity) = 1/2
LATTES = RationalMap([1, 0, 2, 0, 1], [0, -4, 0, 4])
T3 = get("tchebychev_n").map
MAPS = [get(name).map for name in list_examples()] + [DROP]


def bits(x):
    x = np.ascontiguousarray(x)
    return x.view(np.uint64).tolist() if x.dtype.kind in "fc" else x.tolist()


def _ref_row_roots(f, s=None, eigvals=False):
    """`_row_roots` in its plain form: one rescaling decision per batch.
    With eigvals, d = 3 and d = 4 rows take the companion eigenvalues, as
    every d >= 3 row did before the closed forms."""
    m, d = f.shape[0], f.shape[1] - 1
    g, size, e = f, (np.abs(f) if s is None else s), None
    if d == 1:
        with np.errstate(over="ignore", invalid="ignore"):
            u = -f[:, :1] / f[:, 1:]
    elif d == 2:
        c0, c1, c2 = f[:, 0], f[:, 1], f[:, 2]
        with np.errstate(over="ignore", invalid="ignore"):
            sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
            sq = np.where(c1.real * sq.real + c1.imag * sq.imag < 0.0, -sq, sq)
            q = -0.5 * (c1 + sq)
            qz = q == 0
            u = np.empty((m, 2), dtype=complex)
            u[:, 0] = q / c2
            u[:, 1] = np.where(qz, 0j, c0 / np.where(qz, 1.0, q))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            g, size = f / f[:, -1:], size / np.abs(f[:, -1:])
        top = np.abs(g[:, :-1]).max(axis=1)
        if np.any((top > _UNBALANCED) | ((top < 1 / _UNBALANCED) & (top > 0))):
            with np.errstate(divide="ignore"):
                bound = np.max(np.log2(np.abs(g[:, :-1]))
                               / np.arange(d, 0, -1), axis=1)
            e = np.where(np.isfinite(bound), np.round(bound), 0).astype(int)
            power = e[:, None] * (np.arange(d + 1) - d)
            g, size = _ldexp(g, power), _ldexp(size, power)
        if d <= 4 and not eigvals:
            with np.errstate(all="ignore"):
                u = _closed_roots([g[:, k] for k in range(d)])
        else:
            comp = np.zeros((m, d, d), dtype=complex)
            comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
            comp[:, :, -1] = -g[:, :-1]
            u = np.linalg.eigvals(comp)
    if d == 1:
        return u, None
    i, j = _pairs(d)
    if d == 2:
        a1, a2 = np.abs(u[:, 0]), np.abs(u[:, 1])
        mag = (2.0 * size[:, 0] + size[:, 1] * (a1 + a2)
               + size[:, 2] * (a1 * a1 + a2 * a2))
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
    if e is not None:
        u = _ldexp(u, e[:, None])
    return u, label


def _cluster_rows(roots, label):
    """Each row's distinct roots with multiplicities, sorted by row and
    then by (re, im): (centers, counts, row), `_merge_runs` of
    `_sort_rows`, as `roots_with_multiplicity` reads one row."""
    d = roots.shape[1]
    roots, label = _sort_rows(roots, label)
    counts, row, centers = _merge_runs(label, d, roots)
    return centers, counts, row


def _root_table(values, root):
    """Node values grouped by root: row r holds root root[0] + r, in node
    order, padded with zeros to the widest root. Each root's nodes are
    contiguous and roots ascend, as in a forest level."""
    count = np.bincount(root - root[0])
    col = np.arange(root.size) - np.repeat(np.cumsum(count) - count, count)
    table = np.zeros((count.size, count.max()) + values.shape[1:],
                     dtype=values.dtype)
    table[root - root[0], col] = values
    return table


def _root_sums(values, root):
    """Sum of each root's node values, for roots root[0] .. root[-1],
    from 0 in node order (the grouped sums the row sums replace)."""
    if root[0] == root[-1]:   # one root: its nodes are the whole array
        return 0.0 + np.cumsum(values, axis=0)[-1:]
    return 0.0 + np.cumsum(_root_table(values, root), axis=1)[:, -1]


def _forest(R, pts, inf, n, node_budget=ratmap.NODE_BUDGET):
    """Yield (k, points, isinf, indices, root, leaf) per level: the
    distinct-point trees of many bases, one `_expand_level` call per
    level, as the sums read them before they read the leaves.

    root gives each node's base. leaf lists the level's nodes in leaf
    order: each node of the level above, once per leaf of it, hands down
    its sorted children, each repeated by its count. So leaf indexes the
    d^k leaves of each base in `ratmap._leaves` order without reading
    them. Bases go in groups, and the budget counts leaves, as there.
    """
    d = R.degree
    group = max(1, node_budget // d ** n)
    for lo in range(0, pts.size, group):
        z, f = pts[lo:lo + group], inf[lo:lo + group]
        idx = np.ones(z.size, dtype=np.int64)
        root = np.arange(lo, lo + z.size)
        leaf = np.arange(z.size)
        for k in range(1, n + 1):
            if leaf.size * d > node_budget:
                raise BudgetExceeded(
                    f"preimage tree would exceed {node_budget} nodes")
            z, f, cc, par = _expand_level(R, z, f)
            idx, root = cc * idx[par], root[par]
            # parents' children end to end are d entries per parent
            leaf = np.repeat(np.arange(z.size), cc).reshape(-1, d)[leaf]
            leaf = leaf.ravel()
            yield k, z, f, idx, root, leaf


class _Sums(NamedTuple):
    """A level's sums per base, both ways, and what tells them apart."""
    leaf: np.ndarray      # left to right over the leaves, in leaf order
    grouped: np.ndarray   # index * value over the distinct nodes
    tied: np.ndarray      # whether a node of the base has index above 1
    size: np.ndarray      # sum of index * |value|, the scale of rounding


def _level(terms, pts, isinf, idx, root, leaf, width):
    """`_Sums` of terms over one forest level, scaled by 1 / width."""
    v = terms(pts, isinf)
    scale = 1.0 / width
    return _Sums(_root_sums(v[leaf], root[leaf]) * scale,
                 _root_sums(idx * v, root) * scale,
                 _root_sums((idx > 1).astype(float), root) > 0,
                 _root_sums(idx * np.abs(v), root) * scale)


# the gap allowed between a row sum and the grouped sum of a tied base,
# relative to its size: the grouped sum adds a k-fold root's k a(x) as
# one term where the row adds k terms a(x)
TIED = 1e-15
# the same through eight KMS levels: T3 over its critical value 1 moves
# by 2.1e-15 of its size at depth 8, every other tied probe by less
# than 1e-16
KMS_TIED = 4e-15


def _assert_row_sums(got, leaf, grouped, tied, size, rel=TIED):
    """got equals the leaf-order sums bit for bit, and the grouped sums
    bit for bit where no node is tied and within rel * size where one
    is."""
    got, leaf, grouped = (np.atleast_1d(x) for x in (got, leaf, grouped))
    tied = np.atleast_1d(tied)
    assert bits(got) == bits(leaf)
    assert bits(got[~tied]) == bits(grouped[~tied])
    assert np.all(np.abs(got - grouped) <= rel * np.atleast_1d(size))


def _grouped_expand_level(R, pts, inf):
    """`_expand_level` without its common path: rows grouped by length."""
    f, s, n = _fiber_rows(R, pts, inf)
    d = R.degree
    if n is None:
        n = np.full(pts.size, d + 1)
    parts = []
    for k in np.unique(n):
        group = np.flatnonzero(n == k)
        for sl in _chunks(group.size, k - 1) if k > 1 else ():
            rows = group[sl]
            centers, counts, row = _cluster_rows(
                *_row_roots(f[rows, :k], s[rows, :k]))
            parts.append((centers, np.zeros(centers.size, dtype=bool),
                          counts, rows[row]))
        if k <= d:
            parts.append((np.zeros(group.size, dtype=complex),
                          np.ones(group.size, dtype=bool),
                          np.full(group.size, d + 1 - k), group))
    cp, cn, cc, par = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(par, kind="stable")
    return cp[order], cn[order], cc[order], par[order]


def _bases(R, m, rng, infinity):
    """m bases: standard normal, a few beyond the unit circle, at R(oo)
    and with -0 parts; with infinity, every fifth base at infinity."""
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    z[::7] *= 40.0
    z[3::11] = complex(-0.0, 0.5)
    z[5::13] = complex(0.25, -0.0)
    w = ratmap.value_at_infinity(R)
    if not w.is_infinity:
        z[2::9] = w.z
    inf = np.zeros(m, dtype=bool)
    if infinity:
        inf[1::5] = True
        z[inf] = 0j
    return z, inf


# ---------------------------------------------------------------------------
# the row solve
# ---------------------------------------------------------------------------

_POOL = [0.5, -1.0, 0.3 + 0.2j, 1j, -0.7 - 0.4j, 0.0]


@st.composite
def _row_batches(draw):
    d = draw(st.integers(1, 5))
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["random", "tied", "zero"]))
        if kind == "tied":   # roots from a small pool: exact repeats
            roots = [draw(st.sampled_from(_POOL)) for _ in range(d)]
            c = np.array([1.0 + 0j])
            for x in roots:
                c = np.convolve(c, [-x, 1.0])
        else:
            c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        if kind == "zero":   # a k-fold root at 0; q == 0 for d = k = 2
            c[:draw(st.integers(1, d))] = 0.0
        rows.append(c.astype(complex))
    f = np.array(rows)
    s = None
    if draw(st.booleans()):
        s = np.abs(f) * (1.0 + rng.uniform(0.0, 3.0, f.shape))
    return f, s


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_row_batches())
def test_row_roots_match_the_plain_form(batch):
    f, s = batch
    try:
        want = _ref_row_roots(f, s)
    except NonConvergence:
        return
    got = _row_roots(f, s)
    assert bits(got[0]) == bits(want[0])
    if want[1] is None:
        assert got[1] is None
    else:
        assert got[1].tolist() == want[1].tolist()


@pytest.mark.parametrize("R,near", [
    (DROP, 0.5 + 1e-10), (DROP, 0.5 + 3e-11j), (LATTES, 1e11 + 0j),
    (get("tchebychev_n").map, -2e11 + 1e11j)])
def test_row_roots_rescale_row_by_row(R, near):
    # one base near R(oo) puts a monic coefficient above _UNBALANCED; the
    # ordinary rows beside it keep the bits they have alone
    z = np.array([0.3 + 0.1j, near, -0.7 + 0.4j, 1.3 - 0.2j, 2.5j])
    f, s, n = _fiber_rows(R, z, np.zeros(z.size, dtype=bool))
    d = R.degree
    g = f[:, :d + 1] / f[:, d:d + 1]
    assert (np.abs(g).max(axis=1) > _UNBALANCED).tolist() == \
        [False, True, False, False, False]
    batch = _row_roots(f, s)
    for r in range(z.size):
        alone = _row_roots(f[r:r + 1], s[r:r + 1])
        assert bits(batch[0][r]) == bits(alone[0][0])
        if r != 1:
            plain = _ref_row_roots(f[r:r + 1], s[r:r + 1])
            assert bits(alone[0]) == bits(plain[0])
    # a batch that trips the bound everywhere solves as before
    wide = _ref_row_roots(f[1:2], s[1:2])
    assert bits(_row_roots(f[1:2], s[1:2])[0]) == bits(wide[0])


# ---------------------------------------------------------------------------
# the closed forms against the companion eigenvalues and mpmath
# ---------------------------------------------------------------------------

USHIKI = get("ushiki_gasket").map   # (z^3 - 16/27) / z


def _critical_rows():
    """Fiber rows of T3 over +-1, Ushiki over its critical values
    (4/3) w^k, Lattes over 0 and +-1, and of bases 1e-15 to 1e-6 away
    from each, along the real and the imaginary axis."""
    cases = [(T3, [1, -1]),
             (USHIKI, [4 / 3 * np.exp(2j * np.pi * k / 3) for k in range(3)]),
             (LATTES, [0, 1, -1])]
    out = []
    for R, values in cases:
        z = np.array([v + dz for v in values
                      for dz in [0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-12j, 1e-6j]],
                     dtype=complex)
        f, s, n = _fiber_rows(R, z, np.zeros(z.size, dtype=bool))
        assert n is None
        out.append((f, s))
    return out


def _closed_form_rows():
    """(f, s) batches of d = 3 and d = 4 rows: random rows, rows above
    _UNBALANCED, z^3 and z^4 over 0 and the rows of `_critical_rows`."""
    rng = np.random.default_rng(26)
    out = [(rng.standard_normal((200, d + 1))
            + 1j * rng.standard_normal((200, d + 1)), None) for d in (3, 4)]
    for R in (T3, USHIKI, LATTES):
        z = np.array([1e11, -3e12 + 1e12j, 2e14j, 5e10])
        f, s, _ = _fiber_rows(R, z, np.zeros(z.size, dtype=bool))
        g = f / f[:, -1:]
        assert np.all(np.abs(g).max(axis=1) > _UNBALANCED)
        out.append((f, s))
    out += [(np.array([[0, 0, 0, 1]], dtype=complex), None),
            (np.array([[0, 0, 0, 0, 1]], dtype=complex), None)]
    return out + _spread_rows(rng) + _critical_rows()


def _spread_rows(rng):
    """d = 3 and d = 4 rows whose smallest root is 2^-4 to 2^-20 times
    their largest, on both sides of _SPREAD: the rows solved by the closed
    forms alone and the rows deflated by their largest root."""
    out = []
    for d in (3, 4):
        rows = []
        for e in (4, 6, 7, 8, 9, 10, 12, 16, 20):
            for _ in range(8):
                mod = np.exp(rng.uniform(-e * np.log(2), 0, d))
                mod[:2] = 1.0, 2.0 ** -e
                roots = mod * np.exp(2j * np.pi * rng.uniform(size=d))
                rows.append(np.poly(roots)[::-1] * 10.0 ** rng.uniform(-3, 3))
        f = np.array(rows)
        au = np.abs(_closed_roots([f[:, k] / f[:, -1] for k in range(d)]))
        far = au.min(axis=1) < _SPREAD * au.max(axis=1)
        assert 0 < np.count_nonzero(far) < far.size
        out.append((f, None))
    return out


CLOSED_ROWS = _closed_form_rows()
CLOSED_IDS = ["random3", "random4", "wide-t3", "wide-ushiki", "wide-lattes",
              "z3", "z4", "spread3", "spread4", "t3-crit", "ushiki-crit",
              "lattes-crit"]


def _radius(f, s, x):
    """The noise radius EPS * mag / |f'| of each root x[r, k] of row r of
    f (term sizes s), in f's own scale."""
    val, der, mag = _horner(f, np.abs(f) if s is None else s, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        return EPS * mag / np.abs(der)


def _same_clusters(f, s, got, want):
    """got and want list the same clusters: each of got's nearest to one
    of want's with the same count, the centres within 64 noise radii plus
    64 ulps (a merged centre, whose radius is infinite, within 1e-12 of
    its size)."""
    gc, gk, grow = _cluster_rows(*got)
    wc, wk, wrow = _cluster_rows(*want)
    assert grow.tolist() == wrow.tolist()
    rad = _radius(f[grow], None if s is None else s[grow], gc[:, None])[:, 0]
    for r in range(f.shape[0]):
        mine, theirs = np.flatnonzero(grow == r), np.flatnonzero(wrow == r)
        gap = np.abs(gc[mine, None] - wc[None, theirs])
        pick = theirs[gap.argmin(axis=1)]
        assert sorted(pick.tolist()) == theirs.tolist()
        assert gk[mine].tolist() == wk[pick].tolist()
        scale = np.maximum(np.abs(gc[mine]), np.abs(wc[pick]))
        tol = np.where(gk[mine] > 1, 1e-12 * scale,
                       64.0 * (rad[mine] + EPS * scale))
        assert np.all(np.abs(gc[mine] - wc[pick]) <= tol), r


@pytest.mark.parametrize("f,s", CLOSED_ROWS, ids=CLOSED_IDS)
def test_closed_forms_match_the_eigenvalues(f, s):
    # the closed forms and the companion eigenvalues, each followed by the
    # same Newton step and tie rule, find the same clusters: the tie
    # labels agree, and the roots agree within their noise
    got = _row_roots(f, s)
    want = _ref_row_roots(f, s, eigvals=True)
    assert (got[1] is None) == (want[1] is None)
    _same_clusters(f, s, got, want)


@pytest.mark.parametrize("f,s", CLOSED_ROWS, ids=CLOSED_IDS)
def test_closed_forms_match_mpmath(f, s):
    # every root within 64 noise radii (plus 64 ulps) of the 50-digit
    # root, and every multiple root within 1e-7 of its size: the centre
    # of a cluster split by a base 1e-15 off the critical value
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    roots, label = _row_roots(f, s)
    for r in range(f.shape[0]):
        exact = mpmath.polyroots([mpmath.mpc(c) for c in f[r, ::-1]],
                                 maxsteps=400, extraprec=400)
        exact = np.array([complex(x) for x in exact])
        rad = _radius(f[r:r + 1], None if s is None else s[r:r + 1],
                      roots[r:r + 1])[0]
        tied = (np.zeros(f.shape[1] - 1, dtype=bool) if label is None
                else np.bincount(label[r], minlength=label.shape[1])[
                    label[r]] > 1)
        for x, rr, t in zip(roots[r], rad, tied):
            gap = np.min(np.abs(exact - x))
            # 50 digits put a k-fold root at 0 about 1e-50 off
            assert gap <= (1e-7 * max(abs(x), 1e-30) if t
                           else 64.0 * (rr + EPS * abs(x))), (r, x, gap)


def test_far_roots_are_found_or_refused():
    # four roots over 80 orders of magnitude: the right roots or a
    # NonConvergence, never a silent miss; three roots over 60 orders
    # solve, as they did by the companion eigenvalues
    for roots in ([1e-40, 1e40, 1.0, 2.0], [1e-30, 1.0, 1e30]):
        c = np.array([1.0 + 0j])
        for x in roots:
            c = np.convolve(c, [-x, 1.0])
        try:
            rs = roots_with_multiplicity(c)
        except NonConvergence:
            assert len(roots) == 4
            continue
        got = sorted(p.z.real for p in rs.points())
        assert rs.multiplicities() == [1] * len(roots)
        assert np.allclose(got, sorted(roots), rtol=1e-12, atol=0.0)
        assert max(abs(p.z.imag) / abs(p.z) for p in rs.points()) < 1e-12


@pytest.mark.parametrize("big,small", [
    ([-1.0], [1e-85, -1e-85]),
    ([-1.0], 1e-100 * np.exp(2j * np.pi * np.arange(3) / 3)),
    ([-1e-20], 1e-77 * np.exp(2j * np.pi * np.arange(3) / 3)),
    ([-1.0, 2.0], [1e-120, -3e-121j])])
def test_spread_rows_with_tiny_roots_solve(big, small):
    # a row deflated by its largest root leaves a quotient whose roots may
    # be any amount smaller: it is solved at its own scale, so its roots
    # come out to full relative accuracy, far below where squaring them
    # underflows
    c = np.array([1.0 + 0j])
    for x in [*big, *small]:
        c = np.convolve(c, [-x, 1.0])
    rs = roots_with_multiplicity(c)
    assert rs.multiplicities() == [1] * (c.size - 1)
    got = np.array([p.z for p in rs.points()])
    for x in [*big, *small]:
        assert np.min(np.abs(got - x)) <= 1e-12 * abs(x)


def test_missed_roots_include_non_finite_residuals():
    # the far-root gate: a residual above 1e-3 of its Horner magnitude, a
    # NaN residual and an overflowed Horner sum all count as missed roots
    val = np.array([1e-4, 2e-3, np.nan, np.inf, 1.0])
    mag = np.array([1.0, 1.0, 1.0, np.inf, np.inf])
    assert _missed(val, mag).tolist() == [False, True, True, True, True]


def test_values_at_matches_the_complex_loop():
    # a plain callable's values are complex(f(p)) bit for bit, whatever
    # scalar type it returns
    mpmath = pytest.importorskip("mpmath")
    z = np.array([0.3 - 0.2j, -1.5, 0j, 2.5e100, complex(-0.0, 1e-310),
                  1e-5j])
    isinf = np.array([False, False, False, False, False, True])
    pts = _PointSet(z, isinf)
    fns = [lambda p: p.z ** 3, lambda p: p.z.real, lambda p: 7,
           lambda p: p.is_infinity, lambda p: np.float64(p.z.imag),
           lambda p: np.complex128(p.z) * 1j, lambda p: np.float32(1.1),
           lambda p: np.int64(-3), lambda p: mpmath.mpf(p.z.real) / 3,
           lambda p: mpmath.mpc(p.z) ** 2 + mpmath.mpf("1e-20")]
    for f in fns:
        want = np.array([complex(f(p)) for p in pts._points], dtype=complex)
        for got in (_values_at(f, z, isinf), _values_at(f, z, isinf, pts)):
            assert got.dtype == want.dtype and bits(got) == bits(want)


def test_slotted_sphere_points_behave_as_before():
    # slotted points keep their equality, hash, repr, pickling and
    # frozenness, and the points a point set fills in equal the checked
    # constructors' points
    import copy
    import dataclasses
    import pickle
    z = np.array([0.25 - 1e300j, complex(-0.0, -0.0), 0j, 3.0])
    isinf = np.array([False, False, True, False])
    built = _PointSet(z, isinf)._points
    plain = [SpherePoint.finite(z[0]), SpherePoint.finite(z[1]),
             SpherePoint.infinity(), SpherePoint(3.0)]
    for p, q in zip(built, plain):
        assert type(p) is SpherePoint and p == q and hash(p) == hash(q)
        assert repr(p) == repr(q)
        assert bits(np.array([p.z])) == bits(np.array([q.z]))
        assert p.is_infinity is q.is_infinity
        for back in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert back == p and hash(back) == hash(p)
            assert bits(np.array([back.z])) == bits(np.array([p.z]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.z = 1j
        assert not hasattr(p, "__dict__")
    assert SpherePoint(1) != SpherePoint(1, True)
    assert SpherePoint(2j) == SpherePoint.from_value(2j)
    assert len({SpherePoint(1), SpherePoint(1.0 + 0j)}) == 1


# ---------------------------------------------------------------------------
# the fiber solver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("infinity", [False, True])
@pytest.mark.parametrize("m", [1, 8, 64, 4096])
def test_expand_level_common_path_matches_the_groups(monkeypatch, m,
                                                     infinity):
    rng = np.random.default_rng(m)
    for R in MAPS:
        z, inf = _bases(R, m, rng, infinity)
        got = _expand_level(R, z, inf)
        want = _grouped_expand_level(R, z, inf)
        with monkeypatch.context() as mp:
            # a work cap of one row per chunk sends every batch of more
            # than one row through the grouped path
            mp.setattr(ratmap, "_WORK_ENTRIES", 1)
            capped = _expand_level(R, z, inf)
        for other in (want, capped):
            for a, b in zip(got, other):
                assert a.dtype == b.dtype
                assert bits(a) == bits(b)


def _table_bases(R, rng):
    """Random bases mixed with Lattes' critical values 0, 1, -1 and
    infinity and with R(infinity), where the fiber polynomial drops."""
    z, inf = _bases(R, 40, rng, True)
    extra = np.array([0j, 1 + 0j, -1 + 0j, 0j, 0.5 + 0j])
    return (np.concatenate([z, extra]),
            np.concatenate([inf, [False, False, False, True, False]]))


@pytest.mark.parametrize("capped", [False, True])
@pytest.mark.parametrize("R", [LATTES, DROP, get("tchebychev_n").map,
                               RationalMap([1, 1], [0, 0, 0, 1])])
def test_fiber_table_rows_are_the_row_solve(monkeypatch, R, capped):
    # full-length rows hold `_row_roots`' roots and labels bit for bit; a
    # row of length n holds its shorter polynomial's roots, then d + 1 - n
    # entries at infinity (value 0) that form one cluster
    z, inf = _table_bases(R, np.random.default_rng(3))
    if capped:   # one row per chunk: every row of the table goes alone
        monkeypatch.setattr(ratmap, "_WORK_ENTRIES", 1)
    roots, isinf, label = _fiber_table(R, z, inf)
    f, s, n = _fiber_rows(R, z, inf)
    d = R.degree
    n = np.full(z.size, d + 1) if n is None else n
    assert roots.shape == (z.size, d)
    assert isinf is not None and isinf.any()   # every batch has a drop
    label = np.tile(np.arange(d), (z.size, 1)) if label is None else label
    full = np.flatnonzero(n == d + 1)
    want, tie = _row_roots(f[full], s[full])
    assert bits(roots[full]) == bits(want)
    assert not isinf[full].any()
    tie = np.tile(np.arange(d), (full.size, 1)) if tie is None else tie
    assert label[full].tolist() == tie.tolist()
    for r in np.flatnonzero(n <= d):
        k = n[r]
        assert isinf[r].tolist() == [c >= k - 1 for c in range(d)]
        assert bits(roots[r, k - 1:]) == bits(np.zeros(d + 1 - k, complex))
        assert label[r, k - 1:].tolist() == [k - 1] * (d + 1 - k)
        if k > 1:
            alone, tie = _row_roots(f[r:r + 1, :k], s[r:r + 1, :k])
            assert bits(roots[r, :k - 1]) == bits(alone[0])
            if tie is not None:
                assert label[r, :k - 1].tolist() == tie[0].tolist()


def test_fiber_table_lists_a_point_by_its_index():
    # R = (z + 1)/z^3 over 0: -1 once and infinity, of index 2, twice
    R = RationalMap([1, 1], [0, 0, 0, 1])
    roots, isinf, label = _fiber_table(R, np.array([0j]), np.array([False]))
    assert bits(roots) == bits(np.array([[-1 + 0j, 0j, 0j]]))
    assert isinf.tolist() == [[False, True, True]]
    assert label.tolist() == [[0, 1, 1]]
    pts, pinf, counts, _ = _expand_level(R, np.array([0j]),
                                         np.array([False]))
    assert pts.tolist() == [-1, 0] and pinf.tolist() == [False, True]
    assert counts.tolist() == [1, 2]


def test_only_ratmap_and_numkernel_decide_how_fibers_are_solved():
    # every other module reaches fibers through the fiber table or the
    # fiber solver, never through the row solve, the rows or the chunking
    import ast
    import pathlib
    import ratdyn
    hidden = {"_row_roots", "_fiber_rows", "_chunks"}
    users = set()
    for path in pathlib.Path(ratdyn.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names.add(node.name)
            if names & hidden:
                users.add(path.stem)
    assert users == {"ratmap", "numkernel"}


# ---------------------------------------------------------------------------
# test-function powers
# ---------------------------------------------------------------------------

def test_power_table_matches_power():
    # the columns set directly and the ones the power forms, at zeros of
    # either sign, infinities, NaN and the ends of the range
    inf = math.inf
    parts = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300, 5e-324, 3.7, 1e150,
             -1e200, inf, -inf, math.nan]
    z = np.array([complex(a, b) for a in parts for b in parts])
    rng = np.random.default_rng(2)
    z = np.concatenate([z, (rng.standard_normal(2000)
                            + 1j * rng.standard_normal(2000))
                        * np.exp(rng.uniform(-40.0, 40.0, 2000))])
    for j in range(1, 9):
        for x in (z, np.conj(z)):
            with np.errstate(over="ignore", invalid="ignore",
                             under="ignore"):
                got = transfer._powers(x, np.arange(j))
                want = x[:, None] ** np.arange(j)
            assert bits(got) == bits(want)
    a = TestFunction.from_table({(0, 0): 0.5, (1, 0): 2.0, (2, 1): 0.25j,
                                 (0, 3): -1.5, (4, 2): 0.125})
    zz = z[np.abs(z) < 10.0]
    j, k = a.coeffs.shape
    want = np.einsum("nj,jk,nk->n", zz[:, None] ** np.arange(j), a.coeffs,
                     np.conj(zz)[:, None] ** np.arange(k))
    assert bits(a.at(zz, np.zeros(zz.size, dtype=bool))) == bits(want)


# ---------------------------------------------------------------------------
# KMS: one forest against the trace forest plus a separate Lyubich forest
# ---------------------------------------------------------------------------

def _two_forest_kms(R, a, n, probes, lyubich_budget, node_budget):
    """The trace levels and the Lyubich value, each forest built apart
    and summed both ways (`_level`): `_Sums` with a row per level, and
    the Lyubich value's `_Sums`. A holomorphic table takes the node
    rule: level k sums h(a) (`ratmap._fiber_power_sums`) over the
    depth-(k - 1) nodes, the forest's level above."""
    z = np.array([complex(p) for p in probes])
    isinf = np.zeros(z.size, dtype=bool)
    d = R.degree
    terms, node_rule = a.at, not a.coeffs[:, 1:].any()
    if node_rule:
        def terms(p, q):
            return ratmap._fiber_power_sums(R, p, q, a.coeffs[:, 0], a.at)

    def levels(bases, depth, budget=ratmap.NODE_BUDGET):
        """(k, level summed for k) for k = 1..depth, groups in turn."""
        above = None
        for k, *level in _forest(R, z[bases], isinf[bases], depth, budget):
            if k == 1:   # a group's bases, as a depth-0 level
                root = np.unique(level[3])
                above = [z[root], isinf[root], np.ones(root.size, np.int64),
                         root, np.arange(root.size)]
            yield k, (above if node_rule else level)
            above = level

    vals = np.zeros((4, n + 1, z.size), dtype=complex)
    vals[0, 0] = vals[1, 0] = a.at(z, isinf)
    vals[3, 0] = np.abs(vals[0, 0])
    for k, level in levels(slice(None), n, node_budget):
        first = level[3][0]
        for row, got in zip(vals, _level(terms, *level, d ** k)):
            row[k, first:first + got.size] = got
    depth = max(1, int(math.floor(math.log(lyubich_budget) / math.log(d))))
    for _, level in levels(slice(0, 1), depth):
        pass
    lyu = _level(terms, *level, d ** depth)
    return (_Sums(vals[0], vals[1], vals[2].real > 0, vals[3].real),
            _Sums(*(x[0] for x in lyu)))


@pytest.mark.parametrize("R,probes,budget", [
    (RationalMap([0, 0, 1]), [0.9 + 0.3j, -1.1 + 0.2j, 0.4j], 256),
    # the first probe a critical value: its nodes carry index 2 onward
    (RationalMap([0.2, 0, 1]), [0.2, 1.2, -0.6 + 0.1j], 64),
    (get("tchebychev_n").map, [1.0, -0.8 + 0.1j, 0.55j], 100),
    (LATTES, [0.3 + 0.1j, 1e11 + 0j, -0.7 + 0.4j], 300),
    (DROP, [0.3 + 0.1j, 0.5 + 1e-10, -0.7 + 0.4j], 100),
])
@pytest.mark.parametrize("n", [0, 1, 3, 4, 8])
@pytest.mark.parametrize("split", [False, True])
def test_kms_one_forest_matches_two(monkeypatch, R, probes, budget, n,
                                    split):
    # levels below, at and beyond the Lyubich depth (8 for z^2, 6 for
    # z^2 + 0.2, 4 for the rest); with split, a node budget of 40 splits
    # the trace forest into several groups
    rng = np.random.default_rng(4)
    probes = probes + list(0.8 * rng.standard_normal(5)
                           + 0.8j * rng.standard_normal(5))
    node_budget = ratmap.NODE_BUDGET
    if split:
        node_budget = 40

        def leaves(*args, **kw):
            return ratmap._leaves(*args, node_budget=40, **kw)
        monkeypatch.setattr(transfer, "_leaves", leaves)
    a = TestFunction.from_table({(0, 0): 0.5, (1, 0): 1.0, (1, 1): 0.25,
                                 (0, 2): 0.125j})
    if R is LATTES or R is DROP:
        a = TestFunction.monomial(1)
    try:
        levels, lyu = _two_forest_kms(R, a, n, probes, budget, node_budget)
    except BudgetExceeded:   # a trace tree alone exceeds the budget
        with pytest.raises(BudgetExceeded):
            kms_iterate(R, a, n, probes, lyubich_budget=budget)
        return
    run = kms_iterate(R, a, n, probes, lyubich_budget=budget)
    assert len(run.traces) == n + 1
    for k, t in enumerate(run.traces):
        _assert_row_sums(np.array(t.values), *(x[k] for x in levels),
                         rel=KMS_TIED)
    _assert_row_sums(run.lyubich_value, *lyu, rel=KMS_TIED)


def test_kms_lyubich_tree_keeps_its_node_budget(monkeypatch):
    # the first probe's tree to the Lyubich depth counts against the node
    # budget as one tree, as when it was expanded alone
    z2 = RationalMap([0, 0, 1])
    monkeypatch.setattr(transfer, "NODE_BUDGET", 100)
    a = TestFunction.monomial(1)
    kms_iterate(z2, a, 2, [0.9 + 0.3j, -0.4j], lyubich_budget=64)
    with pytest.raises(BudgetExceeded, match="100 nodes"):
        kms_iterate(z2, a, 2, [0.9 + 0.3j, -0.4j], lyubich_budget=256)


# ---------------------------------------------------------------------------
# operators: row sums over the leaves against the grouped sums over the
# forest, bit for bit on bases whose trees hold no tie
# ---------------------------------------------------------------------------

Z2 = RationalMap([0, 0, 1])
POLE3 = RationalMap([1, 1], [0, 0, 0, 1])   # (z + 1)/z^3, R(oo) = 0


def _sphere_fn(seed):
    """A complex function of the sphere coordinates: smooth everywhere,
    infinity included, so it can be summed over drop rows."""
    c = np.random.default_rng(seed).standard_normal((2, 3))

    def at(z, isinf):
        e = sphere_embed(z, isinf)
        return 1.5 + e @ c[0] + 1j * ((e * e) @ c[1])
    return _OnArrays(at)


def _grouped(R, z, isinf, k, terms):
    """`_Sums` per base over the depth-k forest level, groups joined."""
    parts = [_level(terms, *level, 1)
             for j, *level in _forest(R, z, isinf, k) if j == k]
    return _Sums(*(np.concatenate(x) for x in zip(*parts)))


def _both(f, *sums):
    """f of the leaf-order sums and f of the grouped sums."""
    return f(*(x.leaf for x in sums)), f(*(x.grouped for x in sums))


def _sum_cases():
    """(R, bases) pairs: random bases with R(oo), -0 parts and infinity
    (`_bases`), and the critical values where the fibers are tied."""
    rng = np.random.default_rng(8)
    cases = [(R, _bases(R, 12, rng, True)) for R in
             (Z2, RationalMap([0.2, 0, 1]), T3, get("ushiki_gasket").map,
              LATTES, POLE3)]
    for R, w in ((T3, [1, -1]), (LATTES, [0, 1, -1, math.inf]), (Z2, [0])):
        cases.append((R, _as_arrays(np.array(w, dtype=complex))))
    return cases


SUM_CASES = _sum_cases()
SUM_IDS = ["z2", "z2+0.2", "t3", "ushiki", "lattes", "pole3",
           "t3-tied", "lattes-tied", "z2-tied"]


@pytest.mark.parametrize("R,bases", SUM_CASES, ids=SUM_IDS)
def test_fiber_operators_match_the_grouped_sums(R, bases):
    z, isinf = bases
    d = R.degree
    a, b = _sphere_fn(1), _sphere_fn(2)
    ref = _grouped(R, z, isinf, 1, a.at)
    for j in range(z.size):
        y = SpherePoint.infinity() if isinf[j] else SpherePoint(z[j])
        want = [complex(x[j]) / d for x in ref[:2]]
        _assert_row_sums(transfer_E(R, a, y), *want, ref.tied[j],
                         ref.size[j] / d)
        _assert_row_sums(h_op(R, a, y), *(d * w for w in want), ref.tied[j],
                         ref.size[j])
    # E(alpha(a) b) - a E(b) and E(alpha(a)) - a
    ay = a.at(z, isinf)
    ab = _grouped(R, z, isinf, 1, ProductFunction(alpha(R, a), b).at)
    eb = _grouped(R, z, isinf, 1, b.at)
    ea = _grouped(R, z, isinf, 1, alpha(R, a).at)
    e = 1.0 / d

    def lemma31(ab, eb, ea):
        return float(max(np.max(np.abs(ab * e - ay * (eb * e))),
                         np.max(np.abs(ea * e - ay))))
    size = np.max(ab.size + np.abs(ay) * eb.size + ea.size) * e
    _assert_row_sums(lemma31_defect(R, a, b, _PointSet(z, isinf)),
                     *_both(lemma31, ab, eb, ea), ref.tied.any(), size)
    # kms_defect off beta, with weights from the bases
    w = np.linspace(1.0, 2.0, z.size)
    cloud = WeightedCloud.from_arrays(z, isinf, w / w.sum(), ("test",))
    beta = math.log(d) + 0.1
    scale = math.exp(-beta)
    hs = [_grouped(R, z, isinf, 1, f.at) for f in (a, b)]

    def defect(*sums):
        return max(abs(complex(np.sum(cloud.w * (h * scale)))
                       - complex(np.sum(cloud.w * f.at(z, isinf))))
                   for h, f in zip(sums, (a, b)))
    size = float(np.sum(cloud.w * (hs[0].size + hs[1].size)))
    _assert_row_sums(kms_defect(R, cloud, [a, b], beta), *_both(defect, *hs),
                     ref.tied.any(), size)


@pytest.mark.parametrize("R,bases", SUM_CASES, ids=SUM_IDS)
@pytest.mark.parametrize("n", [1, 3])
def test_depth_sums_match_the_grouped_sums(R, bases, n):
    z, isinf = bases
    f, g = GraphFunction(n, _sphere_fn(3)), GraphFunction(n, _sphere_fn(4))
    # inner products and the module norm
    want = _grouped(R, z, isinf, n,
                    lambda p, q: np.conj(f.at(p, q)) * g.at(p, q))
    for j in range(z.size):
        y = SpherePoint.infinity() if isinf[j] else SpherePoint(z[j])
        _assert_row_sums(inner_product(R, n, f, g, y),
                         *(x[j] for x in want))
    # conj(f) f, as norm_two adds it: |f|^2 through np.abs rounds apart
    ff = _grouped(R, z, isinf, n,
                  lambda p, q: np.conj(f.at(p, q)) * f.at(p, q))

    def norm(v):
        return float(np.max(np.sqrt(np.maximum(v.real, 0))))
    _assert_row_sums(norm_two(R, n, f, _PointSet(z, isinf)),
                     *_both(norm, ff), ff.tied.any(),
                     np.max(np.sqrt(ff.size)))
    # the normalized function x -> g(x) / sqrt(sum of e g^2 w over the
    # fiber of R^n(x)), taken at the distinct depth-n preimages of the bases
    x, xinf = next(level for k, *level in _forest(R, z, isinf, n)
                   if k == n)[:2]
    weight = _sphere_fn(5)
    got = bimodule._normalized(R, n, g, weight, "u").at(x, xinf)
    y, yinf = x, xinf
    for _ in range(n):
        y, yinf = ratmap._evaluate_arrays(R, y, yinf)

    def terms(p, q):
        gv = g.at(p, q).real
        return gv * gv * weight.at(p, q).real
    want = _grouped(R, y, yinf, n, terms)
    gx = g.at(x, xinf)
    # g / sqrt(b) moves by |g| |db| / (2 b^1.5) when b moves by db
    _assert_row_sums(got, *_both(lambda b: gx / np.sqrt(b.real), want),
                     want.tied, np.abs(gx) * want.size
                     / np.abs(want.grouped) ** 1.5)


@pytest.mark.parametrize("R,bases", SUM_CASES, ids=SUM_IDS)
def test_diagnostics_and_frames_match_the_grouped_sums(R, bases):
    z, isinf = bases
    d = R.degree
    tests = [_sphere_fn(6), _sphere_fn(7)]
    first, last = 0, z.size - 1
    y = SpherePoint.infinity() if isinf[first] else SpherePoint(z[first])
    y2 = SpherePoint.infinity() if isinf[last] else SpherePoint(z[last])
    n = 3
    got = convergence_diagnostic(R, y, n, tests, y2)
    seqs = []
    for base in (first, last):
        zz, ii = z[base:base + 1], isinf[base:base + 1]
        seqs.append([])
        for t in tests:
            v = t.at(zz, ii)
            levels = [_Sums(v, v, np.zeros(1, bool), np.abs(v))]
            for k in range(1, n + 1):   # the level means, as the code scales
                lv, m = _grouped(R, zz, ii, k, t.at), 1.0 / d ** k
                levels.append(_Sums(lv.leaf * m, lv.grouped * m, lv.tied,
                                    lv.size * m))
            seqs[-1].append(levels)
    records = iter(got)
    for seq in seqs[0]:
        for k in range(n):
            lo, hi = seq[k], seq[k + 1]
            _assert_row_sums(next(records)["gap"],
                             *_both(lambda u, v: abs(v[0] - u[0]), lo, hi),
                             lo.tied[0] or hi.tied[0], lo.size[0] + hi.size[0])
    for seq, other in zip(seqs[0], seqs[1]):
        lo, hi = seq[n], other[n]
        _assert_row_sums(next(records)["gap"],
                         *_both(lambda u, v: abs(u[0] - v[0]), lo, hi),
                         lo.tied[0] or hi.tied[0], lo.size[0] + hi.size[0])
    # frame reconstruction at the preimages of the bases, summed over the
    # fibers of their images: any arity-1 members will do
    x, xinf = _expand_level(R, z, isinf)[:2]
    members = tuple(GraphFunction(1, _sphere_fn(s)) for s in (8, 9))
    frame = Frame(members, (), 0j, 0)
    f = GraphFunction(1, _sphere_fn(10))
    y, yinf = ratmap._evaluate_arrays(R, x, xinf)
    ips = [_grouped(R, y, yinf, 1, lambda p, q, u=u: np.conj(u.at(p, q))
                    * f.at(p, q)) for u in members]

    def defect(*ips):
        total = np.zeros(x.size, dtype=complex)
        for u, ip in zip(members, ips):
            total = total + u.at(x, xinf) * ip
        return float(np.max(np.abs(total - f.at(x, xinf))))
    size = sum(np.abs(u.at(x, xinf)) * ip.size for u, ip in zip(members, ips))
    _assert_row_sums(frame_reconstruction_defect(R, frame, f,
                                                 _PointSet(x, xinf)),
                     *_both(defect, *ips), ips[0].tied.any(), np.max(size))


@pytest.mark.parametrize("R", [Z2, RationalMap([0.2, 0, 1])],
                         ids=["z2", "z2+0.2"])
def test_witness_tables_match_the_grouped_sums(R):
    from ratdyn.julia import sample_inverse_iteration
    cloud = sample_inverse_iteration(R, 0.9 + 0.3j, count=1000, seed=2)
    a = TestFunction.from_table({(0, 0): 2.0, (1, 0): 0.25, (0, 1): 0.25})
    eps = 0.2
    probes = cloud.points[::50]
    n, g, rep, _ = bimodule._witness(R, a, eps, cloud, probes,
                                     bimodule.EXPANSION_BUDGET)
    _, urep = bimodule.normalized_witness(R, a, eps, cloud, probe_ys=probes)
    pz, pinf = _as_arrays(probes)
    parts = [level for k, *level in _forest(R, pz, pinf, n) if k == n]
    pts, inf, idx, root, _ = (np.concatenate(x) for x in zip(*parts))
    e = idx.astype(float)
    gv, av = g.at(pts, inf), a.at(pts, inf).real
    w = e * (gv * gv)
    b = _root_sums(w, root)
    ff, faf = _root_sums(w / b[root], root), _root_sums(w * av / b[root], root)
    uv = gv / np.sqrt(_root_sums(e * (gv * gv) * av, root))[root]
    e_uu = e * (uv * uv)
    uau, uu = _root_sums(e_uu * av, root), _root_sums(e_uu, root)
    assert (idx == 1).all()   # Julia-set probes: no tie, so the same bits
    want = {"ff_min": ff.min(), "ff_max": ff.max(), "faf_min": faf.min(),
            "faf_max": faf.max(), "uau_min": uau.min(), "uau_max": uau.max(),
            "norm_two_u": math.sqrt(max(float(uu.max()), 0.0))}
    for key, v in want.items():
        assert bits(np.array([urep[key]])) == bits(np.array([float(v)]))
    assert urep["n"] == rep["n"] == n


def test_leaves_count_every_index_against_the_budget():
    # a base on an exceptional point keeps one distinct node per level,
    # but its leaves double: z^2 over 0 is refused past depth 19
    f = GraphFunction(19, TestFunction.from_table({(0, 0): 1.0, (1, 0): 1.0}))
    assert inner_product(Z2, 19, f, f, 0j) == 2 ** 19
    g = GraphFunction(20, f.body)
    with pytest.raises(BudgetExceeded, match="1000000 nodes"):
        inner_product(Z2, 20, g, g, 0j)
    # its distinct-point tree keeps its one node per level
    assert [idx.tolist() for *_, idx in ratmap.tree_levels(Z2, 0j, 40)] \
        == [[2 ** k] for k in range(1, 41)]


# ---------------------------------------------------------------------------
# per-map caches and start-up
# ---------------------------------------------------------------------------

def test_critical_points_are_computed_once_per_map(monkeypatch):
    R = RationalMap([1, 0, 2, 0, 1], [0, -4, 0, 4])
    first = ratmap.critical_points(R)
    calls = []
    monkeypatch.setattr(ratmap, "roots_with_multiplicity",
                        lambda *a: calls.append(a))
    again = ratmap.critical_points(R)
    assert not calls
    assert again == first and again is not first
    again.clear()   # a caller's list is its own
    assert ratmap.critical_points(R) == first
    assert not calls


def test_cli_import_leaves_scipy_out():
    code = "import sys, ratdyn.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "False"
