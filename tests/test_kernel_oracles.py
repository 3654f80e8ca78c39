"""The lean fiber-kernel paths against the routes they replace, bit for bit.

The references below are the straightforward forms of the row solve, the
grouped fiber solver, the power table and the two-forest KMS run. Every
comparison is on float bits (`view(np.uint64)`).
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratdyn import ratmap, transfer
from ratdyn.errors import BudgetExceeded, NonConvergence
from ratdyn.measure import _level_sums
from ratdyn.numkernel import (
    EPS,
    LINK,
    _UNBALANCED,
    _cluster_rows,
    _horner,
    _ldexp,
    _pairs,
    _row_roots,
    _tie,
)
from ratdyn.ratmap import (RationalMap, _chunks, _expand_level, _fiber_rows,
                          _fiber_table)
from ratdyn.registry import get, list_examples
from ratdyn.transfer import TestFunction, kms_iterate

DROP = RationalMap([1, 0, 0, 1], [0, -1, 0, 2])   # R(infinity) = 1/2
LATTES = RationalMap([1, 0, 2, 0, 1], [0, -4, 0, 4])
MAPS = [get(name).map for name in list_examples()] + [DROP]


def bits(x):
    x = np.ascontiguousarray(x)
    return x.view(np.uint64).tolist() if x.dtype.kind in "fc" else x.tolist()


def _ref_row_roots(f, s=None):
    """`_row_roots` in its plain form: one rescaling decision per batch."""
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
        if np.abs(g).max(initial=0.0) > _UNBALANCED:
            with np.errstate(divide="ignore"):
                bound = np.max(np.log2(np.abs(g[:, :-1]))
                               / np.arange(d, 0, -1), axis=1)
            e = np.where(np.isfinite(bound), np.round(bound), 0).astype(int)
            power = e[:, None] * (np.arange(d + 1) - d)
            g, size = _ldexp(g, power), _ldexp(size, power)
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
                got, want = transfer._powers(x, j), x[:, None] ** np.arange(j)
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

def _two_forest_kms(R, a, n, probes, lyubich_budget, forest):
    """The trace levels and the Lyubich value, each forest built apart."""
    z = np.array([complex(p) for p in probes])
    isinf = np.zeros(z.size, dtype=bool)
    d = R.degree
    vals = np.zeros((n + 1, z.size), dtype=complex)
    vals[0] = a.at(z, isinf)
    for k, *level in forest(R, z, isinf, n):
        sums = _level_sums(a, *level, 1.0 / d ** k)
        first = level[3][0]
        vals[k, first:first + sums.size] = sums
    depth = max(1, int(math.floor(math.log(lyubich_budget) / math.log(d))))
    for _, *level in ratmap._forest(R, z[:1], isinf[:1], depth):
        pass
    return vals, complex(_level_sums(a, *level, 1.0 / d ** depth)[0])


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
    forest = ratmap._forest
    if split:
        def forest(*args):
            return ratmap._forest(*args, node_budget=40)
        monkeypatch.setattr(transfer, "_forest", forest)
    a = TestFunction.from_table({(0, 0): 0.5, (1, 0): 1.0, (1, 1): 0.25,
                                 (0, 2): 0.125j})
    if R is LATTES or R is DROP:
        a = TestFunction.monomial(1)
    try:
        vals, lyu = _two_forest_kms(R, a, n, probes, budget, forest)
    except BudgetExceeded:   # a trace tree alone exceeds the budget
        with pytest.raises(BudgetExceeded):
            kms_iterate(R, a, n, probes, lyubich_budget=budget)
        return
    run = kms_iterate(R, a, n, probes, lyubich_budget=budget)
    assert len(run.traces) == n + 1
    for k, t in enumerate(run.traces):
        assert bits(np.array(t.values)) == bits(vals[k])
    assert bits(np.array([run.lyubich_value])) == bits(np.array([lyu]))


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
