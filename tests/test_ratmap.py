"""Branched-covering data: evaluation, fibers, indices, trees, iteration."""

import functools
import math

import numpy as np
import pytest

from ratdyn.errors import BudgetExceeded, CoprimalityError
from ratdyn.julia import backward_walk
from ratdyn.numkernel import SpherePoint, chordal_distance
from ratdyn.ratmap import (
    RationalMap,
    _depth_within,
    _expand_level,
    _fiber_rows,
    _leaves,
    branch_index,
    compose,
    critical_points,
    evaluate,
    iterate_map,
    periodic_points,
    preimage_tree,
    preimages,
    tree_levels,
    value_at_infinity,
)


def test_degree_and_validation():
    assert RationalMap([0, 0, 1], [1]).degree == 2
    assert RationalMap([-1, 0, 2], [0, 1]).degree == 2
    with pytest.raises(CoprimalityError):
        RationalMap([0, 1], [0, 1])    # common factor z
    with pytest.raises(ValueError, match="finite"):
        RationalMap([1, math.inf])


def test_evaluate(z2, full_shift):
    assert evaluate(z2, 3.0).z == pytest.approx(9.0)
    assert evaluate(z2, SpherePoint.infinity()).is_infinity
    # poles go to infinity, infinity goes to the degree-gap limit
    assert evaluate(full_shift, 0.0).is_infinity
    assert evaluate(full_shift, SpherePoint.infinity()).is_infinity
    assert value_at_infinity(RationalMap([1, 0, 0, 2], [1, 1])).is_infinity


def test_critical_points_t3(t3):
    cds = critical_points(t3)
    finite = sorted(c.point.z.real for c in cds if not c.point.is_infinity)
    assert finite == pytest.approx([-0.5, 0.5], abs=1e-9)
    for c in cds:
        if c.point.is_infinity:
            assert c.index == 3   # polynomial of degree 3
        else:
            assert c.index == 2


def test_riemann_hurwitz_all_registry():
    from ratdyn.registry import get, list_examples
    for name in list_examples():
        R = get(name).map
        total = sum(c.index - 1 for c in critical_points(R))
        assert total == 2 * R.degree - 2, name


def test_branch_index_regular_and_critical(z2, lattes):
    assert branch_index(z2, 0.7 + 0.1j) == 1
    assert branch_index(z2, 0.0) == 2
    assert branch_index(z2, SpherePoint.infinity()) == 2
    for c in critical_points(lattes):
        assert branch_index(lattes, c.point) == c.index


def test_fiber_of_z2(z2):
    fib = preimages(z2, 4.0)
    pts = sorted(p.z.real for p, _ in fib.entries)
    assert pts == pytest.approx([-2.0, 2.0], abs=1e-12)
    assert all(e == 1 for _, e in fib.entries)
    # critical value: one point with full index
    fib0 = preimages(z2, 0.0)
    assert len(fib0.entries) == 1 and fib0.entries[0][1] == 2
    assert fib0.total_index == 2


def test_fiber_sums_random(rng, z2, lattes):
    from ratdyn.registry import get
    ush = get("ushiki_gasket").map
    for R in (z2, lattes, ush):
        for _ in range(200):
            y = complex(rng.standard_normal(), rng.standard_normal())
            assert preimages(R, y).total_index == R.degree


def test_fiber_through_infinity(full_shift):
    # y = infinity pulls back to the poles plus possibly infinity itself
    fib = preimages(full_shift, SpherePoint.infinity())
    assert fib.total_index == 2
    assert any(p.is_infinity for p, _ in fib.entries)
    assert any((not p.is_infinity) and abs(p.z) < 1e-12
               for p, _ in fib.entries)


def test_preimage_tree_weights(zm2):
    n = 5
    fib = preimage_tree(zm2, 0.37, n)
    assert fib.depth == n
    assert fib.total_index == zm2.degree ** n
    # indices are positive integers
    assert all(isinstance(e, (int, np.integer)) and e >= 1
               for _, e in fib.entries)


def _mp_newton(f, x):
    # Newton from x to a root of f (descending coefficients) in the working
    # precision, until a step falls below 1e-28: the root is then good to
    # about 1e-56, its square
    import mpmath
    for _ in range(30):
        v, dv = mpmath.polyval(f, x, derivative=True)
        if dv == 0:
            break
        step = v / dv
        x -= step
        if abs(step) <= 1e-28 * (1 + abs(x)):
            break
    return x


@functools.lru_cache(maxsize=None)
def _mp_coefficients(R):
    import mpmath
    mpmath.mp.dps = 50
    return ([mpmath.mpc(c) for c in R._p_pad],
            [mpmath.mpc(c) for c in R._q_pad])


def _mp_derivative(f):
    n = len(f) - 1
    return [c * (n - k) for k, c in enumerate(f[:-1])]


def _assert_exact_fiber(R, w, at_inf, z, isinf, counts, tol=1e-9):
    """The children (z, isinf, counts) of base w are its exact fiber.

    In 50-digit arithmetic the fiber polynomial P - w Q (Q over infinity) of
    the float base has exactly d - deg preimages at infinity. Newton on the
    (e - 1)-th derivative takes each finite child of index e to a root x*
    within tol, where derivatives 0..e-1 vanish to 1e-25 relative; the x*
    are distinct and the indices add up to the degree, so no root is
    missed and every index is exact.
    """
    import mpmath
    mpmath.mp.dps = 50
    p, q = _mp_coefficients(R)
    f = q[:] if at_inf else [a - mpmath.mpc(w) * b for a, b in zip(p, q)]
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    drop = R.degree + 1 - len(f)
    assert counts[isinf].tolist() == ([drop] if drop else [])
    assert counts.sum() == R.degree
    derivs = [f[::-1]]
    while len(derivs) < counts[~isinf].max(initial=1):
        derivs.append(_mp_derivative(derivs[-1]))
    mags = [np.abs(np.array(g, dtype=complex)) for g in derivs]
    found = []
    for x, e in zip(z[~isinf], counts[~isinf]):
        root = _mp_newton(derivs[e - 1], mpmath.mpc(x))
        assert abs(root - x) < tol
        for g, mag in zip(derivs[:e], mags):
            assert abs(mpmath.polyval(g, root)) <= 1e-25 * np.polyval(
                mag, abs(x))
        assert all(abs(root - r) > 1e-30 for r in found)
        found.append(root)


def _assert_exact_levels(R, y, n):
    # every level of tree_levels, node for node: each parent's children
    # are its exact fiber (within 1e-9, indices exact), and the chain-rule
    # indices multiply along the tree
    y = SpherePoint.from_value(y)
    pts = np.array([y.z])
    inf = np.array([y.is_infinity])
    idx = np.array([1])
    for got in tree_levels(R, y, n):
        cp, cn, cc, par = _expand_level(R, pts, inf)
        assert np.array_equal(par, np.sort(par))
        for j in range(pts.size):
            kids = par == j
            _assert_exact_fiber(R, pts[j], inf[j], cp[kids], cn[kids],
                                cc[kids])
        pts, inf, idx = cp, cn, cc * idx[par]
        for a, b in zip(got, (pts, inf, idx)):
            assert np.array_equal(a, b)
    assert idx.sum() == R.degree ** n


T3 = RationalMap([0, -3, 0, 4], [1])
T5 = RationalMap([0, 5, 0, -20, 0, 16], [1])
DROP = RationalMap([1, 0, 0, 1], [0, -1, 0, 2])   # R(infinity) = 1/2
INF = SpherePoint.infinity()

# (map, depth, bases beyond the random ones): the degree-2 closed form, the
# degree-3/4/5 companion path, T3 at and just off its critical values +-1,
# and bases whose levels mix in rows at infinity and degree-drop rows
TREE_MAPS = [
    (RationalMap([0, 0, 1], [1]), 6, ()),
    (RationalMap([-2, 0, 1], [1]), 6, ()),
    (RationalMap([0.2, 0, 1], [1]), 6, ()),
    (RationalMap([-1, 0, 2], [0, 1]), 6, (INF,)),          # full_shift
    (T3, 6, (1.0, -1.0, 1.0 + 1e-9)),
    (RationalMap([1, 0, 2, 0, 1], [0, -4, 0, 4]), 4, ()),  # Lattes
    (RationalMap([-16 / 27, 0, 0, 1], [0, 1]), 5, ()),     # Ushiki
    (T5, 4, ()),
    (DROP, 4, (0.5,)),
]


def test_tree_levels_match_scalar_route(rng):
    # every level of the tree against 50-digit exact fibers, node for node
    # within 1e-9 and indices exactly
    pytest.importorskip("mpmath")
    for R, n, extra in TREE_MAPS:
        randoms = [complex(*rng.standard_normal(2)) for _ in range(4)]
        for y in randoms + list(extra):
            _assert_exact_levels(R, y, n)


def _fiber_on_every_route(R, y):
    # the finite fiber over y by preimages, by the depth-1 tree and by one
    # step of a 64-walker backward walk: the three share the row solve, so
    # they list the same points and indices, and every walker lands on one
    # of those points
    fib = preimages(R, y)
    pts, isinf, idx = next(tree_levels(R, y, 1))
    assert not isinf.any()
    assert [(p.z, e) for p, e in fib.entries] == list(zip(pts.tolist(),
                                                          idx.tolist()))
    walk, walk_inf = backward_walk(R, y, 1, 64, np.random.default_rng(1))
    assert not walk_inf.any() and np.isin(walk[0], pts).all()
    return pts, idx


def _conj_power(m, c):
    # (z - c)^m + c: c is a superattracting fixed point, its own critical
    # value, and its fiber is c alone with index m
    p = np.array([math.comb(m, k) * (-c) ** (m - k) for k in range(m + 1)],
                 dtype=complex)
    p[0] += c
    return RationalMap(p)


def test_merge_decisions_near_critical_values():
    # 1 is a critical value of T3 (a double preimage at -1/2); 1e-9 off it
    # the two preimages sit 3e-5 apart and must stay separate
    assert sorted(_fiber_on_every_route(T3, 1.0)[1].tolist()) == [1, 2]
    assert _fiber_on_every_route(T3, 1.0 + 1e-9)[1].tolist() == [1, 1, 1]
    # over 1 + 1e-12 the fiber polynomial of (z - 1)^3 + 1 is
    # (z - 1)^3 - 1e-12, whose value at 1 is 560 times its rounding-noise
    # bound: three simple preimages 1.7e-4 apart, on every route
    pts, idx = _fiber_on_every_route(_conj_power(3, 1.0), 1.0 + 1e-12)
    assert idx.tolist() == [1, 1, 1]
    assert np.allclose(np.abs(pts - 1.0), 1e-4, rtol=1e-4)


def test_multiple_roots_on_every_route():
    # over c the fiber of (z - c)^m + c is one point of index m, and the
    # depth-3 tree is one node of index m^3, each within 1e-12 of c
    # (for c = 0.05 the fiber's constant term c^m + c - c cancels to
    # 1e-8, far below its rounding noise from the terms c^m + c and c)
    for m in range(3, 7):
        for c in (1.0, 0.3, -0.5 + 0.2j, 0.05):
            R = _conj_power(m, c)
            pts, idx = _fiber_on_every_route(R, c)
            assert idx.tolist() == [m] and abs(pts[0] - c) <= 1e-12
            *_, (pts, isinf, idx) = tree_levels(R, c, 3)
            assert idx.tolist() == [m ** 3] and abs(pts[0] - c) <= 1e-12


def test_tiny_fibers_of_powers():
    # z^m over tiny w: m simple preimages w^(1/m) e^(2 pi i k / m) at
    # relative error 1e-12, on every route; below 1e-100 the closed forms'
    # squares and cubes of w would underflow unless the row is scaled
    for m in range(3, 7):
        R = RationalMap([0] * m + [1])
        for w in (1e-12, 1e-18, 1e-24, 1e-30, 1e-106, 1e-110, 1e-161,
                  1e-170, 1e-300):
            pts, idx = _fiber_on_every_route(R, w)
            exact = w ** (1 / m) * np.exp(2j * np.pi * np.arange(m) / m)
            gap = np.abs(pts[:, None] - exact[None, :]).min(axis=0)
            assert idx.tolist() == [1] * m
            assert np.all(gap <= 1e-12 * w ** (1 / m))


def test_expand_level_with_scalar_rows(full_shift):
    # a batch mixing full-degree rows, rows at infinity and degree-drop rows:
    # parents in order, each parent's children sorted by (re, im) with
    # infinity last, equal to the 50-digit exact fiber
    pytest.importorskip("mpmath")
    for R, bases in ((full_shift, [0.3 + 0.1j, None, -0.7j, None, 2.5]),
                     (DROP, [0.5, None, 0.2 + 0.3j, 0.5, -1.5 + 2j, None])):
        inf = np.array([b is None for b in bases])
        pts = np.array([0j if b is None else b for b in bases], dtype=complex)
        cp, cn, cc, par = _expand_level(R, pts, inf)
        assert np.array_equal(par, np.sort(par))
        for j in range(pts.size):
            kids = par == j
            z, at_inf = cp[kids], cn[kids]
            fin = z[~at_inf]
            assert np.array_equal(np.lexsort((fin.imag, fin.real)),
                                  np.arange(fin.size))
            assert at_inf.tolist() == sorted(at_inf.tolist())
            _assert_exact_fiber(R, pts[j], inf[j], z, at_inf, cc[kids],
                                tol=1e-12)
    # over R(infinity) = 1/2 the fiber is -2 and infinity with index 2
    cp, cn, cc, _ = _expand_level(DROP, np.array([0.5 + 0j]),
                                  np.array([False]))
    assert cn.tolist() == [False, True] and cc.tolist() == [1, 2]


def test_batched_fibers_against_mpmath(rng, lattes):
    # fibers of the batched solver against 50-digit roots of P - w Q; the
    # near-critical fiber of T3 o T3 needs the Newton step on simple roots
    # (raw companion eigenvalues miss there by 6e-10)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    cases = [(T3, 1.0, 1e-12), (T3, 1.0 + 1e-9, 5e-12),
             (lattes, 0.4 - 2.5j, 1e-12), (T5, -1.0, 1e-12),
             (iterate_map(T3, 2), 1.0 + 1e-9, 2e-10)]
    cases += [(R, complex(*rng.standard_normal(2)), 1e-12)
              for R in (T3, lattes, T5)]
    for R, w, tol in cases:
        cp, cn, cc, _ = _expand_level(R, np.array([w]), np.array([False]))
        assert not cn.any() and cc.sum() == R.degree
        f = [mpmath.mpc(p) - mpmath.mpc(w) * mpmath.mpc(q)
             for p, q in zip(R._p_pad, R._q_pad)]
        exact = np.array([complex(r) for r in mpmath.polyroots(
            f[::-1], maxsteps=400, extraprec=400)])
        for x, m in zip(cp, cc):
            gap = np.abs(exact - x)
            assert np.count_nonzero(gap < 1e-7) == m
            assert np.min(gap) < (tol if m == 1 else 1e-9)


DPOLE = RationalMap([1, 0, 0, 1], [0, 0, 1])   # (z^3 + 1) / z^2


def _mp_wronskian(p, q):
    # ascending coefficients of P'Q - PQ': p_i q_j adds (i - j) z^(i+j-1)
    w = [0] * (len(p) + len(q) - 2)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            if i != j:
                w[i + j - 1] += (i - j) * pi * qj
    return w


def _mp_order(w, rel=1e-30):
    big = max(abs(c) for c in w)
    return next(k for k, c in enumerate(w) if abs(c) > rel * big)


def test_critical_points_against_mpmath():
    # finite critical points are the roots of W = P'Q - PQ' at 50 digits,
    # of index 1 + their order; the index at infinity is 1 + the order at 0
    # of W for the reversed pair; values are P/Q, infinity at the poles.
    # Covers every registry map (the Lattes map has poles 0, +-1), z^3, T5,
    # and a double pole that is itself critical
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    from ratdyn.registry import get, list_examples
    maps = [get(n).map for n in list_examples()]
    maps += [get("power_map_n").build(3), T5, DPOLE]
    for R in maps:
        p = [mpmath.mpc(c) for c in R._p_pad]
        q = [mpmath.mpc(c) for c in R._q_pad]
        w = _mp_wronskian(p, q)
        w = w[:len(w) - _mp_order(w[::-1])]
        want = []   # [point, index, value]
        for r in (mpmath.polyroots(w[::-1], maxsteps=400, extraprec=400)
                  if len(w) > 1 else []):
            for entry in want:
                if abs(entry[0] - r) < 1e-12:
                    entry[1] += 1
                    break
            else:
                want.append([r, 2, None])
        for entry in want:
            r = entry[0]
            pv, qv = mpmath.polyval(p[::-1], r), mpmath.polyval(q[::-1], r)
            entry[0] = SpherePoint.finite(complex(r))
            entry[2] = (INF if abs(qv) < 1e-30 * max(1, abs(pv))
                        else SpherePoint.finite(complex(pv / qv)))
        k = _mp_order(_mp_wronskian(p[::-1], q[::-1]))
        if k:
            want.append([INF, k + 1, INF if q[-1] == 0 else
                         SpherePoint.finite(complex(p[-1] / q[-1]))])
        got = critical_points(R)
        assert sum(e for _, e, _ in want) - len(want) == 2 * R.degree - 2
        assert len(got) == len(want), R
        for cd in got:
            gap = [chordal_distance(cd.point, x) for x, _, _ in want]
            x, e, v = want[int(np.argmin(gap))]
            assert min(gap) < 1e-12
            assert cd.index == e
            assert chordal_distance(cd.value, v) < 1e-12


def test_far_roots_need_the_degree_gap():
    # a tiny leading coefficient alone puts no root near infinity, so a
    # degree drop must weigh it against the degree gap: (z^2/4)^(o8) - 1
    # leads with 4^-255 = 3e-154, yet its 256 roots lie on |z| = 4^(255/256),
    # and (z^2 + 30)^(o8), with a constant term near 1e191, keeps its full
    # degree over 0
    R = iterate_map(RationalMap([0, 0, 0.25]), 8)
    fib = preimages(R, 1)
    assert len(fib.entries) == 256
    assert all(m == 1 and not p.is_infinity for p, m in fib.entries)
    assert np.allclose([abs(p.z) for p, _ in fib.entries], 4 ** (255 / 256),
                       rtol=1e-12)
    S = iterate_map(RationalMap([30, 0, 1]), 8)
    *_, n = _fiber_rows(S, np.array([0j]), np.array([False]))
    assert n is None   # no coefficient drops: the full degree 256
    pts, isinf, counts, _ = _expand_level(R, np.array([1 + 0j]),
                                          np.array([False]))
    assert pts.size == 256 and not isinf.any() and np.all(counts == 1)


def test_tree_node_budget(z2):
    with pytest.raises(BudgetExceeded):
        preimage_tree(z2, 0.73, 6, node_budget=10)


def _assert_forest_is_trees(R, bases, n, node_budget=10 ** 6):
    # the leaves of many bases, level by level and entry for entry, are
    # each base's leaves alone, and they list each node of its tree as
    # often as its index
    d = R.degree
    pts = np.array([SpherePoint.from_value(y).z for y in bases])
    inf = np.array([SpherePoint.from_value(y).is_infinity for y in bases])
    alone = [list(_leaves(R, pts[j:j + 1], inf[j:j + 1], n))
             for j in range(len(bases))]
    trees = [list(tree_levels(R, y, n)) for y in bases]
    seen = set()
    for k, lo, z, f in _leaves(R, pts, inf, n, node_budget):
        w = d ** k
        for i in range(z.size // w):
            got = z[i * w:(i + 1) * w], f[i * w:(i + 1) * w]
            _, _, *want = alone[lo + i][k - 1]
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1], want[1])
            tz, tinf, tidx = trees[lo + i][k - 1]
            assert (sorted(zip(got[1], got[0].real, got[0].imag))
                    == sorted(zip(np.repeat(tinf, tidx),
                                  np.repeat(tz.real, tidx),
                                  np.repeat(tz.imag, tidx))))
            seen.add((k, lo + i))
    assert seen == {(k, j) for k in range(1, n + 1)
                    for j in range(len(bases))}


@pytest.mark.parametrize("R,n", [
    (RationalMap([0, 0, 1], [1]), 6),
    (RationalMap([-2, 0, 1], [1]), 6),
    (T3, 4),
    (RationalMap([1, 0, 2, 0, 1], [0, -4, 0, 4]), 3),   # Lattes
    (DROP, 4),
])
def test_forest_matches_per_base_trees(R, n, rng):
    # bases at infinity and at R(infinity) put rows of lower degree into
    # every level
    bases = [complex(*rng.standard_normal(2)) for _ in range(5)]
    bases += [INF, value_at_infinity(R), 0.0]
    _assert_forest_is_trees(R, bases, n)


def test_forest_groups_within_the_budget(z2):
    # five depth-4 trees of 16 leaves each fit a budget of 40 alone but
    # not together: the leaves still come, group by group
    bases = [0.73, -0.4 + 0.8j, 1.3, INF, 0.2j]
    _assert_forest_is_trees(z2, bases, 4, node_budget=40)
    # a tree over the budget alone still raises among the others
    with pytest.raises(BudgetExceeded):
        for _ in _leaves(z2, np.array([0.73, 0.1]), np.zeros(2, bool), 4,
                         node_budget=10):
            pass


def test_depth_rule_is_the_float_formula_at_the_usual_budgets():
    # the largest k with d^k within the budget agrees with
    # floor(log budget / log d) at the budgets tests and the CLI use, so no
    # KMS output moves; the float formula rounds 10^6 at d = 10 down to 5
    for budget in (1024, 4096, 16384):
        for d in range(2, 65):
            want = max(1, int(math.floor(math.log(budget) / math.log(d))))
            assert _depth_within(d, budget) == want, (d, budget)
    assert _depth_within(10, 10 ** 6) == 6
    assert _depth_within(10) == 6   # NODE_BUDGET
    assert _depth_within(5) == 8 and _depth_within(6) == 7
    assert _depth_within(10 ** 7) == 1 and _depth_within(1, 4) == 1


def test_compose_and_iterate(z2, t2):
    R2 = iterate_map(z2, 2)
    assert R2.degree == 4
    assert evaluate(R2, 1.2).z == pytest.approx((1.2 ** 2) ** 2)
    C = compose(t2, z2)   # t2(z2(z))
    assert C.degree == 4
    assert evaluate(C, 0.9).z == pytest.approx(2 * (0.9 ** 2) ** 2 - 1)
    with pytest.raises(BudgetExceeded):
        iterate_map(z2, 2, degree_budget=3)


def test_chain_rule_at_criticals(lattes):
    R2 = iterate_map(lattes, 2)
    for c in critical_points(lattes):
        lhs = branch_index(R2, c.point)
        rhs = branch_index(lattes, c.point) * branch_index(
            lattes, evaluate(lattes, c.point))
        assert lhs == rhs


def test_periodic_points_z2(z2):
    # repelling n-periodic points of z^2 live on the unit circle
    pts = periodic_points(z2, 3)
    assert len(pts) > 0
    assert np.all(np.abs(np.abs(pts) - 1.0) < 1e-8)
    for z in pts:
        q = SpherePoint.finite(complex(z))
        for _ in range(3):
            q = evaluate(z2, q)
        assert chordal_distance(SpherePoint.finite(complex(z)), q) < 1e-8
