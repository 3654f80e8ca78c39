"""Root finding and sphere geometry against independent routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratdyn.errors import NonConvergence
from ratdyn.julia import backward_walk
from ratdyn.numkernel import (
    SpherePoint,
    chordal_distance,
    chordal_distances,
    embed_points,
    local_multiplicity,
    poly_add,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_trim,
    roots_with_multiplicity,
    sphere_embed,
    sphere_nearest,
)
from ratdyn.ratmap import RationalMap, preimages, tree_levels


def test_sphere_point_constructors():
    p = SpherePoint.finite(1 + 2j)
    assert not p.is_infinity and p.z == 1 + 2j
    q = SpherePoint.infinity()
    assert q.is_infinity
    assert SpherePoint.from_value(3.0).z == 3.0
    assert SpherePoint.from_value(q).is_infinity


def test_chordal_metric_axioms(rng):
    pts = [SpherePoint.finite(complex(a, b))
           for a, b in rng.standard_normal((30, 2))]
    pts.append(SpherePoint.infinity())
    for a in pts:
        assert chordal_distance(a, a) == 0.0
        for b in pts:
            assert chordal_distance(a, b) == pytest.approx(
                chordal_distance(b, a), abs=1e-15)
            for c in pts:
                assert (chordal_distance(a, c)
                        <= chordal_distance(a, b) + chordal_distance(b, c) + 1e-12)


def test_chordal_known_values():
    o = SpherePoint.finite(0)
    inf = SpherePoint.infinity()
    # antipodes realize the diameter
    assert chordal_distance(o, inf) == pytest.approx(2.0, abs=1e-15)
    assert chordal_distance(SpherePoint.finite(1), SpherePoint.finite(-1)) == (
        pytest.approx(2.0, abs=1e-15))
    # 2|z - w| / sqrt((1+|z|^2)(1+|w|^2))
    assert chordal_distance(SpherePoint.finite(1), o) == (
        pytest.approx(2.0 / math.sqrt(2.0), abs=1e-15))


def test_chordal_distances_bit_for_bit(rng):
    # the array metric rounds as the scalar one does, in both charts, on
    # the unit circle (where the chart flips) and at infinity
    zs = (rng.standard_normal(4000) + 1j * rng.standard_normal(4000)) \
        * 10.0 ** rng.uniform(-3, 3, 4000)
    circle = np.exp(2j * np.pi * rng.uniform(size=1000))
    zs = np.concatenate([zs, circle, circle * (1 + 2e-16), [0j, 1, -1j]])
    inf = np.zeros(zs.size, dtype=bool)
    inf[::37] = True
    for a in (SpherePoint.infinity(), 0j, 0.3 + 0.2j, 5 - 3j, circle[0],
              circle[1] * (1 - 1e-16)):
        got = chordal_distances(a, zs, inf)
        want = [chordal_distance(a, SpherePoint(z, f))
                for z, f in zip(zs, inf)]
        assert got.tolist() == want


def test_vector_hypot_matches_math_hypot():
    # the array factor sqrt(1 + r^2) against the running interpreter's
    # math.hypot(1.0, r): moderate, wide, tiny and near-1 values, and the
    # edges of the range
    from ratdyn.numkernel import _hypot1
    rng = np.random.default_rng(11)
    n = 50_000
    edges = [0.0, 5e-324, 1e-300, 1.0, math.nextafter(1.0, 0.0),
             math.nextafter(1.0, 2.0), 1e150, 1e154, 1e300,
             np.finfo(float).max, math.inf, math.nan]
    for r in (rng.uniform(0.0, 4.0, n), rng.lognormal(0.0, 8.0, n),
              rng.uniform(0.0, 1e-9, n), 1.0 + rng.uniform(-5e-7, 5e-7, n),
              np.array(edges)):
        got = _hypot1(r)
        want = np.array([math.hypot(1.0, x) for x in r.tolist()])
        nan = np.isnan(want)   # any NaN, whatever its sign bit
        assert np.isnan(got).tolist() == nan.tolist()
        assert got[~nan].view(np.uint64).tolist() == \
            want[~nan].view(np.uint64).tolist()


def test_sphere_embed_unit_vectors(rng):
    zs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    e = sphere_embed(zs)
    assert e.shape == (40, 3)
    assert np.allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-12)
    pole = sphere_embed(np.array([0j]), np.array([True]))[0]
    assert np.allclose(pole, [0.0, 0.0, 1.0])
    # chordal distance is the euclidean distance between embeddings
    a, b = 0.3 + 0.1j, -1.5 + 2j
    emb = sphere_embed(np.array([a, b]))
    assert np.linalg.norm(emb[0] - emb[1]) == pytest.approx(
        chordal_distance(SpherePoint.finite(a), SpherePoint.finite(b)), abs=1e-12)


def test_sphere_embed_sends_unflagged_infinities_to_the_pole(rng):
    # an infinite value is the pole whether or not the mask flags it, as
    # in embed_points; a NaN part stays NaN and every other row keeps the
    # bytes it has without the infinite rows
    inf = math.inf
    odd = np.array([complex(inf, 0.0), complex(-inf, 2.0), complex(1.0, -inf),
                    complex(inf, inf), complex(inf, math.nan)])
    e = sphere_embed(odd)
    assert e[:4].tolist() == [[0.0, 0.0, 1.0]] * 4
    assert np.isnan(e[4]).all()
    assert sphere_embed(odd[:1]).tolist() == embed_points([inf]).tolist()
    zs = np.concatenate([rng.standard_normal(50) + 1j * rng.standard_normal(50),
                         [1e200, -1e300j, 0.0]])
    mask = np.zeros(zs.size, dtype=bool)
    mask[::7] = True
    both = sphere_embed(np.concatenate([zs, odd]),
                        np.concatenate([mask, np.zeros(odd.size, bool)]))
    assert both[:zs.size].tobytes() == sphere_embed(zs, mask).tobytes()


def test_sphere_embed_beyond_the_square_of_float_range(rng):
    # |z|^2 overflows: those rows go through the reciprocal chart; the
    # other rows keep the bytes of the plain formula
    big = np.array([1e200, 1e308, -1e300j, complex(1e308, 1e308),
                    complex(-3e170, 2e160)])
    e = sphere_embed(big)
    assert np.isfinite(e).all()
    assert np.allclose(np.linalg.norm(e, axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.allclose(e, [0.0, 0.0, 1.0], rtol=0, atol=1e-150)
    zs = (rng.standard_normal(500) + 1j * rng.standard_normal(500)) \
        * 10.0 ** rng.uniform(-150, 150, 500)
    m2 = np.abs(zs) ** 2
    plain = np.stack([2.0 * zs.real / (1.0 + m2), 2.0 * zs.imag / (1.0 + m2),
                      (m2 - 1.0) / (1.0 + m2)], axis=1)
    both = sphere_embed(np.concatenate([zs, big]))
    assert both[:500].tobytes() == plain.tobytes()
    # nearest-point distances stay finite, and agree with the metric
    cloud = sphere_embed(np.array([0.5, 1e200, 1e308, -1e300j]))
    dist, idx = sphere_nearest(cloud)
    assert np.isfinite(dist).all() and idx[0] != 0
    dist, _ = sphere_nearest(cloud, sphere_embed(np.array([2.0, 1e250]),
                                                 np.array([False, False])))
    assert np.isfinite(dist).all()
    assert dist[0] == pytest.approx(chordal_distance(2.0, 1e200), abs=1e-15)
    from ratdyn.julia import JuliaCloud
    cloud = JuliaCloud(np.array([0.5, 1e200, -1e300j, 2.0]), np.zeros(4),
                       "inverse_iteration", 0, 60, 20)
    assert math.isfinite(cloud.mesh)
    assert cloud.mesh == pytest.approx(
        chordal_distance(0.5, 2.0), abs=1e-15)


def test_poly_helpers():
    # (1 + z)(1 - z) = 1 - z^2
    assert list(poly_mul([1, 1], [1, -1])) == pytest.approx([1, 0, -1])
    assert list(poly_add([1, 1], [0, 0, 3])) == pytest.approx([1, 1, 3])
    assert list(poly_derivative([5, 0, 2])) == pytest.approx([0, 4])
    assert list(poly_trim([1, 2, 0, 0])) == pytest.approx([1, 2])
    assert poly_eval([1, 0, 1], 2j) == pytest.approx(1 + (2j) ** 2)


def test_roots_against_numpy(rng):
    # simple-root polynomials: the two routes must agree to tight tolerance
    for _ in range(50):
        deg = int(rng.integers(2, 9))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        c[-1] += 3.0  # keep the leading coefficient away from 0
        rs = roots_with_multiplicity(list(c))
        mine = sorted(((p.z, m) for p, m in rs.entries),
                      key=lambda rm: (rm[0].real, rm[0].imag))
        ref = sorted(np.roots(c[::-1]), key=lambda z: (z.real, z.imag))
        assert sum(m for _, m in mine) == deg
        for (r, m), s in zip(mine, ref):
            assert m == 1
            assert abs(r - s) < 1e-7


def test_roots_with_multiplicities():
    # (z - 1)^3 (z + 2), ascending coefficients
    coeffs = np.convolve(
        np.convolve(np.convolve([-1, 1], [-1, 1]), [-1, 1]), [2, 1])
    rs = roots_with_multiplicity([float(a) for a in coeffs])
    got = {(round(p.z.real, 5), round(p.z.imag, 5)): m for p, m in rs.entries}
    assert got == {(1.0, 0.0): 3, (-2.0, -0.0): 1} or got == {
        (1.0, 0.0): 3, (-2.0, 0.0): 1}
    assert rs.degree == 4
    # an m-fold root x with three simple roots 0.05 away, from rounded
    # coefficients: its derivatives vanish at the polished centre, not at
    # the mean of its scattered roots
    for m in (3, 4):
        for x in (0.7 + 0.2j, 1.3 - 0.5j):
            coeffs = np.ones(1, dtype=complex)
            for r in [x] * m + [x + 0.05 * o for o in (1, 1j, -1 - 1j)]:
                coeffs = np.convolve(coeffs, [-r, 1])
            rs = roots_with_multiplicity(coeffs)
            assert sorted(rs.multiplicities()) == [1, 1, 1, m]
            centre = rs.points()[rs.multiplicities().index(m)]
            assert abs(centre.z - x) < 1e-9
    # two double roots 0.01 apart link into one cluster of four, which is
    # no 4-fold root; split at its long links it gives the two doubles
    coeffs = np.ones(1, dtype=complex)
    for r in (1, 1, 1.01, 1.01, -0.5j):
        coeffs = np.convolve(coeffs, [-r, 1])
    rs = roots_with_multiplicity(coeffs)
    assert rs.multiplicities() == [1, 2, 2]
    assert np.allclose(rs.points()[1].z, 1, atol=1e-9)
    assert np.allclose(rs.points()[2].z, 1.01, atol=1e-9)


def test_roots_degenerate_inputs():
    # constants and the zero polynomial have no roots to report
    assert roots_with_multiplicity([3.0]).entries == ()
    assert roots_with_multiplicity([0.0]).entries == ()
    assert roots_with_multiplicity([]).entries == ()


def test_local_multiplicity():
    # z^2 (z - 1)
    coeffs = [0, 0, -1, 1]
    assert local_multiplicity(coeffs, 0.0) == 2
    assert local_multiplicity(coeffs, 1.0) == 1


def test_root_budget_raises():
    # fibers beyond the floating-point range fail cleanly on every route:
    # over 1e-320 the preimage of 1/z is 1e320, 1/z^3 overflows its monic
    # polynomial (its preimages, 4.6e106, are finite); and over 2.6e-275
    # the preimages of (1 + z^2) / z^3, near +-i and at 1/y, spread over
    # more scales than floating point holds
    cases = [(RationalMap([1], [0, 1]), 1e-320),
             (RationalMap([1], [0, 0, 0, 1]), 1e-320),
             (RationalMap([1, 0, 1], [0, 0, 0, 1]), 2.6e-275)]
    for R, y in cases:
        with pytest.raises(NonConvergence):
            preimages(R, y)
        with pytest.raises(NonConvergence):
            list(tree_levels(R, y, 1))
        with pytest.raises(NonConvergence):
            backward_walk(R, y, 1, 4, np.random.default_rng(0))


def test_spread_fiber_solves_on_every_route():
    # over 1e-40 the preimages of (1 + z^2) / z^3 lie near +-i and at
    # 1e40; the closed-form cubic, deflated by its largest root, keeps all
    # three to working precision on every route (the companion eigenvalues
    # lost the two near +-i, and the solve raised NonConvergence)
    R = RationalMap([1, 0, 1], [0, 0, 0, 1])
    want = np.array([-1j, 1j, 1e40])

    def close(z):
        gap = np.abs(np.asarray(z)[:, None] - want[None, :])
        assert np.all(gap.min(axis=1) <= 1e-15 * np.abs(want[gap.argmin(
            axis=1)]))
    fib = preimages(R, 1e-40)
    assert fib.indices() == [1, 1, 1] and not fib.isinf.any()
    close(fib.z)
    (pts, isinf, idx), = tree_levels(R, 1e-40, 1)
    assert idx.tolist() == [1, 1, 1] and not isinf.any()
    close(pts)
    walk = backward_walk(R, 1e-40, 1, 4, np.random.default_rng(0))
    close(walk[0].ravel())


def _pairwise(a, b):
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def test_sphere_nearest_against_all_pairs(rng):
    # random clouds with repeated points and the point at infinity, against
    # all-pairs distances: queries to the cloud, and each point to its
    # nearest other point
    for n in (2, 3, 17, 200):
        zs = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 2.0
        isinf = rng.random(n) < 0.1
        zs[n // 2:n // 2 + n // 4] = zs[:n // 4]        # duplicates
        isinf[n // 2:n // 2 + n // 4] = isinf[:n // 4]
        cloud = sphere_embed(zs, isinf)
        queries = sphere_embed(
            np.append(rng.standard_normal(30) * 3.0 + 0j, zs[:5]),
            np.append(np.arange(30) == 0, isinf[:5]))
        full = _pairwise(queries, cloud)
        dist, idx = sphere_nearest(cloud, queries)
        assert np.allclose(dist, full.min(axis=1), rtol=0, atol=1e-15)
        assert np.allclose(full[np.arange(idx.size), idx], dist, rtol=0,
                           atol=1e-15)
        full = _pairwise(cloud, cloud)
        np.fill_diagonal(full, np.inf)
        dist, idx = sphere_nearest(cloud)
        assert np.allclose(dist, full.min(axis=1), rtol=0, atol=1e-15)
        assert np.all(idx != np.arange(n))
        assert np.allclose(full[np.arange(n), idx], dist, rtol=0, atol=1e-15)
        if n >= 4:
            assert dist[n // 2] == 0.0     # a duplicated point


def test_sphere_nearest_lone_point():
    one = sphere_embed(np.array([0.3 + 0.1j]))
    dist, idx = sphere_nearest(one)
    assert dist.tolist() == [math.inf] and idx.tolist() == [-1]
    pole = sphere_embed(np.array([0j]), np.array([True]))
    dist, idx = sphere_nearest(one, pole)
    assert idx.tolist() == [0]
    assert dist[0] == pytest.approx(chordal_distance(0.3 + 0.1j,
                                                     SpherePoint.infinity()))


def test_as_arrays_takes_arrays_and_clouds_whole(cloud_z2):
    from ratdyn.numkernel import _as_arrays
    z = np.array([0.5 - 0.0j, complex(np.inf, 0), complex(-0.0, 2.0),
                  complex(np.nan, 1.0), 3.0])
    got = _as_arrays(z)
    want = _as_arrays(list(z))    # the point-by-point route
    assert got[1].tolist() == want[1].tolist() == [False, True, False,
                                                   True, False]
    assert got[0].view(np.uint64).tolist() == want[0].view(np.uint64).tolist()
    assert _as_arrays(np.array([1.0, -2.0]))[0].tolist() == [1, -2]
    zs, isinf = _as_arrays(cloud_z2)
    assert zs is cloud_z2.z and isinf is cloud_z2.isinf


def test_point_tuples_keep_their_clouds_arrays(zm2, cloud_z2, tmp_path):
    from ratdyn.julia import read_cloud_csv, write_cloud_csv
    from ratdyn.measure import lyubich_exact, lyubich_mc
    from ratdyn.numkernel import _as_arrays
    from ratdyn.ratmap import preimage_tree
    write_cloud_csv(tmp_path / "c.csv", cloud_z2[::9])
    back = read_cloud_csv(tmp_path / "c.csv")
    fib = preimage_tree(zm2, 0.37, 3)
    roots = roots_with_multiplicity([1, 0, -3, 2])
    sets = (cloud_z2, cloud_z2[::7], lyubich_exact(zm2, 0.37, 5),
            lyubich_mc(zm2, 0.37, 30, 50), fib, roots)
    assert cloud_z2.points is cloud_z2._points
    assert sets[2].points() is sets[2]._points
    for s in (fib, roots):   # entries hold the set's own points
        assert all(p is q for (p, _), q in zip(s.entries, s._points))
    for s, pts in [(s, s._points) for s in sets] + [(back, back)]:
        for x in (s, pts):
            z, isinf = _as_arrays(x)
            assert z is s.z and isinf is s.isinf
        # the same points in a list go point by point, to equal arrays
        lz, linf = _as_arrays(list(pts))
        assert lz.view(np.uint64).tolist() == z.view(np.uint64).tolist()
        assert linf.tolist() == isinf.tolist()
    assert type(cloud_z2.points[::7]) is tuple
    assert back.z.tolist() == cloud_z2.z[::9].tolist()


def _old_points(z, isinf):
    """SpherePoints one by one, through the checked constructors."""
    return tuple(SpherePoint.infinity() if f else SpherePoint.finite(v)
                 for v, f in zip(z, isinf))


def _old_root_set(c):
    """`roots_with_multiplicity` as it built its RootSet point by point."""
    from ratdyn.numkernel import RootSet, _row_roots
    from test_kernel_oracles import _cluster_rows
    c = poly_trim(np.asarray(c, dtype=complex))
    centers, counts, _ = _cluster_rows(*_row_roots(c[None, :]))
    centers = centers + 0.0
    residual = float(np.max(np.abs(poly_eval(c / c[-1], centers))))
    return RootSet(tuple((SpherePoint.finite(z), int(k))
                         for z, k in zip(centers, counts)), residual)


def _same_points(a, b):
    assert a == b
    assert [hash(p) for p in a] == [hash(p) for p in b]
    assert [repr(p) for p in a] == [repr(p) for p in b]
    assert [p.z.real.hex() for p in a] == [p.z.real.hex() for p in b]
    assert [p.z.imag.hex() for p in a] == [p.z.imag.hex() for p in b]


@pytest.mark.parametrize("base", [0.3 + 0.1j, SpherePoint.infinity()])
def test_point_sets_from_arrays_match_the_point_route(base):
    # every container built from arrays against the same container built
    # point by point, as before the point sets shared one base
    from ratdyn.julia import JuliaCloud, sample_inverse_iteration
    from ratdyn.measure import WeightedCloud, lyubich_exact, lyubich_mc
    from ratdyn.ratmap import Fiber, _expand_level, preimage_tree, preimages
    from ratdyn.registry import get, list_examples
    y = SpherePoint.from_value(base)
    for name in list_examples():
        R = get(name).map
        yv, yinf = y.z, y.is_infinity
        pts, inf, idx, _ = _expand_level(R, np.array([yv]), np.array([yinf]))
        fibers = [(preimages(R, y), 1, pts, inf, idx)]
        for pts, inf, idx in tree_levels(R, y, 2):
            pass
        fibers.append((preimage_tree(R, y, 2), 2, pts, inf, idx))
        for new, depth, pts, inf, idx in fibers:
            old = Fiber(y, depth, tuple(zip(_old_points(pts, inf),
                                            idx.tolist())))
            assert new == old and hash(new) == hash(old)
            assert repr(new) == repr(old)
            _same_points(new.points(), old.points())
            assert new.entries == old.entries
            assert new.indices() == old.indices()
            assert new.total_index == old.total_index == R.degree ** depth
            assert new.z.tobytes() == old.z.tobytes()
            assert new.isinf.tolist() == old.isinf.tolist()
        for c in (R.derivative_numerator(), R._p_pad - R._q_pad):
            new, old = roots_with_multiplicity(c), _old_root_set(c)
            assert new == old and hash(new) == hash(old)
            assert repr(new) == repr(old)
            _same_points(new.points(), old.points())
            assert new.multiplicities() == old.multiplicities()
            assert new.degree == old.degree
            assert new.residual_bound == old.residual_bound
        for mu in (lyubich_exact(R, y, 3), lyubich_mc(R, y, 25, 40)):
            old = WeightedCloud(
                tuple(zip(_old_points(mu.z, mu.isinf), mu.w.tolist())),
                mu.provenance, mu.int_weights, mu.denominator)
            _same_points(mu.points(), old.points())
            assert mu.atoms == old.atoms
            assert mu.w.tobytes() == old.w.tobytes()
            assert (mu.int_weights is None) == (old.int_weights is None)
            if mu.int_weights is not None:
                assert mu.int_weights.tolist() == old.int_weights.tolist()
                assert mu.denominator == old.denominator == R.degree ** 3
        cloud = sample_inverse_iteration(R, y, count=300, seed=1)
        _same_points(cloud.points, _old_points(cloud.z, cloud.isinf))
    # negative zeros and infinity, through the builder
    z = np.array([complex(-0.0, -0.0), complex(1.5, -0.0), 0j, -2.5e300])
    cloud = JuliaCloud(z, [False, False, True, False], "inverse_iteration",
                       0, 60, 20)
    _same_points(cloud.points, _old_points(cloud.z, cloud.isinf))


def _lexsort_cluster_rows(roots, label):
    """`_cluster_rows` as it sorted each row with np.lexsort on (re, im)."""
    m, d = roots.shape
    if label is None:
        counts, centers = np.ones((m, d), dtype=np.int64), roots
    else:
        counts = np.bincount((label + d * np.arange(m)[:, None]).ravel(),
                             minlength=m * d).reshape(m, d)
        centers = np.where(counts > 0, roots, np.inf)
    flat = (np.lexsort((centers.imag, centers.real), axis=1)
            + d * np.arange(m)[:, None]).ravel()
    centers, counts = centers.ravel()[flat], counts.ravel()[flat]
    row = flat // d
    if label is None:
        return centers, counts, row
    keep = counts > 0
    return centers[keep], counts[keep], row[keep]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_cluster_rows_order_as_the_lexsort(data):
    # parts from a small pool give exact ties in re, in im and in both,
    # and +-0.0; tied clusters leave inf in their other slots
    from test_kernel_oracles import _cluster_rows
    d = data.draw(st.integers(2, 5))
    m = data.draw(st.integers(1, 6))
    part = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
    roots = np.array([[complex(data.draw(part), data.draw(part))
                       for _ in range(d)] for _ in range(m)])
    label = None
    if data.draw(st.booleans()):
        label = np.tile(np.arange(d), (m, 1))
        for r in range(m):
            for j in range(1, d):
                heads = sorted({label[r, i] for i in range(j)} | {j})
                label[r, j] = data.draw(st.sampled_from(heads))
                roots[r, j] = roots[r, label[r, j]]   # members hold the centre
    got = _cluster_rows(roots, label)
    want = _lexsort_cluster_rows(roots, label)
    assert got[0].view(np.uint64).tolist() == want[0].view(np.uint64).tolist()
    assert got[1].tolist() == want[1].tolist()
    assert got[2].tolist() == want[2].tolist()
