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
    # polynomial (its preimages, 4.6e106, are finite); and over tiny y the
    # preimages of (1 + z^2) / z^3, near +-i and at 1/y, spread over more
    # scales than one companion matrix resolves
    cases = [(RationalMap([1], [0, 1]), 1e-320),
             (RationalMap([1], [0, 0, 0, 1]), 1e-320),
             (RationalMap([1, 0, 1], [0, 0, 0, 1]), 1e-40),
             (RationalMap([1, 0, 1], [0, 0, 0, 1]), 2.6e-275)]
    for R, y in cases:
        with pytest.raises(NonConvergence):
            preimages(R, y)
        with pytest.raises(NonConvergence):
            list(tree_levels(R, y, 1))
        with pytest.raises(NonConvergence):
            backward_walk(R, y, 1, 4, np.random.default_rng(0))


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


def test_point_tuples_keep_their_clouds_arrays(zm2, cloud_z2):
    from ratdyn.measure import lyubich_exact, lyubich_mc
    from ratdyn.numkernel import _as_arrays
    for cloud in (cloud_z2, cloud_z2[::7], lyubich_exact(zm2, 0.37, 5),
                  lyubich_mc(zm2, 0.37, 30, 50)):
        pts = cloud.points() if callable(cloud.points) else cloud.points
        z, isinf = _as_arrays(pts)
        assert z is cloud.z and isinf is cloud.isinf
        # the same points in a list go point by point, to equal arrays
        lz, linf = _as_arrays(list(pts))
        assert lz.view(np.uint64).tolist() == z.view(np.uint64).tolist()
        assert linf.tolist() == isinf.tolist()
    assert type(cloud_z2.points[::7]) is tuple


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
    from ratdyn.numkernel import _cluster_rows
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
