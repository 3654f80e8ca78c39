"""The operator layer's compute-once paths against the routes they replace.

Each reference below computes a quantity the way the operators did when
they computed it more than once: the witness grew every probe's tree twice
and sorted all sample distances for its radius, a frame evaluated all its
arcs once per member, monomial tables contracted every coefficient,
nearest-point queries built (queries, points, 3) blocks, and the Lemma 3.1
defect evaluated alpha(a) twice. Every comparison is on float bits.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from ratdyn import bimodule, numkernel
from ratdyn.bimodule import Frame, build_frame, frame_delta_defect
from ratdyn.bimodule import frame_reconstruction_defect
from ratdyn.julia import sample_inverse_iteration
from ratdyn.numkernel import (SpherePoint, _PointSet, _as_arrays, _sq_dist,
                              chordal_distances, poly_add, poly_mul,
                              sphere_embed, sphere_nearest)
from ratdyn.ratmap import RationalMap, _leaves, _row_sums, _sorted_table
from ratdyn.transfer import (ProductFunction, TestFunction, alpha,
                             lemma31_defect)


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# the witness: one tree against two passes
# ---------------------------------------------------------------------------

def _two_pass_witness(R, a, eps, cloud, probes):
    """(n, delta_u, table, retries): `_expansion` finds n, then `_leaves`
    grows every probe's tree again, and again for each deepening retry;
    the radius is the first point below the threshold in all sample
    distances, sorted."""
    z, isinf = _as_arrays(cloud)
    avals = a.at(z, isinf).real
    norm_a = float(np.max(avals))
    i0 = int(np.argmax(avals))
    x0 = SpherePoint(z[i0], isinf[i0])
    dists = chordal_distances(x0, z, isinf)
    order = np.argsort(dists)
    below = np.flatnonzero(avals[order] < norm_a - 0.9 * eps)
    delta_u = (max(dists[order[below[0]]] * 0.999, 1e-6) if below.size
               else 2.0)
    delta_v = delta_u / 9.0
    net_tol = max(2.0 * _PointSet(z, isinf).mesh, 1e-2)
    pz, pinf = _as_arrays(probes)
    n = max(1, bimodule._expansion(R, (x0, delta_v), z, isinf, (pz, pinf),
                                   min(net_tol, delta_v),
                                   bimodule.EXPANSION_BUDGET))
    bump = bimodule._bump(x0, delta_u / 3.0, delta_u)
    for retries in range(4):
        parts = [lv for k, _, *lv in _leaves(R, pz, pinf, n) if k == n]
        pts, inf = (np.concatenate(x) for x in zip(*parts))
        gv = bump.at(pts, inf).reshape(pz.size, -1)
        w = gv * gv
        if _row_sums(w, w.shape[1]).min() >= 1.0 - 1e-9:
            break
        n += 1
    return n, delta_u, (gv, a.at(pts, inf).real.reshape(gv.shape)), retries


def _report_fields(gv, av, norm_a, eps):
    """The report's sums from the witness table, as the witnesses form
    them."""
    width = gv.shape[1]
    w = gv * gv
    b = _row_sums(w, width)
    ff = _row_sums(w / b[:, None], width)
    faf = _row_sums(w * av / b[:, None], width)
    uv = gv / np.sqrt(_row_sums(gv * gv * av, width))[:, None]
    uu = uv * uv
    uau, uu = _row_sums(uu * av, width), _row_sums(uu, width)
    return {"norm_a": max(norm_a, float(np.max(av))),
            "ff_min": ff.min(), "ff_max": ff.max(),
            "faf_min": faf.min(), "faf_max": faf.max(),
            "uau_min": uau.min(), "uau_max": uau.max(),
            "norm_two_u": np.sqrt(max(float(uu.max()), 0.0))}


WITNESS_CASES = [((0, 0, 1), 0.9 + 0.3j), ((-2, 0, 1), 0.5 + 0.1j),
                 ((0.2, 0, 1), 0.6 + 0.2j)]


@pytest.mark.parametrize("widen", [1.0, 10.0], ids=["plain", "retry"])
@pytest.mark.parametrize("p,start", WITNESS_CASES,
                         ids=["z2", "z2-2", "z2+0.2"])
def test_witness_grows_one_tree(monkeypatch, p, start, widen):
    # widen > 1 stretches V's reach past K, where g < 1, so the first
    # depth can miss (g|g) >= 1 and a deepening retry follows
    near = bimodule._near
    monkeypatch.setattr(bimodule, "_near",
                        lambda c, r: near(c, widen * r))
    R = RationalMap(p)
    cloud = sample_inverse_iteration(R, start, count=1000, seed=4)
    a = TestFunction.from_table({(0, 0): 2.0, (1, 0): 0.25, (0, 1): 0.25})
    eps = 0.3
    probes = cloud.points[::40]
    n, delta_u, (gv, av), retries = _two_pass_witness(R, a, eps, cloud,
                                                      probes)
    got_n, _, rep, (got_gv, got_av) = bimodule._witness(
        R, a, eps, cloud, probes, bimodule.EXPANSION_BUDGET)
    _, urep = bimodule.normalized_witness(R, a, eps, cloud, probe_ys=probes)
    assert got_n == rep["n"] == urep["n"] == n
    assert bits(got_gv) == bits(gv) and bits(got_av) == bits(av)
    assert bits(np.array([rep["delta_u"]])) == bits(np.array([delta_u]))
    norm_a = float(np.max(a.at(*_as_arrays(cloud)).real))
    for key, v in _report_fields(gv, av, norm_a, eps).items():
        assert bits(np.array([urep[key]])) == bits(np.array([float(v)]))
    assert (retries >= 1) == (widen > 1.0)


def test_witness_keeps_its_depth_budget():
    R = RationalMap((0, 0, 1))
    cloud = sample_inverse_iteration(R, 0.9 + 0.3j, count=1000, seed=4)
    a = TestFunction.from_table({(0, 0): 2.0, (1, 0): 0.25, (0, 1): 0.25})
    with pytest.raises(bimodule.BudgetExceeded, match="no depth within 1"):
        bimodule.simplicity_witness(R, a, 0.3, cloud, budget=1)


# ---------------------------------------------------------------------------
# monomial tables: the nonzero terms against the full contraction
# ---------------------------------------------------------------------------

def _full_contraction(tf, z):
    j, k = tf.coeffs.shape
    return np.einsum("nj,jk,nk->n", z[:, None] ** np.arange(j), tf.coeffs,
                     np.conj(z)[:, None] ** np.arange(k))


def test_table_terms_match_the_full_contraction():
    rng = np.random.default_rng(11)
    parts = [0.0, -0.0, 1e-300, -1.0, 1.0, 1e150, -1e150, 0.5]
    z = np.array([complex(x, y) for x in parts for y in parts])
    z = np.concatenate([z, rng.standard_normal(200)
                        + 1j * rng.standard_normal(200)])
    finite = 0
    for _ in range(400):
        j, k = rng.integers(1, 6, size=2)
        c = np.zeros((j, k), dtype=complex)
        on = rng.random((j, k)) < rng.uniform(0.1, 0.9)
        c[on] = rng.standard_normal(on.sum()) + 1j * rng.standard_normal(
            on.sum())
        if rng.random() < 0.2:   # signed zeros only: no term is kept
            c[on] = np.where(rng.random(on.sum()) < 0.5, 0.0, -0.0)
        tf = TestFunction("monomial", coeffs=c)
        with np.errstate(all="ignore"):
            want = _full_contraction(tf, z)
            got = tf.at(z, np.zeros(z.size, dtype=bool))
        ok = np.isfinite(want)
        finite += np.count_nonzero(ok)
        assert bits(got[ok]) == bits(want[ok])
    assert finite > 50_000


def test_zero_coefficients_no_longer_meet_overflowed_powers():
    # z^5 overflows at 1e70; the full contraction's 0 * inf made it NaN
    tf = TestFunction.from_table({(0, 0): 1.0, (5, 0): 0.0, (1, 1): 2.0})
    z = np.array([1e70 + 0j, 0.5 - 0.25j])
    with np.errstate(all="ignore"):
        want = _full_contraction(tf, z)
    assert np.isnan(want[0])
    got = tf.at(z, np.zeros(2, dtype=bool))
    assert got[0] == pytest.approx(2e140, rel=1e-15)
    assert bits(got[1:]) == bits(want[1:])


# ---------------------------------------------------------------------------
# frames: all arcs at once against member by member
# ---------------------------------------------------------------------------

def test_frames_evaluate_their_arcs_once():
    R = RationalMap((0, 0, 1))
    cloud = sample_inverse_iteration(R, 0.9 + 0.3j, count=2000, seed=3)
    for frame in (build_frame(R, cloud), build_frame(R, cloud.points)):
        # no arcs: the same members, each evaluated on its own
        apart = Frame(frame.members, (), frame.center, frame.sample_size)
        probes = cloud.points[::37]
        assert bits(np.array([frame_delta_defect(R, frame, probes)])) == \
            bits(np.array([frame_delta_defect(R, apart, probes)]))
        f = TestFunction.from_table({(0, 0): 1.0, (1, 0): 0.5j, (0, 2): 2.0})
        got = frame_reconstruction_defect(R, frame, f, probes)
        want = frame_reconstruction_defect(R, apart, f, probes)
        assert bits(np.array([got])) == bits(np.array([want]))
        pts, inf, _ = _sorted_table(R, *_as_arrays(probes))
        table = bimodule._members_at(frame, pts, inf)
        assert bits(table) == bits(np.array([u.at(pts, inf)
                                             for u in frame.members]))


# ---------------------------------------------------------------------------
# nearest points: contiguous columns against (queries, points, 3) blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("block", [1 << 18, 1000])
def test_nearest_queries_match_the_block_distances(monkeypatch, block):
    monkeypatch.setattr(numkernel, "_NEAREST_BLOCK", block)
    rng = np.random.default_rng(5)
    z = (rng.standard_normal(700) + 1j * rng.standard_normal(700)) * 2.0
    isinf = np.zeros(z.size, dtype=bool)
    isinf[::50] = True
    cloud = sphere_embed(z, isinf)
    queries = sphere_embed(np.concatenate([z[:40] + 1e-9, z[::7] * 0.5,
                                           [0j, 1e200 + 0j]]))
    d2 = _sq_dist(queries[:, None], cloud[None])
    want = np.argmin(d2, axis=1)
    dist, idx = sphere_nearest(cloud, queries)
    assert idx.tolist() == want.tolist()
    assert bits(dist) == bits(np.sqrt(d2[np.arange(want.size), want]))


# ---------------------------------------------------------------------------
# Lemma 3.1: alpha(a) once against the product route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [(0.2, 0, 1), (-2, 0, 1), (0, 0, 1)])
def test_lemma31_defect_matches_the_product_route(p):
    R = RationalMap(p)
    rng = np.random.default_rng(8)
    ys = list(rng.standard_normal(30) + 1j * rng.standard_normal(30))
    a = TestFunction.from_table({(0, 0): 1.5, (1, 0): 0.3 - 0.1j,
                                 (0, 1): 0.3 + 0.1j, (2, 0): 0.05j})
    b = TestFunction.from_table({(0, 0): 1.2, (1, 1): -0.25, (0, 2): 0.1})
    z, isinf = _as_arrays(ys)
    pts, inf, _ = _sorted_table(R, z, isinf)
    d = R.degree

    def expect(f):
        return _row_sums(f.at(pts, inf), d) * (1.0 / d)

    aR, ay = alpha(R, a), a.at(z, isinf)
    want = float(max(np.max(np.abs(expect(ProductFunction(aR, b))
                                    - ay * expect(b))),
                     np.max(np.abs(expect(aR) - ay))))
    assert bits(np.array([lemma31_defect(R, a, b, ys)])) == \
        bits(np.array([want]))


# ---------------------------------------------------------------------------
# polynomial arithmetic without numpy.polynomial
# ---------------------------------------------------------------------------

def test_poly_arithmetic_matches_numpy_polynomial():
    rng = np.random.default_rng(9)
    cases = [([0.0], [0.0]), ([0.0, 0.0, 0.0], [1.0, 0.0]),
             ([1.0, -0.0], [-0.0]), ([0j], [2.0, 3.0, 0.0, 0.0])]
    for _ in range(300):
        a, b = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                for n in rng.integers(1, 8, size=2))
        for c in (a, b):
            c[rng.random(c.size) < 0.3] = 0.0   # zeros, trailing among them
        cases.append((a, b))
    for a, b in cases:
        a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
        assert bits(poly_mul(a, b)) == bits(npoly.polymul(a, b))
        assert bits(poly_add(a, b)) == bits(npoly.polyadd(a, b))
        assert bits(poly_add(b, a)) == bits(npoly.polyadd(b, a))
