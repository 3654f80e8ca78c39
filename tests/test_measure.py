"""Balanced-measure clouds: exact trees, Monte Carlo, invariance, io."""

import json
import math

import numpy as np
import pytest

from ratdyn.measure import (
    WeightedCloud,
    convergence_diagnostic,
    integrate,
    invariance_defect,
    lyubich_exact,
    lyubich_mc,
    pushforward,
    read_weighted_csv,
    write_diagnostics_json,
    write_weighted_csv,
)
from ratdyn.numkernel import SpherePoint, chordal_distance
from ratdyn.ratmap import RationalMap, evaluate
from ratdyn.transfer import TestFunction


def _moment(cloud, k):
    return integrate(cloud, lambda p: p.z.real ** k).real


def test_exact_tree_bookkeeping(t3):
    mu = lyubich_exact(t3, 0.1, 6)
    assert len(mu) == 729                      # 3^6 simple atoms
    assert mu.denominator == 3 ** 6
    assert sum(mu.int_weights) == mu.denominator
    assert sum(mu.weights()) == pytest.approx(1.0, abs=1e-12)
    assert mu.provenance[0] == "exact_tree"


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightedCloud(((SpherePoint.finite(0j), 0.5),), ("file", "x"))


def test_large_exact_tree_validates_by_integers():
    # 5^7 = 78125 atoms: their float weights sum to 1 + 1e-12, which a
    # naive float check rejected; the integer weights sum exactly
    from ratdyn.registry import get
    t5 = get("tchebychev_n").build(5)
    mu = lyubich_exact(t5, 0.1, 7)
    assert len(mu) == 5 ** 7 and mu.denominator == 5 ** 7
    assert sum(mu.int_weights) == mu.denominator
    with pytest.raises(ValueError):
        WeightedCloud(mu.atoms[1:], mu.provenance, mu.int_weights[1:],
                      mu.denominator)


def test_large_mc_cloud_validates(zm2):
    mu = lyubich_mc(zm2, 1.0, depth=60, samples=40000, seed=40000)
    assert len(mu) == 40000
    assert math.fsum(mu.weights()) == pytest.approx(1.0, abs=1e-12)


def test_arcsine_moments_chebyshev(t3):
    # the invariant measure of T_n on [-1, 1] is dx / (pi sqrt(1 - x^2));
    # theta substitution gives moment k as C(k, k/2) / 2^k for even k
    mu = lyubich_exact(t3, 0.1, 7)
    for k in range(1, 7):
        want = math.comb(k, k // 2) / 2 ** k if k % 2 == 0 else 0.0
        assert _moment(mu, k) == pytest.approx(want, abs=1e-9)


def test_central_binomial_moments(zm2):
    # on [-2, 2] the arcsine moments are the central binomials
    mu = lyubich_exact(zm2, 0.37, 12)
    assert _moment(mu, 2) == pytest.approx(2.0, abs=1e-9)
    assert _moment(mu, 4) == pytest.approx(6.0, abs=1e-9)
    assert _moment(mu, 6) == pytest.approx(20.0, abs=1e-9)


def test_pushforward_exact_identity(zm2, z2):
    # pushing the depth-n tree forward gives the depth-(n-1) tree; integer
    # weights agree after cross-multiplying the denominators
    for R, y in ((zm2, 0.37), (z2, 0.73 + 0.2j)):
        n = 6
        deep = lyubich_exact(R, y, n)
        flat = lyubich_exact(R, y, n - 1)
        pushed = pushforward(R, deep)
        assert pushed.int_weights is not None
        assert len(pushed) == len(flat)
        key = lambda t: (round(t[0].z.real, 8), round(t[0].z.imag, 8),
                         t[0].is_infinity)
        got = sorted(zip(pushed.points(), pushed.int_weights), key=key)
        want = sorted(zip(flat.points(), flat.int_weights), key=key)
        for (p, iw), (q, jw) in zip(got, want):
            assert iw * flat.denominator == jw * pushed.denominator
            assert p.is_infinity == q.is_infinity


def test_cross_basepoint_stability(zm2):
    a = lyubich_exact(zm2, 0.37, 12)
    b = lyubich_exact(zm2, -1.21, 12)
    for k in (1, 2, 3):
        assert abs(_moment(a, k) - _moment(b, k)) < 1e-2


def test_mc_determinism_and_agreement(zm2):
    m1 = lyubich_mc(zm2, 1.0, depth=60, samples=4000, seed=2)
    m2 = lyubich_mc(zm2, 1.0, depth=60, samples=4000, seed=2)
    assert [p.z for p in m1.points()] == [p.z for p in m2.points()]
    ex = lyubich_exact(zm2, 1.0, 12)
    assert _moment(m1, 2) == pytest.approx(_moment(ex, 2), abs=3 / math.sqrt(4000))
    assert m1.provenance[0] == "monte_carlo"


def test_invariance_defect_shrinks(z2):
    # at depth n the defect equals the level n-1 -> n integral gap, so it
    # is truncation-sized and halves with each extra level
    tests = [lambda p: p.z.real, lambda p: abs(p.z) ** 2,
             lambda p: (p.z ** 2).real]
    shallow = invariance_defect(z2, lyubich_exact(z2, 0.73 + 0.2j, 8), tests)
    deep = invariance_defect(z2, lyubich_exact(z2, 0.73 + 0.2j, 12), tests)
    assert deep < 1e-3
    assert deep < shallow / 4


def test_convergence_diagnostic_shape(z2):
    tests = [lambda p: abs(p.z) ** 2]
    recs = convergence_diagnostic(z2, 0.73 + 0.2j, 8, tests, y2=1.4 - 0.2j)
    # 8 per-level gaps plus one cross-basepoint record
    assert len(recs) == 9
    assert recs[-1]["test"].endswith("cross-basepoint")
    assert recs[-1]["gap"] < 1e-2
    # gaps shrink with depth
    assert recs[6]["gap"] < recs[0]["gap"]


def test_convergence_diagnostic_tests_sharing_a_label(z2):
    # two different tests under one label keep their own gap sequences
    square = TestFunction.monomial(2)
    other = TestFunction.monomial(1, 1)
    other.label = square.label
    y, y2 = 0.73 + 0.1j, 1.4 - 0.2j
    both = convergence_diagnostic(z2, y, 3, [square, other], y2=y2)
    alone = [convergence_diagnostic(z2, y, 3, [a], y2=y2)
             for a in (square, other)]
    per_level = alone[0][:3] + alone[1][:3] + alone[0][3:] + alone[1][3:]
    assert both == per_level
    # the same test twice gives the same gaps twice
    twice = convergence_diagnostic(z2, y, 3, [square, square])
    assert [r["gap"] for r in twice] == [r["gap"] for r in alone[0][:3]] * 2


def test_weighted_csv_roundtrip(tmp_path, zm2):
    mu = lyubich_exact(zm2, 0.37, 5)
    p = tmp_path / "mu.csv"
    write_weighted_csv(p, mu)
    back = read_weighted_csv(p)
    assert len(back) == len(mu)
    assert back.provenance[0] == "file"
    for (a, wa), (b, wb) in zip(mu.atoms, back.atoms):
        assert wa == wb
        assert a.is_infinity == b.is_infinity
        if not a.is_infinity:
            assert a.z == b.z
    # rewriting the file reproduces it byte for byte
    q = tmp_path / "mu2.csv"
    write_weighted_csv(q, back)
    assert p.read_bytes() == q.read_bytes()


@pytest.mark.parametrize("text,cloud_too", [
    ("re,im,is_infinity,weight\n0.5,nan,0,0.5\n0,0,1,0.5\n", True),
    ("re,im,is_infinity,weight\ninf,0,0,0.5\n0,0,1,0.5\n", True),
    ("re,im,is_infinity,weight\n0.5,0\n0,0,1,0.5\n", True),
    ("re,im,is_infinity,weight\n0.5,0,0,0.5\n0,0,1\n", False),
    ("re,im,weight\n0.5,0,0.5\n", True),
    ("re,im,is_infinity,weight\n0.5,0,0,0.5\n0,0,1,0.25\n", False),
], ids=["nan-part", "inf-part", "short-row", "row-without-weight",
        "bad-header", "weights-not-1"])
def test_point_csv_readers_refuse_bad_input(tmp_path, text, cloud_too):
    # the weight column is the weighted reader's alone: a cloud reader
    # takes the first three columns of any point file
    from ratdyn.julia import read_cloud_csv
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ValueError):
        read_weighted_csv(p)
    if cloud_too:
        with pytest.raises(ValueError):
            read_cloud_csv(p)
    else:
        assert len(read_cloud_csv(p)) == 2


def test_diagnostics_json(tmp_path, z2):
    recs = convergence_diagnostic(z2, 0.73, 4, [lambda p: p.z.real])
    f = tmp_path / "diag.json"
    write_diagnostics_json(f, recs)
    data = json.loads(f.read_text())
    assert data["schema"] == 1
    assert len(data["records"]) == len(recs)


def test_mc_cloud_is_the_walks_last_step(zm2):
    from ratdyn.julia import WALK_BUDGET, backward_walk
    from ratdyn.errors import BudgetExceeded
    mu = lyubich_mc(zm2, 1.0, depth=25, samples=300, seed=9)
    z, isinf = backward_walk(zm2, 1.0, 25, 300, np.random.default_rng(
        np.random.SeedSequence(9)))
    assert np.array_equal(mu.z, z[-1]) and np.array_equal(mu.isinf, isinf[-1])
    assert mu.weights().tolist() == [1 / 300] * 300
    # the budget still counts every step of every walk
    with pytest.raises(BudgetExceeded):
        lyubich_mc(zm2, 1.0, depth=64, samples=WALK_BUDGET // 64 + 1)


def test_integrate_matches_atom_loops(zm2):
    mu = lyubich_exact(zm2, 0.37 + 0.1j, 9)
    seen = []

    def plain(p):
        seen.append(p)
        return p.z.real ** 3 - 1j * p.z.imag

    # a plain callable gets the cloud's own points and the same sum
    want = complex(sum(w * complex(plain(p)) for p, w in mu.atoms))
    seen.clear()
    assert integrate(mu, plain) == want
    assert all(p is q for p, q in zip(seen, mu.points()))
    # an array evaluator is summed from its arrays
    a = TestFunction.from_table({(2, 0): 1.0, (1, 1): 0.5j, (0, 3): -2.0})
    loop = complex(sum(w * a(p) for p, w in mu.atoms))
    assert abs(integrate(mu, a) - loop) <= 1e-12
    tests = [a, plain, TestFunction.monomial(1, 1)]
    loop = max(abs(complex(sum(w * complex(t(evaluate(zm2, p)))
                               for p, w in mu.atoms)) - integrate(mu, t))
               for t in tests)
    assert abs(invariance_defect(zm2, mu, tests) - loop) <= 1e-12


def test_clouds_build_points_once(zm2):
    mu = lyubich_exact(zm2, 0.37, 4)
    assert mu.points() is mu.points() and mu.atoms is mu.atoms
    assert [p for p, _ in mu.atoms] == list(mu.points())
    assert [w for _, w in mu.atoms] == [i / 16 for i in mu.int_weights]
    # the tuple constructor gives the same arrays
    again = WeightedCloud(mu.atoms, mu.provenance, mu.int_weights,
                          mu.denominator)
    assert np.array_equal(again.z, mu.z) and np.array_equal(again.w, mu.w)


def test_weighted_csv_bytes_round_trip(tmp_path):
    z = np.array([complex(-0.0, -0.0), 0j, complex(0.1, -0.0),
                  complex(-1e-310, 7.0)])
    isinf = np.array([False, True, False, False])
    w = np.array([0.125, 0.375, 0.25, 0.25])
    mu = WeightedCloud.from_arrays(z, isinf, w, ("file", "x"))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_weighted_csv(first, mu)
    back = read_weighted_csv(first)
    assert back.isinf.tolist() == isinf.tolist()
    assert back.z.view(np.uint64).tolist() == mu.z.view(np.uint64).tolist()
    assert back.weights().tolist() == w.tolist()
    write_weighted_csv(second, back)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().splitlines()[1:3] == ["-0,-0,0,0.125",
                                                   "0,0,1,0.375"]


def _pushforward_by_pairs(R, cloud, merge_tol=1e-9):
    """`pushforward` as it merged before the grid hash: each image against
    every atom so far."""
    imgs = [(evaluate(R, p), w) for p, w in cloud.atoms]
    ints = (list(cloud.int_weights)
            if cloud.int_weights is not None else [None] * len(imgs))
    merged = []
    for (p, w), iw in zip(imgs, ints):
        for t, (q, wq, iq) in enumerate(merged):
            if chordal_distance(p, q) <= merge_tol:
                merged[t] = (q, wq + w,
                             None if iq is None or iw is None else iq + iw)
                break
        else:
            merged.append((p, w, iw))
    merged.sort(key=lambda t: t[0].sort_key())
    ints_out = tuple(iw for _, _, iw in merged)
    have_ints = all(iw is not None for iw in ints_out) and len(ints_out) > 0
    return WeightedCloud(
        tuple((p, w) for p, w, _ in merged),
        ("pushforward",) + cloud.provenance, ints_out if have_ints else None,
        cloud.denominator if have_ints else None)


def _crowded_cloud(rng):
    # clusters of points a few merge_tol apart, so pairs straddle both the
    # tolerance and the grid cells, plus infinity and points beyond 1e154
    centres = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    z = (np.repeat(centres, 6)
         + 1e-3 * (rng.uniform(-1, 1, 240) + 1j * rng.uniform(-1, 1, 240)))
    z = np.concatenate([z, [0j, 3e200 + 1e200j, 3e200 + 1e200j, 1e160j]])
    isinf = np.zeros(z.size, dtype=bool)
    isinf[240] = True
    return WeightedCloud.from_arrays(z, isinf, np.full(z.size, 1 / z.size),
                                     ("file", "crowded"))


@pytest.mark.parametrize("case", ["z2", "zm2", "lattes", "lattes_inf", "mc",
                                  "crowded"])
def test_pushforward_matches_the_pairwise_merge(case, z2, zm2, lattes, rng):
    tols = (1e-9,)
    if case == "z2":
        R, cloud = z2, lyubich_exact(z2, 0.73 + 0.2j, 8)
    elif case == "zm2":
        R, cloud = zm2, lyubich_exact(zm2, 0.37, 8)
    elif case == "lattes":
        R, cloud = lattes, lyubich_exact(lattes, 0.3 + 0.1j, 4)
    elif case == "lattes_inf":
        R, cloud = lattes, lyubich_exact(lattes, SpherePoint.infinity(), 4)
    elif case == "mc":
        R, cloud, tols = zm2, lyubich_mc(zm2, 0.37, 30, 600, seed=5), (
            1e-9, 1e-2)
    else:
        R = RationalMap([0, 1], [1])   # the identity: pushforward merges
        cloud, tols = _crowded_cloud(rng), (0.0, 1e-3, 2e-3, 0.5, 3.0)
    for tol in tols:
        got, want = pushforward(R, cloud, tol), _pushforward_by_pairs(
            R, cloud, tol)
        assert got.z.view(np.uint64).tolist() == want.z.view(
            np.uint64).tolist()
        assert got.isinf.tolist() == want.isinf.tolist()
        assert got.w.view(np.uint64).tolist() == want.w.view(
            np.uint64).tolist()
        assert got.provenance == want.provenance
        assert got.denominator == want.denominator
        assert (got.int_weights is None) == (want.int_weights is None)
        if got.int_weights is not None:
            assert got.int_weights.tolist() == want.int_weights.tolist()
        if case != "crowded":
            assert len(got) < len(cloud) or case == "mc"
