"""Batched operators against per-point scalar loops, on every registry map.

Each oracle below walks fibers with `preimages`/`preimage_tree` and
evaluates plain Python polynomials one point at a time, so it shares no
array code with the operator it checks. Values agree within 1e-12 of
their size.
"""

import cmath
import math

import numpy as np
import pytest

from ratdyn.bimodule import (build_frame, frame_delta_defect,
                             normalized_witness, simplicity_witness)
from ratdyn.errors import (CoverTooCoarse, EvaluationAtInfinity,
                           FrameUnavailable, TabulationMiss)
from ratdyn.julia import _render_start, sample_inverse_iteration
from ratdyn.measure import lyubich_exact
from ratdyn.numkernel import SpherePoint, _as_arrays, chordal_distance
from ratdyn.ratmap import evaluate, preimage_tree, preimages
from ratdyn.registry import get, list_examples
from ratdyn.transfer import (ProductFunction, TestFunction, alpha, h_op,
                             kms_defect, kms_iterate, lemma31_defect,
                             transfer_E)

MAPS = [pytest.param(get(name).map, id=name) for name in list_examples()]
TABLE_A = {(0, 0): 0.5, (1, 0): 0.25 - 0.5j, (2, 1): 0.125j, (0, 2): -0.75}
TABLE_B = {(0, 0): 1.0, (1, 1): 0.5, (0, 1): 0.3 + 0.1j}


def _poly(table):
    """The table's polynomial in z and conj(z), one finite point at a time."""
    def value(p):
        z = SpherePoint.from_value(p).value
        return sum(c * z ** j * z.conjugate() ** k
                   for (j, k), c in table.items())
    return value


def _close(got, want, size=None):
    """|got - want| <= 1e-12 times the size of want (at least 1)."""
    got, want = np.asarray(got), np.asarray(want)
    if size is None:
        size = np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(got - want) <= 1e-12 * size), (got, want)


def _points(R, seed=5):
    """Random finite points and the depth-2 fiber of one of them."""
    gen = np.random.default_rng(seed)
    zs = gen.uniform(0.2, 2.0, 12) * np.exp(2j * np.pi * gen.uniform(size=12))
    fib = preimage_tree(R, zs[0], 2).points()
    pts = [SpherePoint.finite(z) for z in zs] + [q for q in fib
                                                 if not q.is_infinity]
    return pts, _as_arrays(pts)


@pytest.mark.parametrize("R", MAPS)
def test_test_functions_against_scalar_loops(R):
    pts, (z, inf) = _points(R)
    a, b = TestFunction.from_table(TABLE_A), TestFunction.from_table(TABLE_B)
    pa, pb = _poly(TABLE_A), _poly(TABLE_B)
    _close(a.at(z, inf), [pa(p) for p in pts])
    mono = TestFunction.monomial(2, 1, 0.5)
    _close(mono.at(z, inf), [0.5 * p.z ** 2 * p.z.conjugate() for p in pts])
    # a scalar call is the one-point case of the array method
    assert [a(p) for p in pts] == list(a.at(z, inf))
    images = [evaluate(R, p) for p in pts]
    keep = [i for i, q in enumerate(images) if not q.is_infinity]
    z, inf = z[keep], inf[keep]
    aR = alpha(R, a)
    _close(aR.at(z, inf), [pa(images[i]) for i in keep])
    _close(ProductFunction(aR, b).at(z, inf),
           [pa(images[i]) * pb(pts[i]) for i in keep])


@pytest.mark.parametrize("R", MAPS)
def test_tabulated_against_nearest_atom(R):
    pts, (z, inf) = _points(R)
    vals = [_poly(TABLE_A)(p) for p in pts]
    f = TestFunction.tabulated(pts, vals, radius=1e-6)
    shifted = z * (1.0 + 1e-9)

    def nearest(x):
        d = [chordal_distance(x, p) for p in pts]
        return vals[int(np.argmin(d))]
    _close(f.at(shifted, inf), [nearest(x) for x in shifted])
    with pytest.raises(TabulationMiss):
        f.at(np.append(shifted, z[0] + 0.1), np.append(inf, False))


def test_array_path_raises_at_infinity(full_shift):
    z, inf = np.array([0.5, 0j]), np.array([False, True])
    with pytest.raises(EvaluationAtInfinity):
        TestFunction.monomial(1).at(z, inf)
    assert list(TestFunction.constant(3.0).at(z, inf)) == [3.0, 3.0]
    # full_shift has a pole at 0: the pullback meets infinity there
    with pytest.raises(EvaluationAtInfinity):
        alpha(full_shift, TestFunction.monomial(1)).at(np.array([0.5, 0j]),
                                                       np.array([False] * 2))


def _expectation(R, f, y):
    return sum(e * f(q) for q, e in preimages(R, y).entries) / R.degree


@pytest.mark.parametrize("R", MAPS)
def test_expectations_against_scalar_loops(R):
    pts, _ = _points(R)
    a, b = TestFunction.from_table(TABLE_A), TestFunction.from_table(TABLE_B)
    pa, pb = _poly(TABLE_A), _poly(TABLE_B)
    for y in pts[:6]:
        want = _expectation(R, pa, y)
        size = max(1.0, _expectation(R, lambda q: abs(pa(q)), y))
        _close(transfer_E(R, a, y), want, size)
        _close(h_op(R, a, y), R.degree * want, R.degree * size)
    # lemma 3.1, with the pullback evaluated by the scalar map
    pulled = lambda q: pa(evaluate(R, q))   # noqa: E731
    want, size = 0.0, 1.0
    for y in pts:
        ay = pa(y)
        lhs = _expectation(R, lambda q: pulled(q) * pb(q), y)
        want = max(want, abs(lhs - ay * _expectation(R, pb, y)),
                   abs(_expectation(R, pulled, y) - ay))
        size = max(size, abs(ay) * _expectation(R, lambda q: abs(pb(q)), y))
    _close(lemma31_defect(R, a, b, pts), want, size)


@pytest.mark.parametrize("R", MAPS)
def test_kms_against_scalar_loops(R):
    pts, _ = _points(R)
    probes = pts[:4]
    a, pa = TestFunction.from_table(TABLE_A), _poly(TABLE_A)
    d = R.degree
    run = kms_iterate(R, a, 3, probes, julia_sample=(), lyubich_budget=1024)
    _close(run.traces[0].values, [pa(y) for y in probes])
    for k in range(1, 4):
        for y, got in zip(probes, run.traces[k].values):
            fib = preimage_tree(R, y, k).entries
            size = max(1.0, sum(e * abs(pa(q)) for q, e in fib) / d ** k)
            _close(got, sum(e * pa(q) for q, e in fib) / d ** k, size)
    depth = int(math.floor(math.log(1024) / math.log(d)))
    fib = preimage_tree(R, probes[0], depth).entries
    _close(run.lyubich_value, sum(e * pa(q) for q, e in fib) / d ** depth,
           max(1.0, sum(e * abs(pa(q)) for q, e in fib) / d ** depth))

    # kms_defect off log d, over a small exact cloud
    mu = lyubich_exact(R, probes[1], 2)
    beta = math.log(d) + 0.1
    want = 0.0
    for f in (lambda q: 1.0, pa):
        lhs = sum(w * math.exp(-beta) * d * _expectation(R, f, p)
                  for p, w in mu.atoms)
        want = max(want, abs(lhs - sum(w * f(p) for p, w in mu.atoms)))
    got = kms_defect(R, mu, [TestFunction.constant(1.0), a], beta=beta)
    size = max(1.0, max(abs(pa(p)) for p in mu.points()))
    _close(got, want, size)


def _members(frame, x):
    """Every frame member at x, from the frame's arcs in plain Python."""
    theta = cmath.phase(x - frame.center)
    hats = []
    for t, w in frame.arcs:
        d = (theta - t + math.pi) % (2.0 * math.pi) - math.pi
        hats.append(math.cos(0.5 * math.pi * d / w) ** 2 if abs(d) < w
                    else 0.0)
    return [math.sqrt(h / sum(hats)) if h else 0.0 for h in hats]


def test_frames_against_scalar_loops():
    built = 0
    for name in list_examples():
        R = get(name).map
        cloud = sample_inverse_iteration(R, _render_start(R), count=1000,
                                         seed=0)
        try:
            frame = build_frame(R, cloud)
        except (CoverTooCoarse, FrameUnavailable):
            continue
        built += 1
        probes = cloud.points[::50]
        want = 0.0
        for y in probes:
            xs = [q.z for q in preimages(R, y).points()]
            u = np.array([_members(frame, x) for x in xs])   # (points, arcs)
            _close([[m(x) for m in frame.members] for x in xs], u)
            gram = u @ u.T
            want = max(want, float(np.max(np.abs(gram - np.eye(len(xs))))))
        _close(frame_delta_defect(R, frame, probes), want)
    assert built >= 3


# the Lattes map's Julia set is the sphere: no polynomial a keeps its witness
# disc within the node budget there, so it runs the constant table
WITNESS_TABLES = {"lattes": {(0, 0): 1.0}}
WITNESS_A = {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5, (1, 1): 1.0}


@pytest.mark.parametrize("name", list_examples())
def test_witness_tables_against_scalar_loops(name):
    R = get(name).map
    cloud = sample_inverse_iteration(R, _render_start(R), count=1000, seed=0)
    table = WITNESS_TABLES.get(name, WITNESS_A)
    a, pa = TestFunction.from_table(table), _poly(table)
    eps = 0.1 * max(pa(p).real for p in cloud.points)
    probes = cloud.points[::100]
    u, rep = normalized_witness(R, a, eps, cloud, probe_ys=probes)
    n, f, frep = simplicity_witness(R, a, eps, cloud, probe_ys=probes)
    assert n == rep["n"] and frep["delta_u"] == rep["delta_u"]
    x0, outer = complex(*rep["x0"]), rep["delta_u"]
    inner = outer / 3.0

    def g(q):
        t = chordal_distance(x0, q)
        if t <= inner:
            return 1.0
        if t >= outer:
            return 0.0
        s = (t - inner) / (outer - inner)
        return 1.0 - s * s * (3.0 - 2.0 * s)

    sums = {"ff": [], "faf": [], "uau": [], "uu": []}
    for y in probes:
        fib = preimage_tree(R, y, n).entries
        es = [e for _, e in fib]
        gs = [g(q) for q, _ in fib]
        av = [pa(q).real for q, _ in fib]
        b = sum(e * gg * gg for e, gg in zip(es, gs))
        bau = sum(e * gg * gg * v for e, gg, v in zip(es, gs, av))
        us = [gg / math.sqrt(bau) for gg in gs]
        sums["ff"].append(sum(e * gg * gg / b for e, gg in zip(es, gs)))
        sums["faf"].append(sum(e * gg * gg * v / b
                               for e, gg, v in zip(es, gs, av)))
        sums["uau"].append(sum(e * uu * uu * v
                               for e, uu, v in zip(es, us, av)))
        sums["uu"].append(sum(e * uu * uu for e, uu in zip(es, us)))
        # f and u on part of the fiber, from their array methods (each
        # point costs a depth-n forest of its own)
        z, inf = _as_arrays(q for q, _ in fib[::7])
        _close(f.at(z, inf), [gg / math.sqrt(b) for gg in gs[::7]])
        _close(u.at(z, inf), us[::7])
    for key in ("ff", "faf", "uau"):
        size = max(1.0, rep["norm_a"])
        _close(rep[key + "_min"], min(sums[key]), size)
        _close(rep[key + "_max"], max(sums[key]), size)
    _close(rep["norm_two_u"], math.sqrt(max(sums["uu"])))
