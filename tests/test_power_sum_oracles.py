"""The power-sum route for holomorphic tables against the leaf route and
mpmath.

A holomorphic table a = sum c_j z^j is summed over a fiber from the fiber
polynomial's coefficients (`ratmap._fiber_power_sums`). The references
solve the fiber: the sorted table summed left to right (`_row_sums`), as
every other function is summed, and the fiber's roots at 60 digits. The
error is measured against the size sum of e(x) sum |c_j| |x|^j over the
fiber, the scale of either route's rounding.
"""

import math

import numpy as np
import pytest

from ratdyn.errors import EvaluationAtInfinity
from ratdyn.numkernel import SpherePoint, _as_arrays
from ratdyn.ratmap import (RationalMap, _fiber_power_sums, _leaves,
                           _row_sums, _sorted_table, critical_points,
                           value_at_infinity)
from ratdyn.measure import WeightedCloud
from ratdyn.registry import get
from ratdyn.transfer import (TestFunction, h_op, kms_defect, kms_iterate,
                             transfer_E)

mpmath = pytest.importorskip("mpmath")

REL = 1e-13
EXPONENTS = [0, 1, 3, 8, 20, 64]

MAPS = {
    "z2": RationalMap([0, 0, 1]),
    "z2-2": RationalMap([-2, 0, 1]),
    "t3": RationalMap([0, -3, 0, 4]),
    "lattes": get("lattes").map,
    "ushiki": get("ushiki_gasket").map,
    "(2z2-1)/z": RationalMap([-1, 0, 2], [0, 1]),
    "(z+1)/z3": RationalMap([1, 1], [0, 0, 0, 1]),   # R(oo) = 0
    "drop": RationalMap([1, 0, 0, 1], [0, -1, 0, 2]),   # R(oo) = 1/2
}


def _bases(R, seed):
    """Random bases, the critical values, infinity, and bases within 1e-9
    of R(oo) when it is finite, where the fiber polynomial nearly drops
    its degree."""
    rng = np.random.default_rng(seed)
    z = list(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    z += [0.0, 1.0, -1.0, 1e-9]
    pts = [SpherePoint.from_value(w) for w in z]
    pts += [cd.value for cd in critical_points(R)]
    pts.append(SpherePoint.infinity())
    top = value_at_infinity(R)
    if not top.is_infinity:
        pts += [SpherePoint(top.z + e) for e in (1e-9, -1e-9j, 3e-10 + 4e-10j)]
        pts.append(top)
    return _as_arrays(pts)


def _leaf_route(R, a, z, isinf):
    """h(a) over the sorted table, as every other function is summed."""
    pts, inf, _ = _sorted_table(R, z, isinf)
    return _row_sums(a.at(pts, inf), R.degree)


def _tied(R, z, isinf):
    """Whether each base's fiber is tied: the tie rule sets a near-double
    root's entries to their centre, which x^j magnifies about j times, so
    the leaf route misses by up to 4.3e-13 of the size at z^64 over the
    computed critical value -1 - 2e-16 of Lattes' map."""
    label = _sorted_table(R, z, isinf)[2]
    if label is None:
        return np.zeros(z.size, dtype=bool)
    label = np.sort(label.reshape(z.size, -1), axis=1)
    return (label[:, 1:] == label[:, :-1]).any(axis=1)


def _mp_fiber(R, w):
    """The fiber of the finite base w at 60 digits: the roots of P - w Q,
    from the float coefficients taken as exact, or None when its
    polynomial drops a degree (a preimage at infinity)."""
    with mpmath.workdps(60):
        f = [mpmath.mpc(p) - mpmath.mpc(w) * mpmath.mpc(q)
             for p, q in zip(R._p_pad, R._q_pad)]
        if abs(f[-1]) <= 1e-12 * (abs(mpmath.mpc(R._p_pad[-1]))
                                  + abs(w) * abs(mpmath.mpc(R._q_pad[-1]))):
            return None
        return mpmath.polyroots(f[::-1], maxsteps=400, extraprec=400)


def _mp_sums(roots, c):
    """sum over the roots of a, and of sum |c_j| |x|^j, at 60 digits."""
    with mpmath.workdps(60):
        val = size = mpmath.mpf(0)
        for x in roots:
            for j, cj in enumerate(c):
                if cj:
                    val += mpmath.mpc(cj) * x ** j
                    size += abs(cj) * abs(x) ** j
        return complex(val), float(size)


def _tables():
    yield from (TestFunction.monomial(j) for j in EXPONENTS)
    yield TestFunction.from_table({(0, 0): 0.5, (1, 0): -1 + 2j,
                                   (3, 0): 0.25j, (8, 0): 1e-3})


@pytest.mark.parametrize("name", list(MAPS))
def test_power_sums_match_mpmath_and_the_leaf_route(name):
    R = MAPS[name]
    z, isinf = _bases(R, len(name))
    fibers = [None if isinf[r] else _mp_fiber(R, z[r]) for r in range(z.size)]
    finite = np.array([f is not None for f in fibers])
    checked = 0
    for a in _tables():
        c = a.coeffs[:, 0]
        got = _fiber_power_sums(R, z[finite], isinf[finite], c, a.at)
        leaf = _leaf_route(R, a, z[finite], isinf[finite])
        tied = _tied(R, z[finite], isinf[finite])
        for g, lv, t, roots in zip(got, leaf, tied,
                                   (f for f in fibers if f)):
            want, size = _mp_sums(roots, c)
            assert abs(g - want) <= REL * size, (name, a, g, want)
            if t:   # the leaf route's own error, no bound on the sums
                assert abs(g - want) <= abs(lv - want) + REL * size
            else:
                assert abs(g - lv) <= REL * size, (name, a, g, lv)
            checked += 1
    assert checked >= 6 * 7


@pytest.mark.parametrize("name", list(MAPS))
def test_fallback_rows_take_the_leaf_route(name):
    # bases at infinity and at R(oo) raise exactly where the leaf route
    # raises, and a constant sums to d c_0 on every row
    R = MAPS[name]
    z, isinf = _bases(R, 3)
    raised = 0
    for r in range(z.size):
        zz, ii = z[r:r + 1], isinf[r:r + 1]
        for a in _tables():
            c = a.coeffs[:, 0]
            try:
                _leaf_route(R, a, zz, ii)
            except EvaluationAtInfinity:
                with pytest.raises(EvaluationAtInfinity):
                    _fiber_power_sums(R, zz, ii, c, a.at)
                raised += 1
                continue
            _fiber_power_sums(R, zz, ii, c, a.at)
        one = TestFunction.constant(2.5 - 1j)
        got = _fiber_power_sums(R, zz, ii, one.coeffs[:, 0], one.at)
        assert got[0] == R.degree * (2.5 - 1j)
    assert raised >= 6   # the fiber of infinity or of R(oo), every table


def test_no_result_is_minus_zero():
    # odd power sums of z^2 + c vanish exactly, and a table of -z or a
    # zero coefficient adds no -0; the fallback rows give +0 as well
    rng = np.random.default_rng(5)
    z = np.concatenate([rng.standard_normal(40) + 1j * rng.standard_normal(40),
                        [complex(-0.0, -0.0), complex(0.0, -0.0), -1.0]])
    isinf = np.zeros(z.size, dtype=bool)
    tables = [TestFunction.monomial(1, coeff=-1.0), TestFunction.monomial(3),
              TestFunction.from_table({(0, 0): 0.0, (1, 0): -1.0,
                                       (5, 0): -2.0j}),
              TestFunction.constant(0.0)]
    for R in (MAPS["z2"], RationalMap([0.2, 0, 1]), MAPS["z2-2"]):
        for a in tables:
            got = _fiber_power_sums(R, z, isinf, a.coeffs[:, 0], a.at)
            assert not np.any(np.signbit(got.real[got.real == 0]))
            assert not np.any(np.signbit(got.imag[got.imag == 0]))
            if a.degree_bound % 2:
                assert not got.any()
    R = MAPS["(z+1)/z3"]
    a = TestFunction.constant(0.0)
    got = _fiber_power_sums(R, np.array([0j, 0j]), np.array([False, True]),
                            a.coeffs[:, 0], a.at)
    assert not np.signbit(got.view(float)).any()


# ---------------------------------------------------------------------------
# the operators that take the route, against the leaf route
# ---------------------------------------------------------------------------

A = TestFunction.from_table({(0, 0): 0.5, (1, 0): 1.0 - 0.5j, (2, 0): 0.25,
                             (3, 0): -0.125j})


def _leaf_level(R, z, isinf, k, a):
    """Per base: the sum of a over its depth-k leaves, and of
    sum |c_j| |x|^j, both scaled d^-k."""
    absa = TestFunction.from_table({(j, 0): abs(v) for j, v in
                                    enumerate(a.coeffs[:, 0]) if v})
    w = R.degree ** k
    want, size = [], []
    for j, _, pts, inf in _leaves(R, z, isinf, k):
        if j == k:
            want.append(_row_sums(a.at(pts, inf), w))
            size.append(_row_sums(absa.at(np.abs(pts) + 0j, inf), w).real)
    return np.concatenate(want) / w, np.concatenate(size) / w


@pytest.mark.parametrize("name", ["z2", "z2-2", "t3", "lattes", "ushiki",
                                  "(2z2-1)/z"])
def test_operators_match_the_leaf_route(name):
    R = MAPS[name]
    d = R.degree
    rng = np.random.default_rng(11)
    probes = list(0.9 * rng.standard_normal(4) + 0.7j * rng.standard_normal(4))
    z, isinf = _as_arrays(probes)
    e, size = _leaf_level(R, z, isinf, 1, A)
    for y, want, bound in zip(probes, e, REL * size):
        assert abs(transfer_E(R, A, y) - want) <= bound
        assert abs(h_op(R, A, y) - d * want) <= d * bound
    # kms_defect off beta, with weights on the probes
    w = np.linspace(1.0, 2.0, z.size)
    cloud = WeightedCloud.from_arrays(z, isinf, w / w.sum(), ("test",))
    beta = math.log(d) + 0.1
    scale = d * math.exp(-beta)
    want = abs(complex(np.sum(cloud.w * (e * scale)))
               - complex(np.sum(cloud.w * A.at(z, isinf))))
    bound = REL * float(np.sum(cloud.w * size)) * scale
    assert abs(kms_defect(R, cloud, [A], beta) - want) <= bound
    # every trace level, and the Lyubich value at depth 4
    run = kms_iterate(R, A, 3, probes, lyubich_budget=d ** 4)
    for k in range(1, 4):
        want, size = _leaf_level(R, z, isinf, k, A)
        got = np.array(run.traces[k].values)
        assert np.all(np.abs(got - want) <= REL * size)
    want, size = _leaf_level(R, z[:1], isinf[:1], 4, A)
    assert abs(run.lyubich_value - want[0]) <= REL * size[0]
