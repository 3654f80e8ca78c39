"""The one map evaluator against the scalar route it replaced, bit for bit.

`_ref_evaluate` and its helpers copy that scalar route: Horner in Python's
complex arithmetic, the chart chosen by Python's abs, the reciprocal by
Python's division, num / den by numpy's scalar division, and l'Hopital's
rule for an exact 0/0. Every comparison is on float bits
(`view(np.uint64)`).
"""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratdyn import registry
from ratdyn.numkernel import SpherePoint, _quotient, poly_eval
from ratdyn.ratmap import (RationalMap, _evaluate_arrays, critical_points,
                           evaluate, preimages, value_at_infinity)
from ratdyn.registry import get, list_examples

DROP = RationalMap([1, 0, 0, 1], [0, -1, 0, 2])   # R(infinity) = 1/2
MAPS = {name: get(name).map for name in list_examples()}
MAPS["drop"] = DROP
# maps with a common factor, built unchecked: each has exact 0/0 points
COMMON = {
    "z/z": (RationalMap._raw([0, 1], [0, 1]), [0j, 1e-200]),
    "tiny z/z": (RationalMap._raw([0, 1e-200], [0, 1e-200]),
                 [1e-200, 1e-170j, -0.0]),
    "(z-2)/(z-2)": (RationalMap._raw([-2, 1], [-2, 1]), [2.0, 2 + 0j]),
    "(z-1)^2/(z-1)^2": (RationalMap._raw([1, -2, 1], [1, -2, 1]), [1.0]),
    "z^2/z": (RationalMap._raw([0, 0, 1], [0, 1]), [0j, -0.0]),
    "z/(1e-320 z)": (RationalMap._raw([0, 1], [0, 1e-320]), [0j, 1e-10]),
}


def bits(x):
    return np.ascontiguousarray(x, dtype=complex).view(np.uint64).tolist()


def _ref_poly_eval(coeffs, z):
    c = np.asarray(coeffs, dtype=complex)
    acc = 0j
    for k in range(c.size - 1, -1, -1):
        acc = acc * z + c[k]
    return acc


def _ref_derivative(coeffs):
    c = np.asarray(coeffs, dtype=complex)
    if c.size <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, c.size)


def _ref_eval_ratio(num_c, den_c, z):
    num = _ref_poly_eval(num_c, z)
    den = _ref_poly_eval(den_c, z)
    while num == 0 and den == 0 and (len(num_c) > 1 or len(den_c) > 1):
        num_c = _ref_derivative(num_c)
        den_c = _ref_derivative(den_c)
        num = _ref_poly_eval(num_c, z)
        den = _ref_poly_eval(den_c, z)
    if den == 0:
        return SpherePoint.infinity()
    return SpherePoint.from_value(num / den)


@np.errstate(over="ignore", invalid="ignore")   # poles warn here
def _ref_evaluate(R, zv, isinf):
    if isinf:
        return _ref_eval_ratio(R._rp, R._rq, 0j)
    if abs(zv) <= 1.0:
        return _ref_eval_ratio(R._p_pad, R._q_pad, zv)
    return _ref_eval_ratio(R._rp, R._rq, 1.0 / zv)


def _probe_points(R, seed):
    """4 000 points in both charts, with infinity, signed zeros, the unit
    circle, poles, preimages of R(infinity), critical points and extreme
    moduli among them."""
    rng = np.random.default_rng(seed)
    # on the unit circle, abs and hypot can pick different charts
    x = np.linspace(-0.999, 0.999, 400)
    z = np.concatenate([
        (rng.normal(size=1700) + 1j * rng.normal(size=1700)) * 0.6,
        (rng.normal(size=1700) + 1j * rng.normal(size=1700)) * 4.0,
        x + 1j * np.sqrt(1.0 - x * x)])
    special = [complex(a, b) for a in (0.0, -0.0, 1.0, -1.0, 3.0)
               for b in (0.0, -0.0, 1.0, -1e-300)]
    special += [np.exp(1j * t) for t in np.linspace(0, 6.3, 20)]
    special += [1 + 1e-16, 1 - 1e-16, 1e-200, 1e200, -1e300j, 5e-324]
    for w in (value_at_infinity(R), SpherePoint.infinity(), 0.5):
        special += [p for p, _ in preimages(R, w).entries]
    special += [c.point for c in critical_points(R)]
    pts = [SpherePoint.from_value(p) for p in special]
    pts += [SpherePoint.infinity()] * 3
    z = np.concatenate([z, [p.z for p in pts],
                        np.zeros(4000 - z.size - len(pts))])
    isinf = np.zeros(z.size, dtype=bool)
    isinf[3800:3800 + len(pts)] = [p.is_infinity for p in pts]
    return z, isinf


def _assert_matches(R, z, isinf, points=True):
    ref = [_ref_evaluate(R, complex(a), bool(f)) for a, f in zip(z, isinf)]
    want = bits([p.z for p in ref]), [p.is_infinity for p in ref]
    w, inf = _evaluate_arrays(R, z, isinf)
    assert (bits(w), inf.tolist()) == want
    if points:
        got = [evaluate(R, SpherePoint(a, f)) for a, f in zip(z, isinf)]
        assert (bits([p.z for p in got]),
                [p.is_infinity for p in got]) == want
        assert all(type(p.z) is complex for p in got)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_evaluator_matches_the_scalar_route(name):
    R = MAPS[name]
    _assert_matches(R, *_probe_points(R, len(name)))


@pytest.mark.parametrize("name", sorted(COMMON))
def test_exact_zero_over_zero_takes_lhopital(name):
    # the 0/0 points among ordinary rows of both charts and infinity
    R, special = COMMON[name]
    z = np.array(list(special) + [0.3 - 0.2j, 5.0, -0.7j, 0j, 2.5 + 1j] * 3,
                 dtype=complex)
    isinf = np.zeros(z.size, dtype=bool)
    isinf[len(special) + 3] = True
    _assert_matches(R, z, isinf)


def test_the_zero_over_zero_rows_are_exact():
    assert evaluate(COMMON["z/z"][0], 0j) == SpherePoint(1 + 0j)
    assert evaluate(COMMON["tiny z/z"][0], 1e-200) == SpherePoint(1 + 0j)
    assert evaluate(COMMON["(z-2)/(z-2)"][0], 2.0) == SpherePoint(1 + 0j)
    assert evaluate(COMMON["z^2/z"][0], 0j) == SpherePoint(0j)
    assert evaluate(COMMON["z/(1e-320 z)"][0], 1e-10).is_infinity


def test_map_call_returns_a_sphere_point():
    R = MAPS["lattes"]
    assert R(0j).is_infinity and R(SpherePoint.infinity()).is_infinity
    assert R(1j) == SpherePoint(evaluate(R, 1j).z)


_EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
         -1e-300, 1e300, -1e300, 1.7e308, 1.0, -1.0, 3.0]
_PART = st.one_of(st.sampled_from(_EDGE),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.floats(min_value=1e290, max_value=1e308),
                  st.floats(min_value=1e-310, max_value=1e-290))


@st.composite
def _divisors(draw):
    re, im = draw(_PART), draw(_PART)
    shape = draw(st.sampled_from(["both", "real", "imag"]))
    if shape == "real":
        im = draw(st.sampled_from([0.0, -0.0]))
    elif shape == "imag":
        re = draw(st.sampled_from([0.0, -0.0]))
    if re == 0.0 and im == 0.0:
        re = 1.0
    return complex(re, im)


def _same(got, want):
    """Equal bits, except that NaN parts need only both be NaN."""
    g = np.array([got]).view(np.float64)
    w = np.array([want]).view(np.float64)
    nan = np.isnan(w)
    return (np.isnan(g) == nan).all() and \
        (g[~nan].view(np.uint64) == w[~nan].view(np.uint64)).all()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.builds(complex, _PART, _PART), _divisors()),
                min_size=1, max_size=40))
def test_quotient_rounds_as_python(pairs):
    a = np.array([p for p, _ in pairs], dtype=complex)
    b = np.array([q for _, q in pairs], dtype=complex)
    got, ones, real = _quotient(a, b), _quotient(1.0, b), _quotient(a, b.real)
    for k, (p, q) in enumerate(pairs):
        assert _same(got[k], p / q), (p, q)
        assert _same(ones[k], 1.0 / q), q
        if q.real:   # a real divisor, as complex(x, y) / (1.0 - w) has
            assert _same(real[k], p / q.real), (p, q.real)


def _unit_vectors(seed):
    # the stereographic inputs of the sphere-coverage check
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    v = rng.normal(size=(4000, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_stereographic_points_divide_as_python(seed):
    v = _unit_vectors(seed)
    z = np.empty(len(v), dtype=complex)
    z.real, z.imag = v[:, 0], v[:, 1]
    got = _quotient(z, 1.0 - v[:, 2])
    want = [complex(x, y) / (1.0 - w) for x, y, w in v]
    assert bits(got) == bits(want)


@pytest.mark.parametrize("name,seed", [("lattes", 0), ("lattes", 1),
                                       ("lattes", 7), ("ushiki_gasket", 0),
                                       ("full_shift_example", 0)])
def test_sphere_coverage_takes_the_scalar_steps(monkeypatch, name, seed):
    R = MAPS[name]
    pts = []
    for x, y, w in _unit_vectors(seed):
        if w > 1.0 - 1e-12:
            pts.append(SpherePoint.infinity())
        else:
            pts.append(SpherePoint.finite(complex(x, y) / (1.0 - w)))
    for _ in range(3):
        pts = [_ref_evaluate(R, p.z, p.is_infinity) for p in pts]
    seen = []
    embed = registry.sphere_embed
    monkeypatch.setattr(registry, "sphere_embed",
                        lambda z, isinf: seen.append((z, isinf)) or
                        embed(z, isinf))
    out = registry._check_sphere_coverage(None, R, seed, None)
    (z, isinf), = seen
    assert bits(z) == bits([p.z for p in pts])
    assert isinf.tolist() == [p.is_infinity for p in pts]
    assert out["max_gap_after_3_steps"] > 0.0


def test_poly_eval_matches_the_scalar_horner():
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.normal(size=300) + 1j * rng.normal(size=300),
                        [0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                         complex(-0.0, -0.0), -1.0, 1e-200j, 1e40]])
    for d in range(7):
        c = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        c[rng.random(d + 1) < 0.3] = 0.0
        c[0] = complex(-0.0, -0.0)
        # all parts -0: the signs of every zero product show in the value
        zero = np.full(d + 1, complex(-0.0, -0.0))
        assert bits(poly_eval(zero, z)) == \
            bits([_ref_poly_eval(zero, complex(x)) for x in z])
        want = [_ref_poly_eval(c, complex(x)) for x in z]
        assert bits(poly_eval(c, z)) == bits(want)
        one = poly_eval(c, complex(z[5]))
        assert isinstance(one, np.complex128)
        assert bits([one]) == bits(want[5:6])
        # a (d + 1, 2, n) table: each column is its own polynomial
        table = np.repeat(np.stack([c, c[::-1]], axis=1)[:, :, None],
                          z.size, axis=2)
        got = poly_eval(table, z)
        assert bits(got[1]) == bits([_ref_poly_eval(c[::-1], complex(x))
                                     for x in z])
        assert bits(got[0]) == bits(want)


_DIGESTS = r"""
import hashlib
import numpy as np
from ratdyn.numkernel import SpherePoint, _quotient, poly_eval
from ratdyn.ratmap import RationalMap, _evaluate_arrays, evaluate
from ratdyn.registry import get, list_examples

h = hashlib.sha256()
maps = [get(name).map for name in list_examples()]
maps += [RationalMap([1, 0, 0, 1], [0, -1, 0, 2]),
         RationalMap._raw([0, 1e-200], [0, 1e-200])]
rng = np.random.default_rng(3)
for R in maps:
    for scale in (0.6, 4.0):
        z = (rng.normal(size=4000) + 1j * rng.normal(size=4000)) * scale
        z[:4] = 0j, 1e-200, 1.0, complex(-0.0, 0.5)
        isinf = np.zeros(z.size, dtype=bool)
        isinf[::97] = True
        w, inf = _evaluate_arrays(R, np.where(isinf, 0j, z), isinf)
        h.update(w.tobytes() + inf.tobytes())
        for x in z[:200]:
            p = evaluate(R, complex(x))
            h.update(np.array([p.z]).tobytes() + bytes([p.is_infinity]))
        h.update(poly_eval(R._p_pad, z).tobytes())
        h.update(_quotient(z, z[::-1] + 2.0).tobytes())
# escape renders: z^2, z^2 - 0.75 and a cubic
from ratdyn.julia import render
for p, res in (([0, 0, 1], 128), ([-0.75, 0, 1], 128),
               ([0.1 + 0.2j, 0.3, 0, 1], 96)):
    h.update(render(RationalMap(p), (-1.6, 1.6, -1.6, 1.6), res,
                    mode="escape").tobytes())
# monomial tables, each through its nonzero terms
from ratdyn.transfer import TestFunction
z = (rng.normal(size=20000) + 1j * rng.normal(size=20000)) * 1.5
for tf in (TestFunction.monomial(3), TestFunction.monomial(2, 1, 0.5j),
           TestFunction.from_table({(0, 0): 2.9, (1, 0): 0.2 - 0.1j,
                                    (0, 1): 0.2 + 0.1j, (2, 0): 0.05j,
                                    (0, 2): -0.05j}),
           TestFunction.from_table({(0, 0): 1.0, (3, 2): -0.5,
                                    (1, 4): 0.25 + 1j})):
    h.update(tf.at(z, np.zeros(z.size, dtype=bool)).tobytes())
# a KMS run of a holomorphic table on z^2: the power sums of its fibers
from ratdyn.transfer import kms_iterate
run = kms_iterate(RationalMap([0, 0, 1]),
                  TestFunction.from_table({(0, 0): 0.5, (1, 0): 1.0,
                                           (2, 0): 0.25 - 0.5j, (5, 0): 0.1,
                                           (8, 0): -0.05j}),
                  6, list(z[:8] * 0.7), lyubich_budget=4096)
for t in run.traces:
    h.update(np.array(t.values).tobytes())
h.update(np.array([run.lyubich_value]).tobytes())
# R o R of random complex quadratics, whose products np.convolve and
# numpy's complex * would round by the BLAS core and the dispatch level,
# and KMS runs on two quadratics that sum over its fibers; two levels
# grow no tree, whose fiber solves on these maps still round their
# products by the dispatch level
from ratdyn.ratmap import compose
for c in rng.normal(size=(50, 3, 2)) @ np.array([1.0, 1j]):
    R2 = compose(RationalMap(c), RationalMap(c))
    h.update(R2._p.tobytes() + R2._q.tobytes())
for R in (RationalMap([0.3 + 0.5j, 0, 1]), RationalMap([-1, 0, 2], [0, 1])):
    run = kms_iterate(R, TestFunction.from_table({(0, 0): 0.5, (1, 0): 1.0,
                                                  (3, 0): 0.25 - 0.5j,
                                                  (8, 0): -0.05j,
                                                  (64, 0): 1e-3}),
                      2, list(z[8:72] * 0.7), lyubich_budget=4)
    for t in run.traces:
        h.update(np.array(t.values).tobytes())
    h.update(np.array([run.lyubich_value]).tobytes())
print(h.hexdigest())
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="numpy's dispatch levels are those of x86-64")
def test_same_bits_at_every_dispatch_level():
    # the baseline level X86_V2 has no FMA and no AVX2 or AVX-512 loops,
    # and OpenBLAS's Prescott kernels (which np.convolve's complex dot
    # products reach) none either
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_ENABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    digests = []
    for extra in ({}, {"NPY_ENABLE_CPU_FEATURES": "X86_V2"},
                  {"OPENBLAS_CORETYPE": "Prescott"}):
        out = subprocess.run([sys.executable, "-c", _DIGESTS],
                             capture_output=True, text=True, timeout=300,
                             env=dict(env, **extra))
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1] == digests[2]
