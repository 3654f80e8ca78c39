"""Function-level operator identities and KMS iteration."""

import csv
import math

import numpy as np
import pytest

from ratdyn.errors import EvaluationAtInfinity, TabulationMiss
from ratdyn.numkernel import SpherePoint
from ratdyn.transfer import (
    TestFunction,
    alpha,
    entropy,
    h_op,
    kms_defect,
    kms_iterate,
    lemma31_defect,
    transfer_E,
    write_trace_csv,
)
from ratdyn.measure import lyubich_exact, integrate


def test_testfunction_monomials():
    f = TestFunction.monomial(2, 1, 0.5)       # 0.5 z^2 zbar
    z = 1 + 2j
    assert f(z) == pytest.approx(0.5 * z ** 2 * np.conj(z))
    assert TestFunction.constant(3.0)(SpherePoint.infinity()) == 3.0
    with pytest.raises(EvaluationAtInfinity):
        TestFunction.monomial(1)(SpherePoint.infinity())
    g = TestFunction.from_table({(0, 0): 2.0, (1, 0): 0.5, (0, 1): 0.5})
    assert g(1j) == pytest.approx(2.0 + 0.5j - 0.5j)
    assert g(0.4) == pytest.approx(2.4)


def test_testfunction_tabulated():
    f = TestFunction.tabulated([0.0, 1.0, 2.0], [5.0, 6.0, 7.0], radius=0.1)
    assert f(1.0 + 1e-4j) == pytest.approx(6.0)
    with pytest.raises(TabulationMiss):
        f(10.0)


def test_h_and_expectation(z2):
    # h sums over the fiber with multiplicity; E divides by the degree
    one = TestFunction.constant(1.0)
    y = SpherePoint.finite(0.73 + 0.2j)
    assert h_op(z2, one, y) == pytest.approx(2.0)
    assert transfer_E(z2, one, y) == pytest.approx(1.0)
    # E(z) over the symmetric fiber of z^2 vanishes
    assert abs(transfer_E(z2, TestFunction.monomial(1), y)) < 1e-12


def test_alpha_is_pullback(zm2):
    a = TestFunction.monomial(2)
    aR = alpha(zm2, a)
    x = 0.3 - 0.8j
    Rx = x ** 2 - 2
    assert aR(x) == pytest.approx(Rx ** 2)


def test_lemma31_identities(z2, zm2, lattes, rng):
    probes = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    for R in (z2, zm2, lattes):
        a = TestFunction.monomial(1, 1)
        b = TestFunction.monomial(2)
        assert lemma31_defect(R, a, b, probes) < 1e-9


def test_kms_traces_collapse(z2, cloud_z2):
    probes = cloud_z2.points[::800]
    run = kms_iterate(z2, TestFunction.monomial(1), 6, probes)
    assert run.beta == pytest.approx(math.log(2.0))
    assert len(run.traces) == 7          # levels 0..6
    # Sum over the fiber of z^2 of x cancels: constant (zero) by level 1
    assert run.traces[1].sup_variation < 1e-12
    assert abs(run.final_constant) < 1e-12
    assert run.lyubich_gap < 1e-3


def test_kms_levels_against_per_point_sums(z2, t3):
    # each level against a plain loop over the depth-k fiber, and the
    # Lyubich value against integration over the exact pullback cloud
    from ratdyn.julia import sample_inverse_iteration
    from ratdyn.ratmap import preimage_tree
    a = TestFunction.from_table({(0, 0): 0.5, (2, 0): 1.0, (1, 1): 0.25,
                                 (0, 3): 0.125j})
    for R, start, tol in ((z2, 0.9 + 0.3j, 0.0), (t3, 0.3, 1e-12)):
        d = R.degree
        probes = sample_inverse_iteration(R, start, count=400,
                                          seed=0).points[::100]
        run = kms_iterate(R, a, 4, probes, lyubich_budget=4096)
        for k in range(1, 5):
            for y, got in zip(probes, run.traces[k].values):
                total = 0j
                for q, e in preimage_tree(R, y, k).entries:
                    total += e * complex(a(q))
                assert abs(got - total / d ** k) <= tol
        depth = int(math.floor(math.log(4096) / math.log(d)))
        want = integrate(lyubich_exact(R, probes[0], depth), a)
        assert abs(run.lyubich_value - want) <= tol
        # plain Python numbers, so reports serialize as JSON
        assert type(run.final_constant) is complex
        assert type(run.lyubich_value) is complex
        assert type(run.lyubich_gap) is float
        assert all(type(v) is complex for t in run.traces for v in t.values)


def test_kms_monotone_for_z(z2, t2, t3):
    from ratdyn.ratmap import RationalMap
    from ratdyn.julia import sample_inverse_iteration
    cases = [(z2, 0.9 + 0.3j), (t2, 0.3), (t3, 0.3),
             (RationalMap([0.2, 0, 1], [1]), 0.9 + 0.3j)]
    for R, start in cases:
        cloud = sample_inverse_iteration(R, start, count=400, seed=0)
        run = kms_iterate(R, TestFunction.monomial(1), 6, cloud.points[::80])
        vs = [t.sup_variation for t in run.traces]
        assert all(vs[i + 1] <= vs[i] + 1e-9 for i in range(len(vs) - 1))


def test_kms_iterate_rejects_empty_probes(z2, monkeypatch):
    import ratdyn.transfer as transfer

    def no_leaves(*args):
        raise AssertionError("leaves were expanded")
    monkeypatch.setattr(transfer, "_leaves", no_leaves)
    with pytest.raises(ValueError, match="at least one probe"):
        kms_iterate(z2, TestFunction.monomial(1), 3, [])


def test_kms_hypothesis_tag(z2, zm2, cloud_z2, cloud_zm2):
    probes_ok = cloud_z2.points[::800]
    ok = kms_iterate(z2, TestFunction.constant(1.0), 2, probes_ok,
                     julia_sample=cloud_z2)
    assert "outside theorem hypothesis" not in ok.hypothesis
    bad = kms_iterate(zm2, TestFunction.constant(1.0), 2,
                      cloud_zm2.points[::800], julia_sample=cloud_zm2)
    assert "outside theorem hypothesis" in bad.hypothesis
    # an empty sample flags no critical point
    empty = kms_iterate(zm2, TestFunction.constant(1.0), 2,
                        cloud_zm2.points[::800], julia_sample=())
    assert empty.hypothesis == "within theorem hypothesis"


def test_kms_defect_pinned_and_falsified(t2):
    mu = lyubich_exact(t2, 0.3, 10)
    tests = [TestFunction.constant(1.0), TestFunction.monomial(1)]
    # at beta = log d the fixed-point equation holds up to truncation
    assert kms_defect(t2, mu, tests) < 1e-6
    # at beta' = log d + 0.1 the constant already violates it by 1 - e^-0.1
    bad = kms_defect(t2, mu, [TestFunction.constant(1.0)],
                     beta=math.log(2.0) + 0.1)
    assert bad == pytest.approx(abs(math.exp(-(math.log(2.0) + 0.1)) * 2 - 1),
                                abs=1e-12)


def test_entropy(z2, t3, lattes):
    assert entropy(z2).value == pytest.approx(math.log(2.0))
    assert entropy(t3).value == pytest.approx(math.log(3.0))
    assert entropy(lattes).value == pytest.approx(math.log(4.0))


def test_trace_csv(tmp_path, z2, cloud_z2):
    run = kms_iterate(z2, TestFunction.monomial(1), 4, cloud_z2.points[::800])
    p = tmp_path / "trace.csv"
    write_trace_csv(p, run.traces)
    q = tmp_path / "trace2.csv"
    write_trace_csv(q, run.traces)
    assert p.read_bytes() == q.read_bytes()
    with open(p) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["level", "probe_index", "re", "im"]
    nprobes = len(run.traces[0].values)
    assert len(rows) == 1 + len(run.traces) * nprobes


def test_kms_hypothesis_reads_any_sample(z2, zm2, cloud_z2, cloud_zm2):
    one = TestFunction.constant(1.0)
    for R, cloud, tag in ((z2, cloud_z2, "within theorem hypothesis"),
                          (zm2, cloud_zm2, "outside theorem hypothesis")):
        probes = cloud.points[::800]
        for sample in (cloud, cloud.points, list(cloud.points),
                       (p for p in cloud.points)):
            run = kms_iterate(R, one, 2, probes, julia_sample=sample)
            assert run.hypothesis == tag
        # without a sample the probes are read once, a generator too
        want = kms_iterate(R, one, 2, probes)
        run = kms_iterate(R, one, 2, (p for p in probes))
        assert run == want
