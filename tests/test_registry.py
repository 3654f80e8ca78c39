"""Example catalog: metadata, builders, verification checks."""

import math

import numpy as np
import pytest

from ratdyn.errors import UnknownExample
from ratdyn.registry import get, list_examples, verify, verify_all

EXPECTED = [
    "power_map_n",
    "z2_minus_2",
    "quadratic_family",
    "full_shift_example",
    "tchebychev_n",
    "lattes",
    "ushiki_gasket",
]


def test_catalog_names():
    assert list_examples() == tuple(EXPECTED)


def test_get_unknown():
    with pytest.raises(UnknownExample):
        get("does_not_exist")


def test_metadata_literals():
    rec = get("power_map_n")
    assert rec.k0 == "Z + Z/(n-1)Z"
    assert rec.k1 == "Z"
    assert rec.default_param == 2
    assert get("z2_minus_2").k1 == "0"
    assert "O_2" in get("full_shift_example").algebra_identification
    assert get("lattes").critical_in_julia_count == 6


def test_family_builders():
    assert get("power_map_n").build(5).degree == 5
    assert get("tchebychev_n").build(4).degree == 4
    # T_3 = 4z^3 - 3z through the recurrence
    t3 = get("tchebychev_n").build(3)
    from ratdyn.ratmap import evaluate
    assert evaluate(t3, 0.3).z == pytest.approx(4 * 0.3 ** 3 - 3 * 0.3)
    c = get("quadratic_family").build(0.1 + 0.05j)
    assert evaluate(c, 0.0).z == pytest.approx(0.1 + 0.05j)


@pytest.mark.parametrize("n", [2.5, 1e3, 1, 65, 3 + 1j, float("nan"), "3",
                               True])
@pytest.mark.parametrize("name", ["power_map_n", "tchebychev_n"])
def test_family_degree_must_be_an_integer_from_2_to_64(name, n):
    with pytest.raises(ValueError, match="from 2 to 64"):
        get(name).build(n)


def test_family_degree_accepts_integral_values():
    for n in (2, 3.0, 64, np.int64(5), 7 + 0j):
        assert get("power_map_n").build(n).degree == int(n.real)


def test_chebyshev_keeps_its_critical_points_up_to_the_bound():
    # at the largest n it builds, every cos(k pi / n) comes back within
    # 1e-6; one more is refused
    from ratdyn.ratmap import critical_points
    from ratdyn.registry import CHEBYSHEV_TOP
    n = CHEBYSHEV_TOP
    crit = [c.point.z for c in critical_points(get("tchebychev_n").build(n))
            if not c.point.is_infinity]
    assert len(crit) == n - 1
    for k in range(1, n):
        assert min(abs(z - math.cos(k * math.pi / n)) for z in crit) <= 1e-6
    with pytest.raises(ValueError, match=f"up to n = {n}"):
        get("tchebychev_n").build(n + 1)


def test_verify_refuses_a_parameter_without_a_family():
    with pytest.raises(ValueError, match="takes no parameter"):
        verify("lattes", param=3)


def test_default_map_property():
    assert get("lattes").map.degree == 4
    assert get("ushiki_gasket").map.degree == 3


def test_verify_single_example():
    rep = verify("z2_minus_2")
    assert rep["passed"] is True
    names = [c["check"] for c in rep["checks"]]
    assert names == ["julia_interval_band", "critical_points_in_julia",
                     "tent_conjugacy"]
    by_name = {c["check"]: c for c in rep["checks"]}
    assert by_name["critical_points_in_julia"]["measured"] == 1
    assert by_name["tent_conjugacy"]["conjugacy_defect"] < 1e-10


def test_verify_with_param():
    rep = verify("power_map_n", param=3)
    assert rep["passed"] is True


@pytest.mark.parametrize("name,n", [
    ("power_map_n", 6), ("power_map_n", 16), ("tchebychev_n", 8)])
def test_verify_passes_where_fixed_sizes_overran(name, n):
    # z^6 and z^16 need more than 8 frame arcs and fewer than 8 KMS levels,
    # T8 a Lyubich tree shallower than 7; each size comes from the map
    rep = verify(name, param=n)
    assert rep["passed"] is True, rep


def test_verify_unknown_raises():
    with pytest.raises(UnknownExample):
        verify("nope")


def test_verify_all_shapes():
    out = verify_all()
    assert out["passed"] is True
    assert [r["name"] for r in out["reports"]] == EXPECTED
    assert all(r["passed"] for r in out["reports"])


def test_verify_reports_a_crashed_check(monkeypatch):
    from ratdyn import registry

    def boom(rec, R, seed, sample):
        raise ValueError("boom")

    monkeypatch.setitem(registry._CHECKS, "riemann_hurwitz", boom)
    rep = verify("full_shift_example")
    assert rep["passed"] is False
    by_name = {c["check"]: c for c in rep["checks"]}
    assert by_name["riemann_hurwitz"] == {
        "passed": False, "error": "ValueError: boom",
        "check": "riemann_hurwitz"}
    assert by_name["degree_and_fiber_sums"]["passed"] is True


@pytest.mark.parametrize("name", ["power_map_n", "tchebychev_n"])
def test_verify_walks_each_cloud_once(monkeypatch, name):
    from ratdyn import registry
    walk = registry.sample_inverse_iteration
    calls = []

    def counted(R, start, **kw):
        calls.append((start, kw["count"]))
        return walk(R, start, **kw)

    monkeypatch.setattr(registry, "sample_inverse_iteration", counted)
    rep = verify(name)
    assert len(calls) == 1
    # each check on a walk of its own reports what the shared walk gave
    rec = get(name)
    alone = [dict(registry._CHECKS[c](
        rec, rec.map, 0, lambda start, count: walk(
            rec.map, start, count=count, seed=0,
            walkers=registry._STAT_WALKERS)),
        check=c) for c in rec.verifiable_checks]
    assert len(calls) == 1
    assert rep["checks"] == alone


@pytest.mark.parametrize("name,start,count,scale", [
    ("tchebychev_n", 0.3, 12000, 1.0), ("z2_minus_2", 1.0, 8000, 0.5)])
def test_verify_clouds_follow_the_arcsine_law(name, start, count, scale):
    # the wide walks verify draws at seed 0 are still unbiased: their
    # moments are the arcsine law's on [-1, 1], odd 0, even C(k, k/2) / 2^k
    from ratdyn.julia import _STAT_WALKERS, sample_inverse_iteration
    cloud = sample_inverse_iteration(get(name).map, start, count=count,
                                     seed=0, walkers=_STAT_WALKERS)
    x = scale * cloud.finite_values().real
    assert x.size == count
    for k in range(1, 7):
        want = math.comb(k, k // 2) / 2.0 ** k if k % 2 == 0 else 0.0
        assert abs(np.mean(x ** k) - want) <= 0.02, k
