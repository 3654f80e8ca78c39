"""Inner products, frames, expansion time, simplicity witnesses."""

import cmath
import math

import numpy as np
import pytest

from ratdyn.errors import BudgetExceeded, CoverTooCoarse, FrameUnavailable
from ratdyn.julia import sample_inverse_iteration
from ratdyn.numkernel import SpherePoint
from ratdyn.ratmap import preimage_tree, preimages
from ratdyn.bimodule import (
    GraphFunction,
    ProductOnGraph,
    build_frame,
    expansion_time,
    frame_delta_defect,
    frame_reconstruction_defect,
    inner_product,
    ix_distance,
    norm_sup,
    norm_two,
    normalized_witness,
    simplicity_witness,
    tensor_embed,
    write_witness_json,
)
from ratdyn.transfer import TestFunction


def _mono(j, k=0, c=1.0):
    return GraphFunction(1, TestFunction.monomial(j, k, c))


def test_inner_product_brute_force(z2, rng):
    # depth-2 inner product vs a hand-rolled double fiber loop
    f = GraphFunction(2, lambda p: p.z + 0.5)
    g = GraphFunction(2, lambda p: p.z ** 2 - 1j)
    for _ in range(5):
        y = complex(rng.standard_normal(), rng.standard_normal())
        got = inner_product(z2, 2, f, g, y)
        want = 0j
        for q1, e1 in preimages(z2, y).entries:
            for q2, e2 in preimages(z2, q1).entries:
                want += e1 * e2 * np.conj(f(q2)) * g(q2)
        assert got == pytest.approx(want, abs=1e-10)


def test_inner_product_arity_checked(z2):
    with pytest.raises(ValueError):
        inner_product(z2, 2, _mono(1), _mono(1), 0.5)


def test_constant_inner_product_counts_degree(z2, lattes):
    one = GraphFunction(1, TestFunction.constant(1.0))
    for R in (z2, lattes):
        v = inner_product(R, 1, one, one, 0.73 + 0.2j)
        assert v.real == pytest.approx(R.degree, abs=1e-9)


def test_norm_sandwich_spot(z2, cloud_z2):
    probes = cloud_z2.points[::400]
    fiber_pts = [q for y in probes for q, _ in preimages(z2, y).entries]
    for f in (_mono(1), _mono(2, 1, 0.7), _mono(0, 0, -2.0)):
        ninf = norm_sup(f, fiber_pts)
        n2 = norm_two(z2, 1, f, probes)
        assert ninf <= n2 + 1e-9
        assert n2 <= math.sqrt(2.0) * ninf + 1e-9


def test_tensor_embed_values(z2):
    F = tensor_embed(z2, [_mono(1), _mono(1)])
    x = 0.5 + 0.25j
    assert F(x) == pytest.approx(x * x ** 2)     # f1(x) f2(R x)
    assert F.arity == 2
    with pytest.raises(ValueError):
        tensor_embed(z2, [])
    with pytest.raises(ValueError):
        tensor_embed(z2, [GraphFunction(2, lambda p: 1.0)])


def test_product_on_graph():
    a = TestFunction.constant(2.0)
    f = GraphFunction(3, TestFunction.monomial(1))
    af = ProductOnGraph(a, f)
    assert af.arity == 3
    assert af(1 + 1j) == pytest.approx(2 * (1 + 1j))


# --- frames ---------------------------------------------------------------

def test_frame_on_circle(z2, cloud_z2):
    frame = build_frame(z2, cloud_z2)
    assert len(frame.members) >= 2
    probes = cloud_z2.points[::400]
    assert frame_delta_defect(z2, frame, probes) < 1e-9
    recon = frame_reconstruction_defect(z2, frame, _mono(1),
                                        cloud_z2.points[::200])
    assert recon < 1e-8


def test_frame_refuses_interval(zm2, cloud_zm2):
    # the critical point 0 lies on J(z^2-2): no continuous arc frame
    with pytest.raises(FrameUnavailable):
        build_frame(zm2, cloud_zm2)


def _registry_frame(R):
    # the frame check's own cloud: 2000 points of 64 walks from 1.3
    from ratdyn.julia import _STAT_WALKERS
    cloud = sample_inverse_iteration(R, 1.3, count=2000, seed=0,
                                     walkers=_STAT_WALKERS)
    return build_frame(R, cloud), cloud


@pytest.mark.parametrize("n,members", [(6, 10), (16, 25)])
def test_frame_arcs_follow_the_fiber_gap(n, members):
    # z^n's mates sit about 2 pi / n apart, too close for 8 arcs of support
    # 3 pi / 8: the cover takes the fewest arcs whose supports fit the gap
    from ratdyn.registry import get
    R = get("power_map_n").build(n)
    frame, cloud = _registry_frame(R)
    assert len(frame.members) == members
    assert frame_delta_defect(R, frame, cloud[::100]) <= 1e-9


@pytest.mark.parametrize("name,param,outcome", [
    ("power_map_n", None, 8), ("power_map_n", 3, 8),
    ("quadratic_family", None, 8), ("full_shift_example", None, 8),
    ("z2_minus_2", None, FrameUnavailable),
    ("tchebychev_n", None, FrameUnavailable),
    ("lattes", None, CoverTooCoarse), ("ushiki_gasket", None, CoverTooCoarse)])
def test_frame_outcome_of_every_registry_default(name, param, outcome):
    # 8 arcs where 8 fit; Lattes' and Ushiki's closest mates lie below
    # pi / d, and a critical point on J allows no frame at all
    from ratdyn.registry import get
    rec = get(name)
    R = rec.build(rec.default_param if param is None else param)
    if isinstance(outcome, int):
        assert len(_registry_frame(R)[0].members) == outcome
    else:
        with pytest.raises(outcome):
            _registry_frame(R)


# --- expansion time -------------------------------------------------------

def test_expansion_time_quarter_arc(z2, cloud_z2):
    # V = arc of angular radius pi/8 at 1: doubling needs 3 steps to cover
    # the circle, matching the hand-computed covering exponent
    radius = abs(cmath.exp(1j * math.pi / 8) - 1.0)
    n = expansion_time(z2, (1.0 + 0j, radius), cloud_z2, 1e-3)
    assert n == 3


def test_expansion_time_whole_set_is_zero(z2, cloud_z2):
    n = expansion_time(z2, (1.0 + 0j, 2.0), cloud_z2, 1e-3)
    assert n == 0


def test_expansion_time_interval_disc(zm2, cloud_zm2):
    n = expansion_time(zm2, (0.0 + 0j, 0.1), cloud_zm2, 1e-2)
    assert n == 7


def test_expansion_time_requires_overlap(z2, cloud_z2):
    with pytest.raises(ValueError):
        expansion_time(z2, (5.0 + 0j, 0.05), cloud_z2, 1e-3)


def test_expansion_time_budget(z2, cloud_z2):
    # center the tiny disc on an actual sample so V is nonempty
    c = cloud_z2.points[0].z
    with pytest.raises(BudgetExceeded):
        expansion_time(z2, (c, 1e-4), cloud_z2, 1e-6, budget=2)


# --- witnesses ------------------------------------------------------------

def test_witness_frozen_case(z2, cloud_z2):
    # a = 2 + Re z, maximum 3 at x0 = 1
    a = TestFunction.from_table({(0, 0): 2.0, (1, 0): 0.5, (0, 1): 0.5})
    n, f, rep = simplicity_witness(z2, a, 0.2, cloud_z2)
    assert n == 6
    assert rep["norm_a"] == pytest.approx(3.0, abs=1e-6)
    assert rep["passed"] is True
    assert abs(rep["ff_min"] - 1.0) <= 1e-8 and abs(rep["ff_max"] - 1.0) <= 1e-8
    assert rep["faf_min"] >= rep["norm_a"] - 0.2 - 1e-8
    assert rep["faf_max"] <= rep["norm_a"] + 1e-8
    # the witness is supported near the maximizer and normalized there
    assert abs(complex(f(1.0 + 0j))) > 0.1


def test_witness_constant_function(z2, cloud_z2):
    # for a = 1 the bump passes through exactly: (f|af) = (f|f) = 1
    a = TestFunction.constant(1.0)
    n, f, rep = simplicity_witness(z2, a, 0.1, cloud_z2)
    assert rep["faf_min"] == pytest.approx(1.0, abs=1e-12)
    assert rep["faf_max"] == pytest.approx(1.0, abs=1e-12)


def test_witness_interval_case(zm2, cloud_zm2):
    class AbsRe:
        label = "2 - |Re x|"
        def __call__(self, p):
            return 2.0 - abs(p.z.real)
    n, f, rep = simplicity_witness(zm2, AbsRe(), 0.3, cloud_zm2)
    assert n == 8
    assert rep["passed"] is True
    assert rep["faf_min"] >= rep["norm_a"] - 0.3 - 1e-8
    assert rep["faf_max"] <= rep["norm_a"] + 1e-8


def test_witness_rejects_bad_inputs(z2, cloud_z2):
    with pytest.raises(ValueError):
        simplicity_witness(z2, TestFunction.monomial(1), 0.1, cloud_z2)
    with pytest.raises(ValueError):
        simplicity_witness(z2, TestFunction.constant(1.0), 2.0, cloud_z2)


@pytest.mark.parametrize("case", ["z2", "zm2"])
def test_witness_callables_recover_the_report(case, request):
    # f and u through their public callables, summed here over fibers of
    # the probes, give back the sums the report took from its own table
    R = request.getfixturevalue(case)
    cloud = request.getfixturevalue("cloud_" + case)
    a = TestFunction.from_table({(0, 0): 2.0, (1, 0): 0.25, (0, 1): 0.25,
                                 (2, 0): 0.1j, (0, 2): -0.1j})
    probes = cloud.points[::1500]
    n, f, rep = simplicity_witness(R, a, 0.3, cloud, probe_ys=probes)
    u, urep = normalized_witness(R, a, 0.3, cloud, probe_ys=probes)
    assert urep["n"] == n
    sums = {"ff": [], "faf": [], "uau": [], "uu": []}
    for y in probes:
        fib = preimage_tree(R, y, n)
        e = np.array(fib.indices(), dtype=float)
        av = np.array([complex(a(q)).real for q, _ in fib.entries])
        f2 = np.abs([complex(f(q)) for q, _ in fib.entries]) ** 2
        u2 = np.abs([complex(u(q)) for q, _ in fib.entries]) ** 2
        sums["ff"].append(np.sum(e * f2))
        sums["faf"].append(np.sum(e * f2 * av))
        sums["uau"].append(np.sum(e * u2 * av))
        sums["uu"].append(np.sum(e * u2))
    for key in ("ff", "faf", "uau"):
        assert min(sums[key]) == pytest.approx(urep[key + "_min"], abs=1e-8)
        assert max(sums[key]) == pytest.approx(urep[key + "_max"], abs=1e-8)
        if key != "uau":
            assert rep[key + "_min"] == urep[key + "_min"]
    assert math.sqrt(max(sums["uu"])) == pytest.approx(urep["norm_two_u"],
                                                        abs=1e-8)


def test_normalized_witness(z2, cloud_z2, tmp_path):
    a = TestFunction.from_table({(0, 0): 2.0, (1, 0): 0.5, (0, 1): 0.5})
    u, rep = normalized_witness(z2, a, 0.2, cloud_z2)
    assert rep["passed"] is True
    assert abs(rep["uau_min"] - 1.0) <= 1e-8
    assert abs(rep["uau_max"] - 1.0) <= 1e-8
    bound = (rep["norm_a"] - rep["eps"]) ** -0.5
    assert rep["norm_two_u"] <= bound + 1e-8
    p = tmp_path / "wit.json"
    write_witness_json(p, rep)
    q = tmp_path / "wit2.json"
    write_witness_json(q, rep)
    assert p.read_bytes() == q.read_bytes()
    assert b'"passed": true' in p.read_bytes()


def test_witness_measures_a_clouds_mesh_once(z2, cloud_z2, monkeypatch):
    import ratdyn.numkernel as numkernel
    a = TestFunction.from_table({(0, 0): 2.0, (1, 0): 0.5, (0, 1): 0.5})
    cloud = cloud_z2[::2]   # a new cloud: its mesh is not measured yet
    # a list of the same points carries no mesh and is measured per call
    want = normalized_witness(z2, a, 0.2, list(cloud.points))[1]
    sweeps = []
    sweep = numkernel.sphere_nearest
    monkeypatch.setattr(numkernel, "sphere_nearest",
                        lambda *args: sweeps.append(1) or sweep(*args))
    for _ in range(3):
        assert normalized_witness(z2, a, 0.2, cloud)[1] == want
        simplicity_witness(z2, a, 0.2, cloud.points)   # measured per call
    assert len(sweeps) == 1 + 3


def test_empty_samples_fail_cleanly(z2, cloud_z2):
    a = TestFunction.constant(1.0)
    empty = cloud_z2[:0]
    for call in (lambda s: simplicity_witness(z2, a, 0.5, s),
                 lambda s: normalized_witness(z2, a, 0.5, s),
                 lambda s: norm_sup(_mono(1), s),
                 lambda s: build_frame(z2, s)):
        for sample in (empty, empty.points, []):
            with pytest.raises(ValueError,
                               match="need a nonempty Julia sample"):
                call(sample)


def test_ix_distance_reads_a_on_critical_points_in_julia(z2, zm2):
    # the ideal I_X: functions vanishing on the critical points in J. For
    # z^2 - 2 the critical point 0 lies in J = [-2, 2], so a = 1/2 + z^2
    # is |a(0)| away from it; for z^2 no critical point lies on the circle.
    a = TestFunction.from_table({(0, 0): 0.5, (2, 0): 1.0})
    for R, want in ((zm2, 0.5), (z2, 0.0)):
        sample = sample_inverse_iteration(R, 0.3 + 0.1j, count=20000, seed=1)
        assert ix_distance(R, a, sample) == want
