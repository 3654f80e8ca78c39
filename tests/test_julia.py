"""Julia sampling, membership tests, rendering, cloud io."""

import numpy as np
import pytest

from ratdyn.errors import BudgetExceeded
from ratdyn.numkernel import SpherePoint, chordal_distance
from ratdyn.ratmap import RationalMap, evaluate

from ratdyn.julia import (
    backward_walk,
    circle_neighbor_stats,
    critical_points_in_julia,
    default_escape_radius,
    escape_membership,
    mandelbrot_member,
    read_cloud_csv,
    render,
    sample_inverse_iteration,
    write_cloud_csv,
    write_pgm,
)


def test_cloud_shape_and_determinism(z2):
    c1 = sample_inverse_iteration(z2, 0.9 + 0.3j, count=500, seed=3)
    c2 = sample_inverse_iteration(z2, 0.9 + 0.3j, count=500, seed=3)
    assert len(c1) == 500
    assert c1.generator == "inverse_iteration"
    assert [(p.z, p.is_infinity) for p in c1] == [
        (p.z, p.is_infinity) for p in c2]
    c3 = sample_inverse_iteration(z2, 0.9 + 0.3j, count=500, seed=4)
    assert [p.z for p in c1] != [p.z for p in c3]


def test_unit_circle_oracle(cloud_z2):
    # J(z^2) is the unit circle; the walk contracts the start's modulus
    # error by sqrt each backstep, so burn-in leaves ~1e-8
    mods = np.abs(cloud_z2.finite_values())
    assert np.max(np.abs(mods - 1.0)) < 1e-6


def test_interval_oracle(cloud_zm2):
    # J(z^2 - 2) = [-2, 2] on the real axis
    zs = cloud_zm2.finite_values()
    assert np.max(np.abs(zs.imag)) < 1e-9
    assert np.min(zs.real) > -2.0 - 1e-9
    assert np.max(zs.real) < 2.0 + 1e-9
    # both halves of the interval get visited
    assert np.min(zs.real) < -1.5 and np.max(zs.real) > 1.5


def _assert_steps_invert(R, start, z, isinf, tol=1e-9):
    # every step is a preimage of the step before: R(x_{k+1}) = x_k
    prev = [SpherePoint.from_value(start)] * z.shape[1]
    for k in range(z.shape[0]):
        cur = [SpherePoint.infinity() if f else SpherePoint.finite(x)
               for x, f in zip(z[k], isinf[k])]
        for x, y in zip(cur, prev):
            assert chordal_distance(evaluate(R, x), y) <= tol
        prev = cur


def test_backward_walk_degree_3(t3):
    rng = np.random.default_rng(3)
    z, isinf = backward_walk(t3, 0.3 + 0.2j, 30, 64, rng)
    assert not isinf.any()
    _assert_steps_invert(t3, 0.3 + 0.2j, z, isinf)
    # J(T3) = [-1, 1]: late steps sit on the interval
    assert np.max(np.abs(z[-1].imag)) < 1e-9
    assert np.max(np.abs(z[-1].real)) < 1.0 + 1e-9


def test_backward_walk_from_infinity(t3, lattes):
    # T3 is a polynomial: infinity is its own only preimage
    z, isinf = backward_walk(t3, SpherePoint.infinity(), 5, 16,
                             np.random.default_rng(0))
    assert isinf.all()
    # the Lattes map sends the poles 0, 1, -1 and infinity to infinity
    start = SpherePoint.infinity()
    z, isinf = backward_walk(lattes, start, 12, 64, np.random.default_rng(1))
    first = [("inf" if f else round(v.real)) for v, f in zip(z[0], isinf[0])]
    assert set(first) == {"inf", -1, 0, 1}
    _assert_steps_invert(lattes, start, z, isinf)


def test_backward_walk_mixed_scalar_rows():
    # R = z / (z^2 + 1) sends 0 and infinity to 0: walkers at 0 (a degree
    # drop, fiber {0, inf}) and at infinity (fiber {i, -i}) share steps
    R = RationalMap([0, 1], [1, 0, 1])
    z, isinf = backward_walk(R, 0.0, 8, 64, np.random.default_rng(2))
    assert isinf[0].any() and not isinf[0].all()
    _assert_steps_invert(R, 0.0, z, isinf)


def test_walk_step_picks_a_preimage_by_its_index():
    # R = (z + 1)/z^3 over 0: -1 has index 1 and infinity index 2, so one
    # step of 30000 walkers lands at infinity with probability 2/3
    R = RationalMap([1, 1], [0, 0, 0, 1])
    n = 30000
    z, isinf = backward_walk(R, 0j, 1, n, np.random.default_rng(7))
    assert np.all(isinf[0] | (z[0] == -1))
    sigma = (2 / 3 * (1 / 3) / n) ** 0.5
    assert abs(isinf.mean() - 2 / 3) < 5 * sigma


def test_walk_over_critical_value_lands_on_preimage(lattes):
    # the Lattes map's critical values 0, 1, -1 have only double preimages,
    # +-i, 1 +- sqrt 2 and -1 +- sqrt 2: raw eigenvalues sit ~1e-8 off
    # them, the cluster means within eps
    z, isinf = backward_walk(lattes, 0j, 1, 64, np.random.default_rng(0))
    assert not isinf.any()
    gap = np.minimum(np.abs(z - 1j), np.abs(z + 1j))
    assert np.max(gap) < 1e-12
    assert {round(v.imag) for v in z[0]} == {-1, 1}
    # from infinity the first step reaches 0, 1, -1 and infinity, so the
    # second mixes tied rows over three different critical values
    z, isinf = backward_walk(lattes, SpherePoint.infinity(), 2, 256,
                             np.random.default_rng(1))
    exact = np.array([1j, -1j, 1 + 2 ** 0.5, 1 - 2 ** 0.5, -1 + 2 ** 0.5,
                      -1 - 2 ** 0.5])
    over = ~isinf[0]
    assert {round(v.real) for v in z[0][over]} == {-1, 0, 1}
    gap = np.min(np.abs(z[1][over][:, None] - exact[None, :]), axis=1)
    assert np.max(gap) < 1e-12
    _assert_steps_invert(lattes, SpherePoint.infinity(), z, isinf)


def test_backward_walk_budget(z2):
    # refused before the (steps, walkers) output is allocated
    with pytest.raises(BudgetExceeded):
        backward_walk(z2, 0.5, 60, 2 ** 30, np.random.default_rng(0))


def test_walks_refuse_a_constant_map():
    from ratdyn.measure import lyubich_mc
    const = RationalMap([3])
    with pytest.raises(ValueError, match="nonconstant"):
        backward_walk(const, 1.0, 5, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="nonconstant"):
        lyubich_mc(const, 1.0, depth=30, samples=10)


def test_escape_membership(z2):
    assert escape_membership(z2, 3.0) == "escapes"
    assert escape_membership(z2, 0.2) == "bounded"
    assert escape_membership(z2, 1.0) == "bounded"   # on the Julia set
    # a non-finite point is infinity, which escapes
    for z in (SpherePoint.infinity(), complex("nan"), float("inf")):
        assert escape_membership(z2, z) == "escapes"


def test_mandelbrot_member():
    assert mandelbrot_member(0.0) is True
    assert mandelbrot_member(-1.0) is True
    assert mandelbrot_member(0.26 + 0j) is False
    assert mandelbrot_member(1.5 + 1.5j) is False
    for c in (float("nan"), complex("inf"), complex(0.0, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            mandelbrot_member(c)
    for max_iter in (0, -3):
        with pytest.raises(ValueError, match="max_iter"):
            mandelbrot_member(5, max_iter=max_iter)


def test_escape_radius_holds_the_filled_julia_set():
    # 0.01 z^2 fixes the circle |z| = 100 and keeps the disc inside it
    small = RationalMap([0, 0, 0.01])
    assert default_escape_radius(small) == pytest.approx(100.0)
    for z in (50.0, 99.0, 99j):
        assert escape_membership(small, z) == "bounded"
    assert escape_membership(small, 101.0) == "escapes"
    img = render(small, (-120.0, 120.0, -120.0, 120.0), 24, mode="escape")
    assert (img == 255).sum() > 0
    # z^2 - 2z - 2 has the repelling fixed point (3 + sqrt 17) / 2 on J
    assert default_escape_radius(RationalMap([-2, -2, 1])) >= \
        (3.0 + np.sqrt(17.0)) / 2.0


def test_beyond_the_escape_radius_orbits_grow():
    # |p(z)| > |z| at random points beyond the radius of random
    # polynomials, over several coefficient scales
    from ratdyn.numkernel import poly_eval
    rng = np.random.default_rng(2024)
    for _ in range(300):
        d = int(rng.integers(2, 6))
        scale = 10.0 ** rng.uniform(-2.0, 2.0, size=d + 1)
        p = scale * (rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
        R = RationalMap(p)
        r = default_escape_radius(R) * (1.0 + rng.uniform(1e-6, 2.0, 16))
        z = r * np.exp(2j * np.pi * rng.random(16))
        assert np.all(np.abs(poly_eval(R._p, z)) > np.abs(z))


def test_critical_points_in_julia_counts(z2, zm2, t3, cloud_z2, cloud_zm2):
    from ratdyn.julia import sample_inverse_iteration as sample
    assert len(critical_points_in_julia(z2, cloud_z2)) == 0
    assert len(critical_points_in_julia(zm2, cloud_zm2)) == 1
    cloud_t3 = sample(t3, 0.3, count=4000, seed=0)
    hits = critical_points_in_julia(t3, cloud_t3)
    assert len(hits) == 2
    assert sorted(c.point.z.real for c in hits) == pytest.approx(
        [-0.5, 0.5], abs=1e-6)


def test_circle_stats_discriminate(cloud_z2, cloud_zm2):
    on_circle = circle_neighbor_stats(cloud_z2.finite_values())
    on_interval = circle_neighbor_stats(cloud_zm2.finite_values())
    assert on_circle > 0.9
    assert on_interval < on_circle


def test_render_escape_mode(z2, tmp_path):
    img = render(z2, (-1.4, 1.4, -1.4, 1.4), 48, mode="escape", max_iter=40)
    assert img.shape == (48, 48)
    assert img.dtype == np.uint8
    # the window straddles the basin boundary: both shades present
    assert img.min() < 128 < img.max() or (img.min() == 0 and img.max() == 255)
    p = tmp_path / "z2.pgm"
    write_pgm(p, img)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n48 48\n255\n")
    assert len(raw) == len(b"P5\n48 48\n255\n") + 48 * 48


@pytest.mark.parametrize("mode", ["escape", "density"])
def test_render_refuses_max_iter_below_1(z2, mode):
    for max_iter in (0, -3):
        with pytest.raises(ValueError, match="max_iter"):
            render(z2, (-1.0, 1.0, -1.0, 1.0), 8, mode=mode,
                   max_iter=max_iter)
        # every escape-time entry point shares the check
        for z in (0.5, SpherePoint.infinity()):
            with pytest.raises(ValueError, match="max_iter"):
                escape_membership(z2, z, max_iter=max_iter)
    # a resolution of any integer type
    img = render(z2, (-1.0, 1.0, -1.0, 1.0), np.int64(24), mode=mode,
                 samples=400)
    assert img.shape == (24, 24)
    assert render(z2, (-1.0, 1.0, -1.0, 1.0), (np.int32(6), np.uint8(4)),
                  mode=mode, samples=400).shape == (4, 6)


@pytest.mark.parametrize("window", [
    (float("nan"), 1.0, 0.0, 1.0), (0.0, float("inf"), 0.0, 1.0),
    (1.0, 0.0, 0.0, 1.0)], ids=["nan", "inf", "empty"])
@pytest.mark.parametrize("mode", ["escape", "density"])
def test_render_refuses_a_bad_window(z2, mode, window):
    # a non-finite bound or an empty range is an error, not a blank image
    with pytest.raises(ValueError, match="window"):
        render(z2, window, 8, mode=mode)


def test_render_density_mode_deterministic(full_shift):
    kw = dict(mode="density", samples=4000, depth=40, seed=9)
    a = render(full_shift, (-2.0, 2.0, -2.0, 2.0), 32, **kw)
    b = render(full_shift, (-2.0, 2.0, -2.0, 2.0), 32, **kw)
    assert np.array_equal(a, b)
    assert a.max() > 0


def test_cloud_csv_roundtrip(tmp_path, zm2):
    cloud = sample_inverse_iteration(zm2, 1.3, count=200, seed=5)
    p = tmp_path / "cloud.csv"
    write_cloud_csv(p, cloud)
    back = read_cloud_csv(p)
    assert len(back) == 200
    for a, b in zip(cloud, back):
        assert a.is_infinity == b.is_infinity
        if not a.is_infinity:
            assert a.z == b.z   # %.17g round-trips doubles exactly
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        read_cloud_csv(bad)


@pytest.mark.parametrize("start", [0.3 + 0.1j, SpherePoint.infinity(), 0j])
@pytest.mark.parametrize("name", ["z2_minus_2", "tchebychev_n", "lattes",
                                  "full_shift_example", "ushiki_gasket",
                                  "(z+1)/z^3", "z/(z^2+1)"])
@pytest.mark.parametrize("walkers", [8, 100])
def test_common_step_matches_row_bookkeeping(monkeypatch, name, start,
                                             walkers):
    # a work cap of one row per solve makes the fiber table solve every
    # row alone, in groups by fiber length: the walks agree bit for bit
    # with the one-solve table. Both added maps send infinity to 0, where
    # the fiber polynomial drops degree, so from 0 (or through it) their
    # walkers stand on drop rows
    from ratdyn import ratmap
    from ratdyn.cli import resolve_map
    R, _ = resolve_map(name)
    fast = backward_walk(R, start, 30, walkers, np.random.default_rng(5))
    monkeypatch.setattr(ratmap, "_WORK_ENTRIES", 1)
    slow = backward_walk(R, start, 30, walkers, np.random.default_rng(5))
    assert np.array_equal(fast[0].view(float), slow[0].view(float))
    assert np.array_equal(fast[1], slow[1])


def test_cloud_is_the_walk_in_walker_major_order(zm2):
    # 8 walkers, 13 points each, the last walker's block cut at 100
    cloud = sample_inverse_iteration(zm2, 1.3, depth=10, count=100, seed=4)
    rng = np.random.default_rng(np.random.SeedSequence(4))
    z, isinf = backward_walk(zm2, 1.3, 33, 8, rng)
    assert np.array_equal(cloud.z, z[-13:].T.ravel()[:100])
    assert not cloud.isinf.any()
    assert [p.z for p in cloud] == cloud.z.tolist()
    # points are built once; slices are sub-clouds on the same arrays
    assert cloud.points is cloud.points
    sub = cloud[::7]
    assert isinstance(sub, type(cloud)) and len(sub) == 15
    assert np.array_equal(sub.z, cloud.z[::7])
    assert cloud[3] == cloud.points[3]
    with pytest.raises(ValueError):
        cloud.z[0] = 0j   # read-only: the built points stay in step


def _bits(z):
    return z.view(np.uint64).tolist()


def test_cloud_csv_bytes_round_trip(tmp_path):
    from ratdyn.julia import JuliaCloud
    z = np.array([complex(-0.0, -0.0), complex(1.5, -0.0), 0j,
                  complex(-0.0, 2.0 ** -1074), complex(-3.25e300, 0.0)])
    isinf = np.array([False, False, True, False, False])
    cloud = JuliaCloud(z, isinf, "inverse_iteration", 0, 60, 20)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_cloud_csv(first, cloud)
    back = read_cloud_csv(first)
    assert [p.is_infinity for p in back] == isinf.tolist()
    assert _bits(np.array([p.z for p in back])) == _bits(cloud.z)
    write_cloud_csv(second, back)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().splitlines()[1:4] == ["-0,-0,0", "1.5,-0,0",
                                                   "0,0,1"]


def test_cloud_mesh_is_the_nearest_point_sweep(lattes, cloud_z2):
    from ratdyn.measure import lyubich_exact
    from ratdyn.numkernel import sphere_embed, sphere_nearest
    from ratdyn.registry import get, list_examples
    clouds = [sample_inverse_iteration(get(n).map, 1.3, count=500, seed=0)
              for n in list_examples()]
    # an exact tree over infinity holds the point at infinity
    clouds.append(lyubich_exact(lattes, SpherePoint.infinity(), 3))
    assert clouds[-1].isinf.any()
    cloud_z2.mesh   # measured before it is sliced
    clouds += [cloud_z2, cloud_z2[::5], cloud_z2[1::9]]
    for cloud in clouds:
        want = max(sphere_nearest(sphere_embed(cloud.z, cloud.isinf))[0])
        assert cloud.mesh.hex() == float(want).hex()
    # a slice measures its own, wider mesh
    assert cloud_z2[::5].mesh > cloud_z2.mesh


# references: the three escape-time loops that `_escape_counts` replaced,
# kept as they were (numpy's polyval, complex abs, a per-point loop each)

def _ref_radius(R):
    return max(2.0, float(np.max(np.abs(R._p))) + 1.0)


def _ref_render(R, window, res, max_iter):
    x0, x1, y0, y1 = window
    xs = x0 + (np.arange(res) + 0.5) * (x1 - x0) / res
    ys = y1 - (np.arange(res) + 0.5) * (y1 - y0) / res
    z = xs[None, :] + 1j * ys[:, None]
    c = R._p / R._q[0]
    count = np.zeros(z.shape, dtype=np.int32)
    alive = np.ones(z.shape, dtype=bool)
    for k in range(max_iter):
        out = alive & (np.abs(z) > _ref_radius(R))
        count[out] = k
        alive &= ~out
        if not alive.any():
            break
        z[alive] = np.polynomial.polynomial.polyval(z[alive], c)
    return np.where(alive, 255, (254.0 * count / max_iter)).astype(np.uint8)


def _ref_membership(R, z, max_iter=256):
    c = R._p / R._q[0]
    w = complex(z)
    for _ in range(max_iter):
        if abs(w) > _ref_radius(R):
            return "escapes"
        w = complex(np.polynomial.polynomial.polyval(w, c))
    return "bounded"


def _ref_mandelbrot(c, max_iter=256):
    c = complex(c)
    z = 0j
    for _ in range(max_iter):
        z = z * z + c
        if abs(z) > 2.0:
            return False
    return True


def _ref_circle_stats(points, anchors=64):
    zs = np.asarray(points, dtype=complex)
    zs = zs[np.argsort(np.angle(zs - np.mean(zs)))]
    net = zs[::max(1, zs.size // anchors)]
    n = net.size
    if n < 4:
        return 0.0
    good = 0
    for i in range(n):
        r = 1.05 * max(abs(net[i] - net[(i - 1) % n]),
                       abs(net[i] - net[(i + 1) % n]))
        good += int(np.sum(np.abs(net - net[i]) <= r)) - 1 == 2
    return good / n


@pytest.mark.parametrize("coeffs", [
    [0, 0, 1], [-0.75, 0, 1], [0.2, 0, 1], [-2, 0, 1],
    [0.1 + 0.2j, 0.3, 0, 1], [0, -3, 0, 4]],
    ids=["z2", "z2-0.75", "z2+0.2", "z2-2", "cubic", "T3"])
def test_escape_loop_matches_the_old_loops(coeffs):
    # maps whose escape radius the root bound leaves as it was: the one
    # orbit loop gives the old loops' images and answers bit for bit
    R = RationalMap(coeffs)
    assert default_escape_radius(R) == _ref_radius(R)
    for window in ((-2.0, 2.0, -2.0, 2.0), (-0.5, 0.3, 0.1, 0.9)):
        for res, max_iter in ((24, 96), (64, 40)):
            assert np.array_equal(
                render(R, window, res, mode="escape", max_iter=max_iter),
                _ref_render(R, window, res, max_iter))
    rng = np.random.default_rng(len(coeffs))
    z = rng.uniform(-2, 2, 400) + 1j * rng.uniform(-2, 2, 400)
    assert [escape_membership(R, w) for w in z] == \
        [_ref_membership(R, w) for w in z]


def test_mandelbrot_and_circle_stats_match_the_old_loops(cloud_z2,
                                                         cloud_zm2):
    rng = np.random.default_rng(5)
    cs = rng.uniform(-2.2, 0.8, 1000) + 1j * rng.uniform(-1.3, 1.3, 1000)
    got = [mandelbrot_member(c) for c in cs]
    assert got == [_ref_mandelbrot(c) for c in cs]
    assert 100 < sum(got) < 900
    for cloud in (cloud_z2, cloud_zm2, cloud_z2[::7], cloud_zm2[:300]):
        for anchors in (16, 64, 100):
            z = cloud.finite_values()
            assert circle_neighbor_stats(z, anchors) == \
                _ref_circle_stats(z, anchors)
