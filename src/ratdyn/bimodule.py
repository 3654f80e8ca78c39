"""Weighted inner products on graph functions, frames, and witnesses.

Functions on the graph of R^n are keyed by the first coordinate (the second
is determined). The A-valued inner product sums conj(f) g over depth-n
fibers with branch-index weights. On Julia sets free of critical points a
finite frame of arc bumps reconstructs every function; the witness
constructions produce, for any positive a and margin eps, a normalized g/f/u
chain whose inner products pin a between |a|-eps and |a|.

Everything runs on arrays. Graph functions, frame members and the witness
bump and f/u evaluate (z, isinf) arrays through their method `at`, and a
scalar call is its one-point case. Inner products, norms, witness tables
and frame reconstructions read all their bases' depth-n leaves
(`ratmap._leaves`): each base's d^n entries list a preimage x as often as
e_{R^n}(x), so every weighted sum is a row sum, left to right. The frame's
Gram matrices are over distinct fiber points, one `_expand_level` call.
"""

import math

import numpy as np
from dataclasses import dataclass

from .errors import (BudgetExceeded, CoverTooCoarse, FrameUnavailable,
                     WitnessFailed)
from .julia import _sample_arrays, critical_points_in_julia
from .numkernel import (SpherePoint, _Evaluator, _PointSet, _as_arrays,
                        _values_at, _write_json, chordal_distances,
                        embed_points, sphere_embed)
from .ratmap import (NODE_BUDGET, _evaluate_arrays, _expand_level, _leaves,
                     _row_sums, _sorted_table, _within)
from .transfer import ProductFunction

EXPANSION_BUDGET = 24
# a frame arc's support spans 2 (1 + ARC_OVERLAP) pi / arcs of angle
ARC_OVERLAP = 0.5


@dataclass(frozen=True)
class GraphFunction(_Evaluator):
    """A function on graph R^n, evaluated at the x-coordinate."""
    arity: int
    body: object
    label: str = "f"

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("graph functions need arity >= 1")

    def at(self, z, isinf):
        """Values at the points (z, isinf): the body's, as an array."""
        return _values_at(self.body, z, isinf)


class _OnArrays(_Evaluator):
    """A function given by its array method; a call is the one-point case."""

    __slots__ = ("at",)

    def __init__(self, at):
        self.at = at


def _depth_sums(R, z, isinf, n, terms):
    """Sum of terms(points, isinf) over each base's depth-n leaves.

    Each group of bases (`ratmap._leaves`) is summed before the next is
    expanded, so no more than one group's leaves are held at a time.
    """
    out = np.zeros(z.size, dtype=complex)
    for k, lo, pts, inf in _leaves(R, z, isinf, n):
        if k == n:
            sums = _row_sums(terms(pts, inf), R.degree ** n)
            out[lo:lo + sums.size] = sums
    return out


def _inner_products(R, n, f, g, z, isinf):
    """(f|g)_A at every base (z, isinf), from their depth-n leaves."""
    if f.arity != n or g.arity != n:
        raise ValueError("arity mismatch with the requested depth")

    def terms(pts, inf):
        return np.conj(_values_at(f, pts, inf)) * _values_at(g, pts, inf)
    return _depth_sums(R, z, isinf, n, terms)


def inner_product(R, n, f, g, y):
    """(f|g)_A(y) = sum over R^{-n}(y) of e_{R^n}(x) conj(f(x)) g(x)."""
    return complex(_inner_products(R, n, f, g, *_as_arrays([y]))[0])


def norm_sup(f, julia_sample):
    """Sampled sup norm over the Julia sample."""
    z, isinf = _sample_arrays(julia_sample)
    return float(np.max(np.abs(_values_at(f, z, isinf))))


def norm_two(R, n, f, probe_ys):
    """Sampled module norm: sup over probes of sqrt((f|f)(y))."""
    z, isinf = _as_arrays(probe_ys)
    if not z.size:
        return 0.0
    v = _inner_products(R, n, f, f, z, isinf).real
    return float(np.max(np.sqrt(np.maximum(v, 0.0))))


def tensor_embed(R, factors):
    """Elementary tensor f1 x ... x fn as x -> prod f_k(R^{k-1}(x))."""
    factors = tuple(factors)
    n = len(factors)
    if n < 1:
        raise ValueError("need at least one factor")
    for f in factors:
        if f.arity != 1:
            raise ValueError("tensor factors must have arity 1")

    def at(z, isinf):
        out = np.ones(z.shape, dtype=complex)
        for k, f in enumerate(factors):
            out = out * _values_at(f, z, isinf)
            if k + 1 < n:
                z, isinf = _evaluate_arrays(R, z, isinf)
        return out

    label = " x ".join(f.label for f in factors)
    return GraphFunction(n, _OnArrays(at), label)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """Arc-bump frame u_l = sqrt(chi_l) over a circle-like Julia set."""
    members: tuple
    arcs: tuple          # (theta_l, half_width) per member
    center: complex
    sample_size: int


def _wrap_angle(t):
    return (t + math.pi) % (2.0 * math.pi) - math.pi


def _arc_members(z, isinf, center, thetas, w):
    """Every member u_l = sqrt(chi_l) at the points, as (arcs, N).

    chi_l = chi_hat_l / sum_m chi_hat_m with raised-cosine bumps chi_hat_l
    of the angle about center; infinity has z = 0 there.
    """
    theta = np.angle(np.where(isinf, 0j, z) - center)
    d = _wrap_angle(theta[None, :] - np.asarray(thetas)[:, None])
    hat = np.where(np.abs(d) >= w, 0.0, np.cos(0.5 * math.pi * d / w) ** 2)
    chi = np.divide(hat, hat.sum(axis=0), out=np.zeros_like(hat),
                    where=hat != 0.0)
    return np.sqrt(np.maximum(chi, 0.0))


def build_frame(R, julia_sample):
    """Finite frame from raised-cosine arc bumps around the sample centroid.

    chi_l are normalized analytically (chi_l = chi_hat_l / sum_m chi_hat_m),
    so the partition of unity is exact everywhere, and u_l = sqrt(chi_l).
    Requires a Julia set free of critical points. The closest angular gap
    g of sampled fiber mates sizes the cover: 8 arcs, or the fewest whose
    supports, 2 (1 + ARC_OVERLAP) pi / arcs wide, fit in g. Refuses with
    CoverTooCoarse when g < pi / d; a mate at infinity makes g = 0.
    """
    z, isinf = _as_arrays(julia_sample)
    if isinf.any():
        raise FrameUnavailable("arc frames need a bounded Julia sample")

    crit = critical_points_in_julia(R, z)
    if crit:
        where = ", ".join(repr(c.point) for c in crit)
        raise FrameUnavailable(
            f"critical points on the Julia set ({where}): no finite frame")

    # injectivity of R on each support: the closest fiber mates of sampled
    # points, in wrapped angle about the centroid, bound the support width
    center = complex(np.mean(z))
    ps = z[::max(1, z.size // 160)]
    flat = np.zeros(ps.size, dtype=bool)
    qs, qinf, _, par = _expand_level(R, *_evaluate_arrays(R, ps, flat))
    same = np.linalg.norm(sphere_embed(qs, qinf) - sphere_embed(ps[par]),
                          axis=1) <= 1e-9
    gap = np.abs(_wrap_angle(np.angle(ps[par] - center)
                             - np.angle(qs - center)))
    gap = float(np.min(np.where(qinf, 0.0, gap)[~same], initial=math.pi))
    if gap < math.pi / R.degree:
        raise CoverTooCoarse(
            f"sampled fiber mates {gap:.3f} rad apart (0 for a mate at "
            f"infinity), below pi/d = {math.pi / R.degree:.3f}")
    arcs = max(8, math.ceil(2.0 * (1.0 + ARC_OVERLAP) * math.pi / gap))
    w = (1.0 + ARC_OVERLAP) * math.pi / arcs
    thetas = tuple(2.0 * math.pi * l / arcs - math.pi for l in range(arcs))

    members = tuple(
        GraphFunction(1, _OnArrays(
            lambda z, isinf, _l=l: _arc_members(z, isinf, center, thetas,
                                                w)[_l]), label=f"u{l}")
        for l in range(arcs))
    return Frame(members, tuple((t, w) for t in thetas), center, z.size)


def _members_at(frame, z, isinf):
    """Every member of the frame at the points, as (members, N). A frame
    with arcs is their arc-bump frame (`build_frame`), evaluated in one
    `_arc_members` call; any other goes member by member."""
    if frame.arcs:
        thetas, w = zip(*frame.arcs)
        return _arc_members(z, isinf, frame.center, thetas, w[0])
    return np.array([_values_at(u, z, isinf) for u in frame.members])


def frame_delta_defect(R, frame, probe_ys):
    """max |sum_l u_l(x) conj(u_l(x')) - delta_{x,x'}| over fibers of probes.

    Each fiber is a sorted table row: a point x listed e(x) times repeats
    its Gram row and column, which leaves the maximum as it is over
    distinct points. Entries of one point share its label.
    """
    z, isinf = _as_arrays(probe_ys)
    if not z.size:
        return 0.0
    pts, inf, label = _sorted_table(R, z, isinf)
    d = R.degree
    vals = _members_at(frame, pts, inf).T.reshape(z.size, d, -1)
    gram = np.einsum("mil,mjl->mij", vals, np.conj(vals))
    if label is not None:
        label = label.reshape(z.size, d)
    same = (np.eye(d) if label is None
            else label[:, :, None] == label[:, None, :])
    return float(np.max(np.abs(gram - same)))


def frame_reconstruction_defect(R, frame, f, probe_xs):
    """max over x of |sum_l u_l(x) (u_l|f)(R(x)) - f(x)|."""
    z, isinf = _as_arrays(probe_xs)
    if not z.size:
        return 0.0
    pts, inf, _ = _sorted_table(R, *_evaluate_arrays(R, z, isinf))
    fq = _values_at(f, pts, inf)
    total = np.zeros(z.size, dtype=complex)
    for uq, ux in zip(_members_at(frame, pts, inf),
                      _members_at(frame, z, isinf)):
        total = total + ux * _row_sums(np.conj(uq) * fq, R.degree)
    return float(np.max(np.abs(total - _values_at(f, z, isinf))))


# ---------------------------------------------------------------------------
# the ideal and expansion
# ---------------------------------------------------------------------------

def ix_distance(R, a, julia_sample, tol=1e-3):
    """max |a| over critical points on the sampled Julia set.

    Zero (within tolerance) exactly when a lies in the ideal of functions
    vanishing on C intersect J; the number of such critical points is the
    codimension datum the registry records. The sample must come within
    tol of each critical point in J, or that point is missed.
    """
    hits = critical_points_in_julia(R, julia_sample, tol=tol)
    if not hits:
        return 0.0
    return max(abs(complex(a(c.point))) for c in hits)


def expansion_time(R, V, julia_sample, net_tol, budget=EXPANSION_BUDGET,
                   probes=None, max_probes=128):
    """Minimal n with R^n(V) covering the sampled Julia set.

    V = (center, chordal radius). R^n(V) reaches a point y exactly when some
    depth-n preimage of y lands in V, so coverage is checked through fibers:
    each probe's preimage tree is grown one level at a time until it meets
    the disc, widened by net_tol to absorb sampling slack. The answer is the
    worst probe's depth. Raises BudgetExceeded when a tree exhausts the depth
    budget without touching V.
    """
    z, isinf = _as_arrays(julia_sample)
    if probes is None:
        step = max(1, z.size // max_probes)
        probes = z[::step], isinf[::step]
    else:
        probes = _as_arrays(probes)
    return _expansion(R, V, z, isinf, probes, net_tol, budget)


def _near(center, reach):
    """The test 'within chordal distance reach of center' on (z, isinf)."""
    cemb = embed_points([center])[0]
    return lambda zs, isinf: np.linalg.norm(
        sphere_embed(zs, isinf) - cemb[None, :], axis=1) <= reach


def _expansion(R, V, z, isinf, probes, net_tol, budget):
    """`expansion_time` of the sample (z, isinf) from probes = (z, isinf);
    each probe's subtree retires at its first hit."""
    center, radius = V
    if not np.any(_near(center, radius)(z, isinf)):
        raise ValueError("V does not intersect the Julia sample")
    hits = _near(center, radius + net_tol)

    zs, isinf = probes
    alive = ~hits(zs, isinf)
    zs, isinf = zs[alive], isinf[alive]
    pid = np.flatnonzero(alive)
    worst = 0
    for n in range(1, budget + 1):
        if pid.size == 0:
            return worst
        if zs.size * R.degree > NODE_BUDGET:
            raise BudgetExceeded(
                f"expansion check would exceed {NODE_BUDGET} live nodes")
        zs, isinf, _, par = _expand_level(R, zs, isinf)
        pid = pid[par]
        h = hits(zs, isinf)
        if h.any():
            worst = n
            keep = ~np.isin(pid, pid[h])  # retire the whole probe's subtree
            zs, isinf, pid = zs[keep], isinf[keep], pid[keep]
    if pid.size == 0:
        return worst
    raise BudgetExceeded(
        f"no depth within {budget} reaches V from every probe")


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def _bump(x0, inner, outer):
    """The smoothstep bump of the chordal distance to x0, on arrays: 1 up
    to inner and 0 from outer on."""
    def at(z, isinf):
        t = chordal_distances(x0, z, isinf)
        s = (t - inner) / (outer - inner)
        return np.where(t <= inner, 1.0,
                        np.where(t >= outer, 0.0,
                                 1.0 - s * s * (3.0 - 2.0 * s)))
    return _OnArrays(at)


def _normalized(R, n, g, weight, label):
    """x -> g(x) / sqrt(sum of e g^2 weight over R^{-n}(R^n x)).

    weight None counts 1. The sums run over the depth-n leaves of the
    images R^n x of all the points at once (`_depth_sums`).
    """
    def at(z, isinf):
        y, yinf = z, isinf
        for _ in range(n):
            y, yinf = _evaluate_arrays(R, y, yinf)

        def terms(pts, inf):
            gv = _values_at(g, pts, inf).real
            w = gv * gv
            if weight is not None:
                w = w * _values_at(weight, pts, inf).real
            return w

        b = _depth_sums(R, y, yinf, n, terms).real
        return _values_at(g, z, isinf) / np.sqrt(b)

    return GraphFunction(n, _OnArrays(at), label=label)


def _witness(R, a, eps, julia_sample, probe_ys, budget):
    """The bump construction both witnesses share.

    Returns (n, g, report, table). The table holds g and a on the
    depth-n leaves of all probes, one row of d^n per probe: one tree for
    all probes, one `_sorted_table` per level; a retry adds one level.
    """
    z, isinf = _sample_arrays(julia_sample)
    avals = _values_at(a, z, isinf).real
    if np.min(avals) < -1e-9:
        raise ValueError("witness construction needs a >= 0 on the sample")
    norm_a = float(np.max(avals))
    if not (0.0 < eps < norm_a):
        raise ValueError(f"need 0 < eps < |a| = {norm_a}")
    i0 = int(np.argmax(avals))
    x0 = SpherePoint(z[i0], isinf[i0])

    # U: the disc about x0 up to the nearest sample point where a drops
    # below the threshold
    low = avals < norm_a - 0.9 * eps
    if low.any():
        near = np.min(chordal_distances(x0, z[low], isinf[low]))
        delta_u = max(float(near) * 0.999, 1e-6)
    else:
        delta_u = 2.0  # a clears the threshold everywhere on the sphere
    delta_k, delta_v = delta_u / 3.0, delta_u / 9.0

    # a point set measures its mesh once, for every witness on it
    if not isinstance(julia_sample, _PointSet):
        julia_sample = _PointSet(z, isinf)
    net_tol = max(2.0 * julia_sample.mesh, 1e-2)
    step = max(1, z.size // 64)
    pz, pinf = ((z[::step], isinf[::step]) if probe_ys is None
                else _as_arrays(probe_ys))

    def deeper(pts, inf):
        _within(pts.size * R.degree, NODE_BUDGET)
        return _sorted_table(R, pts, inf)[:2]

    # n: the first level by which every probe's tree has met V, the disc
    # of radius delta_v, widened by a slack capped at delta_v: a hit there
    # stays inside K, where g = 1, so (g|g) >= 1 holds at every probe
    hits = _near(x0, delta_v + min(net_tol, delta_v))
    done, pts, inf = hits(pz, pinf), pz, pinf
    for n in range(1, budget + 1):
        pts, inf = deeper(pts, inf)
        done |= hits(pts, inf).reshape(pz.size, -1).any(axis=1)
        if done.all():
            break
    else:
        raise BudgetExceeded(
            f"no depth within {budget} reaches V from every probe")

    bump = _bump(x0, delta_k, delta_u)
    for attempt in range(4):
        if attempt:  # net was marginal: one more level fills the gaps
            pts, inf = deeper(pts, inf)
            n += 1
        gv = bump.at(pts, inf).reshape(pz.size, -1)
        w = gv * gv
        b = _row_sums(w, w.shape[1])  # b(y) = (g|g)(y)
        if b.min() >= 1.0 - 1e-9:
            break
    else:
        raise WitnessFailed(
            f"(g|g) dropped to {b.min():.6f} < 1 despite deeper expansion")

    av = _values_at(a, pts, inf).real.reshape(gv.shape)
    ff = _row_sums(w / b[:, None], w.shape[1])
    faf = _row_sums(w * av / b[:, None], w.shape[1])
    # norm_a is refined over every point the verification touches
    norm_a_refined = max(norm_a, float(np.max(av)))
    passed = (abs(ff.min() - 1.0) <= 1e-8 and abs(ff.max() - 1.0) <= 1e-8
              and faf.min() >= norm_a_refined - eps - 1e-8
              and faf.max() <= norm_a_refined + 1e-8)
    report = {
        "schema": 1,
        "a": getattr(a, "label", "a"),
        "norm_a": norm_a_refined,
        "eps": float(eps),
        "n": n,
        "x0": [x0.z.real, x0.z.imag],
        "delta_u": float(delta_u),
        "probe_count": int(pz.size),
        "ff_min": float(ff.min()), "ff_max": float(ff.max()),
        "faf_min": float(faf.min()), "faf_max": float(faf.max()),
        "passed": bool(passed),
    }
    if not passed:
        raise WitnessFailed(f"witness verification missed tolerance: {report}")
    return n, GraphFunction(n, bump, label="bump"), report, (gv, av)


def simplicity_witness(R, a, eps, julia_sample, probe_ys=None,
                       budget=EXPANSION_BUDGET):
    """Witness pair (n, f) with (f|f) = 1 and |a|-eps <= (f|af) <= |a|.

    Follows the bump construction: a disc U around the maximizer of a on
    which a stays above |a| - 0.9 eps, nested K = U/3 and V = U/9, n the
    expansion time of V, g a smoothstep bump that is 1 on K and 0 outside
    U, b = (g|g) >= 1, and f = g b^{-1/2}. The report re-verifies the
    inequalities on the probe set; norm_a is refined over every point the
    verification touches, so the upper bound is sound on the sample.

    f is exact on the whole sphere and caches nothing: each call f(x) sums
    e g^2 over the depth-n fiber R^{-n}(R^n x).
    """
    n, g, report, _ = _witness(R, a, eps, julia_sample, probe_ys, budget)
    return n, _normalized(R, n, g, None, "witness f"), report


def normalized_witness(R, a, eps, julia_sample, probe_ys=None,
                       budget=EXPANSION_BUDGET):
    """Witness u with (u|au) = 1 and |u|_2 <= (|a| - eps)^{-1/2}.

    u = g (g|ag)^{-1/2} for the bump g of simplicity_witness. Its checks
    resum per-point values of u over the fibers the construction walked.
    u is exact on the whole sphere and caches nothing: each call u(x) sums
    e g^2 a over the depth-n fiber R^{-n}(R^n x).
    """
    n, g, rep, (gv, av) = _witness(R, a, eps, julia_sample, probe_ys,
                                   budget)
    width = gv.shape[1]
    uv = gv / np.sqrt(_row_sums(gv * gv * av, width))[:, None]  # u
    uu = uv * uv
    uau, uu = _row_sums(uu * av, width), _row_sums(uu, width)
    ntwo = math.sqrt(max(float(uu.max()), 0.0))
    bound = (rep["norm_a"] - eps) ** -0.5
    passed = (abs(uau.min() - 1.0) <= 1e-8 and abs(uau.max() - 1.0) <= 1e-8
              and ntwo <= bound + 1e-8)
    report = dict(rep)
    report.update({"uau_min": float(uau.min()), "uau_max": float(uau.max()),
                   "norm_two_u": ntwo, "norm_two_bound": bound,
                   "passed": bool(passed)})
    if not passed:
        raise WitnessFailed(f"normalized witness missed tolerance: {report}")
    return _normalized(R, n, g, a, "witness u"), report


class ProductOnGraph(ProductFunction):
    """Pointwise product a(x) f(x) as a graph function of f's arity."""

    __slots__ = ()

    @property
    def arity(self):
        return self.factors[-1].arity


def write_witness_json(path, report):
    _write_json(path, report)
