"""Weighted inner products on graph functions, frames, and witnesses.

Functions on the graph of R^n are keyed by the first coordinate (the second
is determined). The A-valued inner product sums conj(f) g over depth-n
fibers with branch-index weights. On Julia sets free of critical points a
finite frame of arc bumps reconstructs every function; the witness
constructions produce, for any positive a and margin eps, a normalized g/f/u
chain whose inner products pin a between |a|-eps and |a|.
"""

import math
import json

import numpy as np
from dataclasses import dataclass

from .errors import (BudgetExceeded, CoverTooCoarse, FrameUnavailable,
                     WitnessFailed)
from .julia import critical_points_in_julia
from .numkernel import (SpherePoint, _as_pair, chordal_distance, embed_points,
                        sphere_embed, sphere_nearest)
from .ratmap import (NODE_BUDGET, _expand_level, evaluate, preimages,
                     preimage_tree)

EXPANSION_BUDGET = 24


@dataclass(frozen=True)
class GraphFunction:
    """A function on graph R^n, evaluated at the x-coordinate."""
    arity: int
    body: object
    label: str = "f"

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("graph functions need arity >= 1")

    def __call__(self, x):
        return complex(self.body(x))


def _points(sample):
    """Normalize a JuliaCloud or point sequence to a SpherePoint tuple."""
    pts = []
    for p in sample:
        zv, isinf = _as_pair(p)
        pts.append(SpherePoint(zv, isinf))
    return tuple(pts)


def inner_product(R, n, f, g, y):
    """(f|g)_A(y) = sum over R^{-n}(y) of e_{R^n}(x) conj(f(x)) g(x)."""
    if f.arity != n or g.arity != n:
        raise ValueError("arity mismatch with the requested depth")
    fib = preimage_tree(R, y, n)
    total = 0j
    for p, e in fib.entries:
        total += e * np.conj(complex(f(p))) * complex(g(p))
    return complex(total)


def norm_sup(f, julia_sample):
    """Sampled sup norm over the Julia sample."""
    return max(abs(complex(f(p))) for p in _points(julia_sample))


def norm_two(R, n, f, probe_ys):
    """Sampled module norm: sup over probes of sqrt((f|f)(y))."""
    worst = 0.0
    for y in probe_ys:
        v = inner_product(R, n, f, f, y)
        worst = max(worst, math.sqrt(max(v.real, 0.0)))
    return worst


def tensor_embed(R, factors):
    """Elementary tensor f1 x ... x fn as x -> prod f_k(R^{k-1}(x))."""
    factors = tuple(factors)
    n = len(factors)
    if n < 1:
        raise ValueError("need at least one factor")
    for f in factors:
        if f.arity != 1:
            raise ValueError("tensor factors must have arity 1")

    def body(x, _fs=factors, _R=R):
        p = x if isinstance(x, SpherePoint) else SpherePoint.from_value(x)
        out = 1.0 + 0j
        for k, f in enumerate(_fs):
            out *= complex(f(p))
            if k + 1 < len(_fs):
                p = evaluate(_R, p)
        return out

    label = " x ".join(f.label for f in factors)
    return GraphFunction(n, body, label)


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


def _chi_hat(theta, theta_l, w):
    d = _wrap_angle(theta - theta_l)
    if abs(d) >= w:
        return 0.0
    return math.cos(0.5 * math.pi * d / w) ** 2


def build_frame(R, julia_sample, cover_spec=None):
    """Finite frame from raised-cosine arc bumps around the sample centroid.

    chi_l are normalized analytically (chi_l = chi_hat_l / sum_m chi_hat_m),
    so the partition of unity is exact everywhere, and u_l = sqrt(chi_l).
    Requires a Julia set free of critical points; refuses with
    CoverTooCoarse when one arc support holds two points of a fiber.
    """
    spec = {"arcs": 8, "overlap": 0.5}
    if cover_spec:
        spec.update(cover_spec)
    arcs = int(spec["arcs"])
    overlap = float(spec["overlap"])
    if arcs < 2 or not (0.0 < overlap):
        raise ValueError("cover needs >= 2 arcs and positive overlap")
    pts = _points(julia_sample)
    if any(p.is_infinity for p in pts):
        raise FrameUnavailable("arc frames need a bounded Julia sample")

    crit = critical_points_in_julia(R, pts)
    if crit:
        where = ", ".join(repr(c.point) for c in crit)
        raise FrameUnavailable(
            f"critical points on the Julia set ({where}): no finite frame")

    center = complex(np.mean([p.z for p in pts]))
    w = (1.0 + overlap) * math.pi / arcs
    thetas = tuple(2.0 * math.pi * l / arcs - math.pi for l in range(arcs))

    # injectivity of R on each support: fiber mates of sampled points must
    # never share an arc; supports span 2w of angle, so mates closer than
    # that (in wrapped angle about the centroid) defeat the cover
    step = max(1, len(pts) // 160)
    for p in pts[::step]:
        y = evaluate(R, p)
        for q, _ in preimages(R, y).entries:
            if q.is_infinity:
                raise CoverTooCoarse("a sampled fiber reaches infinity")
            if chordal_distance(p, q) <= 1e-9:
                continue
            gap = abs(_wrap_angle(np.angle(p.z - center)
                                  - np.angle(q.z - center)))
            if gap < 2.0 * w:
                raise CoverTooCoarse(
                    f"fiber mates {gap:.3f} rad apart share an arc of "
                    f"support width {2 * w:.3f}")

    def chi(l):
        def val(x, _l=l):
            p = x if isinstance(x, SpherePoint) else SpherePoint.from_value(x)
            theta = float(np.angle(p.z - center))
            top = _chi_hat(theta, thetas[_l], w)
            if top == 0.0:
                return 0.0
            bottom = sum(_chi_hat(theta, t, w) for t in thetas)
            return top / bottom
        return val

    members = tuple(
        GraphFunction(1, (lambda x, _c=chi(l): math.sqrt(max(_c(x), 0.0))),
                      label=f"u{l}")
        for l in range(arcs))
    return Frame(members, tuple((t, w) for t in thetas), center, len(pts))


def frame_delta_defect(R, frame, probe_ys):
    """max |sum_l u_l(x) conj(u_l(x')) - delta_{x,x'}| over fibers of probes."""
    worst = 0.0
    for y in probe_ys:
        fib = preimages(R, y)
        xs = [p for p, _ in fib.entries]
        vals = np.array([[complex(u(x)) for x in xs] for u in frame.members])
        gram = np.einsum("li,lj->ij", vals, np.conj(vals))
        target = np.eye(len(xs))
        worst = max(worst, float(np.max(np.abs(gram - target))))
    return worst


def frame_reconstruction_defect(R, frame, f, probe_xs):
    """max over x of |sum_l u_l(x) (u_l|f)(R(x)) - f(x)|."""
    worst = 0.0
    for x in probe_xs:
        p = x if isinstance(x, SpherePoint) else SpherePoint.from_value(x)
        y = evaluate(R, p)
        fib = preimages(R, y)
        total = 0j
        for u in frame.members:
            ip = 0j
            for q, e in fib.entries:
                ip += e * np.conj(complex(u(q))) * complex(f(q))
            total += complex(u(p)) * ip
        worst = max(worst, abs(total - complex(f(p))))
    return worst


# ---------------------------------------------------------------------------
# the ideal and expansion
# ---------------------------------------------------------------------------

def ix_distance(R, a, julia_sample, tol=1e-3):
    """max |a| over critical points on the sampled Julia set.

    Zero (within tolerance) exactly when a lies in the ideal of functions
    vanishing on C intersect J; the number of such critical points is the
    codimension datum the registry records.
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
    center, radius = V
    pts = _points(julia_sample)
    cemb = embed_points([center])[0]
    emb = embed_points(pts)
    gap = np.linalg.norm(emb - cemb[None, :], axis=1)
    if not np.any(gap <= radius):
        raise ValueError("V does not intersect the Julia sample")
    if probes is None:
        step = max(1, len(pts) // max_probes)
        probes = pts[::step]
    probes = _points(probes)

    reach = radius + net_tol

    def hits(zs, isinf):
        e = sphere_embed(zs, isinf)
        return np.linalg.norm(e - cemb[None, :], axis=1) <= reach

    zs = np.array([p.z for p in probes], dtype=complex)
    isinf = np.array([p.is_infinity for p in probes], dtype=bool)
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

def _smooth_bump(t, inner, outer):
    if t <= inner:
        return 1.0
    if t >= outer:
        return 0.0
    s = (t - inner) / (outer - inner)
    return 1.0 - s * s * (3.0 - 2.0 * s)


def _sample_mesh(points):
    return float(np.max(sphere_nearest(embed_points(points))[0]))


def _values(fn, fib):
    """Real parts of fn at the points of a fiber, in fiber order."""
    return np.array([complex(fn(q)).real for q, _ in fib.entries])


def _total(terms):
    """Left-to-right sum in fiber order, as a scalar loop over the fiber adds.

    numpy's pairwise sum would differ in the last bits.
    """
    return float(np.cumsum(terms)[-1])


def _normalized(R, n, g, weight, label):
    """x -> g(x) / sqrt(sum of e g^2 weight over R^{-n}(R^n x)).

    weight None counts 1. Every call walks the depth-n fiber through x.
    """
    def body(x):
        p = x if isinstance(x, SpherePoint) else SpherePoint.from_value(x)
        y = p
        for _ in range(n):
            y = evaluate(R, y)
        fib = preimage_tree(R, y, n)
        gv = _values(g, fib)
        w = np.array(fib.indices(), dtype=float) * (gv * gv)
        if weight is not None:
            w = w * _values(weight, fib)
        return complex(g(p)) / math.sqrt(_total(w))

    return GraphFunction(n, body, label=label)


def _witness(R, a, eps, julia_sample, probe_ys, net_tol, budget):
    """The bump construction both witnesses share.

    Returns (n, g, report, table). The table holds one (e, g, a) triple of
    arrays per probe, over the probe's depth-n fiber: each fiber is walked
    once, and g and a are evaluated once per point.
    """
    pts = _points(julia_sample)
    avals = np.array([complex(a(p)).real for p in pts])
    if np.min(avals) < -1e-9:
        raise ValueError("witness construction needs a >= 0 on the sample")
    norm_a = float(np.max(avals))
    if not (0.0 < eps < norm_a):
        raise ValueError(f"need 0 < eps < |a| = {norm_a}")
    i0 = int(np.argmax(avals))
    x0 = pts[i0]

    dists = np.array([chordal_distance(x0, p) for p in pts])
    order = np.argsort(dists)
    thresh = norm_a - 0.9 * eps
    delta_u = None
    running = math.inf
    for t in order:
        running = min(running, avals[t])
        if running < thresh:
            delta_u = max(dists[t] * 0.999, 1e-6)
            break
    if delta_u is None:
        delta_u = 2.0  # a clears the threshold everywhere on the sphere
    delta_k = delta_u / 3.0
    delta_v = delta_u / 9.0

    if net_tol is None:
        net_tol = max(2.0 * _sample_mesh(pts), 1e-2)
    if probe_ys is None:
        probe_ys = pts[::max(1, len(pts) // 64)]
    probes = _points(probe_ys)

    # slack capped at delta_v: a hit in the widened disc stays inside K,
    # where g = 1, so (g|g) >= 1 holds at every checked probe
    n = max(1, expansion_time(R, (x0, delta_v), pts, min(net_tol, delta_v),
                              budget, probes=probes))

    for attempt in range(4):
        g = GraphFunction(
            n, (lambda x, _x0=x0, _i=delta_k, _o=delta_u:
                _smooth_bump(chordal_distance(
                    x if isinstance(x, SpherePoint)
                    else SpherePoint.from_value(x), _x0), _i, _o)),
            label="bump")
        fibers = [preimage_tree(R, y, n) for y in probes]
        es = [np.array(fib.indices(), dtype=float) for fib in fibers]
        gs = [_values(g, fib) for fib in fibers]
        ws = [e * (gv * gv) for e, gv in zip(es, gs)]
        bs = [_total(w) for w in ws]  # b(y) = (g|g)(y)
        if min(bs) >= 1.0 - 1e-9:
            break
        n += 1  # net was marginal: one more expansion level fills the gaps
    else:
        raise WitnessFailed(
            f"(g|g) dropped to {min(bs):.6f} < 1 despite deeper expansion")

    avs = [_values(a, fib) for fib in fibers]
    ff = [_total(w / b) for w, b in zip(ws, bs)]
    faf = [_total(w * av / b) for w, av, b in zip(ws, avs, bs)]
    # norm_a is refined over every point the verification touches
    norm_a_refined = max(norm_a, *(float(np.max(av)) for av in avs))
    passed = (abs(min(ff) - 1.0) <= 1e-8 and abs(max(ff) - 1.0) <= 1e-8
              and min(faf) >= norm_a_refined - eps - 1e-8
              and max(faf) <= norm_a_refined + 1e-8)
    report = {
        "schema": 1,
        "a": getattr(a, "label", "a"),
        "norm_a": norm_a_refined,
        "eps": float(eps),
        "n": n,
        "x0": [x0.z.real, x0.z.imag],
        "delta_u": float(delta_u),
        "probe_count": len(probes),
        "ff_min": min(ff), "ff_max": max(ff),
        "faf_min": min(faf), "faf_max": max(faf),
        "passed": bool(passed),
    }
    if not passed:
        raise WitnessFailed(f"witness verification missed tolerance: {report}")
    return n, g, report, list(zip(es, gs, avs))


def simplicity_witness(R, a, eps, julia_sample, probe_ys=None, net_tol=None,
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
    n, g, report, _ = _witness(R, a, eps, julia_sample, probe_ys, net_tol,
                               budget)
    return n, _normalized(R, n, g, None, "witness f"), report


def normalized_witness(R, a, eps, julia_sample, probe_ys=None, net_tol=None,
                       budget=EXPANSION_BUDGET):
    """Witness u with (u|au) = 1 and |u|_2 <= (|a| - eps)^{-1/2}.

    u = g (g|ag)^{-1/2} for the bump g of simplicity_witness. Its checks
    resum per-point values of u over the fibers the construction walked.
    u is exact on the whole sphere and caches nothing: each call u(x) sums
    e g^2 a over the depth-n fiber R^{-n}(R^n x).
    """
    n, g, rep, table = _witness(R, a, eps, julia_sample, probe_ys, net_tol,
                                budget)
    uau, uu = [], []
    for e, gv, av in table:
        uv = gv / math.sqrt(_total(e * (gv * gv) * av))  # u on the fiber
        e_uu = e * (uv * uv)
        uau.append(_total(e_uu * av))
        uu.append(_total(e_uu))
    ntwo = math.sqrt(max(max(uu), 0.0))
    bound = (rep["norm_a"] - eps) ** -0.5
    passed = (abs(min(uau) - 1.0) <= 1e-8 and abs(max(uau) - 1.0) <= 1e-8
              and ntwo <= bound + 1e-8)
    report = dict(rep)
    report.update({"uau_min": min(uau), "uau_max": max(uau),
                   "norm_two_u": ntwo, "norm_two_bound": bound,
                   "passed": bool(passed)})
    if not passed:
        raise WitnessFailed(f"normalized witness missed tolerance: {report}")
    return _normalized(R, n, g, a, "witness u"), report


@dataclass(frozen=True)
class ProductOnGraph:
    """Pointwise product a(x) f(x) as a graph function of f's arity."""
    left: object
    right: object

    @property
    def arity(self):
        return self.right.arity

    def __call__(self, x):
        return complex(self.left(x)) * complex(self.right(x))


def write_witness_json(path, report):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
