"""Catalog of worked examples with the checks this toolkit can actually run.

Each record pairs a map (or a one-parameter family) with two kinds of facts:
literature-reported identifications (K-groups, named C*-algebras) stored as
quoted text and never recomputed, and named numerical checks that verify
what finite arithmetic can reach: Julia-set geometry, critical counts,
fiber sums, Riemann-Hurwitz totals, conjugacy defects, measure moments.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownExample
from .numkernel import SpherePoint, embed_points, sphere_nearest
from .ratmap import RationalMap, _expand_level, critical_points, evaluate
from .julia import (critical_points_in_julia, render,
                    sample_inverse_iteration, mandelbrot_member)
from .measure import lyubich_exact, integrate
from .transfer import TestFunction, kms_iterate
from .bimodule import build_frame, frame_delta_defect


@dataclass(frozen=True)
class ExampleRecord:
    """A catalog entry.

    K-group and algebra strings are quoted literature values; the checks
    listed in verifiable_checks are the only fields verify() touches.
    """
    name: str
    build: object                      # param -> RationalMap
    default_param: object
    param_name: str
    julia_description: str
    critical_in_julia_count: object    # reported count, None if n/a
    k0: str
    k1: str
    algebra_identification: str
    verifiable_checks: tuple
    notes: str = ""

    @property
    def map(self):
        return self.build(self.default_param)


def _power(n):
    if n is None:
        n = 2
    n = int(n)
    if n < 2:
        raise ValueError("power map needs n >= 2")
    return RationalMap([0] * n + [1], [1])


def _quadratic(c):
    if c is None:
        c = 0.2
    return RationalMap([complex(c), 0, 1], [1])


def _chebyshev(n):
    """cos(n t) = T_n(cos t), ascending coefficients via the recurrence."""
    if n is None:
        n = 3
    n = int(n)
    if n < 2:
        raise ValueError("interval dynamics needs n >= 2")
    a, b = [1.0], [0.0, 1.0]  # T_0, T_1
    for _ in range(n - 1):
        nxt = [0.0] + [2.0 * x for x in b]
        for i, x in enumerate(a):
            nxt[i] -= x
        a, b = b, nxt
    return RationalMap(b, [1])


_CATALOG = (
    ExampleRecord(
        name="power_map_n",
        build=_power, default_param=2, param_name="n",
        julia_description="unit circle",
        critical_in_julia_count=0,
        k0="Z + Z/(n-1)Z", k1="Z",
        algebra_identification=("gauge-action fixed point algebra is a "
                                "Bunce-Deddens algebra of type n^infinity"),
        verifiable_checks=("julia_unit_circle", "criticals_avoid_julia",
                           "frame_partition_of_unity", "kms_convergence"),
        notes="K-groups and the algebra name are literature values.",
    ),
    ExampleRecord(
        name="z2_minus_2",
        build=lambda _: RationalMap([-2, 0, 1], [1]), default_param=None,
        param_name="",
        julia_description="interval [-2, 2]",
        critical_in_julia_count=1,
        k0="Z", k1="0",
        algebra_identification="Cuntz algebra O_infinity",
        verifiable_checks=("julia_interval_band", "critical_points_in_julia",
                           "tent_conjugacy"),
        notes=("Literature values; the interval dynamics is conjugate to "
               "the tent map via phi(t) = 2 cos(pi t)."),
    ),
    ExampleRecord(
        name="quadratic_family",
        build=_quadratic, default_param=0.2, param_name="c",
        julia_description=("quasicircle for c inside the main cardioid; "
                           "Cantor set outside the Mandelbrot set"),
        critical_in_julia_count=0,
        k0="Z (c in the main cardioid)", k1="Z (c in the main cardioid)",
        algebra_identification=("Cuntz algebra O_2 outside the Mandelbrot "
                                "set, where the dynamics is the full "
                                "two-shift"),
        verifiable_checks=("cardioid_vs_escape",),
        notes="Literature values for both parameter regimes.",
    ),
    ExampleRecord(
        name="full_shift_example",
        build=lambda _: RationalMap([-1, 0, 2], [0, 1]), default_param=None,
        param_name="",
        julia_description=("Cantor set; the restriction of the map is "
                           "conjugate to the full two-shift"),
        critical_in_julia_count=0,
        k0="0", k1="0",
        algebra_identification="Cuntz algebra O_2",
        verifiable_checks=("degree_and_fiber_sums", "riemann_hurwitz"),
        notes=("(2z^2 - 1)/z; all critical points fall into an attracting "
               "basin. Literature values."),
    ),
    ExampleRecord(
        name="tchebychev_n",
        build=_chebyshev, default_param=3, param_name="n",
        julia_description="interval [-1, 1]",
        critical_in_julia_count="n - 1",
        k0="Z^(n-1)", k1="0",
        algebra_identification="",
        verifiable_checks=("julia_interval_band", "critical_points_in_julia",
                           "lyubich_moments"),
        notes=("cos(n t) = T_n(cos t); the only degree-n polynomials with "
               "this interval as Julia set are +-T_n. Literature values."),
    ),
    ExampleRecord(
        name="lattes",
        build=lambda _: RationalMap([1, 0, 2, 0, 1], [0, -4, 0, 4]),
        default_param=None, param_name="",
        julia_description="the whole sphere",
        critical_in_julia_count=6,
        k0="rank data only: a six-term exact sequence with K0(I) = Z, "
           "K1(I) = Z^5",
        k1="see k0",
        algebra_identification="",
        verifiable_checks=("critical_count", "degree_and_fiber_sums",
                           "sphere_coverage"),
        notes=("(z^2 + 1)^2 / (4 z (z^2 - 1)). K-theory is pinned down only "
               "through the six-term sequence; literature values."),
    ),
    ExampleRecord(
        name="ushiki_gasket",
        build=lambda _: RationalMap([-16.0 / 27.0, 0, 0, 1], [0, 1]),
        default_param=None, param_name="",
        julia_description="homeomorphic to the Sierpinski gasket",
        critical_in_julia_count=3,
        k0="contains a torsion-free element", k1="",
        algebra_identification=("not isomorphic to O_3, which the rotated "
                                "inverse-branch bimodule over the gasket "
                                "generates"),
        verifiable_checks=("critical_count", "riemann_hurwitz",
                           "julia_render"),
        notes=("(z^3 - 16/27)/z. The reported in-Julia count (3) is the "
               "finite critical points; the homeomorphism type is beyond "
               "numerical verification and stays metadata. Literature "
               "values."),
    ),
)

_BY_NAME = {r.name: r for r in _CATALOG}


def list_examples():
    """Catalog names in report order."""
    return tuple(r.name for r in _CATALOG)


def get(name):
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownExample(f"no example named {name!r}; "
                             f"known: {', '.join(list_examples())}") from None


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_julia_unit_circle(rec, R, seed):
    cloud = sample_inverse_iteration(R, 1.3, count=2000, seed=seed)
    vals = cloud.finite_values()
    dev = float(np.max(np.abs(np.abs(vals) - 1.0))) if vals.size else math.inf
    return {"passed": dev <= 1e-6, "max_modulus_deviation": dev}


def _check_criticals_avoid_julia(rec, R, seed):
    cloud = sample_inverse_iteration(R, 1.3, count=2000, seed=seed)
    hits = critical_points_in_julia(R, cloud, tol=1e-3)
    return {"passed": len(hits) == 0, "criticals_near_sample": len(hits)}


def _check_frame(rec, R, seed):
    cloud = sample_inverse_iteration(R, 1.3, count=2000, seed=seed)
    frame = build_frame(R, cloud.points)
    defect = frame_delta_defect(R, frame, cloud.points[::100])
    return {"passed": defect <= 1e-9, "delta_defect": float(defect),
            "members": len(frame.members)}


def _check_kms(rec, R, seed):
    run = kms_iterate(R, TestFunction.monomial(1), 8,
                      probe_set=(0.8 + 0.1j, 1.2 + 0j, -1.0 + 0j))
    last = run.traces[-1].sup_variation
    gap = run.lyubich_gap
    return {"passed": last <= 1e-6 and gap <= 1e-3,
            "final_sup_variation": float(last), "lyubich_gap": float(gap)}


def _band_cloud(rec, R, seed):
    if rec.name == "z2_minus_2":
        return sample_inverse_iteration(R, 1.0, count=8000, seed=seed), 2.0
    return sample_inverse_iteration(R, 0.3, count=12000, seed=seed), 1.0


def _check_interval_band(rec, R, seed):
    cloud, half = _band_cloud(rec, R, seed)
    vals = cloud.finite_values()
    im_dev = float(np.max(np.abs(vals.imag)))
    re_lo = float(np.min(vals.real))
    re_hi = float(np.max(vals.real))
    span_ok = (re_hi - re_lo) >= 1.8 * half
    passed = im_dev <= 1e-6 and re_lo >= -half - 1e-6 and \
        re_hi <= half + 1e-6 and span_ok
    return {"passed": bool(passed), "max_imag": im_dev,
            "re_range": [re_lo, re_hi], "half_width": half}


def _check_crit_in_julia(rec, R, seed):
    cloud, _ = _band_cloud(rec, R, seed)
    hits = critical_points_in_julia(R, cloud, tol=1e-3)
    want = rec.critical_in_julia_count
    if isinstance(want, str):  # family count like "n - 1"
        want = R.degree - 1
    return {"passed": len(hits) == want, "measured": len(hits),
            "reported": want,
            "points": [[c.point.z.real, c.point.z.imag] for c in hits]}


def _check_tent_conjugacy(rec, R, seed):
    t = np.linspace(0.0, 1.0, 20001)
    phi = 2.0 * np.cos(np.pi * t)
    h = 1.0 - np.abs(1.0 - 2.0 * t)
    defect = float(np.max(np.abs((phi * phi - 2.0) - 2.0 * np.cos(np.pi * h))))
    return {"passed": defect < 1e-10, "conjugacy_defect": defect}


def _check_cardioid(rec, R, seed):
    # 50 parameters scaled into the cardioid, 50 far outside every bounded
    # orbit; the closed form and the escape iteration must agree on all
    mismatches = []
    for k in range(50):
        th = 2.0 * np.pi * k / 50.0
        c = 0.8 * (np.exp(1j * th) / 2.0 - np.exp(2j * th) / 4.0)
        inside = abs(1.0 - np.sqrt(1.0 - 4.0 * c)) < 1.0
        if inside != mandelbrot_member(c) or not inside:
            mismatches.append([c.real, c.imag])
    for k in range(50):
        th = 2.0 * np.pi * (k + 0.5) / 50.0
        c = 2.5 * np.exp(1j * th)
        inside = abs(1.0 - np.sqrt(1.0 - 4.0 * c)) < 1.0
        if inside or mandelbrot_member(c):
            mismatches.append([c.real, c.imag])
    return {"passed": not mismatches, "sampled": 100,
            "mismatches": mismatches}


def _check_fiber_sums(rec, R, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d = R.degree
    ws = np.array([complex(*rng.normal(size=2)) for _ in range(10)])
    _, _, counts, parent = _expand_level(R, ws, np.zeros(ws.size, dtype=bool))
    totals = np.zeros(ws.size, dtype=np.int64)
    np.add.at(totals, parent, counts)
    bad = [[w.real, w.imag, int(t)] for w, t in zip(ws.tolist(), totals)
           if t != d]
    return {"passed": not bad, "degree": d, "bad_fibers": bad}


def _check_riemann_hurwitz(rec, R, seed):
    total = sum(c.index - 1 for c in critical_points(R))
    return {"passed": total == 2 * R.degree - 2, "total": total,
            "expected": 2 * R.degree - 2}


def _check_critical_count(rec, R, seed):
    cds = critical_points(R)
    distinct = len(cds)
    finite = sum(1 for c in cds if not c.point.is_infinity)
    rh = sum(c.index - 1 for c in cds)
    if rec.name == "lattes":
        passed = distinct == 6 and rh == 2 * R.degree - 2
    else:
        # the reported in-Julia count is quoted, not asserted
        passed = rh == 2 * R.degree - 2
    return {"passed": bool(passed), "distinct": distinct,
            "finite": finite, "riemann_hurwitz_total": rh,
            "reported_in_julia": rec.critical_in_julia_count}


def _check_lyubich_moments(rec, R, seed):
    # arcsine moments on [-1, 1]: odd vanish, even are C(k, k/2) / 2^k
    cloud = lyubich_exact(R, 0.1, 7)
    worst = 0.0
    table = []
    for k in range(1, 7):
        val = integrate(cloud, lambda p, _k=k: p.z.real ** _k).real
        want = math.comb(k, k // 2) / 2.0 ** k if k % 2 == 0 else 0.0
        table.append([k, val, want])
        worst = max(worst, abs(val - want))
    return {"passed": worst <= 1e-9, "max_moment_error": worst,
            "moments": table}


def _check_sphere_coverage(rec, R, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    v = rng.normal(size=(4000, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    pts = []
    for x, y, w in v:
        if w > 1.0 - 1e-12:
            pts.append(SpherePoint.infinity())
        else:
            pts.append(SpherePoint.finite(complex(x, y) / (1.0 - w)))
    for _ in range(3):
        pts = [evaluate(R, p) for p in pts]
    k = np.arange(200)
    ga = np.pi * (3.0 - np.sqrt(5.0))
    wp = 1.0 - 2.0 * (k + 0.5) / 200.0
    r = np.sqrt(1.0 - wp * wp)
    grid = np.stack([r * np.cos(ga * k), r * np.sin(ga * k), wp], axis=1)
    d, _ = sphere_nearest(embed_points(pts), grid)
    gap = float(np.max(d))
    return {"passed": gap <= 0.2, "max_gap_after_3_steps": gap}


def _check_render(rec, R, seed):
    img = render(R, (-1.2, 1.2, -1.2, 1.2), 128, mode="density",
                 samples=20000, seed=seed)
    lit = int(np.count_nonzero(img))
    return {"passed": lit >= 164, "nonzero_pixels": lit,
            "resolution": [128, 128]}


_CHECKS = {
    "julia_unit_circle": _check_julia_unit_circle,
    "criticals_avoid_julia": _check_criticals_avoid_julia,
    "frame_partition_of_unity": _check_frame,
    "kms_convergence": _check_kms,
    "julia_interval_band": _check_interval_band,
    "critical_points_in_julia": _check_crit_in_julia,
    "tent_conjugacy": _check_tent_conjugacy,
    "cardioid_vs_escape": _check_cardioid,
    "degree_and_fiber_sums": _check_fiber_sums,
    "riemann_hurwitz": _check_riemann_hurwitz,
    "critical_count": _check_critical_count,
    "lyubich_moments": _check_lyubich_moments,
    "sphere_coverage": _check_sphere_coverage,
    "julia_render": _check_render,
}


def verify(name, param=None, seed=0):
    """Run every verifiable check of one example.

    The report lists the checks in catalog order with measured values. A
    crashed check is reported failed, not raised.
    """
    rec = get(name)
    R = rec.build(param if param is not None else rec.default_param)
    results = []
    for cname in rec.verifiable_checks:
        try:
            out = _CHECKS[cname](rec, R, seed)
        except Exception as exc:  # a crashed check is a failed check
            out = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
        out["check"] = cname
        results.append(out)
    return {
        "schema": 1,
        "name": rec.name,
        "julia_description": rec.julia_description,
        "checks": results,
        "passed": all(c["passed"] for c in results),
    }


def verify_all(seed=0):
    """Verify the whole catalog; reports in catalog order."""
    reports = [verify(n, seed=seed) for n in list_examples()]
    return {"schema": 1, "reports": reports,
            "passed": all(r["passed"] for r in reports)}
