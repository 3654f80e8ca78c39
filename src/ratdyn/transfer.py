"""Composition and transfer operators at the function level.

alpha pulls a function back through the map; transfer_E averages over fibers
with branch-index weights; h = d * transfer_E. Iterating e^{-beta} h at
beta = log(deg) drives test functions to the constant given by the balanced
measure, which is the fixed-point statement this module verifies.
"""

import math
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EvaluationAtInfinity, TabulationMiss
from .julia import critical_points_in_julia
from .numkernel import SpherePoint, _as_pair, embed_points, sphere_nearest
from .measure import _level_integral, integrate
from .ratmap import evaluate, preimages, tree_levels


class TestFunction:
    """Polynomial in z and conj(z), or a tabulated point-value lookup.

    Monomial tables evaluate exactly anywhere in the finite plane (and at
    infinity when constant). Tabulated functions answer only within the
    lookup radius of one of their atoms and refuse to extrapolate.
    """

    __test__ = False     # keep pytest from collecting this as a test class
    __slots__ = ("kind", "coeffs", "_atoms", "_values", "radius", "label")

    def __init__(self, kind, coeffs=None, atoms=None, values=None,
                 radius=None, label=""):
        self.kind = kind
        self.coeffs = coeffs
        self._atoms = atoms
        self._values = values
        self.radius = radius
        self.label = label

    @classmethod
    def monomial(cls, j, k=0, coeff=1.0):
        c = np.zeros((j + 1, k + 1), dtype=complex)
        c[j, k] = coeff
        parts = []
        if coeff != 1.0 or (j == 0 and k == 0):
            parts.append(f"{coeff:g}")
        if j:
            parts.append("z" if j == 1 else f"z^{j}")
        if k:
            parts.append("zbar" if k == 1 else f"zbar^{k}")
        return cls("monomial", coeffs=c, label=" ".join(parts) or "1")

    @classmethod
    def constant(cls, value):
        c = np.array([[complex(value)]])
        return cls("monomial", coeffs=c, label=f"{value:g}")

    @classmethod
    def from_table(cls, table):
        """table: {(j, k): coefficient} for z^j conj(z)^k terms."""
        jmax = max(j for j, _ in table)
        kmax = max(k for _, k in table)
        c = np.zeros((jmax + 1, kmax + 1), dtype=complex)
        for (j, k), v in table.items():
            c[j, k] = v
        terms = [f"{v:g} z^{j} zbar^{k}" for (j, k), v in sorted(table.items())]
        return cls("monomial", coeffs=c, label=" + ".join(terms))

    @classmethod
    def tabulated(cls, points, values, radius, label="tabulated"):
        return cls("tabulated", atoms=embed_points(points),
                   values=np.asarray(values, dtype=complex),
                   radius=float(radius), label=label)

    @property
    def degree_bound(self):
        if self.kind != "monomial":
            return None
        best = 0
        nz = np.argwhere(self.coeffs != 0)
        for j, k in nz:
            best = max(best, int(j) + int(k))
        return best

    def is_constant(self):
        return self.kind == "monomial" and self.degree_bound == 0

    def __call__(self, x):
        zv, isinf = _as_pair(x)
        if self.kind == "monomial":
            if isinf:
                if self.is_constant():
                    return complex(self.coeffs[0, 0])
                raise EvaluationAtInfinity(
                    f"{self.label or 'monomial'} is unbounded at infinity")
            zb = np.conj(zv)
            jp = zv ** np.arange(self.coeffs.shape[0])
            kp = zb ** np.arange(self.coeffs.shape[1])
            return complex(jp @ self.coeffs @ kp)
        dist, idx = sphere_nearest(self._atoms, embed_points([x]))
        if dist[0] > self.radius:
            raise TabulationMiss(
                f"no tabulated atom within {self.radius} of the query")
        return complex(self._values[idx[0]])

    def __repr__(self):
        return f"TestFunction({self.label!r})"


class ComposedFunction:
    """x -> a(R(x)): the pullback alpha(a) as a plain evaluator."""

    __slots__ = ("map", "inner", "label")

    def __init__(self, R, inner):
        self.map = R
        self.inner = inner
        self.label = f"({getattr(inner, 'label', 'a')}) o R"

    def __call__(self, x):
        return self.inner(evaluate(self.map, x))


class ProductFunction:
    """Pointwise product of evaluators."""

    __slots__ = ("factors", "label")

    def __init__(self, *factors):
        self.factors = factors
        self.label = " * ".join(getattr(f, "label", "f") for f in factors)

    def __call__(self, x):
        out = 1.0 + 0j
        for f in self.factors:
            out *= complex(f(x))
        return out


def alpha(R, a):
    """The composition operator: alpha(a) = a o R."""
    return ComposedFunction(R, a)


def transfer_E(R, a, y):
    """Branch-index-weighted fiber average: d^{-1} sum e(x) a(x)."""
    fib = preimages(R, y)
    total = 0j
    for p, e in fib.entries:
        total += e * complex(a(p))
    return total / R.degree


def h_op(R, a, y):
    """h(a)(y) = sum over the fiber of e(x) a(x) = d * transfer_E."""
    return R.degree * transfer_E(R, a, y)


def lemma31_defect(R, a, b, probe_ys):
    """Module-relation defect of the conditional expectation.

    max over probes of |E(alpha(a) b)(y) - a(y) E(b)(y)|, together with the
    companion identity E(alpha(a))(y) = a(y).
    """
    aR = alpha(R, a)
    ab = ProductFunction(aR, b)
    worst = 0.0
    for y in probe_ys:
        p = SpherePoint.from_value(y)
        lhs = transfer_E(R, ab, p)
        rhs = complex(a(p)) * transfer_E(R, b, p)
        worst = max(worst, abs(lhs - rhs))
        worst = max(worst, abs(transfer_E(R, aR, p) - complex(a(p))))
    return worst


# ---------------------------------------------------------------------------
# KMS fixed-point iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IterationTrace:
    """Values of (e^{-beta} h)^level (a) on the probe set."""
    level: int
    values: tuple
    sup_variation: float


@dataclass(frozen=True)
class KmsRun:
    traces: tuple
    beta: float
    hypothesis: str
    final_constant: complex
    lyubich_value: complex
    lyubich_gap: float


def _variation(vals):
    re = [v.real for v in vals]
    im = [v.imag for v in vals]
    return max(max(re) - min(re), max(im) - min(im))


def kms_iterate(R, a, n, probe_set, julia_sample=None, lyubich_budget=16384):
    """Traces of (e^{-beta} h)^k (a) on the probes, beta = log(deg R).

    Each probe's values come from one depth-n preimage tree: level k sums
    index * a(x) over the depth-k fiber, scaled d^{-k}. The final level's
    mean is compared against the balanced-measure integral of a, the same
    level sum over the deepest fiber of probes[0] within lyubich_budget
    points.
    """
    d = R.degree
    beta = math.log(d)
    probes = [SpherePoint.from_value(y) for y in probe_set]
    per_level = [[complex(a(p)) for p in probes]] + [[] for _ in range(n)]
    for p in probes:
        for k, level in enumerate(tree_levels(R, p, n), start=1):
            per_level[k].append(_level_integral(a, *level, 1.0 / d ** k))
    traces = tuple(
        IterationTrace(k, tuple(vals), _variation(vals))
        for k, vals in enumerate(per_level))
    final_vals = per_level[n]
    final_constant = complex(np.mean(final_vals))
    depth = max(1, int(math.floor(math.log(lyubich_budget) / math.log(d))))
    for level in tree_levels(R, probes[0], depth):
        pass
    lyu = _level_integral(a, *level, 1.0 / d ** depth)
    # the fixed-point theorem assumes no critical points on the Julia set;
    # flag runs where a critical point sits near the sample
    sample = list(julia_sample if julia_sample is not None else probe_set)
    tag = ("outside theorem hypothesis"
           if sample and critical_points_in_julia(R, sample, tol=0.05)
           else "within theorem hypothesis")
    return KmsRun(traces, beta, tag, final_constant, lyu,
                  abs(final_constant - lyu))


def kms_defect(R, mu_cloud, test_functions, beta=None):
    """max over tests of |integral of e^{-beta} h(a) - integral of a|.

    beta defaults to log(deg R), the unique inverse temperature where the
    defect vanishes; passing any other beta demonstrates the failure.
    """
    d = R.degree
    if beta is None:
        beta = math.log(d)
    scale = math.exp(-beta)
    worst = 0.0
    for a in test_functions:
        ha = lambda y, _a=a: scale * h_op(R, _a, y)
        worst = max(worst,
                    abs(integrate(mu_cloud, ha) - integrate(mu_cloud, a)))
    return worst


class Entropy(NamedTuple):
    value: float
    note: str = "theoretical value"


def entropy(R):
    """Measure-theoretic = topological entropy, log(deg R), from theory."""
    if R.degree < 2:
        raise ValueError("entropy statement needs degree >= 2")
    return Entropy(math.log(R.degree))


def write_trace_csv(path, traces):
    """CSV one row per (level, probe): level,probe_index,re,im."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("level,probe_index,re,im\n")
        for tr in traces:
            for i, v in enumerate(tr.values):
                fh.write("%d,%d,%.17g,%.17g\n" % (tr.level, i, v.real, v.imag))


def write_defects_json(path, payload):
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"schema": 1, **payload}, fh, sort_keys=True, indent=2)
        fh.write("\n")
