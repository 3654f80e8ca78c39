"""Composition and transfer operators at the function level.

alpha pulls a function back through the map; transfer_E averages over fibers
with branch-index weights; h = d * transfer_E. Iterating e^{-beta} h at
beta = log(deg) drives test functions to the constant given by the balanced
measure, which is the fixed-point statement this module verifies.

Everything runs on arrays. Test functions evaluate (z, isinf) arrays
through their method `at`, and a scalar call is its one-point case. The
fibers of all bases of one operator call come from one `_expand_level`
solve, and a KMS trace expands all its probes as one forest
(`ratmap._forest`), summed per probe in node order.
"""

import math
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EvaluationAtInfinity, TabulationMiss
from .julia import _critical_near
from .numkernel import (_as_arrays, _at_point, _values_at, embed_points,
                        sphere_embed, sphere_nearest)
from .measure import _level_sums
from .ratmap import _evaluate_arrays, _expand_level, _forest


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

    def at(self, z, isinf):
        """Values at the points (z, isinf), as a complex array.

        A monomial table sums c[j, k] z^j conj(z)^k; infinity has z = 0
        there, so a constant keeps its value.
        """
        if self.kind == "monomial":
            if isinf.any():
                if not self.is_constant():
                    raise EvaluationAtInfinity(
                        f"{self.label or 'monomial'} is unbounded at infinity")
                z = np.where(isinf, 0j, z)
            j, k = self.coeffs.shape
            # einsum, not matmul: BLAS sums a point's terms in an order
            # that depends on the other rows of the batch
            return np.einsum("nj,jk,nk->n", z[:, None] ** np.arange(j),
                             self.coeffs, np.conj(z)[:, None] ** np.arange(k))
        dist, idx = sphere_nearest(self._atoms, sphere_embed(z, isinf))
        if np.any(dist > self.radius):
            raise TabulationMiss(
                f"no tabulated atom within {self.radius} of the query")
        return self._values[idx]

    def __call__(self, x):
        return _at_point(self.at, x)

    def __repr__(self):
        return f"TestFunction({self.label!r})"


class ComposedFunction:
    """x -> a(R(x)): the pullback alpha(a) as a plain evaluator."""

    __slots__ = ("map", "inner", "label")

    def __init__(self, R, inner):
        self.map = R
        self.inner = inner
        self.label = f"({getattr(inner, 'label', 'a')}) o R"

    def at(self, z, isinf):
        return _values_at(self.inner, *_evaluate_arrays(self.map, z, isinf))

    def __call__(self, x):
        return _at_point(self.at, x)


class ProductFunction:
    """Pointwise product of evaluators."""

    __slots__ = ("factors", "label")

    def __init__(self, *factors):
        self.factors = factors
        self.label = " * ".join(getattr(f, "label", "f") for f in factors)

    def at(self, z, isinf):
        out = np.ones(z.shape, dtype=complex)
        for f in self.factors:
            out = out * _values_at(f, z, isinf)
        return out

    def __call__(self, x):
        return _at_point(self.at, x)


def alpha(R, a):
    """The composition operator: alpha(a) = a o R."""
    return ComposedFunction(R, a)


def transfer_E(R, a, y):
    """Branch-index-weighted fiber average: d^{-1} sum e(x) a(x)."""
    fiber = _expand_level(R, *_as_arrays([y]))
    return complex(_level_sums(a, *fiber, 1.0)[0]) / R.degree


def h_op(R, a, y):
    """h(a)(y) = sum over the fiber of e(x) a(x) = d * transfer_E."""
    return R.degree * transfer_E(R, a, y)


def lemma31_defect(R, a, b, probe_ys):
    """Module-relation defect of the conditional expectation.

    max over probes of |E(alpha(a) b)(y) - a(y) E(b)(y)|, together with the
    companion identity E(alpha(a))(y) = a(y).
    """
    z, isinf = _as_arrays(probe_ys)
    if not z.size:
        return 0.0
    fiber = _expand_level(R, z, isinf)

    def expect(f):
        return _level_sums(f, *fiber, 1.0 / R.degree)

    aR = alpha(R, a)
    ay = _values_at(a, z, isinf)
    lhs, rhs = expect(ProductFunction(aR, b)), ay * expect(b)
    return float(max(np.max(np.abs(lhs - rhs)),
                     np.max(np.abs(expect(aR) - ay))))


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
    return float(max(np.ptp(vals.real), np.ptp(vals.imag)))


def kms_iterate(R, a, n, probe_set, julia_sample=None, lyubich_budget=16384):
    """Traces of (e^{-beta} h)^k (a) on the probes, beta = log(deg R).

    All probes' depth-n preimage trees are expanded as one forest: level k
    sums index * a(x) over each probe's depth-k fiber, left to right,
    scaled d^{-k}. The final level's mean is compared against the
    balanced-measure integral of a, the same level sum over the deepest
    fiber of probes[0] within lyubich_budget points. An empty probe set
    raises ValueError. The hypothesis tag looks for critical points near
    julia_sample (the probes when None), which may be any sequence of
    points, as for `critical_points_in_julia`, and is read once.
    """
    z, isinf = _as_arrays(probe_set)
    if not z.size:
        raise ValueError("kms_iterate needs at least one probe point")
    sz, sinf = (z, isinf) if julia_sample is None else _as_arrays(julia_sample)
    d = R.degree
    beta = math.log(d)
    vals = np.zeros((n + 1, z.size), dtype=complex)
    vals[0] = _values_at(a, z, isinf)
    for k, *level in _forest(R, z, isinf, n):
        sums = _level_sums(a, *level, 1.0 / d ** k)
        first = level[3][0]
        vals[k, first:first + sums.size] = sums
    traces = tuple(
        IterationTrace(k, tuple(complex(v) for v in row), _variation(row))
        for k, row in enumerate(vals))
    final_constant = complex(np.mean(vals[n]))
    depth = max(1, int(math.floor(math.log(lyubich_budget) / math.log(d))))
    for _, *level in _forest(R, z[:1], isinf[:1], depth):
        pass   # keep the deepest level
    lyu = complex(_level_sums(a, *level, 1.0 / d ** depth)[0])
    # the fixed-point theorem assumes no critical points on the Julia set;
    # flag runs where a critical point sits near the sample
    tag = ("outside theorem hypothesis"
           if sz.size and _critical_near(R, sz, sinf, 0.05)
           else "within theorem hypothesis")
    return KmsRun(traces, beta, tag, final_constant, lyu,
                  abs(final_constant - lyu))


def kms_defect(R, mu_cloud, test_functions, beta=None):
    """max over tests of |integral of e^{-beta} h(a) - integral of a|.

    beta defaults to log(deg R), the unique inverse temperature where the
    defect vanishes; passing any other beta demonstrates the failure.
    """
    if beta is None:
        beta = math.log(R.degree)
    scale = math.exp(-beta)
    z, isinf = _as_arrays(mu_cloud)
    w = mu_cloud.weights()
    fiber = _expand_level(R, z, isinf)
    worst = 0.0
    for a in test_functions:
        ha = _level_sums(a, *fiber, scale)
        worst = max(worst, abs(complex(np.sum(w * ha))
                               - complex(np.sum(w * _values_at(a, z, isinf)))))
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
