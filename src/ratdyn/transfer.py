"""Composition and transfer operators at the function level.

alpha pulls a function back through the map; transfer_E averages over fibers
with branch-index weights; h = d * transfer_E. Iterating e^{-beta} h at
beta = log(deg) drives test functions to the constant given by the balanced
measure, which is the fixed-point statement this module verifies.

Everything runs on arrays. Test functions evaluate (z, isinf) arrays
through their method `at`, and a scalar call is its one-point case. Every
operator is a row sum: a fiber-table row lists x as often as e(x), so
sum e(x) a(x) over a fiber adds a over the row's d entries, left to right
(`ratmap._row_sums`). The fibers of all bases of one operator call come
from one sorted table (`ratmap._sorted_table`). A holomorphic table
a = sum c_j z^j is summed over a fiber from the fiber polynomial's
coefficients instead (`ratmap._fiber_power_sums`, through `_h`), by
`transfer_E`, `h_op`, `kms_defect` and `kms_iterate`. A KMS trace reads
all its probes' depth-k leaves (`ratmap._leaves`), d^k per probe, or for
a holomorphic table their depth-(k - 1) nodes; its Lyubich value
continues the first probe's tree.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EvaluationAtInfinity, TabulationMiss
from .julia import _critical_near
from .numkernel import (_Evaluator, _as_arrays, _values_at, embed_points,
                        sphere_embed, sphere_nearest)
from .ratmap import (NODE_BUDGET, _depth_within, _evaluate_arrays,
                     _fiber_power_sums, _leaves, _row_sums, _sorted_table,
                     _within)


def _powers(z, ps):
    """The columns z^p for the exponents ps, bit for bit as z[:, None] ** ps.

    z^0 is 1, and z^1 is z except that numpy's power returns +0 for a zero
    of any sign, so only the exponents from 2 on go through the power.
    """
    out = np.empty((z.size, ps.size), dtype=complex)
    for c, p in enumerate(ps.tolist()):
        if p < 2:
            out[:, c] = np.where(z == 0, 0j, z) if p else 1.0
        else:
            np.power(z, ps[c:c + 1], out=out[:, c])
    return out


class TestFunction(_Evaluator):
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
            # the nonzero terms in C order, as einsum sums the whole table;
            # not matmul: BLAS orders a point's terms by the other rows
            j, k = np.nonzero(self.coeffs)
            return np.einsum("nt,t,nt->n", _powers(z, j), self.coeffs[j, k],
                             _powers(np.conj(z), k))
        dist, idx = sphere_nearest(self._atoms, sphere_embed(z, isinf))
        if np.any(dist > self.radius):
            raise TabulationMiss(
                f"no tabulated atom within {self.radius} of the query")
        return self._values[idx]

    def __repr__(self):
        return f"TestFunction({self.label!r})"


class ComposedFunction(_Evaluator):
    """x -> a(R(x)): the pullback alpha(a) as a plain evaluator."""

    __slots__ = ("map", "inner", "label")

    def __init__(self, R, inner):
        self.map = R
        self.inner = inner
        self.label = f"({getattr(inner, 'label', 'a')}) o R"

    def at(self, z, isinf):
        return _values_at(self.inner, *_evaluate_arrays(self.map, z, isinf))


class ProductFunction(_Evaluator):
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


def alpha(R, a):
    """The composition operator: alpha(a) = a o R."""
    return ComposedFunction(R, a)


def _holomorphic(a):
    """The coefficients c of a = sum c[j] z^j when a is a monomial table
    with no nonzero conj(z) term, else None."""
    if (isinstance(a, TestFunction) and a.kind == "monomial"
            and not a.coeffs[:, 1:].any()):
        return a.coeffs[:, 0]
    return None


def _h(R, a, z, isinf, table=None):
    """h(a) at the bases (z, isinf): sum e(x) a(x) over each fiber. A
    holomorphic table sums from the fiber polynomial
    (`ratmap._fiber_power_sums`), any other function over the bases'
    sorted table (`_row_sums`), which a caller that holds it passes."""
    c = _holomorphic(a)
    if c is not None:
        return _fiber_power_sums(R, z, isinf, c, a.at)
    pts, inf, _ = table or _sorted_table(R, z, isinf)
    return _row_sums(_values_at(a, pts, inf), R.degree)


def transfer_E(R, a, y):
    """Branch-index-weighted fiber average: d^{-1} sum e(x) a(x)."""
    return complex(_h(R, a, *_as_arrays([y]))[0]) / R.degree


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
    pts, inf, _ = _sorted_table(R, z, isinf)
    d = R.degree

    def expect(values):
        return _row_sums(values, d) * (1.0 / d)

    # alpha(a) on the fibers once; the product in ProductFunction's order
    aR = _values_at(alpha(R, a), pts, inf)
    bq = _values_at(b, pts, inf)
    ay = _values_at(a, z, isinf)
    lhs = expect(np.ones(aR.shape, dtype=complex) * aR * bq)
    return float(max(np.max(np.abs(lhs - ay * expect(bq))),
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


def kms_iterate(R, a, n, probe_set, julia_sample=None, lyubich_budget=16384):
    """Traces of (e^{-beta} h)^k (a) on the probes, beta = log(deg R).

    All probes' trees are expanded together (`ratmap._leaves`): level k
    sums a over each probe's d^k leaves, left to right, scaled d^{-k}. A
    holomorphic table (`_h`) sums h(a) over each probe's d^(k - 1) nodes
    at depth k - 1 instead, so the trees stop one level short; every
    level still counts its d^k leaves against the node budget. The final
    level's mean is compared against the balanced-measure integral of a,
    the same sum over the deepest level of probes[0] within
    lyubich_budget points: its tree at that depth, or at depth n grown
    further, so that no level is expanded twice. An empty probe set
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
    depth = _depth_within(d, lyubich_budget)
    c = _holomorphic(a)
    shift = 0 if c is None else 1

    def terms(pts, inf):   # what a level sums, left to right, per probe
        if c is None:
            return _values_at(a, pts, inf)
        return _fiber_power_sums(R, pts, inf, c, a.at)
    vals = np.zeros((n + 1, z.size), dtype=complex)
    vals[0] = _values_at(a, z, isinf)
    # the nodes of probes[0] at level min(n, depth), which lead their level
    lz, lf = z[:1], isinf[:1]
    for k, lo, pts, inf in _leaves(R, z, isinf, n, shift=shift):
        w = d ** (k - shift)
        sums = _row_sums(terms(pts, inf), w) * (1.0 / d ** k)
        vals[k, lo:lo + sums.size] = sums
        if k == min(n, depth) and lo == 0:
            lz, lf = pts[:w], inf[:w]
    re, im = (np.ptp(part, axis=1) for part in (vals.real, vals.imag))
    var = np.where(im > re, im, re)   # as Python's max(re, im)
    traces = tuple(IterationTrace(k, tuple(row), v) for k, (row, v)
                   in enumerate(zip(vals.tolist(), var.tolist())))
    final_constant = complex(np.mean(vals[n]))
    # continued to the Lyubich depth as one tree within the node budget,
    # as the tree of probes[0] alone would be
    for k in range(n + 1, depth + 1):
        _within(d ** k, NODE_BUDGET)
        if k > shift:
            lz, lf, _ = _sorted_table(R, lz, lf)
    lyu = complex(_row_sums(terms(lz, lf), lz.size)[0] * (1.0 / d ** depth))
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
    worst, table = 0.0, None
    for a in test_functions:
        if table is None and _holomorphic(a) is None:   # solved once
            table = _sorted_table(R, z, isinf)
        ha = _h(R, a, z, isinf, table) * scale
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
