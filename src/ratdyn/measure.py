"""Balanced-measure approximation on the Julia set.

Two routes to the measure of maximal entropy: exact pullback trees with
integer weight bookkeeping (index over d^n), and Monte-Carlo backward walks
whose step law e(x)/d has the same stationary behaviour. Plus integration,
invariance defects, and convergence diagnostics.

Level sums run on arrays: a function is evaluated on all depth-k leaves
of a base at once (`numkernel._values_at`), d^k entries that list each
preimage as often as its index, and summed left to right, as a scalar
loop over them adds (`ratmap._row_sums`).

A `WeightedCloud` is an array-backed point set with weights; CSV files
use the point format with its weight column and read back to arrays.
"""

import functools
import math

import numpy as np

from .numkernel import (SpherePoint, _PointSet, _as_arrays, _read_points_csv,
                        _values_at, _write_json, _write_points_csv,
                        chordal_distance, sphere_embed)
from .julia import BURN_IN, _walk
from .ratmap import _evaluate_arrays, _leaves, _row_sums, tree_levels


class WeightedCloud(_PointSet):
    """Atoms (point, weight) summing to 1, held as arrays.

    A `numkernel._PointSet` of the atoms' points that adds w, the
    read-only float weights. Exact-tree clouds also carry integer weights
    over a common denominator d^n, so pushforward and fiber-sum identities
    can be checked exactly. `atoms` and `points()` give SpherePoints,
    built on first access; the point tuple keeps the arrays. provenance is
    ("exact_tree", y, n) or ("monte_carlo", y, depth, samples, seed) or
    ("file", path).
    """

    def __init__(self, atoms, provenance, int_weights=None, denominator=None):
        atoms = tuple(atoms)
        self._init(*_as_arrays([p for p, _ in atoms]), [w for _, w in atoms],
                   provenance, int_weights, denominator)

    @classmethod
    def from_arrays(cls, z, isinf, w, provenance, int_weights=None,
                    denominator=None):
        """The cloud of atoms (z, isinf) with weights w."""
        cloud = cls.__new__(cls)
        cloud._init(z, isinf, w, provenance, int_weights, denominator)
        return cloud

    def _init(self, z, isinf, w, provenance, int_weights, denominator):
        super().__init__(z, isinf)
        self.w = np.array(w, dtype=float)
        self.w.flags.writeable = False
        self.provenance = provenance
        self.int_weights = self.denominator = None
        if int_weights is not None:
            self.int_weights = np.array(int_weights, dtype=np.int64)
            self.int_weights.flags.writeable = False
            self.denominator = denominator
            total = sum(self.int_weights.tolist())
            if total != denominator:
                raise ValueError(f"integer weights sum to {total}, "
                                 f"not {denominator}")
            return
        total = math.fsum(self.w.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")

    @functools.cached_property
    def atoms(self):
        return tuple(zip(self._points, self.w.tolist()))

    def points(self):
        return self._points

    def weights(self):
        return self.w


def lyubich_exact(R, y, n):
    """Depth-n pullback cloud: atoms d^{-n} e_{R^n}(x) delta_x.

    Weights are integer branch-index products over the integer total d^n;
    they sum to 1 exactly.
    """
    if n < 1:
        raise ValueError("depth must be at least 1")
    for pts, inf, idx in tree_levels(R, y, n):
        pass   # keep the deepest level
    den = R.degree ** n
    prov = ("exact_tree", SpherePoint.from_value(y), n)
    # Python's int / int rounds the exact quotient once; numpy would round
    # an index and d^n beyond 2^53 first
    return WeightedCloud.from_arrays(
        pts, inf, [i / den for i in idx.tolist()], prov, idx, den)


def lyubich_mc(R, y, depth, samples, seed=0):
    """Monte-Carlo cloud: endpoints of `samples` backward walks of `depth`.

    Every endpoint atom carries weight 1/samples. depth must cover the
    burn-in mixing length. Only the walks' last step is kept.
    """
    if depth < BURN_IN:
        raise ValueError(f"depth {depth} is below the burn-in {BURN_IN}")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    (zs,), (fl,) = _walk(R, y, depth, samples, rng, 1)
    prov = ("monte_carlo", SpherePoint.from_value(y), depth, samples, seed)
    return WeightedCloud.from_arrays(zs, fl, np.full(samples, 1.0 / samples),
                                     prov)


def integrate(cloud, a):
    """Sum of weight * a(atom), added left to right.

    a is evaluated on the arrays through `a.at` when it has one; any other
    callable is called with the cloud's SpherePoint atoms.
    """
    return _weighted_sum(
        cloud.w, _values_at(a, cloud.z, cloud.isinf, cloud))


def invariance_defect(R, cloud, test_functions):
    """max over tests of |integral of a(R(x)) - integral of a(x)|."""
    img = _PointSet(*_evaluate_arrays(R, cloud.z, cloud.isinf))
    worst = 0.0
    for a in test_functions:
        pushed = _weighted_sum(cloud.w, _values_at(a, img.z, img.isinf, img))
        worst = max(worst, abs(pushed - integrate(cloud, a)))
    return worst


def _weighted_sum(w, values):
    """sum of w * values from 0 in order, as a scalar loop adds."""
    return complex(0.0 + np.cumsum(w * values)[-1]) if w.size else 0j


def _test_label(a, i):
    return getattr(a, "label", None) or f"test{i}"


def convergence_diagnostic(R, y, n, test_functions, y2=None):
    """Level-to-level integral gaps of the pullback measures of y.

    Records {k, test, gap} with gap = |I_{k+1}(a) - I_k(a)| for k < n, where
    I_k integrates a against the depth-k cloud. With a second basepoint y2,
    appends the cross-basepoint gap at depth n for each test.
    """
    labels = [_test_label(a, i) for i, a in enumerate(test_functions)]
    z, isinf = _as_arrays([y])
    # one sequence per test, by position: two tests may share a label
    vals = [[complex(_values_at(a, z, isinf)[0])] for a in test_functions]
    for _, _, pts, inf in _leaves(R, z, isinf, n):
        for seq, a in zip(vals, test_functions):
            seq.append(complex(_row_sums(_values_at(a, pts, inf), pts.size)[0]
                               * (1.0 / pts.size)))
    records = []
    for lab, seq in zip(labels, vals):
        for k in range(n):
            records.append(
                {"k": k, "test": lab, "gap": abs(seq[k + 1] - seq[k])})
    if y2 is not None:
        if n < 1:
            raise ValueError("depth must be at least 1")
        for _, _, pts, inf in _leaves(R, *_as_arrays([y2]), n):
            pass   # keep the deepest level
        for lab, a, seq in zip(labels, test_functions, vals):
            want = complex(_row_sums(_values_at(a, pts, inf), pts.size)[0]
                           * (1.0 / pts.size))
            gap = abs(seq[n] - want)
            records.append(
                {"k": n, "test": lab + " cross-basepoint", "gap": gap})
    return records


# key offsets of the 27 grid cells around a cell, in `_cell_keys` units
_CELL = 1 << 42
_AROUND = tuple((i * _CELL + j) * _CELL + k
                for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1))


def _cell_keys(z, isinf, width):
    """Grid-hash keys of cubes of side width on sphere_embed coordinates."""
    i, j, k = np.floor(sphere_embed(z, isinf) / width).astype(
        np.int64).T.tolist()
    return [(a * _CELL + b) * _CELL + c for a, b, c in zip(i, j, k)]


def pushforward(R, cloud, merge_tol=1e-9):
    """Forward image of a cloud under R, nearby atoms aggregated.

    Each image joins the first earlier atom, in insertion order, within
    chordal distance merge_tol, or starts an atom of its own. Atoms are
    found through a grid hash on sphere_embed coordinates: cubes wider
    than 2 merge_tol, so every atom within merge_tol lies in one of the 27
    cubes around the image. For an exact depth-n tree this reproduces the
    depth-(n-1) tree with integer weights intact (aggregation only ever
    sums weights of atoms that coincide up to roundoff).
    """
    img = _PointSet(*_evaluate_arrays(R, cloud.z, cloud.isinf))
    z, isinf, imgs = img.z, img.isinf, img._points
    # the slack covers the roundings of sphere_embed and chordal_distance
    width = 2.0 * merge_tol + 1e-12 if merge_tol > 0 else 1e-12
    grid = {}    # cell key -> positions in `first` of the atoms it holds
    first, into = [], []   # each atom's first image, each image's atom
    for j, key in enumerate(_cell_keys(z, isinf, width)):
        for t in sorted(t for k in _AROUND for t in grid.get(key + k, ())):
            if chordal_distance(imgs[j], imgs[first[t]]) <= merge_tol:
                into.append(t)
                break
        else:
            grid.setdefault(key, []).append(len(first))
            into.append(len(first))
            first.append(j)
    first = np.array(first, dtype=np.int64)
    order = np.lexsort((z.imag[first], z.real[first], isinf[first]))
    # both sums add each atom's images in order, as a loop over them does
    w = np.bincount(into, cloud.w, first.size)[order]
    iw = cloud.int_weights
    if iw is not None:
        iw = np.zeros(first.size, dtype=np.int64)
        np.add.at(iw, into, cloud.int_weights)
        iw = iw[order]
    return WeightedCloud.from_arrays(
        z[first[order]], isinf[first[order]], w,
        ("pushforward",) + cloud.provenance, iw, cloud.denominator)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_weighted_csv(path, cloud):
    """One line re,im,is_infinity,weight per atom of a weighted cloud."""
    _write_points_csv(path, cloud.z, cloud.isinf, cloud.w)


def read_weighted_csv(path):
    """The weighted cloud of a file of `write_weighted_csv`."""
    z, isinf, w = _read_points_csv(path, weighted=True)
    return WeightedCloud.from_arrays(z, isinf, w, ("file", str(path)))


def write_diagnostics_json(path, records):
    _write_json(path, {"schema": 1, "records": records})
