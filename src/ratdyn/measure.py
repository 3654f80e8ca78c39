"""Balanced-measure approximation on the Julia set.

Two routes to the measure of maximal entropy: exact pullback trees with
integer weight bookkeeping (index over d^n), and Monte-Carlo backward walks
whose step law e(x)/d has the same stationary behaviour. Plus integration,
invariance defects, and convergence diagnostics.

Level sums run on arrays: a function is evaluated on a whole tree or
forest level at once (`numkernel._values_at`), and each root's nodes are
summed left to right, as a scalar loop over them adds (`_root_sums`).
"""

import json
import math

import numpy as np
from dataclasses import dataclass

from .numkernel import SpherePoint, _as_pair, _values_at, chordal_distance
from .julia import BURN_IN, backward_walk
from .ratmap import _forest, evaluate, preimage_tree


@dataclass(frozen=True)
class WeightedCloud:
    """Atoms (point, weight) summing to 1.

    Exact-tree clouds also carry integer weights over a common denominator
    d^n, so pushforward and fiber-sum identities can be checked exactly.
    provenance is ("exact_tree", y, n) or ("monte_carlo", y, depth, samples,
    seed) or ("file", path).
    """
    atoms: tuple
    provenance: tuple
    int_weights: tuple = None
    denominator: int = None

    def __post_init__(self):
        if self.int_weights is not None:
            total = sum(self.int_weights)
            if total != self.denominator:
                raise ValueError(f"integer weights sum to {total}, "
                                 f"not {self.denominator}")
            return
        total = math.fsum(w for _, w in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")

    def __len__(self):
        return len(self.atoms)

    def points(self):
        return tuple(p for p, _ in self.atoms)

    def weights(self):
        return np.array([w for _, w in self.atoms])


def lyubich_exact(R, y, n):
    """Depth-n pullback cloud: atoms d^{-n} e_{R^n}(x) delta_x.

    Weights are integer branch-index products over the integer total d^n;
    they sum to 1 exactly.
    """
    fib = preimage_tree(R, y, n)
    den = R.degree ** n
    atoms = tuple((p, idx / den) for p, idx in fib.entries)
    ints = tuple(int(idx) for _, idx in fib.entries)
    yv, yinf = _as_pair(y)
    prov = ("exact_tree", SpherePoint(yv, yinf), n)
    return WeightedCloud(atoms, prov, ints, den)


def lyubich_mc(R, y, depth, samples, seed=0):
    """Monte-Carlo cloud: endpoints of `samples` backward walks of `depth`.

    Every endpoint atom carries weight 1/samples. depth must cover the
    burn-in mixing length.
    """
    if depth < BURN_IN:
        raise ValueError(f"depth {depth} is below the burn-in {BURN_IN}")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    chains, chain_inf = backward_walk(R, y, depth, samples, rng)
    zs, fl = chains[-1], chain_inf[-1]
    w = 1.0 / samples
    atoms = tuple(
        (SpherePoint.infinity() if fl[i] else SpherePoint.finite(zs[i]), w)
        for i in range(samples))
    yv, yinf = _as_pair(y)
    prov = ("monte_carlo", SpherePoint(yv, yinf), depth, samples, seed)
    return WeightedCloud(atoms, prov)


def integrate(cloud, a):
    """Sum of weight * a(atom). a is called with SpherePoint atoms."""
    return complex(sum(w * complex(a(p)) for p, w in cloud.atoms))


def invariance_defect(R, cloud, test_functions):
    """max over tests of |integral of a(R(x)) - integral of a(x)|."""
    worst = 0.0
    for a in test_functions:
        pushed = complex(
            sum(w * complex(a(evaluate(R, p))) for p, w in cloud.atoms))
        worst = max(worst, abs(pushed - integrate(cloud, a)))
    return worst


def _root_table(values, root):
    """Node values grouped by root: row r holds root root[0] + r.

    Each root's nodes are contiguous and roots ascend, as in a forest
    level or an `_expand_level` output. Rows keep node order and are
    padded with zeros to the widest root.
    """
    count = np.bincount(root - root[0])
    col = np.arange(root.size) - np.repeat(np.cumsum(count) - count, count)
    table = np.zeros((count.size, count.max()) + values.shape[1:],
                     dtype=values.dtype)
    table[root - root[0], col] = values
    return table


def _root_sums(values, root):
    """Sum of each root's node values, for roots root[0] .. root[-1].

    Each sum adds from 0 in node order, as a scalar loop over the nodes
    adds; numpy's pairwise sum would differ in the last bits.
    """
    return 0.0 + np.cumsum(_root_table(values, root), axis=1)[:, -1]


def _level_sums(a, pts, isinf, idx, root, scale):
    """scale * sum of index * a(x) over each root's nodes of a level."""
    return _root_sums(idx * _values_at(a, pts, isinf), root) * scale


def _test_label(a, i):
    return getattr(a, "label", None) or f"test{i}"


def convergence_diagnostic(R, y, n, test_functions, y2=None):
    """Level-to-level integral gaps of the pullback measures of y.

    Records {k, test, gap} with gap = |I_{k+1}(a) - I_k(a)| for k < n, where
    I_k integrates a against the depth-k cloud. With a second basepoint y2,
    appends the cross-basepoint gap at depth n for each test.
    """
    d = R.degree
    labels = [_test_label(a, i) for i, a in enumerate(test_functions)]
    yv, yinf = _as_pair(y)
    z, isinf = np.array([yv]), np.array([yinf])
    # one sequence per test, by position: two tests may share a label
    vals = [[complex(_values_at(a, z, isinf)[0])] for a in test_functions]
    for k, *level in _forest(R, z, isinf, n):
        for seq, a in zip(vals, test_functions):
            seq.append(complex(_level_sums(a, *level, 1.0 / d ** k)[0]))
    records = []
    for lab, seq in zip(labels, vals):
        for k in range(n):
            records.append(
                {"k": k, "test": lab, "gap": abs(seq[k + 1] - seq[k])})
    if y2 is not None:
        if n < 1:
            raise ValueError("depth must be at least 1")
        yv, yinf = _as_pair(y2)
        for _, *other in _forest(R, np.array([yv]), np.array([yinf]), n):
            pass   # keep the deepest level
        for lab, a, seq in zip(labels, test_functions, vals):
            want = complex(_level_sums(a, *other, 1.0 / d ** n)[0])
            gap = abs(seq[n] - want)
            records.append(
                {"k": n, "test": lab + " cross-basepoint", "gap": gap})
    return records


def pushforward(R, cloud, merge_tol=1e-9):
    """Forward image of a cloud under R, nearby atoms aggregated.

    For an exact depth-n tree this reproduces the depth-(n-1) tree with
    integer weights intact (aggregation only ever sums weights of atoms
    that coincide up to roundoff).
    """
    imgs = [(evaluate(R, p), w) for p, w in cloud.atoms]
    ints = (list(cloud.int_weights)
            if cloud.int_weights is not None else [None] * len(imgs))
    merged = []  # (point, weight, int_weight)
    for (p, w), iw in zip(imgs, ints):
        hit = False
        for t, (q, wq, iq) in enumerate(merged):
            if chordal_distance(p, q) <= merge_tol:
                merged[t] = (q, wq + w,
                             None if iq is None or iw is None else iq + iw)
                hit = True
                break
        if not hit:
            merged.append((p, w, iw))
    merged.sort(key=lambda t: t[0].sort_key())
    atoms = tuple((p, w) for p, w, _ in merged)
    ints_out = tuple(iw for _, _, iw in merged)
    have_ints = all(iw is not None for iw in ints_out) and len(ints_out) > 0
    return WeightedCloud(
        atoms, ("pushforward",) + cloud.provenance,
        ints_out if have_ints else None,
        cloud.denominator if have_ints else None)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_weighted_csv(path, cloud):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("re,im,is_infinity,weight\n")
        for p, w in cloud.atoms:
            if p.is_infinity:
                fh.write("0,0,1,%.17g\n" % w)
            else:
                fh.write("%.17g,%.17g,0,%.17g\n" % (p.z.real, p.z.imag, w))


def read_weighted_csv(path):
    atoms = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header.split(",")[:4] != ["re", "im", "is_infinity", "weight"]:
            raise ValueError(f"unexpected weighted-cloud header: {header!r}")
        for line in fh:
            if not line.strip():
                continue
            re_s, im_s, inf_s, w_s = line.strip().split(",")[:4]
            # complex(re, im), not re + 1j*im: the sum would lose the sign
            # of a negative-zero imaginary part and break byte round-trips
            p = (SpherePoint.infinity() if inf_s.strip() == "1"
                 else SpherePoint.finite(complex(float(re_s), float(im_s))))
            atoms.append((p, float(w_s)))
    return WeightedCloud(tuple(atoms), ("file", str(path)))


def write_diagnostics_json(path, records):
    payload = {"schema": 1, "records": records}
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
