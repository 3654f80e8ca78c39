"""Property tests of the branched-covering bookkeeping on generated inputs.

Example counts are kept small so the suite stays fast; the draws are
derandomized, so every run checks the same cases.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ratdyn.errors import CoprimalityError
from ratdyn.measure import lyubich_exact, pushforward
from ratdyn.numkernel import SpherePoint, chordal_distance
from ratdyn.ratmap import (RationalMap, critical_points, evaluate,
                           iterate_map, preimages, tree_levels)
from ratdyn.registry import get, list_examples

INF = SpherePoint.infinity()
MAPS = [get(n).map for n in list_examples()] + [
    RationalMap([0, 5, 0, -20, 0, 16], [1]),    # T5
    RationalMap([1, 0, 0, 1], [0, -1, 0, 2]),   # R(infinity) = 1/2
    RationalMap([1, 0, 0, 1], [0, 0, 1]),       # a double pole at 0
]

bounded = settings(max_examples=40, deadline=None, database=None,
                   derandomize=True,
                   suppress_health_check=[HealthCheck.filter_too_much])
bases = st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                           allow_infinity=False)
coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=5)


def _rational_map(p, q):
    assume(any(p) and any(q))
    try:
        R = RationalMap(p, q)
    except CoprimalityError:
        assume(False)
    assume(R.degree >= 1)
    return R


def _clear_of_critical_values(R, y, k, gap=1e-3):
    # near a critical value of R^k the tree and the composed map may merge
    # a nearly double preimage differently; both are right to the radius
    for c in critical_points(R):
        v = c.point
        for _ in range(k):
            v = evaluate(R, v)
            if chordal_distance(v, y) < gap:
                return False
    return True


def _nearest(p, points):
    gap = [chordal_distance(p, q) for q in points]
    j = min(range(len(gap)), key=gap.__getitem__)
    return j, gap[j]


@bounded
@given(coeffs, coeffs, st.one_of(st.just(INF), bases))
def test_fiber_index_sums(p, q, y):
    R = _rational_map(p, q)
    fib = preimages(R, y)
    assert sum(e for _, e in fib.entries) == R.degree
    for x, _ in fib.entries:
        if not x.is_infinity:
            assert chordal_distance(evaluate(R, x), y) <= 1e-9


@bounded
@given(coeffs, coeffs)
def test_riemann_hurwitz_total(p, q):
    R = _rational_map(p, q)
    assert sum(c.index - 1 for c in critical_points(R)) == 2 * R.degree - 2


@bounded
@given(st.sampled_from(MAPS), st.integers(1, 3), bases)
def test_tree_level_is_fiber_of_iterate(R, k, y):
    # degree-3+ iterates stop at k = 2: the monomial coefficients of T3^3
    # and T5^2 lose about 1e-8 in their roots, the tree does not
    k = min(k, 3 if R.degree == 2 else 2)
    assume(_clear_of_critical_values(R, y, k))
    *_, (pts, isinf, idx) = tree_levels(R, y, k)
    want = preimages(iterate_map(R, k), y).entries
    assert len(want) == pts.size
    hit = set()
    for z, at_inf, e in zip(pts, isinf, idx):
        j, gap = _nearest(INF if at_inf else SpherePoint.finite(z),
                          [x for x, _ in want])
        assert j not in hit and gap < 1e-6
        assert want[j][1] == e
        hit.add(j)


@bounded
@given(st.sampled_from(MAPS), st.integers(2, 3), bases)
def test_pushforward_drops_one_level(R, n, y):
    n = min(n, 3 if R.degree <= 3 else 2)
    assume(_clear_of_critical_values(R, y, n))
    deep, flat = lyubich_exact(R, y, n), lyubich_exact(R, y, n - 1)
    pushed = pushforward(R, deep)
    assert len(pushed) == len(flat)
    for p, iw in zip(pushed.points(), pushed.int_weights):
        j, gap = _nearest(p, flat.points())
        assert gap < 1e-8
        assert (iw * flat.denominator
                == flat.int_weights[j] * pushed.denominator)
