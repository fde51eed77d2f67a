import random
from fractions import Fraction

import pytest

from adjvar.rootsystem import build_datum
from adjvar.weylgroup import (
    REGULAR,
    SINGULAR,
    DotResult,
    dot_classify,
    regular_index_oracle,
    simple_reflection,
)


def test_a2_reflection_of_fundamental_weight():
    d = build_datum("A", 2)
    assert simple_reflection(d, 1, (1, 0)) == (-1, 1)


def test_dn_reflection_matches_contact_weight():
    # s_2(lambda_2) = lambda_1 - lambda_2 + lambda_3 away from the D4 fork
    for n in (5, 6, 7):
        d = build_datum("D", n)
        lam2 = tuple(1 if i == 1 else 0 for i in range(n))
        expected = tuple({0: 1, 1: -1, 2: 1}.get(i, 0) for i in range(n))
        assert simple_reflection(d, 2, lam2) == expected
    # the fork of D4 adds the fourth node
    d4 = build_datum("D", 4)
    assert simple_reflection(d4, 2, (0, 1, 0, 0)) == (1, -1, 1, 1)


def test_reflection_fixes_zero_coordinate():
    d = build_datum("F", 4)
    w = (3, 0, -1, 2)
    assert simple_reflection(d, 2, w) == w


def test_reflection_involution_randomized():
    rng = random.Random(101)
    data = [build_datum(l, r) for l, r in [("A", 3), ("B", 4), ("G", 2), ("E", 6)]]
    for _ in range(1000):
        d = rng.choice(data)
        w = tuple(rng.randint(-6, 6) for _ in range(d.rank))
        i = rng.randint(1, d.rank)
        assert simple_reflection(d, i, simple_reflection(d, i, w)) == w


def test_reflection_index_out_of_range():
    d = build_datum("A", 2)
    with pytest.raises(IndexError):
        simple_reflection(d, 3, (0, 0))


@pytest.mark.parametrize("w", [(1, 2, 3), (1,), ()])
def test_reflection_and_index_oracle_reject_a_weight_of_the_wrong_length(w):
    d = build_datum("G", 2)
    with pytest.raises(ValueError, match="needs 2 coordinates"):
        simple_reflection(d, 1, w)
    with pytest.raises(ValueError, match="needs 2 coordinates"):
        regular_index_oracle(d, w)


def test_dominant_weight_is_regular_index_zero():
    d = build_datum("E", 6)
    lam = (1, 0, 2, 0, 0, 3)
    res = dot_classify(d, lam)
    assert res.is_regular and res.index_p == 0 and res.dominant_weight == lam


def test_minus_delta_is_singular():
    d = build_datum("B", 3)
    res = dot_classify(d, (-1, -1, -1))
    assert not res.is_regular


def test_p1_degree_minus_two():
    d = build_datum("A", 1)
    res = dot_classify(d, (-2,))
    assert res.is_regular and res.index_p == 1 and res.dominant_weight == (0,)


def test_order_independence_and_oracle(random_order_dot):
    rng = random.Random(7)
    data = [build_datum(l, r) for l, r in [("A", 4), ("C", 3), ("D", 5), ("G", 2)]]
    for _ in range(200):
        d = rng.choice(data)
        w = tuple(rng.randint(-8, 8) for _ in range(d.rank))
        ref = dot_classify(d, w)
        alt = random_order_dot(d, w, random.Random(rng.randint(0, 10**9)))
        assert ref.status == alt.status
        oracle = regular_index_oracle(d, w)
        if ref.is_regular:
            assert ref.index_p == alt.index_p == oracle
            assert ref.dominant_weight == alt.dominant_weight
            assert all(a >= 0 for a in ref.dominant_weight)
        else:
            assert oracle is None


def root_coords(datum, w):
    """Exact simple-root coordinates c of the weight w: w_j = sum_i c_i C_ij."""
    n = datum.rank
    a = [[Fraction(datum.cartan[i][j]) for i in range(n)] + [Fraction(w[j])]
         for j in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def test_dot_classify_over_a_node_subset():
    # oracle: the positive roots supported on the nodes generate the
    # reflection subgroup; lambda + delta is singular iff one of them pairs to
    # 0 with it, and otherwise the index counts those pairing negatively
    rng = random.Random(2027)
    tally = {True: 0, False: 0}
    for letter, rank in [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("E", 6),
                         ("E", 8), ("F", 4), ("G", 2)]:
        d = build_datum(letter, rank)
        for _ in range(150):
            nodes = sorted(rng.sample(range(1, rank + 1), rng.randint(0, rank)))
            lam = tuple(rng.randint(-6, 6) for _ in range(rank))
            v = tuple(a + 1 for a in lam)
            pairings = [
                d.form(v, alpha)
                for alpha in d.positive_roots
                if all(alpha[j - 1] == 0 for j in range(1, rank + 1) if j not in nodes)
            ]
            res = dot_classify(d, lam, nodes)
            tally[res.is_regular] += 1
            if 0 in pairings:
                assert not res.is_regular
                continue
            assert res.is_regular
            assert res.index_p == sum(1 for p in pairings if p < 0)
            assert all(res.dominant_weight[i - 1] >= 0 for i in nodes)
            step = root_coords(d, [a - b for a, b in zip(res.dominant_weight, lam)])
            assert all(c.denominator == 1 and c >= 0 for c in step)
            assert all(c == 0 for j, c in enumerate(step, 1) if j not in nodes)
            assert res.drop == sum(step)
        full = tuple(rng.randint(-6, 6) for _ in range(rank))
        assert dot_classify(d, full, range(1, rank + 1)) == dot_classify(d, full)
    assert min(tally.values()) > 100
    d = build_datum("B", 3)
    for nodes in ([0, 2], [1, 4]):
        with pytest.raises(IndexError):
            dot_classify(d, (1, 1, 1), nodes)


def test_serre_duality_on_projective_space():
    # indices of O(d) and O(-n-1-d) sum to n = dim P^n whenever both have
    # cohomology
    for n in (1, 2, 3, 4):
        d = build_datum("A", n)
        for deg in range(-(n + 4), n + 5):
            lam = (deg,) + (0,) * (n - 1)
            dual = (-(n + 1) - deg,) + (0,) * (n - 1)
            r1, r2 = dot_classify(d, lam), dot_classify(d, dual)
            assert r1.is_regular == r2.is_regular
            if r1.is_regular:
                assert r1.index_p + r2.index_p == n


def test_serialization():
    d = build_datum("A", 2)
    assert dot_classify(d, (-1, -1)).to_json() == {"status": "singular"}
    out = dot_classify(d, (1, 1)).to_json()
    assert out == {"status": "regular", "p": 0, "dominant": [1, 1]}


@pytest.mark.parametrize("lam", [(1, 0, 5), (1,)])
def test_dot_classify_rejects_a_weight_of_the_wrong_length(lam):
    with pytest.raises(ValueError, match="needs 2 coordinates"):
        dot_classify(build_datum("G", 2), lam)


def test_dot_classify_node_set_may_be_any_iterable():
    d = build_datum("C", 4)
    lam = (-3, -2, 5, -7)
    expected = dot_classify(d, lam, (1, 2))
    assert dot_classify(d, lam, iter((1, 2))) == expected
    assert dot_classify(d, lam, (i for i in (2, 1))) == expected
    assert dot_classify(d, lam, iter(())) == dot_classify(d, lam, ())
    with pytest.raises(IndexError, match=r"nodes \[0, 2\] out of range"):
        dot_classify(d, lam, iter((0, 2)))


def dot_classify_reference(datum, lam, nodes=None):
    """The chamber reduction as one simple_reflection call per step, each
    building a new weight, at the first node of ``nodes`` whose coordinate
    is <= 0: the oracle for the in-place reduction at Dynkin neighbours."""
    datum.check_weight(lam)
    if nodes is None:
        nodes = range(1, datum.rank + 1)
    v = tuple(a + 1 for a in lam)
    drop = 0
    for count in range(2 * len(datum.positive_roots) + 1):
        i = next((i for i in nodes if v[i - 1] <= 0), None)
        if i is None:
            return DotResult(REGULAR, count, tuple(a - 1 for a in v), drop)
        if v[i - 1] == 0:
            return DotResult(status=SINGULAR)
        drop -= v[i - 1]
        v = simple_reflection(datum, i, v)
    raise AssertionError("chamber reduction exceeded its step bound")


TYPES_TO_RANK_10 = (
    [("A", r) for r in range(1, 11)]
    + [("B", r) for r in range(2, 11)]
    + [("C", r) for r in range(2, 11)]
    + [("D", r) for r in range(4, 11)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("letter,rank", TYPES_TO_RANK_10)
def test_dot_classify_matches_its_reference(letter, rank):
    d = build_datum(letter, rank)
    rng = random.Random(f"{letter}{rank}")
    node_sets = [None, ()]
    node_sets += [tuple(i for i in range(1, rank + 1) if i != m) for m in range(1, rank + 1)]
    node_sets += [tuple(rng.sample(range(1, rank + 1), rng.randint(1, rank))) for _ in range(4)]
    tally = {True: 0, False: 0}
    for nodes in node_sets:
        for _ in range(12):
            lam = tuple(rng.randint(-12, 5) for _ in range(rank))
            res = dot_classify(d, lam, nodes)
            assert res == dot_classify_reference(d, lam, nodes)
            tally[res.is_regular] += 1
    assert min(tally.values()) > 0
