import random
from fractions import Fraction

import pytest

from adjvar.rootsystem import build_datum
from adjvar.weylgroup import (
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
