from decimal import Decimal
from fractions import Fraction
from math import gcd, prod

import pytest

from adjvar.bbw import cohomology
from adjvar.cli import main
from adjvar.parabolic import MarkedDatum, is_bundle_weight
from adjvar.repcalc import EXTERIOR, square_decompose, weight_system, weyl_dim
import adjvar.rootsystem
from adjvar.rootsystem import (
    _DIM_FORMULA,
    MAX_CLASSICAL_RANK,
    InvalidTypeError,
    RootDatum,
    _cartan_matrix,
    _generate_positive_roots,
    build_datum,
    dim_g,
    highest_root,
    pairing,
    saturate,
    weyl_vector,
)
from adjvar.weylgroup import dot_classify, regular_index_oracle, simple_reflection

ALL_TYPES = (
    [("A", r) for r in range(1, 8)]
    + [("B", r) for r in range(2, 8)]
    + [("C", r) for r in range(2, 8)]
    + [("D", r) for r in range(4, 8)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

DIM_G = {
    "A": lambda n: (n + 1) ** 2 - 1,
    "B": lambda n: n * (2 * n + 1),
    "C": lambda n: n * (2 * n + 1),
    "D": lambda n: n * (2 * n - 1),
    "E": lambda n: {6: 78, 7: 133, 8: 248}[n],
    "F": lambda n: 52,
    "G": lambda n: 14,
}


def test_a2_cartan_and_count():
    d = build_datum("A", 2)
    assert d.cartan == ((2, -1), (-1, 2))
    assert len(d.positive_roots) == 3


def test_g2_cartan_and_count():
    d = build_datum("G", 2)
    assert d.cartan == ((2, -1), (-3, 2))
    assert len(d.positive_roots) == 6


def test_e8_count():
    assert len(build_datum("E", 8).positive_roots) == 120


def test_a2_simple_root_in_weight_coords():
    d = build_datum("A", 2)
    assert d.simple_root_weight(1) == (2, -1)


@pytest.mark.parametrize(
    "letter,rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)],
)
def test_invalid_types_rejected(letter, rank):
    with pytest.raises(InvalidTypeError):
        build_datum(letter, rank)


def test_a_bool_rank_is_rejected_and_leaves_the_cache_alone(capsys):
    # True == 1 and hash(True) == hash(1): taken as a rank, it would become
    # the cached datum that every later build_datum("A", 1) returns
    with pytest.raises(InvalidTypeError):
        build_datum("A", True)
    assert type(build_datum("A", 1).rank) is int
    assert main(["roots", "--type", "A", "--rank", "1", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"cartan": [[2]], "count": 1, "dim_g": 3, "positive_roots": '
        '[{"simple_coords": [1], "weight": [2]}], "rank": 1, "schema": "1", '
        '"type": "A"}\n'
    )


def test_classical_rank_ceiling(monkeypatch):
    # one rank ceiling for A-D, checked before any root is generated; the
    # uncached builder lets the rank-100 data go when the test ends
    generated = []
    monkeypatch.setattr(adjvar.rootsystem, "_generate_positive_roots",
                        lambda cartan, limit: generated.append(limit)
                        or _generate_positive_roots(cartan, limit))
    monkeypatch.setattr(adjvar.rootsystem, "_build_datum_cached",
                        adjvar.rootsystem._build_datum_cached.__wrapped__)
    for letter in "ABCD":
        with pytest.raises(InvalidTypeError, match="exceeds the ceiling 100"):
            build_datum(letter, MAX_CLASSICAL_RANK + 1)
    assert generated == []
    for letter in "ABCD":
        d = build_datum(letter, MAX_CLASSICAL_RANK)
        assert (d.letter, d.rank) == (letter, MAX_CLASSICAL_RANK)
        assert dim_g(d) == DIM_G[letter](MAX_CLASSICAL_RANK)
    assert len(generated) == 4


@pytest.mark.parametrize("letter,rank", [("A", 2), ("G", 2), ("E", 6)])
def test_weyl_vector_all_ones(letter, rank):
    d = build_datum(letter, rank)
    assert weyl_vector(d) == (1,) * rank


def test_highest_roots_match_adjoint_weights():
    for n in (2, 3, 4):
        d = build_datum("C", n)
        expected = tuple(2 if i == 0 else 0 for i in range(n))
        assert highest_root(d) == expected
    for n in (4, 5, 6):
        d = build_datum("D", n)
        assert highest_root(d) == tuple(1 if i == 1 else 0 for i in range(n))
    assert highest_root(build_datum("E", 7)) == (1, 0, 0, 0, 0, 0, 0)
    assert highest_root(build_datum("E", 8)) == (0,) * 7 + (1,)
    assert highest_root(build_datum("F", 4)) == (1, 0, 0, 0)
    assert highest_root(build_datum("G", 2)) == (0, 1)
    assert highest_root(build_datum("A", 3)) == (1, 0, 1)


def test_pairing_fundamental_weights_dual_to_simple_coroots():
    for letter, rank in [("B", 3), ("G", 2), ("F", 4)]:
        d = build_datum(letter, rank)
        simple_indices = {}
        for idx, c in enumerate(d.positive_roots):
            if sum(c) == 1:
                simple_indices[c.index(1)] = idx
        for i in range(rank):
            for j in range(rank):
                fw = tuple(1 if k == i else 0 for k in range(rank))
                assert pairing(d, fw, simple_indices[j]) == (1 if i == j else 0)


def test_pairing_delta_is_coroot_height():
    # <delta, alpha^vee> equals the sum of the coroot's simple-coroot coords
    for letter, rank in [("A", 3), ("C", 3), ("G", 2)]:
        d = build_datum(letter, rank)
        delta = weyl_vector(d)
        dd = d.root_half_norms
        for idx, alpha in enumerate(d.positive_roots):
            norm = d.root_norm(alpha)
            weighted = sum(c * dd[j] for j, c in enumerate(alpha))
            assert pairing(d, delta, idx) * norm == weighted


def highest_root_coords(datum):
    """Simple-root coordinates of the highest root."""
    return max(datum.positive_roots, key=sum)


def test_a2_highest_root_pairing():
    d = build_datum("A", 2)
    theta_idx = d.positive_roots.index(highest_root_coords(d))
    assert pairing(d, (1, 1), theta_idx) == 2


def test_pairing_index_out_of_range():
    d = build_datum("A", 2)
    with pytest.raises(IndexError):
        pairing(d, (1, 1), 3)


@pytest.mark.parametrize("w", [(1,) * 9, (1,) * 7, ()])
def test_pairing_rejects_a_weight_of_the_wrong_length(w):
    with pytest.raises(ValueError, match="needs 8 coordinates"):
        pairing(build_datum("E", 8), w, 0)


TYPES_TO_RANK_12 = (
    [("A", r) for r in range(1, 13)]
    + [("B", r) for r in range(2, 13)]
    + [("C", r) for r in range(2, 13)]
    + [("D", r) for r in range(4, 13)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("letter,rank", TYPES_TO_RANK_12)
def test_stored_root_weights_norms_and_form_terms_match_their_definitions(letter, rank):
    # the root weights and norms that weyl_table shares between Weyl's
    # product and Freudenthal's recursion, walked down the parent chain,
    # against root_weight and (alpha, alpha) = sum_i c_i d_i m_i, over all
    # nodes, none and each Levi; a datum built afresh walks the same weights
    d = build_datum(letter, rank)
    fresh = RootDatum(d.letter, d.rank, d.cartan, d.symmetrizers, d.positive_roots)
    assert fresh.positive_root_weights == d.positive_root_weights
    assert len(d.positive_root_weights) == len(d.positive_roots)
    for i, alpha in enumerate(d.positive_roots):
        assert d.positive_root_weights[i] == d.root_weight(alpha)
    assert d.highest_root_weight == d.root_weight(max(d.positive_roots, key=sum))
    dd = d.root_half_norms
    levis = [None, ()] + [tuple(i for i in range(1, rank + 1) if i != m)
                          for m in range(1, rank + 1)]
    for nodes in levis:
        roots, _, weights, norms = d.weyl_table(nodes)
        kept = [alpha for alpha in d.positive_roots
                if nodes is None or all(j + 1 in nodes for j, c in enumerate(alpha) if c)]
        assert len(roots) == len(weights) == len(norms) == len(kept)
        for alpha, m, norm in zip(kept, weights, norms):
            assert m == d.root_weight(alpha)
            assert norm == sum(c * dd[i] * m[i] for i, c in enumerate(alpha))
            assert norm == 2 * d.root_norm(alpha) == d.form(m, alpha)


def unit(rank, j):
    return tuple(int(i == j) for i in range(rank))


@pytest.mark.parametrize("letter,rank", TYPES_TO_RANK_12)
def test_each_root_is_its_parent_plus_a_simple_root(letter, rank):
    d = build_datum(letter, rank)
    chain = [(0,) * rank] + list(d.positive_roots)  # index 0 is the zero root
    assert len(d.root_parents) == len(d.positive_roots)
    for k, (alpha, (p, j)) in enumerate(zip(d.positive_roots, d.root_parents), 1):
        assert p < k
        assert tuple(a + e for a, e in zip(chain[p], unit(rank, j))) == alpha
    dd = d.root_half_norms
    levis = [None, ()] + [tuple(i for i in range(1, rank + 1) if i != m)
                          for m in range(1, rank + 1)]
    for nodes in levis:
        roots, den, _, _ = d.weyl_table(nodes)
        kept = [alpha for alpha in d.positive_roots
                if nodes is None or all(j + 1 in nodes for j, c in enumerate(alpha) if c)]
        kept_chain = [(0,) * rank] + kept
        assert len(roots) == len(kept)
        for k, (p, j, dj) in enumerate(roots, 1):
            assert p < k and dj == dd[j]
            assert tuple(a + e for a, e in zip(kept_chain[p], unit(rank, j))) == kept_chain[k]
        assert den == prod(sum(c * dd[j] for j, c in enumerate(alpha)) for alpha in kept)


@pytest.mark.parametrize("letter,rank", TYPES_TO_RANK_12)
def test_nilradical_sizes_and_neighbours_match_a_direct_count(letter, rank):
    d = build_datum(letter, rank)
    assert d.nilradical_sizes == tuple(
        len([alpha for alpha in d.positive_roots if alpha[i] != 0]) for i in range(rank)
    )
    for i in range(rank):
        row = [0] * rank
        row[i] = 2
        for j, c in d.dynkin_neighbours[i]:
            assert j != i and c != 0 and row[j] == 0
            row[j] = c
        assert tuple(row) == d.cartan[i]


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_sum_of_positive_roots_is_two_delta(letter, rank):
    d = build_datum(letter, rank)
    total = [0] * rank
    for w in d.positive_root_weights:
        for j in range(rank):
            total[j] += w[j]
    assert tuple(total) == (2,) * rank


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_dimension_formula(letter, rank):
    d = build_datum(letter, rank)
    assert dim_g(d) == DIM_G[letter](rank)


@pytest.mark.parametrize("letter,rank", TYPES_TO_RANK_12)
def test_symmetrized_cartan_positive_definite(letter, rank):
    d = build_datum(letter, rank)
    # the symmetrizers, found in integers, are coprime positive ints
    assert all(type(x) is int and x > 0 for x in d.symmetrizers)
    assert gcd(*d.symmetrizers) == 1
    m = [
        [Fraction(d.symmetrizers[i] * d.cartan[i][j]) for j in range(rank)]
        for i in range(rank)
    ]
    for i in range(rank):
        for j in range(rank):
            assert m[i][j] == m[j][i]
    # positive definiteness via Gaussian elimination without row swaps
    for col in range(rank):
        assert m[col][col] > 0
        for r in range(col + 1, rank):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]


def test_determinism():
    a = build_datum("E", 7)
    b = build_datum("E", 7)
    assert a is b or a == b
    assert a.positive_roots == b.positive_roots


def test_json_shape():
    assert build_datum("E", 6).to_json() == {"type": "E", "rank": 6}


def string_walk_positive_roots(cartan):
    """Reference generator: close the simple roots under root strings, level
    by level.  A root alpha at height h satisfies: alpha + alpha_i is a root
    iff p - <alpha, alpha_i^vee> >= 1, where p is the number of times alpha_i
    can be subtracted from alpha while staying a root."""
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    known = set(simple)
    level = list(simple)
    out = list(simple)
    guard = 0
    while level:
        guard += 1
        if guard > 4 * len(out) + rank:
            raise ArithmeticError("root generation failed to terminate")
        nxt = []
        for alpha in level:
            m = [sum(c * cartan[i][j] for i, c in enumerate(alpha)) for j in range(rank)]
            for i in range(rank):
                p = 0
                down = list(alpha)
                while True:
                    down[i] -= 1
                    if tuple(down) in known:
                        p += 1
                    else:
                        break
                if p - m[i] >= 1:
                    up = list(alpha)
                    up[i] += 1
                    t = tuple(up)
                    if t not in known:
                        known.add(t)
                        nxt.append(t)
                        out.append(t)
        level = nxt
    out.sort(key=lambda r: (sum(r), r))
    return out


@pytest.mark.parametrize("letter,rank", TYPES_TO_RANK_12)
def test_saturated_roots_match_string_walk(letter, rank):
    cartan = _cartan_matrix(letter, rank)
    count = (_DIM_FORMULA[letter](rank) - rank) // 2
    assert _generate_positive_roots(cartan, count) == string_walk_positive_roots(cartan)


def test_saturate_raises_past_its_limit():
    cartan = _cartan_matrix("E", 8)
    with pytest.raises(ArithmeticError, match="limit"):
        _generate_positive_roots(cartan, 119)
    with pytest.raises(ArithmeticError, match="limit"):
        saturate(cartan, {(0,) * 7 + (1,): (0,) * 8}, 100)


def test_saturate_keeps_discovery_order_and_offsets():
    # V_(1,0) of A2: lam, lam - alpha_1, lam - alpha_1 - alpha_2
    cartan = _cartan_matrix("A", 2)
    assert list(saturate(cartan, {(1, 0): (0, 0)}, 3).items()) == [
        ((1, 0), (0, 0)),
        ((-1, 1), (1, 0)),
        ((0, -1), (1, 1)),
    ]


def test_highest_root_is_found_once_per_datum():
    d = build_datum("E", 8)
    fresh = RootDatum(d.letter, d.rank, d.cartan, d.symmetrizers, d.positive_roots)
    assert "highest_root_weight" not in vars(fresh)
    assert highest_root(fresh) == (0,) * 7 + (1,)
    assert vars(fresh)["highest_root_weight"] is highest_root(fresh)


G2 = build_datum("G", 2)
G2_AT_1 = MarkedDatum(G2, 1)

# each weight entry point, fed a weight with a non-integer coordinate; before
# weights were checked for integers, dot_classify answered "regular" with a
# half-integer dominant weight, cohomology a float dimension, weyl_dim a
# misleading "non-integer" and weight_system a bare TypeError
NON_INTEGER_WEIGHT_CALLS = {
    "dot_classify": lambda: dot_classify(G2, (0.5, -3)),
    "cohomology": lambda: cohomology(G2_AT_1, (-2.0, 1)),
    "weyl_dim": lambda: weyl_dim(G2, (1.5, 0)),
    "weight_system": lambda: weight_system(G2, (1.0, 0)),
    "square_decompose": lambda: square_decompose(G2_AT_1, (Fraction(1), 0), EXTERIOR),
    "is_bundle_weight": lambda: is_bundle_weight(G2_AT_1, (0, Fraction(1, 2))),
    "simple_reflection": lambda: simple_reflection(G2, 1, (1, "0")),
    "pairing": lambda: pairing(G2, (1.0, 0), 0),
    "regular_index_oracle": lambda: regular_index_oracle(G2, (Decimal(1), 0)),
}


@pytest.mark.parametrize("name", NON_INTEGER_WEIGHT_CALLS)
def test_weights_must_have_integer_coordinates(name):
    with pytest.raises(ValueError, match="needs integer coordinates"):
        NON_INTEGER_WEIGHT_CALLS[name]()


@pytest.mark.parametrize("nodes", [["1"], [1.0, 2], (Fraction(2),), [1, None], [True]])
def test_node_sets_must_be_integers(nodes):
    # a "1" among the nodes used to raise a bare TypeError from min, and
    # [True] was taken for the node set [1]
    for call in (
        lambda: dot_classify(G2, (1, 1), nodes),
        lambda: weyl_dim(G2, (1, 1), nodes),
        lambda: weight_system(G2, (1, 1), nodes=nodes),
    ):
        with pytest.raises(ValueError, match="must be integers"):
            call()


@pytest.mark.parametrize("node", ["1", 1.0, None, True, False])
def test_single_nodes_must_be_integers(node):
    # True == 1 and False == 0: taken as an index, a bool would reflect at
    # node 1 or pair with coroot 1 or 0
    with pytest.raises(IndexError, match="out of range"):
        simple_reflection(G2, node, (1, 1))
    with pytest.raises(IndexError, match="out of range"):
        MarkedDatum(G2, node)
    with pytest.raises(IndexError, match="out of range"):
        pairing(G2, (1, 1), node)
