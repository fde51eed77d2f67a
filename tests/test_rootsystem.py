import pytest

from adjvar.rootsystem import (
    _DIM_FORMULA,
    InvalidTypeError,
    _cartan_matrix,
    _generate_positive_roots,
    build_datum,
    dim_g,
    highest_root,
    pairing,
    saturate,
    weyl_vector,
)

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


def test_classical_rank_ceiling():
    with pytest.raises(InvalidTypeError):
        build_datum("A", 11)
    assert build_datum("A", 11, max_classical_rank=12).rank == 11


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


TYPES_TO_RANK_10 = (
    [("A", r) for r in range(1, 11)]
    + [("B", r) for r in range(2, 11)]
    + [("C", r) for r in range(2, 11)]
    + [("D", r) for r in range(4, 11)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("letter,rank", TYPES_TO_RANK_10)
def test_stored_root_weights_norms_and_form_terms_match_their_definitions(letter, rank):
    d = build_datum(letter, rank)
    # every c_j d_j is below 100, so (w, alpha) at w_j = 100^j spells them out
    w = tuple(100**j for j in range(rank))
    assert len(d.positive_root_weights) == len(d.root_norms) == len(d.positive_roots)
    for i, alpha in enumerate(d.positive_roots):
        assert d.positive_root_weights[i] == d.root_weight(alpha)
        assert d.root_norms[i] == 2 * d.root_norm(alpha)
        assert [j for j, _ in d.form_terms[i]] == [j for j, c in enumerate(alpha) if c]
        assert sum(cd * w[j] for j, cd in d.form_terms[i]) == d.form(w, alpha)


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


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_symmetrized_cartan_positive_definite(letter, rank):
    from fractions import Fraction

    d = build_datum(letter, rank)
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


TYPES_TO_RANK_12 = (
    [("A", r) for r in range(1, 13)]
    + [("B", r) for r in range(2, 13)]
    + [("C", r) for r in range(2, 13)]
    + [("D", r) for r in range(4, 13)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


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
