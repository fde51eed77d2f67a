import hashlib
import json
import random
from itertools import permutations

import pytest

from adjvar.parabolic import (
    MarkedDatum,
    branch_to_levi,
    is_bundle_weight,
    levi_diagram,
    lift_to_ambient,
    nilradical_size,
)
from adjvar.rootsystem import _VALID_RANKS, _cartan_matrix, build_datum, highest_root

#: every simple type up to classical rank 10, in the order of LEVI_DIGEST
ALL_TYPES = (
    [("A", r) for r in range(1, 11)] + [("B", r) for r in range(2, 11)]
    + [("C", r) for r in range(2, 11)] + [("D", r) for r in range(4, 11)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

#: sha256 of json.dumps over levi_diagram(...).to_json() at every node of
#: every type in ALL_TYPES (239 values), taken from the shape walker that
#: identified the Levi factors before the lex-first search replaced it
LEVI_DIGEST = "81da9c861f81f5a39f5ca12b32bc8e3f264e2ff7996b730a421c5e3405495d4b"


def md(letter, rank, node):
    return MarkedDatum(ambient=build_datum(letter, rank), marked_node=node)


def node_map(ld):
    """ambient node -> (component index, local node), both 1-indexed locals."""
    out = {}
    for ci, comp in enumerate(ld.components):
        for local, node in enumerate(comp.ambient_nodes, start=1):
            out[node] = (ci, local)
    return out


def levi_positive_roots(m):
    """Positive roots of the Levi: marked simple-root coefficient zero."""
    k = m.marked_node - 1
    return [a for a in m.ambient.positive_roots if a[k] == 0]


def test_e6_node2_levi_is_a5_with_expected_node_map():
    ld = levi_diagram(md("E", 6, 2))
    assert len(ld.components) == 1
    comp = ld.components[0]
    assert (comp.datum.letter, comp.datum.rank) == ("A", 5)
    assert comp.ambient_nodes == (1, 3, 4, 5, 6)
    assert node_map(ld) == {1: (0, 1), 3: (0, 2), 4: (0, 3), 5: (0, 4), 6: (0, 5)}


def test_an_node1_levi():
    ld = levi_diagram(md("A", 5, 1))
    assert [(c.datum.letter, c.datum.rank) for c in ld.components] == [("A", 4)]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_bn_node2_levi(n):
    ld = levi_diagram(md("B", n, 2))
    kinds = [(c.datum.letter, c.datum.rank) for c in ld.components]
    assert kinds == [("A", 1), ("B", n - 2)]


def test_d4_node2_levi_is_three_a1():
    ld = levi_diagram(md("D", 4, 2))
    assert [(c.datum.letter, c.datum.rank) for c in ld.components] == [
        ("A", 1),
        ("A", 1),
        ("A", 1),
    ]


def test_exceptional_adjoint_levis():
    assert [(c.datum.letter, c.datum.rank) for c in levi_diagram(md("E", 7, 1)).components] == [("D", 6)]
    assert [(c.datum.letter, c.datum.rank) for c in levi_diagram(md("E", 8, 8)).components] == [("E", 7)]
    assert [(c.datum.letter, c.datum.rank) for c in levi_diagram(md("F", 4, 1)).components] == [("C", 3)]
    assert [(c.datum.letter, c.datum.rank) for c in levi_diagram(md("G", 2, 2)).components] == [("A", 1)]


@pytest.mark.parametrize(
    "letter,rank",
    [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("E", 6), ("E", 7), ("F", 4), ("G", 2)],
)
def test_node_map_preserves_edges_everywhere(letter, rank):
    ambient = build_datum(letter, rank)
    for node in range(1, rank + 1):
        ld = levi_diagram(MarkedDatum(ambient=ambient, marked_node=node))
        ranks = sum(c.datum.rank for c in ld.components)
        assert ranks == rank - 1
        for comp in ld.components:
            r = comp.datum.rank
            for a in range(r):
                for b in range(r):
                    assert (
                        ambient.cartan[comp.ambient_nodes[a] - 1][comp.ambient_nodes[b] - 1]
                        == comp.datum.cartan[a][b]
                    )


def test_is_bundle_weight():
    m = md("D", 5, 2)
    theta = highest_root(build_datum("D", 5))
    assert is_bundle_weight(m, theta)
    assert is_bundle_weight(m, (1, -2, 1, 0, 0))
    assert not is_bundle_weight(m, (-1, 0, 0, 0, 0))



def test_is_bundle_weight_by_slices_matches_a_test_per_coordinate():
    # against the generator over range(rank) that the slices replaced, on
    # seeded weights as lists and as tuples, on A1 (both slices empty) and
    # with the marked node at every position, both ends included
    rng = random.Random(2024)
    seen = set()
    for letter, rank in [("A", 1), ("A", 2), ("G", 2), ("B", 5), ("E", 8)]:
        for node in range(1, rank + 1):
            m = md(letter, rank, node)
            for _ in range(40):
                w = [rng.randint(-1, 6) for _ in range(rank)]
                expected = all(w[i] >= 0 for i in range(rank) if i != node - 1)
                assert is_bundle_weight(m, w) is expected
                assert is_bundle_weight(m, tuple(w)) is expected
                seen.add(expected)
    assert seen == {True, False}

def test_branch_examples():
    m = md("E", 6, 2)
    comp_weights, center = branch_to_levi(m, (0, 0, 0, 1, 0, 0))
    assert comp_weights == ((0, 0, 1, 0, 0),) and center == 0

    comp_weights, center = branch_to_levi(m, (0, 5, 0, 0, 0, 0))
    assert comp_weights == ((0, 0, 0, 0, 0),) and center == 5

    m = md("B", 5, 2)
    comp_weights, center = branch_to_levi(m, (1, 0, 1, 0, 0))
    assert comp_weights == ((1,), (1, 0, 0)) and center == 0


def test_branch_rejects_non_bundle_weight():
    with pytest.raises(ValueError):
        branch_to_levi(md("A", 3, 1), (0, -1, 0))


def test_lift_roundtrip():
    m = md("E", 7, 1)
    w = (-2, 0, 1, 0, 2, 0, 0)
    comp_weights, center = branch_to_levi(m, w)
    assert lift_to_ambient(m, comp_weights, center) == w


def test_nilradical_sizes():
    assert nilradical_size(md("A", 1, 1)) == 1
    assert nilradical_size(md("G", 2, 2)) == 5
    # the type-A adjoint variety is a hyperplane section of P^n x P^n of
    # dimension 2n-1: roots with nonzero coefficient at node 1 or node n
    for n in (2, 3, 4):
        d = build_datum("A", n)
        count = sum(
            1 for alpha in d.positive_roots if alpha[0] != 0 or alpha[n - 1] != 0
        )
        assert count == 2 * n - 1


@pytest.mark.parametrize(
    "letter,rank,node",
    [("B", 3, 2), ("B", 5, 2), ("D", 4, 2), ("D", 6, 2), ("E", 6, 2),
     ("E", 7, 1), ("E", 8, 8), ("F", 4, 1), ("G", 2, 2), ("C", 3, 1)],
)
def test_nilradical_partition_and_parity(letter, rank, node):
    m = md(letter, rank, node)
    total = len(m.ambient.positive_roots)
    assert nilradical_size(m) + len(levi_positive_roots(m)) == total
    assert nilradical_size(m) % 2 == 1  # adjoint marked nodes only in this list


def test_marked_node_validation():
    with pytest.raises(IndexError):
        MarkedDatum(ambient=build_datum("A", 2), marked_node=3)


def test_is_bundle_weight_rejects_a_weight_of_the_wrong_length():
    with pytest.raises(ValueError, match="needs 2 coordinates"):
        is_bundle_weight(md("G", 2, 2), (1, 0, 5))


def test_every_levi_diagram_keeps_its_pinned_bytes():
    values = [
        levi_diagram(md(letter, rank, node)).to_json()
        for letter, rank in ALL_TYPES for node in range(1, rank + 1)
    ]
    assert len(values) == 239
    assert hashlib.sha256(json.dumps(values).encode()).hexdigest() == LEVI_DIGEST


def brute_force_identification(cartan, comp):
    """min (ordering, letter) over every permutation of comp and every type
    of rank len(comp) whose Bourbaki Cartan matrix the ordering induces."""
    r = len(comp)
    targets = [
        (tuple(map(tuple, _cartan_matrix(letter, r))), letter)
        for letter, valid in _VALID_RANKS.items() if valid(r)
    ]
    return min(
        (ordering, letter)
        for ordering in permutations(comp)
        for target, letter in targets
        if all(cartan[ordering[a] - 1][ordering[b] - 1] == target[a][b]
               for a in range(r) for b in range(r))
    )


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_levi_diagram_is_the_brute_force_lex_first_identification(letter, rank):
    ambient = build_datum(letter, rank)
    checked = 0
    for node in range(1, rank + 1):
        m = MarkedDatum(ambient=ambient, marked_node=node)
        ld = levi_diagram(m)
        comps = [sorted(c.ambient_nodes) for c in ld.components]
        # the components partition the Levi nodes, in order of smallest node,
        # with no Cartan entry between two of them
        assert sorted(sum(comps, [])) == list(m.levi_nodes)
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)
        assert all(
            ambient.cartan[i - 1][j - 1] == 0
            for a, b in permutations(comps, 2) for i in a for j in b
        )
        if max(map(len, comps), default=0) > 6:
            continue
        checked += 1
        got = [(c.ambient_nodes, c.datum.letter) for c in ld.components]
        assert got == [brute_force_identification(ambient.cartan, c) for c in comps]
    assert checked
