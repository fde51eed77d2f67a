from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjvar.bbw import cohomology, cohomology_of_decomposition
from adjvar.parabolic import MarkedDatum
from adjvar.repcalc import Decomposition, Piece, weyl_dim
from adjvar.rootsystem import build_datum, dim_g, highest_root
from adjvar.weylgroup import regular_index_oracle

ORACLE_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def proj_space(n):
    return MarkedDatum(ambient=build_datum("A", n), marked_node=1)


def line_bundle(n, d):
    return (d,) + (0,) * (n - 1)


def pn_line_bundle_oracle(n, d):
    """Closed-form h^i(P^n, O(d)): the independent check for BBW."""
    if d >= 0:
        return (0, comb(n + d, n))
    if d <= -n - 1:
        return (n, comb(-d - 1, n))
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_projective_space_line_bundles(n):
    md = proj_space(n)
    for d in range(-(n + 2), n + 3):
        res = cohomology(md, line_bundle(n, d))
        expected = pn_line_bundle_oracle(n, d)
        if expected is None:
            assert res.is_zero
        else:
            assert (res.degree, res.dim) == expected


def test_structure_sheaf_has_one_section():
    md = MarkedDatum(ambient=build_datum("F", 4), marked_node=1)
    res = cohomology(md, (0, 0, 0, 0))
    assert (res.degree, res.dim) == (0, 1)


@pytest.mark.parametrize("letter,rank,node", [("G", 2, 2), ("E", 6, 2), ("B", 3, 2)])
def test_contact_bundle_sections_are_the_lie_algebra(letter, rank, node):
    datum = build_datum(letter, rank)
    md = MarkedDatum(ambient=datum, marked_node=node)
    res = cohomology(md, highest_root(datum))
    assert (res.degree, res.dim) == (0, dim_g(datum))


def test_h0_nonzero_iff_dominant():
    md = proj_space(3)
    for d in range(-5, 5):
        res = cohomology(md, line_bundle(3, d))
        has_h0 = (not res.is_zero) and res.degree == 0
        assert has_h0 == (d >= 0)


def test_rejects_non_bundle_weight():
    md = proj_space(2)
    with pytest.raises(ValueError):
        cohomology(md, (1, -1))


def _chi_binomial(n, d):
    # chi(O(d)) = binom(n+d, n) as a polynomial in d, valid for all d
    from math import prod
    from fractions import Fraction

    return int(prod(Fraction(d + k, k) for k in range(1, n + 1)))


def test_euler_characteristic_polynomial_identity():
    for n in (1, 2):
        md = proj_space(n)
        for d in range(-6, 6):
            res = cohomology(md, line_bundle(n, d))
            chi = 0 if res.is_zero else (-1) ** res.degree * res.dim
            assert chi == _chi_binomial(n, d)


def test_decomposition_table_single_twist():
    datum = build_datum("G", 2)
    md = MarkedDatum(ambient=datum, marked_node=2)
    dec = Decomposition(pieces=(Piece(weight=(0, 0), twist=1, mult=1, dim=1),))
    table = cohomology_of_decomposition(md, dec)
    assert table == {0: dim_g(datum)}


def test_decomposition_table_negative_twist_vanishes():
    datum = build_datum("G", 2)
    md = MarkedDatum(ambient=datum, marked_node=2)
    dec = Decomposition(pieces=(Piece(weight=(0, 0), twist=-1, mult=1, dim=1),))
    assert cohomology_of_decomposition(md, dec) == {}


def test_decomposition_table_additivity():
    datum = build_datum("A", 3)
    md = MarkedDatum(ambient=datum, marked_node=1)
    p1 = Piece(weight=(2, 0, 0), twist=0, mult=1, dim=1)
    p2 = Piece(weight=(-6, 0, 0), twist=0, mult=2, dim=1)
    lam0 = highest_root(datum)
    t1 = cohomology_of_decomposition(md, Decomposition(pieces=(p1,)), lam0)
    t2 = cohomology_of_decomposition(md, Decomposition(pieces=(p2,)), lam0)
    both = cohomology_of_decomposition(md, Decomposition(pieces=(p1, p2)), lam0)
    merged = dict(t1)
    for k, v in t2.items():
        merged[k] = merged.get(k, 0) + v
    assert both == merged


@st.composite
def bundle_cases(draw):
    """(type, marked node, bundle weight): dominant off the marked node, and
    a marked coordinate reaching far enough below zero for top degrees."""
    letter, rank = draw(st.sampled_from(ORACLE_TYPES))
    node = draw(st.integers(min_value=1, max_value=rank))
    weight = tuple(
        draw(st.integers(min_value=-20, max_value=4) if i == node - 1
             else st.integers(min_value=0, max_value=4))
        for i in range(rank)
    )
    return letter, rank, node, weight


@settings(max_examples=300)
@given(bundle_cases())
def test_cohomology_matches_the_regular_index_oracle(case):
    letter, rank, node, weight = case
    datum = build_datum(letter, rank)
    res = cohomology(MarkedDatum(ambient=datum, marked_node=node), weight)
    index = regular_index_oracle(datum, weight)
    assert res.is_zero == (index is None)
    if index is not None:
        assert res.degree == index
        assert res.dim == weyl_dim(datum, res.top_weight)
