import random

import pytest

from adjvar.adjoint import (
    UnsupportedAdjointError,
    adjoint_data,
    compare_with_printed,
    h0_omega2,
    section4_row,
    section4_table,
    section4_types,
    wedge2_Ddual_twisted,
)
from adjvar.bbw import cohomology
from adjvar.repcalc import ambient_weight_system, bundle_rank
from adjvar.rootsystem import dim_g

SUPPORTED = section4_types(max_classical_rank=7)


def full_weights(ad, dec):
    return sorted(
        p.full_weight(ad.lambda0) for p in dec.pieces for _ in range(p.mult)
    )


def sparse(ad, entries, twist=0):
    w = [0] * ad.datum.rank
    for node, c in entries.items():
        w[node - 1] = c
    return tuple(a + twist * b for a, b in zip(w, ad.lambda0))


@pytest.mark.parametrize("letter,rank", SUPPORTED)
def test_serre_duality(letter, rank):
    # H^p(E_lam) and H^{dim X - p}(E_lam^vee (x) K_X) have equal dimension:
    # E_lam^vee has highest weight -(lowest weight of E_lam), the weight of
    # largest offset height, and K_X = O(-index)
    ad = adjoint_data(letter, rank)
    md = ad.md
    k = md.marked_node - 1
    rng = random.Random(100 * rank + ord(letter))
    weights = [(0,) * rank, ad.lambda0]
    while len(weights) < 18:
        lam = [rng.choice((0, 0, 1, 2)) for _ in range(rank)]
        lam[k] = rng.randint(-(ad.index + 2) * ad.lambda0[k], 3)
        if bundle_rank(md, tuple(lam)) <= 200:
            weights.append(tuple(lam))
    nonzero = 0
    for lam in weights:
        ws = ambient_weight_system(md, lam)
        lowest = max(ws.entries, key=lambda mu: sum(ws.offsets[mu]))
        dual = tuple(-a - ad.index * b for a, b in zip(lowest, ad.lambda0))
        res, res_dual = cohomology(md, lam), cohomology(md, dual)
        assert res.is_zero == res_dual.is_zero, lam
        if not res.is_zero:
            nonzero += 1
            assert res.degree + res_dual.degree == ad.dim_X, lam
            assert res.dim == res_dual.dim, lam
    assert nonzero >= 2


def test_type_a_is_rejected_toward_folforms():
    with pytest.raises(UnsupportedAdjointError, match="folforms"):
        adjoint_data("A", 3)


def test_low_rank_coincidences_rejected():
    with pytest.raises(UnsupportedAdjointError, match="Picard number two"):
        adjoint_data("D", 3)
    with pytest.raises(UnsupportedAdjointError):
        adjoint_data("B", 2)


def test_type_c_flagged_veronese():
    ad = adjoint_data("C", 3)
    assert ad.veronese
    assert ad.dim_X == 5 and ad.m == 2  # P^5 under the quadratic embedding


def test_dn_weights_match_printed_values():
    for n in (5, 6, 7):
        ad = adjoint_data("D", n)
        assert ad.lambda0 == sparse(ad, {2: 1})
        assert ad.D_weight == sparse(ad, {1: 1, 2: -1, 3: 1})
        assert ad.Ddual_weight == sparse(ad, {1: 1, 2: -2, 3: 1})


def test_g2_contact_data():
    ad = adjoint_data("G", 2)
    assert (ad.dim_X, ad.m, ad.index) == (5, 2, 3)
    assert ad.lambda0 == (0, 1)
    assert ad.Ddual_weight == (3, -2)


@pytest.mark.parametrize("letter,rank", section4_types(10))
def test_contact_numerics(letter, rank):
    # recomputes, apart from adjoint_data's own checks: dim X from the
    # nilradical, rank D = 2m from the Levi factor dimensions, and the root
    # and weight sums -K_X = (m+1) lambda0 and c_1(D) = m lambda0
    ad = adjoint_data(letter, rank)
    datum, marked = ad.datum, ad.md.marked_node - 1
    nilradical = [r for r in datum.positive_roots if r[marked] != 0]
    assert ad.dim_X == len(nilradical) == 2 * ad.m + 1
    assert ad.index == ad.m + 1
    assert bundle_rank(ad.md, ad.D_weight) == 2 * ad.m
    canon = [0] * rank
    for root in nilradical:
        for j, a in enumerate(datum.root_weight(root)):
            canon[j] += a
    assert canon == [ad.index * a for a in ad.lambda0]
    c1 = [0] * rank
    for w, mult in ambient_weight_system(ad.md, ad.D_weight).entries.items():
        for j, a in enumerate(w):
            c1[j] += mult * a
    assert c1 == [ad.m * a for a in ad.lambda0]


def test_wedge2_exact_matches():
    ad = adjoint_data("G", 2)
    dec = wedge2_Ddual_twisted(ad, 2)
    assert full_weights(ad, dec) == sorted(
        [sparse(ad, {1: 4, 2: -1}), sparse(ad, {}, twist=1)]
    )

    ad = adjoint_data("E", 6)
    dec = wedge2_Ddual_twisted(ad, 2)
    assert full_weights(ad, dec) == sorted(
        [sparse(ad, {2: -1, 3: 1, 5: 1}), sparse(ad, {}, twist=1)]
    )

    ad = adjoint_data("E", 7)
    dec = wedge2_Ddual_twisted(ad, 2)
    assert full_weights(ad, dec) == sorted(
        [sparse(ad, {1: -1, 4: 1}), sparse(ad, {}, twist=1)]
    )

    ad = adjoint_data("F", 4)
    dec = wedge2_Ddual_twisted(ad, 2)
    assert full_weights(ad, dec) == sorted(
        [sparse(ad, {1: -1, 3: 2}), sparse(ad, {}, twist=1)]
    )


def test_e8_computed_weight_uses_the_adjoint_node():
    ad = adjoint_data("E", 8)
    dec = wedge2_Ddual_twisted(ad, 2)
    assert sparse(ad, {6: 1, 8: -1}) in full_weights(ad, dec)
    assert compare_with_printed(ad, dec)["flag"] == "disagree"


@pytest.mark.parametrize("letter,rank", SUPPORTED)
def test_wedge2_dimension_and_chern_identities(letter, rank):
    ad = adjoint_data(letter, rank)
    dec = wedge2_Ddual_twisted(ad, 2)
    two_m = 2 * ad.m
    assert dec.total_dim == two_m * (two_m - 1) // 2
    # c1 of wedge^2 D^vee(2) in lambda0-units: (2m-1) c1(D^vee) + 2 rank
    # with c1(D^vee) = -m; each piece contributes its weight-system sum
    expected = -ad.m * (two_m - 1) + 2 * (two_m * (two_m - 1) // 2)
    marked = ad.md.marked_node - 1
    total = 0
    for p in dec.pieces:
        aws = ambient_weight_system(ad.md, p.full_weight(ad.lambda0)).entries
        s = [0] * ad.datum.rank
        for w, mult in aws.items():
            for j in range(ad.datum.rank):
                s[j] += mult * w[j]
        for j in range(ad.datum.rank):
            if j != marked:
                assert s[j] == 0
        assert s[marked] % ad.lambda0[marked] == 0
        total += p.mult * (s[marked] // ad.lambda0[marked])
    assert total == expected


@pytest.mark.parametrize("letter,rank", SUPPORTED)
def test_exactly_one_twisted_piece_has_sections(letter, rank):
    ad = adjoint_data(letter, rank)
    dec = wedge2_Ddual_twisted(ad, 2)
    o1 = [p for p in dec.pieces if p.weight == (0,) * ad.datum.rank and p.twist == 1]
    assert len(o1) == 1 and o1[0].mult == 1
    with_sections = [
        p
        for p in dec.pieces
        for res in [cohomology(ad.md, p.full_weight(ad.lambda0))]
        if not res.is_zero and res.degree == 0
    ]
    assert with_sections == o1


@pytest.mark.parametrize("letter,rank", SUPPORTED)
def test_h0_omega2_conclusions(letter, rank):
    ad = adjoint_data(letter, rank)
    res2 = h0_omega2(ad, 2)
    assert res2.value == dim_g(ad.datum)
    res1 = h0_omega2(ad, 1)
    if res1.value is not None:
        assert res1.value == 0
    else:
        assert res1.bounds == (0, 1)
        assert res1.adjudicated == 0
        assert "connecting map" in res1.note


def test_section4_row_content():
    row = section4_row("E", 7, compare_paper=True)
    assert row["dim_g"] == 133
    assert row["h0_O1"] == 133
    assert row["h0_omega2_2"] == {"value": 133}
    assert row["comparison"]["flag"] == "agree"


def test_comparison_flags():
    flags = {
        row["type"]: row["comparison"]["flag"]
        for row in section4_table(max_classical_rank=4, compare_paper=True)
    }
    assert flags["E6"] == "agree"
    assert flags["E7"] == "agree"
    assert flags["G2"] == "agree"
    assert flags["F4"] == "agree"
    assert flags["E8"] == "disagree"
    assert flags["B3"] == "disagree"
    assert flags["D4"] == "disagree"


def test_b4_printed_weight_differs_only_by_twist():
    # computed top piece is E_{2l1+2l4}(-1) against the printed (-2); both
    # sides are recorded, nothing is overridden
    ad = adjoint_data("B", 4)
    dec = wedge2_Ddual_twisted(ad, 2)
    cmp = compare_with_printed(ad, dec)
    assert cmp["flag"] == "disagree"
    assert sparse(ad, {1: 2, 4: 2}, twist=-1) in full_weights(ad, dec)
    assert [2, -2, 0, 2] in cmp["printed"]


def test_table_rows_deterministic():
    r1 = section4_row("G", 2, compare_paper=True)
    r2 = section4_row("G", 2, compare_paper=True)
    assert r1 == r2
