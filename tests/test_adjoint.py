import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

import adjvar.adjoint
import adjvar.bbw
import adjvar.repcalc
from adjvar.adjoint import (
    H0Omega2,
    UnsupportedAdjointError,
    _contact_grading,
    adjoint_data,
    compare_with_printed,
    h0_omega2,
    section4_row,
    section4_table,
    section4_types,
    wedge2_Ddual_twisted,
)
from adjvar.bbw import cohomology, cohomology_of_decomposition
from adjvar.parabolic import nilradical_size
from adjvar.repcalc import (
    EXTERIOR,
    Decomposition,
    WeightSystem,
    ambient_weight_system,
    bundle_rank,
    square_decompose,
)
from adjvar.rootsystem import InvalidTypeError, build_datum, dim_g

SUPPORTED = section4_types(max_classical_rank=7)
DESK = section4_types(10)


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


@pytest.mark.parametrize("letter", [5, None, True])
def test_a_type_letter_that_is_not_a_str_is_an_invalid_type(letter):
    # letter.upper() used to raise AttributeError on these
    with pytest.raises(InvalidTypeError, match="unknown type letter"):
        build_datum(letter, 2)
    with pytest.raises(InvalidTypeError, match="unknown type letter"):
        adjoint_data(letter, 2)


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


@pytest.mark.parametrize("letter,rank", DESK)
def test_one_decomposition_per_row(monkeypatch, letter, rank):
    # and no Freudenthal weight system: E_{D^vee}'s is read off the roots
    calls = {"weight_system": 0, "_square_decomposition": 0}

    def spy(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    spy(adjvar.repcalc, "weight_system")
    spy(adjvar.adjoint, "_square_decomposition")
    section4_row(letter, rank, compare_paper=True)
    assert calls == {"weight_system": 0, "_square_decomposition": 1}


@pytest.mark.parametrize(
    "letter,rank", section4_types(14) + [("C", r) for r in range(2, 7)]
)
def test_contact_system_from_the_roots_is_freudenthals(letter, rank):
    # oracle: the g_1 roots, shifted by -lambda0, against Freudenthal's
    # weight system of E_{D^vee} over the Levi; the same pass counts dim X
    ad = adjoint_data(letter, rank, max(rank, 10))
    dim_x, canon, system = _contact_grading(ad.datum, ad.md.marked_node, ad.lambda0)
    oracle = ambient_weight_system(ad.md, ad.Ddual_weight)
    assert system.highest == oracle.highest == ad.Ddual_weight
    assert system.entries == oracle.entries
    assert system.offsets == oracle.offsets
    assert system.total_dim == oracle.total_dim == 2 * ad.m
    assert dim_x == nilradical_size(ad.md) == ad.dim_X
    assert canon == tuple(ad.index * a for a in ad.lambda0)


@pytest.mark.parametrize("letter,rank", DESK)
def test_dual_weight_system_is_the_contact_one_shifted(letter, rank):
    # the identity adjoint_data rests on: lambda0 is central for the Levi, so
    # E_{D^vee} = E_D(-1) has E_D's weights shifted by -lambda0, with the same
    # multiplicities and offsets
    ad = adjoint_data(letter, rank)
    d = ambient_weight_system(ad.md, ad.D_weight)
    dual = ambient_weight_system(ad.md, ad.Ddual_weight)

    def shift(w):
        return tuple(a - b for a, b in zip(w, ad.lambda0))

    assert dual.highest == shift(d.highest) == ad.Ddual_weight
    assert dual.entries == {shift(w): m for w, m in d.entries.items()}
    assert dual.offsets == {shift(w): off for w, off in d.offsets.items()}
    assert dual.total_dim == d.total_dim == 2 * ad.m


def _dropped(ws):
    lowest = max(ws.entries, key=lambda mu: sum(ws.offsets[mu]))
    entries = {w: m for w, m in ws.entries.items() if w != lowest}
    offsets = {w: o for w, o in ws.offsets.items() if w != lowest}
    return WeightSystem(ws.highest, entries, offsets, sum(entries.values()))


def _shifted(ws):
    lowest = max(ws.entries, key=lambda mu: sum(ws.offsets[mu]))
    moved = (lowest[0] + 1,) + lowest[1:]
    entries = {moved if w == lowest else w: m for w, m in ws.entries.items()}
    offsets = {moved if w == lowest else w: o for w, o in ws.offsets.items()}
    return WeightSystem(ws.highest, entries, offsets, ws.total_dim)


@pytest.mark.parametrize("letter,rank", [("B", 3), ("D", 5), ("E", 8), ("G", 2)])
@pytest.mark.parametrize("corrupt,message", [(_dropped, "rank"), (_shifted, "c_1")])
def test_contact_checks_fire_on_a_wrong_weight_system(
    monkeypatch, letter, rank, corrupt, message
):
    real = adjvar.adjoint._contact_grading

    def corrupted(*args):
        dim_x, canon, system = real(*args)
        return dim_x, canon, corrupt(system)

    monkeypatch.setattr(adjvar.adjoint, "_contact_grading", corrupted)
    with pytest.raises(ArithmeticError, match=message):
        adjoint_data(letter, rank)


@pytest.mark.parametrize("k", [1.5, 2.0, Fraction(2), "2", None, True, False])
def test_twist_must_be_an_int(monkeypatch, k):
    # and h0_omega2 rejects it before any Bott-Borel-Weil call
    ad = adjoint_data("G", 2)
    calls = []
    monkeypatch.setattr(adjvar.bbw, "cohomology", lambda *args: calls.append(args))
    monkeypatch.setattr(adjvar.adjoint, "cohomology", lambda *args: calls.append(args))
    message = re.escape(f"twist k must be an int, not {k!r}")
    with pytest.raises(ValueError, match=message):
        wedge2_Ddual_twisted(ad, k)
    with pytest.raises(ValueError, match=message):
        h0_omega2(ad, k)
    assert calls == []


def _h0_omega2_by_cases(ad, k):
    # the contact-sequence rule spelled out case by case: exact when
    # h^1(D^vee(k-1)) = 0, exact when the interval it leaves is one point,
    # else that interval
    lower = tuple(d + (k - 1) * l for d, l in zip(ad.Ddual_weight, ad.lambda0))
    res = cohomology(ad.md, lower)
    h0_low, h1_low = res.h(0), res.h(1)
    top = cohomology_of_decomposition(ad.md, wedge2_Ddual_twisted(ad, k))
    h0_top = top.get(0, 0)
    if h1_low == 0:
        return H0Omega2(value=h0_low + h0_top)
    lo, hi = h0_low + max(0, h0_top - h1_low), h0_low + h0_top
    if lo == hi:
        return H0Omega2(value=lo)
    note = (
        f"connecting map H^0(wedge^2 D^vee({k})) -> H^1(D^vee({k-1})) "
        f"undetermined by Bott-Borel-Weil alone; h^1(D^vee({k-1})) = {h1_low}"
    )
    return H0Omega2(bounds=(lo, hi), note=note, adjudicated=0 if k == 1 else None)


@pytest.mark.parametrize("letter,rank", DESK + [("C", r) for r in range(2, 6)])
def test_h0_omega2_matches_the_rule_by_cases(letter, rank):
    ad = adjoint_data(letter, rank)
    for k in range(-1, 4):
        assert h0_omega2(ad, k) == _h0_omega2_by_cases(ad, k)


def test_h0_omega2_is_exact_when_nothing_lies_above():
    # no row has h^1(D^vee(k-1)) > 0 with h^0(wedge^2 D^vee(k)) = 0; emptying
    # wedge^2 D^vee makes one, at k = 1
    ad = replace(adjoint_data("G", 2), wedge2_Ddual=Decomposition(pieces=()))
    assert h0_omega2(ad, 1) == _h0_omega2_by_cases(ad, 1) == H0Omega2(value=0)


@pytest.mark.parametrize("letter,rank", DESK)
def test_twists_shift_one_fresh_decomposition(letter, rank):
    # oracle: decompose wedge^2 D^vee afresh, then raise every twist by k
    ad = adjoint_data(letter, rank)
    fresh = square_decompose(ad.md, ad.Ddual_weight, EXTERIOR)
    assert ad.wedge2_Ddual == fresh
    for k in (-1, 0, 1, 2, 3):
        shifted = [dict(p, twist=p["twist"] + k) for p in fresh.to_json()["pieces"]]
        assert wedge2_Ddual_twisted(ad, k).to_json() == {"pieces": shifted}


def test_table_rows_deterministic():
    r1 = section4_row("G", 2, compare_paper=True)
    r2 = section4_row("G", 2, compare_paper=True)
    assert r1 == r2
