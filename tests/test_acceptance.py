"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints a single PASS line on success (run pytest with -s to see
them); a failure raises with the offending case.  Expected values are either
closed-form oracles computed independently here, or exact integers fixed in
advance.
"""

import random
from math import comb

from adjvar.adjoint import (
    adjoint_data,
    h0_omega2,
    section4_types,
    wedge2_Ddual_twisted,
)
from adjvar.bbw import cohomology
from adjvar.parabolic import MarkedDatum
from adjvar.repcalc import (
    EXTERIOR,
    SYMMETRIC,
    ambient_weight_system,
    square_decompose_simple,
    weight_system,
    weyl_dim,
)
from adjvar.rootsystem import build_datum, dim_g, highest_root
from adjvar.weylgroup import dot_classify, simple_reflection
from adjvar import folforms as ff


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_projective_space_cohomology_oracle():
    """h^i(P^n, O(d)) from BBW equals the binomial closed form exactly."""
    cases = 0
    for n in range(1, 6):
        md = MarkedDatum(ambient=build_datum("A", n), marked_node=1)
        for d in range(-(n + 3), n + 4):
            res = cohomology(md, (d,) + (0,) * (n - 1))
            if d >= 0:
                expected = (0, comb(n + d, n))
            elif d <= -n - 1:
                expected = (n, comb(-d - 1, n))
            else:
                expected = None
            got = None if res.is_zero else (res.degree, res.dim)
            assert got == expected, (n, d, got, expected)
            cases += 1
    report(1, f"{cases} line bundles on P^1..P^5 match the binomial oracle")


EXPECTED_DIM_G = {
    ("B", 3): 21, ("B", 4): 36, ("B", 5): 55, ("B", 6): 78, ("B", 7): 105,
    ("D", 4): 28, ("D", 5): 45, ("D", 6): 66, ("D", 7): 91,
    ("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14,
}


def test_criterion_2_adjoint_section_dimensions():
    """h^0 of the contact line bundle is dim g, for every supported type."""
    for (letter, rank), expected in EXPECTED_DIM_G.items():
        datum = build_datum(letter, rank)
        ad = adjoint_data(letter, rank)
        res = cohomology(ad.md, highest_root(datum))
        assert not res.is_zero and res.degree == 0
        assert res.dim == expected == dim_g(datum), (letter, rank)
    report(2, f"h^0(E_lambda0) = dim g for all {len(EXPECTED_DIM_G)} types")


def test_criterion_3_contact_numerics():
    """dim X odd, c_1(D) = m, index = m+1: root sums against dim X/2."""
    for letter, rank in EXPECTED_DIM_G:
        ad = adjoint_data(letter, rank)
        datum = ad.datum
        marked = ad.md.marked_node - 1
        assert ad.dim_X % 2 == 1
        m = (ad.dim_X - 1) // 2
        assert ad.m == m and ad.index == m + 1
        # first computation: sum of nilradical roots = (m+1) lambda0
        total = [0] * rank
        for alpha in datum.positive_roots:
            if alpha[marked] != 0:
                w = datum.root_weight(alpha)
                for j in range(rank):
                    total[j] += w[j]
        assert tuple(total) == tuple((m + 1) * a for a in ad.lambda0)
        # second computation: weight-system sum of the contact distribution
        aws = ambient_weight_system(ad.md, ad.D_weight).entries
        assert sum(aws.values()) == 2 * m
        c1 = [0] * rank
        for w, mult in aws.items():
            for j in range(rank):
                c1[j] += mult * w[j]
        assert tuple(c1) == tuple(m * a for a in ad.lambda0)
    report(3, "contact numerics verified by two independent root/weight sums")


PRINTED_EXACT = {
    ("G", 2): [({1: 4, 2: -1}, 0), ({}, 1)],
    ("E", 6): [({2: -1, 3: 1, 5: 1}, 0), ({}, 1)],
    ("E", 7): [({1: -1, 4: 1}, 0), ({}, 1)],
}

DOCUMENTED_FLAGS = {"E8": "disagree", "F4": "agree"}


def _sparse(ad, entries, twist):
    w = [0] * ad.datum.rank
    for node, c in entries.items():
        w[node - 1] = c
    return tuple(a + twist * b for a, b in zip(w, ad.lambda0))


def test_criterion_4_section4_decompositions():
    """wedge^2 D^vee(2) matches the printed G2/E6/E7 decompositions exactly;
    the other types satisfy the dimension and c_1 identities with the
    documented comparison flags."""
    from adjvar.adjoint import compare_with_printed

    for (letter, rank), printed in PRINTED_EXACT.items():
        ad = adjoint_data(letter, rank)
        dec = wedge2_Ddual_twisted(ad, 2)
        got = sorted(
            p.full_weight(ad.lambda0) for p in dec.pieces for _ in range(p.mult)
        )
        expected = sorted(_sparse(ad, e, t) for e, t in printed)
        assert got == expected, (letter, rank, got, expected)

    for letter, rank in section4_types(max_classical_rank=7):
        ad = adjoint_data(letter, rank)
        dec = wedge2_Ddual_twisted(ad, 2)
        two_m = 2 * ad.m
        assert dec.total_dim == two_m * (two_m - 1) // 2, (letter, rank)
        expected_c1 = -ad.m * (two_m - 1) + 2 * (two_m * (two_m - 1) // 2)
        marked = ad.md.marked_node - 1
        total = 0
        for p in dec.pieces:
            aws = ambient_weight_system(ad.md, p.full_weight(ad.lambda0)).entries
            s = sum(mult * w[marked] for w, mult in aws.items())
            assert s % ad.lambda0[marked] == 0
            total += p.mult * (s // ad.lambda0[marked])
        assert total == expected_c1, (letter, rank)
        flag = compare_with_printed(ad, dec)["flag"]
        if ad.label in DOCUMENTED_FLAGS:
            assert flag == DOCUMENTED_FLAGS[ad.label], ad.label
        if letter in ("B", "D"):
            assert flag == "disagree", ad.label  # documented suspected typo
    report(4, "exact matches for G2/E6/E7; identities and flags for the rest")


def test_criterion_5_h0_omega2():
    """h^0(Omega^2(2)) = dim g exactly; h^0(Omega^2(1)) = 0 or [0,1] with the
    adjudication note."""
    for letter, rank in section4_types(max_classical_rank=7):
        ad = adjoint_data(letter, rank)
        res2 = h0_omega2(ad, 2)
        assert res2.value == dim_g(ad.datum), (letter, rank)
        res1 = h0_omega2(ad, 1)
        if res1.value is not None:
            assert res1.value == 0, (letter, rank)
        else:
            assert res1.bounds == (0, 1) and res1.adjudicated == 0, (letter, rank)
    report(5, "h^0(Omega^2(2)) = dim g and h^0(Omega^2(1)) adjudicated to 0")


def test_criterion_6_representation_cross_checks():
    """weyl_dim vs Freudenthal sums on 25 random dominant weights, and the
    exterior square of the 20-dimensional A5 representation."""
    rng = random.Random(2024)
    data = [
        build_datum(l, r)
        for l, r in [("A", 2), ("A", 4), ("A", 6), ("B", 3), ("C", 3),
                     ("D", 4), ("D", 6), ("G", 2), ("B", 5)]
    ]
    checked = 0
    while checked < 25:
        d = rng.choice(data)
        lam = tuple(rng.randint(0, 2) for _ in range(d.rank))
        if weyl_dim(d, lam) > 4000:
            continue
        ws = weight_system(d, lam)
        assert ws.total_dim == weyl_dim(d, lam), (d.letter, d.rank, lam)
        checked += 1

    pieces = square_decompose_simple(build_datum("A", 5), (0, 0, 1, 0, 0), EXTERIOR)
    got = {(p.weight, p.mult, p.dim) for p in pieces}
    assert got == {((0, 1, 0, 1, 0), 1, 189), ((0, 0, 0, 0, 0), 1, 1)}
    report(6, "25 Freudenthal/Weyl cross-checks and wedge^2 F_mu3 = 189 + 1")


def test_criterion_7_foliation_degrees():
    """The family degrees, and the tangency degrees of 10 seeded lines per
    family, exact integers."""
    for n in (2, 3):
        expectations = [
            (ff.builtin_pencil(n), 0, 0),
            (ff.builtin_log4(n), 0, 0),
            (ff.builtin_pullback(0, n), ff.MINUS_INFINITY, 0),
            (ff.builtin_pullback(1, n), ff.MINUS_INFINITY, 1),
        ]
        sampler = ff.FolSampler(n, seed=2024)
        for form, d1, d2 in expectations:
            for family, expected in ((1, d1), (2, d2)):
                assert ff.family_degree(form, family) == expected, (n, family)
                for _ in range(10):
                    got = ff.tangency_degree(form, sampler.line(family))
                    if expected is ff.MINUS_INFINITY:
                        assert got is ff.MINUS_INFINITY, (n, family, got)
                    else:
                        assert got == expected, (n, family, got, expected)
    report(7, "pencil/log (0,0) and pullback (-inf, d) degrees, n = 2 and 3")


def test_criterion_8_affine_action_foliation():
    """The affine-action foliation: integrable, saturated, bidegree (2,2),
    invariant conics of classes (2,0) and (0,2), and no invariant
    (1,1)-section among 50 seeded samples."""
    omega, f1, f2 = ff.builtin_affine(2)
    assert omega.bidegree == (2, 2)
    assert ff.integrable(omega)
    assert not ff.has_divisorial_singularities(omega)
    assert f1.bidegree() == (2, 0) and f2.bidegree() == (0, 2)
    assert ff.is_invariant(omega, f1)
    assert ff.is_invariant(omega, f2)
    sampler = ff.FolSampler(2, seed=2024)
    for k in range(50):
        section = sampler.section11()
        assert not ff.is_invariant(omega, section), f"sample {k} invariant"
    report(8, "affine-action foliation checks, incl. 50 non-invariant sections")


def test_criterion_9_property_suites(random_order_dot):
    """Reflection involutivity, reduction order-independence, Euler
    contractions, and tensor-square character reconstruction."""
    rng = random.Random(99)
    data = [build_datum(l, r) for l, r in
            [("A", 3), ("B", 4), ("C", 3), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]]
    for _ in range(1000):
        d = rng.choice(data)
        w = tuple(rng.randint(-9, 9) for _ in range(d.rank))
        i = rng.randint(1, d.rank)
        assert simple_reflection(d, i, simple_reflection(d, i, w)) == w

    for _ in range(200):
        d = rng.choice(data)
        w = tuple(rng.randint(-9, 9) for _ in range(d.rank))
        ref = dot_classify(d, w)
        alt = random_order_dot(d, w, random.Random(rng.randint(0, 10**9)))
        assert (ref.status, ref.index_p, ref.dominant_weight) == (
            alt.status, alt.index_p, alt.dominant_weight
        )

    # Euler contractions hold on every constructor output by construction;
    # confirm on one of each kind (the constructor itself raises otherwise)
    for form in (
        ff.builtin_pencil(2),
        ff.builtin_log4(2),
        ff.builtin_pullback(1, 2),
        ff.builtin_affine(2)[0],
        ff.FolSampler(2, seed=1).euler_form((2, 2)),
    ):
        ff.PolyOneForm(form.n, form.coeffs)  # revalidates Euler and degrees

    small = [build_datum(l, r) for l, r in [("A", 2), ("B", 2), ("C", 3), ("G", 2)]]
    done = 0
    while done < 10:
        d = rng.choice(small)
        lam = tuple(rng.randint(0, 1) for _ in range(d.rank))
        if weyl_dim(d, lam) > 60:
            continue
        ws = weight_system(d, lam)
        tensor = {}
        items = list(ws.entries.items())
        for wa, ma in items:
            for wb, mb in items:
                key = tuple(a + b for a, b in zip(wa, wb))
                tensor[key] = tensor.get(key, 0) + ma * mb
        rebuilt = {}
        for piece in square_decompose_simple(d, lam, EXTERIOR) + square_decompose_simple(
            d, lam, SYMMETRIC
        ):
            for w, m in weight_system(d, piece.weight).entries.items():
                rebuilt[w] = rebuilt.get(w, 0) + piece.mult * m
        assert rebuilt == tensor
        done += 1
    report(9, "1000 involutions, 200 randomized reductions, Euler and "
              "tensor-square reconstructions")
