import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjvar import repcalc
from adjvar.adjoint import adjoint_data, section4_types
from adjvar.parabolic import (
    MarkedDatum,
    _connected_components,
    _match_component,
    branch_to_levi,
    levi_diagram,
)
from adjvar.repcalc import (
    EXTERIOR,
    SYMMETRIC,
    Decomposition,
    DimensionCeilingError,
    Piece,
    _fold_twist,
    ambient_weight_system,
    bundle_rank,
    square_decompose,
    square_decompose_simple,
    weight_system,
    weyl_dim,
)
from adjvar.rootsystem import RootDatum, build_datum, saturate
from adjvar.weylgroup import simple_reflection


@lru_cache(maxsize=None)
def height_vector(datum):
    """h with h . w = sum of the simple-root coordinates of w: solves C h = 1."""
    n = datum.rank
    a = [[Fraction(x) for x in row] + [Fraction(1)] for row in datum.cartan]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def total_height(datum, w):
    return sum(h * x for h, x in zip(height_vector(datum), w))


def strip_square(datum, lam, kind, weights_of):
    """Reference decomposition of the exterior/symmetric square of the
    irreducible with highest weight lam, whose weights are weights_of(lam):
    the highest remaining weight (by height, then lexicographically) heads a
    constituent, whose whole weight system is subtracted.  Returns
    (highest weight, multiplicity) in stripping order."""
    items = sorted(weights_of(lam).items())
    remaining = {}
    for a, (wa, ma) in enumerate(items):
        diag = ma * (ma - 1) // 2 if kind == EXTERIOR else ma * (ma + 1) // 2
        if diag:
            key = tuple(2 * x for x in wa)
            remaining[key] = remaining.get(key, 0) + diag
        for wb, mb in items[a + 1:]:
            key = tuple(x + y for x, y in zip(wa, wb))
            remaining[key] = remaining.get(key, 0) + ma * mb
    out = []
    while remaining:
        best = max(remaining, key=lambda w: (total_height(datum, w), w))
        mult = remaining[best]
        for w, m in weights_of(best).items():
            val = remaining.get(w, 0) - mult * m
            assert val >= 0, f"negative multiplicity at {w} while stripping {best}"
            if val:
                remaining[w] = val
            else:
                remaining.pop(w, None)
        out.append((best, mult))
    return out


def test_weyl_dim_a1():
    d = build_datum("A", 1)
    for m in range(6):
        assert weyl_dim(d, (m,)) == m + 1


def test_weyl_dim_g2_adjoint_is_dim_g():
    assert weyl_dim(build_datum("G", 2), (0, 1)) == 14


def test_weyl_dim_e8_adjoint():
    assert weyl_dim(build_datum("E", 8), (0,) * 7 + (1,)) == 248


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim(build_datum("A", 2), (-1, 0))


def test_weyl_dim_and_weight_system_reject_a_weight_of_the_wrong_length():
    # weyl_dim(G2, (1, 0, 5)) used to answer 7
    g2 = build_datum("G", 2)
    with pytest.raises(ValueError, match="needs 2 coordinates"):
        weyl_dim(g2, (1, 0, 5))
    with pytest.raises(ValueError, match="needs 2 coordinates"):
        weight_system(g2, (1, 0, 5))


def test_weight_system_a1_adjoint():
    ws = weight_system(build_datum("A", 1), (2,))
    assert ws.entries == {(2,): 1, (0,): 1, (-2,): 1}
    assert ws.total_dim == 3


def test_weight_system_a2_adjoint():
    ws = weight_system(build_datum("A", 2), (1, 1))
    assert ws.total_dim == 8
    assert ws.entries[(0, 0)] == 2
    assert sum(1 for m in ws.entries.values() if m == 1) == 6


def test_weight_system_a5_wedge_rep():
    ws = weight_system(build_datum("A", 5), (0, 0, 1, 0, 0))
    assert ws.total_dim == 20
    assert len(ws.entries) == 20
    assert all(m == 1 for m in ws.entries.values())


def level_by_level_offsets(cartan, starts, limit):
    """Reference generator for weight_system, in place of saturate: the
    weights of V_lam level by level (level = height of lam - mu), where
    mu - alpha_i is a weight iff p + <mu, alpha_i^vee> >= 1 and p is the
    length of the upward alpha_i-string through mu."""
    (lam, zero), = starts.items()
    rank = len(cartan)
    offsets = {lam: zero}
    current = [lam]
    while current:
        nxt = []
        for w in current:
            for i in range(rank):
                p = 0
                up = w
                while True:
                    up = tuple(up[j] + cartan[i][j] for j in range(rank))
                    if up in offsets:
                        p += 1
                    else:
                        break
                if p + w[i] >= 1:
                    down = tuple(w[j] - cartan[i][j] for j in range(rank))
                    if down not in offsets:
                        noff = list(offsets[w])
                        noff[i] += 1
                        offsets[down] = tuple(noff)
                        nxt.append(down)
        current = nxt
    return offsets


def oracle_weight_systems():
    """Every fundamental weight of dimension <= 5000 up to rank 10, and
    seeded dominant weights."""
    types = (
        [("A", r) for r in range(1, 11)]
        + [("B", r) for r in range(2, 11)]
        + [("C", r) for r in range(2, 11)]
        + [("D", r) for r in range(4, 11)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    )
    cases = []
    for letter, rank in types:
        d = build_datum(letter, rank)
        for i in range(rank):
            lam = tuple(int(j == i) for j in range(rank))
            if weyl_dim(d, lam) <= 5000:
                cases.append((letter, rank, lam))
    rng = random.Random(14)
    while len(cases) < 240:
        letter, rank = rng.choice(types[:-5] + [("F", 4), ("G", 2)] * 4)
        lam = tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(rank))
        if weyl_dim(build_datum(letter, rank), lam) <= 5000:
            cases.append((letter, rank, lam))
    return cases


ORACLE_CASES = oracle_weight_systems()


@pytest.mark.parametrize("letter,rank,lam", ORACLE_CASES)
def test_saturation_matches_level_by_level(letter, rank, lam):
    d = build_datum(letter, rank)
    starts = {lam: (0,) * rank}
    dim = weyl_dim(d, lam)
    assert saturate(d.cartan, starts, dim) == level_by_level_offsets(d.cartan, starts, dim)


def weyl_dim_oracle(datum, lam, nodes=None):
    """Weyl's product over the positive roots supported on ``nodes``, each
    factor and the denominator summed afresh from the simple-root
    coordinates."""
    roots, coords = datum.positive_roots, lam
    if nodes is not None:
        outside = [j for j in range(datum.rank) if j + 1 not in nodes]
        roots = [alpha for alpha in roots if not any(alpha[j] for j in outside)]
        coords = [lam[i - 1] for i in nodes]
    if any(a < 0 for a in coords):
        raise ValueError(f"{lam} is not dominant")
    dd = datum.root_half_norms
    num = 1
    den = 1
    for alpha in roots:
        num *= sum(c * dd[j] * (lam[j] + 1) for j, c in enumerate(alpha))
        den *= sum(c * dd[j] for j, c in enumerate(alpha))
    assert num % den == 0
    return num // den


def all_weights_weight_system(datum, lam):
    """(entries, offsets) of V_lam by Freudenthal's recursion at every
    weight, level by level, with each root's weight and norm recomputed by
    root_weight and root_norm."""
    dim = weyl_dim_oracle(datum, lam)
    rank = datum.rank
    offsets = saturate(datum.cartan, {lam: (0,) * rank}, dim)
    dd = datum.root_half_norms
    pos = [
        (alpha, datum.root_weight(alpha), 2 * datum.root_norm(alpha))
        for alpha in datum.positive_roots
    ]
    mult = {}
    for w, off in sorted(offsets.items(), key=lambda kv: sum(kv[1])):
        if w == lam:
            mult[w] = 1
            continue
        num = 0
        for alpha, aw, aa in pos:
            base = datum.form(w, alpha)
            k = 1
            up = tuple(w[j] + aw[j] for j in range(rank))
            while up in mult:
                num += mult[up] * (base + k * aa)
                k += 1
                up = tuple(up[j] + aw[j] for j in range(rank))
        den = sum(off[j] * dd[j] * (lam[j] + w[j] + 2) for j in range(rank))
        assert den > 0 and (2 * num) % den == 0, w
        mult[w] = (2 * num) // den
    assert sum(mult.values()) == dim
    return mult, offsets


def test_oracle_cases_hold_the_e8_rows_largest_call_and_b8_omega3():
    assert ("E", 7, (0, 0, 0, 0, 0, 1, 0)) in ORACLE_CASES
    assert ("B", 8, (0, 0, 1, 0, 0, 0, 0, 0)) in ORACLE_CASES


@pytest.mark.parametrize("letter,rank,lam", ORACLE_CASES)
def test_weight_system_matches_the_all_weights_oracle(letter, rank, lam):
    # same weights, multiplicities and offsets, inserted in the same order
    d = build_datum(letter, rank)
    ws = weight_system(d, lam)
    entries, offsets = all_weights_weight_system(d, lam)
    assert list(ws.entries.items()) == list(entries.items())
    assert list(ws.offsets.items()) == list(offsets.items())


@pytest.mark.parametrize(
    "letter,rank,lam",
    [c for c in ORACLE_CASES if weyl_dim(build_datum(c[0], c[1]), c[2]) <= 500],
)
def test_weight_system_matches_level_by_level(letter, rank, lam, monkeypatch):
    # weight_system over the level-by-level weights in place of saturate
    d = build_datum(letter, rank)
    ws = weight_system(d, lam)
    monkeypatch.setattr(repcalc, "saturate", level_by_level_offsets)
    ref = weight_system(d, lam)
    assert ws.offsets == ref.offsets
    assert ws.entries == ref.entries


def test_weight_system_ceiling():
    with pytest.raises(DimensionCeilingError):
        weight_system(build_datum("A", 3), (3, 3, 3), ceiling=100)


@pytest.mark.parametrize("letter,rank,lam", [("B", 3, (1, 0, 1)), ("G", 2, (1, 1))])
def test_weight_system_weyl_invariant(letter, rank, lam):
    d = build_datum(letter, rank)
    ws = weight_system(d, lam)
    for i in range(1, rank + 1):
        reflected = {}
        for w, m in ws.entries.items():
            reflected[simple_reflection(d, i, w)] = m
        assert reflected == ws.entries


def test_weyl_dim_matches_freudenthal_sum_random():
    rng = random.Random(42)
    data = [
        build_datum(l, r)
        for l, r in [("A", 2), ("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("A", 6)]
    ]
    checked = 0
    while checked < 25:
        d = rng.choice(data)
        lam = tuple(rng.randint(0, 2) for _ in range(d.rank))
        if weyl_dim(d, lam) > 3000:
            continue
        ws = weight_system(d, lam)
        assert ws.total_dim == weyl_dim(d, lam)
        checked += 1


def test_wedge_square_of_a5_wedge_rep():
    pieces = square_decompose_simple(build_datum("A", 5), (0, 0, 1, 0, 0), EXTERIOR)
    got = {(p.weight, p.mult, p.dim) for p in pieces}
    assert got == {((0, 1, 0, 1, 0), 1, 189), ((0, 0, 0, 0, 0), 1, 1)}


def test_wedge_square_of_two_dim_space_is_trivial():
    pieces = square_decompose_simple(build_datum("A", 1), (1,), EXTERIOR)
    assert [(p.weight, p.mult, p.dim) for p in pieces] == [((0,), 1, 1)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wedge_square_of_standard_rep(n):
    lam = (1,) + (0,) * (n - 1)
    pieces = square_decompose_simple(build_datum("A", n), lam, EXTERIOR)
    mu2 = tuple(1 if i == 1 else 0 for i in range(n))
    assert [(p.weight, p.mult) for p in pieces] == [(mu2, 1)]


def test_exterior_plus_symmetric_reconstruct_tensor_square():
    rng = random.Random(3)
    data = [build_datum(l, r) for l, r in [("A", 2), ("B", 2), ("C", 3), ("G", 2)]]
    for _ in range(10):
        d = rng.choice(data)
        lam = tuple(rng.randint(0, 1) for _ in range(d.rank))
        if weyl_dim(d, lam) > 60:
            continue
        ws = weight_system(d, lam)
        ext = square_decompose_simple(d, lam, EXTERIOR)
        sym = square_decompose_simple(d, lam, SYMMETRIC)
        # tensor-square character: all pairwise sums with multiplicity
        tensor = {}
        items = list(ws.entries.items())
        for wa, ma in items:
            for wb, mb in items:
                key = tuple(a + b for a, b in zip(wa, wb))
                tensor[key] = tensor.get(key, 0) + ma * mb
        rebuilt = {}
        for piece in ext + sym:
            sub = weight_system(d, piece.weight)
            for w, m in sub.entries.items():
                rebuilt[w] = rebuilt.get(w, 0) + piece.mult * m
        assert rebuilt == tensor


def test_square_dimension_identities():
    d = build_datum("C", 3)
    lam = (1, 0, 0)
    dim = weyl_dim(d, lam)
    ext = square_decompose_simple(d, lam, EXTERIOR)
    sym = square_decompose_simple(d, lam, SYMMETRIC)
    assert sum(p.mult * p.dim for p in ext) == dim * (dim - 1) // 2
    assert sum(p.mult * p.dim for p in sym) == dim * (dim + 1) // 2


def test_bundle_square_bn_ddual():
    # wedge^2 of the contact conormal on the B4 adjoint variety: three pieces
    # whose ranks sum to (2m choose 2) with rank D = 2m = 10
    md = MarkedDatum(ambient=build_datum("B", 4), marked_node=2)
    ddual = (1, -2, 1, 0)
    dec = square_decompose(md, ddual, EXTERIOR)
    assert dec.total_dim == 45
    assert len(dec.pieces) == 3
    full = sorted(p.full_weight((0, 1, 0, 0)) for p in dec.pieces)
    assert full == [(0, -3, 2, 0), (0, -1, 0, 0), (2, -3, 0, 2)]


def test_bundle_rank_and_ambient_weights():
    md = MarkedDatum(ambient=build_datum("E", 6), marked_node=2)
    lam4 = (0, 0, 0, 1, 0, 0)
    assert bundle_rank(md, lam4) == 20
    aws = ambient_weight_system(md, lam4).entries
    assert sum(aws.values()) == 20
    # every weight differs from lam4 by unmarked simple roots: the marked
    # root coordinate is constant across the system
    assert max(aws, key=lambda w: total_height(md.ambient, w)) == lam4


LEVI_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def levi_factor_rank(md, w):
    """The rank of E_w as the product of the Bourbaki-numbered Levi factors'
    Weyl dimensions."""
    comp_weights, _ = branch_to_levi(md, w)
    rank = 1
    for comp, cw in zip(levi_diagram(md).components, comp_weights):
        rank *= weyl_dim(comp.datum, cw)
    return rank


def lifted_weight_system(md, lam):
    """(entries, offsets, total_dim) of E_lam as the product of the Levi
    factors' weight systems, each offset lifted to its ambient nodes."""
    comp_weights, _ = branch_to_levi(md, lam)
    ambient = md.ambient
    lifted = {(0,) * ambient.rank: 1}
    for comp, cw in zip(levi_diagram(md).components, comp_weights):
        ws = weight_system(comp.datum, cw, 10**6)
        nxt = {}
        for off, m in lifted.items():
            for u, m2 in ws.entries.items():
                new = list(off)
                for node, k in zip(comp.ambient_nodes, ws.offsets[u]):
                    new[node - 1] = k
                nxt[tuple(new)] = m * m2
        lifted = nxt
    entries, offsets = {}, {}
    for off, m in lifted.items():
        mu = tuple(a - b for a, b in zip(lam, ambient.root_weight(off)))
        entries[mu] = m
        offsets[mu] = off
    return entries, offsets, sum(entries.values())


@pytest.mark.parametrize(
    "letter,rank,node",
    [(l, r, node) for l, r in LEVI_TYPES for node in range(1, r + 1)],
)
def test_levi_routes_match_the_factor_products(letter, rank, node):
    # 12 seeded bundle weights per marked node; the weight systems are
    # compared up to rank 300 to keep the suite fast
    md = MarkedDatum(ambient=build_datum(letter, rank), marked_node=node)
    rng = random.Random(f"{letter}{rank}:{node}")
    for _ in range(12):
        w = tuple(
            rng.randint(-3, 3) if i == node else rng.choice((0, 0, 1, 1, 2, 3))
            for i in range(1, rank + 1)
        )
        r = bundle_rank(md, w)
        assert r == levi_factor_rank(md, w)
        if r <= 300:
            aws = ambient_weight_system(md, w, 10**6)
            assert (aws.entries, aws.offsets, aws.total_dim) == lifted_weight_system(md, w)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(LEVI_TYPES).flatmap(
        lambda t: st.tuples(
            st.just(t),
            st.sets(st.integers(1, t[1])),
            st.lists(st.integers(0, 3), min_size=t[1], max_size=t[1]),
        )
    )
)
def test_weyl_dim_over_nodes_is_the_product_over_components(case):
    (letter, rank), nodes, lam = case
    d = build_datum(letter, rank)
    lam = tuple(lam)
    expected = 1
    for comp in _connected_components(d.cartan, nodes):
        factor = _match_component(d, comp)
        expected *= weyl_dim(factor.datum, tuple(lam[i - 1] for i in factor.ambient_nodes))
    assert weyl_dim(d, lam, tuple(sorted(nodes))) == expected


def test_trivial_levi_has_rank_one_and_a_single_weight():
    md = MarkedDatum(ambient=build_datum("A", 1), marked_node=1)
    assert md.levi_nodes == ()
    for k in (-3, 0, 5):
        assert bundle_rank(md, (k,)) == 1
        aws = ambient_weight_system(md, (k,))
        assert aws.entries == {(k,): 1}
        assert aws.offsets == {(k,): (0,)}
        assert aws.total_dim == 1


@pytest.mark.parametrize("nodes", [(0, 1), (1, 3), (5,)])
def test_weyl_dim_rejects_out_of_range_nodes(nodes):
    with pytest.raises(IndexError):
        weyl_dim(build_datum("A", 2), (1, 1), nodes)


def test_weyl_dim_checks_dominance_on_the_nodes_only():
    d = build_datum("B", 3)
    assert weyl_dim(d, (1, -4, 0), (1, 3)) == weyl_dim(d, (1, 0, 0), (1, 3))
    with pytest.raises(ValueError, match="not dominant"):
        weyl_dim(d, (1, -4, 0), (1, 2))
    with pytest.raises(ValueError, match="not a bundle weight at node 2"):
        bundle_rank(MarkedDatum(ambient=d, marked_node=2), (-1, 0, 0))


def test_weyl_dim_matches_its_oracle_on_seeded_weights_and_node_sets():
    rng = random.Random(16)
    for letter, rank in LEVI_TYPES:
        d = build_datum(letter, rank)
        for _ in range(30):
            lam = tuple(rng.randint(0, 4) for _ in range(rank))
            assert weyl_dim(d, lam) == weyl_dim_oracle(d, lam)
            nodes = tuple(sorted(rng.sample(range(1, rank + 1), rng.randint(0, rank))))
            lam = tuple(
                a if i in nodes else rng.randint(-4, 4) for i, a in enumerate(lam, 1)
            )
            assert weyl_dim(d, lam, nodes) == weyl_dim_oracle(d, lam, nodes)


def test_weyl_dim_node_set_may_be_a_list_unsorted_or_repeated():
    d = build_datum("E", 7)
    lam = (1, 2, 0, 1, -3, 2, 1)
    nodes = (1, 2, 3, 4, 6, 7)
    expected = weyl_dim_oracle(d, lam, nodes)
    fresh = RootDatum(d.letter, d.rank, d.cartan, d.symmetrizers, d.positive_roots)
    for same in (nodes, list(nodes), (7, 6, 4, 3, 2, 1), (1, 2, 2, 3, 4, 6, 7, 7)):
        assert weyl_dim(fresh, lam, same) == expected
    assert len(fresh._weyl_tables) == 1


def test_weyl_dim_over_no_nodes_is_one():
    d = build_datum("F", 4)
    assert weyl_dim(d, (-2, 3, -1, 0), ()) == 1
    assert weyl_dim(d, (-2, 3, -1, 0), []) == 1


def test_weyl_dim_checks_its_input_before_any_table_lookup(monkeypatch):
    def no_table(self, nodes=None):
        raise AssertionError("table looked up")

    monkeypatch.setattr(RootDatum, "weyl_table", no_table)
    d = build_datum("B", 3)
    with pytest.raises(ValueError, match="needs 3 coordinates"):
        weyl_dim(d, (1, 0))
    with pytest.raises(ValueError, match="needs 3 coordinates"):
        weyl_dim(d, (1, 0), [1, 2])
    for nodes in ([0, 1], (4,), [3, 1, 4]):
        with pytest.raises(IndexError):
            weyl_dim(d, (1, 0, 0), nodes)
    with pytest.raises(ValueError, match="not dominant"):
        weyl_dim(d, (1, -1, 0), [2])


@pytest.mark.parametrize("letter,rank", section4_types(10))
def test_square_decompose_matches_stripping(letter, rank):
    ad = adjoint_data(letter, rank)
    md = ad.md
    for kind in (EXTERIOR, SYMMETRIC):
        for lam in (ad.D_weight, ad.Ddual_weight):
            stripped = strip_square(
                md.ambient, lam, kind, lambda w: ambient_weight_system(md, w, 10**6).entries
            )
            expected = Decomposition(
                pieces=tuple(
                    Piece(*_fold_twist(md, w, ad.lambda0), mult=m, dim=bundle_rank(md, w))
                    for w, m in stripped
                )
            )
            assert square_decompose(md, lam, kind).to_json() == expected.to_json()


@pytest.mark.parametrize(
    "letter,rank,lam",
    [
        ("A", 3, (1, 0, 1)),
        ("A", 5, (1, 0, 0, 0, 1)),
        ("B", 3, (1, 0, 1)),
        ("B", 4, (0, 0, 0, 1)),
        ("C", 3, (0, 1, 0)),
        ("D", 5, (0, 0, 0, 0, 1)),
        ("E", 6, (1, 0, 0, 0, 0, 0)),
        ("F", 4, (0, 0, 0, 1)),
        ("G", 2, (1, 1)),
    ],
)
def test_square_decompose_simple_matches_stripping(letter, rank, lam):
    d = build_datum(letter, rank)
    for kind in (EXTERIOR, SYMMETRIC):
        stripped = strip_square(d, lam, kind, lambda w: weight_system(d, w, 10**6).entries)
        stripped.sort(key=lambda p: (-total_height(d, p[0]), p[0]))
        got = square_decompose_simple(d, lam, kind)
        assert [(p.weight, p.mult, p.dim) for p in got] == [
            (w, m, weyl_dim(d, w)) for w, m in stripped
        ]
