"""Contact geometry of adjoint varieties of Picard number one, and the
twisted-two-form section counts obtained through the contact exact sequences.

For each supported simple type the marked node is *derived* as the unique node
where the highest root has a nonzero fundamental coordinate; the contact line
bundle is E_{lambda0} for lambda0 the highest root.  The weight of the contact
distribution D is lambda0 - alpha_marked, and D^vee = D(-1).  At the base
point D is the Levi module g_1 of the contact grading (Beauville, Comment.
Math. Helv. 73, 1998), so D's weights are the roots whose coefficient at the
marked node is 1, each of multiplicity one: one pass over the positive roots
of the datum reads them, with dim X and -K_X, and no Freudenthal recursion
runs (the tests keep it as the oracle).  lambda0 is central for the Levi, so
D^vee's weights are D's shifted by -lambda0; the checks rank D = 2m,
c_1(D) = m lambda0 and the Brauer-Klimyk decomposition of the exterior square
of D^vee all read that one system.  The pipeline twists that square by
shifting its pieces, pushes every piece through Bott-Borel-Weil, and resolves
h^0(Omega^2(k)) via

    0 -> D^vee(k-1) -> Omega^2_X(k) -> wedge^2 D^vee(k) -> 0.

When the long exact sequence alone leaves h^0 undetermined (k = 1, where
h^1(D^vee) = 1), the result is an interval with a machine-readable note, not a
silently asserted value.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul, sub

from .bbw import cohomology, cohomology_of_decomposition
from .parabolic import MarkedDatum, is_bundle_weight
from .repcalc import (
    EXTERIOR,
    Decomposition,
    Piece,
    WeightSystem,
    _square_decomposition,
    weyl_dim,
)
from .rootsystem import (
    RootDatum,
    Weight,
    build_datum,
    dim_g,
    highest_root,
)
from .weylgroup import simple_reflection


class UnsupportedAdjointError(ValueError):
    """The requested type has no Picard-number-one adjoint variety here."""


@dataclass(frozen=True)
class AdjointData:
    """Contact data of the adjoint variety of a simple type.

    dim_X = 2m + 1; the contact distribution D has rank 2m with
    c_1(D) = m lambda0-units, and -K_X = (m+1) lambda0-units.
    ``veronese`` flags type C, where O_X(1) is the square of the hyperplane
    class of the underlying projective space.  ``wedge2_Ddual`` is the
    decomposition of wedge^2 D^vee at twist 0, computed once here from the
    weight system of E_{D^vee}, read off the roots, on which the rank and c_1
    checks ran; every twist of it is a shift of its pieces' twists.
    """

    md: MarkedDatum
    lambda0: Weight
    dim_X: int
    m: int
    index: int
    D_weight: Weight
    Ddual_weight: Weight
    wedge2_Ddual: Decomposition
    veronese: bool = False

    @property
    def datum(self) -> RootDatum:
        return self.md.ambient

    @property
    def label(self) -> str:
        return f"{self.datum.letter}{self.datum.rank}"


def _weight_sum(weights: dict) -> Weight:
    """Sum of the weights of ``weights``, each times its multiplicity."""
    mults = tuple(weights.values())
    return tuple(sum(map(mul, column, mults)) for column in zip(*weights))


def _contact_grading(datum: RootDatum, marked: int, lambda0: Weight):
    """(dim X, -K_X, weight system of E_{D^vee}) from one pass over the
    positive roots, graded by their coefficient at the marked node.

    The roots of coefficient >= 1 are the nilradical: they count dim X and
    sum to -K_X.  Those of coefficient 1 are g_1, whose weights beta, each of
    multiplicity one, are D's; shifted by -lambda0 they are D^vee's, offset
    by (theta - alpha_marked) - beta in simple-root coordinates, theta the
    highest root.  The highest weight (theta - alpha_marked) - lambda0 is
    -alpha_marked, as theta has weight lambda0.
    """
    k = marked - 1
    theta = datum.positive_roots[-1]
    top = theta[:k] + (theta[k] - 1,) + theta[k + 1:]
    nilradical = []
    entries, offsets = {}, {}
    for beta, w in zip(datum.positive_roots, datum.positive_root_weights):
        c = beta[k]
        if c:
            nilradical.append(w)
            if c == 1:
                mu = tuple(map(sub, w, lambda0))
                entries[mu] = 1
                offsets[mu] = tuple(map(sub, top, beta))
    canon = tuple(map(sum, zip(*nilradical)))
    highest = tuple(-a for a in datum.cartan[k])
    return len(nilradical), canon, WeightSystem(highest, entries, offsets, len(entries))


def adjoint_data(letter: str, rank: int, max_classical_rank: int = 10) -> AdjointData:
    """Contact data for the adjoint variety X(g) of Picard number one.

    Type A is rejected (its adjoint variety is the hyperplane section of
    P^n x P^n, Picard number two; see the foliation-form module).  Low-rank
    classical coincidences with Picard number two are rejected as well.
    Type C is accepted but flagged: the adjoint variety is P^{2n-1} under the
    second Veronese embedding, O_X(1) = O(2).
    """
    # a letter that is not a str is left for build_datum to reject
    letter = letter.upper() if isinstance(letter, str) else letter
    if letter == "A":
        raise UnsupportedAdjointError(
            "type A adjoint varieties are hyperplane sections of P^n x P^n with "
            "Picard number two; use the foliation-form module (folforms)"
        )
    if letter == "D" and rank == 3:
        raise UnsupportedAdjointError(
            "X(so(6)) = X(sl(3)) has Picard number two (D3 = A3 coincidence)"
        )
    if letter == "B" and rank == 2:
        raise UnsupportedAdjointError(
            "X(so(5)) = X(sp(4)) is the Veronese P^3; request type C rank 2"
        )
    datum = build_datum(letter, rank, max_classical_rank=max_classical_rank)
    lambda0 = highest_root(datum)
    nonzero = [i + 1 for i, a in enumerate(lambda0) if a != 0]
    if len(nonzero) != 1:
        raise UnsupportedAdjointError(
            f"highest root {lambda0} marks more than one node"
        )
    marked = nonzero[0]
    md = MarkedDatum(ambient=datum, marked_node=marked)

    alpha = datum.simple_root_weight(marked)
    d_weight = tuple(l - a for l, a in zip(lambda0, alpha))
    if lambda0[marked - 1] == 1 and d_weight != simple_reflection(
        datum, marked, lambda0
    ):
        raise ArithmeticError("contact distribution weight disagrees with s_i(lambda0)")
    # lambda0 vanishes off the marked node, so this checks D^vee's weight too
    if not is_bundle_weight(md, d_weight):
        raise ArithmeticError(f"{d_weight} is not a bundle weight at node {marked}")
    ddual_weight = tuple(d - l for d, l in zip(d_weight, lambda0))

    dim_x, canon, system = _contact_grading(datum, marked, lambda0)
    if dim_x % 2 == 0:
        raise ArithmeticError(f"adjoint variety dimension {dim_x} is even")
    m = (dim_x - 1) // 2

    # -K_X = sum of nilradical roots must be exactly (m+1) lambda0
    index = m + 1
    if canon != tuple(index * a for a in lambda0):
        raise ArithmeticError(
            f"sum of nilradical roots {canon} is not (m+1) lambda0"
        )

    # rank(D) = 2m and c_1(D) = m lambda0, checked on D^vee = D(-1):
    # c_1(D^vee) = c_1(D) - 2m lambda0 = -m lambda0.  The same system is the
    # one whose exterior square is decomposed below.
    if system.total_dim != 2 * m:
        raise ArithmeticError("contact distribution rank is not dim X - 1")
    c1 = _weight_sum(system.entries)
    if c1 != tuple(-m * a for a in lambda0):
        raise ArithmeticError(f"c_1(D^vee) = {c1} is not -m lambda0")

    return AdjointData(
        md=md,
        lambda0=lambda0,
        dim_X=dim_x,
        m=m,
        index=index,
        D_weight=d_weight,
        Ddual_weight=ddual_weight,
        wedge2_Ddual=_square_decomposition(md, system, EXTERIOR),
        veronese=(letter == "C"),
    )


def wedge2_Ddual_twisted(ad: AdjointData, k: int) -> Decomposition:
    """Exterior square of the contact conormal sheaf, twisted by O(k): the
    pieces of ``ad.wedge2_Ddual`` with each twist raised by k.  A k that is
    not an int, or is a bool, raises ``ValueError``."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"twist k must be an int, not {k!r}")
    return Decomposition(
        pieces=tuple(
            Piece(weight=p.weight, twist=p.twist + k, mult=p.mult, dim=p.dim)
            for p in ad.wedge2_Ddual.pieces
        )
    )


@dataclass(frozen=True)
class H0Omega2:
    """h^0(X, Omega^2_X(k)): an exact value, or an interval when the
    connecting map of the contact sequence is undetermined by BBW alone."""

    value: int | None = None
    bounds: tuple[int, int] | None = None
    note: str | None = None
    adjudicated: int | None = None

    def to_json(self) -> dict:
        if self.value is not None:
            return {"value": self.value}
        out: dict = {"bounds": list(self.bounds), "note": self.note}
        if self.adjudicated is not None:
            out["adjudicated"] = self.adjudicated
        return out


def h0_omega2(ad: AdjointData, k: int) -> H0Omega2:
    """h^0 of the twisted 2-forms via 0 -> D^vee(k-1) -> Omega^2(k) -> wedge^2 D^vee(k) -> 0.

    A k that is not an int, or is a bool, raises ``ValueError`` before any
    Bott-Borel-Weil call.  The value is exact when H^1(D^vee(k-1)) or
    H^0(wedge^2 D^vee(k)) is zero; otherwise the interval's ends differ."""
    top = wedge2_Ddual_twisted(ad, k)
    md = ad.md
    lower = tuple(
        d + (k - 1) * l for d, l in zip(ad.Ddual_weight, ad.lambda0)
    )
    res_low = cohomology(md, lower)
    h0_low, h1_low = res_low.h(0), res_low.h(1)

    h0_top = cohomology_of_decomposition(md, top).get(0, 0)

    if h1_low == 0 or h0_top == 0:
        return H0Omega2(value=h0_low + h0_top)
    lo = h0_low + max(0, h0_top - h1_low)
    hi = h0_low + h0_top
    note = (
        f"connecting map H^0(wedge^2 D^vee({k})) -> H^1(D^vee({k-1})) "
        f"undetermined by Bott-Borel-Weil alone; h^1(D^vee({k-1})) = {h1_low}"
    )
    adjudicated = 0 if k == 1 else None
    return H0Omega2(bounds=(lo, hi), note=note, adjudicated=adjudicated)


# The per-type decompositions of wedge^2 D^vee(2) as printed in the source
# analysis, encoded as (sparse weight, twist in lambda0 units).  Comparison is
# by full weight, so printed twists are folded before matching.  Types B and D
# share one entry, keyed "BD"; the others are keyed by label.  ``notes``
# record the prose inconsistencies that the derivation resolves; they are
# reported, never silently overridden.
PRINTED_WEDGE2: dict[str, dict] = {
    "BD": {
        "pieces": [({1: 2, 4: 2}, -2), ({3: 2}, -1), ({}, 1)],
        "notes": [
            "printed intro takes wedge^2 E_{l1+l3} but the displayed summand "
            "uses 2*l4; the stripping computation is the oracle"
        ],
    },
    "E6": {"pieces": [({2: -1, 3: 1, 5: 1}, 0), ({}, 1)], "notes": []},
    "E7": {"pieces": [({1: -1, 4: 1}, 0), ({}, 1)], "notes": []},
    "E8": {
        "pieces": [({1: -1, 6: 1}, 0), ({}, 1)],
        "notes": [
            "printed weight references node 1 although the adjoint node of "
            "E8 is 8; suspected typo, recorded as a disagreement"
        ],
    },
    "F4": {
        "pieces": [({1: -1, 3: 2}, 0), ({}, 1)],
        "notes": [
            "D^vee is printed both as E_{-2l1+l2} and E_{-2l1+l3} in "
            "consecutive lines; derived from the highest root"
        ],
    },
    "G2": {
        "pieces": [({1: 4, 2: -1}, 0), ({}, 1)],
        "notes": [
            "prose says O_X(1) corresponds to l1 but the derived contact "
            "weight is l2; the displayed computation matches l2"
        ],
    },
}


def _printed_full_weights(ad: AdjointData, entry):
    """Instantiate printed (sparse weight, twist) pairs at this rank, or None
    when a referenced node does not exist at this rank."""
    rank = ad.datum.rank
    out = []
    for sparse, twist in entry["pieces"]:
        if any(node > rank for node in sparse):
            return None
        w = [0] * rank
        for node, coeff in sparse.items():
            w[node - 1] = coeff
        full = tuple(
            a + twist * b for a, b in zip(w, ad.lambda0)
        )
        out.append(full)
    return sorted(out)


def compare_with_printed(ad: AdjointData, dec: Decomposition) -> dict:
    """Compare a computed wedge^2 D^vee(2) with the printed decomposition."""
    key = "BD" if ad.datum.letter in ("B", "D") else ad.label
    entry = PRINTED_WEDGE2.get(key)
    if entry is None:
        return {"flag": "no-printed-data", "notes": []}
    printed = _printed_full_weights(ad, entry)
    computed = sorted(
        p.full_weight(ad.lambda0) for p in dec.pieces for _ in range(p.mult)
    )
    if printed is None:
        return {
            "flag": "disagree",
            "notes": entry["notes"]
            + [f"printed weights reference nodes beyond rank {ad.datum.rank}"],
            "computed": [list(w) for w in computed],
        }
    flag = "agree" if printed == computed else "disagree"
    return {
        "flag": flag,
        "notes": list(entry["notes"]),
        "printed": [list(w) for w in printed],
        "computed": [list(w) for w in computed],
    }


def section4_types(max_classical_rank: int = 7):
    """The supported Picard-one types at desk scale."""
    types = [("B", r) for r in range(3, max_classical_rank + 1)]
    types += [("D", r) for r in range(4, max_classical_rank + 1)]
    types += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    return types


def section4_row(
    letter: str, rank: int, compare_paper: bool = False, max_classical_rank: int = 10
) -> dict:
    """One row of the per-type report: contact data, wedge^2 D^vee(2) pieces,
    and the h^0(Omega^2(1)), h^0(Omega^2(2)) conclusions.  Classical ranks
    up to max(``max_classical_rank``, 10) are accepted."""
    ad = adjoint_data(letter, rank, max(max_classical_rank, 10))
    dec = wedge2_Ddual_twisted(ad, 2)
    row = {
        "type": ad.label,
        "dim_X": ad.dim_X,
        "m": ad.m,
        "index": ad.index,
        "dim_g": dim_g(ad.datum),
        "h0_O1": weyl_dim(ad.datum, ad.lambda0),
        "lambda0": list(ad.lambda0),
        "D_weight": list(ad.D_weight),
        "Ddual_weight": list(ad.Ddual_weight),
        "wedge2_Ddual_2": dec.to_json(),
        "h0_omega2_1": h0_omega2(ad, 1).to_json(),
        "h0_omega2_2": h0_omega2(ad, 2).to_json(),
    }
    if compare_paper:
        row["comparison"] = compare_with_printed(ad, dec)
    return row


def section4_table(max_classical_rank: int = 7, compare_paper: bool = False):
    """Rows for every supported type; independent rows, deterministic order."""
    return [
        section4_row(letter, rank, compare_paper, max_classical_rank)
        for letter, rank in section4_types(max_classical_rank)
    ]
