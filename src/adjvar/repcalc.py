"""Finite-dimensional representation arithmetic over exact integers.

Provides the Weyl dimension formula, full weight systems with Freudenthal
multiplicities, and decomposition of exterior/symmetric squares of irreducible
parabolic representations by the Brauer-Klimyk formula over the Levi Weyl
group W_L (Humphreys, Introduction to Lie Algebras and Representation Theory,
section 24; Klimyk 1968): only the weight system of V_lam itself is needed,
each constituent is read off a signed dot-reduction by
:func:`adjvar.weylgroup.dot_classify` restricted to the nodes of W_L, its
height comes from the weight system's offsets and the reduction's drop, and
no constituent weight system is ever built.

For squares of bundle weights the whole computation is done in the *ambient*
weight lattice: the weights of an irreducible P-representation are obtained by
subtracting unmarked simple roots from its highest weight, and W_L only
reflects at unmarked nodes, so the marked-node coordinate of every constituent
(and hence its twist) falls out of the bookkeeping with no separate
first-Chern-class matching step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .parabolic import MarkedDatum, branch_to_levi, levi_diagram
from .rootsystem import RootDatum, Weight, highest_root, saturate
from .weylgroup import dot_classify

DEFAULT_DIM_CEILING = 5000

EXTERIOR = "exterior"
SYMMETRIC = "symmetric"


class DimensionCeilingError(RuntimeError):
    """A requested representation exceeds the configured dimension ceiling."""


class InternalConsistencyError(ArithmeticError):
    """Weight arithmetic produced an impossible state (negative multiplicity)."""


@dataclass(frozen=True)
class WeightSystem:
    """Finite weight multiset of an irreducible representation.

    ``entries`` maps each weight (fundamental coordinates) to its positive
    multiplicity; ``offsets`` records lambda - mu in simple-root coordinates.
    """

    highest: Weight
    entries: dict
    offsets: dict
    total_dim: int


@dataclass(frozen=True)
class Piece:
    """One summand E_{weight}(twist), i.e. E_{weight + twist*lambda0}."""

    weight: Weight
    twist: int
    mult: int
    dim: int

    def full_weight(self, lambda0: Weight) -> Weight:
        return tuple(w + self.twist * l for w, l in zip(self.weight, lambda0))

    def to_json(self) -> dict:
        return {
            "weight": list(self.weight),
            "twist": self.twist,
            "mult": self.mult,
            "dim": self.dim,
        }


@dataclass(frozen=True)
class Decomposition:
    pieces: tuple

    @property
    def total_dim(self) -> int:
        return sum(p.mult * p.dim for p in self.pieces)

    def to_json(self) -> dict:
        return {"pieces": [p.to_json() for p in self.pieces]}


def weyl_dim(datum: RootDatum, lam: Weight) -> int:
    """Exact dimension of the irreducible with dominant highest weight lam."""
    datum.check_weight(lam)
    if any(a < 0 for a in lam):
        raise ValueError(f"{lam} is not dominant")
    dd = datum.root_half_norms
    num = 1
    den = 1
    for alpha in datum.positive_roots:
        num *= sum(c * dd[j] * (lam[j] + 1) for j, c in enumerate(alpha))
        den *= sum(c * dd[j] for j, c in enumerate(alpha))
    if num % den:
        raise ArithmeticError("Weyl dimension formula gave a non-integer")
    return num // den


def weight_system(
    datum: RootDatum, lam: Weight, ceiling: int = DEFAULT_DIM_CEILING
) -> WeightSystem:
    """Full weight multiset of V_lam with Freudenthal multiplicities.

    The weight set is the saturation of {lam} (:func:`adjvar.rootsystem.saturate`),
    with offsets lam - mu.  Multiplicities then come from Freudenthal's
    recursion, evaluated level by level (level = height of lam - mu) with
    exact integer arithmetic:

        ((lam+delta, lam+delta) - (mu+delta, mu+delta)) m_mu
            = 2 sum_{alpha>0} sum_{k>=1} m_{mu+k alpha} (mu + k alpha, alpha)
    """
    dim = weyl_dim(datum, lam)
    if dim > ceiling:
        raise DimensionCeilingError(
            f"dim V_{lam} = {dim} exceeds the ceiling {ceiling}"
        )
    rank = datum.rank
    offsets = saturate(datum.cartan, {lam: (0,) * rank}, dim)

    dd = datum.root_half_norms
    pos = [
        (alpha, datum.root_weight(alpha), 2 * datum.root_norm(alpha))
        for alpha in datum.positive_roots
    ]
    mult: dict[Weight, int] = {}
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
        den = sum(
            off[j] * dd[j] * (lam[j] + w[j] + 2) for j in range(rank)
        )
        if den <= 0 or (2 * num) % den:
            raise InternalConsistencyError(
                f"Freudenthal recursion failed at weight {w}"
            )
        mult[w] = (2 * num) // den

    total = sum(mult.values())
    if total != dim:
        raise InternalConsistencyError(
            f"weight multiplicities sum to {total}, Weyl dimension is {dim}"
        )
    return WeightSystem(highest=lam, entries=mult, offsets=offsets, total_dim=dim)


def _square_pieces(datum: RootDatum, nodes, ws: WeightSystem, kind: str, dim):
    """Brauer-Klimyk decomposition of the exterior/symmetric square of the
    irreducible V_lam with weight system ``ws`` (lam = ``ws.highest``), over
    the Weyl group W_L generated by the simple reflections at ``nodes``:

        S^2 / wedge^2 V_lam = 1/2 sum_{mu in wt(lam)} m(mu) (chi_{lam+mu} +- chi_{2 mu})

    chi_w is the signed dot-reduction of w over W_L by :func:`dot_classify`:
    0 when singular, else (-1)^p [top].  The height of 2 lam - top is that of
    2 lam - w, i.e. of lam - mu (read off ``ws.offsets``) or twice it, less
    the drop of the reduction.  Returns (height, weight, mult, dim) tuples.
    """
    if kind not in (EXTERIOR, SYMMETRIC):
        raise ValueError(f"kind must be {EXTERIOR!r} or {SYMMETRIC!r}")
    sign = -1 if kind == EXTERIOR else 1
    lam = ws.highest
    coeff: dict = {}
    heights: dict = {}
    for mu, m in ws.entries.items():
        height = sum(ws.offsets[mu])
        terms = (
            (tuple(a + b for a, b in zip(lam, mu)), height, m),
            (tuple(2 * a for a in mu), 2 * height, sign * m),
        )
        for w, h, c in terms:
            res = dot_classify(datum, w, nodes)
            if res.is_regular:
                top = res.dominant_weight
                coeff[top] = coeff.get(top, 0) + (-c if res.index_p % 2 else c)
                heights[top] = h - res.drop

    pieces = []
    for w, c in coeff.items():
        if c < 0 or c % 2:
            raise InternalConsistencyError(
                f"Brauer-Klimyk coefficient {c} at {w} is not a non-negative even number"
            )
        if c:
            pieces.append((heights[w], w, c // 2, dim(w)))
    d = ws.total_dim
    expected = d * (d - 1) // 2 if kind == EXTERIOR else d * (d + 1) // 2
    total = sum(mult * size for _, _, mult, size in pieces)
    if total != expected:
        raise InternalConsistencyError(
            f"square decomposition dims sum to {total}, expected {expected}"
        )
    return pieces


def square_decompose_simple(
    datum: RootDatum, lam: Weight, kind: str, ceiling: int = DEFAULT_DIM_CEILING
):
    """Decompose the exterior/symmetric square of V_lam for a single simple
    type; returns a list of Piece with twist = 0.

    Brauer-Klimyk over the whole Weyl group, from the weight system of V_lam
    alone.  Pieces are ordered by height below 2 lam, then by weight.
    """
    ws = weight_system(datum, lam, ceiling)
    pieces = _square_pieces(datum, None, ws, kind, lambda w: weyl_dim(datum, w))
    return [
        Piece(weight=w, twist=0, mult=mult, dim=size)
        for _, w, mult, size in sorted(pieces)
    ]


def bundle_rank(md: MarkedDatum, w: Weight) -> int:
    """Rank of the irreducible bundle E_w: product of Levi factor dimensions."""
    comp_weights, _ = branch_to_levi(md, w)
    levi = levi_diagram(md)
    rank = 1
    for comp, cw in zip(levi.components, comp_weights):
        rank *= weyl_dim(comp.datum, cw)
    return rank


def ambient_weight_system(
    md: MarkedDatum, lam: Weight, ceiling: int = DEFAULT_DIM_CEILING
) -> WeightSystem:
    """Weight system of the irreducible P-representation E_lam in ambient
    fundamental coordinates (full Cartan of g).

    Its weights are lam minus non-negative combinations of *unmarked* simple
    roots, recorded in ``offsets`` in ambient simple-root coordinates;
    multiplicities come from the product of the Levi factor weight systems.
    """
    comp_weights, _center = branch_to_levi(md, lam)
    levi = levi_diagram(md)
    ambient = md.ambient
    n = ambient.rank

    total = 1
    systems = []
    for comp, cw in zip(levi.components, comp_weights):
        ws = weight_system(comp.datum, cw, ceiling)
        total *= ws.total_dim
        if total > ceiling:
            raise DimensionCeilingError(
                f"product dimension exceeds the ceiling {ceiling}"
            )
        systems.append((comp, ws))

    lifted = {(0,) * n: 1}  # lam - mu in ambient simple-root coordinates
    for comp, ws in systems:
        nxt = {}
        for off, m in lifted.items():
            for u, m2 in ws.entries.items():
                new = list(off)
                for node, k in zip(comp.ambient_nodes, ws.offsets[u]):
                    new[node - 1] = k
                nxt[tuple(new)] = m * m2
        lifted = nxt
    entries: dict = {}
    offsets: dict = {}
    for off, m in lifted.items():
        mu = tuple(a - b for a, b in zip(lam, ambient.root_weight(off)))
        entries[mu] = m
        offsets[mu] = off
    if sum(entries.values()) != total:
        raise InternalConsistencyError("ambient weight lift lost multiplicity")
    return WeightSystem(highest=lam, entries=entries, offsets=offsets, total_dim=total)


def _fold_twist(md: MarkedDatum, w: Weight, lambda0: Weight):
    """Canonical (weight, twist) with the marked coordinate moved into the
    twist when the weight is an exact multiple of lambda0 along that node."""
    k = md.marked_node - 1
    if w[k] % lambda0[k] == 0:
        t = w[k] // lambda0[k]
        reduced = tuple(a - t * b for a, b in zip(w, lambda0))
        return reduced, t
    return w, 0


def square_decompose(
    md: MarkedDatum, lam: Weight, kind: str, ceiling: int = DEFAULT_DIM_CEILING
) -> Decomposition:
    """Decompose the exterior/symmetric square of the bundle E_lam into
    irreducible pieces E_{w}(t), twists read off the marked-node bookkeeping.

    Brauer-Klimyk over the Levi Weyl group W_L (reflections at the unmarked
    nodes), from the ambient weights of E_lam alone.  Pieces are ordered by
    height below 2 lam, then by ambient weight descending.
    """
    ambient = md.ambient
    lambda0 = highest_root(ambient)
    nodes = [i for i in range(1, ambient.rank + 1) if i != md.marked_node]
    pieces = _square_pieces(
        ambient,
        nodes,
        ambient_weight_system(md, lam, ceiling),
        kind,
        lambda w: bundle_rank(md, w),
    )
    pieces.sort(key=lambda p: (p[0], tuple(-a for a in p[1])))
    return Decomposition(
        pieces=tuple(
            Piece(*_fold_twist(md, w, lambda0), mult=mult, dim=size)
            for _, w, mult, size in pieces
        )
    )
