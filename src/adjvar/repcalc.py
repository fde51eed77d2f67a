"""Finite-dimensional representation arithmetic over exact integers.

Provides the Weyl dimension formula, full weight systems with Freudenthal
multiplicities, and decomposition of exterior/symmetric squares of irreducible
parabolic representations by the Brauer-Klimyk formula over the Levi Weyl
group W_L (Humphreys, Introduction to Lie Algebras and Representation Theory,
section 24; Klimyk 1968): only the weight system of V_lam itself is needed,
each constituent is read off a signed dot-reduction, the chamber reduction
of :func:`adjvar.weylgroup.dot_classify` restricted to the nodes of W_L, its
height comes from the weight system's offsets and the reduction's drop, and
no constituent weight system is ever built.

A Levi L is its node set throughout: :func:`weyl_dim` and
:func:`weight_system` take the nodes of L and work in the *ambient* weight
lattice of G, over the positive roots supported on those nodes, so no Levi
factor's type is ever identified.  The weights of an irreducible
P-representation E_lam are lam minus unmarked simple roots, and W_L only
reflects at unmarked nodes, so the marked-node coordinate of every
constituent of its square (and hence its twist) falls out of the
bookkeeping with no separate first-Chern-class matching step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import add

from .parabolic import MarkedDatum, is_bundle_weight
from .rootsystem import RootDatum, Weight, highest_root, saturate
from .weylgroup import _chamber_reduce

DEFAULT_DIM_CEILING = 5000

EXTERIOR = "exterior"
SYMMETRIC = "symmetric"


class DimensionCeilingError(ValueError):
    """A requested representation is larger than ``DEFAULT_DIM_CEILING``."""


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


def weyl_dim(datum: RootDatum, lam: Weight, nodes=None) -> int:
    """Exact dimension of the irreducible with highest weight lam, dominant
    on ``nodes`` (1-indexed, any iterable, in any order; all nodes, i.e. G
    itself, by default).

    Weyl's product over the positive roots supported on ``nodes``, the roots
    of the Levi L with those simple roots, gives the dimension of the
    L-module of highest weight lam (Humphreys, section 24.3): every node i of
    L has <delta, alpha_i^vee> = 1 for the delta of G and of L alike, and the
    form of G restricted to a simple factor of L is a multiple of the
    factor's own, so the product is that of the factors' formulas.  The
    datum's per-node-set table (:meth:`RootDatum.weyl_table`) writes each
    root as parent + alpha_j, so each factor (lam + delta, alpha) is its
    parent's factor plus d_j (lam_j + 1); the constant denominator prod
    (delta, alpha) comes with it.
    """
    datum.check_weight(lam)
    coords = lam
    if nodes is not None:
        nodes = datum.check_nodes(nodes)
        coords = [lam[i - 1] for i in nodes]
    if any(a < 0 for a in coords):
        raise ValueError(f"{lam} is not dominant")
    return _weyl_product(datum, lam, nodes)


def _weyl_product(datum: RootDatum, lam: Weight, nodes) -> int:
    """The body of :func:`weyl_dim`, unchecked: ``lam`` must have ``rank``
    integer coordinates and be dominant on ``nodes``, and ``nodes`` (None or
    a collection) must lie in 1..rank.  The step d_j (lam_j + 1) is formed
    once per node, so each root costs one addition."""
    roots, den, _, _ = datum.weyl_table(nodes)
    shifted = [d * (a + 1) for d, a in zip(datum.root_half_norms, lam)]
    factors = [0]  # the zero root's slot, then (lam + delta, alpha) per root
    for p, j, _ in roots:
        factors.append(factors[p] + shifted[j])
    factors[0] = 1
    num = prod(factors)
    if num % den:
        raise ArithmeticError("Weyl dimension formula gave a non-integer")
    return num // den


def weight_system(datum: RootDatum, lam: Weight, nodes=None) -> WeightSystem:
    """Full weight multiset of the irreducible of highest weight lam over the
    Levi L with simple roots at ``nodes`` (1-indexed, any iterable, in any
    order; all nodes, i.e. V_lam of G itself, by default), with Freudenthal
    multiplicities, in the ambient fundamental coordinates of ``datum``.

    The weight set is the saturation of {lam} over ``nodes``
    (:func:`adjvar.rootsystem.saturate`), with offsets lam - mu in ambient
    simple-root coordinates.  Weights are visited level by level (level =
    height of lam - mu).  Multiplicities are W_L-invariant (Humphreys,
    Introduction to Lie Algebras and Representation Theory, sections 21.2
    and 22.3; Moody-Patera, Bull. AMS 7, 1982), so Freudenthal's recursion
    runs at the weights dominant on ``nodes`` only, over the positive roots
    alpha supported on them, with exact integer arithmetic:

        ((lam+delta, lam+delta) - (mu+delta, mu+delta)) m_mu
            = 2 sum_{alpha>0} sum_{k>=1} m_{mu+k alpha} (mu + k alpha, alpha)

    The delta of G serves for L, since <delta, alpha_i^vee> = 1 at every
    node i of L.  The roots, their weights and norms come from the datum's
    per-node-set table (:meth:`RootDatum.weyl_table`), which :func:`weyl_dim`
    shares: each (mu, alpha) is its parent's plus d_j mu_j.  A weight mu with
    a negative coordinate mu_i at a node i of ``nodes`` takes the
    multiplicity of s_i(mu) = mu - mu_i alpha_i, a weight of lower level and
    so already weighed; by induction that is the multiplicity of mu's
    W_L-conjugate dominant on ``nodes``.
    """
    if nodes is not None:
        nodes = tuple(nodes)
    dim = weyl_dim(datum, lam, nodes)
    if dim > DEFAULT_DIM_CEILING:
        raise DimensionCeilingError(
            f"dim V_{lam} = {dim} exceeds the ceiling {DEFAULT_DIM_CEILING}"
        )
    rank = datum.rank
    cartan = datum.cartan
    offsets = saturate(cartan, {lam: (0,) * rank}, dim, nodes)
    steps = range(rank) if nodes is None else [i - 1 for i in nodes]

    dd = datum.root_half_norms
    roots, _, weights, norms = datum.weyl_table(nodes)
    pos = list(zip(roots, weights, norms))
    mult: dict[Weight, int] = {}
    for w, off in sorted(offsets.items(), key=lambda kv: sum(kv[1])):
        i = next((i for i in steps if w[i] < 0), None)
        if i is not None:
            a = w[i]
            up = tuple(x - a * y for x, y in zip(w, cartan[i]))
            if up not in mult:
                raise InternalConsistencyError(
                    f"reflection of weight {w} at node {i + 1} is not a higher weight"
                )
            mult[w] = mult[up]
            continue
        if w == lam:
            mult[w] = 1
            continue
        num = 0
        pairings = [0]  # (w, alpha) per root, after the zero root's
        for (p, j, dj), aw, aa in pos:
            base = pairings[p] + dj * w[j]
            pairings.append(base)
            up = tuple(map(add, w, aw))
            while up in mult:
                base += aa  # (w + k alpha, alpha)
                num += mult[up] * base
                up = tuple(map(add, up, aw))
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


def _square_pieces(datum: RootDatum, nodes, ws: WeightSystem, kind: str):
    """Brauer-Klimyk decomposition of the exterior/symmetric square of the
    irreducible V_lam with weight system ``ws`` (lam = ``ws.highest``), over
    the Weyl group W_L generated by the simple reflections at ``nodes``:

        S^2 / wedge^2 V_lam = 1/2 sum_{mu in wt(lam)} m(mu) (chi_{lam+mu} +- chi_{2 mu})

    chi_w is the signed dot-reduction of w over W_L, as by
    :func:`adjvar.weylgroup.dot_classify`: 0 when singular, else (-1)^p
    [top].  The height of 2 lam - top is that of 2 lam - w, i.e. of lam - mu
    (read off ``ws.offsets``) or twice it, less the drop of the reduction.
    Returns (height, weight, mult, dim) tuples, dim that of the
    W_L-irreducible as by :func:`weyl_dim` over ``nodes``.  The weights of
    ``ws`` are checked already and ``nodes`` (None or a collection in
    1..rank) comes from a checked caller, so the reduction and Weyl's
    product run unchecked.
    """
    if kind not in (EXTERIOR, SYMMETRIC):
        raise ValueError(f"kind must be {EXTERIOR!r} or {SYMMETRIC!r}")
    sign = -1 if kind == EXTERIOR else 1
    lam = ws.highest
    offsets = ws.offsets
    steps = range(datum.rank) if nodes is None else [i - 1 for i in nodes]
    coeff: dict = {}
    heights: dict = {}
    for mu, m in ws.entries.items():
        height = sum(offsets[mu])
        terms = (
            (tuple(map(add, lam, mu)), height, m),
            (tuple(map(add, mu, mu)), 2 * height, sign * m),
        )
        for w, h, c in terms:
            out = _chamber_reduce(datum, w, steps)
            if out is not None:
                p, top, drop = out
                coeff[top] = coeff.get(top, 0) + (-c if p % 2 else c)
                heights[top] = h - drop

    pieces = []
    for w, c in coeff.items():
        if c < 0 or c % 2:
            raise InternalConsistencyError(
                f"Brauer-Klimyk coefficient {c} at {w} is not a non-negative even number"
            )
        if c:
            pieces.append((heights[w], w, c // 2, _weyl_product(datum, w, nodes)))
    d = ws.total_dim
    expected = d * (d - 1) // 2 if kind == EXTERIOR else d * (d + 1) // 2
    total = sum(mult * size for _, _, mult, size in pieces)
    if total != expected:
        raise InternalConsistencyError(
            f"square decomposition dims sum to {total}, expected {expected}"
        )
    return pieces


def square_decompose_simple(datum: RootDatum, lam: Weight, kind: str):
    """Decompose the exterior/symmetric square of V_lam for a single simple
    type; returns a list of Piece with twist = 0.

    Brauer-Klimyk over the whole Weyl group, from the weight system of V_lam
    alone.  Pieces are ordered by height below 2 lam, then by weight.
    """
    ws = weight_system(datum, lam)
    pieces = _square_pieces(datum, None, ws, kind)
    return [
        Piece(weight=w, twist=0, mult=mult, dim=size)
        for _, w, mult, size in sorted(pieces)
    ]


def bundle_rank(md: MarkedDatum, w: Weight) -> int:
    """Rank of the irreducible bundle E_w: Weyl's formula over the Levi."""
    if not is_bundle_weight(md, w):
        raise ValueError(f"{w} is not a bundle weight at node {md.marked_node}")
    return weyl_dim(md.ambient, w, md.levi_nodes)


def ambient_weight_system(md: MarkedDatum, lam: Weight) -> WeightSystem:
    """Weight system of the irreducible P-representation E_lam in ambient
    fundamental coordinates (full Cartan of g): :func:`weight_system` over
    the Levi nodes.

    Its weights are lam minus non-negative combinations of *unmarked* simple
    roots, recorded in ``offsets`` in ambient simple-root coordinates.
    """
    if not is_bundle_weight(md, lam):
        raise ValueError(f"{lam} is not a bundle weight at node {md.marked_node}")
    return weight_system(md.ambient, lam, md.levi_nodes)


def _fold_twist(md: MarkedDatum, w: Weight, lambda0: Weight):
    """Canonical (weight, twist) with the marked coordinate moved into the
    twist when the weight is an exact multiple of lambda0 along that node."""
    k = md.marked_node - 1
    if w[k] % lambda0[k] == 0:
        t = w[k] // lambda0[k]
        reduced = tuple(a - t * b for a, b in zip(w, lambda0))
        return reduced, t
    return w, 0


def square_decompose(md: MarkedDatum, lam: Weight, kind: str) -> Decomposition:
    """Decompose the exterior/symmetric square of the bundle E_lam into
    irreducible pieces E_{w}(t), twists read off the marked-node bookkeeping.

    Brauer-Klimyk over the Levi Weyl group W_L (reflections at the unmarked
    nodes), from the ambient weights of E_lam alone.  Pieces are ordered by
    height below 2 lam, then by ambient weight descending.
    """
    return _square_decomposition(md, ambient_weight_system(md, lam), kind)


def _square_decomposition(
    md: MarkedDatum, ws: WeightSystem, kind: str
) -> Decomposition:
    """The body of :func:`square_decompose`, unchecked: ``ws`` must be the
    weight system of E_lam for a bundle weight lam of ``md``, with entries
    and offsets as :func:`ambient_weight_system` gives them.  A caller that
    already holds that system decomposes its square without building it
    again."""
    lambda0 = highest_root(md.ambient)
    pieces = _square_pieces(md.ambient, md.levi_nodes, ws, kind)
    pieces.sort(key=lambda p: (p[0], tuple(-a for a in p[1])))
    return Decomposition(
        pieces=tuple(
            Piece(*_fold_twist(md, w, lambda0), mult=mult, dim=size)
            for _, w, mult, size in pieces
        )
    )
