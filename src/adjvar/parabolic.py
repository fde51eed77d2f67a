"""Maximal-parabolic combinatorics: Levi diagram by marked-node deletion,
bundle-weight tests, branching to (Levi x center), and nilradical counting.

Only maximal parabolics (a single marked node) are supported: every variety
in scope is G/P(alpha) for one marked simple root.  The Levi components are
identified by exhaustive matching of the induced Cartan matrix against the
Bourbaki data of each candidate type, so node maps provably preserve edge
multiplicities and arrow orientations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .rootsystem import InvalidTypeError, RootDatum, Weight, build_datum


@dataclass(frozen=True)
class MarkedDatum:
    """An ambient simple type with exactly one marked Dynkin node (1-indexed)."""

    ambient: RootDatum
    marked_node: int

    def __post_init__(self):
        if not 1 <= self.marked_node <= self.ambient.rank:
            raise IndexError(
                f"marked node {self.marked_node} out of range 1..{self.ambient.rank}"
            )

    @property
    def levi_nodes(self) -> tuple[int, ...]:
        """The unmarked nodes: the simple roots of the Levi L."""
        return tuple(
            i for i in range(1, self.ambient.rank + 1) if i != self.marked_node
        )


@dataclass(frozen=True)
class LeviComponent:
    """One simple factor of the semisimple Levi part.

    ``ambient_nodes[k]`` is the ambient node playing local Bourbaki node k+1.
    """

    datum: RootDatum
    ambient_nodes: tuple[int, ...]


@dataclass(frozen=True)
class LeviDiagram:
    components: tuple[LeviComponent, ...]

    def to_json(self) -> dict:
        return {
            "components": [
                {
                    "type": c.datum.letter,
                    "rank": c.datum.rank,
                    "ambient_nodes": list(c.ambient_nodes),
                }
                for c in self.components
            ]
        }


def _connected_components(cartan, nodes):
    remaining = set(nodes)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in list(remaining):
                if j not in comp and cartan[i - 1][j - 1] != 0:
                    comp.add(j)
                    frontier.append(j)
        remaining -= comp
        comps.append(sorted(comp))
    return comps


def _candidate_orderings(cartan, comp):
    """All node orderings compatible with the shape of the sub-diagram."""
    r = len(comp)
    if r == 1:
        return [tuple(comp)]
    adj = {
        i: [j for j in comp if j != i and cartan[i - 1][j - 1] != 0] for i in comp
    }
    degrees = {i: len(adj[i]) for i in comp}
    branch = [i for i in comp if degrees[i] == 3]
    if any(degrees[i] > 3 for i in comp):
        raise ValueError("node of degree > 3 in a Dynkin diagram")

    def walk(start, first):
        path = [start, first]
        while True:
            nxt = [j for j in adj[path[-1]] if j != path[-2]]
            if not nxt:
                return path
            if len(nxt) > 1:
                raise ValueError("unexpected branch while walking an arm")
            path.append(nxt[0])

    if not branch:
        ends = sorted(i for i in comp if degrees[i] == 1)
        return [tuple(walk(e, adj[e][0])) for e in ends]

    b = branch[0]
    arms = [walk(b, first)[1:] for first in adj[b]]  # each from near to far
    orderings = []
    for arm1, arm2, arm3 in permutations(arms):
        # D shape: arm1 is the long tail (locals 1..r-3 far to near),
        # arm2/arm3 the two fork nodes (locals r-1, r)
        if len(arm2) == 1 and len(arm3) == 1 and len(arm1) == r - 3:
            orderings.append(tuple(arm1[::-1] + [b] + arm2 + arm3))
        # E shape: arm2 the length-1 arm (local 2), arm1 of length 2
        # (locals 3,1 near to far), arm3 the tail (locals 5,6,...)
        if len(arm2) == 1 and len(arm1) == 2 and len(arm3) == r - 4 and r >= 6:
            orderings.append(
                tuple([arm1[1], arm2[0], arm1[0], b] + arm3)
            )
    return orderings


def _match_component(ambient: RootDatum, comp) -> LeviComponent:
    r = len(comp)
    candidates = []
    for letter in "ABCDEFG":
        try:
            candidates.append(build_datum(letter, r, max_classical_rank=max(r, 10)))
        except InvalidTypeError:
            continue  # no simple type of this letter has rank r

    matches = []
    for ordering in _candidate_orderings(ambient.cartan, comp):
        for datum in candidates:
            ok = all(
                ambient.cartan[ordering[a] - 1][ordering[b] - 1] == datum.cartan[a][b]
                for a in range(r)
                for b in range(r)
            )
            if ok:
                matches.append((ordering, datum.letter, datum))
    if not matches:
        raise ValueError(f"could not identify the Dynkin type of nodes {comp}")
    ordering, _, datum = min(matches, key=lambda m: (m[0], m[1]))
    return LeviComponent(datum=datum, ambient_nodes=ordering)


@lru_cache(maxsize=None)
def _levi_diagram_cached(letter, rank, marked):
    ambient = build_datum(letter, rank, max_classical_rank=max(rank, 10))
    nodes = [i for i in range(1, rank + 1) if i != marked]
    comps = _connected_components(ambient.cartan, nodes)
    return LeviDiagram(
        components=tuple(_match_component(ambient, c) for c in comps)
    )


def levi_diagram(md: MarkedDatum) -> LeviDiagram:
    """Simple factors of the Levi of P(alpha_marked), with their node maps.

    Components are ordered by smallest ambient node; each component's local
    numbering is the lexicographically smallest ambient ordering whose induced
    Cartan matrix equals the Bourbaki matrix of its type.
    """
    return _levi_diagram_cached(md.ambient.letter, md.ambient.rank, md.marked_node)


def is_bundle_weight(md: MarkedDatum, w: Weight) -> bool:
    """True iff w is dominant on every unmarked node (the marked coordinate is
    the twist direction and is unconstrained)."""
    md.ambient.check_weight(w)
    return all(
        w[i] >= 0 for i in range(md.ambient.rank) if i != md.marked_node - 1
    )


def branch_to_levi(md: MarkedDatum, w: Weight):
    """Restrict a bundle weight to (per-component Levi weights, center coord)."""
    if not is_bundle_weight(md, w):
        raise ValueError(f"{w} is not a bundle weight at node {md.marked_node}")
    levi = levi_diagram(md)
    comp_weights = tuple(
        tuple(w[node - 1] for node in comp.ambient_nodes)
        for comp in levi.components
    )
    return comp_weights, w[md.marked_node - 1]


def lift_to_ambient(md: MarkedDatum, comp_weights, marked_value: int) -> Weight:
    """Inverse of branch_to_levi: place Levi coordinates at their ambient nodes."""
    levi = levi_diagram(md)
    out = [0] * md.ambient.rank
    out[md.marked_node - 1] = marked_value
    for comp, cw in zip(levi.components, comp_weights):
        for local, node in enumerate(comp.ambient_nodes):
            out[node - 1] = cw[local]
    return tuple(out)


def nilradical_size(md: MarkedDatum) -> int:
    """Number of positive roots with nonzero marked coefficient = dim G/P."""
    k = md.marked_node - 1
    return sum(1 for alpha in md.ambient.positive_roots if alpha[k] != 0)
