"""Maximal-parabolic combinatorics: Levi diagram by marked-node deletion,
bundle-weight tests, branching to (Levi x center), and nilradical counting.

Only maximal parabolics (a single marked node) are supported: every variety
in scope is G/P(alpha) for one marked simple root.  Each Levi component is
identified by a search for the lexicographically first ordering of its nodes
whose induced Cartan matrix is the Bourbaki matrix of a type of its rank, so
node maps preserve edge multiplicities and arrow orientations by
construction.  No library computation uses the identification: the Levi is
its node set, ``MarkedDatum.levi_nodes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .rootsystem import _VALID_RANKS, RootDatum, Weight, _cartan_matrix, build_datum


@dataclass(frozen=True)
class MarkedDatum:
    """An ambient simple type with exactly one marked Dynkin node (1-indexed)."""

    ambient: RootDatum
    marked_node: int

    def __post_init__(self):
        node = self.marked_node
        if type(node) is not int or not 1 <= node <= self.ambient.rank:
            raise IndexError(f"marked node {node!r} out of range 1..{self.ambient.rank}")

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


@lru_cache(maxsize=None)
def _bourbaki_targets(r):
    """(letter, sorted degrees, steps) per simple type of rank r: steps[k] is
    local node k's degree and its entries (C[k][j], C[j][k]) for each j < k."""
    targets = []
    for letter, valid in _VALID_RANKS.items():
        if valid(r):
            c = _cartan_matrix(letter, r)
            steps = [(r - c[k].count(0) - 1, [(c[k][j], c[j][k]) for j in range(k)])
                     for k in range(r)]
            targets.append((letter, sorted(d for d, _ in steps), steps))
    return targets


def _lex_first_ordering(links, degree, steps):
    """Lexicographically first ordering of the ascending nodes of ``links``
    ({i: {j: (C[i][j], C[j][i])}}) that follows ``steps``, or None: each
    local node in turn takes the smallest free node of its degree whose
    entries with every placed node match, backtracking on a dead end."""
    placed = []

    def place(k):
        if k == len(steps):
            return True
        deg, back = steps[k]
        for node, row in links.items():
            if node in placed or degree[node] != deg:
                continue
            if [row[p] for p in placed] == back:
                placed.append(node)
                if place(k + 1):
                    return True
                placed.pop()
        return False

    return tuple(placed) if place(0) else None


def _match_component(ambient: RootDatum, comp) -> LeviComponent:
    c = ambient.cartan
    links = {i: {j: (c[i - 1][j - 1], c[j - 1][i - 1]) for j in comp} for i in comp}
    degree = {i: sum(a != 0 for a, _ in row.values()) - 1 for i, row in links.items()}
    shape = sorted(degree.values())
    matches = []
    for letter, degrees, steps in _bourbaki_targets(len(comp)):
        if degrees == shape:
            ordering = _lex_first_ordering(links, degree, steps)
            if ordering is not None:
                matches.append((ordering, letter))
    if not matches:
        raise ValueError(f"could not identify the Dynkin type of nodes {comp}")
    ordering, letter = min(matches)
    datum = build_datum(letter, len(comp), max_classical_rank=max(len(comp), 10))
    return LeviComponent(datum=datum, ambient_nodes=ordering)


def levi_diagram(md: MarkedDatum) -> LeviDiagram:
    """Simple factors of the Levi of P(alpha_marked), with their node maps.

    Components are ordered by smallest ambient node; each component's local
    numbering is the lexicographically smallest ambient ordering whose induced
    Cartan matrix equals the Bourbaki matrix of its type.  Where two types fit
    (B2 and C2 on one double edge), the smaller (ordering, letter) wins.  Only
    the matched type's root datum is built, and no diagram is cached.
    """
    comps = _connected_components(md.ambient.cartan, md.levi_nodes)
    return LeviDiagram(
        components=tuple(_match_component(md.ambient, c) for c in comps)
    )


def is_bundle_weight(md: MarkedDatum, w: Weight) -> bool:
    """True iff w is dominant on every unmarked node (the marked coordinate is
    the twist direction and is unconstrained): two slices, and a 0 for rank 1."""
    md.ambient.check_weight(w)
    k = md.marked_node - 1
    return min((0, *w[:k], *w[k + 1:])) >= 0


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
    return md.ambient.nilradical_sizes[md.marked_node - 1]
