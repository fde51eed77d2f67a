"""Static root-system data for the simple Lie types A-G in Bourbaki numbering.

Node numbering (Bourbaki).  Simple roots are numbered as follows, with a
double/triple edge drawn as an arrow pointing toward the shorter root::

    A_n   1 - 2 - ... - n
    B_n   1 - 2 - ... - (n-1) => n          (alpha_n is short)
    C_n   1 - 2 - ... - (n-1) <= n          (alpha_n is long)
    D_n   1 - 2 - ... - (n-2) - (n-1)
                          |
                          n
    E_n   1 - 3 - 4 - 5 - 6 [- 7 [- 8]]
                  |
                  2
    F_4   1 - 2 => 3 - 4                    (alpha_3, alpha_4 are short)
    G_2   1 <= 2                            (triple edge; alpha_1 is short)

Conventions.  The Cartan matrix is stored with rows indexed by simple roots:
``cartan[i][j] = <alpha_i, alpha_j^vee>``, so the fundamental-weight
coordinates of the simple root ``alpha_i`` are the i-th *row* of the matrix.
This matches the printed Bourbaki tables (e.g. G2 is ``[[2,-1],[-3,2]]``).
Weights are integer vectors in the fundamental-weight basis; roots are kept in
simple-root coordinates with explicit conversion through the Cartan matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import add, sub

Weight = tuple[int, ...]
RootCoords = tuple[int, ...]

#: ranks accepted for the classical families unless the caller raises the bound
DEFAULT_MAX_CLASSICAL_RANK = 10

_VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

#: dim(g) per type, used as an internal consistency check on root generation
_DIM_FORMULA = {
    "A": lambda n: (n + 1) ** 2 - 1,
    "B": lambda n: n * (2 * n + 1),
    "C": lambda n: n * (2 * n + 1),
    "D": lambda n: n * (2 * n - 1),
    "E": lambda n: {6: 78, 7: 133, 8: 248}[n],
    "F": lambda n: 52,
    "G": lambda n: 14,
}


class InvalidTypeError(ValueError):
    """Raised for a (letter, rank) pair that is not a supported simple type."""


def _all_int(values) -> bool:
    """True iff every value is an int (bool included).  One sum instead of a
    test per value: a sum of ints is an int, and any float, Fraction or other
    number among them makes it something else or raises TypeError."""
    try:
        return type(sum(values)) is int
    except TypeError:
        return False


@dataclass(frozen=True)
class RootDatum:
    """Immutable combinatorial data of a simple Lie type.

    ``cartan[i][j] = <alpha_i, alpha_j^vee>`` (0-indexed internally, nodes are
    1-indexed in the public API).  ``symmetrizers`` are the positive integers
    d_i, proportional to the coroot half-norms, making diag(d) * cartan
    symmetric positive definite.  ``positive_roots`` are simple-root
    coordinate vectors, sorted by height then lexicographically, and
    ``positive_root_weights`` their fundamental-weight coordinates in the
    same order, walked down :attr:`root_parents`: parent + alpha_j has the
    parent's weight plus row j of the Cartan matrix.
    """

    letter: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    symmetrizers: tuple[int, ...]
    positive_roots: tuple[RootCoords, ...]
    _half_norms: tuple[int, ...] = field(init=False, repr=False, compare=False)
    positive_root_weights: tuple[Weight, ...] = field(
        init=False, repr=False, compare=False
    )
    _weyl_tables: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        big = lcm(*self.symmetrizers)
        object.__setattr__(
            self, "_half_norms", tuple(big // d for d in self.symmetrizers)
        )
        weights = [(0,) * self.rank]  # the zero root's, then one per root
        for p, j in self.root_parents:
            weights.append(tuple(map(add, weights[p], self.cartan[j])))
        object.__setattr__(self, "positive_root_weights", tuple(weights[1:]))

    @property
    def root_half_norms(self) -> tuple[int, ...]:
        """(alpha_i, alpha_i)/2 scaled to coprime integers (short roots = 1)."""
        return self._half_norms

    @cached_property
    def dynkin_neighbours(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node i (0-indexed), the pairs (j, cartan[i][j]) over the
        Dynkin neighbours j of i: the nonzero off-diagonal entries of row i.
        The simple reflection s_i changes a weight's coordinate i and these
        coordinates only."""
        return tuple(
            tuple((j, c) for j, c in enumerate(row) if c and j != i)
            for i, row in enumerate(self.cartan)
        )

    @cached_property
    def root_parents(self) -> tuple[tuple[int, int], ...]:
        """Per positive root alpha, in order, a pair (p, j) with alpha =
        parent + alpha_j (j 0-indexed), for the first j at which alpha -
        alpha_j is 0 or a positive root: p = 0 for the zero root (alpha is
        simple), else p = k + 1 for positive root k.  Roots are sorted by
        height, so the parent comes first, and its support lies in alpha's."""
        index = {alpha: k for k, alpha in enumerate(self.positive_roots, 1)}
        index[(0,) * self.rank] = 0
        parents = []
        for alpha in self.positive_roots:
            for j, c in enumerate(alpha):
                if c and (parent := alpha[:j] + (c - 1,) + alpha[j + 1 :]) in index:
                    parents.append((index[parent], j))
                    break
            else:
                raise ArithmeticError(f"positive root {alpha} has no parent")
        return tuple(parents)

    @cached_property
    def nilradical_sizes(self) -> tuple[int, ...]:
        """Per node i (0-indexed), the number of positive roots with nonzero
        coefficient at i: dim G/P for the maximal parabolic at node i + 1."""
        return tuple(
            sum(1 for alpha in self.positive_roots if alpha[i])
            for i in range(self.rank)
        )

    def weyl_table(self, nodes=None) -> tuple[tuple, int, tuple, tuple]:
        """(roots, den, weights, norms) for the positive roots supported on
        ``nodes`` (1-indexed, any order or repeats; all roots by default):
        the table that Weyl's product and Freudenthal's recursion over those
        nodes share.

        ``roots`` holds, per root alpha in order, a triple (p, j, d_j) with
        alpha = parent + alpha_j and d = root_half_norms: p = 0 when the
        parent is the zero root (alpha is simple), else p = k + 1 for the
        parent at position k of ``roots``.  So (w, alpha) = (w, parent) +
        d_j w_j, one addition per root.  alpha is supported on ``nodes`` iff
        its parent is and j + 1 is in ``nodes``: one test per root, and the
        chain survives the filter.  den = prod (delta, alpha); ``weights``
        and ``norms`` hold each root's fundamental-weight coordinates and
        (alpha, alpha) = (parent, parent) + 2 d_j (m_j + 1), m the parent's
        weight, at the same index as in ``roots``.  Built once per node set."""
        key = None if nodes is None else frozenset(nodes)
        table = self._weyl_tables.get(key)
        if table is None:
            dd = self._half_norms
            where = {0: 0}  # p of root_parents -> p in roots; 0 is the zero root
            roots, weights, norms = [], [(0,) * self.rank], [0]
            pairings = [0]  # (delta, alpha); slot 0 of the last three is the zero root
            for k, ((p, j), m) in enumerate(
                zip(self.root_parents, self.positive_root_weights), 1
            ):
                if key is None or (p in where and j + 1 in key):
                    q = where[p]
                    roots.append((q, j, dd[j]))
                    norms.append(norms[q] + 2 * dd[j] * (weights[q][j] + 1))
                    pairings.append(pairings[q] + dd[j])
                    weights.append(m)
                    where[k] = len(roots)
            table = self._weyl_tables[key] = (
                tuple(roots), prod(pairings[1:]), tuple(weights[1:]), tuple(norms[1:])
            )
        return table

    @cached_property
    def highest_root_weight(self) -> Weight:
        """The unique root maximal in the root order, in fundamental
        coordinates: the last root, as roots are sorted by height."""
        roots = self.positive_roots
        if len(roots) > 1 and sum(roots[-2]) == sum(roots[-1]):
            raise ArithmeticError("highest root is not unique")
        return self.positive_root_weights[-1]

    def check_weight(self, w: Weight) -> None:
        """Raise ValueError unless w has one integer coordinate per simple
        root."""
        if len(w) != self.rank:
            raise ValueError(f"weight {w} needs {self.rank} coordinates")
        if not _all_int(w):
            raise ValueError(f"weight {w} needs integer coordinates")

    def check_nodes(self, nodes) -> tuple[int, ...]:
        """The node set ``nodes`` (1-indexed, any iterable, read once) as a
        tuple; ValueError unless every node is an integer and none a bool,
        IndexError unless every node lies in 1..rank."""
        nodes = tuple(nodes)
        if not _all_int(nodes) or bool in map(type, nodes):
            raise ValueError(f"nodes {list(nodes)} must be integers")
        if nodes and (min(nodes) < 1 or max(nodes) > self.rank):
            raise IndexError(f"nodes {list(nodes)} out of range 1..{self.rank}")
        return nodes

    def simple_root_weight(self, i: int) -> Weight:
        """Fundamental-weight coordinates of alpha_i (1-indexed node)."""
        return self.cartan[i - 1]

    def root_weight(self, coords: RootCoords) -> Weight:
        """Convert simple-root coordinates to fundamental-weight coordinates."""
        return tuple(
            sum(c * self.cartan[i][j] for i, c in enumerate(coords))
            for j in range(self.rank)
        )

    def form(self, w: Weight, root: RootCoords):
        """Symmetric bilinear form (w, alpha) for w in fundamental coordinates
        and alpha in simple-root coordinates (integer-scaled, short norm 2)."""
        dd = self.root_half_norms
        return sum(c * dd[j] * w[j] for j, c in enumerate(root))

    def root_norm(self, root: RootCoords) -> int:
        """(alpha, alpha)/2 in the same integer scaling as root_half_norms."""
        m = self.root_weight(root)
        dd = self.root_half_norms
        half = sum(c * dd[j] * m[j] for j, c in enumerate(root))
        if half % 2:
            raise ArithmeticError(f"odd root norm for {root}")
        return half // 2

    def to_json(self) -> dict:
        return {"type": self.letter, "rank": self.rank}


def _cartan_matrix(letter: str, rank: int) -> list[list[int]]:
    """Bourbaki Cartan matrix with rows = simple roots."""
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i, j, cij=-1, cji=-1):
        c[i - 1][j - 1] = cij
        c[j - 1][i - 1] = cji

    if letter in "ABC":
        for i in range(1, rank):
            edge(i, i + 1)
        if letter == "B" and rank >= 2:
            edge(rank - 1, rank, -2, -1)  # alpha_n short
        if letter == "C" and rank >= 2:
            edge(rank - 1, rank, -1, -2)  # alpha_n long
    elif letter == "D":
        for i in range(1, rank - 1):
            edge(i, i + 1)
        edge(rank - 2, rank)
    elif letter == "E":
        for i, j in [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]:
            edge(i, j)
        for i in range(6, rank):
            edge(i, i + 1)
    elif letter == "F":
        edge(1, 2)
        edge(2, 3, -2, -1)  # alpha_3 short
        edge(3, 4)
    elif letter == "G":
        edge(1, 2, -1, -3)  # alpha_1 short
    return c


def _symmetrizers(cartan: list[list[int]]) -> tuple[int, ...]:
    """Coprime positive integers d_i with diag(d)*C symmetric, spread over the
    diagram: d_j = d_i C[i][j] / C[j][i] along each edge, every d found so far
    scaled up whenever that quotient is not an integer."""
    rank = len(cartan)
    d = [0] * rank
    d[0] = 1
    pending = [0]
    while pending:
        i = pending.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and d[j] == 0:
                num, den = d[i] * cartan[i][j], cartan[j][i]
                scale = abs(den) // gcd(num, den)
                if scale != 1:
                    d = [x * scale for x in d]
                    num *= scale
                d[j] = num // den
                pending.append(j)
    if 0 in d:
        raise InvalidTypeError("disconnected Dynkin diagram")
    g = gcd(*d)
    return tuple(x // g for x in d)


def saturate(cartan, starts: dict, limit: int, nodes=None) -> dict:
    """The smallest weight set holding ``starts`` and saturated under the
    simple roots at ``nodes`` (1-indexed; all nodes by default): with mu it
    holds mu - k alpha_i for 1 <= k <= <mu, alpha_i^vee>.

    ``starts`` maps each start weight to its offset in simple-root
    coordinates; a weight reached by subtracting k alpha_i carries its
    parent's offset plus k in coordinate i.  Returns {weight: offset} in the
    order the weights are found.  From a dominant lam this is the weight set
    of V_lam (Humphreys, section 21.3), and over the nodes of a Levi L the
    weight set of the L-module of highest weight lam; from the -alpha_i at
    offsets e_i it is the set of negative roots, -beta at offset beta.
    Raises ArithmeticError once the set outgrows ``limit``.
    """
    steps = range(len(cartan)) if nodes is None else [i - 1 for i in nodes]
    found = dict(starts)
    order = list(found)
    for mu in order:
        off = found[mu]
        for i in steps:
            nu = mu
            for k in range(1, mu[i] + 1):
                nu = tuple(map(sub, nu, cartan[i]))
                if nu not in found:
                    found[nu] = off[:i] + (off[i] + k,) + off[i + 1 :]
                    order.append(nu)
        if len(found) > limit:
            raise ArithmeticError(f"saturation exceeded its limit of {limit} weights")
    return found


def _generate_positive_roots(cartan, limit: int) -> list[RootCoords]:
    """The offsets of the saturation of the -alpha_i, sorted by height."""
    rank = len(cartan)
    starts = {
        tuple(-a for a in cartan[i]): tuple(int(j == i) for j in range(rank))
        for i in range(rank)
    }
    return sorted(saturate(cartan, starts, limit).values(), key=lambda r: (sum(r), r))


@lru_cache(maxsize=None)
def _build_datum_cached(letter: str, rank: int) -> RootDatum:
    cartan = _cartan_matrix(letter, rank)
    expected = (_DIM_FORMULA[letter](rank) - rank) // 2
    datum = RootDatum(
        letter=letter,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        symmetrizers=_symmetrizers(cartan),
        positive_roots=tuple(_generate_positive_roots(cartan, expected)),
    )
    _check_datum(datum)
    return datum


def _check_datum(datum: RootDatum) -> None:
    n = datum.rank
    c = datum.cartan
    for i in range(n):
        if c[i][i] != 2:
            raise ArithmeticError("diagonal of Cartan matrix must be 2")
        for j in range(n):
            if i != j and (c[i][j] > 0 or c[i][j] < -3 or (c[i][j] == 0) != (c[j][i] == 0)):
                raise ArithmeticError("invalid off-diagonal Cartan entry")
    expected = (_DIM_FORMULA[datum.letter](n) - n) // 2
    if len(datum.positive_roots) != expected:
        raise ArithmeticError(
            f"{datum.letter}{n}: generated {len(datum.positive_roots)} positive "
            f"roots, expected {expected}"
        )
    # sum of all positive roots must be 2*delta: the column sums of the weights
    if tuple(map(sum, zip(*datum.positive_root_weights))) != (2,) * n:
        raise ArithmeticError("sum of positive roots is not 2*delta")


def build_datum(letter: str, rank: int, max_classical_rank: int = DEFAULT_MAX_CLASSICAL_RANK) -> RootDatum:
    """Build the root datum of a simple type, validating (letter, rank).

    Classical families accept ranks up to ``max_classical_rank``;
    exceptional types have fixed rank.  A rank must be an int; a bool is not
    taken for one (``True`` would share the cache entry of rank 1).
    """
    if not isinstance(letter, str) or (letter := letter.upper()) not in _VALID_RANKS:
        raise InvalidTypeError(f"unknown type letter {letter!r}; expected one of A-G")
    if (
        not isinstance(rank, int)
        or isinstance(rank, bool)
        or not _VALID_RANKS[letter](rank)
    ):
        raise InvalidTypeError(
            f"rank {rank} is invalid for type {letter} "
            "(A: rank>=1, B: >=2, C: >=2, D: >=4, E: 6-8, F: 4, G: 2)"
        )
    if letter in "ABCD" and rank > max_classical_rank:
        raise InvalidTypeError(
            f"classical rank {rank} exceeds the configured ceiling {max_classical_rank}"
        )
    return _build_datum_cached(letter, rank)


def weyl_vector(datum: RootDatum) -> Weight:
    """delta = sum of all fundamental weights: the all-ones vector."""
    return tuple(1 for _ in range(datum.rank))


def highest_root(datum: RootDatum) -> Weight:
    """The unique root maximal in the root order, in fundamental coordinates:
    found once per datum (:attr:`RootDatum.highest_root_weight`)."""
    return datum.highest_root_weight


def pairing(datum: RootDatum, w: Weight, coroot_index: int) -> int:
    """<w, alpha^vee> for the coroot of the positive root with this index.

    The coroot is expanded in simple coroots: <w, alpha^vee> =
    2 (w, alpha) / (alpha, alpha), evaluated exactly.
    """
    datum.check_weight(w)
    if (
        type(coroot_index) is not int
        or not 0 <= coroot_index < len(datum.positive_roots)
    ):
        raise IndexError(
            f"coroot index {coroot_index!r} out of range 0..{len(datum.positive_roots)-1}"
        )
    alpha = datum.positive_roots[coroot_index]
    num = datum.form(w, alpha)
    den = datum.root_norm(alpha)
    if num % den:
        raise ArithmeticError("non-integral pairing")
    return num // den


def dim_g(datum: RootDatum) -> int:
    """Dimension of the Lie algebra: rank + 2 * number of positive roots."""
    return datum.rank + 2 * len(datum.positive_roots)
