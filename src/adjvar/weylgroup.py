"""Weyl group actions on weights: simple reflections and the shifted
(dot-action) chamber reduction that drives Bott-Borel-Weil over the whole
Weyl group W and Brauer-Klimyk over a Levi Weyl group W_L.

No Weyl group element is ever materialized; everything is done by repeated
simple reflections at strictly negative coordinates.  The reduced length is
order-independent, so the first negative coordinate is reflected (the tests
check other orders against it).  The chamber reduction reflects in place:
s_i negates coordinate i and changes only the coordinates of the Dynkin
neighbours of i (:attr:`RootDatum.dynkin_neighbours`), so each step costs
the degree of node i, not the rank.

:func:`dot_classify` is the checked face of the reduction; Bott-Borel-Weil
and Brauer-Klimyk, whose weights are already checked, call its unchecked body
:func:`_chamber_reduce` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootsystem import RootDatum, Weight

SINGULAR = "singular"
REGULAR = "regular"


@dataclass(frozen=True)
class DotResult:
    """Outcome of classifying lambda + delta under the shifted Weyl action.

    ``index_p``, ``dominant_weight`` and ``drop`` are meaningful only when
    regular: ``dominant_weight`` is w(lambda+delta) - delta for the unique w
    making lambda+delta strictly dominant, ``index_p`` the length of w, and
    ``drop`` the height of the root-lattice step dominant_weight - lambda.
    """

    status: str
    index_p: int = 0
    dominant_weight: Weight | None = None
    drop: int = 0

    @property
    def is_regular(self) -> bool:
        return self.status == REGULAR

    def to_json(self) -> dict:
        if not self.is_regular:
            return {"status": SINGULAR}
        return {
            "status": REGULAR,
            "p": self.index_p,
            "dominant": list(self.dominant_weight),
        }


def simple_reflection(datum: RootDatum, i: int, w: Weight) -> Weight:
    """s_i(w) = w - <w, alpha_i^vee> alpha_i, computed in fundamental coords."""
    datum.check_weight(w)
    if type(i) is not int or not 1 <= i <= datum.rank:
        raise IndexError(f"node {i!r} out of range 1..{datum.rank}")
    coeff = w[i - 1]
    alpha = datum.simple_root_weight(i)
    return tuple(w[j] - coeff * alpha[j] for j in range(datum.rank))


def _chamber_reduce(datum: RootDatum, lam: Weight, steps):
    """The chamber reduction of lambda + delta by the simple reflections at
    ``steps`` (0-indexed nodes): (index_p, dominant weight, drop) as in
    :class:`DotResult`, or None when singular.  Unchecked: ``lam`` must have
    ``rank`` integer coordinates and ``steps`` must lie in 0..rank-1.
    Callers holding validated data call it directly; everyone else goes
    through :func:`dot_classify`."""
    neighbours = datum.dynkin_neighbours
    v = [a + 1 for a in lam]
    drop = 0
    for count in range(2 * len(datum.positive_roots) + 1):
        for i in steps:
            if v[i] <= 0:
                break
        else:
            return count, tuple(a - 1 for a in v), drop
        a = v[i]
        if a == 0:
            return None
        drop -= a
        v[i] = -a
        for j, c in neighbours[i]:
            v[j] -= a * c
    raise ArithmeticError("chamber reduction exceeded its step bound")


_SINGULAR_RESULT = DotResult(SINGULAR)


def dot_classify(datum: RootDatum, lam: Weight, nodes=None) -> DotResult:
    """Classify lambda + delta as singular or regular of index p under the
    Weyl group generated by the simple reflections at ``nodes`` (1-indexed,
    any iterable; all nodes, i.e. the whole W, by default).

    Reduce v = lambda + delta by reflecting at the first node of ``nodes``
    whose coordinate is <= 0.  A zero there puts v on a reflection wall, hence
    singular.  Otherwise v ends strictly positive on ``nodes`` after exactly p
    reflections (p independent of the choices), the dominant representative of
    the dot-orbit is v - delta, and each reflection at node i adds |v_i|
    alpha_i, so ``drop`` is the sum of the |v_i| reflected away.  v is one
    list: s_i sets v_i to -v_i and subtracts v_i cartan[i][j] from v_j at the
    Dynkin neighbours j of i only.
    """
    datum.check_weight(lam)
    if nodes is None:
        steps = range(datum.rank)
    else:
        steps = [i - 1 for i in datum.check_nodes(nodes)]
    out = _chamber_reduce(datum, lam, steps)
    if out is None:
        return _SINGULAR_RESULT
    return DotResult(REGULAR, *out)


def regular_index_oracle(datum: RootDatum, lam: Weight) -> int | None:
    """Independent count of positive coroots negative on lambda + delta.

    Returns None when lambda + delta is singular.  For regular weights this
    equals the ``index_p`` produced by :func:`dot_classify`; the two are
    computed along different routes and cross-checked in the tests.
    """
    datum.check_weight(lam)
    v = tuple(a + 1 for a in lam)
    count = 0
    for alpha in datum.positive_roots:
        value = datum.form(v, alpha)
        if value == 0:
            return None
        if value < 0:
            count += 1
    return count
