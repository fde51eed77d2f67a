"""Weyl group actions on weights: simple reflections and the shifted
(dot-action) chamber reduction that drives Bott-Borel-Weil.

No Weyl group element is ever materialized; everything is done by repeated
simple reflections at strictly negative coordinates.  The reduced length is
order-independent, so the first negative coordinate is reflected (the tests
check other orders against it).
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootsystem import RootDatum, Weight

SINGULAR = "singular"
REGULAR = "regular"


@dataclass(frozen=True)
class DotResult:
    """Outcome of classifying lambda + delta under the shifted Weyl action.

    ``index_p`` and ``dominant_weight`` are meaningful only when regular:
    ``dominant_weight`` is w(lambda+delta) - delta for the unique w making
    lambda+delta strictly dominant, and ``index_p`` the length of w.
    """

    status: str
    index_p: int = 0
    dominant_weight: Weight | None = None

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
    if not 1 <= i <= datum.rank:
        raise IndexError(f"node {i} out of range 1..{datum.rank}")
    coeff = w[i - 1]
    alpha = datum.simple_root_weight(i)
    return tuple(w[j] - coeff * alpha[j] for j in range(datum.rank))


def dot_classify(datum: RootDatum, lam: Weight) -> DotResult:
    """Classify lambda + delta as singular or regular of index p.

    Reduce v = lambda + delta into the dominant chamber by reflecting at a
    strictly negative coordinate.  A zero coordinate at any point means v lies
    on a reflection wall, hence is singular.  Otherwise v ends strictly
    dominant after exactly p reflections (p independent of the choices), and
    the dominant representative of the dot-orbit is v - delta.
    """
    rank = datum.rank
    v = tuple(a + 1 for a in lam)
    count = 0
    bound = 2 * len(datum.positive_roots) + 1
    for _ in range(bound):
        if any(a == 0 for a in v):
            return DotResult(status=SINGULAR)
        negatives = [i for i in range(rank) if v[i] < 0]
        if not negatives:
            return DotResult(
                status=REGULAR,
                index_p=count,
                dominant_weight=tuple(a - 1 for a in v),
            )
        v = simple_reflection(datum, negatives[0] + 1, v)
        count += 1
    raise ArithmeticError("chamber reduction exceeded its step bound")


def regular_index_oracle(datum: RootDatum, lam: Weight) -> int | None:
    """Independent count of positive coroots negative on lambda + delta.

    Returns None when lambda + delta is singular.  For regular weights this
    equals the ``index_p`` produced by :func:`dot_classify`; the two are
    computed along different routes and cross-checked in the tests.
    """
    v = tuple(a + 1 for a in lam)
    count = 0
    for alpha in datum.positive_roots:
        value = datum.form(v, alpha)
        if value == 0:
            return None
        if value < 0:
            count += 1
    return count
