"""Bott-Borel-Weil cohomology of irreducible homogeneous bundles on G/P.

For an irreducible bundle E_lam the cohomology is either zero in all degrees
(lam + delta singular) or concentrated in a single degree p (lam + delta
regular of index p), where it is the irreducible g-representation with highest
weight w(lam + delta) - delta.  Sums of bundles produce per-degree dimension
tables by additivity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .parabolic import MarkedDatum, is_bundle_weight, nilradical_size
from .repcalc import Decomposition, _weyl_product
from .rootsystem import Weight, highest_root
from .weylgroup import _chamber_reduce

ALL_ZERO = "zero"
CONCENTRATED = "concentrated"


@dataclass(frozen=True)
class CohomologyResult:
    kind: str
    degree: int = 0
    top_weight: Weight | None = None
    dim: int = 0

    @property
    def is_zero(self) -> bool:
        return self.kind == ALL_ZERO

    def h(self, i: int) -> int:
        """Dimension of H^i."""
        if self.is_zero or i != self.degree:
            return 0
        return self.dim

    def to_json(self) -> dict:
        if self.is_zero:
            return {"kind": ALL_ZERO}
        return {
            "kind": CONCENTRATED,
            "degree": self.degree,
            "top_weight": list(self.top_weight),
            "dim": self.dim,
        }


_ZERO_RESULT = CohomologyResult(kind=ALL_ZERO)


def cohomology(md: MarkedDatum, lam: Weight) -> CohomologyResult:
    """All sheaf cohomology of E_lam on G/P(alpha_marked).

    lam is checked once, by :func:`is_bundle_weight`; the chamber reduction
    of :func:`adjvar.weylgroup.dot_classify` and Weyl's product of
    :func:`adjvar.repcalc.weyl_dim` then run unchecked."""
    if not is_bundle_weight(md, lam):
        raise ValueError(
            f"{lam} is not a bundle weight for the parabolic at node {md.marked_node}"
        )
    ambient = md.ambient
    out = _chamber_reduce(ambient, lam, range(ambient.rank))
    if out is None:
        return _ZERO_RESULT
    degree, top, _ = out
    if degree > nilradical_size(md):
        raise ArithmeticError(
            f"BBW degree {degree} exceeds dim G/P = {nilradical_size(md)}"
        )
    return CohomologyResult(
        kind=CONCENTRATED,
        degree=degree,
        top_weight=top,
        dim=_weyl_product(ambient, top, None),
    )


def cohomology_of_decomposition(md: MarkedDatum, dec: Decomposition) -> dict[int, int]:
    """Per-degree dimension table for a formal sum of twisted pieces, each
    twist a multiple of the highest root, the unit of ``square_decompose``."""
    lambda0 = highest_root(md.ambient)
    table: dict[int, int] = {}
    for piece in dec.pieces:
        full = piece.full_weight(lambda0)
        res = cohomology(md, full)
        if not res.is_zero:
            table[res.degree] = table.get(res.degree, 0) + piece.mult * res.dim
    return dict(sorted(table.items()))
