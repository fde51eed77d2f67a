"""Codimension-one foliations on the hyperplane section X of P^2 x P^2.

Demonstrates the form constructors, the degree against each of the two line
families (of its general line), invariant hypersurfaces, and the rigid
foliation induced by the two-dimensional affine algebra acting through the
quadratic embedding of the projective line.  Everything is exact rational
arithmetic.
"""

from adjvar import folforms as ff

n = 2
sampler = ff.FolSampler(n, seed=2024)

print("=" * 70)
print("Pencil of hyperplane sections")
print("=" * 70)
pencil = ff.builtin_pencil(n)
print(f"bidegree {pencil.bidegree}, integrable: {ff.integrable(pencil)}")
for family in (1, 2):
    print(f"  family {family}: degree {ff.family_degree(pencil, family)}")

print()
print("=" * 70)
print("Four-factor logarithmic form (residues 1, -1, 2, -2)")
print("=" * 70)
log4 = ff.builtin_log4(n)
print(f"bidegree {log4.bidegree}, integrable: {ff.integrable(log4)}, "
      f"saturated: {not ff.has_divisorial_singularities(log4)}")

print()
print("=" * 70)
print("Pullbacks from the first factor are tangent to family 1")
print("=" * 70)
for d in (0, 1):
    w = ff.builtin_pullback(d, n)
    d1, d2 = (ff.family_degree(w, family) for family in (1, 2))
    print(f"  degree-{d} foliation pulled back: deg_H1 = {d1}, deg_H2 = {d2}")

print()
print("=" * 70)
print("The rigid affine-action foliation")
print("=" * 70)
omega, f1, f2 = ff.builtin_affine(n)
print(f"bidegree {omega.bidegree}, integrable: {ff.integrable(omega)}, "
      f"saturated: {not ff.has_divisorial_singularities(omega)}")
print(f"invariant conic x-side (class {f1.bidegree()}): "
      f"{ff.is_invariant(omega, f1)}")
print(f"invariant conic y-side (class {f2.bidegree()}): "
      f"{ff.is_invariant(omega, f2)}")
hits = sum(ff.is_invariant(omega, sampler.section11()) for _ in range(10))
print(f"random (1,1)-sections invariant: {hits}/10 (the foliation is not a "
      "pencil of hyperplane sections)")

print()
print("=" * 70)
print("Torus-orbit cross-check: the foliation of two commuting diagonal")
print("fields equals the monomial pencil x1 y1 / x0 y0")
print("=" * 70)
from adjvar.bipoly import BiPoly

torus = ff.builtin_torus(n)
ref = ff.pencil_form(
    BiPoly.x(n, 1) * BiPoly.y(n, 1), BiPoly.x(n, 0) * BiPoly.y(n, 0)
)
print(f"same foliation on X: {ff.same_foliation(torus, ref)}")

print()
print("Numerics for a foliation with normal bundle O(2,2) on X (n = 2):")
print(f"  {ff.foliation_numerics((2, 2), n)}")
