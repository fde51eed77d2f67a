"""Codimension-one foliations on the smooth hyperplane section X of
P^n x P^n, checked symbolically over exact rationals.

Twisted 1-forms are represented by their ambient polynomial coefficients; all
identities on X are tested modulo the incidence quadric q = sum x_i y_i.
Restriction to X is never materialized: a statement "on X" becomes membership
in (q) after wedging with dq where the conormal direction matters, i.e.

* integrability on X:   dq ^ omega ^ d(omega) = 0  (mod q),
* invariance of V(F)^X: dq ^ dF ^ omega = 0        (mod q, F),

each of which is implied by the corresponding ambient identity.  Membership
in (q) is decided by the normal form modulo q; membership in (F, q) on the
two charts x_0 != 0 and y_0 != 0, each by the normal form and one exact
single-divisor division in a polynomial ring.  The predicates do not change
when a form is scaled, so their symbolic tests clear denominators first and
multiply only ints.  Integrability and proportionality share one test,
dq ^ a ^ b in (q), run on the wedge components free of x_0 and y_0 only: both
Euler fields annihilate those wedges modulo q, so the other components follow
(``_euler_reduced``).  ``integrable``, ``is_invariant`` and ``same_foliation``
first evaluate their form at an integer point of X (``witness``): a nonzero
value proves False exactly, and every True answer comes from the symbolic
test.  Pencils, pullbacks and ``log4`` are built by ``log_form``; the affine
and torus foliations by ``foliation_from_fields`` from pairs of vector fields.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul

from .bipoly import (
    EXPONENT_BOUND,
    BiPoly,
    divide_by_var_mod_quadric,
    is_zero_mod_quadric,
    n_from_json,
    normal_form_mod_q,
    poly_divexact,
    poly_gcd_list,
    terms_from_json,
    terms_to_json,
    used_vars,
    var_degree,
    var_shift,
)
from . import witness


class _MinusInfinity:
    """Sentinel for the degree of a foliation whose general family line is a
    leaf; compares below every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"

    def __lt__(self, other):
        return not isinstance(other, _MinusInfinity)

    def __gt__(self, other):
        return False


MINUS_INFINITY = _MinusInfinity()


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------


class PolyOneForm:
    """A global section of Omega^1(a, b) on P^n x P^n in ambient coordinates.

    ``coeffs[v]`` multiplies dx_v for v <= n and dy_{v-n-1} otherwise; the
    dx-coefficients are bihomogeneous of bidegree (a-1, b) and the
    dy-coefficients of bidegree (a, b-1).  Both Euler contractions
    sum x_i A_i and sum y_j B_j must vanish identically.
    """

    __slots__ = ("n", "coeffs", "bidegree")

    def __init__(self, n: int, coeffs):
        if len(coeffs) != 2 * (n + 1):
            raise ValueError("need one coefficient per dx_i and dy_j")
        self.n = n
        self.coeffs = tuple(coeffs)
        for c in self.coeffs:
            _same_ambient(n, c.n)
        if all(c.is_zero for c in self.coeffs):
            raise ValueError("the zero form does not define a foliation")
        self.bidegree = self._check_bidegree()
        self._check_euler()

    def _check_bidegree(self):
        a = b = None
        for v, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            da, db = c.bidegree()
            if v <= self.n:
                cand = (da + 1, db)
            else:
                cand = (da, db + 1)
            if a is None:
                a, b = cand
            elif (a, b) != cand:
                raise ValueError(
                    f"coefficient bidegrees are inconsistent: {(a, b)} vs {cand}"
                )
        return (a, b)

    def _check_euler(self):
        n = self.n
        ex = BiPoly.zero(n)
        ey = BiPoly.zero(n)
        for i in range(n + 1):
            ex = ex + BiPoly.x(n, i) * self.coeffs[i]
            ey = ey + BiPoly.y(n, i) * self.coeffs[n + 1 + i]
        if not ex.is_zero or not ey.is_zero:
            raise ValueError("Euler contraction does not vanish")

    def as_dict(self) -> dict:
        return {(v,): c for v, c in enumerate(self.coeffs) if not c.is_zero}

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "n": self.n,
            "bidegree": list(self.bidegree),
            "dx": [terms_to_json(c) for c in self.coeffs[: self.n + 1]],
            "dy": [terms_to_json(c) for c in self.coeffs[self.n + 1 :]],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolyOneForm":
        n = n_from_json(data["n"])
        blocks = data["dx"], data["dy"]
        if any(len(block) != n + 1 for block in blocks):
            raise ValueError(f"dx and dy need {n + 1} coefficients each")
        return cls(n, [terms_from_json(n, t) for block in blocks for t in block])


# generic exterior algebra on dicts {sorted var tuple: BiPoly}


def _merge_wedge(i_tuple, j_tuple):
    """Sign and sorted merge of two strictly increasing index tuples, or None
    on a repeated index; each pair a > b with a in i, b in j is one swap."""
    merged = i_tuple + j_tuple
    if len(set(merged)) < len(merged):
        return None
    swaps = sum(a > b for a in i_tuple for b in j_tuple)
    return (-1) ** swaps, tuple(sorted(merged))


def _packed_components(form: dict, unit) -> dict:
    """{index key: [(packed monomial, coefficient), ...]} of a form dict, each
    exponent tuple packed by ``unit`` into one int (see ``form_wedge``)."""
    from_bytes = int.from_bytes
    pack = unit.pack
    return {
        key: [(from_bytes(pack(*mono), "big"), c) for mono, c in p.terms.items()]
        for key, p in form.items()
    }


def _max_exponent(form: dict) -> int:
    return max((max(mono) for p in form.values() for mono in p.terms), default=0)


def form_wedge(f: dict, g: dict, n: int) -> dict:
    """Wedge product, each output coefficient summed in one
    {monomial: coefficient} dict over all pairs of input terms.

    Each exponent tuple is packed into one int with a 16-bit big-endian slot
    per variable, x_0 most significant, so a product of monomials is one
    integer addition; only the nonzero sums are unpacked.  A slot must not
    carry, so the largest exponents of f and g must sum to less than 2^16,
    else ValueError."""
    top = _max_exponent(f) + _max_exponent(g)
    if top >= EXPONENT_BOUND:
        raise ValueError(
            f"exponent sum {top} does not fit the 16-bit packed monomial slots"
        )
    unit = struct.Struct(f">{2 * n + 2}H")
    fp, gp = _packed_components(f, unit), _packed_components(g, unit)
    acc: dict = {}  # key of dz_I ^ dz_J -> {packed monomial: coefficient}
    for ikey, iterms in fp.items():
        for jkey, jterms in gp.items():
            m = _merge_wedge(ikey, jkey)
            if m is None:
                continue
            sign, key = m
            terms = acc.setdefault(key, {})
            get = terms.get
            for pa, ca in iterms:
                ca *= sign
                for pb, cb in jterms:
                    mono = pa + pb
                    terms[mono] = get(mono, 0) + ca * cb
    unpack, width = unit.unpack, unit.size
    return _collect(
        {key: {unpack(m.to_bytes(width, "big")): c for m, c in sums.items() if c}
         for key, sums in acc.items()},
        n,
    )


def form_d(f: dict, n: int) -> dict:
    """Exterior derivative in one pass over each coefficient's terms: c z^e
    in the dz_K coefficient gives c e_v z^(e - 1_v) to dz_v ^ dz_K."""
    acc: dict = {}  # key of dz_v ^ dz_K -> {monomial: coefficient}
    for key, c in f.items():
        targets = [_merge_wedge((v,), key) for v in range(2 * n + 2)]
        for exps, coef in c.terms.items():
            for v, e in enumerate(exps):
                target = targets[v] if e else None
                if target is None:
                    continue
                sign, nkey = target
                mono = exps[:v] + (e - 1,) + exps[v + 1 :]
                terms = acc.setdefault(nkey, {})
                terms[mono] = terms.get(mono, 0) + coef * (e * sign)
    return _collect(acc, n)


def _collect(acc: dict, n: int) -> dict:
    """The form dict of {key: {monomial: coefficient sum}}, zeros dropped."""
    out = {k: BiPoly(n, terms) for k, terms in acc.items()}
    return {k: v for k, v in out.items() if not v.is_zero}


def _integral(form: dict) -> dict:
    """The form dict times the lcm of its coefficient denominators, so every
    coefficient is an int.  The predicates are scale-invariant, so their
    symbolic tests run on this multiple and multiply only ints."""
    den = lcm(*(c.denominator for p in form.values() for c in p.terms.values()))
    return {k: p * den for k, p in form.items()} if den > 1 else form


def _euler_reduced(form: dict, n: int) -> dict:
    """The components of a form dict whose index sets avoid x_0 (flat index 0)
    and y_0 (flat index n + 1).

    For the forms eta = omega ^ d(omega), dq ^ omega ^ d(omega) and
    dq ^ w1 ^ w2 built from projective 1-forms, these components decide
    whether every component lies in (q), for n >= 1:

    * Both Euler fields R_x, R_y annihilate eta modulo q.  With
      i_R omega = 0 and L_R omega = a omega (a the degree in the field's
      factor), i_R (omega ^ d omega) = -omega ^ i_R d omega
      = -omega ^ L_R omega = -a omega ^ omega = 0; likewise
      i_R (w1 ^ w2) = 0; and i_R (dq ^ gamma) = q gamma since i_R dq = q.
    * Reading i_{R_x} eta = 0 mod q along dz_J, for J free of x_0, gives
      the x_0-rule x_0 eta_{0J} = -sum_{i>=1} +-x_i eta_{iJ} (mod q); the
      y_0-rule is the same with R_y.
    * (q) is prime and x_0, y_0 are not in it.  So if the components free of
      x_0 and y_0 are in (q), the y_0-rule puts every component with y_0 and
      without x_0 in (q); the x_0-rule then does the rest, J being allowed to
      contain y_0.

    These are the contraction identities of Jouanolou, Equations de Pfaff
    algebriques, LNM 708 (1979), section 1.  A component of a wedge free of
    x_0 and y_0 comes only from such components of its factors, and the same
    holds for d, so each factor is reduced before it is multiplied."""
    return {k: c for k, c in form.items() if 0 not in k and n + 1 not in k}


def dq_form(n: int) -> dict:
    out = {}
    for i in range(n + 1):
        out[(i,)] = BiPoly.y(n, i)
        out[(n + 1 + i,)] = BiPoly.x(n, i)
    return out


def _same_ambient(n1: int, n2: int) -> None:
    if n1 != n2:
        raise ValueError(f"the inputs live on P^{n1} x P^{n1} and P^{n2} x P^{n2}")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def pencil_form(h1: BiPoly, h2: BiPoly) -> PolyOneForm:
    """The pencil foliation h1 dh2 - h2 dh1 of two (1,1)-sections: the
    logarithmic form with residues (1, -1) on (h2, h1).

    It is h1^2 d(h2 / h1), so it vanishes exactly when the sections are
    proportional, and ``log_form`` then raises."""
    for h in (h1, h2):
        if h.is_zero or h.bidegree() != (1, 1):
            raise ValueError("pencil sections must be nonzero of bidegree (1,1)")
    return log_form([1, -1], [h2, h1])


def log_form(residues, factors) -> PolyOneForm:
    """The logarithmic form (prod f_i)(sum lambda_i df_i / f_i), that is
    sum_i lambda_i (prod_{j != i} f_j) df_i.

    The residues must annihilate the factor bidegrees componentwise,
    sum lambda_i deg(f_i) = (0, 0); this is the first-Chern-class constraint
    that makes the form a well-defined projective 1-form.  Every built-in
    except ``affine`` and ``torus`` is one of these (Calvo-Andrade,
    Math. Ann. 299, 1994; Cerveau-Lins Neto, Ann. of Math. 143, 1996).
    """
    if len(residues) != len(factors) or not factors:
        raise ValueError("need matching nonempty residue and factor lists")
    residues = [Fraction(r) for r in residues]
    n = factors[0].n
    degs = []
    for f in factors:
        _same_ambient(n, f.n)
        if f.is_zero:
            raise ValueError("zero factor in a logarithmic form")
        degs.append(f.bidegree())
    total = (
        sum(r * d[0] for r, d in zip(residues, degs)),
        sum(r * d[1] for r, d in zip(residues, degs)),
    )
    if total != (0, 0):
        raise ValueError(
            f"residue condition violated: sum lambda_i deg_i = {total}, not (0,0)"
        )
    coeffs = [BiPoly.zero(n) for _ in range(2 * (n + 1))]
    for i, (ri, fi) in enumerate(zip(residues, factors)):
        others = factors[:i] + factors[i + 1 :]
        cofactor = reduce(mul, others) if others else BiPoly.const(n, 1)
        cofactor = cofactor * ri
        for v in range(2 * (n + 1)):
            dv = fi.dvar(v)
            if dv:
                coeffs[v] = coeffs[v] + cofactor * dv
    if all(c.is_zero for c in coeffs):
        raise ValueError("degenerate logarithmic form (identically zero)")
    return PolyOneForm(n, coeffs)


def builtin_pullback(degree: int, n: int) -> PolyOneForm:
    """pi_1-pullback of a standard integrable foliation on P^n, as a
    logarithmic form in x alone: degree 0 is the pencil of hyperplanes
    x0 dx1 - x1 dx0 (residues (1, -1) on (x1, x0)), degree 1 is
    2h dx0 - x0 dh with h = x1 x2 - x0^2 (residues (2, -1) on (x0, h)), whose
    rational first integral is x0^2 / h."""
    x = lambda i: BiPoly.x(n, i)
    if degree == 0:
        return log_form([1, -1], [x(1), x(0)])
    if degree == 1:
        return log_form([2, -1], [x(0), x(1) * x(2) - x(0) * x(0)])
    raise ValueError("only pullback degrees 0 and 1 are built in")


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def integrable(omega: PolyOneForm) -> bool:
    """Frobenius integrability of the foliation cut out on X.

    True iff dq ^ omega ^ d(omega) = 0 modulo q.  The dq factor discards the
    conormal direction, so the answer does not change when omega is altered
    by a form q alpha + g dq that vanishes on X; an ambient identity
    omega ^ d(omega) = 0 (mod q) implies it.
    """
    refuted = witness.integrability_witness(omega) is not None
    return not refuted and _integrable_symbolic(omega)


def _dq_wedge_in_q(a: dict, b: dict, n: int) -> bool:
    """Is dq ^ a ^ b in (q)?  a and b are Euler-reduced form dicts, and so is
    the 4- or 3-form tested (``_euler_reduced``).  a ^ b is built first, so
    an empty product, as for every logarithmic form, costs one wedge."""
    ab = form_wedge(a, b, n)
    dq_ab = form_wedge(_euler_reduced(dq_form(n), n), ab, n)
    return all(is_zero_mod_quadric(c) for c in dq_ab.values())


def _integrable_symbolic(omega: PolyOneForm) -> bool:
    n = omega.n
    w = _integral(_euler_reduced(omega.as_dict(), n))
    return _dq_wedge_in_q(w, _euler_reduced(form_d(w, n), n), n)


def _strip_var(p: BiPoly, v: int) -> BiPoly:
    """Divide out the highest power of a coordinate dividing every term."""
    val = min((key[v] for key in p.terms), default=0)
    return var_shift(p, v, -val) if val else p


def _chart_image(p: BiPoly, chart: int) -> BiPoly:
    """The image of p on X minus {z = 0}, for z = x_0 (chart 0) or y_0
    (chart n + 1): a polynomial free of z's partner in q and not divisible
    by z.

    Times z^k, k the partner's degree in p, every term has at least as many
    factors z as factors of the partner, so the normal form modulo q comes out
    free of the partner; it is the one such representative of z^k p."""
    k = var_degree(p, p.n + 1 - chart)  # x_0 is flat 0 and y_0 is flat n + 1
    return _strip_var(normal_form_mod_q(var_shift(p, chart, k)), chart)


def is_invariant(omega: PolyOneForm, f: BiPoly) -> bool:
    """Is the hypersurface V(F) ^ X invariant under the foliation of omega?

    Tests dq ^ dF ^ omega = 0 modulo (F, q): at a general point of V(F, q)
    the conormal of V(F) ^ X is spanned by dF and dq, so invariance says
    omega lies in that span.  The ambient identity omega ^ dF = 0 (mod F, q)
    implies this.  Membership is decided on the two charts x_0 != 0 and
    y_0 != 0, each by one exact division of chart images
    (``_is_invariant_symbolic`` has the proof that two charts suffice).

    At n = 1, X is a curve, every point of it is a leaf, and every V(F) ^ X
    with F not in (q) is invariant.
    """
    _same_ambient(omega.n, f.n)
    if f.is_zero:
        raise ValueError("invariance of the zero divisor is undefined")
    f.bidegree()  # V(F) is a subvariety of P^n x P^n only if F is bihomogeneous
    if omega.n == 1:
        if normal_form_mod_q(f).is_zero:
            raise ValueError("F lies in the ideal of X")
        return True
    refuted = witness.invariance_witness(omega, f) is not None
    return not refuted and _is_invariant_symbolic(omega, f)


def _is_invariant_symbolic(omega: PolyOneForm, f: BiPoly) -> bool:
    # The whole wedge, not ``_euler_reduced``: here eta is tested in (F, q),
    # which need not be prime, and x_0 eta in it does not give eta in it when
    # V(F) ^ X has a component inside {x_0 = 0} (likewise y_0).  For F = x_0
    # the reduced test would answer True.
    #
    # Two charts decide g in (F, q).  q is prime and F is not in (q), so
    # (F, q) is a complete intersection, and complete intersections are
    # unmixed: every associated prime has height 2 (Matsumura, Commutative
    # Ring Theory, Thm 17.4).  (x_0, y_0, q) has height 3 for n >= 1, so no
    # associated prime contains both x_0 and y_0, and g lies in (F, q) iff it
    # does after inverting x_0 and after inverting y_0.  On the chart
    # x_0 != 0 the ring modulo q is a localization of the polynomial ring
    # without y_0, a UFD, so membership is divisibility of chart images.
    n = omega.n
    f = _integral({(): f})[()]
    charts = (0, n + 1)  # x_0 and y_0
    f_images = [_chart_image(f, chart) for chart in charts]
    if not all(f_images):
        raise ValueError("F lies in the ideal of X")
    three = form_wedge(
        form_wedge(dq_form(n), form_d({(): f}, n), n), _integral(omega.as_dict()), n
    )
    return all(
        poly_divexact(_chart_image(g, chart), f_image) is not None
        for chart, f_image in zip(charts, f_images)
        for g in three.values()
    )


def has_divisorial_singularities(omega: PolyOneForm) -> bool:
    """Does the zero scheme of omega on X contain a divisor?  True is a
    proof; False is not.

    True means that every coefficient vanishes on one coordinate section
    V(z) ^ X (tested modulo q), or that the coefficients share an ambient
    factor.  A form in (q), zero on X, passes the coordinate test, since
    (q) lies in every (z, q), and so never reaches the gcd.  A divisor
    V(h) ^ X with h neither a coordinate nor a common factor of the
    coefficients is missed: the coefficients can lie in (h, q) with ambient
    gcd 1, and the answer is then False.
    """
    n = omega.n
    coeffs = list(_integral(omega.as_dict()).values())
    for v in range(2 * (n + 1)):
        if all(divide_by_var_mod_quadric(c, v) is not None for c in coeffs):
            return True
    return bool(used_vars(poly_gcd_list(coeffs)))


# ---------------------------------------------------------------------------
# lines and tangency degrees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineInFamily:
    """A line inside a fiber of one of the two projections of X.

    Family 1 fixes the x-point ``base`` and moves y along the span of p0, p1
    inside the incidence hyperplane of ``base``; family 2 is symmetric.  The
    defining constraint base . p0 = base . p1 = 0 puts the whole line on X.
    """

    family: int
    base: tuple
    p0: tuple
    p1: tuple

    def __post_init__(self):
        if self.family not in (1, 2):
            raise ValueError("family must be 1 or 2")
        if not len(self.base) == len(self.p0) == len(self.p1):
            raise ValueError("base, p0 and p1 need the same number of coordinates")
        if not all(
            isinstance(a, (int, Fraction)) for a in (*self.base, *self.p0, *self.p1)
        ):
            raise ValueError("line coordinates must be ints or Fractions")
        if not any(self.base):
            raise ValueError("the base point must be nonzero")
        dot0 = sum(a * b for a, b in zip(self.base, self.p0))
        dot1 = sum(a * b for a, b in zip(self.base, self.p1))
        if dot0 != 0 or dot1 != 0:
            raise ValueError("line does not lie on the incidence hyperplane")
        if not _independent(self.p0, self.p1):
            raise ValueError("non-reduced parametrization: spanning points coincide")


def _independent(p, q) -> bool:
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] * q[j] - p[j] * q[i] != 0:
                return True
    return False


def _integer_multiple(point) -> list:
    """The rational vector times the lcm of its denominators, as ints."""
    scale = lcm(*(a.denominator for a in point))
    return [a.numerator * (scale // a.denominator) for a in point]


def tangency_degree(omega: PolyOneForm, line: LineInFamily):
    """Number of tangencies of the foliation with the line, with multiplicity.

    The pullback of omega along (s:t) -> line(s,t) is b(s,t) (t ds - s dt)
    for a binary form b of degree d - 2, d being the degree of omega in the
    moving factor; that is ``foliation_numerics``' deg_H1 (family 1) or
    deg_H2 (family 2), which is returned unless the line lies in a leaf
    (b = 0), where the answer is MINUS_INFINITY.

    The ds part of the pullback is U(s, t) = omega(line(s, t))(p0), a binary
    form of degree d - 1, and Euler on the moving factor gives U = t b.  So
    U(1, 0) = 0, and b = 0 exactly when U(1, k) = 0 for the d - 1 points
    k = 1..d-1, one more than deg b.

    Every value is an int: the block's coefficients are cleared of
    denominators by one common factor, base is scaled by one integer and
    p0, p1 by another.  U is bihomogeneous, of degree d - 1 in the moving
    point and linear in the contraction vector p0, so scaling the block by
    c, base by l and p0, p1 by m turns each U(1, k) into
    c * l^e * m^d * U(1, k), with e the block's degree in the base factor.
    That factor is nonzero, so no zero test changes.
    """
    n = omega.n
    if len(line.base) != n + 1:
        raise ValueError(f"line points need n + 1 = {n + 1} coordinates")
    numerics = foliation_numerics(omega.bidegree, n)
    if line.family == 1:
        d, block, degree = omega.bidegree[1], omega.coeffs[n + 1 :], numerics.deg_H1
    else:
        d, block, degree = omega.bidegree[0], omega.coeffs[: n + 1], numerics.deg_H2
    block = _integral(dict(enumerate(block))).values()
    base = _integer_multiple(line.base)
    spans = _integer_multiple((*line.p0, *line.p1))
    p0, p1 = spans[: n + 1], spans[n + 1 :]
    for k in range(d):
        moving = [a + k * b for a, b in zip(p0, p1)]
        xs, ys = (base, moving) if line.family == 1 else (moving, base)
        u = sum(c.eval_point(xs, ys) * w for c, w in zip(block, p0) if w)
        if u:
            if k == 0:
                raise ArithmeticError("pullback lost the Euler relation")
            return degree
    return MINUS_INFINITY


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoliationNumerics:
    """Class-level invariants of a foliation with normal bundle O_X(a, b)."""

    normal_bidegree: tuple
    K_F_bidegree: tuple
    deg_H1: int
    deg_H2: int
    splitting_p: int


def foliation_numerics(normal_bidegree, n: int) -> FoliationNumerics:
    """Degrees against the two line families and the foliation canonical
    class, from intersection numbers: a fiber line of pi_1 meets h2 once and
    h1 not at all, K_X = O(-n, -n), and a degree-zero foliation restricts on
    a general minimal rational curve with p = deg f*T_X - 2 = n - 2 positive
    summands."""
    a, b = normal_bidegree
    return FoliationNumerics(
        normal_bidegree=(a, b),
        K_F_bidegree=(a - n, b - n),
        deg_H1=b - 2,
        deg_H2=a - 2,
        splitting_p=max(n - 2, 0),
    )


# ---------------------------------------------------------------------------
# vector-field induced foliations (X a 3-fold, n = 2)
# ---------------------------------------------------------------------------


def linear_field(matrix, n: int):
    """The vector field of a trace-free matrix A acting as x -> Ax on the
    first factor and y -> -A^T y on the second; it kills q exactly."""
    comps = []
    for i in range(n + 1):
        c = BiPoly.zero(n)
        for j in range(n + 1):
            if matrix[i][j]:
                c = c + BiPoly.x(n, j) * Fraction(matrix[i][j])
        comps.append(c)
    for j in range(n + 1):
        c = BiPoly.zero(n)
        for i in range(n + 1):
            if matrix[i][j]:
                c = c - BiPoly.y(n, i) * Fraction(matrix[i][j])
        comps.append(c)
    return tuple(comps)


def field_apply(field, f: BiPoly) -> BiPoly:
    out = BiPoly.zero(f.n)
    for v, comp in enumerate(field):
        if not comp.is_zero:
            out = out + comp * f.dvar(v)
    return out


def _nullspace(rows, ncols):
    """Basis of the nullspace of a sparse rational matrix (rows are dicts),
    one integer vector per free column.

    Each row is scaled to integers and the matrix brought to reduced echelon
    form by fraction-free row operations, every row kept primitive; a pivot
    row then reads p x_pc + sum_free a_f x_f = 0, so setting one free
    variable to the lcm of the pivots solves for the pivot variables in
    integers."""
    dense = []
    for row in rows:
        den = lcm(*(v.denominator for v in row.values()))
        vec = [0] * ncols
        for c, v in row.items():
            vec[c] = den // v.denominator * v.numerator
        dense.append(vec)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(dense)) if dense[i][c]), None)
        if piv is None:
            continue
        dense[r], dense[piv] = dense[piv], dense[r]
        prow, p = dense[r], dense[r][c]
        for i in range(len(dense)):
            f = dense[i][c]
            if i != r and f:
                new = [p * a - f * b for a, b in zip(dense[i], prow)]
                g = gcd(*new)
                dense[i] = [a // g for a in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(dense):
            break
    scale = lcm(*(dense[ri][pc] for ri, pc in enumerate(pivots)))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = scale
        for ri, pc in enumerate(pivots):
            vec[pc] = -dense[ri][fc] * scale // dense[ri][pc]
        basis.append(vec)
    return basis


def foliation_from_fields(v1, v2) -> PolyOneForm:
    """The 1-form of the codimension-one foliation spanned by two vector
    fields tangent to X (n = 2 only, so X is a 3-fold).

    Solves exactly for a form of bidegree (2, 2) with vanishing Euler
    contractions that annihilates both fields modulo q; this is the ambient
    realization of contracting the local volume form of X by the two fields.

    The forms q*alpha - alpha(E_x)*dq restrict to zero on X and solve the
    same equations: at (2, 2) they make up an 8-dimensional junk space.  A
    junk form is determined by its dx_0 coefficient, and these coefficients
    fill the (1, 2) part of the ideal (x_1 y_1 + x_2 y_2, x_1 y_0, x_2 y_0).
    That generating set is a Groebner basis, and in the ``_exponents`` order
    (x_2 before x_1 before x_0, likewise for y) its leading monomials are
    x_2 y_2, x_1 y_0 and x_2 y_0.  The representative returned is therefore
    the one whose dx_0 coefficient has no monomial divisible by any of the
    three: those 8 coefficients are not unknowns.  It is the representative
    that reducing a solution against an echelon basis of the junk yields,
    because the junk's pivot columns are exactly these monomials.  The
    output is then made primitive, so it does not depend on the scale the
    solver returns.

    A one-dimensional solution space is the foliation; dimension zero means
    no foliation of bidegree (2, 2) (raise).  The fields have already passed
    the independence test, so a higher dimension means their foliation has
    a normal bundle O_X(a, b) below O_X(2, 2): with omega' its form, every
    g omega' with g in H^0(O_X(2 - a, 2 - b)) solves the equations (raise).
    """
    n = v1[0].n
    if n != 2:
        raise ValueError("vector-field foliations are implemented for n = 2")
    q = BiPoly.incidence_quadric(n)
    for v in (v1, v2):
        if not is_zero_mod_quadric(field_apply(v, q)):
            raise ValueError("vector field is not tangent to X")
    if not _fields_independent(v1, v2):
        raise ValueError("the two vector fields are dependent on X")

    columns = []  # (var index, monomial key), one per unknown coefficient
    for v in range(2 * (n + 1)):
        xdeg, ydeg = (1, 2) if v <= n else (2, 1)
        for xe in _exponents(n + 1, xdeg):
            for ye in _exponents(n + 1, ydeg):
                # the junk's pivots: dx_0 monomials divisible by x_1 y_0,
                # x_2 y_0 or x_2 y_2
                if v == 0 and ((ye[0] and not xe[0]) or (xe[2] and ye[2])):
                    continue
                columns.append((v, xe + ye))

    equations: dict = {}
    for col, (v, m) in enumerate(columns):
        mono = BiPoly(n, {m: 1})
        euler = BiPoly.x(n, v) if v <= n else BiPoly.y(n, v - n - 1)
        # the Euler contractions vanish identically, and omega(v_k) = 0 mod q
        for tag, poly in (
            ("ex" if v <= n else "ey", mono * euler),
            ("v1", normal_form_mod_q(mono * v1[v])),
            ("v2", normal_form_mod_q(mono * v2[v])),
        ):
            for key, c in poly.terms.items():
                equations.setdefault((tag, key), {})[col] = c

    kernel = _nullspace(list(equations.values()), len(columns))
    if not kernel:
        raise ValueError("no foliation form of bidegree (2, 2) annihilates the fields")
    if len(kernel) > 1:
        raise ValueError(
            "the fields' foliation has a normal bundle below O_X(2, 2): "
            f"the bidegree (2, 2) forms annihilating them span {len(kernel)} "
            "dimensions"
        )
    terms = [{} for _ in range(2 * (n + 1))]
    for (v, m), c in zip(columns, kernel[0]):
        if c:
            terms[v][m] = c
    # Scaled to coprime integers with a positive leading coefficient on the
    # first nonzero block, for reproducible output.  There is no polynomial
    # content to divide out: were omega = g omega' with g of bidegree
    # (a, b) != (0, 0), every h omega' with h in H^0(O_X(a, b)) would solve
    # the same equations, their classes modulo the junk would span
    # h^0(O_X(a, b)) >= 2 dimensions, and the kernel would not be
    # one-dimensional.
    lead = next(t for t in terms if t)
    scale = gcd(*kernel[0]) * (1 if lead[max(lead)] > 0 else -1)
    coeffs = [BiPoly(n, {m: c // scale for m, c in t.items()}) for t in terms]
    return PolyOneForm(n, coeffs)


def _fields_independent(v1, v2) -> bool:
    nvars = len(v1)
    for i in range(nvars):
        for j in range(i + 1, nvars):
            minor = v1[i] * v2[j] - v1[j] * v2[i]
            if not is_zero_mod_quadric(minor):
                return True
    return False


def same_foliation(w1: PolyOneForm, w2: PolyOneForm) -> bool:
    """Do two forms cut out the same foliation on X?  True iff
    dq ^ w1 ^ w2 = 0 mod q (proportionality along X up to the conormal)."""
    _same_ambient(w1.n, w2.n)
    refuted = witness.proportionality_witness(w1, w2) is not None
    return not refuted and _same_foliation_symbolic(w1, w2)


def _same_foliation_symbolic(w1: PolyOneForm, w2: PolyOneForm) -> bool:
    n = w1.n
    f1, f2 = (_integral(_euler_reduced(w.as_dict(), n)) for w in (w1, w2))
    return _dq_wedge_in_q(f1, f2, n)


# ---------------------------------------------------------------------------
# built-in foliations
# ---------------------------------------------------------------------------


def builtin_affine(n: int = 2):
    """The rigid foliation from the affine subalgebra acting through the
    degree-two embedding of the projective line: semisimple generator
    diag(1,0,-1) and raising nilpotent, with [s, e] = e.

    Returns (form, invariant surfaces (F1, F2) of classes (2,0) and (0,2)).
    """
    if n != 2:
        raise ValueError("the affine-action foliation lives on n = 2")
    s = [[1, 0, 0], [0, 0, 0], [0, 0, -1]]
    e = [[0, 1, 0], [0, 0, 2], [0, 0, 0]]
    v_s = linear_field(s, n)
    v_e = linear_field(e, n)
    omega = foliation_from_fields(v_s, v_e)
    x = lambda i: BiPoly.x(n, i)
    y = lambda j: BiPoly.y(n, j)
    f1 = x(1) * x(1) - x(0) * x(2) * 4  # the conic orbit closure
    f2 = y(1) * y(1) - y(0) * y(2)  # its dual on the second factor
    return omega, f1, f2


def builtin_torus(n: int = 2):
    """A torus-orbit foliation: two commuting diagonal fields; its first
    integral is the monomial pencil x1 y1 / x0 y0."""
    if n != 2:
        raise ValueError("the torus cross-check lives on n = 2")
    a = [[-1, 0, 0], [0, -1, 0], [0, 0, 2]]
    b = [[2, 0, 0], [0, -1, 0], [0, 0, -1]]
    return foliation_from_fields(linear_field(a, n), linear_field(b, n))


def builtin_pencil(n: int, sampler=None) -> PolyOneForm:
    """A transverse pencil of hyperplane sections; generic when sampled.

    The fixed members are sum (k+1) x_k y_k and the cyclic form
    sum x_k y_{k+1}, which stay irreducible after restriction to X."""
    if sampler is None:
        h1 = BiPoly.zero(n)
        h2 = BiPoly.zero(n)
        for k in range(n + 1):
            h1 = h1 + BiPoly.x(n, k) * BiPoly.y(n, k) * (k + 1)
            h2 = h2 + BiPoly.x(n, k) * BiPoly.y(n, (k + 1) % (n + 1))
        return pencil_form(h1, h2)
    return pencil_form(sampler.section11(), sampler.section11())


def builtin_log4(n: int, lam=1, mu=2) -> PolyOneForm:
    """Four-factor logarithmic form with residues (lam, -lam, mu, -mu) on two
    (1,0) and two (0,1) hyperplanes."""
    x = lambda i: BiPoly.x(n, i)
    y = lambda j: BiPoly.y(n, j)
    factors = [
        x(0),
        x(0) + x(1),
        y(0),
        y(0) + y(1) + (y(2) if n >= 2 else BiPoly.zero(n)),
    ]
    return log_form([lam, -Fraction(lam), mu, -Fraction(mu)], factors)


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------


class FolSampler:
    """Deterministic rational sampling for genericity checks.

    Rational points have numerators and denominators bounded by ``height``;
    all draws flow from the one seed, so runs are reproducible.
    """

    def __init__(self, n: int, seed: int = 2024, height: int = 100):
        self.n = n
        self.rng = random.Random(seed)
        self.height = height

    def fraction(self, nonzero=False) -> Fraction:
        h = self.height
        while True:
            value = Fraction(self.rng.randint(-h, h), self.rng.randint(1, h))
            if value or not nonzero:
                return value

    def point(self):
        """A rational point with no zero coordinate (generic for our uses)."""
        return tuple(self.fraction(nonzero=True) for _ in range(self.n + 1))

    def line(self, family: int) -> LineInFamily:
        if self.n < 2:
            raise ValueError(
                f"at n = {self.n} the fibres of X are points, so they hold no lines"
            )
        base = self.point()
        for _ in range(100):
            p0 = self._in_hyperplane(base)
            p1 = self._in_hyperplane(base)
            if _independent(p0, p1):
                return LineInFamily(family=family, base=base, p0=p0, p1=p1)
        raise RuntimeError("failed to sample an independent line")

    def _in_hyperplane(self, base):
        coords = [self.fraction() for _ in range(self.n)]
        last = -sum(b * c for b, c in zip(base[:-1], coords)) / base[-1]
        return tuple(coords + [last])

    def section11(self) -> BiPoly:
        """A random (1,1)-section, generically irreducible and transverse."""
        n = self.n
        out = BiPoly.zero(n)
        while out.is_zero:
            terms = {}
            for i in range(n + 1):
                for j in range(n + 1):
                    c = self.fraction()
                    if c:
                        key = [0] * (2 * n + 2)
                        key[i] = key[n + 1 + j] = 1
                        terms[tuple(key)] = c
            out = BiPoly(n, terms)
        return out

    def euler_form(self, bidegree) -> PolyOneForm:
        """A random form of the given bidegree with exact Euler vanishing,
        built from antisymmetric coefficient matrices; generically it is not
        integrable."""
        a, b = bidegree
        n = self.n
        coeffs = [BiPoly.zero(n) for _ in range(2 * (n + 1))]
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                g = self._random_bipoly((a - 2, b))
                coeffs[i] = coeffs[i] + g * BiPoly.x(n, j)
                coeffs[j] = coeffs[j] - g * BiPoly.x(n, i)
                h = self._random_bipoly((a, b - 2))
                coeffs[n + 1 + i] = coeffs[n + 1 + i] + h * BiPoly.y(n, j)
                coeffs[n + 1 + j] = coeffs[n + 1 + j] - h * BiPoly.y(n, i)
        return PolyOneForm(n, coeffs)

    def _random_bipoly(self, bidegree) -> BiPoly:
        a, b = bidegree
        if a < 0 or b < 0:
            return BiPoly.zero(self.n)
        n = self.n
        terms = {}
        for xe in _exponents(n + 1, a):
            for ye in _exponents(n + 1, b):
                c = self.fraction()
                if c:
                    terms[xe + ye] = c
        return BiPoly(n, terms)


def _exponents(nvars: int, total: int):
    if nvars == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _exponents(nvars - 1, total - first):
            yield (first,) + rest
