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
two charts x_0 != 0 and y_0 != 0, each by the normal form and exact
single-divisor divisions in a polynomial ring, on the components of
dq ^ dF ^ omega free of the chart's coordinate only (the Euler field of its
factor gives the others modulo (F, q)).  The predicates do not change when
a form is scaled, so they multiply only ints: a form is cleared of
denominators once, into ``PolyOneForm.integral``, and F once per
``is_invariant`` call.  Integrability and proportionality share one test,
dq ^ a ^ b in (q), run on the wedge components free of x_0 and y_0 only: both
Euler fields annihilate those wedges modulo q, so the other components follow
(``_euler_reduced``).  As a is a 1-form, the components of a ^ b through one
index i with a_i not in (q) decide a True answer (``_dq_wedge_in_q``).
``integrable``, ``is_invariant`` and ``same_foliation`` first evaluate their
form at an integer point of X (``witness``): a nonzero value proves False
exactly, and every True answer comes from the symbolic test.  Likewise
``has_divisorial_singularities`` rules out a coordinate section V(z) ^ X by
one nonzero coefficient value at an integer point of it, and divides by z
modulo q only when every value there is 0.  Pencils, pullbacks and ``log4``
are built by ``log_form``; the affine and torus foliations by
``foliation_from_fields`` from pairs of vector fields.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul

from .bipoly import (
    EXPONENT_BOUND,
    SCHEMA,
    BiPoly,
    _cleared,
    _divided,
    _integer_multiple,
    _is_exact,
    _same_ambient,
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
from .linalg import nullspace


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
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self


MINUS_INFINITY = _MinusInfinity()


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------


class PolyOneForm:
    """A global section of Omega^1(a, b) on P^n x P^n in ambient coordinates.

    ``coeffs[v]`` multiplies dx_v for v <= n and dy_{v-n-1} otherwise; the
    dx-coefficients are bihomogeneous of bidegree (a-1, b) and the
    dy-coefficients of bidegree (a, b-1).  Both Euler contractions
    sum x_i A_i and sum y_j B_j must vanish identically.  ``integral`` holds
    the coefficients times the lcm of all their denominators, in ints; it is
    ``coeffs`` itself when there is none.
    """

    __slots__ = ("n", "coeffs", "bidegree", "integral")

    def __init__(self, n: int, coeffs):
        n = n_from_json(n)
        if len(coeffs) != 2 * (n + 1):
            raise ValueError("need one coefficient per dx_i and dy_j")
        self.n = n
        self.coeffs = tuple(coeffs)
        for c in self.coeffs:
            _same_ambient(n, c.n)
        if all(c.is_zero for c in self.coeffs):
            raise ValueError("the zero form does not define a foliation")
        self.bidegree = self._check_bidegree()
        numerators, den = _cleared(*(c.terms for c in self.coeffs))
        self.integral = (self.coeffs if den == 1
                         else tuple(BiPoly._trusted(n, t) for t in numerators))
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
        """Raise unless sum x_i A_i and sum y_j B_j vanish, tested on
        ``integral``: z_v A_v is summed in ints by shifting exponents."""
        n = self.n
        for block in (range(n + 1), range(n + 1, 2 * n + 2)):
            sums: dict = {}
            get = sums.get
            for v in block:
                for key, c in self.integral[v].terms.items():
                    key = key[:v] + (key[v] + 1,) + key[v + 1 :]
                    sums[key] = get(key, 0) + c
            if any(sums.values()):
                raise ValueError("Euler contraction does not vanish")

    def as_dict(self) -> dict:
        return _form_dict(self.coeffs)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "n": self.n,
            "bidegree": list(self.bidegree),
            "dx": [terms_to_json(c) for c in self.coeffs[: self.n + 1]],
            "dy": [terms_to_json(c) for c in self.coeffs[self.n + 1 :]],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolyOneForm":
        """The form that ``to_json`` wrote.  ``"schema"`` and ``"bidegree"``
        may be left out; when present they must agree with ``SCHEMA`` and
        with the bidegree that the coefficients have."""
        if "schema" in data and data["schema"] != SCHEMA:
            raise ValueError(f"form schema {data['schema']!r} is not {SCHEMA!r}")
        n = n_from_json(data["n"])
        blocks = data["dx"], data["dy"]
        if any(len(block) != n + 1 for block in blocks):
            raise ValueError(f"dx and dy need {n + 1} coefficients each")
        form = cls(n, [terms_from_json(n, t) for block in blocks for t in block])
        if "bidegree" in data and data["bidegree"] != list(form.bidegree):
            raise ValueError(
                f"stated bidegree {data['bidegree']} is not the coefficients' "
                f"{list(form.bidegree)}"
            )
        return form


# generic exterior algebra on dicts {sorted var tuple: BiPoly}


def _form_dict(coeffs) -> dict:
    return {(v,): c for v, c in enumerate(coeffs) if not c.is_zero}


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
    exponent tuple packed by ``unit`` into one int (see ``_wedge_sum``)."""
    from_bytes = int.from_bytes
    pack = unit.pack
    return {
        key: [(from_bytes(pack(*mono), "big"), c) for mono, c in p.terms.items()]
        for key, p in form.items()
    }


def _max_exponent(form: dict) -> int:
    return max((max(mono) for p in form.values() for mono in p.terms), default=0)


def form_wedge(f: dict, g: dict, n: int) -> dict:
    """Wedge product f ^ g (see ``_wedge_sum``)."""
    return _wedge_sum(((f, g),), n)


def _wedge_sum(pairs, n: int) -> dict:
    """The sum of the wedge products f ^ g over a sequence of pairs (f, g),
    each output coefficient summed in one {monomial: coefficient} dict over
    all pairs of input terms, so only the nonzero sums are unpacked.

    Each exponent tuple is packed into one int with a 16-bit big-endian slot
    per variable, x_0 most significant, so a product of monomials is one
    integer addition.  A slot must not carry, so in each pair the largest
    exponents of f and g must sum to less than 2^16, else ValueError."""
    top = max(_max_exponent(f) + _max_exponent(g) for f, g in pairs)
    if top >= EXPONENT_BOUND:
        raise ValueError(
            f"exponent sum {top} does not fit the 16-bit packed monomial slots"
        )
    unit = struct.Struct(f">{2 * n + 2}H")
    acc: dict = {}  # key of dz_I ^ dz_J -> {packed monomial: coefficient}
    for f, g in pairs:
        fp, gp = _packed_components(f, unit), _packed_components(g, unit)
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
    that makes the form a well-defined projective 1-form.  Each residue must
    be an int or a Fraction, else ValueError.  Every built-in
    except ``affine`` and ``torus`` is one of these (Calvo-Andrade,
    Math. Ann. 299, 1994; Cerveau-Lins Neto, Ann. of Math. 143, 1996).
    """
    if len(residues) != len(factors) or not factors:
        raise ValueError("need matching nonempty residue and factor lists")
    if not all(_is_exact(r) for r in residues):
        raise ValueError("residues must be ints or Fractions")
    residues = [Fraction(r) for r in residues]
    n = factors[0].n
    degs = []
    for f in factors:
        _same_ambient(n, f.n)
        if f.is_zero:
            raise ValueError("zero factor in a logarithmic form")
        degs.append(f.bidegree())
    total = [sum(r * d[k] for r, d in zip(residues, degs)) for k in (0, 1)]
    if any(total):
        raise ValueError("residue condition violated: sum lambda_i deg_i = "
                         f"({total[0]}, {total[1]}), not (0,0)")
    # with f_i = g_i / d_i and lambda_i = s_i / S, the form is
    # sum_i s_i (prod_{j != i} g_j) dg_i / (S prod_j d_j), summed in ints
    cleared = [_cleared(f.terms) for f in factors]
    ints = [BiPoly._trusted(n, g) for (g,), _ in cleared]
    (scaled,), scale = _cleared(dict(enumerate(residues)))
    den = scale * reduce(mul, (d for _, d in cleared))
    coeffs = [BiPoly.zero(n) for _ in range(2 * (n + 1))]
    for i, gi in enumerate(ints):
        cofactor = reduce(mul, ints[:i] + ints[i + 1 :], BiPoly.const(n, scaled[i]))
        for v in range(2 * (n + 1)):
            dv = gi.dvar(v)
            if dv:
                coeffs[v] = coeffs[v] + cofactor * dv
    if all(c.is_zero for c in coeffs):
        raise ValueError("degenerate logarithmic form (identically zero)")
    return PolyOneForm(n, [BiPoly._trusted(n, _divided(c.terms, den)) for c in coeffs])


def builtin_pullback(degree: int, n: int) -> PolyOneForm:
    """pi_1-pullback of a standard integrable foliation on P^n, as a
    logarithmic form in x alone: degree 0 is the pencil of hyperplanes
    x0 dx1 - x1 dx0 (residues (1, -1) on (x1, x0)), degree 1 is
    2h dx0 - x0 dh with h = x1 x2 - x0^2 (residues (2, -1) on (x0, h)), whose
    rational first integral is x0^2 / h."""
    if type(degree) is not int or degree not in (0, 1):
        raise ValueError("only pullback degrees 0 and 1 are built in")
    x = lambda i: BiPoly.x(n, i)
    if degree == 0:
        return log_form([1, -1], [x(1), x(0)])
    return log_form([2, -1], [x(0), x(1) * x(2) - x(0) * x(0)])


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
    """Is dq ^ a ^ b in (q)?  a is an Euler-reduced 1-form dict and b an
    Euler-reduced form dict, so the 4- or 3-form tested is reduced too
    (``_euler_reduced``).

    As a ^ a ^ b = 0, contracting with d/dz_i gives
    a_i (a ^ b) = a ^ i_{d/dz_i}(a ^ b): on a key K without i,
    a_i (a ^ b)_K = sum_{j in K} +-a_j (a ^ b)_{K - j + i}, and every term on
    the right passes through i.  (q) is prime, so if a_i is not in (q) and
    every component through i is, all of a ^ b is in (q): True.  If every a_i
    is in (q), so is a ^ b.  Otherwise a_rest ^ b_rest, whose keys avoid i,
    completes a ^ b and dq ^ a ^ b is tested in full; no product is computed
    twice."""
    i = next((k for k, p in a.items() if not is_zero_mod_quadric(p)), None)
    if i is None:
        return True
    (v,) = i
    a_rest = {k: p for k, p in a.items() if k != i}
    b_i = {k: p for k, p in b.items() if v in k}
    b_rest = {k: p for k, p in b.items() if v not in k}
    # a ^ b through i is a_rest ^ b_i + a_i dz_i ^ b_rest, in one accumulator
    through = _wedge_sum(((a_rest, b_i), ({i: a[i]}, b_rest)), n)
    if all(is_zero_mod_quadric(c) for c in through.values()):
        return True
    ab = {**through, **form_wedge(a_rest, b_rest, n)}
    dq_ab = form_wedge(_euler_reduced(dq_form(n), n), ab, n)
    return all(is_zero_mod_quadric(c) for c in dq_ab.values())


def _integrable_symbolic(omega: PolyOneForm) -> bool:
    n = omega.n
    w = _euler_reduced(_form_dict(omega.integral), n)
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
    y_0 != 0, each by exact divisions of chart images of the components of
    dq ^ dF ^ omega free of that chart's coordinate
    (``_is_invariant_symbolic`` has the proof that these suffice).

    A nonzero constant F raises ``ValueError``: V(F) ^ X is empty.  At n = 1,
    X is a curve, every point of it is a leaf, and every V(F) ^ X with F
    nonconstant and not in (q) is invariant.
    """
    _same_ambient(omega.n, f.n)
    if f.is_zero:
        raise ValueError("invariance of the zero divisor is undefined")
    # V(F) is a subvariety of P^n x P^n only if F is bihomogeneous
    if f.bidegree() == (0, 0):
        raise ValueError("F is a nonzero constant, so V(F) ^ X is empty")
    if omega.n == 1:
        if normal_form_mod_q(f).is_zero:
            raise ValueError("F lies in the ideal of X")
        return True
    f = BiPoly._trusted(f.n, _cleared(f.terms)[0][0])
    refuted = witness.invariance_witness(omega, f) is not None
    return not refuted and _is_invariant_symbolic(omega, f)


def _is_invariant_symbolic(omega: PolyOneForm, f: BiPoly) -> bool:
    """Is eta = dq ^ dF ^ omega in (F, q)?  Decided on the charts x_0 != 0
    and y_0 != 0, each on the components of eta free of its coordinate.

    Two charts decide g in (F, q).  q is prime and F is not in (q), so
    (F, q) is a complete intersection, and complete intersections are
    unmixed: every associated prime has height 2 (Matsumura, Commutative
    Ring Theory, Thm 17.4).  (x_0, y_0, q) has height 3 for n >= 1, so no
    associated prime contains both x_0 and y_0, and g lies in (F, q) iff it
    does after inverting x_0 and after inverting y_0.  On the chart
    x_0 != 0 the ring modulo q is a localization of the polynomial ring
    without y_0, a UFD, so membership is divisibility of chart images.

    Let R be the Euler field of x and d the x-degree of F.  As i_R dq = q,
    i_R dF = d F and i_R omega = 0, i_R eta = q dF ^ omega - d F dq ^ omega,
    which is 0 modulo (F, q).  Read along dz_J, J free of x_0, this gives
    x_0 eta_{0J} = -sum_{i>=1} +-x_i eta_{iJ} modulo (F, q), and x_0 is a
    unit on its chart, so there the components free of x_0 decide; likewise
    y_0 with the Euler field of y.  This is not ``_euler_reduced``: each
    rule needs its own coordinate inverted, and (F, q) need not be prime, so
    the components free of both x_0 and y_0 would answer True for F = x_0.
    A component free of the chart's coordinate comes only from such
    components of the factors, so each factor is reduced before the wedge.
    """
    n = omega.n
    charts = (0, n + 1)  # x_0 and y_0
    f_images = [_chart_image(f, chart) for chart in charts]
    if not all(f_images):
        raise ValueError("F lies in the ideal of X")
    factors = (dq_form(n), form_d({(): f}, n), _form_dict(omega.integral))
    for chart, f_image in zip(charts, f_images):
        dq, df, w = ({k: p for k, p in g.items() if chart not in k} for g in factors)
        three = form_wedge(form_wedge(dq, df, n), w, n)
        if any(poly_divexact(_chart_image(c, chart), f_image) is None
               for c in three.values()):
            return False
    return True


def has_divisorial_singularities(omega: PolyOneForm) -> bool:
    """Does the zero scheme of omega on X contain a divisor?  True is a
    proof; False is not.

    True means that every coefficient vanishes on one coordinate section
    V(z) ^ X (tested modulo q), or that the coefficients share an ambient
    factor.  For each coordinate z_v the coefficients are first evaluated,
    in ints, at the point ``witness.coordinate_section_point(n, v)`` of
    V(z_v) ^ X: every polynomial in (z_v, q) vanishes there, so one nonzero
    value proves that z_v fails.  Only when all vanish does the exact
    division by z_v modulo q decide.  A form in (q), zero on X, passes the
    coordinate test, since (q) lies in every (z, q), and so never reaches
    the gcd.  The gcd half of a False answer is proved: ``poly_gcd_list``
    answers 1 for the whole coefficient list by its mod-p certificate, or
    else by the exact PRS.  A divisor V(h) ^ X with h neither a coordinate
    nor a common factor of the coefficients is still missed: the
    coefficients can lie in (h, q) with ambient gcd 1, and the answer is
    then False.
    """
    n = omega.n
    coeffs = [c for c in omega.integral if not c.is_zero]
    for v in range(2 * (n + 1)):
        x, y = witness.coordinate_section_point(n, v)
        if any(c.eval_point(x, y) for c in coeffs):
            continue
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
        if type(self.family) is not int or self.family not in (1, 2):
            raise ValueError("family must be 1 or 2")
        if not len(self.base) == len(self.p0) == len(self.p1):
            raise ValueError("base, p0 and p1 need the same number of coordinates")
        if not all(_is_exact(a) for a in (*self.base, *self.p0, *self.p1)):
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

    Every value is an int: the block is read from ``omega.integral``, base
    is scaled by one integer and p0, p1 by another.  U is bihomogeneous, of
    degree d - 1 in the moving point and linear in the contraction vector
    p0, so scaling the block by c, base by l and p0, p1 by m turns each
    U(1, k) into c * l^e * m^d * U(1, k), with e the block's degree in the
    base factor.  That factor is nonzero, so no zero test changes.
    """
    n = omega.n
    if len(line.base) != n + 1:
        raise ValueError(f"line points need n + 1 = {n + 1} coordinates")
    numerics = foliation_numerics(omega.bidegree, n)
    if line.family == 1:
        d, block, degree = omega.bidegree[1], omega.integral[n + 1 :], numerics.deg_H1
    else:
        d, block, degree = omega.bidegree[0], omega.integral[: n + 1], numerics.deg_H2
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


def family_degree(omega: PolyOneForm, family: int):
    """The degree of the foliation against the general line of a family:
    ``foliation_numerics``' deg_H1 (family 1) or deg_H2 (family 2), or
    MINUS_INFINITY when the general line lies in a leaf.

    A line of family 1 fixes x and moves y inside x^perp.  The general one
    lies in a leaf iff all do, iff the dy-block of omega kills x^perp at
    every point of X, that is iff it is parallel to x there: every minor
    omega_{y_i} x_j - omega_{y_j} x_i lies in (q), which is prime.  These
    minors are the dy ^ dy components of omega ^ dq, the wedge of the
    dy-blocks of omega and dq.  Family 2 swaps the blocks.  Adding q alpha
    to omega changes no minor modulo q.
    """
    if type(family) is not int or family not in (1, 2):
        raise ValueError("family must be 1 or 2")
    n = omega.n
    if n < 2:
        raise ValueError(f"at n = {n} the fibres of X are points, so they hold no lines")
    numerics = foliation_numerics(omega.bidegree, n)
    if family == 1:
        degree, moving = numerics.deg_H1, lambda v: v > n
    else:
        degree, moving = numerics.deg_H2, lambda v: v <= n
    omega_part, dq_part = ({k: c for k, c in f.items() if moving(k[0])}
                           for f in (_form_dict(omega.integral), dq_form(n)))
    minors = form_wedge(omega_part, dq_part, n).values()
    return degree if any(not is_zero_mod_quadric(m) for m in minors) else MINUS_INFINITY


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
    """The vector field of an (n+1) x (n+1) matrix A acting as x -> Ax on
    the first factor and y -> -A^T y on the second.  It kills q exactly for
    every A, since sum (Ax)_i y_i = sum x_j (A^T y)_j; the identity gives
    the difference of the two Euler fields, which is zero on P^n x P^n.
    Entries must be ints or Fractions, and n an int >= 1."""
    n = n_from_json(n)
    if len(matrix) != n + 1 or any(len(row) != n + 1 for row in matrix):
        raise ValueError(f"linear_field at n = {n} needs an {n + 1} x {n + 1} matrix")
    if not all(_is_exact(a) for row in matrix for a in row):
        raise ValueError("matrix entries must be ints or Fractions")
    comps = []
    for i in range(n + 1):
        c = BiPoly.zero(n)
        for j in range(n + 1):
            if matrix[i][j]:
                c = c + BiPoly.x(n, j) * matrix[i][j]
        comps.append(c)
    for j in range(n + 1):
        c = BiPoly.zero(n)
        for i in range(n + 1):
            if matrix[i][j]:
                c = c - BiPoly.y(n, i) * matrix[i][j]
        comps.append(c)
    return tuple(comps)


def field_apply(field, f: BiPoly) -> BiPoly:
    out = BiPoly.zero(f.n)
    for v, comp in enumerate(field):
        if not comp.is_zero:
            out = out + comp * f.dvar(v)
    return out


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
    solver returns a primitive integer vector, so the output does not depend
    on the scale of either field.

    A one-dimensional solution space is the foliation; dimension zero means
    no foliation of bidegree (2, 2) (raise).  The fields have already passed
    the independence test, so a higher dimension means their foliation has
    a normal bundle O_X(a, b) below O_X(2, 2): with omega' its form, every
    g omega' with g in H^0(O_X(2 - a, 2 - b)) solves the equations (raise).
    """
    n = _fields_ambient(v1, v2)
    if n != 2:
        raise ValueError("vector-field foliations are implemented for n = 2")
    # scaling a field keeps its foliation, so each is cleared once: every
    # point value and equation row below is an int, as nullspace requires
    v1, v2 = (tuple(BiPoly._trusted(n, t) for t in _cleared(*(c.terms for c in v))[0])
              for v in (v1, v2))
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

    # one row per (equation, monomial), built from exponent sums: the Euler
    # contractions vanish identically, and omega(v_k) = 0 mod q, where the
    # normal form is linear, so each product of monomials is reduced once
    reduced: dict = {}  # monomial -> its normal form's terms
    equations: dict = {}
    for col, (v, m) in enumerate(columns):
        euler = tuple(e + (k == v) for k, e in enumerate(m))
        equations.setdefault(("ex" if v <= n else "ey", euler), {})[col] = 1
        for tag, field in (("v1", v1), ("v2", v2)):
            for fkey, c in field[v].terms.items():
                key = tuple(map(add, m, fkey))
                if key not in reduced:
                    reduced[key] = normal_form_mod_q(BiPoly._trusted(n, {key: 1})).terms
                for nkey, d in reduced[key].items():
                    row = equations.setdefault((tag, nkey), {})
                    row[col] = row.get(col, 0) + c * d

    kernel = nullspace(list(equations.values()), len(columns))
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
    # Signed to a positive leading coefficient on the first nonzero block,
    # for reproducible output.  There is no polynomial content to divide
    # out: were omega = g omega' with g of bidegree (a, b) != (0, 0), every
    # h omega' with h in H^0(O_X(a, b)) would solve the same equations,
    # their classes modulo the junk would span h^0(O_X(a, b)) >= 2
    # dimensions, and the kernel would not be one-dimensional.
    lead = next(t for t in terms if t)
    sign = 1 if lead[max(lead)] > 0 else -1
    coeffs = [BiPoly(n, {m: c * sign for m, c in t.items()}) for t in terms]
    return PolyOneForm(n, coeffs)


def _fields_ambient(v1, v2) -> int:
    """The n of the P^n x P^n both fields live on, each with one component
    per x_i and y_j."""
    if not v1 or not v2:
        raise ValueError("a vector field has 2n+2 components, one per x_i and y_j, not 0")
    n = v1[0].n
    for v in (v1, v2):
        for c in v:
            _same_ambient(n, c.n)
        if len(v) != 2 * n + 2:
            raise ValueError(
                f"a vector field on P^{n} x P^{n} has {2 * n + 2} components, "
                f"one per x_i and y_j, not {len(v)}"
            )
    return n


def _fields_independent(v1, v2) -> bool:
    """Are v1 and v2 independent on X, that is, are v1, v2 and the Euler
    fields R_x, R_y independent modulo q?  R_x and R_y are tangent to the
    cone over X and zero on P^n x P^n, so this holds iff some 4 x 4 minor
    of the 4 x (2n+2) matrix of components is nonzero modulo q.  One
    integer point of X settles the common case; only if the four values
    there are dependent are the minors, the components of
    v1 ^ v2 ^ R_x ^ R_y, tested symbolically.  The fields' coefficients
    must be ints, since ``nullspace`` takes int rows."""
    n = v1[0].n
    x, y = witness.fixed_point(n)
    euler = [x + (0,) * (n + 1), (0,) * (n + 1) + y]
    values = [[c.eval_point(x, y) for c in v] for v in (v1, v2)] + euler
    columns = [{r: vec[k] for r, vec in enumerate(values) if vec[k]}
               for k in range(2 * n + 2)]
    if not nullspace(columns, 4):
        return True
    v1v2 = form_wedge(*({(k,): c for k, c in enumerate(v)} for v in (v1, v2)), n)
    r_x = {(i,): BiPoly.x(n, i) for i in range(n + 1)}
    r_y = {(n + 1 + j,): BiPoly.y(n, j) for j in range(n + 1)}
    minors = form_wedge(v1v2, form_wedge(r_x, r_y, n), n)
    return any(not is_zero_mod_quadric(m) for m in minors.values())


def same_foliation(w1: PolyOneForm, w2: PolyOneForm) -> bool:
    """Do two forms cut out the same foliation on X?  True iff
    dq ^ w1 ^ w2 = 0 mod q (proportionality along X up to the conormal)."""
    _same_ambient(w1.n, w2.n)
    refuted = witness.proportionality_witness(w1, w2) is not None
    return not refuted and _same_foliation_symbolic(w1, w2)


def _same_foliation_symbolic(w1: PolyOneForm, w2: PolyOneForm) -> bool:
    n = w1.n
    f1, f2 = (_euler_reduced(_form_dict(w.integral), n) for w in (w1, w2))
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
    return (omega, *_affine_conics(n))


def _affine_conics(n: int):
    """The conic orbit closure x1^2 - 4 x0 x2 of the affine action and its
    dual y1^2 - y0 y2 on the second factor, on P^n x P^n for any n >= 2."""
    if n < 2:
        raise ValueError(f"the conics need n >= 2, not n = {n}")
    x = lambda i: BiPoly.x(n, i)
    y = lambda j: BiPoly.y(n, j)
    return x(1) * x(1) - x(0) * x(2) * 4, y(1) * y(1) - y(0) * y(2)


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
    _same_ambient(n, sampler.n)
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
        if type(height) is not int or height < 1:
            raise ValueError(f"the height bound must be an int >= 1, not {height!r}")
        self.n = n_from_json(n)
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
