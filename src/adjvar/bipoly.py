"""Exact bihomogeneous polynomial arithmetic on P^n x P^n.

Polynomials live in Q[x_0..x_n, y_0..y_n] with terms stored sparsely as
exponent tuple -> coefficient, one tuple of 2n+2 exponents per monomial in
the flat variable order x_0..x_n, y_0..y_n; flat index v names x_v for
v <= n and y_{v-n-1} otherwise.  Lexicographic order on these tuples is the
order of the (x-exponents, y-exponents) pairs, so the leading terms and the
sorted JSON encoding do not depend on the split.

A number is exact when it is an ``int`` or a ``fractions.Fraction`` and not
a ``bool`` (``_is_exact``); this module alone decides it.  A coefficient is
a nonzero int when it is integral and a Fraction with denominator > 1
otherwise; any other value, zero or not, such as a float, a bool or a
string, raises ValueError.  ``str`` gives the same text for both types.
Callers that divide two coefficients write ``Fraction(a, b)``, never
``a / b``.  Sums and products take polynomials on one P^n x P^n (else
ValueError) and, for a product, exact numbers (else TypeError).

Denominators are cleared here too: ``_cleared`` writes coefficient dicts as
integer numerators over one common denominator, and ``_integer_multiple``
scales a vector.  A product clears each factor, multiplies and sums the
numerators in ints, and divides each nonzero sum once by the product of the
two denominators, so a product of integer polynomials never leaves ints.

Everything downstream needs only four primitives, all implemented here with
no dependencies: multivariate gcd, exact single-divisor division, the normal
form modulo the incidence quadric q = sum x_i y_i, and exact division by a
coordinate modulo q.  Pseudo-reduction modulo q in a chosen variable
(``reduce_mod_quadric``) stays as the tests' independent oracle for the
normal form.

The gcd of a list clears each member of denominators and asks
``linalg._coprime_certificate``, the one home of mod-p arithmetic, to prove
the integer polynomials coprime.  Any other list is folded with recursive
content extraction and a primitive pseudo-remainder sequence (PRS), which
computes every nonconstant gcd.  The gcd of two is that of the list of two.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd, lcm
from operator import add, sub

from .linalg import _coprime_certificate

Term = tuple[int, ...]


def _is_exact(c) -> bool:
    """Is c an int or a Fraction, and not a bool (which is not a number)?"""
    return isinstance(c, (int, Fraction)) and not isinstance(c, bool)


def _canonical(c):
    """The coefficient c as an int when it is integral, else a Fraction;
    raises ValueError unless c is exact."""
    if type(c) is not Fraction:
        if not _is_exact(c):
            raise ValueError(f"a coefficient must be an int or a Fraction, got {c!r}")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _settle(sums: dict) -> dict:
    """The nonzero entries of a {monomial: coefficient} dict, canonical; a
    coefficient that is not exact raises ValueError even when it is zero."""
    return {k: v for k, c in sums.items()
            if (v := c if type(c) is int else _canonical(c))}


def _cleared(*dicts) -> tuple:
    """(numerators, den): den is the lcm of the denominators of all values of
    the {key: int or Fraction} dicts and numerators lists the {key: int}
    dicts den * d; the dicts themselves and 1 when every value is an int."""
    dens = {c.denominator for d in dicts for c in d.values() if type(c) is not int}
    if not dens:
        return dicts, 1
    den = lcm(*dens)
    return [{k: c.numerator * (den // c.denominator) for k, c in d.items()}
            for d in dicts], den


def _integer_multiple(values) -> list:
    """``_cleared`` for a vector: times the lcm of its denominators, as ints."""
    scale = lcm(*(a.denominator for a in values))
    return [a.numerator * (scale // a.denominator) for a in values]


def _same_ambient(n1: int, n2: int) -> None:
    if n1 != n2:
        raise ValueError(f"the inputs live on P^{n1} x P^{n1} and P^{n2} x P^{n2}")


def _divided(sums: dict, den: int) -> dict:
    """The nonzero entries of an {monomial: int} dict, each divided by the
    int den > 0: an int when den divides it, else a Fraction."""
    if den == 1:
        return {k: c for k, c in sums.items() if c}
    out = {}
    for k, c in sums.items():
        if c:
            q, r = divmod(c, den)
            out[k] = Fraction(c, den) if r else q
    return out


class BiPoly:
    """Sparse polynomial in the bigraded ring of P^n x P^n over Q."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n_from_json(n)
        terms = terms or {}
        for k in terms:
            if len(k) != 2 * n + 2 or type(sum(k)) is not int or min(k) < 0:
                raise ValueError(
                    f"monomial {k!r} is not {2 * n + 2} non-negative integer "
                    f"exponents on P^{n} x P^{n}"
                )
        self.terms = _settle(terms)

    @classmethod
    def _trusted(cls, n: int, terms: dict) -> "BiPoly":
        """Wrap terms whose coefficients are already canonical and nonzero,
        on a checked n, without copying or checking them."""
        out = object.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "BiPoly":
        return cls(n)

    @classmethod
    def const(cls, n: int, c) -> "BiPoly":
        return cls(n, {(0,) * (2 * n_from_json(n) + 2): c})

    @classmethod
    def x(cls, n: int, i: int) -> "BiPoly":
        return cls._trusted(n, {_unit_exponent(n, i, "x"): 1})

    @classmethod
    def y(cls, n: int, j: int) -> "BiPoly":
        return cls._trusted(n, {_unit_exponent(n, j, "y"): 1})

    @classmethod
    def incidence_quadric(cls, n: int) -> "BiPoly":
        """q = sum_i x_i y_i, the equation of the hyperplane section."""
        return cls._trusted(n, {
            tuple(map(add, _unit_exponent(n, i, "x"), _unit_exponent(n, i, "y"))): 1
            for i in range(n + 1)
        })

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        _same_ambient(self.n, other.n)
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key, 0) + c
            if not v:
                del out[key]
            else:
                out[key] = v if type(v) is int else _canonical(v)
        return BiPoly._trusted(self.n, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BiPoly._trusted(self.n, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if _is_exact(other):
            return BiPoly._trusted(
                self.n, _settle({k: c * other for k, c in self.terms.items()})
            )
        if not isinstance(other, BiPoly):
            return NotImplemented
        _same_ambient(self.n, other.n)
        (num_a,), den_a = _cleared(self.terms)
        (num_b,), den_b = _cleared(other.terms)
        out: dict[Term, int] = {}
        get = out.get
        for ka, ca in num_a.items():
            for kb, cb in num_b.items():
                key = tuple(map(add, ka, kb))
                out[key] = get(key, 0) + ca * cb
        return BiPoly._trusted(self.n, _divided(out, den_a * den_b))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, BiPoly) and self.n == other.n
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if self.is_zero:
            return "BiPoly(0)"
        names = [f"x{i}" for i in range(self.n + 1)]
        names += [f"y{j}" for j in range(self.n + 1)]
        bits = []
        for key, c in sorted(self.terms.items()):
            mono = "".join(
                f"{z}^{e}" if e > 1 else (z if e else "") for z, e in zip(names, key)
            )
            bits.append(f"{c}*{mono or '1'}")
        return " + ".join(bits)

    # -- degrees -----------------------------------------------------------
    def bidegree(self):
        """The (x-degree, y-degree) pair; raises unless bihomogeneous."""
        if self.is_zero:
            return None
        n1 = self.n + 1
        degs = {(sum(key[:n1]), sum(key[n1:])) for key in self.terms}
        if len(degs) != 1:
            raise ValueError(f"polynomial is not bihomogeneous: degrees {degs}")
        return degs.pop()

    # -- calculus ----------------------------------------------------------
    def dvar(self, v: int) -> "BiPoly":
        """Partial derivative by flat variable index (x_0..x_n, y_0..y_n)."""
        return BiPoly(
            self.n,
            {_set_exp(key, v, key[v] - 1): c * key[v]
             for key, c in self.terms.items() if key[v]},
        )

    # -- evaluation --------------------------------------------------------
    def eval_point(self, xs, ys):
        """The exact value at the point with coordinates xs, ys; an int when
        the coefficients and coordinates are ints."""
        point = tuple(xs) + tuple(ys)
        total = 0
        for key, c in self.terms.items():
            v = c
            for b, e in zip(point, key):
                if e:
                    v *= b**e
            total += v
        return total

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        return {"n": self.n, "terms": terms_to_json(self)}

    @classmethod
    def from_json(cls, data: dict) -> "BiPoly":
        """The polynomial that ``to_json`` wrote; a ``"schema"`` key may be
        left out, but when present it must be ``SCHEMA``."""
        if "schema" in data and data["schema"] != SCHEMA:
            raise ValueError(f"surface schema {data['schema']!r} is not {SCHEMA!r}")
        return terms_from_json(n_from_json(data["n"]), data["terms"])

    # -- content -----------------------------------------------------------
    def content(self) -> Fraction:
        """Positive rational c with self/c primitive over the integers."""
        if self.is_zero:
            return Fraction(1)
        (num,), den = _cleared(self.terms)
        return Fraction(int_gcd(*num.values()), den)

    def primitive(self) -> "BiPoly":
        c = self.content()
        lead = self.terms[max(self.terms)] if self.terms else Fraction(1)
        if lead < 0:
            c = -c
        return self * Fraction(1, c) if c != 1 else self


def _unit_exponent(n: int, index: int, name: str) -> Term:
    """The exponent tuple of the coordinate name_index (name "x" or "y") on
    P^n x P^n; raises ValueError unless n is an int, as by
    :func:`n_from_json`, and index an int in 0..n with n >= 1: no coordinate
    exists on an n below 1."""
    if type(n) is not int:
        n_from_json(n)
    if type(index) is not int or not 0 <= index <= n or n < 1:
        raise ValueError(f"coordinate {name}_{index} does not exist on P^{n}")
    v = index if name == "x" else n + 1 + index
    return tuple(1 if k == v else 0 for k in range(2 * n + 2))


# -- JSON term encoding --------------------------------------------------------


def terms_to_json(p: BiPoly) -> list:
    """The terms of p as sorted {"x": exponents, "y": exponents, "c": "p/q"}
    records; the one encoding used by every JSON output."""
    n1 = p.n + 1
    return [
        {"x": list(key[:n1]), "y": list(key[n1:]), "c": str(c)}
        for key, c in sorted(p.terms.items())
    ]


#: the JSON schema marker of a form, a surface and every ``adjvar`` JSON output
SCHEMA = "1"

#: exponents in a form or surface file stay below the 16-bit monomial slots
#: of ``folforms.form_wedge``
EXPONENT_BOUND = 1 << 16


def n_from_json(value) -> int:
    """The "n" of a form or surface JSON; raises ValueError unless it is a
    JSON integer >= 1 (a float such as 2.7, a bool or a string is not)."""
    if type(value) is not int or value < 1:
        raise ValueError(f'"n" must be an integer >= 1, got {value!r}')
    return value


def _exponents_from_json(values, n: int) -> tuple[int, ...]:
    if (
        not isinstance(values, list)
        or len(values) != n + 1
        or any(type(e) is not int or not 0 <= e < EXPONENT_BOUND for e in values)
    ):
        raise ValueError(
            f"exponents must be a list of {n + 1} non-negative integers "
            f"below 2^16, got {values!r}"
        )
    return tuple(values)


def terms_from_json(n: int, items) -> BiPoly:
    """Inverse of terms_to_json; raises ValueError on an exponent list of the
    wrong length or an exponent that is not an integer in 0..2^16 - 1, on a
    coefficient that is a float or a bool (a JSON 0.1 is not 1/10) or has a
    zero denominator, and on a repeated monomial."""
    terms = {}
    for t in items:
        key = _exponents_from_json(t["x"], n) + _exponents_from_json(t["y"], n)
        c = t["c"]
        if isinstance(c, (bool, float)):
            raise ValueError(
                f'a coefficient must be an integer or a "p/q" string, got {c!r}'
            )
        if key in terms:
            raise ValueError(f"repeated monomial x={t['x']} y={t['y']}")
        try:
            terms[key] = Fraction(c)
        except ZeroDivisionError:
            raise ValueError(
                f"zero denominator in the coefficient {c!r} of x={t['x']} y={t['y']}"
            ) from None
    return BiPoly(n, terms)


# -- flat-variable helpers used by gcd/division ------------------------------


def _set_exp(key: Term, v: int, value: int) -> Term:
    return key[:v] + (value,) + key[v + 1 :]


def used_vars(f: BiPoly):
    return {v for key in f.terms for v, e in enumerate(key) if e}


def var_degree(f: BiPoly, v: int) -> int:
    if f.is_zero:
        return -1
    return max(key[v] for key in f.terms)


def var_coefficient(f: BiPoly, v: int, k: int) -> BiPoly:
    """Coefficient of (flat var v)^k, with that variable's exponent zeroed."""
    return BiPoly._trusted(
        f.n, {_set_exp(key, v, 0): c for key, c in f.terms.items() if key[v] == k}
    )


def var_shift(f: BiPoly, v: int, k: int) -> BiPoly:
    """Multiply by (flat var v)^k; a negative k divides, and needs every
    term's exponent of v to be at least -k."""
    return BiPoly._trusted(
        f.n, {_set_exp(key, v, key[v] + k): c for key, c in f.terms.items()}
    )


def poly_divexact(f: BiPoly, g: BiPoly):
    """Quotient f/g when g divides f exactly, else None."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return BiPoly.zero(f.n)
    gkey = max(g.terms)
    gc = g.terms[gkey]
    q: dict[Term, int | Fraction] = {}
    r = dict(f.terms)  # the remainder, updated in place
    while r:
        rkey = max(r)
        qkey = tuple(map(sub, rkey, gkey))
        if min(qkey) < 0:
            return None
        c = q[qkey] = _canonical(Fraction(r[rkey], gc))
        for key, cg in g.terms.items():
            key = tuple(map(add, qkey, key))
            v = r.get(key, 0) - c * cg
            if v:
                r[key] = v
            else:
                del r[key]
    return BiPoly._trusted(f.n, q)


def _pseudo_rem(f: BiPoly, g: BiPoly, v: int) -> BiPoly:
    """Pseudo-remainder of f by g as univariate polynomials in flat var v."""
    df, dg = var_degree(f, v), var_degree(g, v)
    lc = var_coefficient(g, v, dg)
    r = f
    while not r.is_zero and var_degree(r, v) >= dg:
        dr = var_degree(r, v)
        lr = var_coefficient(r, v, dr)
        r = lc * r - var_shift(lr, v, dr - dg) * g
    return r


def _content_wrt(f: BiPoly, v: int):
    """(content, primitive part) of f as a univariate polynomial in v."""
    parts = [var_coefficient(f, v, k) for k in range(var_degree(f, v) + 1)]
    cont = BiPoly.zero(f.n)
    for p in parts:
        cont = _prs_gcd(cont, p)
    pp = poly_divexact(f, cont)
    if pp is None:
        raise ArithmeticError("content failed to divide its polynomial")
    return cont, pp


def poly_gcd(f: BiPoly, g: BiPoly) -> BiPoly:
    """Primitive multivariate gcd over Q of two polynomials: the gcd of the
    list (f, g)."""
    return poly_gcd_list((f, g))


def _prs_gcd(f: BiPoly, g: BiPoly) -> BiPoly:
    """Primitive multivariate gcd over Q, by recursive content extraction
    variable by variable and a primitive pseudo-remainder sequence."""
    if f.is_zero:
        return g.primitive()
    if g.is_zero:
        return f.primitive()
    vs = used_vars(f) | used_vars(g)
    if not vs:
        return BiPoly.const(f.n, 1)
    v = max(vs)
    if var_degree(g, v) == 0:
        return _prs_gcd(_content_wrt(f, v)[0], g)
    if var_degree(f, v) == 0:
        return _prs_gcd(f, _content_wrt(g, v)[0])
    if var_degree(f, v) < var_degree(g, v):
        f, g = g, f
    cf, pf = _content_wrt(f, v)
    cg, pg = _content_wrt(g, v)
    cont = _prs_gcd(cf, cg)
    a, b = pf, pg
    while True:
        r = _pseudo_rem(a, b, v)
        if r.is_zero:
            return (cont * b).primitive()
        if var_degree(r, v) == 0:
            # primitive parts share no factor involving v
            return cont.primitive()
        a, b = b, _content_wrt(r, v)[1]


def poly_gcd_list(polys) -> BiPoly | None:
    """Primitive multivariate gcd over Q of the polynomials in ``polys``:
    None for no polynomial, 0 when all of them are 0.

    A coprime list is proved so by ``linalg._coprime_certificate`` and gets
    1 at once.  Any other list, one with a common factor or one the
    certificate leaves undecided, is folded with ``_prs_gcd``, stopped once
    the running gcd is constant."""
    polys = list(polys)
    nonzero = [p for p in polys if p]
    if not nonzero:
        return polys[0] if polys else None
    # each input is cleared on its own: over one common denominator, an
    # input could vanish mod p
    if _coprime_certificate([_cleared(p.terms)[0][0] for p in nonzero]):
        return BiPoly.const(nonzero[0].n, 1)
    out = nonzero[0]
    for p in nonzero[1:]:
        out = _prs_gcd(out, p)
        if not used_vars(out):
            break
    return out.primitive()


def reduce_mod_quadric(f: BiPoly, elim: int | None = None) -> BiPoly:
    """Pseudo-remainder of f by q = sum x_i y_i, eliminating one variable.

    ``elim`` is the flat index of the variable solved for (default y_0); its
    partner coordinate is the leading coefficient of q in that variable.
    Returns r free of the eliminated variable with partner^k f = h q + r;
    since q is prime and coordinates are not in (q), f lies in (q) iff r = 0.
    No library code calls it: it is the tests' independent oracle for
    ``normal_form_mod_q`` and for the chart images of ``folforms``, which
    take the normal form of partner^k f instead.
    """
    if elim is None:
        elim = f.n + 1  # y_0
    return _pseudo_rem(f, BiPoly.incidence_quadric(f.n), elim)


@lru_cache(maxsize=None)
def _q_shifts(n: int) -> tuple:
    """The exponent shifts that trade the factor x_0 y_0 for x_i y_i,
    i = 1..n: key + shift."""
    y0 = n + 1
    return tuple(
        tuple(-1 if k in (0, y0) else 1 if k in (i, y0 + i) else 0
              for k in range(2 * n + 2))
        for i in range(1, n + 1)
    )


def normal_form_mod_q(p: BiPoly) -> BiPoly:
    """The remainder of p modulo q with no term divisible by x_0 y_0.

    Each x_0 y_0 is rewritten as -(x_1 y_1 + ... + x_n y_n) until none is
    left.  x_0 y_0 is the lex-leading monomial of q, so {q} is a Groebner
    basis and the remainder is zero iff p lies in (q); unlike pseudo-division
    the map is linear and never scales p."""
    n = p.n
    y0 = n + 1
    shifts = _q_shifts(n)
    out: dict[Term, int | Fraction] = {}
    todo = p.terms
    while todo:
        lifted: dict[Term, int | Fraction] = {}
        for key, c in todo.items():
            if key[0] and key[y0]:
                for shift in shifts:
                    k = tuple(map(add, key, shift))
                    lifted[k] = lifted.get(k, 0) - c
            else:
                out[key] = out.get(key, 0) + c
        todo = {k: c for k, c in lifted.items() if c}
    return BiPoly._trusted(n, _settle(out))


def is_zero_mod_quadric(f: BiPoly) -> bool:
    return normal_form_mod_q(f).is_zero


def divide_by_var_mod_quadric(f: BiPoly, v: int):
    """Exact polynomial tau with f = var_v * tau (mod q), or None.

    Writing f = v*A + B with B free of v, membership of B in (v, q) is
    equivalent to divisibility of B by q - x_a y_a in the ring without v,
    and the quotient reassembles to a polynomial representative.
    """
    n = f.n
    a = v if v <= n else v - n - 1
    big_a = BiPoly._trusted(n, {_set_exp(key, v, key[v] - 1): c
                                for key, c in f.terms.items() if key[v]})
    b = var_coefficient(f, v, 0)
    if b.is_zero:
        return big_a
    qbar = BiPoly.incidence_quadric(n) - BiPoly.x(n, a) * BiPoly.y(n, a)
    w = poly_divexact(b, qbar)
    if w is None:
        return None
    partner_poly = BiPoly.y(n, a) if v <= n else BiPoly.x(n, a)
    return big_a - partner_poly * w
