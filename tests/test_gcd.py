"""The gcd's mod-p coprimality certificate against the primitive PRS.

``poly_gcd_list``, and ``poly_gcd`` as the list of two, clears each member
of denominators and first tries ``linalg._coprime_certificate`` on the whole
integer list: univariate gcds of the images in F_p[v] at fixed points, each
used only where a leading coefficient in v of some member survives.  Degree
0 for every variable of all the members proves the gcd is 1; anything else
is a fold of ``_prs_gcd``, the primitive pseudo-remainder sequence, which
stays the oracle here.  The F_p layer is also tested on its own integer
coefficient lists.
"""

from fractions import Fraction
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from adjvar import bipoly
from adjvar.bipoly import (
    BiPoly,
    _prs_gcd,
    poly_divexact,
    poly_gcd,
    poly_gcd_list,
    used_vars,
)
from adjvar.linalg import (
    _cert_points,
    _CERT_PRIME,
    _coprime_certificate,
    _gcd_mod_p,
    _image_in,
    _values_mod_p,
)

ns = st.integers(min_value=1, max_value=2)
integers = st.integers(min_value=-9, max_value=9)
coefficients = st.one_of(
    integers, st.fractions(min_value=-9, max_value=9, max_denominator=7)
)


def bipoly_of(n, coefficient, max_size=4):
    key = st.tuples(*[st.integers(min_value=0, max_value=2)] * (2 * n + 2))
    return st.dictionaries(key, coefficient, max_size=max_size).map(
        lambda terms: BiPoly(n, terms)
    )


@st.composite
def pairs(draw, coefficient=integers):
    n = draw(ns)
    return draw(bipoly_of(n, coefficient)), draw(bipoly_of(n, coefficient))


@st.composite
def shared_factor_pairs(draw):
    """(a*b, a*c, a) with a nonconstant and b, c nonzero."""
    n = draw(ns)
    a = draw(bipoly_of(n, integers, 3).filter(lambda p: used_vars(p)))
    b, c = (draw(bipoly_of(n, integers, 3).filter(bool)) for _ in "bc")
    return a * b, a * c, a


@st.composite
def shared_factor_lists(draw):
    """([a*b for 2 to 4 nonzero b], a) with a nonconstant."""
    n = draw(ns)
    a = draw(bipoly_of(n, integers, 3).filter(lambda p: used_vars(p)))
    bs = draw(st.lists(bipoly_of(n, integers, 3).filter(bool), min_size=2, max_size=4))
    return [a * b for b in bs], a


@settings(max_examples=150)
@given(pairs())
def test_gcd_matches_the_prs(pair):
    f, g = pair
    assert poly_gcd(f, g) == _prs_gcd(f, g)


@settings(max_examples=100)
@given(shared_factor_pairs())
def test_a_common_factor_is_never_certified_coprime(case):
    f, g, a = case
    assert not _coprime_certificate([f.terms, g.terms])
    d = poly_gcd(f, g)
    assert d == _prs_gcd(f, g)
    assert poly_divexact(d, a) is not None
    assert poly_divexact(f, d) is not None and poly_divexact(g, d) is not None


@settings(max_examples=100)
@given(pairs(coefficients))
def test_fraction_inputs_give_the_gcd_of_their_primitive_parts(pair):
    f, g = pair
    if f and g:
        assert poly_gcd(f, g) == poly_gcd(f.primitive(), g.primitive())
    assert poly_gcd(f, g) == _prs_gcd(f, g)


@settings(max_examples=100)
@given(shared_factor_lists())
def test_a_factor_common_to_a_list_is_never_certified_coprime(case):
    polys, a = case
    assert not _coprime_certificate([f.terms for f in polys])
    d = poly_gcd_list(polys)
    assert d == reduce(_prs_gcd, polys)
    assert poly_divexact(d, a) is not None
    assert all(poly_divexact(f, d) is not None for f in polys)


@settings(max_examples=100)
@given(ns.flatmap(lambda n: st.lists(bipoly_of(n, coefficients), min_size=2, max_size=4)))
def test_list_gcd_matches_a_fold_of_the_prs(polys):
    assert poly_gcd_list(polys) == reduce(_prs_gcd, polys)


def test_coprime_pairs_are_certified(monkeypatch):
    x0, x1, y0, y1 = (BiPoly.x(1, 0), BiPoly.x(1, 1), BiPoly.y(1, 0), BiPoly.y(1, 1))
    assert _coprime_certificate([(x0 * y0 + x1 * y1).terms, (x0 * y1 - x1 * y0).terms])
    # no shared variable: nothing to evaluate
    assert _coprime_certificate([(x0 * x0 + x1 * x1 * 3).terms, (y0 - y1 * 2).terms])
    # any number of variables: x + y and x - y, but x^2 - y^2 shares x - y
    assert _coprime_certificate([{(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}])
    assert not _coprime_certificate([{(2, 0): 1, (0, 2): -1}, {(1, 0): 1, (0, 1): -1}])
    # a Fraction constant is cleared to an int first, so the PRS is not called
    calls = spy_on_prs(monkeypatch)
    assert poly_gcd(x0 + x1, BiPoly.const(1, Fraction(2, 3))) == BiPoly.const(1, 1)
    assert calls == []


def test_pairwise_common_factors_with_gcd_1_are_certified():
    x0, x1, y0, y1 = (BiPoly.x(1, 0), BiPoly.x(1, 1), BiPoly.y(1, 0), BiPoly.y(1, 1))
    # three distinct irreducible (1,1) forms, each in all four variables
    a = x0 * y0 + x1 * y1
    b = x0 * y1 - x1 * y0
    c = x0 * y0 + x1 * y0 + x1 * y1 + x0 * y1 * 2
    polys = [a * b, a * c, b * c]
    assert all(used_vars(f) == {0, 1, 2, 3} for f in polys)
    assert _coprime_certificate([f.terms for f in polys])
    assert poly_gcd_list(polys) == BiPoly.const(1, 1)
    assert [poly_gcd(a * b, a * c), poly_gcd(a * b, b * c), poly_gcd(a * c, b * c)] == [
        a, b.primitive(), c
    ]


def vanishing_at_both_points(n, v):
    """(x_v - s_v)(x_v - t_v) for the certificate's fixed points s and t."""
    first, second = _cert_points(2 * n + 2)
    xv = BiPoly.x(n, v)
    return (xv - BiPoly.const(n, first[v])) * (xv - BiPoly.const(n, second[v]))


def test_one_surviving_leading_coefficient_decides_a_variable():
    # in x0, f and g have the leading coefficient (x1 - s1)(x1 - t1), which
    # vanishes at both points; only h's leading coefficient 1 survives
    n = 1
    x0, x1 = BiPoly.x(n, 0), BiPoly.x(n, 1)
    lead = vanishing_at_both_points(n, 1)
    f = lead * x0 + BiPoly.const(n, 1)
    g = lead * x0 + BiPoly.const(n, 2)
    h = x0 + x1
    for point in _cert_points(2 * n + 2):
        images = [_image_in(_values_mod_p(p.terms, point), 0, point[0], 1)
                  for p in (f, g, h)]
        assert [len(image) for image in images] == [1, 1, 2]
    assert _coprime_certificate([f.terms, g.terms, h.terms])
    # without h, no member keeps its degree in x0 at either point
    assert not _coprime_certificate([f.terms, g.terms])
    assert poly_gcd_list([f, g]) == BiPoly.const(n, 1)


def test_list_contracts():
    n = 1
    x0, y1 = BiPoly.x(n, 0), BiPoly.y(n, 1)
    zero = BiPoly.zero(n)
    assert poly_gcd_list([]) is None
    assert poly_gcd_list([zero, zero]) == zero
    f = (x0 * y1 * 6 - x0 * x0 * 4) * Fraction(-1, 5)
    assert poly_gcd_list([f]) == f.primitive() == x0 * x0 * 2 - x0 * y1 * 3
    assert poly_gcd_list(iter([zero, f, zero])) == f.primitive()
    assert poly_gcd_list([BiPoly.const(n, Fraction(-2, 3))]) == BiPoly.const(n, 1)


def spy_on_prs(monkeypatch):
    """The arguments of every ``_prs_gcd`` call, its own recursion included."""
    calls = []

    def prs(f, g):
        calls.append((f, g))
        return _prs_gcd(f, g)

    monkeypatch.setattr(bipoly, "_prs_gcd", prs)
    return calls


def test_vanishing_leading_coefficients_reach_the_prs(monkeypatch):
    # a = (x0 - s0)(x0 - t0)(x1 - s1)(x1 - t1) + 1 with s and t the two fixed
    # points: a's leading coefficient in x0 and in x1 vanishes at both, and
    # a itself evaluates to 1 there, so the images of a*b and a*c drop a.
    n = 1
    first, second = _cert_points(2 * n + 2)
    x0, x1 = BiPoly.x(n, 0), BiPoly.x(n, 1)
    a = ((x0 - BiPoly.const(n, first[0])) * (x0 - BiPoly.const(n, second[0]))
         * (x1 - BiPoly.const(n, first[1])) * (x1 - BiPoly.const(n, second[1]))
         + BiPoly.const(n, 1))
    f = a * (x0 + x1 + BiPoly.const(n, 1))
    g = a * (x0 - x1 + BiPoly.const(n, 2))
    # unguarded, the images would have a gcd of degree 0 in both variables
    fv, gv = _values_mod_p(f.terms, first), _values_mod_p(g.terms, first)
    for v in (0, 1):
        images = (_image_in(fv, v, first[v], 3), _image_in(gv, v, first[v], 3))
        assert len(_gcd_mod_p(*images)) == 1
    assert not _coprime_certificate([f.terms, g.terms])
    calls = spy_on_prs(monkeypatch)
    assert poly_gcd(f, g) == a
    assert calls[0] == (f, g)


def test_a_denominator_divisible_by_p_is_cleared_before_the_certificate(monkeypatch):
    # poly_gcd_list clears each input of denominators on its own before the
    # certificate, so a denominator p leaves nothing to invert in F_p and the
    # PRS is not called; over the common denominator p, g would be p(x0 - x1),
    # zero mod p
    n = 1
    f = (BiPoly.x(n, 0) + BiPoly.x(n, 1)) * Fraction(1, _CERT_PRIME)
    g = BiPoly.x(n, 0) - BiPoly.x(n, 1)
    calls = spy_on_prs(monkeypatch)
    assert poly_gcd(f, g) == BiPoly.const(n, 1)
    assert calls == []


# -- the F_p layer on integer coefficient lists, low to high ------------------

P = _CERT_PRIME


@st.composite
def nonzero_mod_p(draw, max_degree=4):
    """A coefficient list over F_p, low to high, with a nonzero top."""
    low = draw(st.lists(st.integers(min_value=0, max_value=P - 1), max_size=max_degree))
    return low + [draw(st.integers(min_value=1, max_value=P - 1))]


def times_mod_p(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, w in enumerate(b):
            out[i + j] = (out[i + j] + u * w) % P
    return out


def rem_mod_p(a: list, b: list) -> list:
    """The remainder of a by b in F_p[v] by long division, with no trailing
    zero; [] when b divides a."""
    a = a[:]
    inv = pow(b[-1], -1, P)
    while len(a) >= len(b):
        c = a[-1] * inv % P
        shift = len(a) - len(b)
        for i, w in enumerate(b):
            a[shift + i] = (a[shift + i] - c * w) % P
        while a and not a[-1]:
            a.pop()
    return a


@settings(max_examples=150)
@given(nonzero_mod_p(), nonzero_mod_p(), nonzero_mod_p())
def test_gcd_mod_p_holds_the_common_factor_and_divides_both(a, b, c):
    ab, ac = times_mod_p(a, b), times_mod_p(a, c)
    d = _gcd_mod_p(ab, ac)
    assert d and d[-1]
    assert rem_mod_p(d, a) == []
    assert rem_mod_p(ab, d) == [] and rem_mod_p(ac, d) == []
