"""``form_wedge`` on packed monomials against the tuple-keyed loop it
replaced, on drawn form dicts at n = 1..3."""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjvar import folforms as ff
from adjvar.bipoly import BiPoly


def form_wedge_reference(f, g, n):
    """The wedge product with one exponent tuple per monomial: each pair of
    terms adds its exponent tuples slot by slot."""
    acc = {}
    for ikey, ic in f.items():
        for jkey, jc in g.items():
            m = ff._merge_wedge(ikey, jkey)
            if m is None:
                continue
            sign, key = m
            terms = acc.setdefault(key, {})
            for ka, ca in ic.terms.items():
                for kb, cb in jc.terms.items():
                    mono = tuple(map(add, ka, kb))
                    terms[mono] = terms.get(mono, 0) + sign * ca * cb
    out = {k: BiPoly(n, terms) for k, terms in acc.items()}
    return {k: v for k, v in out.items() if not v.is_zero}


def coefficients():
    return st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
    )


def bipolys(n):
    monomials = st.one_of(
        st.just((0,) * (2 * n + 2)),  # constant terms
        st.tuples(*[st.integers(0, 3)] * (2 * n + 2)),
    )
    return st.dictionaries(monomials, coefficients(), max_size=5).map(
        lambda terms: BiPoly(n, terms)
    )


def forms(n):
    keys = st.lists(st.integers(0, 2 * n + 1), unique=True, max_size=2).map(
        lambda k: tuple(sorted(k))
    )
    return st.dictionaries(keys, bipolys(n), max_size=4)


def same(a, b):
    """Equal form dicts, keys and monomials in the same insertion order."""
    assert list(a) == list(b)
    for k in a:
        assert list(a[k].terms.items()) == list(b[k].terms.items())
        assert all(type(c) is int or c.denominator > 1 for c in a[k].terms.values())


@settings(max_examples=150)
@given(st.data())
def test_form_wedge_matches_the_tuple_loop(data):
    n = data.draw(st.sampled_from([1, 2, 3]))
    f, g = data.draw(forms(n)), data.draw(forms(n))
    same(ff.form_wedge(f, g, n), form_wedge_reference(f, g, n))


@settings(max_examples=40)
@given(st.data())
def test_a_one_form_wedged_with_itself_cancels(data):
    # dz_i ^ dz_j and dz_j ^ dz_i meet in one output key with opposite signs
    n = data.draw(st.sampled_from([1, 2, 3]))
    keys = st.integers(0, 2 * n + 1).map(lambda v: (v,))
    f = data.draw(st.dictionaries(keys, bipolys(n), max_size=4))
    assert ff.form_wedge(f, f, n) == {} == form_wedge_reference(f, f, n)


def test_constant_components():
    n = 2
    f = {(0,): BiPoly.const(n, 3), (4,): BiPoly.const(n, Fraction(1, 2))}
    g = {(4,): BiPoly.x(n, 1), (): BiPoly.const(n, -2)}
    out = ff.form_wedge(f, g, n)
    same(out, form_wedge_reference(f, g, n))
    assert out == {(0, 4): BiPoly.x(n, 1) * 3, (0,): BiPoly.const(n, -6),
                   (4,): BiPoly.const(n, -1)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_largest_exponent_sum_fits_a_slot(n):
    # 2^16 - 1 in the y_0 slot, next to x_n: a carry would change x_n
    top = (1 << 16) - 1
    y0 = n + 1
    a = [0] * (2 * n + 2)
    a[y0], a[n] = 40000, 1
    b = [0] * (2 * n + 2)
    b[y0] = top - 40000
    f = {(0,): BiPoly(n, {tuple(a): 5})}
    g = {(y0,): BiPoly(n, {tuple(b): Fraction(-1, 3)})}
    out = ff.form_wedge(f, g, n)
    same(out, form_wedge_reference(f, g, n))
    (mono,) = out[(0, y0)].terms
    assert mono[y0] == top and mono[n] == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exponent_sum_of_two_to_the_sixteen_is_rejected(n):
    a = [0] * (2 * n + 2)
    a[0] = 1 << 15
    b = list(a)
    f = {(1,): BiPoly(n, {tuple(a): 1})}
    g = {(0,): BiPoly(n, {tuple(b): 1})}
    with pytest.raises(ValueError, match="16-bit"):
        ff.form_wedge(f, g, n)
    # an exponent that alone needs more than 16 bits is rejected too
    b[0] = 1 << 16
    with pytest.raises(ValueError, match="16-bit"):
        ff.form_wedge(f, {(0,): BiPoly(n, {tuple(b): 1})}, n)
