"""The int-or-Fraction coefficient contract and the mod-q normal form.

A BiPoly coefficient is an int when it is integral and a Fraction with
denominator > 1 otherwise, never a float.  A product and the Euler check
clear denominators once; the per-term Fraction product is the oracle.  The
normal form modulo q = sum x_i y_i decides ideal membership; pseudo-division
by q (``reduce_mod_quadric``) is the independent oracle.  The foliation
predicates, degrees and witnesses read each form's integer multiple, cleared
once by its constructor, which is sound because they do not change when the
form is scaled.
"""

import json
from fractions import Fraction
from math import lcm
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjvar import folforms as ff
from adjvar import witness as wt
from adjvar.bipoly import (
    BiPoly,
    is_zero_mod_quadric,
    normal_form_mod_q,
    poly_divexact,
    reduce_mod_quadric,
)


ns = st.integers(min_value=1, max_value=3)
coefficients = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)
seeds = st.integers(min_value=0, max_value=10**6)
scales = st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool)


def bipoly(n, max_size=8, max_exponent=2):
    key = st.tuples(*[st.integers(min_value=0, max_value=max_exponent)] * (2 * n + 2))
    return st.dictionaries(key, coefficients, max_size=max_size).map(
        lambda terms: BiPoly(n, terms)
    )


@st.composite
def bipoly_pairs(draw):
    n = draw(ns)
    return draw(bipoly(n)), draw(bipoly(n))


def canonical(p: BiPoly) -> bool:
    return all(
        c and (type(c) is int or (type(c) is Fraction and c.denominator != 1))
        for c in p.terms.values()
    )


# -- the coefficient contract ------------------------------------------------


@settings(max_examples=80)
@given(bipoly_pairs(), coefficients)
def test_every_operation_keeps_coefficients_canonical(pair, scalar):
    a, b = pair
    results = [a, b, a + b, a - b, -a, a * b, a * scalar, scalar * b, a.primitive()]
    results += [a.dvar(v) for v in range(2 * a.n + 2)]
    results.append(poly_divexact(a * b, b) if b else a)
    results.append(BiPoly.from_json(json.loads(json.dumps(a.to_json()))))
    assert all(canonical(p) for p in results)


def test_integral_fractions_become_ints():
    p = BiPoly(1, {(1, 0, 0, 1): Fraction(6, 3), (0, 1, 1, 0): Fraction(1, 2)})
    assert type(p.terms[(1, 0, 0, 1)]) is int
    assert type((p + p).terms[(0, 1, 1, 0)]) is int
    assert type((p * Fraction(2, 3)).terms[(1, 0, 0, 1)]) is Fraction
    assert all(type(c) is int for c in (p * 6).terms.values())


@pytest.mark.parametrize("c", [0.5, 0.1, 2.0, True, 0.0, False])
def test_float_or_bool_coefficient_is_refused(c):
    # a zero float or bool used to be dropped as a zero term, with no error
    with pytest.raises(ValueError, match="int or a Fraction"):
        BiPoly(1, {(0, 0, 0, 0): c})


@pytest.mark.parametrize("c", [0.5, "1/2", None, True])
def test_product_with_a_non_number_is_a_type_error(c):
    # a bool used to scale the polynomial like the int 1
    x0 = BiPoly.x(2, 0)
    with pytest.raises(TypeError):
        x0 * c
    with pytest.raises(TypeError):
        c * x0


@pytest.mark.parametrize("c", [1, Fraction(1, 2), 0.5, None])
def test_sum_with_a_non_polynomial_is_a_type_error(c):
    # it used to raise AttributeError on c.terms
    x0 = BiPoly.x(2, 0)
    for op in (add, sub):
        with pytest.raises(TypeError):
            op(x0, c)
        with pytest.raises(TypeError):
            op(c, x0)


def test_product_of_polynomials_on_different_spaces_is_refused():
    # map(add, ...) truncated the longer exponent tuple: the product was
    # x0 y0 on n = 1
    with pytest.raises(ValueError, match="P\\^1 x P\\^1 and P\\^2 x P\\^2"):
        BiPoly.x(1, 0) * BiPoly.x(2, 1)


def test_sum_of_polynomials_on_different_spaces_is_refused():
    # the sum used to hold 4-slot and 6-slot exponent tuples side by side
    for op in (add, sub):
        with pytest.raises(ValueError, match="P\\^2 x P\\^2 and P\\^1 x P\\^1"):
            op(BiPoly.x(2, 1), BiPoly.y(1, 0))


def test_polynomials_on_different_spaces_are_not_equal():
    # __eq__ compared the terms only, so the two zeros were equal
    assert BiPoly.zero(1) != BiPoly.zero(2)
    assert BiPoly.zero(1) == BiPoly.zero(1)
    assert BiPoly.__hash__ is None


def fraction_product(a: BiPoly, b: BiPoly) -> dict:
    """The product's terms by one Fraction operation per pair of terms, each
    integral sum stored as an int: the route before denominators were
    cleared once per factor."""
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            key = tuple(map(add, ka, kb))
            out[key] = out.get(key, 0) + Fraction(ca) * cb
    return {k: c.numerator if c.denominator == 1 else c for k, c in out.items() if c}


def with_types(terms: dict) -> dict:
    return {k: (type(c), c) for k, c in terms.items()}


@settings(max_examples=150)
@given(bipoly_pairs(), scales)
def test_product_matches_the_per_term_fraction_product(pair, c):
    a, b = pair
    expected = with_types(fraction_product(a, b))
    assert with_types((a * b).terms) == expected
    assert with_types((b * a).terms) == with_types(fraction_product(b, a))
    # (c a)(b / c) = a b: the denominators c brings divide every sum exactly
    assert with_types(((a * c) * (b * (1 / c))).terms) == expected


def test_exact_division_gives_no_float():
    x0, x1 = BiPoly.x(1, 0), BiPoly.x(1, 1)
    quotient = poly_divexact(x0 * 3 + x1 * 5, BiPoly.const(1, 2))
    assert quotient.terms == {(1, 0, 0, 0): Fraction(3, 2), (0, 1, 0, 0): Fraction(5, 2)}
    assert canonical(quotient)


# -- the normal form modulo q against pseudo-division -------------------------


@st.composite
def ideal_cases(draw):
    """f = h q, a member of (q), or f = h q + r with a free draw r, which is
    almost never one."""
    n = draw(ns)
    h = draw(bipoly(n, max_size=6))
    f = h * BiPoly.incidence_quadric(n)
    if draw(st.booleans()):
        f = f + draw(bipoly(n, max_size=4))
    return f


@settings(max_examples=120)
@given(ideal_cases())
def test_normal_form_membership_matches_pseudo_division(f):
    assert is_zero_mod_quadric(f) == reduce_mod_quadric(f).is_zero
    nf = normal_form_mod_q(f)
    n1 = f.n + 1
    assert not any(key[0] and key[n1] for key in nf.terms)
    assert reduce_mod_quadric(f - nf).is_zero
    assert canonical(nf)


@settings(max_examples=40)
@given(ns, st.integers(min_value=0, max_value=10**6))
def test_multiples_of_q_have_zero_normal_form(n, seed):
    h = ff.FolSampler(n, seed=seed, height=9).section11()
    f = h * h * BiPoly.incidence_quadric(n)
    assert normal_form_mod_q(f).is_zero and reduce_mod_quadric(f).is_zero
    assert not is_zero_mod_quadric(f + h)


# -- scale invariance of the predicates ---------------------------------------


def scaled(w, c):
    return ff.PolyOneForm(w.n, [p * c for p in w.coeffs])


def cleared(f):
    """F times the lcm of its denominators, as ``is_invariant`` clears it."""
    return f * lcm(*(c.denominator for c in f.terms.values()))


@settings(max_examples=12)
@given(seeds, scales)
def test_integrable_ignores_scale(seed, c):
    # and so do the other readers of a form's integer multiple: the
    # divisorial test, both degrees and the integrability witness
    sampler = ff.FolSampler(2, seed=seed, height=9)
    forms = ff.builtin_pencil(2, sampler), sampler.euler_form((2, 2))
    lines = sampler.line(1), sampler.line(2)
    for w in forms:
        cw = scaled(w, c)
        expected = ff._integrable_symbolic(w)
        assert ff._integrable_symbolic(cw) == expected
        assert ff.integrable(cw) == ff.integrable(w)
        assert ((wt.integrability_witness(cw) is None)
                == (wt.integrability_witness(w) is None))
        assert ff.has_divisorial_singularities(cw) == ff.has_divisorial_singularities(w)
        for line in lines:
            assert ff.family_degree(cw, line.family) == ff.family_degree(w, line.family)
            assert ff.tangency_degree(cw, line) == ff.tangency_degree(w, line)


@settings(max_examples=8)
@given(seeds, scales)
def test_is_invariant_ignores_scale(seed, c):
    sampler = ff.FolSampler(2, seed=seed, height=9)
    h1, h2, h3 = sampler.section11(), sampler.section11(), sampler.section11()
    base = ff.pencil_form(h1, h2)
    w = scaled(base, c)
    # a member of the pencil is invariant, a general section is not
    for f, expected in ((h1, True), (h3, False)):
        assert ff._is_invariant_symbolic(w, f * c) == expected
        assert ff.is_invariant(w, f) == expected
        assert ((wt.invariance_witness(w, cleared(f * c)) is None)
                == (wt.invariance_witness(base, cleared(f)) is None))


@settings(max_examples=12)
@given(seeds, scales)
def test_same_foliation_ignores_scale(seed, c):
    sampler = ff.FolSampler(2, seed=seed, height=9)
    h1, h2, h3 = sampler.section11(), sampler.section11(), sampler.section11()
    w1 = ff.pencil_form(h1, h2)
    # another basis of the same pencil, and a different pencil
    for other, expected in ((ff.pencil_form(h1 * 3 + h2, h2 * c), True),
                            (ff.pencil_form(h1, h3), False)):
        assert ff._same_foliation_symbolic(scaled(w1, c), other) == expected
        assert ff.same_foliation(w1, scaled(other, c)) == expected
        assert ((wt.proportionality_witness(scaled(w1, c), other) is None)
                == (wt.proportionality_witness(w1, other) is None))


# -- the Euler check over one common denominator --------------------------------


def skew_block(n, entries, var, other):
    """Coefficients C_i = sum_j M_ij z_j other_0^2 for the antisymmetric M
    with M_ij = entries[i, j] above the diagonal, z the variables var; so
    sum_i z_i C_i = 0."""
    out = [BiPoly.zero(n) for _ in range(n + 1)]
    for (i, j), m in entries.items():
        w = other(n, 0) * other(n, 0)
        out[i] = out[i] + var(n, j) * w * m
        out[j] = out[j] - var(n, i) * w * m
    return out


def rational_euler_form(p=None):
    """A bidegree (2, 2) form at n = 2 whose Euler contractions cancel only
    across denominators: its dx coefficients have the denominators 6, 10 and
    15 and its dy coefficients 77, 91 and 143, so scaling each coefficient by
    its own would leave a nonzero sum.  With a prime p, dx_0 and dy_0 each
    gain one term 1/p, which breaks both contractions."""
    dx = skew_block(2, {(0, 1): Fraction(1, 2), (0, 2): Fraction(1, 3),
                        (1, 2): Fraction(-1, 5)}, BiPoly.x, BiPoly.y)
    dy = skew_block(2, {(0, 1): Fraction(3, 7), (0, 2): Fraction(-2, 11),
                        (1, 2): Fraction(5, 13)}, BiPoly.y, BiPoly.x)
    if p is not None:
        dx[0] = dx[0] + BiPoly.x(2, 0) * BiPoly.y(2, 1) * BiPoly.y(2, 2) * Fraction(1, p)
        dy[0] = dy[0] + BiPoly.y(2, 0) * BiPoly.x(2, 1) * BiPoly.x(2, 2) * Fraction(1, p)
    return dx, dy


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 2**61 - 1])
def test_euler_check_clears_each_block_exactly(p):
    dx, dy = rational_euler_form()
    assert ff.PolyOneForm(2, dx + dy).bidegree == (2, 2)
    bad_dx, bad_dy = rational_euler_form(p)
    for coeffs in (bad_dx + dy, dx + bad_dy, bad_dx + bad_dy):
        with pytest.raises(ValueError, match="Euler contraction does not vanish"):
            ff.PolyOneForm(2, coeffs)
