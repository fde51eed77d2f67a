"""The int-or-Fraction coefficient contract and the mod-q normal form.

A BiPoly coefficient is an int when it is integral and a Fraction with
denominator > 1 otherwise, never a float.  The normal form modulo
q = sum x_i y_i decides ideal membership; pseudo-division by q
(``reduce_mod_quadric``) is the independent oracle.  The foliation
predicates clear denominators on entry, which is sound because they do not
change when the form is scaled.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from adjvar import folforms as ff
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
    assert BiPoly(1, {(0, 0, 0, 0): 0.5}).terms == {(0, 0, 0, 0): Fraction(1, 2)}


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


@settings(max_examples=12)
@given(seeds, scales)
def test_integrable_ignores_scale(seed, c):
    sampler = ff.FolSampler(2, seed=seed, height=9)
    for w in (ff.builtin_pencil(2, sampler), sampler.euler_form((2, 2))):
        expected = ff._integrable_symbolic(w)
        assert ff._integrable_symbolic(scaled(w, c)) == expected
        assert ff.integrable(scaled(w, c)) == ff.integrable(w)


@settings(max_examples=8)
@given(seeds, scales)
def test_is_invariant_ignores_scale(seed, c):
    sampler = ff.FolSampler(2, seed=seed, height=9)
    h1, h2, h3 = sampler.section11(), sampler.section11(), sampler.section11()
    w = scaled(ff.pencil_form(h1, h2), c)
    # a member of the pencil is invariant, a general section is not
    for f, expected in ((h1, True), (h3, False)):
        assert ff._is_invariant_symbolic(w, f * c) == expected
        assert ff.is_invariant(w, f) == expected


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
