"""Logarithmic built-ins against their hand expansions, and the predicates
against forms that differ only by a form vanishing on X.

``pencil_form`` and ``builtin_pullback`` are ``log_form`` calls; the
expansions below are the coefficients they were once written out as.

``log_form`` sums in ints over one common denominator of the factors and
the residues; the cofactor loop over Fractions it replaced is its oracle.

Adding c (q dh - h dq) to omega changes no foliation on X: the added form is
zero at every point of X modulo dq.  It does change the ambient
omega ^ d(omega), which then lies outside (q), so ``integrable`` can only
answer True through the dq ^ omega ^ d(omega) test.
"""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjvar import folforms as ff
from adjvar.bipoly import BiPoly, is_zero_mod_quadric


def plus_junk(omega, h, c):
    """omega + c (q dh - h dq), for h of bidegree (1, 1) and c of bidegree
    bidegree(omega) - (2, 2)."""
    n = omega.n
    q = BiPoly.incidence_quadric(n)
    return ff.PolyOneForm(
        n, [a + c * (q * h.dvar(v) - h * q.dvar(v)) for v, a in enumerate(omega.coeffs)]
    )


def seeded_pencil(n, seed):
    sampler = ff.FolSampler(n, seed=seed, height=5)
    h1, h2 = sampler.section11(), sampler.section11()
    return ff.pencil_form(h1, h2), h1, sampler


def seeded_log3(n, seed):
    sampler = ff.FolSampler(n, seed=seed, height=5)
    factors = [sampler.section11() for _ in range(3)]
    return ff.log_form([1, 2, -3], factors), factors[0], sampler


@pytest.mark.parametrize(
    "make,n,seed",
    [(seeded_pencil, 2, 1), (seeded_pencil, 2, 2), (seeded_log3, 2, 3),
     (seeded_log3, 2, 4), (seeded_pencil, 3, 5)],
)
def test_predicates_ignore_forms_vanishing_on_x(make, n, seed):
    omega, h1, sampler = make(n, seed)
    h = sampler.section11()
    if omega.bidegree == (2, 2):
        c = BiPoly.const(n, sampler.fraction(nonzero=True))
    else:
        c = sampler.section11()
    other = plus_junk(omega, h, c)
    # the reduced ambient omega' ^ d(omega') is not in (q): the dq stage decides
    w = ff._euler_reduced(ff._form_dict(other.integral), n)
    gamma = ff.form_wedge(w, ff._euler_reduced(ff.form_d(w, n), n), n)
    assert not all(is_zero_mod_quadric(p) for p in gamma.values())
    assert ff.integrable(other)
    assert ff.same_foliation(omega, other)
    assert ff.same_foliation(other, omega)
    g = sampler.section11()
    for f in (h1, g):
        assert ff.is_invariant(other, f) == ff.is_invariant(omega, f)
    assert ff.is_invariant(other, h1) and not ff.is_invariant(other, g)


# -- the hand expansions the log_form calls replaced ---------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pullback_d0_is_x0_dx1_minus_x1_dx0(n):
    x = lambda i: BiPoly.x(n, i)
    zero = BiPoly.zero(n)
    expected = [x(1) * -1, x(0)] + [zero] * (n - 1) + [zero] * (n + 1)
    assert list(ff.builtin_pullback(0, n).coeffs) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pullback_d1_is_2h_dx0_minus_x0_dh(n):
    x = lambda i: BiPoly.x(n, i)
    h = x(1) * x(2) - x(0) * x(0)
    expected = [h * (2 if i == 0 else 0) - x(0) * h.dvar(i) for i in range(n + 1)]
    expected += [BiPoly.zero(n)] * (n + 1)
    assert list(ff.builtin_pullback(1, n).coeffs) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [11, 12])
def test_pencil_is_h1_dh2_minus_h2_dh1(n, seed):
    sampler = ff.FolSampler(n, seed=seed)
    h1, h2 = sampler.section11(), sampler.section11()
    expected = [h1 * h2.dvar(v) - h2 * h1.dvar(v) for v in range(2 * (n + 1))]
    assert list(ff.pencil_form(h1, h2).coeffs) == expected


# -- log_form in ints against the cofactor loop over Fractions -----------------


def fraction_times(a: BiPoly, b: BiPoly) -> BiPoly:
    """a * b by one Fraction operation per pair of terms."""
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            key = tuple(map(add, ka, kb))
            out[key] = out.get(key, 0) + Fraction(ca) * cb
    return BiPoly(a.n, out)


def cofactor_log_form(residues, factors):
    """The coefficients sum_i lambda_i (prod_{j != i} f_j) df_i, each product
    formed term by term over Fractions."""
    n = factors[0].n
    coeffs = [BiPoly.zero(n) for _ in range(2 * (n + 1))]
    for i, (ri, fi) in enumerate(zip(residues, factors)):
        cofactor = BiPoly.const(n, ri)
        for j, fj in enumerate(factors):
            if j != i:
                cofactor = fraction_times(cofactor, fj)
        for v in range(2 * (n + 1)):
            coeffs[v] = coeffs[v] + fraction_times(cofactor, fi.dvar(v))
    return coeffs


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10**6),
       fractions, fractions, st.sampled_from([3, 100]))
def test_log_form_matches_the_cofactor_loop(n, seed, a, b, height):
    sampler = ff.FolSampler(n, seed=seed, height=height)
    x = lambda i: BiPoly.x(n, i) * sampler.fraction(nonzero=True)
    y = lambda j: BiPoly.y(n, j) * sampler.fraction(nonzero=True)
    cases = [
        ([a, b, -(a + b)], [sampler.section11() for _ in range(3)]),
        ([a, -a, b, -b], [x(0), x(0) + x(1), y(0), y(0) + y(n)]),
        ([a, -a], [sampler.section11(), sampler.section11()]),
        # a zero residue, on factors of bidegrees (2, 0), (1, 0) and (0, 1)
        ([a, -2 * a, 0], [x(0) * x(1) + x(n) * x(n), x(1), y(0)]),
    ]
    for residues, factors in cases:
        expected = cofactor_log_form(residues, factors)
        if all(c.is_zero for c in expected):
            continue
        got = ff.log_form(residues, factors).coeffs
        assert [c.terms for c in got] == [c.terms for c in expected]
        assert all(type(g.terms[k]) is type(c) for g, e in zip(got, expected)
                   for k, c in e.terms.items())


@pytest.mark.parametrize(
    "residues", [[0.5, -0.5], [True, -1], ["1", "-1"], [1, None], [1.0, -1.0]]
)
def test_residues_must_be_ints_or_fractions(residues):
    n = 2
    with pytest.raises(ValueError, match="residues must be ints or Fractions"):
        ff.log_form(residues, [BiPoly.x(n, 0), BiPoly.x(n, 1)])
