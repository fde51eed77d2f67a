"""Logarithmic built-ins against their hand expansions, and the predicates
against forms that differ only by a form vanishing on X.

``pencil_form`` and ``builtin_pullback`` are ``log_form`` calls; the
expansions below are the coefficients they were once written out as.

Adding c (q dh - h dq) to omega changes no foliation on X: the added form is
zero at every point of X modulo dq.  It does change the ambient
omega ^ d(omega), which then lies outside (q), so ``integrable`` can only
answer True through the dq ^ omega ^ d(omega) test.
"""

import pytest

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
    w = ff._integral(ff._euler_reduced(other.as_dict(), n))
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
