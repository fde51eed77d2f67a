"""The Euler-reduced wedges against the whole wedges they replace.

``_integrable_symbolic`` and ``_same_foliation_symbolic`` test only the
components free of x_0 and y_0 (``folforms._euler_reduced``).  The oracles
below test every component, as the symbolic tests did before the reduction;
the properties assert equal answers.  The symbolic functions are called
directly, so forms that a witness would refute still reach the dq stage.
``_is_invariant_symbolic`` keeps the whole wedge, and the last tests pin why.
"""

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from adjvar import folforms as ff
from adjvar.bipoly import BiPoly, is_zero_mod_quadric


seeds = st.integers(min_value=0, max_value=10**6)
heights = st.integers(min_value=1, max_value=5)


def in_q(form: dict) -> bool:
    return all(is_zero_mod_quadric(c) for c in form.values())


def full_integrable(omega) -> bool:
    n = omega.n
    w = ff._form_dict(omega.integral)
    gamma = ff.form_wedge(w, ff.form_d(w, n), n)
    if not gamma or in_q(gamma):
        return True
    return in_q(ff.form_wedge(ff.dq_form(n), gamma, n))


def full_same(w1, w2) -> bool:
    n = w1.n
    dq_w1 = ff.form_wedge(ff.dq_form(n), ff._form_dict(w1.integral), n)
    return in_q(ff.form_wedge(dq_w1, ff._form_dict(w2.integral), n))


def check_integrable(omega) -> bool:
    answer = ff._integrable_symbolic(omega)
    assert answer == full_integrable(omega)
    return answer


def check_same(w1, w2) -> bool:
    answer = ff._same_foliation_symbolic(w1, w2)
    assert answer == full_same(w1, w2)
    return answer


def times(omega, c):
    return ff.PolyOneForm(omega.n, [p * c for p in omega.coeffs])


def pencil(h1, h2):
    try:
        return ff.pencil_form(h1, h2)
    except ValueError:  # proportional sections
        reject()


# -- seeded Euler forms, mostly not integrable --------------------------------

EULER_CASES = [
    (1, (2, 2)), (1, (3, 3)), (2, (2, 2)), (2, (2, 3)), (2, (3, 2)), (3, (2, 2)),
]


@settings(max_examples=10)
@given(st.sampled_from(EULER_CASES), seeds, heights)
def test_euler_forms_match_the_whole_wedge(case, seed, height):
    n, bidegree = case
    sampler = ff.FolSampler(n, seed=seed, height=height)
    w1, w2 = sampler.euler_form(bidegree), sampler.euler_form(bidegree)
    check_integrable(w1)
    check_same(w1, w2)
    assert check_same(w1, times(w1, 3))


def test_the_euler_forms_reach_the_dq_stage():
    # at n >= 2 a random form is not integrable; at n = 1, X is a curve
    for n in (2, 3):
        omega = ff.FolSampler(n, seed=4, height=3).euler_form((2, 2))
        gamma = ff.form_wedge(omega.as_dict(), ff.form_d(omega.as_dict(), n), n)
        assert not in_q(gamma)
        assert not check_integrable(omega)
    assert check_integrable(ff.FolSampler(1, seed=4, height=3).euler_form((3, 3)))


# -- pencils and logarithmic forms: integrable --------------------------------


@settings(max_examples=6)
@given(st.sampled_from([1, 2, 3]), seeds, heights)
def test_pencils_match_the_whole_wedge(n, seed, height):
    sampler = ff.FolSampler(n, seed=seed, height=height)
    h1, h2, h3 = (sampler.section11() for _ in range(3))
    omega = pencil(h1, h2)
    assert check_integrable(omega)
    assert check_same(omega, times(omega, 3))
    assert check_same(omega, pencil(h1, h1 + h2))
    check_same(omega, pencil(h1, h3))


@settings(max_examples=3)
@given(seeds, st.sampled_from([(1, 2), (2, -3), (-1, 3)]))
def test_seeded_log3_matches_the_whole_wedge(seed, residues):
    sampler = ff.FolSampler(2, seed=seed, height=3)
    a, b = residues
    omega = ff.log_form([a, b, -(a + b)], [sampler.section11() for _ in range(3)])
    assert check_integrable(omega)
    assert check_same(omega, times(omega, 3))


def test_log4_matches_the_whole_wedge():
    for n in (1, 2, 3):
        omega = ff.builtin_log4(n)
        assert check_integrable(omega)
        assert check_same(omega, times(omega, 3))
        check_same(omega, ff.builtin_pencil(n))


# -- foliations from vector fields ---------------------------------------------


@st.composite
def tracefree(draw):
    m = [[draw(st.integers(min_value=-1, max_value=1)) for _ in range(3)] for _ in range(3)]
    m[2][2] = -m[0][0] - m[1][1]
    return m


@settings(max_examples=4)
@given(tracefree(), tracefree())
def test_random_pair_foliations_match_the_whole_wedge(a, b):
    try:
        omega = ff.foliation_from_fields(ff.linear_field(a, 2), ff.linear_field(b, 2))
    except ValueError:  # dependent fields
        reject()
    check_integrable(omega)  # integrable iff [v1, v2] lies in their span on X
    assert check_same(omega, times(omega, 3))
    check_same(omega, ff.builtin_torus(2))


def test_torus_matches_the_whole_wedge():
    torus = ff.builtin_torus(2)
    assert check_integrable(torus)
    assert check_same(torus, times(torus, 3))
    assert not check_same(torus, ff.builtin_pencil(2))


def test_affine_is_decided_at_the_dq_stage():
    # the one builtin whose reduced omega ^ d(omega) is not in (q): its True
    # comes from dq ^ omega ^ d(omega), so a test that stops after the first
    # stage answers False here
    n = 2
    omega, _, _ = ff.builtin_affine(n)
    w = ff._euler_reduced(omega.as_dict(), n)
    assert not in_q(ff.form_wedge(w, ff._euler_reduced(ff.form_d(w, n), n), n))
    assert check_integrable(omega)
    assert check_same(omega, times(omega, 3))
    assert not check_same(omega, ff.builtin_torus(n))


# -- invariance keeps the whole wedge ------------------------------------------


def seeded_pencil():
    sampler = ff.FolSampler(2, seed=3)
    h1, h2 = sampler.section11(), sampler.section11()
    return ff.pencil_form(h1, h2), h1


def test_a_pencil_member_is_invariant():
    omega, h1 = seeded_pencil()
    assert ff.is_invariant(omega, h1)
    assert ff._is_invariant_symbolic(omega, h1)


def test_surfaces_meeting_x0_or_y0_are_not_invariant():
    # on the Euler-reduced wedge all three would come out invariant: the
    # ideal (F, q) is not prime, and V(F) ^ X has a component in
    # {x_0 = 0} or {y_0 = 0}
    omega, h1 = seeded_pencil()
    x0, y0 = BiPoly.x(2, 0), BiPoly.y(2, 0)
    for f in (x0, y0, x0 * h1):
        assert not ff.is_invariant(omega, f)
        assert not ff._is_invariant_symbolic(omega, f)
