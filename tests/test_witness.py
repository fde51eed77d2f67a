"""The integer witnesses against the symbolic ideal tests they short-cut.

Each public predicate (``integrable``, ``is_invariant``, ``same_foliation``)
returns False on a witness and otherwise runs its private symbolic test.  The
properties below assert that the public answer equals the symbolic-only
answer, and that every witness is what it claims: a point of X (and of V(F))
at which a coefficient of the symbolic form is nonzero.
"""

from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from adjvar import folforms as ff
from adjvar import witness as wt
from adjvar.bipoly import BiPoly


seeds = st.integers(min_value=0, max_value=10**6)
heights = st.integers(min_value=1, max_value=5)


def pencil(h1, h2):
    try:
        return ff.pencil_form(h1, h2)
    except ValueError:  # proportional sections
        reject()


def q_at(point):
    x, y = point
    return sum(a * b for a, b in zip(x, y))


def nonzero_somewhere(form: dict, point) -> bool:
    xs, ys = point
    return any(c.eval_point(xs, ys) != 0 for c in form.values())


def four_form(omega):
    n = omega.n
    w = omega.as_dict()
    return ff.form_wedge(ff.dq_form(n), ff.form_wedge(w, ff.form_d(w, n), n), n)


def check_integrable(omega):
    found = wt.integrability_witness(omega)
    assert ff.integrable(omega) == ff._integrable_symbolic(omega)
    if found is not None:
        point = (found.x, found.y)
        assert q_at(point) == 0 and 0 not in found.x + found.y
        assert nonzero_somewhere(four_form(omega), point)
        assert not ff.integrable(omega)
    return found


def integer(f):
    """F times the lcm of its denominators: the F that ``is_invariant`` hands
    to the witness."""
    return f * lcm(*(Fraction(c).denominator for c in f.terms.values()))


def check_invariant(omega, f):
    found = wt.invariance_witness(omega, integer(f))
    assert ff.is_invariant(omega, f) == ff._is_invariant_symbolic(omega, f)
    if found is not None:
        point = (found.x, found.y)
        assert q_at(point) == 0 and f.eval_point(*point) == 0
        assert found.x[0] != 0 and 0 not in found.x + found.y
        n = omega.n
        three = ff.form_wedge(
            ff.form_wedge(ff.dq_form(n), ff.form_d({(): f}, n), n), omega.as_dict(), n
        )
        assert nonzero_somewhere(three, point)
        assert not ff.is_invariant(omega, f)
    return found


def check_same(w1, w2):
    found = wt.proportionality_witness(w1, w2)
    assert ff.same_foliation(w1, w2) == ff._same_foliation_symbolic(w1, w2)
    if found is not None:
        point = (found.x, found.y)
        assert q_at(point) == 0 and 0 not in found.x + found.y
        n = w1.n
        three = ff.form_wedge(
            ff.form_wedge(ff.dq_form(n), w1.as_dict(), n), w2.as_dict(), n
        )
        assert nonzero_somewhere(three, point)
        assert not ff.same_foliation(w1, w2)
    return found


# -- the fixed frame ---------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_frame_point_lies_on_x_and_tangent_vectors_kill_dq(n):
    x, y, vectors, transverse, tangent = wt._frame(n)
    assert q_at((x, y)) == 0
    assert 0 not in x + y
    assert all(sum(a * b for a, b in zip(y + x, u)) == 0 for u in tangent)
    assert transverse != 0
    assert all(len(u) == 2 * n + 2 for u in vectors + tangent)


# -- the jets ----------------------------------------------------------------


@st.composite
def jet_cases(draw):
    """Polynomials on P^n x P^n (some zero, not all bihomogeneous) with int
    coefficients, a point with no zero coordinate, and up to three integer
    vectors."""
    n = draw(st.integers(min_value=1, max_value=4))
    width = 2 * n + 2
    keys = st.tuples(*[st.integers(min_value=0, max_value=3)] * width)
    coeffs = st.integers(min_value=-9, max_value=9)
    polys = draw(st.lists(
        st.dictionaries(keys, coeffs, max_size=6).map(lambda t: BiPoly(n, t)),
        min_size=1, max_size=4,
    ))
    nonzero = st.integers(min_value=-7, max_value=7).filter(bool)
    point = tuple(draw(st.lists(nonzero, min_size=width, max_size=width)))
    entries = st.integers(min_value=-5, max_value=5)
    vector = st.lists(entries, min_size=width, max_size=width).map(tuple)
    vectors = tuple(draw(st.lists(vector, max_size=3)))
    return n, polys, point, vectors


@settings(max_examples=60)
@given(jet_cases())
def test_jet_matches_exact_values_and_derivatives(case):
    # values are p(point) and slopes P * dp(point)(u), computed here from
    # BiPoly.eval_point and BiPoly.dvar
    n, polys, point, vectors = case
    xs, ys = point[: n + 1], point[n + 1 :]
    scale = prod(point)
    support, values, slopes = wt._jet(polys, point, vectors)
    assert support == [b for b, p in enumerate(polys) if not p.is_zero]
    assert values == [polys[b].eval_point(xs, ys) for b in support]
    for b, slope in zip(support, slopes):
        grad = [polys[b].dvar(a).eval_point(xs, ys) for a in range(2 * n + 2)]
        assert slope == [scale * sum(g * t for g, t in zip(grad, u)) for u in vectors]


# -- integrable --------------------------------------------------------------

EULER_CASES = [(2, (2, 2)), (2, (2, 3)), (2, (3, 2)), (2, (3, 3)), (3, (2, 2))]


@settings(max_examples=5)
@given(st.sampled_from(EULER_CASES), seeds, heights)
def test_euler_forms_witness_matches_symbolic(case, seed, height):
    # n = 3 stops at (2, 2): the symbolic test of a (3, 3) form there takes
    # tens of seconds
    n, bidegree = case
    check_integrable(ff.FolSampler(n, seed=seed, height=height).euler_form(bidegree))


@settings(max_examples=6)
@given(st.sampled_from([1, 2, 3]), seeds, heights)
def test_pencils_are_never_refuted(n, seed, height):
    sampler = ff.FolSampler(n, seed=seed, height=height)
    omega = pencil(sampler.section11(), sampler.section11())
    assert check_integrable(omega) is None
    assert ff.integrable(omega)


@settings(max_examples=2)
@given(seeds, st.sampled_from([(1, 2), (2, -3), (-1, 3)]))
def test_log_forms_are_never_refuted(seed, residues):
    sampler = ff.FolSampler(2, seed=seed, height=3)
    a, b = residues
    omega = ff.log_form([a, b, -(a + b)], [sampler.section11() for _ in range(3)])
    assert check_integrable(omega) is None
    assert ff.integrable(omega)


@settings(max_examples=6)
@given(seeds, heights)
def test_perturbed_pencils_match_symbolic(seed, height):
    sampler = ff.FolSampler(2, seed=seed, height=height)
    base = pencil(sampler.section11(), sampler.section11())
    bump = sampler.euler_form((2, 2))
    omega = ff.PolyOneForm(2, [a + b for a, b in zip(base.coeffs, bump.coeffs)])
    check_integrable(omega)


def test_builtin_forms_are_never_refuted():
    forms = [ff.builtin_affine(2)[0], ff.builtin_torus(2)]
    for n in (2, 3, 4):
        forms += [ff.builtin_pencil(n), ff.builtin_log4(n),
                  ff.builtin_pullback(0, n), ff.builtin_pullback(1, n)]
    for omega in forms:
        assert wt.integrability_witness(omega) is None
        assert ff.integrable(omega)


def test_witness_that_vanishes_falls_through_to_symbolic():
    # l * omega has the integrability of omega, but l vanishes at the fixed
    # point, so the witness sees zero and the symbolic test answers
    x = wt._frame(2)[0]
    line = BiPoly.x(2, 1) * x[0] - BiPoly.x(2, 0) * x[1]
    omega = ff.FolSampler(2, seed=33).euler_form((2, 2))
    assert wt.integrability_witness(omega) is not None
    scaled = ff.PolyOneForm(2, [c * line for c in omega.coeffs])
    assert wt.integrability_witness(scaled) is None
    assert not ff.integrable(scaled)


# -- is_invariant ------------------------------------------------------------


@settings(max_examples=3)
@given(seeds, heights, st.sampled_from([(1, 1), (1, 2), (2, 1)]))
def test_pencil_invariance_matches_symbolic(seed, height, bidegree):
    sampler = ff.FolSampler(2, seed=seed, height=height)
    h1, h2 = sampler.section11(), sampler.section11()
    omega = pencil(h1, h2)
    # a pencil member is invariant, a random surface is generically not
    member = h1 + h2 * sampler.fraction(nonzero=True)
    if not member.is_zero:
        assert check_invariant(omega, member) is None
    surface = sampler._random_bipoly(bidegree)
    if not surface.is_zero:
        check_invariant(omega, surface)


@settings(max_examples=6)
@given(seeds, heights)
def test_affine_sections_match_symbolic(seed, height):
    omega = ff.builtin_affine(2)[0]
    check_invariant(omega, ff.FolSampler(2, seed=seed, height=height).section11())


def test_affine_conics_are_invariant():
    omega, f1, f2 = ff.builtin_affine(2)
    for f in (f1, f2):
        assert check_invariant(omega, f) is None
        assert ff.is_invariant(omega, f)


def test_invariance_witness_solves_both_factors():
    omega = ff.FolSampler(2, seed=5).euler_form((2, 2))
    sampler = ff.FolSampler(2, seed=6)
    for bidegree in ((2, 1), (1, 2), (0, 1), (1, 0)):
        found = check_invariant(omega, sampler._random_bipoly(bidegree))
        assert found is not None


def test_invariance_point_avoids_zero_coordinates():
    # with x fixed at the frame's x, F = q = 0 is solved by a point with
    # y_0 = 0, so the next fixed factor is tried
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    coeffs = [[Fraction(1, 3), Fraction(-1, 3), Fraction(-1, 2)],
              [-2, -1, 1], [1, Fraction(-2, 3), -2]]  # coeffs[j][i]: x_i y_j
    f = BiPoly(2, {e[i] + e[j]: coeffs[j][i] for i in range(3) for j in range(3)})
    x, y = wt._frame(2)[:2]
    point = wt._point_on_surface(integer(f), x, y)
    assert 0 not in point and point[:3] != x
    assert check_invariant(ff.builtin_affine(2)[0], f) is not None


def test_invariance_witness_refuses_a_rational_surface():
    # a rational F gives a rational point, where the jet's values are wrong:
    # pencil members, which are invariant, were refuted
    sampler = ff.FolSampler(2, seed=1, height=9)
    h1, h2 = sampler.section11(), sampler.section11()
    omega = ff.pencil_form(h1, h2)
    with pytest.raises(ValueError, match="integer coefficients"):
        wt.invariance_witness(omega, h1)
    assert wt.invariance_witness(omega, integer(h1)) is None


def test_no_invariance_witness_at_n_1():
    # at n = 1 Cramer's rule solves for the whole moving factor with zero
    # right-hand sides, so it gives (0, 0) and no point is returned
    for seed in (1, 2, 3):
        sampler = ff.FolSampler(1, seed=seed)
        omega = sampler.euler_form((2, 2))
        for bidegree in ((1, 1), (2, 1), (1, 2), (0, 1), (1, 0), (3, 1), (1, 3)):
            f = sampler._random_bipoly(bidegree)
            assert wt.invariance_witness(omega, integer(f)) is None


def test_zero_surface_raises():
    omega = ff.builtin_pencil(2)
    with pytest.raises(ValueError, match="zero divisor"):
        ff.is_invariant(omega, BiPoly.zero(2))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_surface_in_the_ideal_of_x_raises_before_a_witness(seed):
    # F = q * h vanishes on all of X; the answer is the ValueError, never a
    # witness False, even for forms a witness refutes elsewhere.  A constant
    # h makes dq ^ dF zero, so no wedge can decide it either.
    sampler = ff.FolSampler(2, seed=seed)
    q = BiPoly.incidence_quadric(2)
    omega = sampler.euler_form((2, 2))
    for h in (
        sampler._random_bipoly((0, 1)),
        sampler._random_bipoly((1, 0)),
        BiPoly.const(2, Fraction(3, 7)),
    ):
        f = q * h
        assert wt.invariance_witness(omega, integer(f)) is None
        with pytest.raises(ValueError, match="ideal of X"):
            ff.is_invariant(omega, f)


# -- same_foliation ----------------------------------------------------------


@settings(max_examples=3)
@given(seeds, heights)
def test_pencil_pairs_match_symbolic(seed, height):
    sampler = ff.FolSampler(2, seed=seed, height=height)
    h1, h2, h3 = (sampler.section11() for _ in range(3))
    omega = pencil(h1, h2)
    assert check_same(omega, ff.pencil_form(h1 + h2, h2)) is None
    scaled = ff.PolyOneForm(2, [c * Fraction(-5, 3) for c in omega.coeffs])
    assert check_same(omega, scaled) is None
    check_same(omega, pencil(h1, h3))


def test_distinct_pencils_are_refuted():
    sampler = ff.FolSampler(2, seed=2024)
    w1 = ff.builtin_pencil(2, sampler)
    w2 = ff.builtin_pencil(2, sampler)
    assert check_same(w1, w2) is not None
    assert not ff.same_foliation(w1, w2)


# -- form_d ------------------------------------------------------------------


def form_d_per_variable(f: dict, n: int) -> dict:
    """The exterior derivative as one partial derivative per variable."""
    out: dict = {}
    for key, c in f.items():
        for v in range(2 * (n + 1)):
            dv = c.dvar(v)
            m = ff._merge_wedge((v,), key)
            if dv.is_zero or m is None:
                continue
            sign, nkey = m
            out[nkey] = out.get(nkey, BiPoly.zero(n)) + dv * sign
    return {k: v for k, v in out.items() if not v.is_zero}


@settings(max_examples=10)
@given(st.sampled_from([1, 2, 3]), seeds, st.sampled_from([(2, 2), (2, 3), (3, 2)]))
def test_form_d_matches_per_variable_derivative(n, seed, bidegree):
    omega = ff.FolSampler(n, seed=seed, height=4).euler_form(bidegree)
    w = omega.as_dict()
    dw = ff.form_d(w, n)
    assert dw == form_d_per_variable(w, n)
    assert ff.form_d(dw, n) == {}  # d^2 = 0
