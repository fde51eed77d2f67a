"""``family_degree`` against ``tangency_degree`` on seeded lines.

``family_degree`` decides whether the general line of a family lies in a
leaf by the minors of (moving block, fixed point) modulo q, which it takes
as components of a wedge with dq; ``minors_reference`` builds the same
minors by hand.  ``tangency_degree`` decides one given line exactly.  So a -inf family answer
means every line gives -inf, and otherwise no line gives anything but
d - 2 or -inf, and a random line gives d - 2.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjvar import folforms as ff
from adjvar.cli import _BUILTIN_FORMS
from adjvar.bipoly import BiPoly, is_zero_mod_quadric
from adjvar.folforms import MINUS_INFINITY, FolSampler, family_degree, tangency_degree

# every CLI builtin that has lines; affine and torus exist at n = 2 only
BUILTIN_CASES = [(name, n) for name in _BUILTIN_FORMS for n in (2, 3, 4)
                 if n == 2 or name not in ("affine", "torus")]


def minors_reference(omega, family):
    """family_degree from the 2 x 2 minors omega_{y_i} x_j - omega_{y_j} x_i
    (family 2: omega_{x_i} y_j - omega_{x_j} y_i), each a product of
    polynomials reduced modulo q."""
    n = omega.n
    numerics = ff.foliation_numerics(omega.bidegree, n)
    if family == 1:
        block, fixed, degree = omega.coeffs[n + 1 :], BiPoly.x, numerics.deg_H1
    else:
        block, fixed, degree = omega.coeffs[: n + 1], BiPoly.y, numerics.deg_H2
    for i, j in combinations(range(n + 1), 2):
        if not is_zero_mod_quadric(block[i] * fixed(n, j) - block[j] * fixed(n, i)):
            return degree
    return MINUS_INFINITY


def check_against_lines(omega, seed, lines=5):
    """family_degree(omega, f) for f = 1, 2 against ``minors_reference`` and
    ``lines`` seeded lines."""
    sampler = FolSampler(omega.n, seed=seed, height=5)
    answers = []
    for family in (1, 2):
        answer = family_degree(omega, family)
        assert answer == minors_reference(omega, family)
        seen = [tangency_degree(omega, sampler.line(family)) for _ in range(lines)]
        if answer is MINUS_INFINITY:
            assert all(v is MINUS_INFINITY for v in seen), (family, seen)
        else:
            # family 1 moves y, so d is the y-degree b; family 2 moves x
            assert answer == omega.bidegree[2 - family] - 2
            assert answer in seen, (family, seen)
            assert all(v is MINUS_INFINITY or v == answer for v in seen), (family, seen)
        answers.append(answer)
    return answers


@pytest.mark.parametrize("name,n", BUILTIN_CASES)
def test_builtins_agree_with_their_lines(name, n):
    deg1, deg2 = check_against_lines(_BUILTIN_FORMS[name][1](n), seed=n)
    # only the pullbacks from the first factor have family-1 lines in leaves
    assert (deg1 is MINUS_INFINITY) == name.startswith("pullback")
    assert deg2 is not MINUS_INFINITY


def linear(sampler, fixed):
    """A random nonzero linear form in x (``fixed`` = BiPoly.x) or in y."""
    n = sampler.n
    out = BiPoly.zero(n)
    while out.is_zero:
        out = sum((fixed(n, i) * sampler.fraction() for i in range(n + 1)),
                  BiPoly.zero(n))
    return out


def seeded_log(n, seed, kind):
    """A logarithmic form of one of five shapes: pulled back from either
    factor, log4-like, three (1,1) sections, or one of each bidegree."""
    s = FolSampler(n, seed=seed, height=5)
    if kind == "x":
        return ff.log_form([1, -1], [linear(s, BiPoly.x), linear(s, BiPoly.x)])
    if kind == "y":
        return ff.log_form([1, -1], [linear(s, BiPoly.y), linear(s, BiPoly.y)])
    if kind == "xxyy":
        factors = [linear(s, BiPoly.x), linear(s, BiPoly.x),
                   linear(s, BiPoly.y), linear(s, BiPoly.y)]
        return ff.log_form([1, -1, 2, -2], factors)
    if kind == "log3":
        return ff.log_form([1, 2, -3], [s.section11() for _ in range(3)])
    return ff.log_form([1, -1, -1], [s.section11(), linear(s, BiPoly.x),
                                     linear(s, BiPoly.y)])


LOG_KINDS = ["x", "y", "xxyy", "log3", "mixed"]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", LOG_KINDS)
def test_seeded_log_forms(n, kind):
    deg1, deg2 = check_against_lines(seeded_log(n, 100 + n, kind), seed=n)
    assert (deg1 is MINUS_INFINITY) == (kind == "x")
    assert (deg2 is MINUS_INFINITY) == (kind == "y")


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bidegree", [(2, 2), (2, 3), (3, 2)])
def test_seeded_euler_forms(n, bidegree):
    omega = FolSampler(n, seed=7, height=5).euler_form(bidegree)
    assert MINUS_INFINITY not in check_against_lines(omega, seed=8)


@settings(max_examples=20)
@given(st.sampled_from([2, 3]), st.integers(min_value=0, max_value=10**6),
       st.sampled_from(LOG_KINDS + [(2, 2), (2, 3), (3, 2)]))
def test_drawn_forms_agree_with_their_lines(n, seed, kind):
    if isinstance(kind, tuple):
        omega = FolSampler(n, seed=seed, height=5).euler_form(kind)
    else:
        omega = seeded_log(n, seed, kind)
    check_against_lines(omega, seed=seed + 1)


def x_part(omega):
    """omega with its dy-block zeroed: a form in which every family-1 line
    lies in a leaf."""
    n = omega.n
    return ff.PolyOneForm(n, omega.coeffs[: n + 1] + (BiPoly.zero(n),) * (n + 1))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("x_only", [False, True])
def test_adding_q_alpha_changes_no_answer(n, x_only):
    sampler = FolSampler(n, seed=31 + n, height=5)
    omega = sampler.euler_form((3, 3))
    if x_only:
        omega = x_part(omega)
    alpha = sampler.euler_form((2, 2))
    q = BiPoly.incidence_quadric(n)
    other = ff.PolyOneForm(n, [c + q * a for c, a in zip(omega.coeffs, alpha.coeffs)])
    # the dy-block of q alpha is nonzero, but it vanishes on X
    assert not all(c.is_zero for c in other.coeffs[n + 1 :])
    expected = [MINUS_INFINITY, 1] if x_only else [1, 1]
    assert [family_degree(omega, f) for f in (1, 2)] == expected
    assert check_against_lines(other, seed=n) == expected


def test_adding_a_form_that_is_dq_on_x_changes_no_answer():
    # c (q dh - h dq) is -c h dq on X: its dy-block is parallel to x there,
    # but not in (q), so the minors must be taken against x, not y
    n = 2
    sampler = FolSampler(n, seed=41, height=5)
    h, c = sampler.section11(), sampler.section11()
    q = BiPoly.incidence_quadric(n)
    omega = sampler.euler_form((3, 3))
    for omega in (x_part(omega), omega):
        junk = [c * (q * h.dvar(v) - h * q.dvar(v)) for v in range(2 * n + 2)]
        other = ff.PolyOneForm(n, [a + b for a, b in zip(omega.coeffs, junk)])
        assert not all(is_zero_mod_quadric(b) for b in other.coeffs[n + 1 :])
        expected = [family_degree(omega, f) for f in (1, 2)]
        assert check_against_lines(other, seed=5) == expected


def test_every_minor_counts():
    # y3 dy2 - y2 dy3 has no dy0 or dy1 part, so only the minors with i or
    # j >= 2 see it; its dx-block is zero
    n = 3
    omega = ff.log_form([1, -1], [BiPoly.y(n, 3), BiPoly.y(n, 2)])
    assert check_against_lines(omega, seed=6) == [0, MINUS_INFINITY]


def test_a_line_in_a_leaf_does_not_decide_the_family():
    # The pencil's member h1 + h2 contains the family-1 line through the
    # base x = (1, 2, 3, 5) along x^perp and ker(h1(x, .) + h2(x, .)).
    # A sampled line could be that line; the general line is not in a leaf.
    n = 3
    omega = ff.builtin_pencil(n)
    x, y = (lambda i: BiPoly.x(n, i)), (lambda j: BiPoly.y(n, j))
    h1 = sum((x(k) * y(k) * (k + 1) for k in range(n + 1)), BiPoly.zero(n))
    h2 = sum((x(k) * y((k + 1) % (n + 1)) for k in range(n + 1)), BiPoly.zero(n))
    base, p0, p1 = (1, 2, 3, 5), (-1, -1, 1, 0), (-3, -1, 0, 1)
    assert all((h1 + h2).eval_point(base, p) == 0 for p in (p0, p1))
    line = ff.LineInFamily(family=1, base=base, p0=p0, p1=p1)
    assert tangency_degree(omega, line) is MINUS_INFINITY
    assert family_degree(omega, 1) == 0


@pytest.mark.parametrize("family", [0, 3, True, 1.0, 2.0])
def test_family_must_be_1_or_2_as_for_a_line(family):
    line = FolSampler(2).line(1)
    with pytest.raises(ValueError) as info:
        family_degree(ff.builtin_pencil(2), family)
    with pytest.raises(ValueError) as for_line:
        ff.LineInFamily(family, line.base, line.p0, line.p1)
    assert str(info.value) == str(for_line.value) == "family must be 1 or 2"


def test_n_1_has_no_lines():
    with pytest.raises(ValueError) as info:
        family_degree(ff.builtin_pencil(1), 1)
    with pytest.raises(ValueError) as sampled:
        FolSampler(1).line(1)
    assert str(info.value) == str(sampled.value)
    assert str(info.value) == "at n = 1 the fibres of X are points, so they hold no lines"
