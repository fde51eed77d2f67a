"""The two-chart invariance test against the tests it replaced.

``folforms._is_invariant_symbolic`` decides membership in (F, q) on the
charts x_0 != 0 and y_0 != 0 only, with chart images taken by the normal
form modulo q (``folforms._chart_image``), and on each chart it forms only
the components of dq ^ dF ^ omega free of that chart's coordinate.  Two
earlier tests are the oracles.  ``full_wedge_two_charts`` tests every
component of the whole wedge on the same two charts.  ``all_charts_invariant``
tests every component on all 2n+2 coordinate charts, with chart images taken
by pseudo-division by q (``reduce_mod_quadric``).  (F, q) is a complete
intersection, so it is unmixed and all three decide the same membership; the
battery asserts equal answers.  It holds F = x_0, y_0 and x_0 y_1, whose
V(F) ^ X lies in a coordinate section: a test that dropped the components
through x_0 and y_0 on both charts would call them invariant.  The symbolic
functions are called directly, so surfaces that a witness would refute still
reach the chart test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjvar import folforms as ff
from adjvar.bipoly import BiPoly, poly_divexact, reduce_mod_quadric


def partner(n: int, chart: int) -> int:
    """The flat index of the coordinate paired with the chart's in q."""
    return chart + n + 1 if chart <= n else chart - n - 1


def all_charts_invariant(omega, f) -> bool:
    """dq ^ dF ^ omega tested in (F, q) on every coordinate chart."""
    n = omega.n
    f = f.primitive()

    def image(p, chart):
        return ff._strip_var(reduce_mod_quadric(p, partner(n, chart)), chart)

    charts = range(2 * n + 2)
    f_images = [image(f, chart) for chart in charts]
    if not all(f_images):
        raise ValueError("F lies in the ideal of X")
    three = ff.form_wedge(
        ff.form_wedge(ff.dq_form(n), ff.form_d({(): f}, n), n),
        ff._form_dict(omega.integral),
        n,
    )
    return all(
        poly_divexact(image(g, chart), f_image) is not None
        for chart, f_image in zip(charts, f_images)
        for g in three.values()
    )


def full_wedge_two_charts(omega, f) -> bool:
    """Every component of dq ^ dF ^ omega tested in (F, q) on the charts
    x_0 != 0 and y_0 != 0."""
    n = omega.n
    f = f.primitive()
    charts = (0, n + 1)
    f_images = [ff._chart_image(f, chart) for chart in charts]
    if not all(f_images):
        raise ValueError("F lies in the ideal of X")
    three = ff.form_wedge(
        ff.form_wedge(ff.dq_form(n), ff.form_d({(): f}, n), n),
        ff._form_dict(omega.integral),
        n,
    )
    return all(
        poly_divexact(ff._chart_image(g, chart), f_image) is not None
        for chart, f_image in zip(charts, f_images)
        for g in three.values()
    )


def check(omega, f) -> bool:
    answer = ff._is_invariant_symbolic(omega, f)
    assert answer == full_wedge_two_charts(omega, f)
    assert answer == all_charts_invariant(omega, f)
    return answer


# -- the battery ---------------------------------------------------------------


def forms_and_surfaces(n):
    """Forms and surfaces at n, with the pencil's members among the surfaces.

    At n = 3 the pencil skips its slowest surfaces (products of members and
    h_2): the reference takes seconds on each."""
    sampler = ff.FolSampler(n, seed=11, height=5)
    h1, h2, h3 = (sampler.section11() for _ in range(3))
    x = lambda i: BiPoly.x(n, i)
    y = lambda j: BiPoly.y(n, j)
    surfaces = {
        "h1": h1, "h2": h2, "x0": x(0), "y0": y(0), "x0h1": x(0) * h1,
        "y0h2": y(0) * h2, "h1h2": h1 * h2, "h1^2": h1 * h1, "h3": h3,
        "x1y0": x(1) * y(0), "x0y1": x(0) * y(1),
        "conic": x(1) * x(1) - x(0) * x(n) * 4,
        "x0+x1": x(0) + x(1), "y0+y1": y(0) + y(1),
    }
    if n >= 2:
        surfaces["conic_x"], surfaces["conic_y"] = ff._affine_conics(n)
    forms = {
        "pencil": ff.pencil_form(h1, h2),
        "log4": ff.builtin_log4(n),
        "builtin_pencil": ff.builtin_pencil(n),
        "pullback0": ff.builtin_pullback(0, n),
    }
    if n >= 2:
        forms["pullback1"] = ff.builtin_pullback(1, n)
    slow = {"h2", "x0h1", "h1h2", "h1^2"} if n == 3 else set()
    for name, omega in forms.items():
        chosen = {k: f for k, f in surfaces.items() if name != "pencil" or k not in slow}
        yield name, omega, chosen


@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_charts_match_all_charts(n):
    answers = {
        (name, k): check(omega, f)
        for name, omega, surfaces in forms_and_surfaces(n)
        for k, f in surfaces.items()
    }
    # the battery holds both answers: members of a pencil and the polar
    # hyperplanes of log4 and the pullbacks are invariant
    assert answers["pencil", "h1"] and answers["log4", "x0"]
    assert answers["pullback0", "x0+x1"]
    # and False: a general section, except on the curve X of n = 1
    assert answers["pencil", "h3"] == answers["log4", "h1"] == (n == 1)
    # surfaces inside a coordinate section, not invariant for n >= 2
    for k in ("x0", "y0", "x0y1"):
        assert answers["pencil", k] == (n == 1), k


def test_vector_field_foliations_match_all_charts():
    n = 2
    affine, c1, c2 = ff.builtin_affine(n)
    torus = ff.builtin_torus(n)
    x = lambda i: BiPoly.x(n, i)
    y = lambda j: BiPoly.y(n, j)
    sampler = ff.FolSampler(n, seed=2024)
    surfaces = [
        c1, c2, c1 * c2, c1 * c1, x(0), y(0), x(2), y(2), x(0) * c1,
        x(1) * y(1), x(0) * y(0), x(2) * y(2) * c2, x(0) * y(1),
        sampler.section11(), sampler.section11(),
    ]
    affine_answers = [check(affine, f) for f in surfaces]
    torus_answers = [check(torus, f) for f in surfaces]
    assert affine_answers[:4] == [True] * 4  # the two conics and products
    assert torus_answers[4:8] == [True] * 4  # the coordinate hyperplanes
    assert not torus_answers[0] and not affine_answers[4]


@pytest.mark.parametrize(
    "n,make",
    [
        (2, lambda n: (ff.builtin_affine(n)[0], ff._affine_conics(n)[0])),
        (2, lambda n: (ff.builtin_affine(n)[0], ff._affine_conics(n)[1])),
        (2, lambda n: (ff.builtin_torus(n), BiPoly.x(n, 1) * BiPoly.y(n, 2))),
        *((n, lambda n: (ff.builtin_log4(n), BiPoly.y(n, 0))) for n in (1, 2, 3)),
        *((n, lambda n: (ff.builtin_pullback(0, n), BiPoly.x(n, 0))) for n in (2, 3)),
    ],
)
def test_each_chart_forms_only_the_components_free_of_its_coordinate(
    n, make, monkeypatch
):
    omega, f = make(n)
    calls, form_wedge = [], ff.form_wedge

    def spy(a, b, n):
        out = form_wedge(a, b, n)
        calls.append({v for form in (a, b, out) for key in form for v in key})
        return out

    monkeypatch.setattr(ff, "form_wedge", spy)
    assert ff._is_invariant_symbolic(omega, f)
    # two wedges per chart: (dq ^ dF) ^ omega on x_0 != 0, then on y_0 != 0
    assert len(calls) == 4
    assert all(0 not in seen for seen in calls[:2])
    assert all(n + 1 not in seen for seen in calls[2:])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_surface_in_the_ideal_of_x_raises(n):
    omega = ff.builtin_pencil(n)
    q = BiPoly.incidence_quadric(n)
    h = ff.FolSampler(n, seed=5, height=5).section11()
    for f in (q, q * h, q * BiPoly.y(n, 0)):
        with pytest.raises(ValueError, match="ideal of X"):
            ff._is_invariant_symbolic(omega, f)
        with pytest.raises(ValueError, match="ideal of X"):
            all_charts_invariant(omega, f)


# -- the chart image -------------------------------------------------------------


@st.composite
def chart_cases(draw):
    """A random polynomial, often plus a multiple of q, and a chart."""
    n = draw(st.integers(min_value=1, max_value=3))
    key = st.tuples(*[st.integers(min_value=0, max_value=3)] * (2 * n + 2))
    coefficient = st.integers(min_value=-20, max_value=20)
    poly = st.dictionaries(key, coefficient, max_size=6).map(lambda t: BiPoly(n, t))
    p = draw(poly)
    if draw(st.booleans()):
        p = p + draw(poly) * BiPoly.incidence_quadric(n)
    return p, draw(st.sampled_from([0, n + 1]))


@settings(max_examples=150)
@given(chart_cases())
def test_chart_image_is_the_pseudo_remainder(case):
    p, chart = case
    image = ff._chart_image(p, chart)
    assert image == ff._strip_var(reduce_mod_quadric(p, partner(p.n, chart)), chart)
    assert all(key[partner(p.n, chart)] == 0 for key in image.terms)
