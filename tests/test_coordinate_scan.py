"""The coordinate scan of ``has_divisorial_singularities`` against the scan it
replaced.

For each coordinate z_v, ``folforms.has_divisorial_singularities`` first
evaluates the coefficients at ``witness.coordinate_section_point(n, v)``, a
point of V(z_v) ^ X, and divides by z_v modulo q only when every value is 0.
``divisorial_reference`` below is the earlier test: the exact division of
every coefficient for every coordinate, then the gcd.  A polynomial in
(z_v, q) vanishes at every point of V(z_v) ^ X, so both must answer alike;
the battery asserts equal answers, also with every point value forced to 0.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adjvar import folforms as ff
from adjvar import witness
from adjvar.bipoly import BiPoly, divide_by_var_mod_quadric, poly_gcd_list, used_vars
from adjvar.cli import _BUILTIN_FORMS


def divisorial_reference(omega) -> bool:
    """Every coefficient divided by every coordinate modulo q, then the gcd."""
    n = omega.n
    coeffs = [c for c in omega.integral if not c.is_zero]
    for v in range(2 * (n + 1)):
        if all(divide_by_var_mod_quadric(c, v) is not None for c in coeffs):
            return True
    return bool(used_vars(poly_gcd_list(coeffs)))


def check(omega) -> bool:
    answer = ff.has_divisorial_singularities(omega)
    assert answer == divisorial_reference(omega)
    return answer


def builtins(n):
    for name, (min_n, make) in sorted(_BUILTIN_FORMS.items()):
        if name in ("affine", "torus") and n != 2 or n < min_n:
            continue
        yield name, make(n)


def coordinate(n, v):
    return BiPoly.x(n, v) if v <= n else BiPoly.y(n, v - n - 1)


def coordinate_divisor_form(n, v, seed=3):
    """z_v * omega0 + q * beta: every coefficient lies in (z_v, q), and for
    these seeds the coefficients have ambient gcd 1."""
    sampler = ff.FolSampler(n, seed=seed + v, height=7)
    omega0 = sampler.euler_form((2, 2))
    beta = sampler.euler_form((2, 1) if v <= n else (1, 2))
    z, q = coordinate(n, v), BiPoly.incidence_quadric(n)
    return ff.PolyOneForm(n, [z * a + q * b for a, b in zip(omega0.coeffs, beta.coeffs)])


def battery(n):
    """Builtins, seeded Euler and log forms, and coordinate multiples at n."""
    forms = dict(builtins(n))
    for seed in (2024, 7):
        sampler = ff.FolSampler(n, seed=seed, height=9)
        forms[f"euler22@{seed}"] = sampler.euler_form((2, 2))
        forms[f"euler23@{seed}"] = sampler.euler_form((2, 3))
        if n >= 2:
            forms[f"log3@{seed}"] = ff.log_form(
                [1, 2, -3], [sampler.section11() for _ in range(3)]
            )
    pencil = ff.builtin_pencil(n)
    for v in (0, n, n + 1, 2 * n + 1):
        # z_v * pencil has gcd z_v: past a broken scan the PRS would take it,
        # which need not finish at n >= 3, so there the gcd is 1
        forms[f"z{v}"] = coordinate_divisor_form(n, v) if n >= 3 else ff.PolyOneForm(
            n, [coordinate(n, v) * c for c in pencil.coeffs]
        )
    q = BiPoly.incidence_quadric(n)
    forms["q*pencil"] = ff.PolyOneForm(n, [q * c for c in pencil.coeffs])
    return forms


@pytest.mark.parametrize("n", [2, 3])
def test_coordinate_divisor_true_only_through_the_scan(n):
    for v in range(2 * n + 2):
        omega = coordinate_divisor_form(n, v)
        coeffs = [c for c in omega.integral if not c.is_zero]
        assert not used_vars(poly_gcd_list(coeffs)), v
        x, y = witness.coordinate_section_point(n, v)
        assert all(c.eval_point(x, y) == 0 for c in coeffs), v
        assert check(omega), v


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_coordinate_section_point_lies_on_x(n):
    for v in range(2 * n + 2):
        x, y = witness.coordinate_section_point(n, v)
        assert len(x) == len(y) == n + 1
        assert all(type(t) is int for t in x + y)
        assert any(x) and any(y)  # a point of P^n x P^n
        assert sum(a * b for a, b in zip(x, y)) == 0
        zeros = [i for i, t in enumerate(x + y) if t == 0]
        # at n = 1, V(z_v) ^ X is one point, with a second zero coordinate
        assert zeros == [v] if n >= 2 else len(zeros) == 2 and v in zeros
        assert witness.coordinate_section_point(n, v) is witness.coordinate_section_point(n, v)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scan_matches_the_reference(n):
    answers = {name: check(omega) for name, omega in battery(n).items()}
    assert not any(answers[name] for name, _ in builtins(n))
    assert answers["z0"] and answers[f"z{2 * n + 1}"] and answers["q*pencil"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_forced_fallback_keeps_every_answer(n, monkeypatch):
    forms = battery(n)
    expected = {name: ff.has_divisorial_singularities(w) for name, w in forms.items()}
    monkeypatch.setattr(BiPoly, "eval_point", lambda self, xs, ys: 0)
    assert {name: check(w) for name, w in forms.items()} == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_builtins_need_no_division(n, monkeypatch):
    calls = []

    def spy(f, v):
        calls.append(v)
        return divide_by_var_mod_quadric(f, v)

    monkeypatch.setattr(ff, "divide_by_var_mod_quadric", spy)
    for name, omega in builtins(n):
        assert not ff.has_divisorial_singularities(omega), name
    assert calls == []
    # a coordinate divisor still reaches the division, on its own coordinate
    assert ff.has_divisorial_singularities(coordinate_divisor_form(n, n + 1))
    assert set(calls) == {n + 1}


@st.composite
def drawn_forms(draw):
    """A seeded Euler form at n = 1 or 2, often times a coordinate and then
    often plus q times a form of the matching bidegree."""
    n = draw(st.integers(min_value=1, max_value=2))
    sampler = ff.FolSampler(n, seed=draw(st.integers(0, 10**6)), height=5)

    def euler_form(bidegree):
        try:
            return sampler.euler_form(bidegree)
        except ValueError:  # every drawn coefficient was 0
            assume(False)

    omega = euler_form(draw(st.sampled_from([(2, 2), (2, 3), (3, 2)])))
    v = draw(st.none() | st.integers(min_value=0, max_value=2 * n + 1))
    if v is None:
        return omega
    a, b = omega.bidegree
    coeffs = [coordinate(n, v) * c for c in omega.coeffs]
    if draw(st.booleans()):
        beta = euler_form((a, b - 1) if v <= n else (a - 1, b))
        q = BiPoly.incidence_quadric(n)
        coeffs = [c + q * d for c, d in zip(coeffs, beta.coeffs)]
    return ff.PolyOneForm(n, coeffs)


@settings(max_examples=60)
@given(drawn_forms())
def test_drawn_forms_match_the_reference(omega):
    check(omega)
