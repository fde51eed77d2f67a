import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjvar.bipoly import (
    BiPoly,
    divide_by_var_mod_quadric,
    is_zero_mod_quadric,
    poly_divexact,
    poly_gcd,
    poly_gcd_list,
    reduce_mod_quadric,
    used_vars,
)
from adjvar.folforms import (
    MINUS_INFINITY,
    FolSampler,
    LineInFamily,
    PolyOneForm,
    builtin_affine,
    builtin_log4,
    builtin_pencil,
    builtin_pullback,
    builtin_torus,
    foliation_from_fields,
    foliation_numerics,
    has_divisorial_singularities,
    integrable,
    is_invariant,
    linear_field,
    log_form,
    pencil_form,
    same_foliation,
    tangency_degree,
    _fields_independent,
)
from adjvar import bipoly, witness
from adjvar.cli import main
from adjvar.linalg import nullspace


def x(i, n=2):
    return BiPoly.x(n, i)


def y(j, n=2):
    return BiPoly.y(n, j)


# -- polynomial layer --------------------------------------------------------


def test_bidegree_and_homogeneity():
    f = x(0) * y(1) + x(2) * y(0)
    assert f.bidegree() == (1, 1)
    with pytest.raises(ValueError):
        (f + x(0)).bidegree()


@pytest.mark.parametrize(
    "n,index",
    [(2, 3), (2, -1), (0, 1), (1, 2), (2, True), (2, False), (2, 1.0), (0, 0), (-1, 0)],
)
def test_coordinate_out_of_range_raises(n, index):
    # an index above n used to give the constant 1, and a bool or a float
    # was taken for the int it equals; on an n below 1 no coordinate exists
    with pytest.raises(ValueError, match="does not exist"):
        BiPoly.x(n, index)
    with pytest.raises(ValueError, match="does not exist"):
        BiPoly.y(n, index)


@pytest.mark.parametrize(
    "make,n",
    [
        (lambda: BiPoly.x(True, 0), True),
        (lambda: BiPoly.y(2.0, 0), 2.0),
        (lambda: BiPoly.zero(0), 0),
        (lambda: BiPoly.zero(-1), -1),
        (lambda: BiPoly.const(True, 1), True),
        (lambda: BiPoly.incidence_quadric(False), False),
        (lambda: BiPoly(False, {}), False),
        (lambda: linear_field([[1, 0], [0, -1]], True), True),
        (lambda: linear_field([], -1), -1),
    ],
)
def test_bipoly_rejects_an_n_its_json_cannot_carry(make, n):
    # each used to build a polynomial on P^n with that n: True was kept as
    # the n, and 0 and -1 gave P^0 and "P^-1"; linear_field at n = -1
    # returned an empty field
    with pytest.raises(ValueError, match=re.escape(f"integer >= 1, got {n!r}")):
        make()


@pytest.mark.parametrize(
    "key", [(1, 0), (1, 0, 0, 0, 0, -1), (1.0, 0, 0, 0, 0, 1)]
)
def test_bipoly_rejects_a_monomial_off_its_ring(key):
    # each was kept: (1, 0) gave bidegree (1, 0) and a 2-slot product with
    # x_0, the -1 a bidegree (1, -1), and the float an exponent 1.0
    with pytest.raises(ValueError, match="non-negative integer exponents on P\\^2"):
        BiPoly(2, {key: 3})


def test_builtins_below_their_smallest_n_raise():
    # pullback-d1 needs x_2; the others need x_1
    for make in (lambda: builtin_pullback(1, 1), lambda: builtin_pullback(0, 0),
                 lambda: builtin_log4(0)):
        with pytest.raises(ValueError, match="does not exist"):
            make()


def test_gcd_and_exact_division():
    f = (x(0) + x(1)) * (y(0) + y(1)) * 6
    g = (x(0) + x(1)) * (x(0) - x(1)) * 4
    d = poly_gcd(f, g)
    assert poly_divexact(f, d) is not None
    assert poly_divexact(g, d) is not None
    assert d == (x(0) + x(1))
    assert poly_divexact(f, x(0) + y(0)) is None
    with pytest.raises(ZeroDivisionError, match="zero polynomial"):
        poly_divexact(f, BiPoly.zero(2))


def test_reduce_mod_quadric():
    q = BiPoly.incidence_quadric(2)
    assert is_zero_mod_quadric(q)
    assert is_zero_mod_quadric(q * (x(1) + y(2)))
    assert not is_zero_mod_quadric(x(0) * y(0))
    # same verdicts when eliminating a different variable
    assert reduce_mod_quadric(q * x(2), elim=2).is_zero
    assert not reduce_mod_quadric(x(1) * y(1), elim=4).is_zero


def test_divide_by_var_mod_quadric():
    q = BiPoly.incidence_quadric(2)
    f = x(0) * (y(1) * y(1)) + q * y(2)
    tau = divide_by_var_mod_quadric(f, 0)
    assert tau is not None
    assert is_zero_mod_quadric(f - x(0) * tau)
    assert divide_by_var_mod_quadric(x(1) * y(1), 0) is None


# -- constructors ------------------------------------------------------------


def h_pair(n=2):
    # irreducible on X: neither section is congruent to a monomial modulo q
    h1 = BiPoly.zero(n)
    h2 = BiPoly.zero(n)
    for k in range(n + 1):
        h1 = h1 + x(k, n) * y(k, n) * (k + 1)
        h2 = h2 + x(k, n) * y((k + 1) % (n + 1), n)
    return h1, h2


def test_pencil_form_properties():
    h1, h2 = h_pair()
    w = pencil_form(h1, h2)
    assert w.bidegree == (2, 2)
    assert integrable(w)
    assert is_invariant(w, h1)
    assert is_invariant(w, h2)


def test_pencil_rejects_proportional_sections():
    h1, _ = h_pair()
    with pytest.raises(ValueError):
        pencil_form(h1, h1 * 3)


def test_log_form_residue_condition():
    h1, h2 = h_pair()
    with pytest.raises(ValueError, match="residue condition"):
        log_form([1, 1], [h1, h2])


def test_log_form_residue_condition_prints_exact_sums():
    # the sums are Fractions, printed as ints or p/q, not by their repr
    x0, x1 = BiPoly.x(2, 0), BiPoly.x(2, 1)
    with pytest.raises(ValueError) as err:
        log_form([1, 1], [x0, x1])
    assert str(err.value) == (
        "residue condition violated: sum lambda_i deg_i = (2, 0), not (0,0)"
    )
    with pytest.raises(ValueError, match=re.escape("= (3/2, 0), not")):
        log_form([Fraction(1, 2), 1], [x0, x1])


def test_two_factor_log_is_the_pencil():
    h1, h2 = h_pair()
    w_log = log_form([1, -1], [h1, h2])
    w_pencil = pencil_form(h1, h2)
    assert same_foliation(w_log, w_pencil)
    # in fact equal up to the scalar -1: h2 dh1 - h1 dh2
    assert all(a == -b for a, b in zip(w_log.coeffs, w_pencil.coeffs))


def test_bipoly_json_roundtrip():
    h1, _ = h_pair()
    assert BiPoly.from_json(h1.to_json()) == h1


@pytest.mark.parametrize(
    "exps",
    [[1, 0], [1, 0, 0, 0], [-1, 1, 1], [1.5, 0, 0], ["1", 0, 0], [True, 0, 0],
     # a dict replaces fields of the good term: a float or bool coefficient
     # (0.1 used to be read as a binary float), or none, which repeats it
     pytest.param({"c": 0.1}, id="float-c"), pytest.param({"c": True}, id="bool-c"),
     pytest.param({}, id="repeated-term")],
)
def test_bipoly_from_json_rejects_bad_exponents(exps):
    good = {"x": [0, 1, 0], "y": [0, 0, 1], "c": "1"}
    if isinstance(exps, dict):
        bads = [{**good, **exps}]
        match = "an integer or" if exps else "repeated monomial"
    else:
        bads = [{**good, "x": exps}, {**good, "y": exps}]
        match = "non-negative integers"
    for bad in bads:
        with pytest.raises(ValueError, match=match):
            BiPoly.from_json({"n": 2, "terms": [good, bad]})
        form = builtin_pencil(2).to_json()
        form["dy"][1] = [good, bad]
        with pytest.raises(ValueError, match=match):
            PolyOneForm.from_json(form)


def test_log4_integrable_bidegree_22():
    w = builtin_log4(2)
    assert w.bidegree == (2, 2)
    assert integrable(w)
    assert not has_divisorial_singularities(w)


def test_generic_euler_form_not_integrable():
    s = FolSampler(2, seed=33)
    for _ in range(3):
        assert not integrable(s.euler_form((2, 2)))


def test_pullback_of_surface_form_is_integrable():
    # any (2,2)-form living on the x0,x1,y0,y1 variables is pulled back from
    # P^1 x P^1, where every 1-form is integrable
    s = FolSampler(1, seed=9)
    small = s.euler_form((2, 2))
    n = 2

    def extend(p):
        terms = {}
        for key, c in p.terms.items():
            terms[key[:2] + (0,) + key[2:] + (0,)] = c
        return BiPoly(n, terms)

    coeffs = [extend(small.coeffs[0]), extend(small.coeffs[1]), BiPoly.zero(n),
              extend(small.coeffs[2]), extend(small.coeffs[3]), BiPoly.zero(n)]
    w = PolyOneForm(n, coeffs)
    assert integrable(w)


# -- tangency degrees --------------------------------------------------------


def test_minus_infinity_compares_below_every_integer():
    m = MINUS_INFINITY
    for k in (-(10**30), -1, 0, 7):
        assert m < k and m <= k and not m > k and not m >= k
        assert k > m and k >= m and not k < m and not k <= m
    assert m <= m and m >= m and not m < m and not m > m
    assert sorted([2, m, -1]) == [m, -1, 2] and max([m, -5]) == -5


def test_line_lies_on_x():
    s = FolSampler(3, seed=1)
    for family in (1, 2):
        line = s.line(family)
        q = BiPoly.incidence_quadric(3)
        # check q(base, s p0 + t p1) = 0 by evaluating on a few parameters
        for sv, tv in [(1, 0), (0, 1), (2, 3), (-1, 5)]:
            pt = tuple(sv * a + tv * b for a, b in zip(line.p0, line.p1))
            xs, ys = (line.base, pt) if family == 1 else (pt, line.base)
            assert q.eval_point(xs, ys) == 0


@pytest.mark.parametrize("height", [0, -3, 2.5, True])
def test_sampler_rejects_a_height_below_one(height):
    # 0 and 2.5 used to fail at the first draw, inside randrange, and True
    # was taken for 1
    with pytest.raises(ValueError, match=f"must be an int >= 1, not {height!r}"):
        FolSampler(2, height=height)


@pytest.mark.parametrize("n", [-1, 0, True, 2.0])
def test_sampler_rejects_an_n_below_one(n):
    # section11 never returned at n = -1, and True was kept as the n
    with pytest.raises(ValueError, match=re.escape(f"integer >= 1, got {n!r}")):
        FolSampler(n)


def test_line_rejects_dependent_spanning_points():
    with pytest.raises(ValueError):
        LineInFamily(
            family=1,
            base=(Fraction(1), Fraction(1), Fraction(1)),
            p0=(Fraction(1), Fraction(1), Fraction(-2)),
            p1=(Fraction(2), Fraction(2), Fraction(-4)),
        )


@pytest.mark.parametrize("n", [2, 3])
def test_pencil_degrees_zero_zero(n):
    w = builtin_pencil(n)
    s = FolSampler(n, seed=17)
    for family in (1, 2):
        for _ in range(5):
            assert tangency_degree(w, s.line(family)) == 0


@pytest.mark.parametrize("d", [0, 1])
def test_pullback_degrees(d):
    w = builtin_pullback(d, 2)
    s = FolSampler(2, seed=23)
    assert tangency_degree(w, s.line(1)) is MINUS_INFINITY
    assert tangency_degree(w, s.line(2)) == d


def restrict_line_reference(p, line):
    """{t-degree: coefficient} of the binary form p(line(s, t)), expanding
    prod_k (s p0_k + t p1_k)^e_k term by term over the moving factor."""
    n1 = p.n + 1
    out = {}
    for key, c in p.terms.items():
        fixed, moving = (key[:n1], key[n1:]) if line.family == 1 else (key[n1:], key[:n1])
        poly = {0: c * prod(b**e for b, e in zip(line.base, fixed))}
        for k, e in enumerate(moving):
            for _ in range(e):
                nxt = {}
                for td, cc in poly.items():
                    nxt[td] = nxt.get(td, 0) + cc * line.p0[k]
                    nxt[td + 1] = nxt.get(td + 1, 0) + cc * line.p1[k]
                poly = nxt
        for td, cc in poly.items():
            out[td] = out.get(td, 0) + cc
    return out


def tangency_reference(omega, line):
    """The pullback U ds + V dt of omega to the line, expanded as binary
    forms; Euler gives U = t b and V = -s b, and the answer is deg b, or
    -inf for b = 0."""
    n = omega.n
    block = omega.coeffs[n + 1 :] if line.family == 1 else omega.coeffs[: n + 1]
    nonzero = [c for c in block if not c.is_zero]
    if not nonzero:
        return MINUS_INFINITY
    key = next(iter(nonzero[0].terms))
    m = sum(key[n + 1 :] if line.family == 1 else key[: n + 1])  # deg U
    u, v = [0] * (m + 1), [0] * (m + 1)
    for c, a, b in zip(block, line.p0, line.p1):
        for td, cc in restrict_line_reference(c, line).items():
            u[td] += cc * a
            v[td] += cc * b
    assert u[0] == 0 and v[m] == 0
    assert all(v[k] == -u[k + 1] for k in range(m))
    b = u[1:]
    return len(b) - 1 if any(b) else MINUS_INFINITY


def tangency_cases():
    cases = []
    for n in (2, 3):
        s = FolSampler(n, seed=41 + n)
        forms = [s.euler_form(bd) for bd in ((2, 2), (2, 3), (3, 2), (3, 3))]
        forms += [builtin_pullback(0, n), builtin_pullback(1, n), builtin_log4(n),
                  builtin_pencil(n, s)]
        cases += [(w, s.line(family)) for w in forms for family in (1, 2)
                  for _ in range(2)]
        # lines with six-digit numerators and denominators, and a log form
        # whose residues, so coefficients, are not integers
        tall = FolSampler(n, seed=53 + n, height=10**6)
        forms = [tall.euler_form((2, 3)), builtin_pencil(n, tall),
                 builtin_log4(n, Fraction(1, 2), Fraction(-2, 3))]
        cases += [(w, tall.line(family)) for w in forms for family in (1, 2)]
    # lines inside a leaf of the pencil of h1 = x0 y1 + x2 y0 and
    # h2 = x1 y2 + x0 y0, whose bidegree says degree 0: h1 vanishes on both
    w = pencil_form(x(0) * y(1) + x(2) * y(0), x(1) * y(2) + x(0) * y(0))
    cases.append((w, LineInFamily(1, (0, 1, 0), (1, 0, 2), (3, 0, -1))))
    cases.append((w, LineInFamily(2, (0, 0, 1), (1, 0, 0), (0, 1, 0))))
    return cases


def test_tangency_degree_matches_binary_form_expansion():
    cases = tangency_cases()
    answers = [tangency_degree(w, line) for w, line in cases]
    assert answers == [tangency_reference(w, line) for w, line in cases]
    assert {str(a) for a in answers} == {"-inf", "0", "1"}
    leaf_form = cases[-1][0]
    numerics = foliation_numerics(leaf_form.bidegree, 2)
    assert (numerics.deg_H1, numerics.deg_H2) == (0, 0)
    assert answers[-2:] == [MINUS_INFINITY] * 2


def test_tangency_is_reparametrization_invariant():
    w = builtin_pencil(2)
    s = FolSampler(2, seed=29)
    line = s.line(1)
    new_p0 = tuple(2 * a + 3 * b for a, b in zip(line.p0, line.p1))
    new_p1 = tuple(a - b for a, b in zip(line.p0, line.p1))
    other = LineInFamily(family=1, base=line.base, p0=new_p0, p1=new_p1)
    assert tangency_degree(w, line) == tangency_degree(w, other)


@pytest.mark.parametrize("base, p0, p1", [((0, 0, 1), (1, 0), (0, 1, 0)),
                                         ((1, 1), (1, -1, 5), (2, -2, 7))])
def test_line_rejects_points_of_different_lengths(base, p0, p1):
    # zip used to truncate the longer vectors in the incidence test
    with pytest.raises(ValueError, match="same number of coordinates"):
        LineInFamily(1, base, p0, p1)


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2)])
def test_tangency_rejects_a_line_on_another_x(n, m):
    # tangency_degree used to truncate the coordinates, and answered 0 or
    # raised "pullback lost the Euler relation" depending on the line
    line = FolSampler(m, seed=3).line(1)
    with pytest.raises(ValueError, match=f"n \\+ 1 = {n + 1} coordinates"):
        tangency_degree(builtin_pencil(n), line)


# -- invariance and singular loci -------------------------------------------


def test_invariant_scale_independence():
    h1, h2 = h_pair()
    w = pencil_form(h1, h2)
    assert is_invariant(w, h1) == is_invariant(w, h1 * Fraction(7, 3))


def test_generic_surface_not_invariant():
    h1, h2 = h_pair()
    w = pencil_form(h1, h2)
    s = FolSampler(2, seed=31)
    assert not is_invariant(w, s.section11())


def test_surface_that_is_not_bihomogeneous_raises():
    # V(x_0 + y_1) is no subvariety of P^n x P^n; the answer used to be False
    with pytest.raises(ValueError, match="not bihomogeneous"):
        is_invariant(builtin_pencil(2), x(0) + y(1))


@pytest.mark.parametrize("make", [builtin_pencil, builtin_log4, lambda n: builtin_pullback(0, n)])
def test_every_surface_is_invariant_on_the_curve_n_1(make):
    # at n = 1, X is a curve and every point of it is a leaf
    w = make(1)
    s = FolSampler(1, seed=5)
    for f in (y(0, 1), x(1, 1) * y(0, 1), x(0, 1), s.section11(), s.section11() * x(1, 1)):
        assert is_invariant(w, f)
    q = BiPoly.incidence_quadric(1)
    for f in (q, q * y(1, 1)):
        with pytest.raises(ValueError, match="ideal of X"):
            is_invariant(w, f)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_constant_surface_raises(n):
    # V(c) ^ X is empty; a nonzero constant was called invariant at every n
    for c in (5, Fraction(-2, 3)):
        with pytest.raises(ValueError, match="nonzero constant"):
            is_invariant(builtin_pencil(n), BiPoly.const(n, c))


def test_divisorial_singularities_detected():
    h1, h2 = h_pair()
    w = pencil_form(h1, h2)
    assert not has_divisorial_singularities(w)
    scaled = PolyOneForm(2, [c * (x(0) + x(1)) for c in w.coeffs])
    assert has_divisorial_singularities(scaled)
    q = BiPoly.incidence_quadric(2)
    assert has_divisorial_singularities(PolyOneForm(2, [c * q for c in w.coeffs]))


@pytest.mark.xfail(
    strict=True,
    reason="has_divisorial_singularities misses V(h) ^ X for h not a "
    "coordinate: the coefficients h*a + q*b have ambient gcd 1",
)
def test_divisor_off_the_coordinates_detected():
    # omega = h * omega0 + q * beta vanishes along V(h) ^ X, a divisor of X
    n = 2
    h = x(0) * y(1) + x(1) * y(2)
    omega0 = pencil_form(x(0) * y(0) + x(2) * y(1), x(1) * y(1) - x(2) * y(2))
    beta = pencil_form(x(0) * y(2), x(2) * y(0) + x(1) * y(0))
    q = BiPoly.incidence_quadric(n)
    w = PolyOneForm(n, [h * a + q * b for a, b in zip(omega0.coeffs, beta.coeffs)])
    assert has_divisorial_singularities(w)


def test_log_coprime_factors_saturated():
    w = builtin_log4(3)
    assert not has_divisorial_singularities(w)


@pytest.fixture
def no_prs(monkeypatch):
    """The primitive-PRS gcd raises, so a test passes only if the mod-p
    coprimality certificate decides every gcd it makes."""

    def refuse(f, g):
        raise AssertionError("the pseudo-remainder sequence was reached")

    monkeypatch.setattr(bipoly, "_prs_gcd", refuse)


def seeded_log3(n, seed):
    s = FolSampler(n, seed=seed)
    return log_form([1, 2, -3], [s.section11() for _ in range(3)])


@pytest.mark.parametrize("seed", [2024, 7, 11])
@pytest.mark.parametrize("n", [2, 3])
def test_log3_saturation_decided_by_the_certificate(no_prs, n, seed):
    # at n = 2 and seed 2024 the PRS gives no answer within 20 s on the
    # first two coefficients
    assert not has_divisorial_singularities(seeded_log3(n, seed))


def test_euler_23_saturation_decided_by_the_certificate(no_prs):
    # the PRS gives no answer within 20 s on the first two coefficients
    s = FolSampler(2, seed=7, height=9)
    s.euler_form((2, 2))
    assert not has_divisorial_singularities(s.euler_form((2, 3)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: builtin_torus(2),
        *(lambda n=n: builtin_log4(n) for n in (2, 3, 4)),
        *(lambda n=n: builtin_pullback(1, n) for n in (2, 3, 4)),
        lambda: builtin_affine(2)[0],
    ],
    ids=["torus_n2", "log4_n2", "log4_n3", "log4_n4",
         "pullback-d1_n2", "pullback-d1_n3", "pullback-d1_n4", "affine_n2"],
)
def test_builtin_saturation_decided_for_the_whole_coefficient_list(no_prs, make):
    # gcd 1, but a running gcd of the coefficients stays nonconstant for a
    # while, so a pairwise fold would reach the PRS
    assert not has_divisorial_singularities(make())


def test_check_integrable_answers_on_a_seeded_log3(no_prs, tmp_path, capsys):
    path = tmp_path / "log3.json"
    path.write_text(json.dumps(seeded_log3(2, 2024).to_json()))
    code = main(["fol", "check-integrable", "--input", str(path), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["integrable"] is True and data["saturated"] is True


# -- vector-field foliations -------------------------------------------------


def test_affine_action_package():
    w, f1, f2 = builtin_affine()
    assert w.bidegree == (2, 2)
    assert integrable(w)
    assert not has_divisorial_singularities(w)
    assert f1.bidegree() == (2, 0)
    assert f2.bidegree() == (0, 2)
    assert is_invariant(w, f1)
    assert is_invariant(w, f2)


def test_affine_bracket_is_affine_algebra():
    # [s, e] = e for the two generators, i.e. the Lie algebra is aff(C)
    s_mat = [[1, 0, 0], [0, 0, 0], [0, 0, -1]]
    e_mat = [[0, 1, 0], [0, 0, 2], [0, 0, 0]]
    bracket = [
        [
            sum(s_mat[i][k] * e_mat[k][j] - e_mat[i][k] * s_mat[k][j] for k in range(3))
            for j in range(3)
        ]
        for i in range(3)
    ]
    assert bracket == e_mat


def test_torus_matches_monomial_pencil():
    w = builtin_torus()
    ref = pencil_form(x(1) * y(1), x(0) * y(0))
    assert same_foliation(w, ref)
    s = FolSampler(2, seed=37)
    assert tangency_degree(w, s.line(1)) == 0
    assert tangency_degree(w, s.line(2)) == 0


AFFINE_FIELDS = (
    [[1, 0, 0], [0, 0, 0], [0, 0, -1]],
    [[0, 1, 0], [0, 0, 2], [0, 0, 0]],
)
TORUS_FIELDS = (
    [[-1, 0, 0], [0, -1, 0], [0, 0, 2]],
    [[2, 0, 0], [0, -1, 0], [0, 0, -1]],
)


def tracefree(rng):
    m = [[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)]
    m[2][2] = -m[0][0] - m[1][1]
    return m


def random_pairs():
    rng = random.Random(2024)
    return [(tracefree(rng), tracefree(rng)) for _ in range(4)]


def fixed_zero(key):
    """dx_0 monomials divisible by x_1 y_0, x_2 y_0 or x_2 y_2."""
    xe, ye = key[:3], key[3:]
    return bool((xe[1] or xe[2]) and ye[0]) or bool(xe[2] and ye[2])


def contract(w, field):
    return sum((c * comp for c, comp in zip(w.coeffs, field)), BiPoly.zero(w.n))


def digest(w):
    text = json.dumps(w.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "index, expected",
    [(0, "379ca8a5155c90a8"), (1, "5e760baff2a874d0"),
     (2, "741a8ccc26dea149"), (3, "74b998bee38af113")],
)
def test_random_pair_foliation_pinned(index, expected):
    a, b = random_pairs()[index]
    w = foliation_from_fields(linear_field(a, 2), linear_field(b, 2))
    assert digest(w) == expected


FIELD_PAIRS = [AFFINE_FIELDS, TORUS_FIELDS, *random_pairs()]
nonzero_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(FIELD_PAIRS) - 1), nonzero_fractions, nonzero_fractions)
def test_scaling_a_field_keeps_the_output_bytes(index, s1, s2):
    # a field's scale is not part of its foliation: rational fields are
    # cleared where they enter, and the output is the same to the byte
    v1, v2 = (linear_field(m, 2) for m in FIELD_PAIRS[index])
    scaled = foliation_from_fields(tuple(c * s1 for c in v1), tuple(c * s2 for c in v2))
    assert scaled.to_json() == foliation_from_fields(v1, v2).to_json()


def test_nullspace_of_int_rows_is_exact():
    # 1 / pivot is a float for an int pivot: the elimination must stay exact,
    # with int entries that solve every row
    rows = [{0: 2, 1: 3, 3: -1}, {1: 4, 2: 6, 3: 5}, {0: 1, 2: -7},
            {0: 2, 1: 7, 2: 6, 3: 4}]  # the sum of the first two
    basis = nullspace(rows, 4)
    assert len(basis) == 1
    assert all(type(v) is int for vec in basis for v in vec)
    assert all(sum(row.get(c, 0) * v for c, v in enumerate(vec)) == 0
               for vec in basis for row in rows)
    # rows hold ints only: a caller clears denominators first
    with pytest.raises(TypeError):
        nullspace([{0: Fraction(1, 2), 2: Fraction(2, 3)}, {1: 5}], 3)


@pytest.mark.parametrize(
    "mats", FIELD_PAIRS,
    ids=["affine", "torus", "random0", "random1", "random2", "random3"],
)
def test_foliation_from_fields_properties(mats):
    n = 2
    fields = [linear_field(m, n) for m in mats]
    w = foliation_from_fields(*fields)
    assert w.bidegree == (2, 2)
    ex = sum((x(i) * w.coeffs[i] for i in range(n + 1)), BiPoly.zero(n))
    ey = sum((y(j) * w.coeffs[n + 1 + j] for j in range(n + 1)), BiPoly.zero(n))
    assert ex.is_zero and ey.is_zero
    assert all(is_zero_mod_quadric(contract(w, field)) for field in fields)
    assert not any(fixed_zero(key) for key in w.coeffs[0].terms)
    # a one-dimensional kernel has no polynomial content (``_saturate``)
    assert not used_vars(poly_gcd_list([c for c in w.coeffs if not c.is_zero]))


def test_foliation_from_fields_is_canonical():
    # another basis of the same span gives byte-identical output
    v1, v2 = (linear_field(m, 2) for m in AFFINE_FIELDS)
    other = tuple(a + b * 2 for a, b in zip(v1, v2))
    assert digest(foliation_from_fields(v2, other)) == digest(builtin_affine()[0])


def test_junk_pivots_are_the_fixed_dx0_monomials():
    # the forms q dh - h dq, h of bidegree (1,1), vanish on X and satisfy
    # every equation foliation_from_fields solves; their dx_0 coefficients
    # must have exactly the fixed-zero monomials as leading monomials in
    # the solver's column order (ascending exponent tuples)
    n = 2
    q = BiPoly.incidence_quadric(n)
    fields = [linear_field(m, n) for m in AFFINE_FIELDS]
    rows = []  # (pivot key, reduced dx_0 coefficient)
    for a in range(n + 1):
        for b in range(n + 1):
            h = x(a) * y(b)
            junk = PolyOneForm(
                n, [q * h.dvar(v) - h * q.dvar(v) for v in range(2 * (n + 1))]
            )
            assert all(is_zero_mod_quadric(contract(junk, f)) for f in fields)
            p = junk.coeffs[0]
            for piv, row in rows:
                if piv in p.terms:
                    p = p - row * Fraction(p.terms[piv], row.terms[piv])
            if not p.is_zero:
                rows.append((min(p.terms), p))
    xs, ys = x(0) + x(1) + x(2), y(0) + y(1) + y(2)
    dx0_monomials = (xs * ys * ys).terms
    assert len(rows) == 8
    assert {piv for piv, _ in rows} == {k for k in dx0_monomials if fixed_zero(k)}


def test_fields_must_be_tangent():
    t = linear_field([[1, 0, 0], [0, 0, 0], [0, 0, -1]], 2)
    broken = list(linear_field([[0, 1, 0], [0, 0, 1], [0, 0, 0]], 2))
    broken[4] = BiPoly.zero(2)  # drop a dual component so q is not killed
    with pytest.raises(ValueError, match="tangent"):
        foliation_from_fields(tuple(broken), t)


def test_dependent_fields_rejected():
    t = linear_field([[1, 0, 0], [0, 0, 0], [0, 0, -1]], 2)
    with pytest.raises(ValueError, match="dependent"):
        foliation_from_fields(t, tuple(c * 2 for c in t))


def test_fields_dependent_modulo_the_euler_fields_rejected():
    # the identity's field is R_x - R_y, zero on P^n x P^n
    identity = linear_field([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    t = linear_field([[1, 0, 0], [0, 0, 0], [0, 0, -1]], 2)
    with pytest.raises(ValueError, match="dependent on X"):
        foliation_from_fields(identity, t)
    # t plus a multiple of R_x - R_y is t again on X
    shifted = tuple(a + b * 3 for a, b in zip(t, identity))
    with pytest.raises(ValueError, match="dependent on X"):
        foliation_from_fields(t, shifted)
    # so are rational multiples of them, cleared on entry
    rational = tuple(a * Fraction(-5, 2) + b * Fraction(2, 7) for a, b in zip(t, identity))
    with pytest.raises(ValueError, match="dependent on X"):
        foliation_from_fields(tuple(c * Fraction(1, 3) for c in t), rational)


def laplace_det(matrix, n):
    """Determinant of a square matrix of polynomials, by expansion along the
    first row."""
    if not matrix:
        return BiPoly.const(n, 1)
    out = BiPoly.zero(n)
    for j, a in enumerate(matrix[0]):
        if not a.is_zero:
            minor = a * laplace_det([row[:j] + row[j + 1:] for row in matrix[1:]], n)
            out = out + minor if j % 2 == 0 else out - minor
    return out


def independent_reference(v1, v2):
    """Is some 4 x 4 minor of the matrix (v1, v2, R_x, R_y) outside (q)?"""
    n = v1[0].n
    zero = BiPoly.zero(n)
    matrix = [list(v1), list(v2),
              [BiPoly.x(n, i) for i in range(n + 1)] + [zero] * (n + 1),
              [zero] * (n + 1) + [BiPoly.y(n, j) for j in range(n + 1)]]
    return any(
        not is_zero_mod_quadric(laplace_det([[row[k] for k in cols] for row in matrix], n))
        for cols in combinations(range(2 * n + 2), 4)
    )


def seeded_field_pairs(n, seed):
    """Integer linear-field pairs: two drawn matrices, and B = cA + dI, whose
    field is c v_A + d (R_x - R_y), so the four values at every point are
    dependent and the symbolic minors decide."""
    rng = random.Random(seed)
    draw = lambda: [[rng.randint(-2, 2) for _ in range(n + 1)] for _ in range(n + 1)]
    pairs = []
    for _ in range(3):
        a, b = draw(), draw()
        c, d = rng.randint(-3, 3), rng.randint(1, 3)
        dependent = [[c * a[i][j] + d * (i == j) for j in range(n + 1)]
                     for i in range(n + 1)]
        pairs += [(a, b), (a, dependent)]
    return [tuple(linear_field(m, n) for m in pair) for pair in pairs]


@pytest.mark.parametrize("n,seed", [(2, 1), (2, 2), (3, 3)])
def test_fields_independent_matches_the_laplace_minors(n, seed):
    answers = []
    for v1, v2 in seeded_field_pairs(n, seed):
        answers.append(_fields_independent(v1, v2))
        assert answers[-1] == independent_reference(v1, v2)
    assert answers[1::2] == [False] * 3


def test_fields_independent_off_the_fixed_point():
    # v2 vanishes at the fixed point of X, so the four values there are
    # dependent and the symbolic minors decide
    px, py = witness.fixed_point(2)
    t = linear_field([[1, 0, 0], [0, 0, 0], [0, 0, -1]], 2)
    e = linear_field([[0, 1, 0], [0, 0, 2], [0, 0, 0]], 2)
    h = x(0) * px[1] - x(1) * px[0]  # zero at the fixed point
    v2 = tuple(c * h for c in t)
    assert all(c.eval_point(px, py) == 0 for c in v2)
    assert _fields_independent(e, v2) and independent_reference(e, v2)
    assert not _fields_independent(t, v2) and not independent_reference(t, v2)


def test_linear_field_rejects_bad_matrices():
    for bad in ([[1, 0], [0, -1]], [[1, 0, 0], [0, 0], [0, 0, -1]],
                [[1, 0, 0], [0, 0, 0], [0, 0, -1], [0, 0, 0]]):
        with pytest.raises(ValueError, match="3 x 3 matrix"):
            linear_field(bad, 2)
    for entry in (0.1, "1", True):
        with pytest.raises(ValueError, match="ints or Fractions"):
            linear_field([[entry, 0, 0], [0, 0, 0], [0, 0, -1]], 2)
    v = linear_field([[Fraction(1, 10), 0, 0], [0, 0, 0], [0, 0, 0]], 2)
    assert v[0].terms == {(1, 0, 0, 0, 0, 0): Fraction(1, 10)}


def test_linear_field_kills_q_for_any_matrix():
    rng = random.Random(5)
    q = BiPoly.incidence_quadric(3)
    for _ in range(5):
        m = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        v = linear_field(m, 3)
        assert sum((c * q.dvar(k) for k, c in enumerate(v)), BiPoly.zero(3)).is_zero


def test_fields_must_share_one_ambient():
    t = linear_field([[1, 0, 0], [0, 0, 0], [0, 0, -1]], 2)
    e = linear_field([[0, 1, 0], [0, 0, 2], [0, 0, 0]], 2)
    t3 = linear_field([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]], 3)
    with pytest.raises(ValueError, match="P\\^2 x P\\^2 and P\\^3 x P\\^3"):
        foliation_from_fields(e, t3)
    mixed = t[:5] + (BiPoly.zero(3),)
    with pytest.raises(ValueError, match="P\\^2 x P\\^2 and P\\^3 x P\\^3"):
        foliation_from_fields(mixed, e)
    for short in (t[:5], t + (BiPoly.zero(2),), ()):
        with pytest.raises(ValueError, match="one per x_i and y_j"):
            foliation_from_fields(short, e)
        with pytest.raises(ValueError, match="one per x_i and y_j"):
            foliation_from_fields(e, short)


def test_fields_of_a_lower_normal_bundle_rejected():
    # independent fields that x0 dx1 - x1 dx0, of bidegree (2, 0), annihilates
    # modulo q: every g omega' with g in H^0(O_X(0, 2)) solves the system
    v1 = linear_field([[1, 0, 0], [0, 1, 0], [0, 0, -2]], 2)
    v2 = linear_field([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 2)
    pencil = builtin_pullback(0, 2)
    for v in (v1, v2):
        assert is_zero_mod_quadric(sum((c * f for c, f in zip(pencil.coeffs, v)), BiPoly.zero(2)))
    with pytest.raises(ValueError, match=r"normal bundle below O_X\(2, 2\).* span 6 dimensions"):
        foliation_from_fields(v1, v2)


# -- numerics ----------------------------------------------------------------


def test_foliation_numerics_fields():
    fn = foliation_numerics((2, 2), 4)
    assert fn.deg_H1 == 0 and fn.deg_H2 == 0
    assert fn.K_F_bidegree == (-2, -2)
    assert fn.splitting_p == 2

    fn = foliation_numerics((2, 2), 2)
    assert fn.K_F_bidegree == (0, 0)  # trivial canonical bundle

    fn = foliation_numerics((3, 5), 3)
    assert fn.deg_H1 == 3 and fn.deg_H2 == 1


@pytest.mark.parametrize("n1,n2", [(3, 2), (2, 3)])
def test_inputs_on_different_spaces_are_rejected(n1, n2):
    # same_foliation(pencil(3), pencil(2)) used to answer False, and the
    # swapped call raised an IndexError in the witness; log_form built a
    # wrong form from x_0 on P^2 and x_1 on P^3
    both = re.escape(f"P^{n1} x P^{n1} and P^{n2} x P^{n2}")
    with pytest.raises(ValueError, match=both):
        log_form([1, -1], [x(0, n1), x(1, n2)])
    with pytest.raises(ValueError, match=both):
        pencil_form(*(FolSampler(k, seed=1).section11() for k in (n2, n1)))
    with pytest.raises(ValueError, match=both):
        same_foliation(builtin_pencil(n1), builtin_pencil(n2))
    with pytest.raises(ValueError, match=both):
        builtin_pencil(n1, FolSampler(n2, seed=1))  # used to build on P^n2
    with pytest.raises(ValueError, match=both):
        is_invariant(builtin_pencil(n1), x(1, n2) * y(1, n2) + x(0, n2) * y(2, n2))


# -- serialization -----------------------------------------------------------


def test_form_json_roundtrip():
    w = builtin_log4(2)
    data = w.to_json()
    back = PolyOneForm.from_json(data)
    assert back.bidegree == w.bidegree
    assert all(a == b for a, b in zip(back.coeffs, w.coeffs))


def test_form_from_json_rejects_misplaced_blocks():
    data = builtin_pencil(2).to_json()
    data["dx"].append(data["dy"].pop())
    with pytest.raises(ValueError, match="3 coefficients each"):
        PolyOneForm.from_json(data)


def test_form_from_json_checks_a_stated_schema_and_bidegree():
    data = builtin_pencil(2).to_json()
    assert data["schema"] == "1" and data["bidegree"] == [2, 2]
    for key in ("schema", "bidegree"):
        left_out = dict(data)
        del left_out[key]
        assert PolyOneForm.from_json(left_out).bidegree == (2, 2)
    for key, value, message in [
        ("schema", "9", "schema '9' is not '1'"),
        ("schema", 1, "schema 1 is not '1'"),
        ("bidegree", [5, 7], r"stated bidegree \[5, 7\] is not the coefficients' \[2, 2\]"),
        ("bidegree", [2, 2, 0], "stated bidegree"),
        ("bidegree", 2, "stated bidegree"),
    ]:
        with pytest.raises(ValueError, match=message):
            PolyOneForm.from_json({**data, key: value})


def test_euler_checked_on_construction():
    n = 2
    bad = [x(1)] + [BiPoly.zero(n)] * 5
    with pytest.raises(ValueError, match="Euler"):
        PolyOneForm(n, bad)


# -- input contracts ---------------------------------------------------------


def test_line_rejects_a_zero_base_point():
    # the "line" used to be accepted, and its tangency degree was -inf
    with pytest.raises(ValueError, match="base point must be nonzero"):
        LineInFamily(1, (0, 0, 0), (1, 0, 0), (0, 1, 0))


@pytest.mark.parametrize("base, p0, p1", [((1.0, 0, 0), (0, 1, 0), (0, 0, 1)),
                                         ((1, 0, 0), (0, 0.5, 0), (0, 0, 1)),
                                         ((1, 0, 0), (0, 1, 0), (0, 0, "1")),
                                         ((True, 0, 0), (0, 1, 0), (0, 0, 1))])
def test_line_rejects_coordinates_that_are_not_exact(base, p0, p1):
    # a float used to raise AttributeError inside tangency_degree, and a bool
    # was taken for the int 1
    with pytest.raises(ValueError, match="ints or Fractions"):
        LineInFamily(1, base, p0, p1)


def test_line_rejects_a_bad_family_and_a_point_off_the_hyperplane():
    with pytest.raises(ValueError, match="family must be 1 or 2"):
        LineInFamily(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError, match="incidence hyperplane"):
        LineInFamily(1, (1, 0, 0), (1, 1, 0), (0, 0, 1))


def test_form_rejects_coefficients_on_another_space():
    # accepted at n = 2 with x on P^3 x P^3; integrable then raised struct.error
    zero = BiPoly.zero(3)
    with pytest.raises(ValueError, match=re.escape("P^2 x P^2 and P^3 x P^3")):
        PolyOneForm(2, [x(1, 3), x(0, 3) * -1, zero, zero, zero, zero])


@pytest.mark.parametrize("n", [True, 0, 1.0])
def test_form_rejects_an_n_its_json_cannot_carry(n):
    # True was accepted and written as "n": true, which from_json refuses;
    # 0 failed on the Euler contraction
    with pytest.raises(ValueError, match=re.escape(f"integer >= 1, got {n!r}")):
        PolyOneForm(n, builtin_pencil(1).coeffs)


def test_form_rejects_malformed_coefficients():
    zero = BiPoly.zero(2)
    with pytest.raises(ValueError, match="one coefficient per"):
        PolyOneForm(2, [x(1), x(0) * -1, zero, zero, zero])
    with pytest.raises(ValueError, match="zero form"):
        PolyOneForm(2, [zero] * 6)
    with pytest.raises(ValueError, match="inconsistent"):
        PolyOneForm(2, [x(1), y(0), zero, zero, zero, zero])


def test_constructors_reject_bad_factors():
    h1, h2 = h_pair()
    with pytest.raises(ValueError, match="bidegree"):
        pencil_form(h1, x(0) * x(1) * y(2))
    with pytest.raises(ValueError, match="matching nonempty"):
        log_form([1, -1, 2], [h1, h2])
    with pytest.raises(ValueError, match="zero factor"):
        log_form([1, -1], [h1, BiPoly.zero(2)])
    with pytest.raises(ValueError, match="pullback degrees"):
        builtin_pullback(2, 2)


@pytest.mark.parametrize("degree", [True, False, 0.0, 1.0])
def test_pullback_degree_must_be_an_int(degree):
    with pytest.raises(ValueError, match="pullback degrees"):
        builtin_pullback(degree, 2)


def test_field_foliations_live_on_n_2_only():
    a = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]
    b = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(ValueError, match="n = 2"):
        foliation_from_fields(linear_field(a, 3), linear_field(b, 3))
    with pytest.raises(ValueError, match="n = 2"):
        builtin_affine(3)
    with pytest.raises(ValueError, match="n = 2"):
        builtin_torus(3)
