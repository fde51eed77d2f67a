import hashlib
import json
import random
import re
from fractions import Fraction
from math import prod

import pytest

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
    _nullspace,
)


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


@pytest.mark.parametrize("n,index", [(2, 3), (2, -1), (0, 1), (1, 2)])
def test_coordinate_out_of_range_raises(n, index):
    # an index above n used to give the constant 1
    with pytest.raises(ValueError, match="does not exist"):
        BiPoly.x(n, index)
    with pytest.raises(ValueError, match="does not exist"):
        BiPoly.y(n, index)


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


def test_nullspace_of_int_rows_is_exact():
    # 1 / pivot is a float for an int pivot: the elimination must stay exact,
    # with int or Fraction entries that solve every row
    rows = [{0: 2, 1: 3, 3: -1}, {1: 4, 2: 6, 3: 5}, {0: 1, 2: -7},
            {0: 2, 1: 7, 2: 6, 3: 4}]  # the sum of the first two
    basis = _nullspace(rows, 4)
    assert len(basis) == 1
    assert all(type(v) in (int, Fraction) for vec in basis for v in vec)
    assert all(sum(row.get(c, 0) * v for c, v in enumerate(vec)) == 0
               for vec in basis for row in rows)
    basis = _nullspace([{0: Fraction(1, 2), 2: Fraction(2, 3)}, {1: 5}], 3)
    assert [[Fraction(v, vec[2]) for v in vec] for vec in basis] == [
        [Fraction(-4, 3), 0, 1]
    ]


@pytest.mark.parametrize(
    "mats", [AFFINE_FIELDS, TORUS_FIELDS, *random_pairs()],
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
                                         ((1, 0, 0), (0, 1, 0), (0, 0, "1"))])
def test_line_rejects_coordinates_that_are_not_exact(base, p0, p1):
    # a float used to raise AttributeError inside tangency_degree
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


def test_field_foliations_live_on_n_2_only():
    a = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]
    b = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(ValueError, match="n = 2"):
        foliation_from_fields(linear_field(a, 3), linear_field(b, 3))
    with pytest.raises(ValueError, match="n = 2"):
        builtin_affine(3)
    with pytest.raises(ValueError, match="n = 2"):
        builtin_torus(3)
