"""``_dq_wedge_in_q`` against the full route it replaced.

The symbolic integrability and proportionality tests first take the
components of a ^ b through one index i with a_i not in (q); only when those
fail do they complete a ^ b and test dq ^ a ^ b.  The oracle below is the
route before that: all of a ^ b, then the dq wedge.  The tests call the
symbolic functions directly, so forms a witness would refute still reach the
symbolic stage, and spy on ``_wedge_sum`` and ``form_wedge`` to show which of
the three routes (no index, through i, completion) each form takes.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from adjvar import folforms as ff
from adjvar.bipoly import BiPoly, is_zero_mod_quadric


def full_route(a, b, n) -> bool:
    """dq ^ a ^ b in (q), from the whole product a ^ b."""
    ab = ff.form_wedge(a, b, n)
    dq_ab = ff.form_wedge(ff._euler_reduced(ff.dq_form(n), n), ab, n)
    return all(is_zero_mod_quadric(c) for c in dq_ab.values())


def reduced(omega):
    return ff._euler_reduced(ff._form_dict(omega.integral), omega.n)


def integrable_operands(omega):
    n = omega.n
    w = reduced(omega)
    return w, ff._euler_reduced(ff.form_d(w, n), n)


def check_integrable(omega) -> bool:
    n = omega.n
    w, dw = integrable_operands(omega)
    answer = ff._dq_wedge_in_q(w, dw, n)
    assert answer == full_route(w, dw, n) == ff._integrable_symbolic(omega)
    return answer


def check_same(w1, w2) -> bool:
    n = w1.n
    f1, f2 = reduced(w1), reduced(w2)
    answer = ff._dq_wedge_in_q(f1, f2, n)
    assert answer == full_route(f1, f2, n) == ff._same_foliation_symbolic(w1, w2)
    return answer


def scaled(omega, p):
    """The form p * omega, for a polynomial or a number p."""
    return ff.PolyOneForm(omega.n, [c * p for c in omega.coeffs])


def plus(w1, w2):
    return ff.PolyOneForm(w1.n, [a + b for a, b in zip(w1.coeffs, w2.coeffs)])


def times_q_plus(omega, h, alpha):
    """h omega + q alpha: integrable on X when omega is, but its ambient
    omega ^ d(omega) leaves (q), so only the completion decides it."""
    q = BiPoly.incidence_quadric(omega.n)
    return plus(scaled(omega, h), scaled(alpha, q))


BUILTINS = (
    [("pencil", n, ff.builtin_pencil) for n in (1, 2, 3, 4)]
    + [("log4", n, ff.builtin_log4) for n in (1, 2, 3, 4)]
    + [("pullback-d0", n, lambda n: ff.builtin_pullback(0, n)) for n in (1, 2, 3, 4)]
    + [("pullback-d1", n, lambda n: ff.builtin_pullback(1, n)) for n in (2, 3, 4)]
    + [("affine", 2, lambda n: ff.builtin_affine(n)[0]), ("torus", 2, ff.builtin_torus)]
)


@pytest.mark.parametrize("name,n,make", BUILTINS,
                         ids=[f"{b}-{n}" for b, n, _ in BUILTINS])
def test_builtins_agree_with_the_full_route(name, n, make):
    assert check_integrable(make(n))


@pytest.mark.parametrize("n,bidegree", [(2, (2, 2)), (2, (3, 3)), (3, (2, 2))])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_seeded_euler_forms_are_refuted_by_both_routes(n, bidegree, seed):
    omega = ff.FolSampler(n, seed=seed, height=7).euler_form(bidegree)
    assert not check_integrable(omega)


@pytest.mark.parametrize("n,seed", [(2, 1), (2, 5), (3, 1)])
def test_a_pencil_moved_off_x_agrees_with_the_full_route(n, seed):
    sampler = ff.FolSampler(n, seed=seed, height=5)
    omega = times_q_plus(ff.builtin_pencil(n), sampler.section11(),
                         sampler.euler_form((2, 2)))
    assert check_integrable(omega)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_multiple_of_q_is_integrable_with_no_index(n):
    q = BiPoly.incidence_quadric(n)
    alpha = ff.builtin_pencil(n) if n == 1 else ff.FolSampler(n, 3).euler_form((2, 2))
    assert check_integrable(scaled(alpha, q))


@pytest.mark.parametrize("n", [2, 3])
def test_same_foliation_agrees_with_the_full_route(n):
    sampler = ff.FolSampler(n, seed=11, height=5)
    w = ff.builtin_pencil(n)
    assert check_same(w, scaled(w, Fraction(-3, 7)))
    moved = scaled(w, sampler.section11())
    alpha = sampler.euler_form((2, 2))
    assert check_same(moved, times_q_plus(moved, BiPoly.const(n, 1), alpha))
    assert not check_same(w, ff.builtin_pencil(n, sampler))
    assert not check_same(w, sampler.euler_form((2, 2)))


def reduced_operand(rng, n, degree, q_share):
    """A form dict of the given degree on the indices free of x_0 and y_0,
    with small int coefficient polynomials, each a multiple of q with
    probability q_share."""
    q = BiPoly.incidence_quadric(n)
    indices = [v for v in range(2 * n + 2) if v not in (0, n + 1)]
    form = {}
    for key in combinations(indices, degree):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            mono = [0] * (2 * n + 2)
            for _ in range(2):
                mono[rng.randrange(2 * n + 2)] += 1
            terms[tuple(mono)] = rng.randint(-3, 3)
        p = BiPoly(n, terms)
        if not p.is_zero:
            form[key] = p * q if rng.random() < q_share else p
    return form


@pytest.mark.parametrize("seed", range(40))
def test_drawn_reduced_operands_agree_with_the_full_route(seed):
    # the identity a_i (a ^ b) = a ^ i_{d/dz_i}(a ^ b) needs only that a is a
    # 1-form, so the test holds on any reduced operands, not just on forms
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    a = reduced_operand(rng, n, 1, rng.choice([0, 0.5, 0.8, 1]))
    b = reduced_operand(rng, n, rng.choice([1, 2]), rng.choice([0, 0.5, 1]))
    assert ff._dq_wedge_in_q(a, b, n) == full_route(a, b, n)


def test_an_index_whose_coefficient_is_in_q_decides_nothing():
    # with a_1 = q every component of a ^ b through dx_1 lies in (q), but
    # dq ^ a ^ b does not; the index taken is dx_2, whose coefficient is not in (q)
    n = 2
    a = {(1,): BiPoly.incidence_quadric(n), (2,): BiPoly.x(n, 1)}
    b = {(4,): BiPoly.y(n, 2)}
    assert not full_route(a, b, n)
    assert not ff._dq_wedge_in_q(a, b, n)


# -- which route each form takes ----------------------------------------------


@pytest.fixture
def spy(monkeypatch):
    """Records ("sum", number of pairs, result) for every ``_wedge_sum`` call
    and ("wedge", f, g, result) for every ``form_wedge`` call."""
    calls = []
    wedge_sum, form_wedge = ff._wedge_sum, ff.form_wedge

    def spy_sum(pairs, n):
        out = wedge_sum(pairs, n)
        calls.append(("sum", len(pairs), out))
        return out

    def spy_wedge(f, g, n):
        out = form_wedge(f, g, n)
        calls.append(("wedge", f, g, out))
        return out

    monkeypatch.setattr(ff, "_wedge_sum", spy_sum)
    monkeypatch.setattr(ff, "form_wedge", spy_wedge)
    return calls


def test_a_multiple_of_q_takes_no_product(spy):
    n = 2
    alpha = ff.FolSampler(n, 3).euler_form((2, 2))
    assert ff._integrable_symbolic(scaled(alpha, BiPoly.incidence_quadric(n)))
    assert spy == []


def test_the_builtin_pencil_at_n_3_ends_through_one_index(spy):
    assert ff._integrable_symbolic(ff.builtin_pencil(3))
    # one two-pair accumulator, and never a_rest ^ b_rest or the dq wedge
    assert [c[:2] for c in spy] == [("sum", 2)]
    assert spy[0][2] == {}


@pytest.mark.parametrize("omega", [
    ff.builtin_affine(2)[0],
    times_q_plus(ff.builtin_pencil(2), ff.FolSampler(2, 1, 5).section11(),
                 ff.FolSampler(2, 2, 5).euler_form((2, 2))),
], ids=["affine", "moved-pencil"])
def test_the_completion_unions_disjoint_keys_into_the_whole_product(spy, omega):
    n = omega.n
    w, dw = integrable_operands(omega)
    assert ff._dq_wedge_in_q(w, dw, n)
    # form_wedge runs through the spied _wedge_sum, so each of its calls
    # shows as a one-pair sum, then the wedge
    sums = [c[:2] for c in spy if c[0] == "sum"]
    assert sums == [("sum", 2), ("sum", 1), ("sum", 1)]
    (_, a_rest, b_rest, rest), (_, _, ab, _) = [c for c in spy if c[0] == "wedge"]
    through = spy[0][2]
    (i,) = next(k for k, p in w.items() if not is_zero_mod_quadric(p))
    assert (i,) not in a_rest and all(i not in k for k in b_rest)
    assert all(i in k for k in through) and all(i not in k for k in rest)
    assert ab == {**through, **rest} == ff.form_wedge(w, dw, n)


# -- the accumulator and the integer scaling ------------------------------------


def random_form(rng, n, degree):
    """A form dict with up to four 1- or 2-index keys, small int and Fraction
    coefficients and monomials of the given total degree."""
    form = {}
    for _ in range(4):
        key = tuple(sorted(rng.sample(range(2 * n + 2), rng.choice([1, 2]))))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = [0] * (2 * n + 2)
            for _ in range(degree):
                mono[rng.randrange(2 * n + 2)] += 1
            c = rng.randint(-5, 5)
            terms[tuple(mono)] = rng.choice([c, Fraction(c, 3)])
        p = BiPoly(n, terms)
        if not p.is_zero:
            form[key] = p
    return form


def form_sum(forms, n):
    out = {}
    for form in forms:
        for k, p in form.items():
            out[k] = out.get(k, BiPoly.zero(n)) + p
    return {k: p for k, p in out.items() if not p.is_zero}


@pytest.mark.parametrize("seed", range(20))
def test_wedge_sum_is_the_sum_of_its_wedges(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3])
    f, g, h, k = (random_form(rng, n, rng.randint(0, 2)) for _ in range(4))
    pairs = ((f, g), (h, k), (g, f), (f, k))
    assert ff._wedge_sum(pairs, n) == form_sum(
        [ff.form_wedge(a, b, n) for a, b in pairs], n)
    # 1-forms anticommute, so f1 ^ g1 + g1 ^ f1 cancels in the accumulator
    f1 = {key: p for key, p in f.items() if len(key) == 1}
    g1 = {key: p for key, p in g.items() if len(key) == 1}
    assert ff._wedge_sum(((f1, g1), (g1, f1)), n) == {}
    assert ff._wedge_sum(((f1, g1), (g1, f1), (h, k)), n) == ff.form_wedge(h, k, n)


def test_wedge_sum_checks_the_exponent_bound_of_every_pair():
    n = 1
    big = [0] * 4
    big[0] = 1 << 15
    f = {(1,): BiPoly(n, {tuple(big): 1})}
    small = {(2,): BiPoly.x(n, 0)}
    assert ff._wedge_sum(((small, small), (f, small)), n) == ff.form_wedge(f, small, n)
    with pytest.raises(ValueError, match="16-bit"):
        ff._wedge_sum(((small, small), (f, f)), n)


def integral_reference(coeffs):
    """The route before integer scaling: each polynomial times the lcm."""
    den = lcm(*(c.denominator for p in coeffs for c in p.terms.values()))
    return tuple(p * den for p in coeffs)


def seeded_log3(n, seed):
    sampler = ff.FolSampler(n, seed=seed, height=7)
    return ff.log_form([1, 2, -3], [sampler.section11() for _ in range(3)])


@pytest.mark.parametrize("omega", [
    ff.builtin_log4(2, lam=Fraction(1, 3), mu=2),
    ff.builtin_log4(3, lam=Fraction(-2, 5), mu=3),
    seeded_log3(2, 2024),
    seeded_log3(3, 7),
], ids=["log4-n2", "log4-n3", "log3-n2", "log3-n3"])
def test_integral_scales_in_ints(omega):
    kinds = {type(c) for p in omega.coeffs for c in p.terms.values()}
    assert kinds == {int, Fraction}
    assert omega.integral == integral_reference(omega.coeffs)
    assert all(type(c) is int for p in omega.integral for c in p.terms.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_an_integral_form_comes_back_unchanged(n):
    omega = ff.builtin_log4(n)
    assert omega.integral is omega.coeffs
