"""Exact integer witnesses that refute the foliation predicates on X.

Each predicate of ``folforms`` asks whether every coefficient of a
differential form built from its input lies in (q), q = sum x_i y_i.  A
polynomial in (q) vanishes at every point of X, so a single point of X at
which that form is nonzero proves the answer False.  The functions here
evaluate the form at an integer point with no zero coordinate, on fixed
integer vectors, in Python ints only:

* ``integrability_witness``: dq ^ omega ^ d(omega) on four vectors,
* ``proportionality_witness``: dq ^ w1 ^ w2 on three vectors,
* ``invariance_witness``: dq ^ dF ^ omega on three vectors, at a point of
  V(F) ^ X found by solving F = q = 0 as two linear equations.

``coordinate_section_point`` gives, for each coordinate z_v, a fixed integer
point of X with z_v = 0.  Every polynomial in (z_v, q) vanishes there, so
``has_divisorial_singularities`` rules out the coordinate section V(z_v) ^ X
by one nonzero coefficient value, before any division.

Every polynomial here has integer coefficients: a form's ``integral``
and the F that ``is_invariant`` has cleared of denominators.  Scaling by a
nonzero constant does not change whether a value is zero, so the witnesses
read these multiples.  Gradients are scaled by the product P of the point's
coordinates.  Each polynomial p is summed once over its terms, into its
value and into one integer G_a = sum e_a * m per coordinate z_a, where
m = c * z^e is the value of the term c * z^e.  Since the derivative of z^e
along z_a is e_a * z^e / z_a, P * dp(u) = sum_a (P / z_a) * u_a * G_a: one
dot product per vector u with the integers (P / z_a) * u_a, which are built
once per call.

A witness only ever proves False.  A zero value proves nothing, and the
caller then runs its symbolic ideal test, which decides every True answer.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import mul


class Witness:
    """A point (x, y) of X with integer coordinates and the nonzero integer
    value there of the refuted form on the fixed vectors, up to a nonzero
    scale."""

    __slots__ = ("x", "y", "value")

    def __init__(self, x: tuple, y: tuple, value: int):
        self.x, self.y, self.value = x, y, value


@lru_cache(maxsize=None)
def _frame(n: int):
    """The fixed frame at n: (x, y, vectors, transverse, tangent), where
    (x, y) is a point p of X with no zero coordinate, ``vectors`` are three
    fixed integer vectors in the 2n+2 coordinates, ``transverse`` is
    dq_p(u_0) != 0 for a fixed integer vector u_0, and ``tangent`` holds
    three integer vectors u_1, u_2, u_3 with dq_p(u) = 0."""
    x = tuple((i + 2) * (-1) ** i for i in range(n + 1))
    tail = [(2 * j + 1) * (-1) ** (j // 2) for j in range(1, n + 1)]
    y0 = -sum(a * b for a, b in zip(x[1:], tail))
    y = (y0,) + tuple(x[0] * b for b in tail)
    raw = [
        tuple((7 * a + 11 * k * k + 3 * a * k + 5) % 13 - 6 for a in range(2 * n + 2))
        for k in range(4)
    ]
    dq = y + x  # dq at p
    transverse = _on(dq, raw[0])
    if 0 in y or not transverse:
        raise ArithmeticError(f"the fixed frame at n = {n} is degenerate")
    # v -> dq_0 v - dq(v) e_0 maps into the kernel of dq
    tangent = tuple(
        (y0 * v[0] - _on(dq, v),) + tuple(y0 * c for c in v[1:]) for v in raw[1:]
    )
    return x, y, tuple(raw[:3]), transverse, tangent


def fixed_point(n: int):
    """The frame's integer point (x, y) of X, with no zero coordinate."""
    return _frame(n)[:2]


@lru_cache(maxsize=None)
def coordinate_section_point(n: int, v: int):
    """An integer point (x, y) of X with z_v = 0, z_v the flat coordinate v
    (x_v for v <= n, else y_{v-n-1}), built from ``fixed_point(n)``.

    Let s be the factor of z_v = s_a and w the other one.  With s_a set to 0,
    w becomes s_b * w with w_b replaced by s_b w_b + s_a w_a, for the first
    b != a where that is nonzero; then sum_{i != a} s_i w'_i = s_b * q = 0.
    For n >= 2 such a b exists, as these n values sum to (n - 1) s_a w_a, so
    z_v is the only zero coordinate.  At n = 1, V(z_v) ^ X is one point and
    w_b = 0 there."""
    x, y = fixed_point(n)
    a = v if v <= n else v - n - 1
    s, w = (list(x), y) if v <= n else (list(y), x)
    others = [b for b in range(n + 1) if b != a]
    b = next((b for b in others if s[b] * w[b] + s[a] * w[a]), others[0])
    moved = [s[b] * t for t in w]
    moved[b] = s[b] * w[b] + s[a] * w[a]
    s[a] = 0
    return (tuple(s), tuple(moved)) if v <= n else (tuple(moved), tuple(s))


def _on(covector, u) -> int:
    return sum(map(mul, covector, u))


def _jet(polys, point, vectors=()):
    """(support, values, slopes) of the integer polynomials at the point,
    whose coordinates must all be nonzero integers.  ``support`` lists the
    indices of the nonzero polynomials p; for each of them ``values`` holds
    p(point) and ``slopes`` the list of P * dp(point)(u) over the vectors u,
    with P the product of the coordinates, which makes ``big // z`` exact."""
    big = prod(point)
    rows = [[big // z * t for z, t in zip(point, u)] for u in vectors]
    monomials = {}  # exponent key -> (z^e, the nonzero (a, e_a))
    support, values, slopes = [], [], []
    for b, p in enumerate(polys):
        if not p.terms:
            continue
        value, grad = 0, [0] * len(point)
        for key, c in p.terms.items():
            mono = monomials.get(key)
            if mono is None:
                mono = monomials[key] = (
                    prod(map(pow, point, key)),
                    [(a, e) for a, e in enumerate(key) if e],
                )
            m = c * mono[0]
            value += m
            for a, e in mono[1]:
                grad[a] += e * m
        support.append(b)
        values.append(value)
        slopes.append([sum(map(mul, row, grad)) for row in rows])
    return support, values, slopes


def _det3(rows) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def integrability_witness(omega) -> Witness | None:
    """A point p of X where dq ^ omega ^ d(omega) is nonzero, or None.

    The 4-form is evaluated on u_0 and the tangent vectors u_1, u_2, u_3 of
    the frame.  dq vanishes on the tangent ones, so of the six terms
    +-(dq ^ omega)(u_i, u_j) * d(omega)(u_k, u_l) only the three with
    i = 0 remain: the value is dq(u_0) * (omega ^ d(omega))(u_1, u_2, u_3),
    where d(omega)(u, v) = sum_b dA_b(u) v_b - dA_b(v) u_b is read off the
    gradients of omega's coefficients A_b.  A nonzero value means some
    coefficient of dq ^ omega ^ d(omega) is not in (q), so omega is not
    integrable on X; omega ^ d(omega) is then not in (q) either, since
    that would put dq ^ omega ^ d(omega) in (q)."""
    x, y, _, transverse, us = _frame(omega.n)
    support, values, slopes = _jet(omega.integral, x + y, us)
    cols = [[u[b] for u in us] for b in support]  # the vectors on the support
    beta = [_on(values, col) for col in zip(*cols)]  # omega(u_k)

    def d_omega(k, l):
        return sum(s[k] * c[l] - s[l] * c[k] for s, c in zip(slopes, cols))

    value = transverse * (
        beta[0] * d_omega(1, 2) - beta[1] * d_omega(0, 2) + beta[2] * d_omega(0, 1)
    )
    return Witness(x, y, value) if value else None


def _on_vectors(form, point, us):
    """The form's ``integral`` at the point, on each vector."""
    support, values, _ = _jet(form.integral, point)
    return [_on(values, [u[b] for b in support]) for u in us]


def proportionality_witness(w1, w2) -> Witness | None:
    """A point p of X where dq ^ w1 ^ w2 is nonzero, or None: the 3x3
    determinant of dq, w1 and w2 on u_0 and two tangent vectors of the frame,
    which is dq(u_0) * (w1 ^ w2)(u_1, u_2)."""
    x, y, _, transverse, tangent = _frame(w1.n)
    point, us = x + y, tangent[:2]
    (a, b), (c, d) = _on_vectors(w1, point, us), _on_vectors(w2, point, us)
    value = transverse * (a * d - b * c)
    return Witness(x, y, value) if value else None


def invariance_witness(omega, f) -> Witness | None:
    """A point of V(F) ^ X where dq ^ dF ^ omega is nonzero, or None: the
    3x3 determinant of dq, dF and omega on the three fixed vectors.  F must
    have integer coefficients, else ValueError; ``_jet`` needs integer points.

    The point has no zero coordinate, in particular x_0 != 0, so the chart
    x_0 of the symbolic test fails there.  A point is only found when F is
    not in (q) (see ``_point_on_surface``), so the symbolic test's error for
    such F is never pre-empted."""
    if any(type(c) is not int for c in f.terms.values()):
        raise ValueError("the invariance witness needs F with integer coefficients")
    n = omega.n
    fx, fy, us, _, _ = _frame(n)
    point = _point_on_surface(f, fx, fy)
    if point is None:
        return None
    x, y = point[: n + 1], point[n + 1 :]
    (slope,) = _jet([f], point, us)[2]
    value = _det3([[_on(y + x, u) for u in us], slope, _on_vectors(omega, point, us)])
    return Witness(x, y, value) if value else None


def _point_on_surface(f, fx, fy):
    """A point of V(F) ^ X with no zero coordinate, or None; F must be
    bihomogeneous with integer coefficients, as ``is_invariant`` ensures.

    When F has y-degree 1 (resp. x-degree 1), x (resp. y) is fixed and
    F = q = 0 are two linear equations in the other factor; all its
    coordinates but the first two are fixed too, and Cramer's rule solves
    for those two, scaled to integers.  The fixed factor is the frame's,
    then the frame's reversed, then (for bidegree (1, 1)) the same for the
    other factor, until a solution has no zero coordinate.

    If F = q * h, then h has degree 0 in the moving factor, F(fixed, z) is
    h(fixed) * q(fixed, z), and Cramer's determinant is zero, which leaves
    zeros in the solution; so a returned point proves that F is not in
    (q).  At n = 1 the two solved coordinates are the whole moving factor,
    both right-hand sides are zero, and so is the solution: None."""
    a, b = f.bidegree()
    sides = ([1] if b == 1 else []) + ([0] if a == 1 else [])
    n1 = len(fx)
    for side in sides:
        moving = fy if side else fx
        for fixed in (fx, fx[::-1]) if side else (fy, fy[::-1]):
            linear = [0] * len(fixed)  # F(fixed, z) = sum linear[j] * z_j
            for key, c in f.terms.items():
                xe, ye = key[:n1], key[n1:]
                fixed_exp, moving_exp = (xe, ye) if side else (ye, xe)
                m = c
                for base, e in zip(fixed, fixed_exp):
                    if e:
                        m *= base**e
                linear[moving_exp.index(1)] += m
            rf = -sum(map(mul, linear[2:], moving[2:]))
            rq = -sum(map(mul, fixed[2:], moving[2:]))
            det = linear[0] * fixed[1] - linear[1] * fixed[0]
            z = (rf * fixed[1] - linear[1] * rq, linear[0] * rq - fixed[0] * rf)
            z += tuple(det * t for t in moving[2:])
            if 0 not in z:
                return fixed + z if side else z + fixed
    return None
