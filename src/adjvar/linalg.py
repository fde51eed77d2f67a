"""Exact linear algebra on sparse rows, and the gcd's coprimality certificate.
This module imports nothing from the package.

A matrix is a list of rows, each a dict {column: int entry}; absent
columns hold zero.  Everything stays in integers: rows are kept primitive,
and a caller with rational entries clears their denominators first.

``_coprime_certificate`` takes integer polynomials, each a nonzero term dict
{exponent tuple: int}, and tries to prove them coprime from mod-p images,
p = 2^31 - 1.  For each variable v that every f_i uses, the other variables
are set to a fixed integer point, and the univariate gcd in F_p[v] of the
images is taken at a point where the leading coefficient in v of some f_j
does not vanish.  This is a proof: with H = gcd(f_1..f_k) in Z[vars]
(Gauss's lemma), lc_v(H) divides lc_v(f_j), so the image of H keeps degree
deg_v H and divides every image.  A gcd of degree 0 for every v therefore
proves H = 1, with no probability involved.  A positive degree, or leading
coefficients that all vanish at both fixed points, leaves the list undecided.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import gcd, lcm


def _make_primitive(row: dict) -> None:
    """Divide the integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def nullspace(rows, ncols: int) -> list:
    """Basis of the nullspace of a sparse integer matrix, one primitive
    integer vector per free column, in column order.  Entries must be ints.

    Fraction-free Gauss-Jordan elimination on the sparse rows: the columns
    are taken in order, each column's pivot is the shortest row not yet a
    pivot that holds it, and the column is cleared only in the rows that
    hold it (a column -> rows index).  Every row is kept primitive.  The
    free columns are those of the reduced echelon form, whichever rows are
    chosen as pivots, and the vector of a free column f is the one with
    x_f > 0 and zero at every other free column; a pivot row reads
    p x_c + sum_free a_f x_f = 0, so each vector is unique up to scale."""
    mat = {}  # row id -> {column: nonzero int}
    holders: dict[int, set] = {}  # column -> ids of the rows holding it
    for i, row in enumerate(rows):
        vec = {c: v for c, v in row.items() if v}
        for c in vec:
            if not 0 <= c < ncols:
                raise ValueError(f"column {c} lies outside 0..{ncols - 1}")
            holders.setdefault(c, set()).add(i)
        if vec:
            _make_primitive(vec)
            mat[i] = vec

    pivot_col = {}  # pivot row id -> its pivot column
    free = []
    for c in range(ncols):
        held = holders.get(c)
        cands = [i for i in held if i not in pivot_col] if held else None
        if not cands:
            free.append(c)
            continue
        r = min(cands, key=lambda i: (len(mat[i]), i))
        pivot_col[r] = c
        prow = mat[r]
        p = prow[c]
        for i in [i for i in held if i != r]:
            row = mat[i]
            f = row[c]
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in prow.items():
                if k in row:
                    s = row[k] - b * v
                    if s:
                        row[k] = s
                    else:
                        del row[k]
                        holders[k].discard(i)
                else:
                    row[k] = -b * v
                    holders.setdefault(k, set()).add(i)
            _make_primitive(row)

    # only pivot rows are left nonzero, and each holds its pivot column and
    # free columns only
    basis = []
    for fc in free:
        terms = [(pivot_col[i], mat[i]) for i in holders.get(fc, ())]
        scale = lcm(*(row[pc] for pc, row in terms))
        vec = [0] * ncols
        vec[fc] = scale
        for pc, row in terms:
            vec[pc] = -row[fc] * scale // row[pc]
        g = gcd(*vec)
        basis.append([v // g for v in vec] if g > 1 else vec)
    return basis


#: the prime of the coprimality certificate, 2^31 - 1
_CERT_PRIME = (1 << 31) - 1


@lru_cache(maxsize=None)
def _cert_points(nvars: int) -> tuple:
    """The certificate's two fixed points of (Z/p)^nvars: successive powers
    of 7^5 = 16807 modulo p, the first nvars for the first point and the
    next nvars for the second, so no coordinate is zero."""
    powers = [pow(16807, k, _CERT_PRIME) for k in range(1, 2 * nvars + 1)]
    return tuple(powers[:nvars]), tuple(powers[nvars:])


def _values_mod_p(terms: dict, point) -> list:
    """[(exponent tuple, c * point^exponent mod p)] for the terms
    {exponent tuple: int c} of a polynomial."""
    p = _CERT_PRIME
    out = []
    for key, c in terms.items():
        m = c % p
        for z, e in zip(point, key):
            if e:
                m = m * (z if e == 1 else pow(z, e, p)) % p
        out.append((key, m))
    return out


def _image_in(values, v: int, z: int, degree: int) -> list:
    """Coefficients, low to high and with no trailing zero, of the image in
    F_p[v] of the polynomial whose term values are ``values``: each value
    divided by z^(its exponent of v)."""
    p = _CERT_PRIME
    inv = pow(z, -1, p)
    scale = [pow(inv, e, p) for e in range(degree + 1)]
    coeffs = [0] * (degree + 1)
    for key, m in values:
        e = key[v]
        coeffs[e] += m * scale[e]
    coeffs = [c % p for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _gcd_mod_p(a: list, b: list) -> list:
    """The gcd in F_p[v] of two coefficient lists (low to high, no trailing
    zero; [] is zero, whose gcd with a is a), up to a unit."""
    p = _CERT_PRIME
    while b:
        inv = pow(b[-1], -1, p)
        nb = len(b)
        a = a[:]
        while len(a) >= nb:
            c = a[-1] * inv % p
            shift = len(a) - nb
            for i in range(nb - 1):
                a[shift + i] = (a[shift + i] - c * b[i]) % p
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return a


def _coprime_certificate(polys) -> bool:
    """True only if the polynomials in the list, each a nonzero term dict
    {exponent tuple: int}, are proved coprime over Q; False means undecided.
    Each shared variable v is decided at the first fixed point where the
    leading coefficient in v of one of them survives (module docstring)."""
    pending = sorted(set.intersection(
        *({v for key in f for v, e in enumerate(key) if e} for f in polys)))
    for point in _cert_points(len(next(iter(polys[0])))):
        if not pending:
            return True
        values = [_values_mod_p(f, point) for f in polys]
        skipped = []
        for v in pending:
            degrees = [max(key[v] for key in f) for f in polys]
            images = [_image_in(fv, v, point[v], d) for fv, d in zip(values, degrees)]
            if all(len(a) <= d for a, d in zip(images, degrees)):
                skipped.append(v)
            elif len(reduce(_gcd_mod_p, images)) > 1:
                return False
        pending = skipped
    return not pending
