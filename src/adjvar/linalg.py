"""Exact linear algebra on sparse rows.

A matrix is a list of rows, each a dict {column: entry} with ``int`` or
``fractions.Fraction`` entries; absent columns hold zero.  Everything stays
in integers: rows are scaled to clear denominators and kept primitive.
"""

from __future__ import annotations

from math import gcd, lcm


def _make_primitive(row: dict) -> None:
    """Divide the integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def nullspace(rows, ncols: int) -> list:
    """Basis of the nullspace of a sparse rational matrix, one primitive
    integer vector per free column, in column order.

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
        den = lcm(*(v.denominator for v in row.values()))
        vec = {c: den // v.denominator * v.numerator for c, v in row.items() if v}
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
