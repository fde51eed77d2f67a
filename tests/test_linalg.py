"""linalg.nullspace against a dense fraction-free Gauss-Jordan oracle, on
sparse matrices of known rank."""

from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjvar.linalg import nullspace


def dense_nullspace(rows, ncols):
    """Dense fraction-free Gauss-Jordan over every row, with every row kept
    primitive; one integer vector per free column."""
    dense = []
    for row in rows:
        vec = [0] * ncols
        for c, v in row.items():
            vec[c] = v
        dense.append(vec)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(dense)) if dense[i][c]), None)
        if piv is None:
            continue
        dense[r], dense[piv] = dense[piv], dense[r]
        prow, p = dense[r], dense[r][c]
        for i in range(len(dense)):
            f = dense[i][c]
            if i != r and f:
                new = [p * a - f * b for a, b in zip(dense[i], prow)]
                g = gcd(*new)
                dense[i] = [a // g for a in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(dense):
            break
    scale = lcm(*(dense[ri][pc] for ri, pc in enumerate(pivots)))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = scale
        for ri, pc in enumerate(pivots):
            vec[pc] = -dense[ri][fc] * scale // dense[ri][pc]
        basis.append(vec)
    return basis


def free_column(vec):
    """A reduced-echelon kernel vector's free column: its last nonzero
    entry (its other entries sit at pivot columns to the left)."""
    return max(c for c, v in enumerate(vec) if v)


def proportional(u, w):
    return all(a * w[free_column(w)] == b * u[free_column(u)] for a, b in zip(u, w))


@st.composite
def known_rank(draw):
    """(rows, ncols, rank) for A = L R with L (m x r) and R (r x ncols) of
    full rank r: L holds a unit triangular r x r block among zero rows and
    sparse random rows, R a unit triangular block at r random columns, so
    A has zero rows and, where R has zero columns, empty columns.  Some
    rows are then scaled by a nonzero int."""
    ncols = draw(st.integers(1, 14))
    r = draw(st.integers(0, ncols))
    m = draw(st.integers(r, r + 6))
    small = st.integers(-4, 4).filter(bool)
    sparse = st.one_of(st.just(0), st.just(0), small)
    left = [[0] * r for _ in range(m)]
    spots = draw(st.permutations(range(m)))[:r]
    for k, i in enumerate(spots):
        left[i][k] = 1
        for j in range(k):
            left[i][j] = draw(sparse)
    for i in set(range(m)) - set(spots):
        if draw(st.booleans()):
            left[i] = [draw(sparse) for _ in range(r)]
    right = [[draw(sparse) if draw(st.booleans()) else 0 for _ in range(ncols)]
             for _ in range(r)]
    cols = sorted(draw(st.permutations(range(ncols)))[:r])
    for k, c in enumerate(cols):
        for j in range(r):
            right[j][c] = (j == k) + (draw(sparse) if j < k else 0)
    rows = []
    for li in left:
        row = {}
        for c in range(ncols):
            v = sum(a * rk[c] for a, rk in zip(li, right))
            if v:
                row[c] = v
        scale = draw(st.sampled_from([1, 1, 3, -5]))
        rows.append({c: v * scale for c, v in row.items()})
    return rows, ncols, r


@settings(max_examples=300)
@given(known_rank())
def test_nullspace_matches_the_dense_oracle(case):
    rows, ncols, rank = case
    basis = nullspace(rows, ncols)
    oracle = dense_nullspace(rows, ncols)
    assert len(basis) == len(oracle) == ncols - rank
    assert [free_column(v) for v in basis] == [free_column(v) for v in oracle]
    for vec, ref in zip(basis, oracle):
        assert all(type(v) is int for v in vec)
        assert vec[free_column(vec)] > 0 and gcd(*vec) == 1
        assert all(sum(row.get(c, 0) * v for c, v in enumerate(vec)) == 0
                   for row in rows)
        assert proportional(vec, ref)


def test_nullspace_of_no_rows_is_the_unit_basis():
    assert nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([{}, {1: 0}], 2) == [[1, 0], [0, 1]]


def test_nullspace_rejects_columns_out_of_range():
    with pytest.raises(ValueError, match="outside 0..2"):
        nullspace([{3: 1}], 3)
    with pytest.raises(ValueError, match="outside 0..2"):
        nullspace([{-1: 1}], 3)
