"""Exact Fraction linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slowpath
from conftest import oracle_examples
from evolsym.kernel import nullspace, rank, row_canonical, rref, solve_affine

fracs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
mats = st.integers(1, 4).flatmap(
    lambda nc: st.lists(st.lists(fracs, min_size=nc, max_size=nc), min_size=1, max_size=5)
)
# sparse entries, possibly no rows or no columns, and appended combinations
# of earlier rows so that rank deficiency is common
sparse = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fracs)


@st.composite
def any_mats(draw):
    nc = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(sparse, min_size=nc, max_size=nc), max_size=5))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(fracs), draw(fracs)
        rows.append([a * u + b * v for u, v in zip(rows[i], rows[j])])
    return rows


def rref_fraction(rows):
    """Reference Gauss-Jordan elimination over Fraction."""
    m = [list(map(Fraction, r)) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        p = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def test_rref_known():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    red, piv = rref(m)
    assert piv == [0]
    assert red[0] == [Fraction(1), Fraction(2)]
    assert red[1] == [Fraction(0), Fraction(0)]


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[], []],
        [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]],
        [[Fraction(0), Fraction(3, 2)], [Fraction(0), Fraction(-3)]],
        [[Fraction(2), Fraction(1, 3), Fraction(0)], [Fraction(4), Fraction(2, 3), Fraction(0)]],
    ],
)
def test_rref_edge_cases_match_fraction_elimination(rows):
    assert rref(rows) == rref_fraction(rows)


@settings(max_examples=300, deadline=None)
@given(any_mats())
def test_rref_matches_fraction_elimination(m):
    red, piv = rref(m)
    assert (red, piv) == rref_fraction(m)
    assert all(type(v) is Fraction for row in red for v in row)


def test_nullspace_known():
    m = [[Fraction(1), Fraction(2), Fraction(3)]]
    ns = nullspace(m, 3)
    assert len(ns) == 2
    for v in ns:
        assert sum(a * b for a, b in zip(m[0], v)) == 0


# mixed int and Fraction entries, zero half the time
mixed = st.one_of(st.just(0), st.just(0), st.integers(-6, 6), fracs)


@st.composite
def block_mats(draw):
    """(rows, ncols): a block-diagonal matrix with zero rows and zero
    columns, its rows shuffled and its columns permuted at random."""
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        nc = draw(st.integers(1, 4))
        rows = draw(st.lists(st.lists(mixed, min_size=nc, max_size=nc), max_size=4))
        # a combination of two rows makes rank deficiency common
        if rows and draw(st.booleans()):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            a, b = draw(mixed), draw(mixed)
            rows.append([a * u + b * v for u, v in zip(rows[i], rows[j])])
        blocks.append((nc, rows))
    ncols = sum(nc for nc, _ in blocks) + draw(st.integers(0, 2))
    perm = draw(st.permutations(range(ncols)))
    rows = [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    offset = 0
    for nc, block in blocks:
        for brow in block:
            row = [0] * ncols
            for k, v in enumerate(brow):
                row[perm[offset + k]] = v
            rows.append(row)
        offset += nc
    return draw(st.permutations(rows)), ncols


@settings(max_examples=oracle_examples(200), deadline=None)
@given(block_mats())
def test_nullspace_matches_whole_matrix_oracle(m):
    # the library solves block by block, the oracle the whole matrix once
    rows, ncols = m
    got = nullspace(rows, ncols)
    assert got == slowpath.nullspace(rows, ncols)
    assert all(type(v) is Fraction for vec in got for v in vec)


def test_solve_affine_inconsistent():
    m = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert solve_affine(m, [Fraction(1), Fraction(2)]) is None


def test_solve_affine_underdetermined():
    m = [[Fraction(1), Fraction(1)]]
    sol = solve_affine(m, [Fraction(3)])
    assert sol == [Fraction(3), Fraction(0)]


@settings(max_examples=80, deadline=None)
@given(mats)
def test_rank_nullity(m):
    nc = len(m[0])
    ns = nullspace(m, nc)
    assert rank(m) + len(ns) == nc
    for v in ns:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


@settings(max_examples=50, deadline=None)
@given(mats)
def test_row_canonical_idempotent(m):
    c1 = row_canonical(m)
    if not c1:
        return
    c2 = row_canonical(c1)
    assert c1 == c2
