"""Exact linear algebra over Fraction."""

import math
from fractions import Fraction

from sympy import Rational


def to_fraction(q):
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    if isinstance(q, Rational):
        return Fraction(q.p, q.q)
    raise TypeError(f"not an exact rational: {q!r}")


def _primitive(row):
    """Integer row with the same span as a row of exact rationals:
    denominators cleared, then divided by the gcd of the entries.  Ints and
    Fractions are read as they are, other entries through to_fraction."""
    types = set(map(type, row))
    if types <= {int}:
        ints = list(row)
    else:
        if not types <= {int, Fraction}:
            row = [to_fraction(v) for v in row]
        den = math.lcm(*(v.denominator for v in row))
        ints = [v.numerator * (den // v.denominator) for v in row]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _echelon(rows):
    """Reduced echelon form as primitive integer rows; returns (m, pivots):
    row i < len(pivots) of m is a nonzero multiple of the i-th RREF row, and
    the rows after it are zero.

    Eliminates fraction-free: every update is divided by its gcd again.
    """
    m = [_primitive(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        p = next((i for i in range(r, nr) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(nr):
            f = m[i][c]
            if i != r and f:
                g = math.gcd(pv, f)
                a, b = pv // g, f // g
                new = [a * u - b * w for u, w in zip(m[i], prow)]
                h = math.gcd(*new)
                m[i] = [v // h for v in new] if h > 1 else new
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def rref(rows):
    """Reduced row echelon form of a copy; returns (R, pivots).

    Entries are ints, Fractions or sympy Rationals.  Forms Fractions only
    for the pivot rows of _echelon, scaled to a leading 1.  The RREF is
    unique, so R is the same as that of elimination over Fraction.
    """
    m, pivots = _echelon(rows)
    nc = len(m[0]) if m else 0
    red = [[Fraction(v, m[i][c]) for v in m[i]] for i, c in enumerate(pivots)]
    red += [[Fraction(0)] * nc for _ in range(len(m) - len(pivots))]
    return red, pivots


def rank(rows):
    return len(_echelon(rows)[1])


def _column_blocks(rows, ncols):
    """Connected blocks of the columns, two columns joined when a row has
    nonzero entries in both: a list of (columns, rows), columns increasing,
    rows restricted to them.  Zero rows are dropped."""
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    supported = []
    for row in rows:
        support = [c for c, v in enumerate(row) if v]
        if support:
            root = find(support[0])
            for c in support[1:]:
                other = find(c)
                if other != root:
                    parent[other] = root
            supported.append((row, support[0]))
    blocks = {}
    for c in range(ncols):
        blocks.setdefault(find(c), ([], []))[0].append(c)
    for row, c in supported:
        cols, block_rows = blocks[find(c)]
        block_rows.append([row[k] for k in cols])
    return list(blocks.values())


def nullspace(rows, ncols):
    """Basis of the right null space, one vector per free column, in
    increasing column order.

    Solved per connected block of columns (_column_blocks).  The matrix is
    block-diagonal up to a column permutation, so each block's RREF has the
    pivots and entries of the whole matrix's; a block without rows is all
    free columns.  Fractions are formed only for the free-column entries.
    """
    basis = {}
    for cols, block_rows in _column_blocks(rows, ncols):
        m, pivots = _echelon(block_rows)
        pivset = set(pivots)
        for fc in range(len(cols)):
            if fc in pivset:
                continue
            v = [Fraction(0)] * ncols
            v[cols[fc]] = Fraction(1)
            for i, pc in enumerate(pivots):
                if m[i][fc]:
                    v[cols[pc]] = -Fraction(m[i][fc], m[i][pc])
            basis[cols[fc]] = v
    return [basis[c] for c in sorted(basis)]


def solve_affine(rows, rhs):
    """Particular solution of rows * v = rhs with free variables set to 0;
    None if inconsistent."""
    if not rows:
        return None
    nc = len(rows[0])
    aug = [[*r, b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if nc in pivots:
        return None
    sol = [Fraction(0)] * nc
    for i, pc in enumerate(pivots):
        sol[pc] = red[i][nc]
    return sol


def row_canonical(vectors):
    """Canonical (RREF) spanning set of the row space, zero rows dropped."""
    if not vectors:
        return []
    red, pivots = rref(vectors)
    return [red[i] for i in range(len(pivots))]
