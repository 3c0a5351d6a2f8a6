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
    """Integer row with the same span as a row of Fractions: denominators
    cleared, then divided by the gcd of the entries."""
    den = math.lcm(*(v.denominator for v in row))
    ints = [v.numerator * (den // v.denominator) for v in row]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def rref(rows):
    """Reduced row echelon form of a copy; returns (R, pivots).

    Eliminates fraction-free on primitive integer rows (every update is
    divided by its gcd again) and forms Fractions only for the pivot rows,
    scaled to a leading 1.  The RREF is unique, so R is the same as that of
    elimination over Fraction.
    """
    m = [_primitive([Fraction(v) for v in r]) for r in rows]
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
    red = [[Fraction(v, m[i][c]) for v in m[i]] for i, c in enumerate(pivots)]
    red += [[Fraction(0)] * nc for _ in range(nr - len(pivots))]
    return red, pivots


def rank(rows):
    if not rows:
        return 0
    return len(rref(rows)[1])


def nullspace(rows, ncols):
    """Basis of the right null space, one vector per free column."""
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    red, pivots = rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def solve_affine(rows, rhs):
    """Particular solution of rows * v = rhs with free variables set to 0;
    None if inconsistent."""
    if not rows:
        return None
    nc = len(rows[0])
    aug = [list(map(Fraction, r)) + [to_fraction(b)] for r, b in zip(rows, rhs)]
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
