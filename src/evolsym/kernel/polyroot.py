"""Root finding for univariate polynomials with exact rational coefficients.

Rational roots are extracted exactly (rational root theorem plus synthetic
deflation, multiplicities included); whatever factor remains is handed to a
floating companion-matrix solver.
"""

from fractions import Fraction
from math import lcm

import numpy as np

from ..errors import InputError


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _horner(coeffs, z):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _deflate(coeffs, root):
    # synthetic division by (z - root); exact, remainder known to vanish
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    acc = Fraction(0)
    for i in range(n - 1, -1, -1):
        acc = coeffs[i + 1] + root * acc
        out[i] = acc
    return out


def rational_roots(coeffs):
    """All rational roots with multiplicities, plus the deflated cofactor.

    coeffs lists the polynomial low to high degree as Fractions; the leading
    coefficient must be nonzero.  Returns (roots, rest) where roots is a list
    of (Fraction root, multiplicity) sorted by value and rest the coefficient
    list of the rational-root-free remaining factor.
    """
    coeffs = [Fraction(c) for c in coeffs]
    if not coeffs or coeffs[-1] == 0:
        raise InputError("leading coefficient must be nonzero")
    roots = {}
    z = 0
    while coeffs[0] == 0 and len(coeffs) > 1:
        coeffs = coeffs[1:]
        z += 1
    if z:
        roots[Fraction(0)] = z
    # clear denominators for the divisor enumeration
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    if len(ints) > 1:
        cands = set()
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                cands.add(Fraction(p, q))
                cands.add(Fraction(-p, q))
        for cand in sorted(cands):
            while len(coeffs) > 1 and _horner(coeffs, cand) == 0:
                coeffs = _deflate(coeffs, cand)
                roots[cand] = roots.get(cand, 0) + 1
    return sorted(roots.items()), coeffs


def numeric_roots(coeffs):
    """Floating roots of the polynomial (low-to-high Fraction coefficients),
    via the numpy companion-matrix solver; complex values in general."""
    cs = [float(c) for c in reversed(coeffs)]
    if len(cs) < 2:
        return []
    return list(np.roots(cs))


# relative distance within which cluster_roots merges two roots
CLUSTER_TOL = 1e-8


def cluster_roots(vals):
    """Group nearly equal floating roots into (value, multiplicity) pairs;
    conjugate pairs are reported once with positive imaginary part."""
    todo = sorted(vals, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    out = []
    for z in todo:
        for i, (w, m) in enumerate(out):
            if abs(z - w) <= CLUSTER_TOL * max(1.0, abs(w)):
                out[i] = ((w * m + z) / (m + 1), m + 1)
                break
        else:
            out.append((z, 1))
    merged = []
    for z, m in out:
        if abs(z.imag) <= CLUSTER_TOL * max(1.0, abs(z)):
            merged.append((complex(z.real, 0.0), m))
        elif z.imag > 0:
            merged.append((z, m))
    return merged
