"""Root finding for univariate polynomials with exact rational coefficients.

Rational roots are extracted exactly (rational root theorem plus synthetic
deflation, multiplicities included; the candidates' divisors come from the
bounded factorization normalform.prime_factors, so a coefficient past its
budget exits 3 instead of running); whatever factor remains is handed to a
floating companion-matrix solver, numeric_roots, the library's only one.
root_multiplicity decides exactly how often a Gaussian rational is a root.
"""

from fractions import Fraction
from math import lcm

import numpy as np

from ..errors import InputError
from .normalform import prime_factors


def _divisors(n):
    """Positive divisors of the nonzero integer n, from its bounded prime
    factorization: past the factoring budget, UnsupportedError (exit 3)."""
    out = [1]
    for p, k in prime_factors(abs(n), "a polynomial coefficient"):
        out = [d * p**i for d in out for i in range(k + 1)]
    return out


def _divide(cs, a, b):
    """Quotient of the polynomial cs, Gaussian-rational pairs (re, im) low
    to high degree, by w - (a + ib), or None when a + ib is not a root: the
    Horner values on pairs are the quotient, high to low degree, and last
    the value at a + ib."""
    acc = []
    re = im = Fraction(0)
    for cr, ci in reversed(cs):
        re, im = re * a - im * b + cr, re * b + im * a + ci
        acc.append((re, im))
    return acc[-2::-1] if acc[-1] == (0, 0) else None


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
        pairs = [(c, 0) for c in coeffs]
        for cand in sorted(cands):
            while len(pairs) > 1 and (quo := _divide(pairs, cand, 0)) is not None:
                pairs = quo
                roots[cand] = roots.get(cand, 0) + 1
        coeffs = [c for c, _im in pairs]
    return sorted(roots.items()), coeffs


def root_multiplicity(coeffs, z):
    """Multiplicity of the Gaussian rational z = (a, b), the number a + ib,
    as a root of the polynomial with coefficients coeffs, low to high
    degree, each a rational or a Gaussian-rational pair (re, im).  Exact:
    Horner and synthetic division on pairs of Fractions."""
    a, b = Fraction(z[0]), Fraction(z[1])
    cs = [tuple(map(Fraction, c)) if isinstance(c, tuple) else (Fraction(c), 0) for c in coeffs]
    m = 0
    while len(cs) > 1 and (quo := _divide(cs, a, b)) is not None:
        cs, m = quo, m + 1
    return m


def numeric_roots(coeffs):
    """Floating roots of the polynomial with coefficients coeffs, low to
    high degree, via the numpy companion-matrix solver; complex values in
    general.  A complex coefficient is passed as it is, any other as its
    float."""
    cs = [c if isinstance(c, complex) else float(c) for c in reversed(coeffs)]
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
