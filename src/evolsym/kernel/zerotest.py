"""Three-valued zero decision.

Zero comes only from the normal form (numerator identically 0).  NonZero
comes either from structure (a nonzero polynomial in independent power
products) or from a numeric probe exceeding tolerance.  Probing never
produces Zero.
"""

import random
from enum import Enum

from sympy import Add, Symbol

from ..errors import EvalDomainError
from .normalform import NormalForm, normalize
from .numeric import eval_numeric


class Verdict(str, Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    UNKNOWN = "unknown"


def _structurally_nonzero(nf):
    # distinct power products of symbols and prime surds are linearly
    # independent as functions on the positive orthant
    return all(
        isinstance(base, Symbol) or (base.is_Rational and base > 0)
        for key in nf.num_terms
        for base, _e in key
    )


# PROBES points from a generator seeded with SEED; one certifies nonzero
# when |e| exceeds TOL times the sum of its terms' magnitudes
PROBES = 8
SEED = 1729
TOL = 1e-9


def is_zero(e, assume=None):
    """Verdict for e == 0 on its domain.

    Probes sample each symbol in (-3, 3), or in the (lo, hi) interval that
    assume maps its name to, e.g. restrict t to (-3, -1) when working on the
    negative half-line; they are seeded, so a verdict is reproducible.
    """
    nf = e if isinstance(e, NormalForm) else normalize(e)
    if nf.num == 0:
        return Verdict.ZERO
    if _structurally_nonzero(nf):
        return Verdict.NONZERO
    assume = assume or {}
    rnd = random.Random(SEED)
    syms = sorted(nf.num.free_symbols, key=str)
    terms = Add.make_args(nf.num)
    for _ in range(PROBES):
        point = None
        for _attempt in range(60):
            cand = {}
            for s in syms:
                box = assume.get(s.name, (-3.0, 3.0))
                v = box[0] + (box[1] - box[0]) * rnd.random()
                cand[s.name] = v
            try:
                val = eval_numeric(nf.num, cand)
                scale = sum(abs(eval_numeric(term, cand)) for term in terms)
            except EvalDomainError:
                continue
            point = (val, scale)
            break
        if point is None:
            return Verdict.UNKNOWN
        val, scale = point
        if abs(val) > TOL * max(scale, 1.0):
            return Verdict.NONZERO
    return Verdict.UNKNOWN
