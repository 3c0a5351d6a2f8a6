"""Residual oracles: exact symbolic substitution into the evolution equation
and high-order central finite differences on uniform grids.

Every solution produced by the library certifies against these two checks,
so this module depends only on the kernel and the model types.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from sympy import Add, Expr

from .errors import InputError, UnsupportedError
from .kernel import (
    as_exact,
    derivative_terms,
    differentiate,
    eval_grid,
    normalize,
    t,
    x,
)
from .kernel.normalform import polynomial
from .kernel.polyroot import rational_roots
from .model import embed_reduced

# Bounds on the realized grid, checked before anything is allocated; the
# largest grid the library itself builds is 41 x 41.
MAX_AXIS_POINTS = 1025
MAX_GRID_POINTS = 2**17

@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time verification grid.

    ht and hx are requested steps; the realized grids respace to the nearest
    uniform subdivision of the ranges.  residual_numeric refuses a grid
    whose t- or x-range contains a rational singular locus of a coefficient
    (singular_loci), since a stencil cannot straddle a pole.  A grid may
    have at most MAX_AXIS_POINTS points per axis and MAX_GRID_POINTS points
    in all.
    """

    t_range: tuple
    x_range: tuple
    ht: float
    hx: float
    order: int = 6

    def __post_init__(self):
        for name in ("t_range", "x_range"):
            rg = tuple(float(v) for v in getattr(self, name))
            if len(rg) != 2 or not rg[0] < rg[1]:
                raise InputError(f"{name} must be (lo, hi) with lo < hi")
            object.__setattr__(self, name, rg)
        for name, rg in (("ht", self.t_range), ("hx", self.x_range)):
            h = float(getattr(self, name))
            if not 0.0 < h <= rg[1] - rg[0]:
                raise InputError(f"{name} must lie in (0, range span]")
            if (rg[1] - rg[0]) / h > MAX_AXIS_POINTS - 1:
                raise InputError(
                    f"{name} gives more than MAX_AXIS_POINTS = {MAX_AXIS_POINTS}"
                    " grid points on its axis"
                )
            object.__setattr__(self, name, h)
        nt, nx = self.shape()
        if nt * nx > MAX_GRID_POINTS:
            raise InputError(
                f"grid has {nt} x {nx} points, more than MAX_GRID_POINTS = {MAX_GRID_POINTS}"
            )
        if not (
            isinstance(self.order, int) and self.order >= 2 and self.order % 2 == 0
        ):
            raise InputError("stencil order must be an even integer >= 2")

    def shape(self):
        """Realized (t, x) point counts."""
        return tuple(
            max(2, int(round((hi - lo) / h)) + 1)
            for (lo, hi), h in ((self.t_range, self.ht), (self.x_range, self.hx))
        )

    def points(self):
        """Realized (t, x) grid point arrays."""
        ranges = (self.t_range, self.x_range)
        return tuple(np.linspace(lo, hi, n) for (lo, hi), n in zip(ranges, self.shape()))

    def to_doc(self):
        return {
            "t": list(self.t_range),
            "x": list(self.x_range),
            "ht": self.ht,
            "hx": self.hx,
            "order": self.order,
        }

    @classmethod
    def from_doc(cls, doc):
        """Grid from a JSON document.  Ranges and steps must be finite JSON
        numbers and order a JSON integer; nothing is coerced."""
        if not isinstance(doc, dict):
            raise InputError("grid document must be a JSON object")
        doc = {"order": 6, **doc}
        missing = [key for key in ("t", "x", "ht", "hx") if key not in doc]
        if missing:
            raise InputError(f"malformed grid document: missing {missing}")
        for key in ("t", "x"):
            if not finite_numbers(doc[key]):
                raise InputError(f"grid document: {key} must be a list of finite numbers")
        for key in ("ht", "hx"):
            if not finite_number(doc[key]):
                raise InputError(f"grid document: {key} must be a finite number")
        if type(doc["order"]) is not int:
            raise InputError("grid document: order must be an integer")
        return cls(tuple(doc["t"]), tuple(doc["x"]), doc["ht"], doc["hx"], doc["order"])


def finite_number(v):
    """A finite JSON number.  The types are exact: a JSON true or false is a
    bool, an int subclass; an integer past the float range would overflow
    in float()."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def finite_numbers(v):
    """A JSON list of finite numbers."""
    return type(v) is list and all(map(finite_number, v))


def _stencil_margin(d, p):
    """Half-width m of stencil(d, p), without computing its weights."""
    return (d + p - 1) // 2 if d % 2 else (d + p - 2) // 2


@lru_cache(maxsize=None)
def stencil(d, p):
    """Central finite-difference stencil for the d-th derivative at accuracy
    order p on unit spacing: returns (m, coeffs) with integer offsets -m..m
    and exact Fraction coefficients.

    The weights are the unique solution of the moment conditions
    sum_k c_k k^j = d! [j == d], j <= 2m, computed by Fornberg's recurrence
    (B. Fornberg, Math. Comp. 51 (1988) 699-706) in O(m^2 d) rational
    operations.  The nodes are taken in the order 0, 1, -1, 2, -2, ..., so
    that every partial stencil of the recurrence is centred."""
    if not (isinstance(d, int) and d >= 1):
        raise InputError("derivative order must be a positive integer")
    if not (isinstance(p, int) and p >= 2 and p % 2 == 0):
        raise InputError("accuracy order must be an even integer >= 2")
    m = _stencil_margin(d, p)
    nodes = [0] + [s * k for k in range(1, m + 1) for s in (1, -1)]
    # c[j][k]: weight of nodes[j] for the k-th derivative at 0 on the
    # nodes taken so far
    c = [[Fraction(0)] * (d + 1) for _ in nodes]
    c[0][0] = Fraction(1)
    c1 = 1
    for i in range(1, len(nodes)):
        xi = nodes[i]
        top = min(i, d)
        c2 = 1
        for j in range(i):
            c3 = xi - nodes[j]
            c2 *= c3
            if j == i - 1:
                prev = c[j]
                row = c[i]
                for k in range(top, 0, -1):
                    row[k] = c1 * (k * prev[k - 1] - nodes[i - 1] * prev[k]) / c2
                row[0] = -c1 * nodes[i - 1] * prev[0] / c2
            row = c[j]
            for k in range(top, 0, -1):
                row[k] = (xi * row[k] - k * row[k - 1]) / c3
            row[0] = xi * row[0] / c3
        c1 = c2
    weight = {k: c[j][d] for j, k in enumerate(nodes)}
    return m, tuple(weight[k] for k in range(-m, m + 1))


def residual_symbolic(eq, u):
    """normalize(u_t - A^k u_k - B) with u_k the k-th x-derivative."""
    eq = embed_reduced(eq)
    u = as_exact(u)
    terms = [-p for p in derivative_terms(eq.A, u, x)]
    return normalize(Add(differentiate(u, t), -eq.B, *terms)).as_expr()


def singular_loci(eq):
    """Rational zeros of coefficient denominators, per variable.

    Returns {"t": (...), "x": (...)} with Fraction loci.  Denominators that
    are not univariate polynomials are skipped; pointwise evaluation still
    raises EvalDomainError if such a locus is hit at run time.
    """
    eq = embed_reduced(eq)
    out = {"t": set(), "x": set()}
    for a in eq.A + (eq.B,):
        nf = normalize(a)
        free = nf.den.free_symbols
        for var, name in ((t, "t"), (x, "x")):
            if free != {var}:
                continue
            coeffs = polynomial(nf.den_terms, (var,))
            if coeffs is None:
                continue
            dense = [coeffs.get((i,), Fraction(0)) for i in range(max(coeffs)[0] + 1)]
            roots, _rest = rational_roots(dense)
            out[name].update(root for root, _m in roots)
    return {k: tuple(sorted(v)) for k, v in out.items()}


def _as_grid_data(u):
    """(tpts, xpts, values) when u carries sampled grid data, else None."""
    data = getattr(u, "grid", u if isinstance(u, dict) else None)
    if not isinstance(data, dict):
        return None
    try:
        tpts = np.array([float(v) for v in data["t"]])
        xpts = np.array([float(v) for v in data["x"]])
        vals = np.array(data["values"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed grid data: {exc}") from None
    if vals.shape != (len(tpts), len(xpts)):
        raise InputError("grid values must be shaped (len(t), len(x))")
    if not all(np.isfinite(a).all() for a in (tpts, xpts, vals)):
        raise InputError("grid data must be finite: a value overflowed or is NaN")
    for pts, name in ((tpts, "t"), (xpts, "x")):
        if len(pts) < 2:
            raise InputError(f"grid needs at least two {name} points")
        h = pts[1] - pts[0]
        if h <= 0 or np.max(np.abs(np.diff(pts) - h)) > 1e-9 * abs(h):
            raise InputError(f"{name} grid points must be uniformly spaced")
    return tpts, xpts, vals


def _derivative(U, d, p, h, axis):
    m, coeffs = stencil(d, p)
    n = U.shape[axis]
    out = np.zeros_like(
        np.take(U, range(m, n - m), axis=axis), dtype=float
    )
    # an overflow here leaves inf or NaN, which residual_numeric refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, c in enumerate(coeffs):
            k = idx - m
            out += float(c) * np.take(U, range(m + k, n - m + k), axis=axis)
    return out / h**d, m


def _level_residual(eq, U, tpts, xpts, p):
    """One grid level: (residual array, interior t points, interior x points,
    rounding-noise floor estimate), or None if the grid is too small for the
    stencil margins.  The floor estimate is the worst-case propagation of
    unit roundoff in the u samples through the stencil weights."""
    r = eq.r
    nt, nx = U.shape
    # margins by formula: the weights of a large order take seconds
    mt = _stencil_margin(1, p)
    mx = max(_stencil_margin(k, p) for k in range(1, r + 1) if eq.A[k] != 0)
    if nt < 2 * mt + 1 or nx < 2 * mx + 1:
        return None
    ct = stencil(1, p)[1]
    ht = tpts[1] - tpts[0]
    hx = xpts[1] - xpts[0]
    tis = tpts[mt : nt - mt]
    xjs = xpts[mx : nx - mx]
    eps_u = 2.3e-16 * float(np.max(np.abs(U)))
    ut, _ = _derivative(U, 1, p, ht, axis=0)
    acc = ut[:, mx : nx - mx]
    floor = eps_u * float(sum(abs(c) for c in ct)) / ht
    for k in range(r + 1):
        if eq.A[k] == 0:
            continue
        if k == 0:
            uxk = U[mt : nt - mt, mx : nx - mx]
            wsum = 1.0
        else:
            full, mk = _derivative(U, k, p, hx, axis=1)
            lo = mx - mk
            uxk = full[mt : nt - mt, lo : lo + len(xjs)]
            wsum = float(sum(abs(c) for c in stencil(k, p)[1])) / hx**k
        coef = eval_grid(eq.A[k], tis, xjs)
        acc = acc - coef * uxk
        floor += eps_u * float(np.max(np.abs(coef))) * wsum
    if eq.B != 0:
        acc = acc - eval_grid(eq.B, tis, xjs)
    return acc, tis, xjs, floor


def residual_numeric(eq, u, g=None):
    """Max-norm finite-difference residual and empirical convergence order.

    u is a symbolic expression or sampled grid data (a dict with keys t, x,
    values, or an object with such a .grid).  For an expression g is
    required and sets the finest grid; the residual is also evaluated on
    the twice- and four-times-coarsened grids (two halvings end at the
    requested step) and the slope of log2(residual) against log2(step) is
    reported.  A level whose residual is below 8 times its rounding-floor
    estimate measures noise and is dropped from that fit; slope is None
    when fewer than two levels are left.
    """
    eq = embed_reduced(eq)
    data = _as_grid_data(u)
    if data is None:
        if g is None:
            raise InputError("a GridSpec is required for non-grid solutions")
        tpts, xpts = g.points()
        p = g.order
    else:
        tpts, xpts, U = data
        p = g.order if g is not None else 6

    loci = singular_loci(eq)
    ranges = {"t": (tpts[0], tpts[-1]), "x": (xpts[0], xpts[-1])}
    for name, locs in loci.items():
        lo, hi = ranges[name]
        for root in locs:
            if lo - 1e-12 <= float(root) <= hi + 1e-12:
                raise InputError(
                    f"grid crosses singular coefficient locus {name} = {root};"
                    f" restrict {name}_range to one side of it"
                )

    if data is None:
        if not isinstance(u, Expr):
            raise InputError("u must be an expression or grid data")
        U = eval_grid(u, tpts, xpts)

    levels = []
    for s in (4, 2, 1):
        got = _level_residual(eq, U[::s, ::s], tpts[::s], xpts[::s], p)
        if got is not None:
            levels.append((s,) + got)
    if not levels or levels[-1][0] != 1:
        raise InputError("interior region is empty after stencil margins")
    max_residual = float(np.max(np.abs(levels[-1][1])))

    # Slope: coarser levels have wider margins, so compare maxima over the
    # common interior (the coarsest level's region); levels whose residual
    # sits near the rounding floor measure noise, not truncation, and are
    # dropped from the fit.
    slope = None
    if len(levels) >= 2:
        tlo, thi = levels[0][2][0] - 1e-12, levels[0][2][-1] + 1e-12
        xlo, xhi = levels[0][3][0] - 1e-12, levels[0][3][-1] + 1e-12
        clean = []
        for s, acc, tis, xjs, floor in levels:
            sel = acc[
                np.ix_(
                    (tis >= tlo) & (tis <= thi), (xjs >= xlo) & (xjs <= xhi)
                )
            ]
            rmax = float(np.max(np.abs(sel)))
            if rmax >= 8.0 * floor:
                clean.append((math.log2(s), math.log2(rmax)))
        if len(clean) >= 2:
            mh = sum(h for h, _ in clean) / len(clean)
            mr = sum(v for _, v in clean) / len(clean)
            num = sum((h - mh) * (v - mr) for h, v in clean)
            den = sum((h - mh) ** 2 for h, _ in clean)
            slope = num / den
    if not all(math.isfinite(v) for v in (max_residual, slope or 0.0)):
        # finite grid values whose stencil products overflow, or meet inf - inf
        raise UnsupportedError("numeric certificate out of float range in the residual")
    return max_residual, slope
