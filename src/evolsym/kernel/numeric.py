"""Pointwise floating evaluation with explicit domain errors.

Each exact expression is validated and compiled once into nested closures,
which are kept in a bounded LRU keyed on the expression; evaluating it at
many points then costs one cache lookup per point, and none through the
closure that numeric_function returns.  The closures do the float
operations of a recursive walk of the tree in the same order, and every
error of evaluation (a domain error, an unbound symbol, a node outside the
fragment, overflow) is raised when evaluation reaches it, never at compile
time.  Validation errors are not cached.

eval_grid evaluates an expression on a whole (t, x) grid with a second
compiler, which returns the pointwise closures' floats bit for bit: numpy
does only the operations whose IEEE result cannot differ (+, *, abs, sign),
every library call goes point by point through the same Python call, and
wherever a closure could raise or leave the finite floats the grid path
gives up and the pointwise closures run instead.
"""

import math
from functools import lru_cache

import numpy as np
from sympy import Symbol

from ..errors import EvalDomainError, InputError
from .atoms import AbsV, Cos, Exp, Ln, Sgn, Sin
from .normalform import _exact_input, as_exact

ZERO_TOL = 1e-12


def eval_numeric(e, point):
    """Evaluate at point (a name -> float mapping).

    Raises EvalDomainError for ln of a value <= ZERO_TOL, a negative power
    of a value within ZERO_TOL of zero, an even root of a negative value, a
    negative base under a symbolic exponent, an unbound symbol, and overflow.
    """
    f = numeric_function(e)
    env = {}
    for k, v in point.items():
        env[k if isinstance(k, str) else k.name] = float(v)
    return f(env)


def eval_grid(e, tpts, xpts):
    """Values of e on the grid tpts x xpts, as a (len(tpts), len(xpts))
    array equal bit for bit to eval_numeric at each point {"t": tv, "x": xv}.

    Each node is evaluated once per distinct value of the variables it
    depends on: t is bound to a column and x to a row, and numpy broadcasts.
    Where evaluation could raise or a value is not finite, the grid is
    evaluated point by point in t-major order instead, so that the error
    raised is eval_numeric's at its first failing point.
    """
    tpts = [float(v) for v in tpts]
    xpts = [float(v) for v in xpts]
    grid = _grid_compiled(_exact_input(e))
    try:
        with np.errstate(all="ignore"):
            v = grid(np.array(tpts)[:, None], np.array(xpts)[None, :])
        return np.array(np.broadcast_to(v, (len(tpts), len(xpts))))
    except (_GiveUp, ArithmeticError, ValueError):
        pass
    f = numeric_function(e)
    return np.array([[f({"t": tv, "x": xv}) for xv in xpts] for tv in tpts])


def numeric_function(e):
    """The evaluator of e as a function env -> float, where env maps each
    symbol's name to a float; it raises what eval_numeric raises.  Resolve
    it once to evaluate e at many points, as a quadrature integrand does."""
    return _compiled(_exact_input(e))


@lru_cache(maxsize=4096)
def _compiled(e):
    # a hit needs an equal key, and no exact input equals an inexact one
    f = _compile(as_exact(e))

    def evaluate(env):
        try:
            return f(env)
        except OverflowError:
            raise EvalDomainError("numeric overflow") from None

    return evaluate


def _compile(e):
    """Closure env -> float of the validated expression e."""
    if e.is_Rational:
        p, q = e.p, e.q
        return lambda env: p / q
    if isinstance(e, Symbol):
        name = e.name

        def symbol(env):
            try:
                return env[name]
            except KeyError:
                raise EvalDomainError(f"unbound symbol {name!r}") from None

        return symbol
    if e.is_Add:
        terms = [_compile(a) for a in e.args]
        # a generator, so that fsum's intermediate overflow stops evaluation
        return lambda env: math.fsum(f(env) for f in terms)
    if e.is_Mul:
        factors = [_compile(a) for a in e.args]

        def product(env):
            v = 1.0
            for f in factors:
                v *= f(env)
            return v

        return product
    if e.is_Pow:
        return _compile_pow(*e.args)
    for head, fn in _UNARY:
        if isinstance(e, head):
            return fn(_compile(e.args[0]))
    message = f"cannot evaluate node of type {type(e).__name__}"

    def unknown(env):
        raise InputError(message)

    return unknown


def _compile_pow(base, expo):
    fb = _compile(base)
    if expo.is_Integer:
        n = int(expo)

        def integer_power(env):
            b = fb(env)
            if n < 0 and abs(b) <= ZERO_TOL:
                raise EvalDomainError("division by zero within tolerance")
            return b**n

        return integer_power
    if expo.is_Rational:
        p, q = expo.p, expo.q

        def rational_power(env):
            b = fb(env)
            if p < 0 and abs(b) <= ZERO_TOL:
                raise EvalDomainError("division by zero within tolerance")
            if b < 0:
                if q % 2 == 0:
                    raise EvalDomainError("even root of a negative value")
                # real odd root
                return (-1.0) ** p * abs(b) ** (p / q)
            return b ** (p / q)

        return rational_power
    fe = _compile(expo)

    def power(env):
        b = fb(env)
        ev = fe(env)
        if b < 0:
            raise EvalDomainError("negative base under symbolic exponent")
        if abs(b) <= ZERO_TOL and ev < 0:
            raise EvalDomainError("division by zero within tolerance")
        return b**ev

    return power


def _ln(fa):
    def ln(env):
        v = fa(env)
        if v <= ZERO_TOL:
            raise EvalDomainError("ln of a nonpositive value")
        return math.log(v)

    return ln


def _sgn(fa):
    def sgn(env):
        v = fa(env)
        return 0.0 if v == 0 else math.copysign(1.0, v)

    return sgn


# in the order a recursive walk tests the heads
_UNARY = (
    (Exp, lambda fa: lambda env: math.exp(fa(env))),
    (Ln, _ln),
    (Sin, lambda fa: lambda env: math.sin(fa(env))),
    (Cos, lambda fa: lambda env: math.cos(fa(env))),
    (AbsV, lambda fa: lambda env: abs(fa(env))),
    (Sgn, _sgn),
)


# --- whole grids ------------------------------------------------------------


class _GiveUp(Exception):
    """A grid value the pointwise closures would raise on, or not finite."""


@lru_cache(maxsize=4096)
def _grid_compiled(e):
    return _grid(as_exact(e))


def _finite(v):
    if not np.isfinite(v).all():
        raise _GiveUp
    return v


def _each(fn, *vals):
    """fn of Python floats, point by point over the broadcast shape of vals."""
    vals = np.broadcast_arrays(*vals)
    flat = zip(*(v.ravel().tolist() for v in vals))
    return _finite(np.array([fn(*p) for p in flat]).reshape(vals[0].shape))


def _give_up(tcol, xrow):
    raise _GiveUp


def _grid(e):
    """Function (tcol, xrow) -> values of the validated e, broadcast over an
    (nt, 1) column of t and a (1, nx) row of x, in the order of _compile."""
    if e.is_Rational:
        p, q = e.p, e.q
        return lambda tcol, xrow: np.float64(p / q)
    if isinstance(e, Symbol):
        return {"t": lambda tcol, xrow: tcol, "x": lambda tcol, xrow: xrow}.get(
            e.name, _give_up
        )
    if e.is_Add:
        terms = [_grid(a) for a in e.args]
        if len(terms) == 2:
            fa, fb = terms
            # fsum of two finite floats is their rounded sum, with +0.0 for
            # two negative zeros
            return lambda tcol, xrow: _finite(fa(tcol, xrow) + fb(tcol, xrow) + 0.0)
        return lambda tcol, xrow: _each(
            lambda *vs: math.fsum(vs), *(f(tcol, xrow) for f in terms)
        )
    if e.is_Mul:
        factors = [_grid(a) for a in e.args]

        def product(tcol, xrow):
            v = 1.0
            for f in factors:
                v = v * f(tcol, xrow)
            return _finite(v)

        return product
    if e.is_Pow:
        return _grid_pow(*e.args)
    for head, fn in _GRID_UNARY:
        if isinstance(e, head):
            return fn(_grid(e.args[0]))
    return _give_up


def _grid_pow(base, expo):
    fb = _grid(base)
    if expo.is_Integer:
        n = int(expo)

        def integer_power(tcol, xrow):
            b = fb(tcol, xrow)
            if n < 0 and np.any(np.abs(b) <= ZERO_TOL):
                raise _GiveUp
            return _each(lambda v: v**n, b)

        return integer_power
    if expo.is_Rational:
        p, q = expo.p, expo.q

        def root(v):
            return (-1.0) ** p * abs(v) ** (p / q) if v < 0 else v ** (p / q)

        def rational_power(tcol, xrow):
            b = fb(tcol, xrow)
            if p < 0 and np.any(np.abs(b) <= ZERO_TOL):
                raise _GiveUp
            if q % 2 == 0 and np.any(b < 0):
                raise _GiveUp
            return _each(root, b)

        return rational_power
    fe = _grid(expo)

    def power(tcol, xrow):
        b = fb(tcol, xrow)
        ev = fe(tcol, xrow)
        if np.any(b < 0) or np.any((np.abs(b) <= ZERO_TOL) & (ev < 0)):
            raise _GiveUp
        return _each(lambda u, w: u**w, b, ev)

    return power


def _grid_ln(fa):
    def ln(tcol, xrow):
        v = fa(tcol, xrow)
        if np.any(v <= ZERO_TOL):
            raise _GiveUp
        return _each(math.log, v)

    return ln


def _per_point(fn):
    return lambda fa: lambda tcol, xrow: _each(fn, fa(tcol, xrow))


# in _UNARY's order; abs and the sign are exact in numpy
_GRID_UNARY = (
    (Exp, _per_point(math.exp)),
    (Ln, _grid_ln),
    (Sin, _per_point(math.sin)),
    (Cos, _per_point(math.cos)),
    (AbsV, lambda fa: lambda tcol, xrow: np.abs(fa(tcol, xrow))),
    (Sgn, lambda fa: lambda tcol, xrow: np.sign(fa(tcol, xrow))),
)
