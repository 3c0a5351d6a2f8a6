"""Floating evaluation with explicit domain errors, at points or on grids.

Every node that is not a number, a symbol, a sum or a product has one
scalar rule: a plain function of its children's floats that raises
EvalDomainError where the value leaves the domain (_rule).  Each exact
expression is validated and compiled once into nested closures, which are
kept in a bounded LRU keyed on the expression; evaluating it at many points
then costs one cache lookup per point, and none through the closure that
numeric_function returns.  The closures do the float operations of a
recursive walk of the tree in the same order, and every error of evaluation
(a domain error, an unbound symbol, a node outside the fragment, overflow)
is raised when evaluation reaches it, never at compile time.  Validation
errors are not cached.

eval_grid applies the same rules point by point on a whole (t, x) grid,
with any other symbols bound to floats, once per distinct value of the
variables a node depends on; numpy does only the 2-term sum and the
product, whose IEEE results are those of the pointwise closures.  Where a
rule raises or a value is not finite, the pointwise closures run instead.
"""

import math
from functools import lru_cache

import numpy as np
from sympy import Symbol

from ..errors import EvalDomainError, FloatRangeError, InputError
from .atoms import AbsV, Cos, Exp, Ln, Sgn, Sin
from .normalform import _exact_input, as_exact

ZERO_TOL = 1e-12


def eval_numeric(e, point):
    """Evaluate at point (a name -> float mapping).

    Raises EvalDomainError for ln of a value <= ZERO_TOL, a negative power
    of a value within ZERO_TOL of zero, an even root of a negative value, a
    negative base under a symbolic exponent, an unbound symbol, and overflow,
    whose EvalDomainError is the subclass FloatRangeError.
    """
    f = numeric_function(e)
    env = {}
    for k, v in point.items():
        env[k if isinstance(k, str) else k.name] = float(v)
    return f(env)


def eval_grid(e, tpts, xpts, scalars=None):
    """Values of e on the grid tpts x xpts, as a (len(tpts), len(xpts))
    array equal bit for bit to eval_numeric at each point {"t": tv, "x": xv},
    with the other symbols bound by scalars (a name -> float mapping).

    Each node is evaluated once per distinct value of the variables it
    depends on: t is bound to a column, x to a row and the scalars to
    floats, and numpy broadcasts.  Where a rule raises or a value is not
    finite, the grid is evaluated point by point in t-major order instead,
    so that the error raised is eval_numeric's at its first failing point.
    """
    tpts = [float(v) for v in tpts]
    xpts = [float(v) for v in xpts]
    env = {k: float(v) for k, v in (scalars or {}).items()}
    grid = _grid_compiled(_exact_input(e))
    try:
        with np.errstate(all="ignore"):
            v = grid({**env, "t": np.array(tpts)[:, None], "x": np.array(xpts)[None, :]})
        return np.array(np.broadcast_to(v, (len(tpts), len(xpts))))
    except (InputError, ArithmeticError, ValueError):
        pass
    f = numeric_function(e)
    return np.array([[f({**env, "t": tv, "x": xv}) for xv in xpts] for tv in tpts])


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
        except (OverflowError, ValueError):  # ValueError: sin, cos or fsum of an overflow's inf
            raise FloatRangeError("numeric overflow") from None

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
            if not math.isfinite(v):
                raise OverflowError("product not finite")
            return v

        return product
    rule, args = _rule(e)
    if len(args) == 1:
        fa = _compile(args[0])
        return lambda env: rule(fa(env))
    fs = [_compile(a) for a in args]
    return lambda env: rule(*[f(env) for f in fs])


# --- the scalar rules -------------------------------------------------------


def _rule(e):
    """The scalar rule of e, a node that is not a number, symbol, sum or
    product, and the children whose values it takes, in evaluation order."""
    if e.is_Pow:
        base, expo = e.args
        if expo.is_Integer:
            return _integer_power(int(expo)), (base,)
        if expo.is_Rational:
            return _rational_power(expo.p, expo.q), (base,)
        return _power, (base, expo)
    for head, rule in _UNARY:
        if isinstance(e, head):
            return rule, e.args
    message = f"cannot evaluate node of type {type(e).__name__}"

    def unknown():
        raise InputError(message)

    return unknown, ()


def _integer_power(n):
    def integer_power(b):
        if n < 0 and abs(b) <= ZERO_TOL:
            raise EvalDomainError("division by zero within tolerance")
        return b**n

    return integer_power


def _rational_power(p, q):
    def rational_power(b):
        if p < 0 and abs(b) <= ZERO_TOL:
            raise EvalDomainError("division by zero within tolerance")
        if b < 0:
            if q % 2 == 0:
                raise EvalDomainError("even root of a negative value")
            # real odd root
            return (-1.0) ** p * abs(b) ** (p / q)
        return b ** (p / q)

    return rational_power


def _power(b, ev):
    if b < 0:
        raise EvalDomainError("negative base under symbolic exponent")
    if abs(b) <= ZERO_TOL and ev < 0:
        raise EvalDomainError("division by zero within tolerance")
    return b**ev


def _ln(v):
    if v <= ZERO_TOL:
        raise EvalDomainError("ln of a nonpositive value")
    return math.log(v)


def _sgn(v):
    return 0.0 if v == 0 else math.copysign(1.0, v)


# in the order a recursive walk tests the heads
_UNARY = (
    (Exp, math.exp),
    (Ln, _ln),
    (Sin, math.sin),
    (Cos, math.cos),
    (AbsV, abs),
    (Sgn, _sgn),
)


# --- whole grids ------------------------------------------------------------


@lru_cache(maxsize=4096)
def _grid_compiled(e):
    return _grid(as_exact(e))


def _each(rule, *vals):
    """rule of Python floats, point by point over the broadcast shape of vals."""
    vals = np.broadcast_arrays(*vals)
    flat = zip(*(v.ravel().tolist() for v in vals))
    return np.array([rule(*p) for p in flat]).reshape(vals[0].shape)


def _grid(e):
    """Function env -> values of the validated e, where env binds t to an
    (nt, 1) column, x to a (1, nx) row and other names to floats, in the
    order of _compile.  A product folds left from 1.0 as the closure does,
    numpy's float product is Python's, and a product or 2-term sum that is
    not finite raises ArithmeticError."""
    if e.is_Rational or isinstance(e, Symbol):
        return _compile(e)
    if e.is_Add:
        terms = [_grid(a) for a in e.args]
        if len(terms) == 2:
            fa, fb = terms

            def two_terms(env):
                # fsum of two floats is their rounded sum, with +0.0 for two
                # negative zeros, where that sum is finite; fsum raises on
                # overflow and on inf - inf
                v = fa(env) + fb(env) + 0.0
                if not np.isfinite(v).all():
                    raise ArithmeticError("sum not finite")
                return v

            return two_terms
        return lambda env: _each(lambda *vs: math.fsum(vs), *(f(env) for f in terms))
    if e.is_Mul:
        factors = [_grid(a) for a in e.args]

        def product(env):
            v = 1.0
            for f in factors:
                v = v * f(env)
            if not np.isfinite(v).all():
                raise ArithmeticError("product not finite")
            return v

        return product
    rule, args = _rule(e)
    if not args:
        return _compile(e)
    fs = [_grid(a) for a in args]
    return lambda env: _each(rule, *(f(env) for f in fs))
