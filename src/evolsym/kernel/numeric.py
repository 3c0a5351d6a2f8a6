"""Pointwise floating evaluation with explicit domain errors.

Each exact expression is validated and compiled once into nested closures,
which are kept in a bounded LRU keyed on the expression; evaluating it on a
grid then costs one cache lookup per point, and none through the closure
that numeric_function returns.  The closures do the float
operations of a recursive walk of the tree in the same order, and every
error of evaluation (a domain error, an unbound symbol, a node outside the
fragment, overflow) is raised when evaluation reaches it, never at compile
time.  Validation errors are not cached.
"""

import math
from functools import lru_cache

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
