"""Shared oracles and strategies.

Numeric oracles are independent of the code under test: derivatives are
checked against central differences taken by mpmath at high precision,
antiderivatives against adaptive quadrature.
"""

import importlib
import os
import random
import sys

import mpmath
from hypothesis import settings
from hypothesis import strategies as st
from sympy import Integer, Mul, Rational, S, lambdify

from evolsym.kernel import Cos, Exp, Sin, eval_numeric, sym, t, x


def fd_derivative(expr, name, point, dps=40):
    """Derivative of expr (in t, x, exp, sin and cos) w.r.t. the named
    variable: mpmath's central difference at dps digits of expr evaluated by
    mpmath, whose rounding and truncation errors stay far below a float's."""
    names = sorted(point)
    f = lambdify(
        [sym(n) for n in names],
        expr,
        modules=[{"Exp": mpmath.exp, "Sin": mpmath.sin, "Cos": mpmath.cos}, "mpmath"],
    )
    with mpmath.workdps(dps):
        at = {n: mpmath.mpf(v) for n, v in point.items()}
        return float(
            mpmath.diff(lambda v: f(*[v if n == name else at[n] for n in names]), at[name])
        )


def number_fact_queries(monkeypatch):
    """A list that records, from now on, each (fact, number) that sympy's
    assumption engine is asked about an exact number: its first query on
    a fresh Rational deduces all of its facts."""
    assumptions = importlib.import_module("sympy.core.assumptions")
    ask = assumptions._ask
    seen = []

    def counting(fact, obj):
        if isinstance(obj, Rational):
            seen.append((fact, obj))
        return ask(fact, obj)

    monkeypatch.setattr(assumptions, "_ask", counting)
    return seen


def fresh_caches(monkeypatch):
    """Empty sympy's caches and the derivative cache, and give this test
    an empty normal-form memo, so that the numbers a computation makes are
    new objects and every normal form is computed again."""
    from collections import OrderedDict

    from sympy.core.cache import clear_cache

    from evolsym.kernel import normalform
    from evolsym.kernel.calculus import _derivative

    clear_cache()
    _derivative.cache_clear()
    monkeypatch.setattr(normalform, "_MEMO", OrderedDict())


def zero_products(monkeypatch, sources):
    """A list that records, from now on, each Mul built with a zero factor
    whose nearest caller outside sympy is a function of the given source
    files, as (file name, function name)."""
    new = Mul.__new__
    seen = []

    def counting(cls, *args, **options):
        if any(a is S.Zero for a in args):
            f = sys._getframe(1)
            while f is not None and "sympy" in f.f_code.co_filename:
                f = f.f_back
            name = os.path.basename(f.f_code.co_filename) if f else ""
            if name in sources:
                seen.append((name, f.f_code.co_name))
        return new(cls, *args, **options)

    monkeypatch.setattr(Mul, "__new__", counting)
    return seen


def rand_points(names, n, seed, lo=0.3, hi=1.7):
    rnd = random.Random(seed)
    return [{k: rnd.uniform(lo, hi) for k in names} for _ in range(n)]


# --- hypothesis strategies --------------------------------------------------

# a thorough run of the slow-path oracle properties and pins (marked oracle):
#   pytest -m oracle --hypothesis-profile=oracle
settings.register_profile("oracle", max_examples=1000, deadline=None)


def oracle_profile():
    """Whether the oracle profile is loaded."""
    return settings.default is settings.get_profile("oracle")


def oracle_examples(short):
    """max_examples of a slow-path oracle property: `short` in a plain run,
    the oracle profile's count when that profile is loaded."""
    return settings.get_profile("oracle").max_examples if oracle_profile() else short


_leaf = st.one_of(
    st.integers(-4, 4).map(Integer),
    st.builds(lambda p, q: Rational(p, q), st.integers(-6, 6), st.integers(1, 4)),
    st.just(t),
    st.just(x),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
        st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
        st.tuples(children, st.integers(0, 3)).map(lambda ae: ae[0] ** ae[1]),
        children.map(lambda a: Exp(a / 4) if (a.free_symbols or a != 0) else a),
        children.map(Sin),
        children.map(Cos),
    )


exprs = st.recursive(_leaf, _combine, max_leaves=8)

poly_exprs = st.recursive(
    _leaf,
    lambda ch: st.one_of(
        st.tuples(ch, ch).map(lambda ab: ab[0] + ab[1]),
        st.tuples(ch, ch).map(lambda ab: ab[0] * ab[1]),
        st.tuples(ch, st.integers(0, 3)).map(lambda ae: ae[0] ** ae[1]),
    ),
    max_leaves=8,
)
