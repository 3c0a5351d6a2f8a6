"""Shared oracles and strategies.

Numeric oracles are independent of the code under test: derivatives are
checked against high-order central differences of the pointwise evaluator,
antiderivatives against adaptive quadrature.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from sympy import Integer, Rational

from evolsym.kernel import Cos, Exp, Sin, eval_numeric, sym, t, x


def fd_derivative(expr, name, point, h=1e-5):
    """4th-order central difference of expr w.r.t. the named variable."""

    def f(v):
        pt = dict(point)
        pt[name] = v
        return eval_numeric(expr, pt)

    v0 = point[name]
    return (f(v0 - 2 * h) - 8 * f(v0 - h) + 8 * f(v0 + h) - f(v0 + 2 * h)) / (12 * h)


def rand_points(names, n, seed, lo=0.3, hi=1.7):
    rnd = random.Random(seed)
    return [{k: rnd.uniform(lo, hi) for k in names} for _ in range(n)]


# --- hypothesis strategies --------------------------------------------------

# a thorough run of the slow-path oracle properties:
#   pytest tests/test_kernel.py -k matches_slow_path_oracle --hypothesis-profile=oracle
settings.register_profile("oracle", max_examples=1000, deadline=None)


def oracle_examples(short):
    """max_examples of a slow-path oracle property: `short` in a plain run,
    the oracle profile's count when that profile is loaded."""
    profile = settings.get_profile("oracle")
    return profile.max_examples if settings.default is profile else short


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
