"""Adaptive quadrature: the QAGS port against scipy.integrate.quad, which
wraps the same QUADPACK routine, and the wrapper's own semantics."""

import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle_examples
from evolsym.kernel.quadpack import IntegrationWarning, _divide, quad

_params = st.floats(-2.0, 2.0)

# (family name, integrand builder from two parameters in [-2, 2])
_FAMILIES = {
    "smooth": lambda c, d: lambda v: math.exp(c * v) * math.sin(d * v + 1.0),
    # an integrable power singularity at s, inside or at the end of the range
    "singular": lambda c, d: lambda v: abs(v - d) ** (0.2 * c - 0.5) if v != d else 0.0,
    "log": lambda c, d: lambda v: math.log(abs(v - d)) if v != d else 0.0,
    "oscillatory": lambda c, d: lambda v: math.cos(60.0 * (c + 2.1) * v + d),
    "near-pole": lambda c, d: lambda v: 1.0 / ((v - d) ** 2 + 10.0 ** (2.0 * c - 5.0)),
    # jumps that use up every subinterval
    "steps": lambda c, d: lambda v: math.floor((8.0 + 4.0 * c) * v + d),
    "sign": lambda c, d: lambda v: 1.0 if math.sin(40.0 * (c + 2.1) * v) > d / 4 else -0.5,
    # NaN or infinite values at some nodes: every comparison keeps the
    # Fortran's sense, which decides where a NaN leads
    "non-finite": lambda c, d: lambda v: (
        (math.nan if c > 0 else math.inf) if math.sin(20.0 * abs(c) * v + d) > 0.95 else math.exp(v)
    ),
    "nan-point": lambda c, d: lambda v: math.nan if v == d else c * v,
}


def _outcome(integrator, f, a, b, tol):
    """(result, abserr, warnings) bit for bit, or the error raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, abserr = integrator(f, a, b, epsabs=tol, epsrel=tol)
        except Exception as exc:  # whatever either side raises is compared
            return type(exc).__name__, str(exc)
    return repr(result), repr(abserr), [(w.category.__name__, str(w.message)) for w in caught]


@settings(max_examples=oracle_examples(300), deadline=None)
@given(
    st.sampled_from(sorted(_FAMILIES)),
    _params,
    _params,
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(8.0, 13.0),
)
@example("steps", 1.0, 0.5, -3.0, 3.0, 13.0)
@example("smooth", 0.5, 0.5, 1.0, -2.0, 10.0)  # reversed limits
@example("singular", -2.0, 0.0, 0.0, 1.0, 12.0)  # singular at the endpoint
@example("nan-point", 1.0, 0.5, 0.0, 1.0, 11.0)  # NaN only at the first centre
def test_quad_matches_scipy_bit_for_bit(family, c, d, a, b, tol_exp):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    f = _FAMILIES[family](c, d)
    tol = 10.0**-tol_exp
    want = _outcome(scipy_integrate.quad, f, a, b, tol)
    assert _outcome(quad, f, a, b, tol) == want


def test_quad_empty_interval_calls_nothing():
    calls = []

    def f(v):
        calls.append(v)
        return 1.0

    assert quad(f, 0.7, 0.7, epsabs=1e-10, epsrel=1e-10) == (0.0, 0.0)
    assert calls == []


def test_quad_reversed_limits_negate():
    def f(v):
        return math.exp(v)

    forward = quad(f, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11)
    backward = quad(f, 1.0, 0.0, epsabs=1e-11, epsrel=1e-11)
    assert backward == (-forward[0], forward[1])
    assert forward[0] == pytest.approx(math.e - 1, rel=1e-14)


def test_quad_warns_when_short_of_tolerance():
    def f(v):
        return math.floor(16.0 * v)

    with pytest.warns(IntegrationWarning):
        quad(f, -3.0, 3.0, epsabs=1e-13, epsrel=1e-13)


def test_quad_invalid_arguments():
    with pytest.raises(ValueError, match="epsrel"):
        quad(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-30)
    with pytest.raises(ValueError, match="finite"):
        quad(math.exp, 0.0, math.inf, epsabs=1e-10, epsrel=1e-10)


def test_quad_propagates_integrand_errors():
    def f(v):
        raise ZeroDivisionError("from the integrand")

    with pytest.raises(ZeroDivisionError, match="from the integrand"):
        quad(f, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10)


def test_divergence_ratio_divides_like_the_fortran():
    # the divergence test divides result by the summed area, which can be
    # 0.0; IEEE division gives a signed infinity or NaN, not an exception
    assert _divide(3.0, 2.0) == 1.5
    assert _divide(1.0, 0.0) == math.inf
    assert _divide(1.0, -0.0) == -math.inf
    assert _divide(-1.0, 0.0) == -math.inf
    assert _divide(math.inf, 0.0) == math.inf
    assert math.isnan(_divide(0.0, 0.0))
    assert math.isnan(_divide(math.nan, 0.0))
