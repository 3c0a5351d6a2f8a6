"""Adaptive quadrature: the QAGS port against scipy.integrate.quad, which
wraps the same QUADPACK routine, and the wrapper's own semantics."""

import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle_examples
from evolsym.kernel.quadpack import IntegrationWarning, _divide, first_pass_nodes, quad, quad_many

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


def _many_outcome(f, fmany, a, bs, tol):
    """quad_many's (result, abserr) pairs bit for bit and its warnings, or
    the warnings before the error it raised and that error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = [(repr(r), repr(e)) for r, e in quad_many(f, fmany, a, bs, epsabs=tol, epsrel=tol)]
        except Exception as exc:  # compared with the loop's error
            got = (type(exc).__name__, str(exc))
    return got, [(w.category.__name__, str(w.message)) for w in caught]


def _loop_outcome(f, a, bs, tol):
    """The same for the loop of scalar quads, from _outcome of each limit."""
    pairs, caught = [], []
    for b in bs:
        out = _outcome(quad, f, a, b, tol)
        if len(out) == 2:  # the error ends the loop
            return out, caught
        pairs.append(out[:2])
        caught += out[2]
    return pairs, caught


def _batch(f, raises):
    """f on an array of nodes, as one call; with raises, an error wherever a
    value is not finite, as eval_grid's give-up does."""

    def fmany(nodes):
        vals = [f(v) for v in nodes.tolist()]
        if raises and not all(math.isfinite(v) for v in vals):
            raise ValueError("not finite")
        return vals

    return fmany


_limits = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 1.0, -1.0]))


@settings(max_examples=oracle_examples(100), deadline=None)
@given(
    st.sampled_from(sorted(_FAMILIES)),
    _params,
    _params,
    _limits,
    # upper limits below, above and equal to the lower one
    st.lists(_limits, min_size=1, max_size=40),
    st.floats(8.0, 13.0),
    st.booleans(),
)
@example("smooth", 0.5, 0.5, 0.5, [1.0, -2.0, 0.5, 0.5, 3.0], 11.0, False)
# first passes whose abserr is resasc * q**1.5, which keeps the last bits of
# resasc's sum in _qk21's order
@example(
    "smooth",
    -0.8060103958085993,
    -1.9074536449285922,
    -2.4941815909822784,
    [1.8173219176249242, 2.255991137693816, -1.1894622500700935],
    11.0,
    False,
)
# first passes that fail, and NaN at a node, with and without the batch raising
@example("steps", 1.0, 0.5, -3.0, [3.0, -1.0, 2.0], 13.0, False)
@example("singular", -2.0, 0.0, 0.0, [1.0, -1.0, 0.5], 12.0, True)
@example("nan-point", 1.0, 0.5, 0.0, [1.0, 2.0], 11.0, False)
@example("nan-point", 1.0, 0.5, 0.0, [1.0, 2.0], 11.0, True)
@example("non-finite", 1.0, 0.5, -3.0, [3.0, -1.0, 0.0], 10.0, True)
def test_quad_many_matches_quad_bit_for_bit(family, c, d, a, bs, tol_exp, raises):
    # the loop of scalar quads is the oracle: each limit's result and
    # abserr, the warnings in the loop's order, and the loop's first error
    f = _FAMILIES[family](c, d)
    tol = 10.0**-tol_exp
    assert _many_outcome(f, _batch(f, raises), a, bs, tol) == _loop_outcome(f, a, bs, tol)


def test_quad_many_first_passes_that_pass_call_fmany_once():
    scalar, batches = [], []

    def f(v):
        scalar.append(v)
        return math.exp(v)

    def fmany(nodes):
        batches.append(len(nodes))
        return [math.exp(v) for v in nodes.tolist()]

    bs = [0.1, 0.2, -0.5, 0.3, 1.0]
    got = list(quad_many(f, fmany, 0.3, bs, epsabs=1e-11, epsrel=1e-11))
    assert batches == [21 * 4] and scalar == []
    assert got == [quad(math.exp, 0.3, b, epsabs=1e-11, epsrel=1e-11) for b in bs]


def test_quad_many_integrates_a_non_finite_batch_one_by_one():
    # a NaN at one node of the second interval: every interval goes
    # through quad, which calls f at its first-pass nodes
    calls = []
    bad = first_pass_nodes(0.0, 2.0)[1]

    def value(v):
        return math.nan if v == bad else math.exp(v)

    def f(v):
        calls.append(v)
        return value(v)

    bs = [0.3, 2.0, 0.7]
    got = list(quad_many(f, _batch(value, False), 0.0, bs, epsabs=1e-11, epsrel=1e-11))
    assert set(first_pass_nodes(0.0, 0.3) + first_pass_nodes(0.0, 0.7)) <= set(calls)
    assert [repr(r) for r in got] == [repr(quad(f, 0.0, b, epsabs=1e-11, epsrel=1e-11)) for b in bs]


def test_quad_many_raises_the_loops_first_error():
    # a failed batch is integrated limit by limit: the warning of [-3, 3]
    # comes first, then the integrand's error on [-3, 4]
    def f(v):
        if v > 3.5:
            raise ZeroDivisionError("from the integrand")
        return math.floor(16.0 * v)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ZeroDivisionError, match="from the integrand"):
            list(quad_many(f, _batch(f, False), -3.0, [3.0, 4.0, 1.0], epsabs=1e-13, epsrel=1e-13))
    assert [w.category for w in caught] == [IntegrationWarning]


def test_quad_many_invalid_arguments():
    fmany = _batch(math.exp, False)
    assert list(quad_many(math.exp, fmany, 0.0, [0.0], epsabs=0.0, epsrel=1e-30)) == [(0.0, 0.0)]
    with pytest.raises(ValueError, match="epsrel"):
        list(quad_many(math.exp, fmany, 0.0, [0.0, 1.0], epsabs=0.0, epsrel=1e-30))
    with pytest.raises(ValueError, match="finite"):
        list(quad_many(math.exp, fmany, 0.0, [1.0, math.inf], epsabs=1e-10, epsrel=1e-10))


def test_quad_many_integrates_each_interval_when_reached():
    # fmany runs at the call; the interval whose first pass fails runs
    # through quad, and warns, only when the iterator reaches it
    calls = []

    def value(v):
        return math.exp(v) if v < 1.0 else math.floor(100.0 * v)

    def f(v):
        calls.append(v)
        return value(v)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = quad_many(f, _batch(value, False), 0.0, [0.5, 3.0], epsabs=1e-13, epsrel=1e-13)
        assert calls == [] and caught == []
        assert next(got) == quad(value, 0.0, 0.5, epsabs=1e-13, epsrel=1e-13)
        assert calls == [] and caught == []
        next(got)
    assert calls[:21] == first_pass_nodes(0.0, 3.0)
    assert [w.category for w in caught] == [IntegrationWarning]


def test_first_pass_nodes_are_quads_first_calls():
    calls = []

    def f(v):
        calls.append(v)
        return math.exp(v)

    quad(f, 0.9, 0.1, epsabs=1e-11, epsrel=1e-11)
    assert first_pass_nodes(0.9, 0.1) == calls[:21] and len(calls) == 21
    assert first_pass_nodes(0.5, 0.5) == []
    assert first_pass_nodes(0.0, math.inf) == []


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
