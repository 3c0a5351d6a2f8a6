"""Lie reductions, constant-coefficient fundamental systems, symmetry
actions, polynomial-in-t families, generalized reductions, and the nonlocal
generation formula, all against the residual oracles."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Integer, Pow, Rational, S

import evolsym.kernel.quadpack as quadpack
import evolsym.solutions as solutions
import slowpath
from conftest import exprs, oracle_examples, poly_exprs
from slowpath import char_value, divisors

from evolsym.equivalence import (
    EquivTransformation,
    pushforward_equation,
    transport_solution,
)
from evolsym.errors import EvalDomainError, InputError, UnsupportedError
from evolsym.kernel import (
    Cos,
    Exp,
    Ln,
    Sin,
    Verdict,
    eval_numeric,
    is_zero,
    normalize,
    parse_expr,
    sym,
    t,
    to_fraction,
    to_str,
    x,
)
from evolsym.model import ReducedEquation, VectorField
from evolsym.solutions import (
    GeneralizedReduction,
    LinearODE,
    ReducedSystem,
    Solution,
    act_symmetry,
    certify_symbolic,
    generalized_reduction,
    generate_nonlocal,
    polynomial_t_solutions,
    reduce_D1,
    reduce_P1Iphi,
    rk4_integrate,
    solve_const_ode,
)
from evolsym.kernel.polyroot import _divisors, rational_roots, root_multiplicity
from evolsym.solutions import _char_coeffs, _complex_modes, _const_ode_modes, _rationalized_roots
from evolsym.symmetry import solve_symmetries
from evolsym.verify import MAX_AXIS_POINTS, GridSpec, residual_symbolic

FREE3 = ReducedEquation(3, (S.Zero, S.Zero))
FREE4 = ReducedEquation(4, (S.Zero, S.Zero, S.Zero))
LINDRIFT3 = ReducedEquation(3, (x, S.Zero))  # A^0 = x, A^1 = 0

# (n_steps, points on the other axis, the bound named): refused before the
# first RK4 step, since the run is the axis of a residual grid
OVER_GRID_BOUNDS = [
    (MAX_AXIS_POINTS, 2, "MAX_AXIS_POINTS"),
    (10**12, 2, "MAX_AXIS_POINTS"),
    (64, MAX_AXIS_POINTS + 1, "MAX_AXIS_POINTS"),
    (MAX_AXIS_POINTS - 1, 128, "MAX_GRID_POINTS"),
]


def _no_step(*args, **kwargs):
    raise AssertionError("an RK4 step ran")


D = lambda f: VectorField(tau=f)  # noqa: E731
P = lambda f: VectorField(chi=f)  # noqa: E731
I = lambda f: VectorField(phi=f)  # noqa: E731


def zero(e):
    return is_zero(e) is Verdict.ZERO


def same(a, b):
    return zero(normalize(a - b).as_expr())


class TestLinearODE:
    def test_residual(self):
        ode = LinearODE(3, (0, 0, 0))
        assert zero(ode.residual(x**2))
        assert same(ode.residual(x**3), Integer(6))

    def test_variable_mismatch_rejected(self):
        with pytest.raises(InputError):
            LinearODE(2, (t, S.Zero), x)
        with pytest.raises(InputError):
            LinearODE(0, ())

    def test_fields_are_stored_as_normal_forms(self):
        raw = ((x**2 - 1) / (x - 1), Exp(x) * (Exp(x) + 1))
        ode = LinearODE(2, raw, x)
        assert ode.coeffs == tuple(normalize(c).as_expr() for c in raw)
        assert ode.coeffs != raw
        coupling = (((t**2 - 1) / (t - 1), t + t), (Exp(t) * (Exp(t) + 1), S.Zero))
        system = ReducedSystem(t, ("v0", "v1"), LinearODE(1, (S.Zero,), t), coupling)
        assert system.coupling == tuple(
            tuple(normalize(c).as_expr() for c in row) for row in coupling
        )

    def test_variable_check_reads_the_input_as_given(self):
        bad_t = (t**2 - 1) / (t - 1) - t
        assert normalize(bad_t).as_expr() == 1
        with pytest.raises(InputError, match="must not involve t"):
            LinearODE(2, (bad_t, S.Zero), x)


class TestReduceD1:
    def test_free_equation(self):
        ode = reduce_D1(FREE3)
        assert ode.order == 3 and ode.var == x
        assert all(zero(c) for c in ode.coeffs)

    def test_singular_coefficients(self):
        # [DERIVED] v''' + x^-2 v' + x^-3 v = 0
        ode = reduce_D1(ReducedEquation(3, (x**-3, x**-2)))
        assert same(ode.coeffs[0], x**-3)
        assert same(ode.coeffs[1], x**-2)
        assert zero(ode.coeffs[2])

    def test_fourth_order(self):
        ode = reduce_D1(ReducedEquation(4, (S.One, S.Zero, S.Zero)))
        assert ode.order == 4
        assert same(ode.coeffs[0], S.One)

    def test_time_dependence_rejected(self):
        with pytest.raises(UnsupportedError):
            reduce_D1(ReducedEquation(3, (t, S.Zero)))


class TestSolveConstODE:
    def test_triple_zero_root(self):
        basis = solve_const_ode(LinearODE(3, (0, 0, 0)))
        assert [to_str(s.expr) for s in basis] == ["1", "x", "x^2"]
        assert all(s.certificate == "zero-residual" for s in basis)

    def test_cube_roots_of_unity(self):
        # [DERIVED] rational root 1 exact, conjugate pair numeric
        basis = solve_const_ode(LinearODE(3, (-1, 0, 0)))
        kinds = [s.kind for s in basis]
        assert kinds == ["symbolic", "numeric", "numeric"]
        assert same(basis[0].expr, Exp(x))
        # -1/2 +- i sqrt(3)/2 rationalized; residual certified tiny
        for s in basis[1:]:
            assert s.max_residual < 1e-10
        v = eval_numeric(basis[1].expr, {"x": 1.0})
        assert v == pytest.approx(
            math.exp(-0.5) * math.cos(math.sqrt(3) / 2), rel=1e-9
        )

    def test_single_rational_root(self):
        basis = solve_const_ode(LinearODE(1, (-2,)))
        assert len(basis) == 1 and same(basis[0].expr, Exp(2 * x))

    def test_pure_imaginary_pair_is_exact(self):
        basis = solve_const_ode(LinearODE(2, (1, 0)))
        assert [to_str(s.expr) for s in basis] == ["cos(x)", "sin(x)"]
        assert all(s.kind == "symbolic" for s in basis)

    def test_double_roots(self):
        basis = solve_const_ode(LinearODE(4, (1, 0, -2, 0)))
        assert [to_str(s.expr) for s in basis] == [
            "exp(-x)",
            "x*exp(-x)",
            "exp(x)",
            "x*exp(x)",
        ]

    def test_time_variable_basis(self):
        basis = solve_const_ode(LinearODE(1, (Integer(-3),), t))
        assert same(basis[0].expr, Exp(3 * t))

    def test_nonconstant_rejected(self):
        with pytest.raises(InputError):
            solve_const_ode(LinearODE(2, (x, S.Zero)))


class TestReduceP1Iphi:
    def test_linear_drift(self):
        # [PAPER] u = c0 exp(t x + t^4/4) at phi0 = 0
        s = reduce_P1Iphi(LINDRIFT3, phi0=0)
        assert s.certificate == "zero-residual"
        assert same(s.expr, sym("c0") * Exp(t * x + t**4 / 4))

    def test_linear_drift_free_constant(self):
        s = reduce_P1Iphi(LINDRIFT3)
        assert set(s.parameters) == {"c0", "phi0"}
        k = sym("phi0")
        expected = sym("c0") * Exp(
            k**3 * t + Rational(3, 2) * k**2 * t**2 + k * t**3
            + k * x + t**4 / 4 + t * x
        )
        assert same(s.expr, expected)

    def test_dispersion(self):
        # [DERIVED] f = 0: u = c0 exp(k x + k^3 t)
        s = reduce_P1Iphi(FREE3)
        k = sym("phi0")
        assert same(s.expr, sym("c0") * Exp(k * x + k**3 * t))

    def test_fourth_order_with_a2(self):
        s = reduce_P1Iphi(ReducedEquation(4, (S.Zero, S.Zero, S.One)))
        k = sym("phi0")
        assert same(s.expr, sym("c0") * Exp(k * x + (k**4 + k**2) * t))

    def test_quadrature_tail(self):
        quad = pytest.importorskip("scipy.integrate").quad
        # A^2 = exp(t^2) has no catalog antiderivative: numeric fallback
        eq = ReducedEquation(4, (S.Zero, S.Zero, Exp(t**2)))
        g = GridSpec((0.0, 0.5), (0.0, 1.0), 1 / 32, 1 / 32)
        s = reduce_P1Iphi(eq, grid=g, phi0_value=1.0)
        assert s.kind == "numeric"
        # u(t, x) = exp(x + t + int_0^t exp(s^2) ds); check one point
        tv, xv = s.grid["t"][8], s.grid["x"][16]
        expected = math.exp(xv + tv + quad(lambda v: math.exp(v * v), 0, tv)[0])
        assert s.grid["values"][8][16] == pytest.approx(expected, rel=1e-9)
        assert s.max_residual < 1e-5

    def test_overflow_exits_unsupported(self):
        # w(1/2) is near 4e9 at phi0 = 300, and exp(300 x + w) overflows
        eq = ReducedEquation(4, (S.Zero, S.Zero, Exp(t**2)))
        g = GridSpec((0.0, 0.5), (0.0, 1.0), 1 / 32, 1 / 32)
        with pytest.raises(UnsupportedError, match="^numeric certificate out of float range in P1I reduction$"):
            reduce_P1Iphi(eq, grid=g, phi0_value=300.0)

    def test_shape_mismatch(self):
        with pytest.raises(UnsupportedError):
            reduce_P1Iphi(ReducedEquation(3, (x**2, S.Zero)))
        with pytest.raises(UnsupportedError):
            reduce_P1Iphi(ReducedEquation(3, (S.Zero, S.One)))
        with pytest.raises(UnsupportedError):
            reduce_P1Iphi(ReducedEquation(4, (S.Zero, S.Zero, x)))


class TestActSymmetry:
    def test_time_translation(self):
        s = act_symmetry(D(S.One), Exp(x + t), FREE3)
        assert same(s.expr, -Exp(x + t))

    def test_scaling(self):
        s = act_symmetry(I(S.One), Exp(x + t), FREE3)
        assert same(s.expr, Exp(x + t))

    def test_space_translation_on_linear(self):
        s = act_symmetry(P(S.One), x, FREE3)
        assert same(s.expr, Integer(-1))

    def test_solution_object_input(self):
        h = certify_symbolic(FREE3, t * x**2 + x**5 / 60)
        s = act_symmetry(D(S.One), h, FREE3)
        assert same(s.expr, -(x**2))

    def test_non_symmetry_rejected(self):
        # P(1) does not preserve the singular case
        eq = ReducedEquation(3, (x**-3, x**-2))
        with pytest.raises(InputError):
            act_symmetry(P(S.One), x, eq)

    def test_non_solution_rejected(self):
        with pytest.raises(InputError):
            act_symmetry(D(S.One), x**3, FREE3)


class TestPolynomialTSolutions:
    def test_quadratic_top_layer(self):
        # [PAPER] u = t x^2 + x^5/60
        sols = polynomial_t_solutions(FREE3, 1, top_layer=x**2)
        assert same(sols[0].expr, t * x**2 + x**5 / 60)
        assert sols[0].certificate == "zero-residual"

    def test_fourth_order(self):
        sols = polynomial_t_solutions(FREE4, 1, top_layer=S.One)
        assert same(sols[0].expr, t + x**4 / 24)

    def test_N0_matches_ode_basis(self):
        sols = polynomial_t_solutions(FREE3, 0)
        basis = solve_const_ode(reduce_D1(FREE3))
        assert [to_str(s.expr) for s in sols] == [to_str(b.expr) for b in basis]

    def test_family_spans_layers(self):
        sols = polynomial_t_solutions(FREE3, 1)
        # 3 basis elements at each of 2 layers
        assert len(sols) == 6
        assert all(s.certificate == "zero-residual" for s in sols)
        # the layer-1 chain for v^1 = x^2 reappears as the canonical example
        assert any(same(s.expr, t * x**2 + x**5 / 60) for s in sols)

    def test_superposition_recertifies(self):
        sols = polynomial_t_solutions(FREE3, 1)
        rnd = random.Random(7)
        combo = sum(
            Rational(rnd.randint(-5, 5), rnd.randint(1, 3)) * s.expr
            for s in sols
        )
        assert certify_symbolic(FREE3, combo).certificate == "zero-residual"

    def test_invalid_top_layer_rejected(self):
        with pytest.raises(InputError):
            polynomial_t_solutions(FREE3, 1, top_layer=x**3)

    def test_nonconstant_coefficients_need_numeric(self):
        with pytest.raises(UnsupportedError):
            polynomial_t_solutions(ReducedEquation(3, (x**-3, x**-2)), 1)


class TestGeneralizedReductionD:
    def test_real_rate_one(self):
        # [PAPER] v''' = v; e^{x+t} among the family
        gr = generalized_reduction(FREE3, "D", 0, lam=1)
        assert gr.system.describe() == ["v0_3 = (1)*v0"]
        exact = [s for s in gr.solutions if s.kind == "symbolic"]
        assert len(exact) == 1 and same(exact[0].expr, Exp(x + t))
        numeric = [s for s in gr.solutions if s.kind == "numeric"]
        assert len(numeric) == 2
        assert all(s.max_residual < 1e-9 for s in numeric)

    def test_real_chain_with_rate(self):
        gr = generalized_reduction(FREE3, "D", 1, lam=1, top_layer=Exp(x))
        assert same(gr.solutions[0].expr, t * Exp(x + t) + x * Exp(x + t) / 3)

    def test_lambda_zero_specializes_to_polynomial_family(self):
        gr = generalized_reduction(FREE3, "D", 1, lam=0, top_layer=x**2)
        sols = polynomial_t_solutions(FREE3, 1, top_layer=x**2)
        assert [to_str(s.expr) for s in gr.solutions] == [
            to_str(s.expr) for s in sols
        ]

    def test_complex_pair_recovers_travelling_wave(self):
        # [DERIVED] cos(x - t) solves u_t = u_3 (the +t variant does not)
        gr = generalized_reduction(FREE3, "D", 0, mu=0, nu=1)
        exact = [s for s in gr.solutions if s.kind == "symbolic"]
        assert any(
            same(s.expr, Cos(t) * Cos(x) + Sin(t) * Sin(x)) for s in exact
        )
        got = [s for s in exact if same(s.expr, Cos(t) * Cos(x) + Sin(t) * Sin(x))]
        pt = {"t": 0.7, "x": 1.3}
        assert eval_numeric(got[0].expr, pt) == pytest.approx(
            math.cos(pt["x"] - pt["t"])
        )
        # the remaining four elements carry numeric certificates
        numeric = [s for s in gr.solutions if s.kind == "numeric"]
        assert len(numeric) == 4
        assert all(s.max_residual < 1e-9 for s in numeric)

    def test_t_dependent_coefficients_rejected(self):
        with pytest.raises(UnsupportedError):
            generalized_reduction(ReducedEquation(3, (t, S.Zero)), "D", 0)

    def test_numeric_fallback_matches_exact(self):
        gr = generalized_reduction(
            FREE3,
            "D",
            0,
            lam=1,
            numeric={
                "span": (0.0, 1.0),
                "n_steps": 64,
                "init": [1.0, 1.0, 1.0],
                "t_pts": np.linspace(0.0, 1.0, 33),
            },
        )
        s = gr.solutions[-1]
        assert s.kind == "numeric"
        # init = e^x data, so the run must reproduce e^{x+t}
        i, j = 16, 20
        tv, xv = s.grid["t"][i], s.grid["x"][j]
        assert s.grid["values"][i][j] == pytest.approx(math.exp(tv + xv), rel=1e-7)
        assert s.max_residual < 1e-6

    def test_numeric_fallback_pair_recovers_travelling_wave(self):
        # v = cos(x), w = sin(x) solve v_3 = w, w_3 = -v: u = cos(x - t)
        gr = generalized_reduction(
            FREE3,
            "D",
            0,
            mu=0,
            nu=1,
            numeric={
                "span": (0.0, 1.0),
                "n_steps": 64,
                "init": [1.0, 0.0, -1.0, 0.0, 1.0, 0.0],
                "t_pts": np.linspace(0.0, 1.0, 9),
            },
        )
        s = gr.solutions[-1]
        assert s.provenance["method"] == "generalized-reduction-rk4"
        for i, j in ((0, 0), (4, 32), (8, 64), (2, 50)):
            tv, xv = s.grid["t"][i], s.grid["x"][j]
            assert s.grid["values"][i][j] == pytest.approx(
                math.cos(xv - tv), abs=1e-8
            )

    @pytest.mark.parametrize("key", ["span", "init", "t_pts"])
    def test_numeric_spec_missing_key(self, key):
        spec = {"span": (0.0, 1.0), "init": [1.0, 1.0, 1.0], "t_pts": [0.0, 1.0]}
        del spec[key]
        with pytest.raises(InputError, match=key):
            generalized_reduction(FREE3, "D", 0, lam=1, numeric=spec)

    @pytest.mark.parametrize("n_steps, n_pts, bound", OVER_GRID_BOUNDS)
    def test_numeric_spec_over_grid_bounds(self, monkeypatch, n_steps, n_pts, bound):
        monkeypatch.setattr(solutions, "rk4_integrate", _no_step)
        spec = {
            "span": (0.0, 1.0),
            "n_steps": n_steps,
            "init": [1.0, 1.0, 1.0],
            "t_pts": np.linspace(0.0, 1.0, n_pts),
        }
        with pytest.raises(InputError, match=bound):
            generalized_reduction(FREE3, "D", 0, lam=1, numeric=spec)


_small_rationals = st.builds(Rational, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _char_root_cases(draw):
    """(eq, mu, nu, extra): a constant-coefficient reduced equation, a rate
    mu - i nu with nu > 0, and roots (a, b) to test besides the floating
    ones.  Half the draws set mu - i nu = char(z) for a drawn z, so that z
    is an exact root."""
    r = draw(st.integers(3, 5))
    eq = ReducedEquation(r, tuple(draw(st.lists(_small_rationals, min_size=r - 1, max_size=r - 1))))
    if not draw(st.booleans()):
        nu = draw(_small_rationals.filter(lambda v: v > 0))
        return eq, draw(_small_rationals), nu, []
    a, b = draw(_small_rationals), draw(_small_rationals)
    re, im = char_value(_char_coeffs(LinearODE(r, eq.A + (S.Zero,), x)), a, b)
    # char(conj z) = conj char(z): the conjugate root gives the rate nu > 0
    assume(im != 0)
    if im > 0:
        b, im = -b, -im
    return eq, Rational(re.numerator, re.denominator), Rational(-im.numerator, im.denominator), [(a, b)]


@pytest.mark.oracle
@settings(max_examples=oracle_examples(10), deadline=None)
@given(_char_root_cases())
# the free r = 3 equation has the exact root z = i at mu = 0, nu = 1
@example((FREE3, S.Zero, S.One, []))
def test_exact_root_test_matches_residual_verdict(case):
    # the symbolic residual's verdict is the oracle of the exact root test:
    # a + ib is a root of char - (mu - i nu), which the Horner value of
    # char at a + ib decides as well
    eq, mu, nu, extra = case
    char = _char_coeffs(LinearODE(eq.r, eq.A + (S.Zero,), x))
    rate = (to_fraction(mu), -to_fraction(nu))
    shifted = [(char[0] - rate[0], -rate[1])] + char[1:]
    roots = [(a, b) for _z, a, b in _rationalized_roots(char, mu, nu)] + extra
    for a, b in roots:
        exact = root_multiplicity(shifted, (a, b)) > 0
        assert exact == (char_value(char, a, b) == rate)
        for _tag, u in _complex_modes(a, b, mu, nu):
            assert exact == (is_zero(residual_symbolic(eq, u)) is Verdict.ZERO)


@st.composite
def _const_odes(draw):
    """A rational constant-coefficient ODE of order 3-5 whose monic
    characteristic polynomial is a product of drawn factors (w - c)^m and
    ((w - a)^2 + b^2)^m, exact repeated and Gaussian roots, and a monic
    factor with drawn coefficients for the degree left over."""
    r = draw(st.integers(3, 5))
    char = [Fraction(1)]

    def times(factor):
        nonlocal char
        out = [Fraction(0)] * (len(char) + len(factor) - 1)
        for i, p in enumerate(char):
            for j, q in enumerate(factor):
                out[i + j] += p * q
        char = out

    rats = _small_rationals.map(to_fraction)
    while len(char) - 1 < r and draw(st.booleans()):
        m = draw(st.integers(1, 2))
        if r - (len(char) - 1) >= 2 * m and draw(st.booleans()):
            a, b = draw(rats), draw(rats.filter(lambda v: v != 0))
            factor = [a * a + b * b, -2 * a, Fraction(1)]
        else:
            m = min(m, r - (len(char) - 1))
            factor = [-draw(rats), Fraction(1)]
        for _ in range(m):
            times(factor)
    left = r - (len(char) - 1)
    if left:
        times(draw(st.lists(rats, min_size=left, max_size=left)) + [Fraction(1)])
    return LinearODE(r, tuple(Rational(c) for c in char[:-1]), x)


@pytest.mark.oracle
@settings(max_examples=oracle_examples(10), deadline=None)
@given(_const_odes())
# (w^2 + 1)^2 (w - 1): a repeated Gaussian root; (w - 2)^3: a repeated
# rational root
@example(LinearODE(5, (-1, 1, -2, 2, -1), x))
@example(LinearODE(3, (-8, 12, -6), x))
def test_const_ode_multiplicity_matches_residual_verdict(ode):
    # a mode w^k e^(aw) [cos|sin](bw) has a zero residual exactly when
    # a + ib is a root of char of multiplicity > k
    char = _char_coeffs(ode)
    for e, _tag, k, z in _const_ode_modes(ode, char):
        e = normalize(e).as_expr()
        exact = root_multiplicity(char, z) > k
        assert exact == (is_zero(ode.residual(e)) is Verdict.ZERO)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(-(10**6), 10**6).filter(bool), st.integers(10**8, 10**10)))
@example(720720)
@example(-(2**19))
@example(100160063)
# 4094999 * 7038671: the bounded search alone leaves it composite
@example(28823350706329)
def test_divisors_match_trial_division(n):
    # the candidate set of rational_roots, and so its roots, are unchanged
    assert sorted(_divisors(n)) == divisors(n)


def test_rational_roots_of_a_large_constant_term():
    # w^3 - 10^21: trial division up to 10^10.5 never ended
    roots, rest = rational_roots([-(10**21), 0, 0, 1])
    assert roots == [(Fraction(10**7), 1)]
    assert rest == [10**14, 10**7, 1]


class TestGeneralizedReductionP:
    def test_real_constant_dispersion(self):
        gr = generalized_reduction(FREE3, "P", 0)
        k = sym("phi0")
        assert len(gr.solutions) == 1
        assert same(gr.solutions[0].expr, Exp(k**3 * t + k * x))
        assert gr.solutions[0].parameters == ("phi0",)

    def test_real_constant_layers_symbolic_rate(self):
        # [DERIVED] nilpotent part exponentiates in closed form over Q(phi0)
        gr = generalized_reduction(FREE3, "P", 2)
        k = sym("phi0")
        rows = gr.system.describe()
        assert rows[0] == "v0_1 = (phi0^3)*v0 + (3*phi0^2)*v1 + (6*phi0)*v2"
        assert rows[1] == "v1_1 = (phi0^3)*v1 + (6*phi0^2)*v2"
        assert rows[2] == "v2_1 = (phi0^3)*v2"
        assert len(gr.solutions) == 3
        base = Exp(k**3 * t + k * x)
        assert same(gr.solutions[0].expr, base)
        assert same(gr.solutions[1].expr, (3 * k**2 * t + x) * base)
        assert same(
            gr.solutions[2].expr,
            (9 * k**4 * t**2 + 6 * k**2 * t * x + 6 * k * t + x**2) * base,
        )

    def test_complex_travelling_wave(self):
        # [DERIVED] reduced pair v' = -w, w' = v gives cos(x - t)
        gr = generalized_reduction(FREE3, "P", 0, mu=0, nu=1, phi0=0)
        assert gr.system.describe() == ["v0_1 = (-1)*w0", "w0_1 = (1)*v0"]
        assert same(
            gr.solutions[0].expr, Cos(t) * Cos(x) + Sin(t) * Sin(x)
        )
        assert all(s.certificate == "zero-residual" for s in gr.solutions)

    def test_complex_constant_layers(self):
        gr = generalized_reduction(FREE4, "P", 1, mu=0, nu=1, phi0=0)
        assert len(gr.system.unknowns) == 4
        assert len(gr.solutions) == 4
        assert all(s.certificate == "zero-residual" for s in gr.solutions)

    def test_time_dependent_quadrature(self):
        # phi = t: new solutions with exp-polynomial phases
        gr = generalized_reduction(LINDRIFT3, "P", 0, mu=0, nu=1, phi0=0)
        assert len(gr.solutions) == 2
        assert all(s.certificate == "zero-residual" for s in gr.solutions)
        # oracle spot-check of the closed form
        s = gr.solutions[0]
        assert zero(residual_symbolic(LINDRIFT3, s.expr))

    def test_rk4_matches_quadrature_path(self):
        sym_sol = generalized_reduction(LINDRIFT3, "P", 0, phi0=0).solutions[0]
        xpts = np.linspace(0.0, 1.0, 17)
        gr = generalized_reduction(
            LINDRIFT3,
            "P",
            0,
            phi0=0,
            numeric={
                "span": (0.0, 1.0),
                "n_steps": 128,
                "init": [1.0],
                "x_pts": xpts,
                "params": {"phi0": 0.0},
            },
        )
        s = gr.solutions[-1]
        i, j = 64, 8
        tv, xv = s.grid["t"][i], s.grid["x"][j]
        expected = eval_numeric(sym_sol.expr, {"t": tv, "x": xv})
        assert s.grid["values"][i][j] == pytest.approx(expected, rel=1e-8)

    def test_rk4_pair_recovers_travelling_wave(self):
        # v = cos(t), w = sin(t) solve v_1 = -w, w_1 = v: u = cos(x - t)
        gr = generalized_reduction(
            FREE3,
            "P",
            0,
            mu=0,
            nu=1,
            phi0=0,
            numeric={
                "span": (0.0, 1.0),
                "n_steps": 64,
                "init": [1.0, 0.0],
                "x_pts": np.linspace(0.0, 1.0, 9),
            },
        )
        s = gr.solutions[-1]
        assert s.provenance["method"] == "generalized-reduction-rk4"
        for i, j in ((0, 0), (32, 4), (64, 8), (50, 2)):
            tv, xv = s.grid["t"][i], s.grid["x"][j]
            assert s.grid["values"][i][j] == pytest.approx(
                math.cos(xv - tv), abs=1e-8
            )

    @pytest.mark.parametrize("key", ["span", "init", "x_pts"])
    def test_numeric_spec_missing_key(self, key):
        spec = {"span": (0.0, 1.0), "init": [1.0], "x_pts": [0.0, 1.0]}
        del spec[key]
        with pytest.raises(InputError, match=key):
            generalized_reduction(FREE3, "P", 0, phi0=0, numeric=spec)

    @pytest.mark.parametrize("n_steps, n_pts, bound", OVER_GRID_BOUNDS)
    def test_numeric_spec_over_grid_bounds(self, monkeypatch, n_steps, n_pts, bound):
        monkeypatch.setattr(solutions, "rk4_integrate", _no_step)
        spec = {
            "span": (0.0, 1.0),
            "n_steps": n_steps,
            "init": [1.0],
            "x_pts": np.linspace(0.0, 1.0, n_pts),
        }
        with pytest.raises(InputError, match=bound):
            generalized_reduction(FREE3, "P", 0, phi0=0, numeric=spec)

    def test_nu_must_be_positive(self):
        with pytest.raises(InputError):
            generalized_reduction(FREE3, "P", 0, mu=0, nu=-1)
        with pytest.raises(InputError):
            generalized_reduction(FREE3, "P", 0, mu=0, nu=0)

    def test_parameter_conflicts(self):
        with pytest.raises(InputError):
            generalized_reduction(FREE3, "P", 0, lam=1, mu=0, nu=1)
        with pytest.raises(InputError):
            generalized_reduction(FREE3, "P", -1)
        with pytest.raises(InputError):
            generalized_reduction(FREE3, "X", 0)
        with pytest.raises(InputError):
            generalized_reduction(FREE3, "P", 0, top_layer=x)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UnsupportedError):
            generalized_reduction(ReducedEquation(3, (x**2, S.Zero)), "P", 0)


class TestRK4:
    def test_exponential_order(self):
        ode = LinearODE(1, (Integer(-1),), t)
        system = ReducedSystem(t, ("v0",), ode, ((S.One - S.One,),))
        # v' = -coeff v + coupling v with coeff -1, coupling 0: v' = v
        errs = []
        for n in (16, 32):
            _, traj, _ = rk4_integrate(system, [1.0], (0.0, 1.0), n)
            errs.append(abs(traj["v0"][-1] - math.e))
        order = math.log2(errs[0] / errs[1])
        assert order == pytest.approx(4.0, abs=0.3)

    def test_error_estimate_brackets_true_error(self):
        ode = LinearODE(1, (Integer(-1),), t)
        system = ReducedSystem(t, ("v0",), ode, ((S.Zero,),))
        _, traj, err = rk4_integrate(system, [1.0], (0.0, 1.0), 32)
        true_err = abs(traj["v0"][-1] - math.e)
        assert err > true_err / 20
        assert err < 1e-6

    def test_input_validation(self, monkeypatch):
        ode = LinearODE(1, (S.Zero,), t)
        system = ReducedSystem(t, ("v0",), ode, ((S.Zero,),))
        with pytest.raises(InputError):
            rk4_integrate(system, [1.0, 2.0], (0.0, 1.0), 8)
        with pytest.raises(InputError):
            rk4_integrate(system, [1.0], (1.0, 0.0), 8)
        # rk4_integrate's own bound, on its n_steps + 1 points; a step
        # evaluates the coefficient -1, and none may run
        growth = ReducedSystem(t, ("v0",), LinearODE(1, (Integer(-1),), t), ((S.Zero,),))
        monkeypatch.setattr(solutions, "eval_numeric", _no_step)
        for n_steps, _n_pts, bound in OVER_GRID_BOUNDS[:2]:
            with pytest.raises(InputError, match=bound):
                rk4_integrate(growth, [1.0], (0.0, 1.0), n_steps)


# np.linspace(0.0, 1.0, 17) on both axes
UNIT17 = GridSpec((0.0, 1.0), (0.0, 1.0), 1 / 16, 1 / 16)


class TestGenerateNonlocal:
    def test_zero_seed_matches_exponential_ansatz(self):
        # h = 0 collapses to v0 e^{phi x + w(t)}
        tp = np.linspace(0.0, 1.0, 17)
        xp = np.linspace(0.0, 1.0, 17)
        s = generate_nonlocal(LINDRIFT3, S.Zero, 0.0, 0.0, 1.0, UNIT17)
        for i, j in [(0, 0), (8, 12), (16, 16)]:
            tv, xv = tp[i], xp[j]
            assert s.grid["values"][i][j] == pytest.approx(
                math.exp(tv * xv + tv**4 / 4), rel=1e-10
            )

    def test_dispersion_seed(self):
        # v0 = 1, h = 0, phi0 = 1/2 on the free equation: e^{k x + k^3 t}
        tp = np.linspace(0.0, 1.0, 17)
        xp = np.linspace(0.0, 1.0, 17)
        s = generate_nonlocal(FREE3, S.Zero, 0.0, 0.0, 1.0, UNIT17, phi0_value=0.5)
        tv, xv = tp[10], xp[5]
        assert s.grid["values"][10][5] == pytest.approx(
            math.exp(0.5 * xv + 0.125 * tv), rel=1e-10
        )
        assert s.max_residual < 1e-8

    def test_new_solution_from_known_seed(self):
        # [PAPER] seed exp(tx + t^4/4): the result is a genuinely new
        # solution; its residual is finite-difference truncation only
        h = Exp(t * x + t**4 / 4)
        tp = np.linspace(0.0, 1.0, 33)
        xp = np.linspace(0.0, 1.0, 33)
        grid = GridSpec((0.0, 1.0), (0.0, 1.0), 1 / 32, 1 / 32)
        s = generate_nonlocal(LINDRIFT3, h, 0.0, 0.0, 0.0, grid)
        assert s.kind == "numeric"
        assert s.max_residual < 5e-6
        # not proportional to the seed: the ratio varies across the grid
        r1 = s.grid["values"][16][8] / math.exp(tp[16] * xp[8] + tp[16] ** 4 / 4)
        r2 = s.grid["values"][16][24] / math.exp(tp[16] * xp[24] + tp[16] ** 4 / 4)
        assert abs(r1 - r2) > 1e-3

    def test_seed_must_be_solution(self):
        with pytest.raises(InputError):
            generate_nonlocal(LINDRIFT3, x**3, 0.0, 0.0, 1.0)

    def test_free_parameters_must_be_bound(self):
        s = reduce_P1Iphi(LINDRIFT3)
        with pytest.raises(InputError):
            generate_nonlocal(LINDRIFT3, s, 0.0, 0.0, 1.0)


def _values_outcome(values, *args):
    """The grid values bit for bit (repr tells -0.0 from 0.0), or the error
    raised, and the warnings in the order they came."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = [[repr(v) for v in row] for row in values(*args)]
        except Exception as exc:  # whatever either side raises is compared
            got = type(exc), str(exc)
    return got, [(w.category.__name__, str(w.message)) for w in caught]


PHI0 = sym("phi0")
_small_rationals = st.builds(Rational, st.integers(-3, 3), st.integers(1, 4))
# the benchmark's nonlocal seeds, and polynomial-exp integrands, which need
# not solve the equation for the loops to integrate them
_nonlocal_seeds = st.one_of(
    st.sampled_from(
        [parse_expr(s) for s in ("t*x^2 + 1/60*x^5", "x^3 + 6*t", "x", "t*x + 1/24*x^4")]
    ),
    st.builds(lambda p, a, b: p * Exp(a * x + b * t), poly_exprs, _small_rationals, _small_rationals),
)
# a row grid of 5 x 9 points, as default_grid spaces them
_ROW_T = [i / 8 for i in range(5)]
_ROW_X = [i / 8 for i in range(9)]
_moderate = st.floats(-2.0, 2.0)
# large enough that math.exp overflows on the grid
_huge = st.sampled_from([700.0, -700.0, 1e300, -1e300])


@pytest.mark.oracle
@settings(max_examples=oracle_examples(40), deadline=None)
@given(
    st.sampled_from([FREE3, LINDRIFT3, ReducedEquation(4, (S.Zero, S.Zero, S.One))]),
    _nonlocal_seeds,
    # inside the grid, so that the x-integrals left of x0 run reversed, or
    # on a grid point
    st.one_of(st.floats(0.0, 1.0), st.sampled_from(_ROW_X)),
    # the first grid time, where the boundary integral of the first row is
    # empty, or any other
    st.one_of(st.floats(-0.5, 0.75), st.sampled_from(_ROW_T)),
    st.one_of(_moderate, st.sampled_from([1e308, -1e308])),
    st.one_of(_moderate, _huge),
)
@example(FREE3, parse_expr("t*x^2 + 1/60*x^5"), 0.25, 0.0, 0.5, -0.5)
@example(FREE3, parse_expr("t*x^2 + 1/60*x^5"), 0.0, 0.0, 0.0, 1e300)
@example(FREE3, parse_expr("t*x^2 + 1/60*x^5"), 0.0, 0.0, 1e308, 0.0)
# the integrand raises at the x-integrals' nodes left of x = 1/2
@example(FREE3, Ln(x - Rational(1, 2)), 0.75, 0.1, 1.0, 0.5)
# the boundary integrals subdivide near the pole at t = -0.51, and their
# integrand integrates w at nodes outside the table
@example(FREE3, x / (t + Rational(51, 100)), 0.5, -0.5, 1.0, 0.5)
# with phi0 = 1 the rate is sin(3000 t) + ln(3/8 - t): w warns on the rows
# up to t = 3/8 and at their boundary nodes, then raises on the last row
@example(
    ReducedEquation(4, (S.Zero, S.Zero, Sin(3000 * t) + Ln(Rational(3, 8) - t) - 1)),
    S.Zero,
    0.25,
    0.0,
    1.0,
    1.0,
)
def test_nonlocal_values_match_slow_path_oracle(eq, h, x0, t0, v0, phi0_value):
    # the loops of scalar quads in tests/slowpath.py are the oracle: the
    # same float at every grid point, or the same error, and the same
    # warnings in the same order
    phi = solutions._phi_of(eq, PHI0)
    g, bseries = solutions._nonlocal_integrands(eq, phi, h, x0)
    args = (g, phi, bseries, h, x0, t0, v0, phi0_value, _ROW_T, _ROW_X)
    want = _values_outcome(slowpath.nonlocal_values, *args)
    assert _values_outcome(solutions._nonlocal_values, *args) == want


@pytest.mark.parametrize("rows_per_block", [None, 1, 2])
def test_nonlocal_values_integrate_in_batches(monkeypatch, rows_per_block):
    # where every first pass ends its integral, scalar QAGS runs only for
    # each row's boundary integral and for the empty intervals, whether h
    # is evaluated on all the rows at once or on blocks of rows (8
    # x-integrals of 21 nodes a row)
    if rows_per_block:
        monkeypatch.setattr(solutions, "MAX_GRID_POINTS", rows_per_block * 8 * 21)
    scalar = quadpack.quad
    boundary, handed_on = [], []

    def boundary_quad(f, a, b, **tolerances):
        boundary.append(b)
        return scalar(f, a, b, **tolerances)

    def handed_on_quad(f, a, b, *tolerances):
        handed_on.append(b)
        return scalar(f, a, b, *tolerances)

    monkeypatch.setattr(solutions, "quad", boundary_quad)
    monkeypatch.setattr(quadpack, "quad", handed_on_quad)
    h = parse_expr("t*x^2 + 1/60*x^5")
    phi = solutions._phi_of(FREE3, PHI0)
    g, bseries = solutions._nonlocal_integrands(FREE3, phi, h, 0.25)
    args = (g, phi, bseries, h, 0.25, 0.0, 0.5, -0.5, _ROW_T, _ROW_X)
    got = solutions._nonlocal_values(*args)
    assert boundary == _ROW_T
    # w(t0) of the table, and each row's x-integral to x0
    assert handed_on == [0.0] + [0.25] * len(_ROW_T)
    assert got == slowpath.nonlocal_values(*args)


def test_nonlocal_values_when_a_block_of_rows_raises(monkeypatch):
    # h is evaluated two rows at a time; the block of rows 2 and 3 raises
    # at row 3, where the x-integrals from x0 = 1/2 reach x < t - 1/4, once:
    # row 2 and then row 3 integrate one by one
    monkeypatch.setattr(solutions, "MAX_GRID_POINTS", 2 * 8 * 21)
    h = Ln(x + Rational(1, 4) - t)
    blocks = []

    def eval_grid(e, tpts, *rest):
        if e == h:
            blocks.append(tpts)
        return numeric_eval_grid(e, tpts, *rest)

    numeric_eval_grid = solutions.eval_grid
    monkeypatch.setattr(solutions, "eval_grid", eval_grid)
    phi = solutions._phi_of(FREE3, PHI0)
    g, bseries = solutions._nonlocal_integrands(FREE3, phi, h, 0.5)
    args = (g, phi, bseries, h, 0.5, 0.0, 1.0, 0.5, _ROW_T, _ROW_X)
    want = _values_outcome(slowpath.nonlocal_values, *args)
    assert want[0] == (EvalDomainError, "ln of a nonpositive value")
    assert _values_outcome(solutions._nonlocal_values, *args) == want
    assert blocks == [_ROW_T[0:2], _ROW_T[2:4]]


# exponential rates and phi in t and phi0, free of x
_time_exprs = st.one_of(exprs, poly_exprs).map(lambda e: e.xreplace({x: PHI0}))


@pytest.mark.oracle
@settings(max_examples=oracle_examples(60), deadline=None)
@given(
    _time_exprs,
    _time_exprs,
    st.one_of(_moderate, _huge),
    st.sampled_from([0.0, -0.5, 0.25]),
)
# the quadrature tail of test_quadrature_tail
@example(Exp(t**2) + PHI0**4 + PHI0**2, PHI0, 1.0, 0.0)
@example(Exp(t**2), PHI0, 1e300, 0.0)
# the rate raises at the nodes of the later time integrals
@example(Ln(t - Rational(1, 4)), t + PHI0, 0.5, 0.25)
# the rate warns on the times up to 7/8 and raises past it: each warning
# comes once, before the error
@example(Sin(3000 * t) + Ln(Rational(7, 8) - t), PHI0, 0.5, 0.5)
# phi overflows: the product raises before inf * 0 at x = 0 gives NaN
@example(Exp(Cos(Exp(PHI0 / 4)) / 4), PHI0 * (PHI0 + 1), 1e300, 0.0)
def test_p1i_values_match_slow_path_oracle(g, phi, phi0_value, tstart):
    tpts = np.linspace(tstart, tstart + 0.5, 5)
    xpts = np.linspace(0.0, 1.0, 9)
    args = (g, phi, phi0_value, tpts, xpts)
    want = _values_outcome(slowpath.p1i_values, *args)
    assert _values_outcome(solutions._p1i_values, *args) == want


class TestSolutionDocuments:
    def test_symbolic_roundtrip(self):
        s = reduce_P1Iphi(FREE3)
        doc = s.to_doc()
        assert doc["kind"] == "symbolic"
        assert doc["certificate"] == "zero-residual"
        back = Solution.from_doc(doc)
        assert same(back.expr, s.expr)
        assert back.parameters == s.parameters

    def test_numeric_document_fields(self):
        s = generate_nonlocal(FREE3, S.Zero, 0.0, 0.0, 1.0, UNIT17, phi0_value=0.5)
        doc = s.to_doc()
        assert doc["kind"] == "numeric"
        assert doc["max_residual"] == s.max_residual
        assert len(doc["grid"]["values"]) == 17
        back = Solution.from_doc(doc)
        assert back.grid == s.grid

    def test_malformed_document(self):
        with pytest.raises(InputError):
            Solution.from_doc({"expr": "x"})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_constants_refused(self, bad):
        for kw in ({"x0": bad}, {"t0": bad}, {"v0": bad}, {"phi0_value": bad}):
            args = {"x0": 0.0, "t0": 0.0, "v0": 1.0, **kw}
            with pytest.raises(InputError, match="finite"):
                generate_nonlocal(FREE3, S.Zero, grid=UNIT17, **args)
        with pytest.raises(InputError, match="finite"):
            reduce_P1Iphi(FREE3, phi0_value=bad)


class TestClosureProperties:
    def test_symmetry_action_closure(self):
        # every Lie-algebra basis element maps a solution to a solution
        alg = solve_symmetries(FREE3)
        h = certify_symbolic(FREE3, t * x**2 + x**5 / 60)
        for q in alg.basis:
            if normalize(q.eta0).num != 0:
                continue  # superposition directions need a solution slot
            s = act_symmetry(q, h, FREE3)
            assert s.certificate == "zero-residual"

    def test_transport_of_generated_solution(self):
        s = polynomial_t_solutions(FREE3, 1, top_layer=x**2)[0]
        tr = EquivTransformation(3, T=2 * t, U1=Integer(2), eps=1)
        eq2 = pushforward_equation(FREE3, tr)
        u2 = transport_solution(s.expr, tr)
        assert zero(residual_symbolic(eq2, u2))
