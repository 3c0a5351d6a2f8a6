"""Vector-field algebra: brackets against a derivation oracle, signatures."""

import random

import pytest
from sympy import Rational, S, Symbol, symbols

from evolsym.errors import InputError
from evolsym.kernel import Verdict, differentiate, is_zero, normalize, t, x
from evolsym.model import (
    EvolutionEquation,
    ReducedEquation,
    SymmetryAlgebra,
    VectorField,
    algebra_signature,
    bracket_closure_check,
    embed_reduced,
    in_span,
    lie_bracket,
)

u = Symbol("u")


def oracle_bracket(q1, q2, r):
    """Commutator computed from scratch as a commutator of derivations.

    The field with data (tau, chi, phi, eta) acts on functions of (t, x, u) as
    tau d/dt + ((1/r) tau' x + chi) d/dx + (phi u + eta) d/du.  The bracket of
    two such fields is again of this shape; we recover the data by reading off
    the x- and u-structure of the component functions.
    """
    rr = Rational(1, r)

    def comps(q):
        xi = rr * differentiate(q.tau, t) * x + q.chi
        return q.tau, xi, q.phi * u + q.eta0

    def apply(q, f):
        tau, xi, up = comps(q)
        return (
            tau * differentiate(f, t)
            + xi * differentiate(f, x)
            + up * differentiate(f, u)
        )

    t1, x1, u1 = comps(q1)
    t2, x2, u2 = comps(q2)
    bt = normalize(apply(q1, t2) - apply(q2, t1)).as_expr()
    bx = normalize(apply(q1, x2) - apply(q2, x1)).as_expr()
    bu = normalize(apply(q1, u2) - apply(q2, u1)).as_expr()
    # decompose: bx = (1/r) bt' x + chi, bu = phi u + eta
    chi = normalize(bx - rr * differentiate(bt, t) * x).as_expr()
    assert x not in chi.free_symbols, "bracket left the D+P shape"
    phi = normalize(differentiate(bu, u)).as_expr()
    assert u not in phi.free_symbols, "u-component not linear in u"
    eta = normalize(bu.subs(u, 0)).as_expr()
    return VectorField(bt, chi, phi, eta)


def fields_equal(a, b):
    return all(
        is_zero(getattr(a, s) - getattr(b, s)) is Verdict.ZERO
        for s in ("tau", "chi", "phi", "eta0")
    )


D = lambda f: VectorField(tau=f)  # noqa: E731
P = lambda f: VectorField(chi=f)  # noqa: E731
I = lambda f: VectorField(phi=f)  # noqa: E731
Z = lambda f: VectorField(eta0=f)  # noqa: E731


class TestBracketTable:
    # [TRIVIAL] closed-form commutation relations of the standard generators

    def test_DD(self):
        got = lie_bracket(D(S.One), D(t), 3)
        assert fields_equal(got, D(S.One))

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_DP(self, r):
        got = lie_bracket(D(t), P(S.One), r)
        assert fields_equal(got, P(Rational(-1, r)))

    def test_DI(self):
        got = lie_bracket(D(t**2), I(t), 3)
        assert fields_equal(got, I(t**2))

    def test_PI_commute(self):
        got = lie_bracket(P(t), I(t**3), 4)
        assert fields_equal(got, VectorField())

    def test_DZ(self):
        got = lie_bracket(D(t), Z(t * x**2), 3)
        want = Z(t * x**2 + Rational(2, 3) * t * x**2)
        assert fields_equal(got, want)

    def test_PZ(self):
        got = lie_bracket(P(t), Z(x**3), 5)
        assert fields_equal(got, Z(3 * t * x**2))

    def test_IZ(self):
        got = lie_bracket(I(t), Z(x), 3)
        assert fields_equal(got, Z(-t * x))


def random_field(rng, with_eta=False):
    def poly(var_pool, deg=2):
        return sum(
            rng.choice([-2, -1, 0, 0, 1, 2, Rational(1, 2)]) * m
            for m in var_pool[: deg + 1]
        )

    tau = poly([S.One, t, t**2])
    chi = poly([S.One, t, t**2])
    phi = poly([S.One, t, t**2])
    eta = poly([S.One, t, x, t * x, x**2]) if with_eta else S.Zero
    return VectorField(tau, chi, phi, eta)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("r", [3, 4])
def test_bracket_matches_derivation_oracle(seed, r):
    # [DERIVED] closed-form bracket vs. an independent derivation commutator
    rng = random.Random(seed)
    q1 = random_field(rng, with_eta=(seed % 2 == 0))
    q2 = random_field(rng, with_eta=True)
    assert fields_equal(lie_bracket(q1, q2, r), oracle_bracket(q1, q2, r))


@pytest.mark.parametrize("seed", range(4))
def test_bracket_antisymmetry_and_jacobi(seed):
    rng = random.Random(100 + seed)
    a, b, c = (random_field(rng) for _ in range(3))
    r = 3
    ab = lie_bracket(a, b, r)
    ba = lie_bracket(b, a, r)
    assert fields_equal(ab, VectorField(-ba.tau, -ba.chi, -ba.phi, -ba.eta0))
    jac = VectorField(
        *[
            normalize(
                getattr(lie_bracket(a, lie_bracket(b, c, r), r), s)
                + getattr(lie_bracket(b, lie_bracket(c, a, r), r), s)
                + getattr(lie_bracket(c, lie_bracket(a, b, r), r), s)
            ).as_expr()
            for s in ("tau", "chi", "phi", "eta0")
        ]
    )
    assert fields_equal(jac, VectorField())


class TestSignature:
    def test_full_case(self):
        basis = [I(S.One), D(S.One), D(t), P(S.One)]
        assert algebra_signature(basis) == (1, 1, 2)

    def test_kernel_only(self):
        assert algebra_signature([I(S.One)]) == (1, 0, 0)

    def test_mixed_components_counted_once(self):
        # P(1) + I(t) contributes to the P-layer, not the I-layer
        basis = [I(S.One), VectorField(chi=S.One, phi=t)]
        assert algebra_signature(basis) == (1, 1, 0)

    def test_rational_functions(self):
        basis = [I(S.One), VectorField(tau=1 / t, chi=1 / (t + 1))]
        assert algebra_signature(basis) == (1, 0, 1)

    def test_dependent_basis_rejected(self):
        with pytest.raises(InputError):
            algebra_signature([I(S.One), I(S(2))])

    def test_dependence_across_slots_detected(self):
        q = VectorField(tau=t, chi=S.One)
        q2 = VectorField(tau=2 * t, chi=S(2))
        with pytest.raises(InputError):
            algebra_signature([q, q2])

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_under_extension(self, seed):
        rng = random.Random(200 + seed)
        big = [I(S.One), random_field(rng), random_field(rng)]
        try:
            s_big = algebra_signature(big)
        except InputError:
            return
        s_small = algebra_signature(big[:2])
        assert all(a <= b for a, b in zip(s_small, s_big))
        assert sum(s_big) == 3 and sum(s_small) == 2


class TestSpanAndClosure:
    def test_in_span_coordinates(self):
        basis = [D(S.One), P(t)]
        coords = in_span(VectorField(tau=3, chi=-2 * t), basis)
        assert coords == [3, -2]

    def test_not_in_span(self):
        assert in_span(I(S.One), [D(S.One), P(t)]) is None

    def test_closure_of_case5_algebra(self):
        basis = [I(S.One), D(S.One), D(t), P(S.One)]
        assert bracket_closure_check(basis, 3) == []

    def test_closure_failure_reported(self):
        # [D(t^2), D(1)] = D(-2t) escapes span{D(1), D(t^2)}
        bad = bracket_closure_check([D(S.One), D(t**2)], 3)
        assert bad == [(0, 1)]


class TestEquationModel:
    def test_validation(self):
        with pytest.raises(InputError):
            EvolutionEquation(2, (S.Zero, S.Zero, S.One))
        with pytest.raises(InputError):
            EvolutionEquation(3, (S.Zero, S.One))
        with pytest.raises(InputError):
            EvolutionEquation(3, (S.Zero, S.Zero, S.Zero, S.Zero))
        with pytest.raises(InputError):
            EvolutionEquation(3, (Symbol("u"), S.Zero, S.Zero, S.One))

    def test_fields_are_stored_as_normal_forms(self):
        from evolsym.kernel import Exp

        raw = (
            (x**2 - 1) / (x - 1),
            t + t,
            Exp(t) * (Exp(t) + 1),
            (t**2 - 1) / (t - 1),
        )
        assert normalize(raw[0]).as_expr() != raw[0]
        assert normalize(raw[2]).as_expr() != raw[2]
        want = tuple(normalize(e).as_expr() for e in raw)
        eq = EvolutionEquation(3, raw, raw[0] * raw[2])
        assert eq.A == want
        assert eq.B == normalize(raw[0] * raw[2]).as_expr()
        assert ReducedEquation(4, raw[:3]).A == want[:3]
        q = VectorField(tau=raw[3], chi=raw[2], phi=raw[1], eta0=raw[0])
        assert (q.tau, q.chi, q.phi, q.eta0) == (want[3], want[2], want[1], want[0])

    def test_rejections_read_the_input_as_given(self):
        # the bad variable cancels in the normal form, and is still rejected
        bad_u = (u**2 - 1) / (u - 1) - u
        assert normalize(bad_u).as_expr() == 1
        with pytest.raises(InputError, match="t, x and parameters only"):
            EvolutionEquation(3, (bad_u, S.Zero, S.Zero, S.One))
        with pytest.raises(InputError, match="t, x and parameters only"):
            EvolutionEquation(3, (S.Zero, S.Zero, S.Zero, S.One), bad_u)
        with pytest.raises(InputError, match="t, x and parameters only"):
            ReducedEquation(3, (bad_u, S.Zero))
        bad_x = (x**2 - 1) / (x - 1) - x
        assert normalize(bad_x).as_expr() == 1
        for name in ("tau", "chi", "phi"):
            with pytest.raises(InputError, match=f"{name} must not depend on x"):
                VectorField(**{name: bad_x})

    def test_leading_coefficient_certificates(self):
        # a parameter that is generically nonzero is accepted
        a = symbols("a")
        EvolutionEquation(3, (S.Zero, S.Zero, S.Zero, a - 1))
        # an expression the zero test cannot certify is rejected
        from evolsym.kernel import Exp, Ln

        with pytest.raises(InputError):
            EvolutionEquation(3, (S.Zero, S.Zero, S.Zero, Exp(Ln(x)) - x))

    def test_embed_reduced(self):
        red = ReducedEquation(4, (x, t, S.Zero))
        eq = embed_reduced(red)
        assert eq.r == 4
        assert eq.A == (x, t, S.Zero, S.Zero, S.One)
        assert eq.B == 0
        assert embed_reduced(eq) is eq

    def test_vector_field_rejects_x_dependence(self):
        with pytest.raises(InputError):
            VectorField(tau=x)
        VectorField(eta0=x**2)  # eta may depend on x

    def test_describe(self):
        q = VectorField(tau=t, chi=S.Zero, phi=Rational(1, 2) * t**2)
        assert q.describe() == "D(t) + I(1/2*t^2)"
        assert VectorField().describe() == "0"

    def test_symmetry_algebra_container(self):
        alg = SymmetryAlgebra(3, (I(S.One),), (1, 0, 0), "0")
        assert alg.dim == 1
