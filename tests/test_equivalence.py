"""Transformations: inversion catalog, conjugation vs closed formulas,
gauging pipeline, adjoint actions and 1d canonicalization."""

import random

import pytest
from sympy import Pow, Rational, S, Symbol

from evolsym.equivalence import (
    EquivTransformation,
    adjoint_chain,
    adjoint_general,
    adjoint_pushforward,
    canonicalize_1d,
    compose,
    compose_scalar,
    equivalence_flow,
    expand_special,
    find_particular_solution,
    gauge_all,
    gauge_inhomogeneity,
    gauge_leading,
    gauge_subleading,
    identity_transformation,
    infinitesimal_action,
    invert,
    invert_scalar,
    nth_root,
    pushforward_equation,
    recognize_scalar,
    transport_solution,
)
from evolsym.errors import InputError, UnsupportedError
from evolsym.kernel import (
    AbsV,
    Exp,
    Ln,
    Verdict,
    differentiate,
    eval_numeric,
    is_zero,
    normalize,
    substitute,
    t,
    x,
)
from evolsym.model import EvolutionEquation, ReducedEquation, VectorField, embed_reduced


def zero(e, **kw):
    return is_zero(e, **kw) is Verdict.ZERO


class TestCatalog:
    @pytest.mark.parametrize(
        "T",
        [
            2 * t + 3,
            -t / 2,
            t**3,
            -2 / t + 1,
            Pow(t, Rational(1, 2)),
            -Exp(-3 * t),
            2 * Exp(t) + 1,
            2 * Ln(3 * t + 1) + 5,
            -Ln(-t) / 3,
        ],
    )
    def test_roundtrip(self, T):
        entry = recognize_scalar(T)
        assert entry is not None
        # T(T^{-1}(t)) = t exactly, except for fractional powers whose round
        # trip holds only on the domain: there, probing must find no violation
        back = compose_scalar(T, entry.T_inverse)
        diff = back - t
        if entry.family == "power" and not entry.params[1].is_Integer:
            assert is_zero(diff, assume={"t": (0.2, 3.0)}) is not Verdict.NONZERO
        else:
            assert zero(diff)

    def test_remark_style_inverse_pair(self):
        entry = recognize_scalar(-Exp(-3 * t))
        assert zero(entry.T_inverse - (-Ln(-t) / 3))

    def test_outside_catalog(self):
        assert recognize_scalar(t + Exp(t)) is None
        with pytest.raises(UnsupportedError):
            invert_scalar(t + Exp(t))

    def test_expand_special(self):
        assert zero(expand_special(Exp(3 * Ln(x))) - x**3)
        assert zero(expand_special(Exp(Ln(x) / 2 + t)) - Pow(x, Rational(1, 2)) * Exp(t))
        assert expand_special(Ln(Exp(t**2))) == t**2

    def test_expand_special_validates_once(self, monkeypatch):
        # subtrees of a validated tree are not validated again, so the cost
        # is linear in depth
        import evolsym.equivalence as eqm

        e = x
        for _ in range(6):
            e = Exp(Ln(x) / 2 + t * e)
        calls = []
        inner = eqm.as_exact

        def counting(arg):
            calls.append(arg)
            return inner(arg)

        monkeypatch.setattr(eqm, "as_exact", counting)
        got = expand_special(e)
        assert len(calls) == 1
        # every level's exp(ln(x)/2 + ...) is folded
        assert not got.has(Ln) and got.count(Pow(x, Rational(1, 2))) == 6


class TestNthRoot:
    @pytest.mark.parametrize(
        "f,r",
        [
            (S(8), 3),
            (t**6, 3),
            (t**2, 2),
            (4 * t**2, 2),
            (27 * Exp(-3 * t), 3),
            (S(-8), 3),
            (t, 3),
            (1 + t**2, 2),
            (Pow(t, -3), 3),
        ],
    )
    def test_root_power_identity(self, f, r):
        root = nth_root(f, r)
        assert zero(Pow(root, r) - f)

    def test_known_values(self):
        assert nth_root(S(8), 3) == 2
        assert zero(nth_root(t**2, 2) - AbsV(t))
        assert zero(nth_root(27 * Exp(-3 * t), 3) - 3 * Exp(-t))

    def test_even_root_of_negative(self):
        with pytest.raises(UnsupportedError):
            nth_root(S(-4), 2)


class TestTransformation:
    def test_derived_x1(self):
        tr = EquivTransformation(3, T=2 * t)
        assert zero(tr.X1 - Pow(2, Rational(1, 3)))

    def test_even_order_sign(self):
        with pytest.raises(InputError):
            EquivTransformation(4, T=-t)
        EquivTransformation(4, T=2 * t)

    def test_eps_branch(self):
        with pytest.raises(InputError):
            EquivTransformation(3, eps=-1)
        tr = EquivTransformation(4, eps=-1)
        assert zero(tr.X1 + 1)

    def test_degenerate_rejected(self):
        with pytest.raises(InputError):
            EquivTransformation(3, T=S(5))
        with pytest.raises(InputError):
            EquivTransformation(3, U1=S.Zero)

    def test_fields_are_stored_as_normal_forms(self):
        raw = {
            "T": (t**2 - 1) / (t - 1),
            "X0": Exp(t) * (Exp(t) + 1),
            "U1": (x**2 - 1) / (x - 1),
            "U0": t + t,
            "X1": 1 / Exp(t) ** 2,
        }
        tr = EquivTransformation(3, **raw)
        for name, e in raw.items():
            assert getattr(tr, name) == normalize(e).as_expr()
        assert tr.T != raw["T"] and tr.X0 != raw["X0"]
        # the derived X1 is stored as a normal form too
        derived = EquivTransformation(4, T=raw["T"], eps=-1).X1
        assert derived == normalize(derived).as_expr()

    def test_rejections_read_the_input_as_given(self):
        bad_x = (x**2 - 1) / (x - 1) - x
        assert normalize(bad_x).as_expr() == 1
        for name in ("T", "X0", "X1"):
            kw = {name: t + bad_x} if name == "T" else {name: bad_x}
            with pytest.raises(InputError, match=f"{name} must not depend on x"):
                EquivTransformation(3, **kw)

    def test_doc_roundtrip(self):
        tr = EquivTransformation(3, T=2 * t, X0=t**2, U1=Exp(t), U0=t * x)
        doc = tr.to_doc()
        assert set(doc) == {"T", "X0", "U1", "U0", "eps"}
        back = EquivTransformation.from_doc(doc, 3)
        for slot in ("T", "X0", "U1", "U0", "X1"):
            assert zero(getattr(back, slot) - getattr(tr, slot))

    def test_doc_keeps_explicit_x1(self):
        tr = EquivTransformation(3, T=2 * t, X1=S.One)
        doc = tr.to_doc()
        assert doc["X1"] == "1"
        back = EquivTransformation.from_doc(doc, 3)
        assert zero(back.X1 - 1)


def eq7_oracle(eq, tr):
    """Closed-form transformed coefficients for x-affine maps with U1 = U1(t):
    A~^j = (X1)^j/T_t A^j (j >= 2), the A~^1 and A~^0 variants, and the
    inhomogeneity rule B~ = (U1/T_t)(B + (d_t - A^k d_k)(U0/U1))."""
    eq = embed_reduced(eq)
    r = eq.r
    Tt = differentiate(tr.T, t)
    X1, U1, U0 = tr.X1, tr.U1, tr.U0
    inv = tr.inverse_map()

    def back(e):
        return normalize(expand_special(substitute(e, inv))).as_expr()

    out = []
    for j in range(r + 1):
        if j == 0:
            v = (eq.A[0] + differentiate(U1, t) / U1) / Tt
        elif j == 1:
            v = X1 / Tt * eq.A[1] - (differentiate(X1, t) * x + differentiate(tr.X0, t)) / Tt
        else:
            v = Pow(X1, j) / Tt * eq.A[j]
        out.append(back(v))
    ratio = U0 / U1
    op = differentiate(ratio, t) - sum(
        eq.A[k] * differentiate(ratio, x, k) for k in range(r + 1)
    )
    return tuple(out), back(U1 / Tt * (eq.B + op))


def random_equation(rng, r):
    pool = [S.One, t, x, t * x, x**2]

    def poly():
        return sum(rng.choice([-2, -1, 0, 1, 2]) * m for m in pool)

    A = tuple(poly() for _ in range(r - 1)) + (poly(), S.One + S.Zero)
    A = A[:-1] + (S.One,)
    return EvolutionEquation(r, A, poly())


class TestPushforward:
    def test_identity(self):
        eq = EvolutionEquation(3, (x, t, S.Zero, S.One), t * x)
        out = pushforward_equation(eq, identity_transformation(3))
        for a, b in zip(out.A, eq.A):
            assert zero(a - b)
        assert zero(out.B - eq.B)

    def test_time_scaling_subleading(self):
        # constant A^1 = 1 under T = 2t picks up the factor 2^{-2/3}
        eq = EvolutionEquation(3, (S.Zero, S.One, S.Zero, S.One))
        out = pushforward_equation(eq, EquivTransformation(3, T=2 * t))
        assert zero(out.A[1] - Pow(2, Rational(-2, 3)))
        assert zero(out.A[3] - 1)
        assert zero(out.A[2])
        assert zero(out.A[0])

    def test_moving_shift(self):
        c = Symbol("c")
        eq = EvolutionEquation(3, (x**2, x, S.Zero, S.One))
        tr = EquivTransformation(3, X0=c * t)
        out = pushforward_equation(eq, tr)
        assert zero(out.A[1] - ((x - c * t) - c))
        assert zero(out.A[0] - (x - c * t) ** 2)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("r", [3, 4])
    def test_matches_closed_formulas(self, seed, r):
        rng = random.Random(1000 * r + seed)
        eq = random_equation(rng, r)
        T = [2 * t + 1, Exp(t), t / 2 + 3][seed % 3]
        tr = EquivTransformation(
            r, T=T, X0=rng.choice([t, t**2, S.Zero]), U1=Exp(rng.choice([t, 2 * t]))
        )
        got = pushforward_equation(eq, tr)
        want_A, want_B = eq7_oracle(eq, tr)
        for a, b in zip(got.A, want_A):
            assert zero(a - b)
        assert zero(got.B - want_B)

    def test_matches_closed_formulas_free_x1(self):
        # gauge-style transformation with X1 independent of T
        eq = EvolutionEquation(3, (x, S.One, t, 2 + t**2))
        tr = EquivTransformation(3, T=t + t**3 / 3, X1=S.One, U1=Exp(t))
        # T has no catalog inverse, so conjugate with T = t instead and
        # exercise the free-X1 path with an invertible time map
        tr = EquivTransformation(3, T=2 * t, X1=S.One, U1=Exp(t))
        got = pushforward_equation(eq, tr)
        want_A, want_B = eq7_oracle(eq, tr)
        for a, b in zip(got.A, want_A):
            assert zero(a - b)
        assert zero(got.B - want_B)

    def test_groupoid_law(self):
        eq = EvolutionEquation(3, (x, t, S.Zero, S.One), x)
        tr1 = EquivTransformation(3, T=2 * t, X0=t)
        tr2 = EquivTransformation(3, T=t + 1, U1=Exp(t))
        seq = pushforward_equation(pushforward_equation(eq, tr1), tr2)
        onego = pushforward_equation(eq, compose(tr1, tr2))
        for a, b in zip(seq.A, onego.A):
            assert zero(a - b)
        assert zero(seq.B - onego.B)

    def test_compose_examples(self):
        tr = compose(EquivTransformation(3, T=2 * t), EquivTransformation(3, T=3 * t))
        assert zero(tr.T - 6 * t)
        assert zero(tr.X1 - Pow(6, Rational(1, 3)))
        ident = compose(tr, invert(tr))
        assert zero(ident.T - t)
        assert zero(ident.X0)
        assert zero(ident.U1 - 1)

    def test_invert_examples(self):
        tr = invert(EquivTransformation(3, T=2 * t))
        assert zero(tr.T - t / 2)
        c = Symbol("c")
        tr = invert(EquivTransformation(3, X0=c))
        assert zero(tr.X0 + c)

    def test_invert_roundtrip_on_equation(self):
        eq = EvolutionEquation(3, (x**2, t, S.Zero, S.One), S.Zero)
        tr = EquivTransformation(3, T=2 * t, X0=t, U1=Exp(t))
        back = pushforward_equation(pushforward_equation(eq, tr), invert(tr))
        for a, b in zip(back.A, eq.A):
            assert zero(a - b)
        assert zero(back.B)

    def test_transport_solution(self):
        # e^{x+t} solves u_t = u_3; shifted image solves the shifted equation
        eq = EvolutionEquation(3, (S.Zero, S.Zero, S.Zero, S.One))
        c = S(2)
        tr = EquivTransformation(3, X0=c * t)
        out = pushforward_equation(eq, tr)
        h = transport_solution(Exp(x + t), tr)
        assert zero(h - Exp(x - c * t + t))
        resid = (
            differentiate(h, t)
            - sum(out.A[k] * differentiate(h, x, k) for k in range(4))
            - out.B
        )
        assert zero(resid)


class TestGauges:
    def test_leading_constant(self):
        eq = EvolutionEquation(3, (S.Zero, S.Zero, S.Zero, S(2)))
        out, rep = gauge_leading(eq)
        assert zero(out.A[3] - 1)
        assert rep.chain[0].T == 2 * t
        assert all(v is Verdict.ZERO for v in rep.residual_checks)

    def test_leading_exponential(self):
        eq = EvolutionEquation(3, (x, S.Zero, S.Zero, Exp(t)))
        out, rep = gauge_leading(eq)
        assert zero(out.A[3] - 1)
        assert zero(rep.chain[0].T - Exp(t))

    def test_leading_identity(self):
        eq = EvolutionEquation(3, (x, S.Zero, S.Zero, S.One))
        out, rep = gauge_leading(eq)
        assert out is eq and rep.chain == ()

    def test_leading_x_dependent_rejected(self):
        eq = EvolutionEquation(3, (S.Zero, S.Zero, S.Zero, 1 + x**2))
        with pytest.raises(UnsupportedError):
            gauge_leading(eq)

    def test_leading_even_order_sign(self):
        eq = EvolutionEquation(4, (S.Zero, S.Zero, S.Zero, S.Zero, S(-2)))
        with pytest.raises(UnsupportedError):
            gauge_leading(eq)

    def test_subleading_constant(self):
        eq = EvolutionEquation(3, (S.Zero, S.Zero, S(6), S.One))
        out, rep = gauge_subleading(eq)
        assert zero(out.A[2])
        assert zero(out.A[3] - 1)
        # u~ = e^{cx} u at c=2: A~^1 = 3c^2 - 12c = -12, A~^0 = 6c^2 - c^3 = 16
        assert zero(out.A[1] + 12)
        assert zero(out.A[0] - 16)

    def test_subleading_rational(self):
        eq = EvolutionEquation(4, (S.Zero, S.Zero, S.Zero, 4 / x, S.One))
        out, rep = gauge_subleading(eq)
        assert zero(out.A[3])
        U1 = rep.chain[0].U1
        assert zero(U1 - x) or zero(U1 - 1 / x)

    def test_inhomogeneity(self):
        eq = EvolutionEquation(3, (S.Zero, S.Zero, S.Zero, S.One), x)
        red, rep = gauge_inhomogeneity(eq, t * x)
        assert isinstance(red, ReducedEquation)
        assert all(zero(a) for a in red.A)
        assert rep.target_form == "reduced-homogeneous"

    def test_inhomogeneity_rejects_bad_particular(self):
        eq = EvolutionEquation(3, (S.Zero, S.Zero, S.Zero, S.One), x)
        with pytest.raises(InputError):
            gauge_inhomogeneity(eq, t * x**2)

    def test_find_particular(self):
        eq = EvolutionEquation(3, (S.Zero, S.Zero, S.Zero, S.One), x)
        w = find_particular_solution(eq, (1, 1))
        assert zero(w - t * x)
        eq0 = EvolutionEquation(3, (S.Zero, S.Zero, S.Zero, S.One))
        assert zero(find_particular_solution(eq0, (1, 1)))
        eqc = EvolutionEquation(3, (S.One, S.Zero, S.Zero, S.One), S.One)
        assert zero(find_particular_solution(eqc, (0, 0)) + 1)

    def test_find_particular_infeasible_degree(self):
        eq = EvolutionEquation(3, (S.Zero, S.Zero, S.Zero, S.One), x)
        assert find_particular_solution(eq, (0, 0)) is None

    def test_gauge_all_pipeline(self):
        eq = EvolutionEquation(3, (S.Zero, S.Zero, S(6), S(2)), S(2) * x)
        red, rep = gauge_all(eq)
        assert isinstance(red, ReducedEquation)
        assert rep.target_form == "reduced-homogeneous"
        assert all(v is Verdict.ZERO for v in rep.residual_checks)


class TestEquivalenceAlgebra:
    def test_I_action(self):
        red = ReducedEquation(3, (x, t))
        out = infinitesimal_action(("I", t**2), red)
        assert zero(out[0] - 2 * t)
        assert zero(out[1])

    def test_P_action(self):
        red = ReducedEquation(3, (x**2, x))
        out = infinitesimal_action(("P", t), red)
        assert zero(out[0] + 2 * t * x)
        assert zero(out[1] + (1 + t))

    def test_D_action_case2_invariance(self):
        # scale-invariant tuple A^l = x^{l-r}: D(t) leaves it fixed
        r = 4
        red = ReducedEquation(r, tuple(Pow(x, l - r) for l in range(r - 1)))
        out = infinitesimal_action(("D", t), red)
        assert all(zero(e) for e in out)

    @pytest.mark.parametrize(
        "gen",
        [("D", 1 + 2 * t), ("P", t**2), ("I", t)],
    )
    def test_matches_finite_flow(self, gen):
        # Richardson-extrapolated d/de at e=0 of the pushed-forward coefficients
        red = ReducedEquation(3, (t + x**2, t * x))
        want = infinitesimal_action(gen, red)
        pt = {"t": 0.3, "x": 0.7}

        def central(j, h):
            plus = pushforward_equation(red, equivalence_flow(gen, h, 3))
            minus = pushforward_equation(red, equivalence_flow(gen, -h, 3))
            return (eval_numeric(plus.A[j], pt) - eval_numeric(minus.A[j], pt)) / (
                2 * float(h)
            )

        h = Rational(1, 128)
        for j in range(2):
            rich = (4 * central(j, h / 2) - central(j, h)) / 3
            ref = eval_numeric(want[j], pt)
            assert abs(rich - ref) <= 1e-6 * max(1.0, abs(ref))


class TestAdjoint:
    def test_D_star_examples(self):
        out = adjoint_pushforward(VectorField(tau=S.One), ("D", 2 * t), 3)
        assert zero(out.tau - 2)
        out = adjoint_pushforward(VectorField(tau=t), ("D", Ln(t)), 3)
        assert zero(out.tau - 1)

    def test_I_star_example(self):
        c = Symbol("c")
        out = adjoint_pushforward(VectorField(tau=S.One), ("I", Exp(c * t)), 3)
        assert zero(out.tau - 1)
        assert zero(out.phi - c)

    def test_P_star_example(self):
        out = adjoint_pushforward(VectorField(tau=t), ("P", t**2), 3)
        assert zero(out.chi - (2 * t**2 - t**2 / 3))

    def test_X_star(self):
        out = adjoint_pushforward(VectorField(chi=t), ("X",), 4)
        assert zero(out.chi + t)
        with pytest.raises(InputError):
            adjoint_pushforward(VectorField(chi=t), ("X",), 3)

    def test_general_matches_closed_formula(self):
        # independent route: the closed pushforward formula for a group element
        r = 3
        tr = EquivTransformation(r, T=Exp(t), X0=t, U1=Exp(2 * t))
        Q = VectorField(tau=t, chi=S.One, phi=t)
        got = adjoint_general(Q, tr)
        Tt = differentiate(tr.T, t)
        inv = {t: invert_scalar(tr.T).T_inverse}

        def back(e):
            return normalize(expand_special(substitute(e, inv))).as_expr()

        tau_t = differentiate(Q.tau, t)
        want_tau = back(Tt * Q.tau)
        want_chi = back(
            nth_root(Tt, r) * Q.chi
            + Q.tau * differentiate(tr.X0, t)
            - Rational(1, r)
            * (tau_t + Q.tau * differentiate(Tt, t) / Tt)
            * tr.X0
        )
        want_phi = back(Q.phi + Q.tau * differentiate(tr.U1, t) / tr.U1)
        assert zero(got.tau - want_tau)
        assert zero(got.chi - want_chi)
        assert zero(got.phi - want_phi)

    def test_adjoint_preserves_brackets(self):
        from evolsym.model import lie_bracket

        r = 3
        step = ("D", Exp(t))
        q1 = VectorField(tau=t, chi=S.One)
        q2 = VectorField(tau=S.One, phi=t)
        lhs = adjoint_pushforward(lie_bracket(q1, q2, r), step, r)
        rhs = lie_bracket(
            adjoint_pushforward(q1, step, r), adjoint_pushforward(q2, step, r), r
        )
        for slot in ("tau", "chi", "phi"):
            assert zero(getattr(lhs, slot) - getattr(rhs, slot), assume={"t": (0.1, 3.0)})


class TestCanonicalize1d:
    def test_dilation(self):
        Q = VectorField(tau=t)
        canon, chain = canonicalize_1d(Q, 3, assume={"t": (0.1, 3.0)})
        assert zero(canon.tau - 1) and zero(canon.chi) and zero(canon.phi)
        assert chain[0][0] == "D"
        assert zero(chain[0][1] - Ln(t))

    def test_full_tau_case(self):
        Q = VectorField(tau=t, chi=S.One, phi=S.One)
        assume = {"t": (0.1, 3.0)}
        canon, chain = canonicalize_1d(Q, 3, assume=assume)
        assert zero(canon.tau - 1) and zero(canon.chi) and zero(canon.phi)
        got = adjoint_chain(Q, chain, 3)
        assert zero(got.tau - 1, assume=assume)
        assert zero(got.chi, assume=assume)
        assert zero(got.phi, assume=assume)

    def test_scaling_of_I(self):
        canon, chain = canonicalize_1d(VectorField(phi=S(5)), 3)
        assert zero(canon.phi - 1)
        assert chain == [("scale", Rational(1, 5))]

    def test_time_dependent_I(self):
        canon, chain = canonicalize_1d(VectorField(phi=2 * t), 3)
        assert zero(canon.phi - t)
        assert chain[0][0] == "D"

    def test_P_exponential(self):
        Q = VectorField(chi=Exp(t), phi=Exp(t))
        canon, chain = canonicalize_1d(Q, 3)
        assert zero(canon.tau) and zero(canon.chi - 1)
        # transported phi = (-3t)^{-1/3} on t < 0
        assume = {"t": (-3.0, -0.2)}
        want = Pow(-3 * t, Rational(-1, 3))
        assert zero(canon.phi - want, assume=assume)

    def test_P_negative_even_order(self):
        Q = VectorField(chi=S.NegativeOne)
        canon, chain = canonicalize_1d(Q, 4)
        assert zero(canon.chi - 1)
        assert ("X",) in chain

    def test_zero_field_rejected(self):
        with pytest.raises(InputError):
            canonicalize_1d(VectorField(), 3)

    def test_nonessential_rejected(self):
        with pytest.raises(UnsupportedError):
            canonicalize_1d(VectorField(eta0=x), 3)
