"""Transformations: inversion catalog, conjugation vs closed formulas,
gauging pipeline and adjoint actions."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Integer, Pow, Rational, S, Symbol

import slowpath
from conftest import (
    fresh_caches,
    number_fact_queries,
    oracle_examples,
    rand_points,
    zero_products,
)
from evolsym.cli import parse_equation_document
from evolsym.equivalence import (
    EquivTransformation,
    adjoint_general,
    compose_scalar,
    equivalence_flow,
    expand_special,
    find_particular_solution,
    gauge_all,
    gauge_inhomogeneity,
    gauge_leading,
    gauge_subleading,
    infinitesimal_action,
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
    Sin,
    Verdict,
    differentiate,
    eval_numeric,
    is_zero,
    normalize,
    substitute,
    t,
    to_str,
    x,
)
from evolsym.model import EvolutionEquation, ReducedEquation, VectorField, embed_reduced
from evolsym.verify import residual_symbolic


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
        inverse = recognize_scalar(T)
        assert inverse is not None
        # T(T^{-1}(t)) = t exactly, except for fractional powers whose round
        # trip holds only on the domain: there, probing must find no violation
        diff = compose_scalar(T, inverse) - t
        if any(not p.exp.is_Integer for p in T.atoms(Pow)):
            assert is_zero(diff, assume={"t": (0.2, 3.0)}) is not Verdict.NONZERO
        else:
            assert zero(diff)
        # the group element resolves the same inverse once, when built
        assert EquivTransformation(3, T=T).T_inverse == inverse

    def test_remark_style_inverse_pair(self):
        assert zero(recognize_scalar(-Exp(-3 * t)) - (-Ln(-t) / 3))

    def test_outside_catalog(self):
        assert recognize_scalar(t + Exp(t)) is None
        # every group element is invertible: the constructor refuses T
        with pytest.raises(UnsupportedError, match="time map outside the invertible catalog"):
            EquivTransformation(3, T=t + Exp(t))

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
        out = pushforward_equation(eq, EquivTransformation(3))
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
        onego = pushforward_equation(eq, slowpath.compose(tr1, tr2))
        for a, b in zip(seq.A, onego.A):
            assert zero(a - b)
        assert zero(seq.B - onego.B)

    def test_compose_examples(self):
        tr = slowpath.compose(EquivTransformation(3, T=2 * t), EquivTransformation(3, T=3 * t))
        assert zero(tr.T - 6 * t)
        assert zero(tr.X1 - Pow(6, Rational(1, 3)))
        ident = slowpath.compose(tr, slowpath.invert(tr))
        assert zero(ident.T - t)
        assert zero(ident.X0)
        assert zero(ident.U1 - 1)

    def test_invert_examples(self):
        tr = slowpath.invert(EquivTransformation(3, T=2 * t))
        assert zero(tr.T - t / 2)
        c = Symbol("c")
        tr = slowpath.invert(EquivTransformation(3, X0=c))
        assert zero(tr.X0 + c)
        # sgn(t)|t|^(1/3) lies outside the catalog: the inverse element
        # takes the forward map t^3 as its own inverse
        tr = slowpath.invert(EquivTransformation(3, T=t**3))
        assert zero(tr.T_inverse - t**3)
        for tv in (-1.3, 0.7):
            assert eval_numeric(tr.T, {"t": tv**3}) == pytest.approx(tv)

    def test_invert_roundtrip_on_equation(self):
        eq = EvolutionEquation(3, (x**2, t, S.Zero, S.One), S.Zero)
        tr = EquivTransformation(3, T=2 * t, X0=t, U1=Exp(t))
        back = pushforward_equation(pushforward_equation(eq, tr), slowpath.invert(tr))
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


# the transform workload's catalog
CATALOG_T = (2 * t + 1, t / 2 + 3, Exp(t), 3 * t, t - 4)
CATALOG_U1 = (Exp(t), Exp(2 * t), S(2), Exp(-t), Exp((x**2 - 2 * x) / 3))


def _outcome(eq, tr, push):
    try:
        return push(eq, tr)
    except (InputError, UnsupportedError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("U1", CATALOG_U1)
@pytest.mark.parametrize("T", CATALOG_T)
def test_pushforward_matches_slow_path_oracle_pins(T, U1):
    # on the benchmark's catalog the closed formula gives the oracle's
    # normal forms byte for byte
    eq = EvolutionEquation(3, (x**2 - t, t * x + 1, 2 * x, S.One), t * x**2)
    tr = EquivTransformation(3, T=T, X0=t, U1=U1, U0=x**2 + t)
    got = pushforward_equation(eq, tr)
    want = slowpath.pushforward_equation(eq, tr)
    assert [to_str(a) for a in got.A + (got.B,)] == [to_str(a) for a in want.A + (want.B,)]


def test_normalize_memo_matches_body_after_pushforwards(monkeypatch):
    # pushforwards with surd X1 leave results whose denominators hold
    # surds; every memo entry must still be the normal form of its key
    from collections import OrderedDict

    import evolsym.kernel.normalform as nfm

    monkeypatch.setattr(nfm, "_MEMO", OrderedDict())
    eqs = (
        EvolutionEquation(3, (x**2 - t, t * x + 1, 2 * x, S.One), t * x**2),
        EvolutionEquation(3, (Sin(x), Exp(t), x, t**2 + 1), 2 * x - Exp(t)),
    )
    for eq in eqs:
        for T in (t / 2 + 3, 2 * t + 1):
            tr = EquivTransformation(3, T=T, X0=2 * t + 1, U1=t**2 + 1, U0=Sin(x))
            pushforward_equation(eq, tr)
            slowpath.pushforward_equation(eq, tr)
    stale = [k for k, nf in list(nfm._MEMO.items()) if nf != nfm._normal_form(k)]
    assert stale == []


# a transform document of the benchmark's gauge-transform stream
_TRANSFORM_EQ = {
    "order": 3,
    "form": "general",
    "coefficients": {
        "A0": "2*x^2 + t*x + x + 2*t - 1",
        "A1": "-x^2 - t*x - x + t + 1",
        "A2": "x^2 + t*x - x + t - 2",
        "A3": "1",
        "B": "-2*x^2 - 2*t*x - x - t - 2",
    },
}
_TRANSFORM_TR = {"T": "2*t + 1", "X0": "0", "U1": "exp(t)", "U0": "0"}


def test_printing_pushforward_asks_no_number_facts(monkeypatch):
    # the printer reads each exact number's float and sign itself
    eq, params = parse_equation_document(_TRANSFORM_EQ)
    tr = EquivTransformation.from_doc(_TRANSFORM_TR, 3, params=params)
    out = pushforward_equation(embed_reduced(eq), tr)
    coefficients = out.A + (out.B,)
    asks = number_fact_queries(monkeypatch)
    texts = [to_str(a) for a in coefficients]
    assert asks == []
    # the same text from the printer on as_ordered_terms, which asks
    assert [slowpath.to_str(a) for a in coefficients] == texts
    assert asks


def test_normal_forms_of_a_pushforward_ask_no_number_facts(monkeypatch):
    # each normal form is assembled from its canonical dicts without
    # flattening, which asks a coefficient is_zero where sympy has not
    # deduced its facts yet (an Integer's are deduced on demand)
    from sympy.core.cache import clear_cache

    import evolsym.kernel.normalform as nfm

    fresh_caches(monkeypatch)
    asks = number_fact_queries(monkeypatch)
    build = nfm.dict_to_expr
    built = []

    def recording(d):
        before = len(asks)
        built.append(d)
        e = build(d)
        assert len(asks) == before
        return e

    monkeypatch.setattr(nfm, "dict_to_expr", recording)
    eq, params = parse_equation_document(_TRANSFORM_EQ)
    tr = EquivTransformation.from_doc(_TRANSFORM_TR, 3, params=params)
    pushforward_equation(embed_reduced(eq), tr)
    # the same dicts with coefficients that sympy's caches have not seen
    clear_cache()
    dicts = [{k: Rational(c.p, c.q) for k, c in d.items()} for d in built]
    coeffs = {id(c) for d in dicts for c in d.values()}
    asks.clear()
    exprs = [build(d) for d in dicts]
    assert [n for _fact, n in asks if id(n) in coeffs] == []
    # the flattening builder asks them
    assert [slowpath.dict_to_expr(d) for d in dicts] == exprs
    assert [n for _fact, n in asks if id(n) in coeffs]


def test_no_zero_products(monkeypatch):
    # 0 * expr asks expr is_finite: the equation and residual assemblies,
    # the derivative step and the reductions' solution assemblies leave
    # zero terms out instead
    from evolsym.kernel.calculus import _derivative
    from evolsym.solutions import (
        generalized_reduction,
        generate_nonlocal,
        reduce_D1,
        solve_const_ode,
    )
    from evolsym.verify import GridSpec

    eq = EvolutionEquation(3, (t * x + Rational(1, 3), S.Zero, 2 * t / 7, 1 + t**2), x**2 / 5 - t)
    products = zero_products(
        monkeypatch, {"equivalence.py", "calculus.py", "verify.py", "solutions.py"}
    )
    for tr in (
        EquivTransformation(3, T=2 * t + 3, X0=t / 3, U1=Exp(t) / 5, U0=x / 7 + t),
        # U1 and so V = 1/U1 are x-free: DV[m] = 0 for m > 0; U0 = 0
        EquivTransformation(3, T=t, U1=S(2)),
        EquivTransformation(3, T=t, U1=x + 2, U0=x),
    ):
        pushforward_equation(eq, tr)
    residual_symbolic(eq, Exp(t) * x)
    find_particular_solution(EvolutionEquation(3, (t * x, S.Zero, S.Zero, S.One), x - t), (1, 1))
    _derivative.cache_clear()
    for e in (x**3 / (x + 1), Exp(2 * t) / (Exp(t) - 1), Sin(x) * t, Integer(2) ** t * x, AbsV(x) ** Rational(1, 2)):
        for var in (t, x):
            _derivative(e, var)
    # nu != 0 pairs the layers and lam = 0 expands (phi0 + 0 i)^k; for
    # u_t = u_4 + 2 u_2 and phi0 = 0 the layers do not couple and there is
    # no exp(phi0 x); the root 0 of v_3 = 0 has no exp factor
    free = ReducedEquation(3, (S.Zero, S.Zero))
    assert len(generalized_reduction(free, "P", 1, mu=0, nu=1).solutions) == 4
    assert len(generalized_reduction(free, "P", 1, lam=0).solutions) == 2
    decoupled = ReducedEquation(4, (S.Zero, S.Zero, S(2)))
    assert len(generalized_reduction(decoupled, "P", 1, mu=0, nu=1, phi0=0).solutions) == 4
    assert generalized_reduction(free, "D", 1, lam=0, top_layer=x**2).solutions
    assert len(solve_const_ode(reduce_D1(free))) == 3
    assert products == []
    # the nonlocal boundary series leaves out A^k = 0 (A^2 at r = 4) and the
    # h_i that vanish at x0 = 0; calculus.substitute still multiplies by
    # zero through xreplace, so only solutions.py is watched here
    products = zero_products(monkeypatch, {"solutions.py"})
    grid = GridSpec((0, 1), (0, 1), 1 / 8, 1 / 12)
    generate_nonlocal(free, t * x**2 + x**5 / 60, 0.0, 0.0, 0.0, grid)
    generate_nonlocal(ReducedEquation(4, (S.Zero,) * 3), x**4 / 24 + t, 0.0, 0.0, 0.0, grid)
    assert products == []


_monomials = (S.One, t, x, t * x, x**2, Exp(t), Sin(x))
_coefficients = st.lists(
    st.tuples(st.integers(-2, 2), st.sampled_from(_monomials)), min_size=1, max_size=2
).map(lambda terms: sum((c * m for c, m in terms), S.Zero))


@settings(max_examples=oracle_examples(3), deadline=None)
@given(
    r=st.integers(3, 5),
    lower=st.lists(_coefficients, min_size=5, max_size=5),
    lead=st.sampled_from((S.One, S(2), t**2 + 1, Exp(t))),
    B=_coefficients,
    T=st.sampled_from(CATALOG_T),
    X1=st.sampled_from((None, S.One, S(3), Exp(t), t**2 + 1)),
    X0=st.sampled_from((S.Zero, t, t**2, 1 + 2 * t)),
    U1=st.sampled_from(CATALOG_U1 + (Exp(x * t), Exp(x**2 / 3), t**2 + 1, x**2 + 1)),
    U0=st.sampled_from((S.Zero, x**2, t * x, x**3 + t**2, Sin(x))),
)
def test_pushforward_matches_slow_path_oracle(r, lower, lead, B, T, X1, X0, U1, U0):
    # every coefficient agrees with the state-machine conjugation, or both
    # raise the same error.  Where the normal form is not canonical (surd
    # denominators, exp(k a) with two rates) the two can differ in form,
    # not in value
    eq = EvolutionEquation(r, tuple(lower[:r]) + (lead,), B)
    tr = EquivTransformation(r, T=T, X0=X0, U1=U1, U0=U0, X1=X1)
    got = _outcome(eq, tr, pushforward_equation)
    want = _outcome(eq, tr, slowpath.pushforward_equation)
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    for a, b in zip(got.A + (got.B,), want.A + (want.B,)):
        assert _same_value(a, b), (a, b)


def _same_value(a, b):
    if to_str(a) == to_str(b):
        return True
    try:
        return zero(a - b)
    except UnsupportedError:
        # two normal forms of one value (exp(k a) with two rates, as from
        # X1 = exp(t) with U1 = x^2 + 1) whose difference is over the term
        # budget: compare them at sample points instead
        return all(
            math.isclose(eval_numeric(a, p), eval_numeric(b, p), rel_tol=1e-9)
            for p in rand_points(["t", "x"], 4, seed=0)
        )


# time maps whose slope is an exact r-th power, up to the factor r in
# -exp(-r t); the even roots of t^r are |t|
def _catalog_T(r):
    return (t - 4, 2**r * t + 1, Exp(r * t) / r, -Exp(-r * t), t ** (r + 1) / (r + 1))


def _adjoint_outcome(push, *args):
    try:
        return push(*args)
    except (InputError, UnsupportedError) as exc:
        return type(exc)


def _assert_same_field(push, oracle, *args):
    got = _adjoint_outcome(push, *args)
    want = _adjoint_outcome(oracle, *args)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    for slot in ("tau", "chi", "phi", "eta0"):
        a, b = getattr(got, slot), getattr(want, slot)
        assert to_str(a) == to_str(b) or zero(a - b), (slot, a, b)


_t_functions = (S.Zero, S.One, t, t**2 + 1, Exp(t))


@settings(max_examples=oracle_examples(10), deadline=None)
@given(
    r=st.integers(3, 5),
    k=st.integers(0, 4),
    X0=st.sampled_from((S.Zero, t, t**2, 1 + 2 * t, Exp(-t))),
    U1=st.sampled_from((S.One, S(2), Exp(t), Exp(-2 * t), t**2 + 1)),
    reflect=st.booleans(),
    tau=st.sampled_from(_t_functions),
    chi=st.sampled_from(_t_functions),
    phi=st.sampled_from(_t_functions),
    eta0=st.sampled_from((x, x * Exp(t), x**2 + t, Exp(x + t), S.Zero)),
    kind=st.sampled_from("DPIX"),
)
def test_adjoint_matches_slow_path_oracle(r, k, X0, U1, reflect, tau, chi, phi, eta0, kind):
    # the closed formula agrees with the elementary chain I, P, X, D for a
    # group element, and with the per-kind formula for the element of one
    # step of it
    T = _catalog_T(r)[k]
    Q = VectorField(tau, chi, phi, eta0)
    try:
        tr = EquivTransformation(r, T=T, X0=X0, U1=U1, eps=-1 if reflect and r % 2 == 0 else 1)
    except InputError:
        pass
    else:
        _assert_same_field(adjoint_general, slowpath.adjoint_general, Q, tr)
    step = {"D": ("D", T), "P": ("P", X0), "I": ("I", U1), "X": ("X",)}[kind]
    _assert_same_field(_push_step, slowpath.adjoint_pushforward, Q, step, r)


def _push_step(Q, step, r):
    # the group element of one elementary step, built where the oracle's
    # refusals of the same step are caught
    if step[0] == "X":
        tr = EquivTransformation(r, eps=-1)
    else:
        tr = EquivTransformation(r, **{{"D": "T", "P": "X0", "I": "U1"}[step[0]]: step[1]})
    return adjoint_general(Q, tr)


class TestGauges:
    def test_leading_constant(self):
        eq = EvolutionEquation(3, (S.Zero, S.Zero, S.Zero, S(2)))
        out, chain = gauge_leading(eq)
        assert zero(out.A[3] - 1)
        assert chain[0].T == 2 * t

    def test_leading_exponential(self):
        eq = EvolutionEquation(3, (x, S.Zero, S.Zero, Exp(t)))
        out, chain = gauge_leading(eq)
        assert zero(out.A[3] - 1)
        assert zero(chain[0].T - Exp(t))

    def test_leading_identity(self):
        eq = EvolutionEquation(3, (x, S.Zero, S.Zero, S.One))
        out, chain = gauge_leading(eq)
        assert out is eq and chain == ()

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
        out, chain = gauge_subleading(eq)
        assert zero(out.A[2])
        assert zero(out.A[3] - 1)
        # u~ = e^{cx} u at c=2: A~^1 = 3c^2 - 12c = -12, A~^0 = 6c^2 - c^3 = 16
        assert zero(out.A[1] + 12)
        assert zero(out.A[0] - 16)

    def test_subleading_rational(self):
        eq = EvolutionEquation(4, (S.Zero, S.Zero, S.Zero, 4 / x, S.One))
        out, chain = gauge_subleading(eq)
        assert zero(out.A[3])
        U1 = chain[0].U1
        assert zero(U1 - x) or zero(U1 - 1 / x)

    def test_inhomogeneity(self):
        eq = EvolutionEquation(3, (S.Zero, S.Zero, S.Zero, S.One), x)
        red, chain = gauge_inhomogeneity(eq, t * x)
        assert isinstance(red, ReducedEquation)
        assert all(zero(a) for a in red.A)
        assert len(chain) == 1 and zero(chain[0].U0 + t * x)
        # the shift, pushed, gives the same A^k and B = 0
        out = pushforward_equation(eq, chain[0])
        assert zero(out.B) and all(zero(a - b) for a, b in zip(out.A, eq.A))

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
        red, _chain = gauge_all(eq)
        assert isinstance(red, ReducedEquation)


# gauge_all inputs u_t = A^k u_k + B with B = w_t - A^k w_k, and whether w is
# passed or searched for
_W3 = x**3 + t * x + 1
_GAUGE_INPUTS = [
    ((1 + x, -1 + 2 * x, 2 + x, S(2)), _W3, False),
    ((1 + x, -1 + 2 * x, 2 + x, S(2)), _W3, True),
    ((Rational(1, 2) - x, 2 * x, 1 + x, -1 + x, S(3)), -(x**3) + 2 * t * x - 1, False),
    ((x, S.Zero, 3 * x, Exp(t)), _W3, True),
    ((S.One, t, S.Zero, S(-1)), t * x**2, False),
]
# reduced coefficients and chain documents as printed when the particular
# solution was transported by the composition of the leading and subleading
# steps; step-by-step transport must print the same.  The last step's U0 is minus
# the transported solution
_GAUGE_PINS = [
    (
        ["1/108*x^3 - 1/9*x^2 + 13/36*x + 20/27", "-1/12*x^2 + 2/3*x - 4/3"],
        [
            {"T": "2*t", "U0": "0", "U1": "1", "X0": "0", "X1": "1", "eps": 1},
            {"T": "t", "U0": "0", "U1": "exp(1/12*x^2 + 1/3*x)", "X0": "0", "eps": 1},
            {
                "T": "t",
                "U0": "-1/2*t*x*exp(1/12*x^2 + 1/3*x)"
                " - x^3*exp(1/12*x^2 + 1/3*x) - exp(1/12*x^2 + 1/3*x)",
                "U1": "1",
                "X0": "0",
                "eps": 1,
            },
        ],
    ),
    (
        ["1/108*x^3 - 1/9*x^2 + 13/36*x + 20/27", "-1/12*x^2 + 2/3*x - 4/3"],
        [
            {"T": "2*t", "U0": "0", "U1": "1", "X0": "0", "X1": "1", "eps": 1},
            {"T": "t", "U0": "0", "U1": "exp(1/12*x^2 + 1/3*x)", "X0": "0", "eps": 1},
            {
                "T": "t",
                "U0": "-1/2*t*x*exp(1/12*x^2 + 1/3*x)"
                " - x^3*exp(1/12*x^2 + 1/3*x) - exp(1/12*x^2 + 1/3*x)",
                "U1": "1",
                "X0": "0",
                "eps": 1,
            },
        ],
    ),
    (
        [
            "-1/6912*x^4 + 5/1728*x^3 - 191/3456*x^2 - 181/576*x + 127/768",
            "1/216*x^3 - 5/72*x^2 + 49/72*x + 11/216",
            "-1/24*x^2 + 5/12*x - 5/24",
        ],
        [
            {"T": "3*t", "U0": "0", "U1": "1", "X0": "0", "X1": "1", "eps": 1},
            {"T": "t", "U0": "0", "U1": "exp(1/24*x^2 - 1/12*x)", "X0": "0", "eps": 1},
            {
                "T": "t",
                "U0": "-2/3*t*x*exp(1/24*x^2 - 1/12*x)"
                " + x^3*exp(1/24*x^2 - 1/12*x) + exp(1/24*x^2 - 1/12*x)",
                "U1": "1",
                "X0": "0",
                "eps": 1,
            },
        ],
    ),
    (
        ["t^(-3)*(t^2*x - 1/2*t*x^2 + 2*x^3)", "t^(-2)*(-3*t - 3*x^2)"],
        [
            {"T": "exp(t)", "U0": "0", "U1": "1", "X0": "0", "X1": "1", "eps": 1},
            {"T": "t", "U0": "0", "U1": "exp(1/2*t^(-1)*x^2)", "X0": "0", "eps": 1},
            {
                "T": "t",
                "U0": "-x^3*exp(1/2*t^(-1)*x^2) - x*exp(1/2*t^(-1)*x^2)*ln(t)"
                " - exp(1/2*t^(-1)*x^2)",
                "U1": "1",
                "X0": "0",
                "eps": 1,
            },
        ],
    ),
    (
        ["-1", "t"],
        [
            {"T": "-t", "U0": "0", "U1": "1", "X0": "0", "X1": "1", "eps": 1},
            {"T": "t", "U0": "t*x^2", "U1": "1", "X0": "0", "eps": 1},
        ],
    ),
]


@pytest.mark.parametrize("case,pin", list(zip(_GAUGE_INPUTS, _GAUGE_PINS)))
def test_gauge_report_and_transported_particular_pinned(case, pin):
    A, w, explicit = case
    r = len(A) - 1
    B = differentiate(w, t) - sum(A[k] * differentiate(w, x, k) for k in range(r + 1))
    red, chain = gauge_all(EvolutionEquation(r, A, B), particular=w if explicit else None)
    assert ([to_str(a) for a in red.A], [step.to_doc() for step in chain]) == pin


class TestEquivalenceAlgebra:
    def test_I_action(self):
        red = ReducedEquation(3, (x, t))
        out = infinitesimal_action(VectorField(phi=t**2), red)
        assert zero(out[0] - 2 * t)
        assert zero(out[1])

    def test_P_action(self):
        red = ReducedEquation(3, (x**2, x))
        out = infinitesimal_action(VectorField(chi=t), red)
        assert zero(out[0] + 2 * t * x)
        assert zero(out[1] + (1 + t))

    def test_D_action_case2_invariance(self):
        # scale-invariant tuple A^l = x^{l-r}: D(t) leaves it fixed
        r = 4
        red = ReducedEquation(r, tuple(Pow(x, l - r) for l in range(r - 1)))
        out = infinitesimal_action(VectorField(tau=t), red)
        assert all(zero(e) for e in out)

    def test_nonessential_generator_rejected(self):
        with pytest.raises(InputError):
            infinitesimal_action(VectorField(phi=t, eta0=x), ReducedEquation(3, (x, t)))

    @pytest.mark.parametrize(
        "gen",
        [VectorField(), VectorField(tau=S.One, chi=t), VectorField(phi=t, eta0=x)],
    )
    def test_flow_needs_one_generator(self, gen):
        with pytest.raises(InputError):
            equivalence_flow(gen, Rational(1, 2), 3)

    @pytest.mark.parametrize(
        "gen",
        [VectorField(tau=1 + 2 * t), VectorField(chi=t**2), VectorField(phi=t)],
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
        out = adjoint_general(VectorField(tau=S.One), EquivTransformation(3, T=2 * t))
        assert zero(out.tau - 2)
        out = adjoint_general(VectorField(tau=t), EquivTransformation(3, T=Ln(t)))
        assert zero(out.tau - 1)

    def test_I_star_example(self):
        c = Symbol("c")
        out = adjoint_general(VectorField(tau=S.One), EquivTransformation(3, U1=Exp(c * t)))
        assert zero(out.tau - 1)
        assert zero(out.phi - c)

    def test_P_star_example(self):
        out = adjoint_general(VectorField(tau=t), EquivTransformation(3, X0=t**2))
        assert zero(out.chi - (2 * t**2 - t**2 / 3))

    def test_X_star(self):
        out = adjoint_general(VectorField(chi=t), EquivTransformation(4, eps=-1))
        assert zero(out.chi + t)
        with pytest.raises(InputError):
            EquivTransformation(3, eps=-1)

    def test_general_matches_closed_formula(self):
        # independent route: the closed pushforward formula for a group element
        r = 3
        tr = EquivTransformation(r, T=Exp(t), X0=t, U1=Exp(2 * t))
        Q = VectorField(tau=t, chi=S.One, phi=t)
        got = adjoint_general(Q, tr)
        Tt = differentiate(tr.T, t)
        inv = {t: recognize_scalar(tr.T)}

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
        tr = EquivTransformation(r, T=Exp(t))
        q1 = VectorField(tau=t, chi=S.One)
        q2 = VectorField(tau=S.One, phi=t)
        lhs = adjoint_general(lie_bracket(q1, q2, r), tr)
        rhs = lie_bracket(adjoint_general(q1, tr), adjoint_general(q2, tr), r)
        for slot in ("tau", "chi", "phi"):
            assert zero(getattr(lhs, slot) - getattr(rhs, slot), assume={"t": (0.1, 3.0)})
