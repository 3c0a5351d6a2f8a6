"""Kernel: grammar, normal form, zero test, calculus, numeric evaluation."""

import math
import time

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Add, Float, Integer, Pow, Rational, S, cancel, default_sort_key, gcd

import slowpath
from conftest import exprs, fd_derivative, oracle_examples, poly_exprs, rand_points
from evolsym.errors import (
    EvalDomainError,
    InputError,
    ParseError,
    UnknownSymbolError,
    UnsupportedError,
)
from evolsym.kernel import (
    AbsV,
    Cos,
    Exp,
    Ln,
    NormalForm,
    Sgn,
    Sin,
    Verdict,
    as_exact,
    differentiate,
    eval_numeric,
    integrate,
    is_zero,
    normalize,
    parse_expr,
    substitute,
    sym,
    t,
    to_str,
    x,
)
from evolsym.kernel.normalform import _normalize, common_numerators


# --- parsing ----------------------------------------------------------------


def test_parse_precedence():
    assert parse_expr("-x^2") == -(x**2)
    assert parse_expr("x^-2") == x ** Integer(-2)
    assert parse_expr("2*x^3") == 2 * x**3
    assert parse_expr("x^2^3") == x ** Integer(8)
    assert parse_expr("1/2*x") == Rational(1, 2) * x
    assert parse_expr("x - 2 - 3") == x - 5
    assert parse_expr("x^(1/3)") == x ** Rational(1, 3)


def test_parse_functions_and_params():
    assert parse_expr("exp(2*t) + sgn(x)") == Exp(2 * t) + Sgn(x)
    c = sym("c0")
    assert parse_expr("c0*abs(t)", declared=["c0"]) == c * AbsV(t)
    with pytest.raises(UnknownSymbolError):
        parse_expr("c0*t")


@pytest.mark.parametrize(
    "bad,off",
    [
        ("x +* 2", 3),
        ("1/0", 1),
        ("x^", 2),
        ("(x+1", 4),
        ("sin x", 0),
        ("x$y", 1),
    ],
)
def test_parse_errors_carry_byte_offsets(bad, off):
    with pytest.raises(ParseError) as ei:
        parse_expr(bad)
    assert ei.value.offset == off


@pytest.mark.parametrize(
    "open_,close",
    [("(", ")"), ("exp(", ")"), ("-", ""), ("2^", ""), ("-(", ")")],
)
def test_parse_depth_limit(open_, close):
    from evolsym.kernel.parse import MAX_DEPTH

    def nested(levels):
        reps = levels // (2 if open_ == "-(" else 1)
        return open_ * reps + "x" + close * reps

    parse_expr(nested(MAX_DEPTH))
    with pytest.raises(ParseError, match=f"limit of {MAX_DEPTH} levels"):
        parse_expr(nested(MAX_DEPTH + 2))
    with pytest.raises(ParseError, match=f"limit of {MAX_DEPTH} levels"):
        parse_expr(nested(3000))


def test_parse_depth_counts_open_levels_only():
    from evolsym.kernel.parse import MAX_DEPTH

    side = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
    assert parse_expr(" + ".join([side] * 3)) == 3 * x


@pytest.mark.parametrize(
    "src,off",
    [
        ("2^(10^8)", 1),
        ("x + (-2)^(10^8)", 8),
        ("(1/3)^(10^8)", 5),
        ("(1/3)^(-10^8)", 5),
        ("2^(10^8/3)", 1),
        ("2^50001", 1),
    ],
)
def test_parse_rational_power_limit(src, off):
    from evolsym.kernel.parse import MAX_POWER_BITS

    with pytest.raises(ParseError, match=f"limit of {MAX_POWER_BITS} bits") as ei:
        parse_expr(src)
    assert ei.value.offset == off


def test_parse_rational_powers_within_the_limit():
    assert parse_expr("2^64") == Integer(2) ** 64
    assert parse_expr("(1/3)^5") == Rational(1, 243)
    assert parse_expr("(-2)^(1/3)") == Pow(Integer(-2), Rational(1, 3))
    # |exponent| times 2 bits is exactly the limit
    assert parse_expr("2^50000") == Integer(2) ** 50000
    # 0 and 1 stay small under any power
    assert parse_expr("1^(10^9) + (-1)^(10^9+1) + 0^(10^9)") == 0


def test_unknown_symbol_offset():
    with pytest.raises(UnknownSymbolError) as ei:
        parse_expr("t + sigma*x")
    assert ei.value.offset == 4


@settings(max_examples=60, deadline=None)
@given(exprs)
def test_print_parse_round_trip(e):
    s = to_str(normalize(e).as_expr())
    assert parse_expr(s) == parse_expr(to_str(normalize(parse_expr(s)).as_expr()))


# --- normal form ------------------------------------------------------------


def test_normalize_cancellation_with_domain_note():
    nf = normalize(parse_expr("(x^2 - 1)/(x - 1)"))
    assert nf.as_expr() == x + 1


def test_normalize_pythagorean():
    assert normalize(parse_expr("sin(t)^2 + cos(t)^2 - 1")).num == 0


def test_normalize_exp_merge():
    assert normalize(Exp(t) * Exp(x) * Exp(t)).as_expr() == Exp(2 * t + x)
    assert normalize(Exp(t) * Exp(-t)).as_expr() == 1


def test_normalize_keeps_exp_ln_apart():
    # exp(ln(x)) is not rewritten; the fragment has no such rule
    nf = normalize(parse_expr("exp(ln(x)) - x"))
    assert nf.num != 0


def test_normalize_abs_sgn_rules():
    assert normalize(Sgn(t) ** 2).as_expr() == 1
    assert normalize(AbsV(t) - t * Sgn(t)).num == 0
    # |t|^(-3/2) == t^(-2) sgn(t)^0 |t|^(1/2)
    nf = normalize(AbsV(t) ** Rational(-3, 2))
    assert nf.as_expr() == AbsV(t) ** Rational(1, 2) / t**2


def test_normalize_surds_over_primes():
    assert normalize(2 ** Rational(1, 2) * 3 ** Rational(1, 2) - 6 ** Rational(1, 2)).num == 0
    assert normalize(8 ** Rational(2, 3)).as_expr() == 4


def test_normalize_rejects_floats_and_poles():
    with pytest.raises(InputError):
        normalize(S(0.5) * x)
    with pytest.raises(InputError):
        normalize(x / S.Zero)


@pytest.mark.parametrize("head", ["exp", "ln", "sin", "cos", "abs", "sgn"])
def test_normalize_nested_atoms_once_per_level(head, monkeypatch):
    # each nested argument is normalized once, so the cost is linear in depth
    import evolsym.kernel.normalform as nfm

    depth = 6
    src = "x"
    for _ in range(depth):
        src = f"{head}({src})"
    e = parse_expr(src)
    calls = []
    inner = nfm.normalize

    def counting(arg):
        calls.append(arg)
        return inner(arg)

    monkeypatch.setattr(nfm, "normalize", counting)
    nf = nfm.normalize(e)
    assert len(calls) <= depth + 1
    assert nf.num == inner(nf.as_expr()).num


def test_normalize_merges_exp_arguments_inside_atoms():
    assert normalize(parse_expr("sin(exp(t + t)) - sin(exp(2*t))")).num == 0
    assert normalize(parse_expr("exp(exp(t)*exp(t)) - exp(exp(2*t))")).num == 0


@settings(max_examples=40, deadline=None)
@given(poly_exprs, poly_exprs)
def test_normalize_detects_ring_identities(a, b):
    assert normalize((a + b) ** 2 - a * a - 2 * a * b - b * b).num == 0


@settings(max_examples=60, deadline=None)
@given(exprs)
def test_normalize_cache_matches_uncached_body(e):
    # the uncached body is the oracle; NormalForm equality compares num
    # and den
    want = _normalize.__wrapped__(as_exact(e))
    assert normalize(e) == want
    # the second call is a cache hit
    assert normalize(e) == want


def test_normalize_cache_keeps_rejecting_floats():
    assert normalize(Rational(1, 2)).as_expr() == Rational(1, 2)
    with pytest.raises(InputError):
        normalize(0.5)
    with pytest.raises(InputError):
        normalize(Float("0.5"))
    # Float(2.0) hashes like Integer(2): a cached Integer(2) must not
    # answer for it
    assert normalize(Integer(2)).as_expr() == 2
    with pytest.raises(InputError):
        normalize(2.0)
    with pytest.raises(InputError):
        normalize(Float("2.0"))
    assert differentiate(Integer(2) * t, t) == 2
    with pytest.raises(InputError):
        differentiate(Float("2.0") * t, t)
    # unhashable and non-Expr inputs are refused before the cache lookup
    with pytest.raises(InputError):
        normalize([t])
    with pytest.raises(InputError):
        differentiate({t: 1}, t)


# quotients of small polynomials in t, x and one extra generator g, with a
# shared factor so that cancellation has work to do
_small_polys = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2)),
    min_size=1,
    max_size=3,
).map(lambda ts: Add(*[c * t**i * x**j for c, i, j in ts]))
_generators = st.sampled_from(
    [
        Integer(2) ** Rational(1, 2),
        Integer(3) ** Rational(1, 3),
        x ** Rational(1, 2),
        Exp(t),
        Sin(x),
        Ln(t),
        Integer(2) ** t,
    ]
)


@settings(max_examples=60, deadline=None)
@given(_small_polys, _small_polys, _small_polys, _small_polys, _small_polys, _generators)
def test_normalize_cancels_quotients(a, b, c, d, f, g):
    den = (c + d * g) * f
    if den == 0:
        return
    e = (a + b * g) * f / den
    nf = normalize(e)
    assert cancel(_sympy_heads(nf.as_expr() - e)) == 0
    # sympy's gcd is the oracle: nothing non-constant is left to cancel
    assert not gcd(nf.num, nf.den).free_symbols
    terms = [term.as_coeff_Mul() for term in Add.make_args(nf.den)]
    assert all(coeff.is_Integer for coeff, _m in terms)
    assert math.gcd(*[int(coeff) for coeff, _m in terms]) == 1
    assert min(terms, key=lambda cm: default_sort_key(cm[1]))[0] > 0


def _quotient(a, b, c, d, f, g):
    den = (c + d * g) * f
    return None if den == 0 else (a + b * g) * f / den


_quotients = st.builds(
    _quotient, _small_polys, _small_polys, _small_polys, _small_polys, _small_polys, _generators
).filter(lambda e: e is not None)


@settings(max_examples=oracle_examples(60), deadline=None)
@given(st.one_of(exprs, poly_exprs, _quotients))
def test_normalize_idempotent(e):
    # model types store normalize(e).as_expr() and consumers read it back
    # as it stands, so a stored field must be its own normal form
    nf = normalize(e)
    nf2 = normalize(nf.as_expr())
    assert nf2.num == nf.num and nf2.den == nf.den


def _outcome(fn, e):
    try:
        return fn(e)
    except (InputError, UnsupportedError) as exc:
        return type(exc), str(exc)


@settings(max_examples=oracle_examples(40), deadline=None)
@given(st.one_of(exprs, poly_exprs, _quotients))
def test_normalize_matches_slow_path_oracle(e):
    # the expand/together front half in tests/slowpath.py is the oracle
    got = _outcome(normalize, e)
    want = _outcome(slowpath.normal_form, e)
    if not isinstance(want, NormalForm):
        assert got == want
        return
    assert (got.num, got.den) == (want.num, want.den)
    assert (got.num_terms, got.den_terms) == (want.num_terms, want.den_terms)
    # the stored terms are the dicts that num and den print
    assert dict(got.num_terms) == slowpath.mono_dict(got.num)
    assert dict(got.den_terms) == slowpath.mono_dict(got.den)


@settings(max_examples=oracle_examples(40), deadline=None)
@given(st.lists(_quotients, min_size=1, max_size=3))
def test_common_numerators_oracle(es):
    # multiplying stored terms agrees with converting num and den again
    nfs = [normalize(e) for e in es]
    got = common_numerators(nfs)
    assert [dict(d) for d in got] == slowpath.common_numerators(nfs)


@pytest.mark.parametrize(
    "src,want",
    [
        # together cancels the common x + 1 before the ring sees it
        ("1/(x+1) + x/(x+1)", "1"),
        ("(x^2-1)/(x-1)", "x + 1"),
        # deep=True puts the root's base over x; it is written out again
        ("(1/x + 1)^(1/2)", "(1 + x^(-1))^(1/2)"),
    ],
)
def test_normalize_slow_path_pins(src, want):
    e = parse_expr(src)
    got, slow = normalize(e), slowpath.normal_form(e)
    assert (got.num, got.den) == (slow.num, slow.den)
    assert (got.num_terms, got.den_terms) == (slow.num_terms, slow.den_terms)
    assert to_str(got.as_expr()) == want


@pytest.mark.xfail(
    strict=True,
    reason="exp(k*a) for different k are independent ring generators (CHANGES.md, FOUND)",
)
def test_normalize_exp_powers_share_a_generator():
    got = normalize(parse_expr("(exp(2*t) - 1)/(exp(t) - 1)"))
    assert got.as_expr() == normalize(parse_expr("exp(t) + 1")).as_expr()


def test_normalize_term_budget():
    with pytest.raises(UnsupportedError, match="term budget exceeded: the 400th power"):
        normalize(parse_expr("(x + t + 1)^400"))
    with pytest.raises(UnsupportedError, match="term budget exceeded: a product"):
        normalize(parse_expr("(x + 1)^150*(t + 1)^150"))
    assert len(Add.make_args(normalize(parse_expr("(x + t + 1)^40")).num)) == 861


def test_normalize_cos_rule_term_budget():
    # cos(a)^n becomes n//2 + 1 terms in sin(a); refused before expanding
    start = time.perf_counter()
    with pytest.raises(UnsupportedError, match="term budget exceeded: the 40002th power"):
        normalize(parse_expr("cos(x)^40002"))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(UnsupportedError, match="term budget exceeded: a product"):
        normalize(parse_expr("cos(x)^400*cos(t)^400"))
    assert len(Add.make_args(normalize(parse_expr("cos(x)^200")).num)) == 101


def test_normalize_opaque_exponent_over_a_sum():
    # 2^t is a generator of its own, also when the denominator has two terms
    e = parse_expr("2^t/(x+1)")
    nf = normalize(e)
    assert nf.num == Pow(2, t) and nf.den == x + 1
    assert cancel(_sympy_heads(nf.as_expr() - e)) == 0
    assert normalize(parse_expr("(4^t - 2^t*x)/(x + 1)")).den == x + 1


@pytest.mark.parametrize(
    "bad,error",
    [
        (Integer(-2) ** x, UnsupportedError),
        (x / S.Zero, InputError),
        (1.5, InputError),
    ],
)
def test_normalize_errors_are_not_cached(bad, error):
    for _ in range(2):
        with pytest.raises(error):
            normalize(bad)


# --- zero test --------------------------------------------------------------


def test_is_zero_verdicts():
    assert is_zero(parse_expr("(x + 1)^2 - x^2 - 2*x - 1")) == Verdict.ZERO
    assert is_zero(parse_expr("x^2 + 1")) == Verdict.NONZERO
    assert is_zero(parse_expr("exp(ln(x)) - x")) == Verdict.UNKNOWN
    assert is_zero(Sin(t) ** 2 + Cos(t) ** 2 - 1) == Verdict.ZERO
    assert is_zero(Exp(t) * Exp(-t) - 1) == Verdict.ZERO
    assert is_zero(Exp(2 * t) - Exp(t) ** 2) == Verdict.ZERO


def test_is_zero_probe_finds_nonzero_transcendental():
    assert is_zero(Exp(t) - 1 - t) == Verdict.NONZERO
    assert is_zero(Sin(t) - t) == Verdict.NONZERO


def test_is_zero_assumptions_box():
    # abs(t) + t is zero only on t < 0; the default box straddles zero
    e = AbsV(t) + t
    assert is_zero(e) == Verdict.NONZERO
    assert is_zero(e, assume={"t": (-2.0, -0.5)}) == Verdict.UNKNOWN


# --- differentiate ----------------------------------------------------------


def test_differentiate_rules():
    assert differentiate(Exp(t**2), "t") == 2 * t * Exp(t**2)
    assert differentiate(Ln(t), "t") == 1 / t
    assert differentiate(Sin(2 * t), "t") == 2 * Cos(2 * t)
    assert differentiate(AbsV(t), "t") == Sgn(t)
    assert differentiate(x**5, "x", 2) == 20 * x**3
    assert differentiate(x * t, "t") == x


def test_differentiate_abs_power_chain():
    d = differentiate(AbsV(t) ** Rational(1, 2), "t")
    # (1/2)|t|^(-1/2) sgn t, canonically t^(-1) |t|^(1/2) / 2
    assert normalize(d - AbsV(t) ** Rational(1, 2) / (2 * t)).num == 0


def _raw_derivative(e, v, k):
    # the one-pass path: k raw diff passes, normalized once at the end
    return normalize(as_exact(e).diff(v, k)).as_expr()


@settings(max_examples=25, deadline=None)
@given(exprs)
def test_differentiate_stepwise_matches_raw_diff(e):
    for v in (t, x):
        for k in range(6):
            assert differentiate(e, v, k) == _raw_derivative(e, v, k)


@pytest.mark.parametrize(
    "src",
    [
        "exp(t*x)/(x + 1)",
        "ln(x^2 + 1)*t",
        "abs(x)^(1/2)*exp(t)",
        "(x^2 - 1)/(x - 1)",
        "1/(t*x + 2)^2",
        "sgn(x)*x^3",
        "abs(t + x)/x",
        "ln(x)/x",
        "exp(x)*sin(x)/(x^2 + 1)",
        "x^(3/2)/(1 - x)",
    ],
)
def test_differentiate_stepwise_matches_raw_diff_on_coefficients(src):
    e = parse_expr(src)
    for v in (t, x):
        for k in range(6):
            assert differentiate(e, v, k) == _raw_derivative(e, v, k)


def test_differentiate_order_zero_and_bad_orders():
    e = parse_expr("(x^2 - 1)/(x - 1)")
    assert differentiate(e, "x", 0) == normalize(e).as_expr()
    for n in (-1, 1.0, Integer(2), "2"):
        with pytest.raises(InputError):
            differentiate(e, "x", n)


@settings(max_examples=40, deadline=None)
@given(exprs)
def test_differentiate_matches_finite_differences(e):
    de = differentiate(e, "t")
    for pt in rand_points(["t", "x"], 2, seed=7):
        try:
            got = eval_numeric(de, pt)
            want = fd_derivative(e, "t", pt)
        except (EvalDomainError, OverflowError):
            continue
        if abs(want) > 1e6:
            continue
        assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


@settings(max_examples=40, deadline=None)
@given(exprs, exprs)
def test_differentiate_linear_and_mixed_partials(a, b):
    lhs = differentiate(a + 3 * b, "t")
    rhs = differentiate(a, "t") + 3 * differentiate(b, "t")
    assert normalize(lhs - rhs).num == 0
    tx = differentiate(differentiate(a, "t"), "x")
    xt = differentiate(differentiate(a, "x"), "t")
    assert normalize(tx - xt).num == 0


# --- substitute -------------------------------------------------------------


def test_substitute_simultaneous():
    y = sym("y")
    out = substitute(x + y, {"x": y + 1, "y": 2})
    # x -> y+1 keeps its y (one simultaneous pass), y -> 2
    assert out == y + 3


def test_substitute_swap():
    # mutual references are fine in one simultaneous pass
    y = sym("y")
    assert substitute(x + 2 * y, {"x": y, "y": x}) == y + 2 * x
    assert substitute(x**2, {"x": x + 1}) == x**2 + 2 * x + 1


# --- integrate --------------------------------------------------------------


@pytest.mark.parametrize(
    "src,var",
    [
        ("t^3 + 1", "t"),
        ("4/x", "x"),
        ("1/(x^2 - 1)", "x"),
        ("x^2/(x - 2)", "x"),
        ("t^2*exp(3*t)", "t"),
        ("(t^2 + 1)*exp(-t)*sin(2*t)", "t"),
        ("exp(2*t)*cos(3*t)", "t"),
        ("t^(1/2)", "t"),
        ("3", "t"),
        ("exp(x)/(t + 1)", "t"),
    ],
)
def test_integrate_round_trip(src, var):
    e = parse_expr(src)
    F = integrate(e, var)
    assert F is not None
    assert is_zero(differentiate(F, var) - e) == Verdict.ZERO


def test_integrate_quadrature_oracle():
    from scipy.integrate import quad

    e = parse_expr("t^2*exp(3*t)")
    F = integrate(e, "t")
    a, b = 0.2, 1.1
    want, _ = quad(lambda v: eval_numeric(e, {"t": v}), a, b)
    got = eval_numeric(F, {"t": b}) - eval_numeric(F, {"t": a})
    assert abs(got - want) < 1e-9


def test_integrate_outside_catalog_is_none():
    assert integrate(Exp(t**2), "t") is None
    assert integrate(1 / (t**2 + 1), "t") is None  # irrational/complex roots
    assert integrate(Ln(t), "t") is None
    # an atom in var over a denominator in var is not a rational function
    assert integrate(Exp(t) / (t + 1), "t") is None
    assert integrate(Sin(t) / t, "t") is None


# --- numeric evaluation -----------------------------------------------------


def test_eval_numeric_values_and_errors():
    assert eval_numeric(parse_expr("2*t + x"), {"t": 1.5, "x": 1.0}) == 4.0
    assert eval_numeric(parse_expr("t^(1/3)"), {"t": -8.0}) == -2.0
    assert eval_numeric(Sgn(t), {"t": -0.2}) == -1.0
    with pytest.raises(EvalDomainError):
        eval_numeric(Ln(t), {"t": -1.0})
    with pytest.raises(EvalDomainError):
        eval_numeric(1 / t, {"t": 1e-15})
    with pytest.raises(EvalDomainError):
        eval_numeric(x ** Rational(1, 2), {"x": -2.0})
    with pytest.raises(EvalDomainError):
        eval_numeric(x + t, {"x": 1.0})


@settings(max_examples=40, deadline=None)
@given(exprs)
@example(parse_expr("cos(exp(exp(27/4)/4))"))
def test_eval_matches_sympy_evalf(e):
    pt = {"t": 0.7, "x": 1.3}
    try:
        got = eval_numeric(e, pt)
    except EvalDomainError:
        return
    # float sin/cos of a huge argument keeps fewer correct digits than the
    # tolerance below asks for
    if any(abs(eval_numeric(a.args[0], pt)) > 1e6 for a in e.atoms(Sin, Cos)):
        return
    want = _reference_eval(e, pt)
    if want is None or abs(want) > 1e8:
        return
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


_eval_values = st.one_of(
    # zero, both sides of ZERO_TOL, negatives and values that overflow exp
    st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 3e-13, -3e-13, 1e-300, -2.0, 700.0, 1e200]),
    st.floats(-4, 4),
)
# some points leave t or x unbound
_eval_points = st.one_of(
    st.fixed_dictionaries({"t": _eval_values, "x": _eval_values}),
    st.dictionaries(st.sampled_from(["t", "x"]), _eval_values),
)
_huge_rationals = st.sampled_from(
    [Integer(10**400), Rational(-(10**400), 3), Rational(1, 10**400), Rational(10**401 + 1, 10**400)]
)
_eval_exprs = st.one_of(
    exprs,
    poly_exprs,
    _quotients,
    st.builds(lambda r, e: r + e, _huge_rationals, exprs),
    st.builds(lambda r, e: r * e, _huge_rationals, poly_exprs),
    # rational and symbolic powers of sums: roots of negatives, poles
    st.builds(
        lambda a, b, p: (a + b) ** p,
        poly_exprs,
        poly_exprs,
        st.one_of(
            st.builds(Rational, st.integers(-3, 3), st.integers(1, 4)),
            st.sampled_from([t, -x]),
        ),
    ),
    st.builds(lambda h, a: h(a), st.sampled_from([Ln, AbsV, Sgn]), st.one_of(poly_exprs, exprs)),
)


def _eval_outcome(fn, e, point):
    try:
        return repr(fn(e, point))
    except Exception as exc:  # whatever either side raises is compared
        return type(exc), str(exc)


@settings(max_examples=oracle_examples(100), deadline=None)
@given(_eval_exprs, _eval_points)
@example(Integer(10**400), {})
@example(Add(Ln(t), sympy.tan(x), evaluate=False), {"t": -1.0, "x": 1.0})
@example(Add(sympy.tan(x), Ln(t), evaluate=False), {"t": -1.0, "x": 1.0})
@example(Exp(Exp(x)), {"x": 10.0})
@example(x ** Integer(10**400), {"x": 0.5})
# fsum, not a running sum: 0.3 + 0.1 + 0.2 rounds twice
@example(Add(Rational(3, 10), t, x, evaluate=False), {"t": 0.1, "x": 0.2})
# fsum's intermediate overflow stops evaluation before ln(-t) is reached
@example(Add(x, t, Ln(-t), evaluate=False), {"t": 1e308, "x": 1e308})
# the tolerance is inclusive
@example(Ln(t), {"t": 1e-12})
@example(1 / t, {"t": -1e-12})
@example(t ** Rational(-1, 3), {"t": -1e-12})
@example(x**t, {"t": -1.0, "x": 1e-12})
def test_eval_numeric_matches_slow_path_oracle(e, point):
    # the recursive walk in tests/slowpath.py is the oracle: the same float
    # bit for bit (repr tells -0.0 from 0.0) or the same error; each input
    # is evaluated twice, so the second library call is a cache hit
    want = _eval_outcome(slowpath.eval_numeric, e, point)
    assert _eval_outcome(eval_numeric, e, point) == want
    assert _eval_outcome(eval_numeric, e, point) == want


def test_eval_numeric_errors_are_raised_at_evaluation_time():
    with pytest.raises(EvalDomainError, match="^numeric overflow$"):
        eval_numeric(Rational(10**400), {})
    with pytest.raises(EvalDomainError, match="^numeric overflow$"):
        eval_numeric(Exp(Exp(x)), {"x": 10.0})
    with pytest.raises(InputError, match="^cannot evaluate node of type tan$"):
        eval_numeric(t + sympy.tan(x), {"t": 1.0, "x": 1.0})
    # a term evaluated before the unknown head still raises its own error
    with pytest.raises(EvalDomainError, match="^ln of a nonpositive value$"):
        eval_numeric(Add(Ln(t), sympy.tan(x), evaluate=False), {"t": -1.0, "x": 1.0})
    with pytest.raises(EvalDomainError, match="^unbound symbol 't'$"):
        eval_numeric(x + t, {"x": 1.0})
    # an unbound symbol is not an error where evaluation does not read it
    assert eval_numeric(x, {"x": 2.0}) == 2.0


def test_eval_numeric_cache_safety():
    assert eval_numeric(x + 2, {"x": 1.0}) == 3.0
    # x + 2.0 hashes like x + 2 but does not equal it: the compiled x + 2
    # must not answer for it
    with pytest.raises(InputError, match="float literals"):
        eval_numeric(x + Float("2.0"), {"x": 1.0})
    # unhashable and non-Expr inputs are refused before the cache lookup
    for bad in ([t], {t: 1}, 0.5):
        with pytest.raises(InputError, match="not an expression"):
            eval_numeric(bad, {"t": 1.0})
    # errors are not cached, at validation or at evaluation
    for bad, point, error in [
        (x + Float("2.0"), {"x": 1.0}, InputError),
        (1 / t, {"t": 0.0}, EvalDomainError),
        (Rational(10**400), {}, EvalDomainError),
    ]:
        for _ in range(2):
            with pytest.raises(error):
                eval_numeric(bad, point)
    nf = normalize((t**2 + 1) / (x - 2))
    point = {"t": 0.3, "x": 1.7}
    assert repr(eval_numeric(nf, point)) == repr(eval_numeric(nf.as_expr(), point))
    assert eval_numeric(1 / t, {"t": 2.0}) == 0.5


def _sympy_heads(e):
    """e with sympy's own functions in place of the kernel's atom heads."""
    for our, theirs in [
        (Exp, sympy.exp),
        (Ln, sympy.log),
        (Sin, sympy.sin),
        (Cos, sympy.cos),
        (AbsV, sympy.Abs),
        (Sgn, sympy.sign),
    ]:
        e = e.replace(our, theirs)
    return e


def _reference_eval(e, pt):
    # independent reference: sympy's own functions, evaluated by evalf
    v = _sympy_heads(e).subs({t: pt["t"], x: pt["x"]}).evalf()
    try:
        return float(v)
    except TypeError:
        return None
