"""Acceptance gate: one test per release criterion.

Each test is a single pytest item so `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion:

1. the seven classification cases reproduce exactly for orders 3, 4, 5;
2. structural bounds on the essential algebra hold on 200 random equations;
3. the classification is invariant under group transport, and transported
   basis fields remain symmetries of the transformed equation;
4. generic conjugation agrees with the closed coefficient formulas;
5. the exponential time map rescales the constant-coefficient case exactly;
6. every symbolic solution carries an exact zero-residual certificate and
   the numeric paths meet their residual and convergence-order targets;
7. the two worked examples come out of the command-line interface verbatim;
8. the epsilon-derivative of each finite flow matches the generator action.
"""

import json
import math
import random
import time

import numpy as np
import pytest
from sympy import Pow, Rational, S

from evolsym.cli import main
from evolsym.equivalence import (
    EquivTransformation,
    adjoint_general,
    equivalence_flow,
    expand_special,
    infinitesimal_action,
    pushforward_equation,
)
from evolsym.errors import UnsupportedError
from evolsym.kernel import (
    AbsV,
    Exp,
    Verdict,
    differentiate,
    eval_numeric,
    is_zero,
    normalize,
    parse_expr,
    substitute,
    sym,
    t,
    x,
)
from evolsym.model import (
    EvolutionEquation,
    ReducedEquation,
    SymmetryAlgebra,
    VectorField,
    algebra_signature,
    as_reduced,
    bracket_closure_check,
    embed_reduced,
)
from evolsym.solutions import (
    act_symmetry,
    generalized_reduction,
    generate_nonlocal,
    polynomial_t_solutions,
    reduce_D1,
    reduce_P1Iphi,
    rk4_integrate,
    solve_const_ode,
)
from evolsym.symmetry import (
    AnsatzSpace,
    case_from_algebra,
    classify,
    signature_bounds_check,
    solve_symmetries,
    verify_symmetry,
)
from evolsym.verify import residual_symbolic


def zero(e):
    return is_zero(e) is Verdict.ZERO


def _pad(A, r):
    return tuple(A) + (S.Zero,) * (r - 1 - len(A))


def _fixtures():
    """One representative equation per classification case and order.

    The exponential case needs at least one nonzero constant to carry its
    three-dimensional algebra; at order 3 there is no free constant besides
    the linear-drift rate, so that rate alternates between the orders to
    cover both of its admissible values 0 and 1.
    """
    fix = {}
    for r in (3, 4, 5):
        fix[("0", r)] = ReducedEquation(r, _pad((t * x**3 + t**2 * x**2,), r))
        fix[("1", r)] = ReducedEquation(r, _pad((x**3,), r))
        fix[("2", r)] = ReducedEquation(r, tuple(Pow(x, l - r) for l in range(r - 1)))
        fix[("3", r)] = ReducedEquation(r, _pad((t * x,), r))
        fix[("4a", r)] = ReducedEquation(r, _pad((x,), r))
        fix[("5", r)] = ReducedEquation(r, (S.Zero,) * (r - 1))
    fix[("4b", 3)] = ReducedEquation(3, (x, -x))
    fix[("4b", 4)] = ReducedEquation(4, (S.Zero, -x, S.One))
    fix[("4b", 5)] = ReducedEquation(5, (x, -x, S.One, S.Zero))
    return fix


# expected (dimension, signature) per case label
_EXPECT = {
    "0": (1, (1, 0, 0)),
    "1": (2, (1, 0, 1)),
    "2": (3, (1, 0, 2)),
    "3": (2, (1, 1, 0)),
    "4a": (3, (1, 1, 1)),
    "4b": (3, (1, 1, 1)),
    "5": (4, (1, 1, 2)),
}

_POOL2 = (S.One, t, x, t * x, t**2, x**2)


def _rand_poly(rng):
    return sum(
        rng.choice((S.Zero, S.Zero, S.Zero, S.One, -S.One, S(2), -S(2), Rational(1, 2))) * m
        for m in _POOL2
    )


def test_classification_table_21_fixtures():
    # all 7 cases at orders 3, 4, 5: exact case label, dimension, signature
    started = time.time()
    failures = []
    for (case, r), eq in sorted(_fixtures().items()):
        alg = classify(eq)
        dim, sig = _EXPECT[case]
        if alg.case_label != case or alg.dim != dim or alg.signature != sig:
            failures.append(
                f"case {case} r={r}: got label {alg.case_label} "
                f"dim {alg.dim} signature {alg.signature}"
            )
    elapsed = time.time() - started
    assert not failures, "\n".join(failures)
    assert elapsed < 60.0, f"classification of 21 fixtures took {elapsed:.1f}s"


def test_signature_bounds_on_200_random_tuples():
    # polynomial coefficient tuples of degree <= 2: the essential algebra
    # always satisfies dim <= 4, k0 = 1, k1 <= 1, k2 <= 2 and closes under
    # the Lie bracket
    rng = random.Random(20260818)
    violations = []
    for i in range(200):
        r = rng.choice((3, 4, 5))
        eq = ReducedEquation(r, tuple(_rand_poly(rng) for _ in range(r - 1)))
        problems = signature_bounds_check(solve_symmetries(eq))
        if problems:
            violations.append(f"draw {i} (r={r}, A={eq.A}): " + "; ".join(problems))
    assert not violations, "\n".join(violations)


def test_classification_invariance_under_group_transport():
    # pushing a fixture forward by a group element must not change its case,
    # and the adjoint-transported basis fields must remain symmetries of the
    # transformed equation.  Time maps use perfect r-th-power slopes so the
    # transported coefficients stay inside the exact rational arithmetic.
    rng = random.Random(31415)
    fixtures = _fixtures()
    keys = sorted(fixtures)
    cache = {}
    failures = []

    def original(key):
        if key not in cache:
            cache[key] = classify(fixtures[key])
        return cache[key]

    def check(key, tr, rates):
        alg = original(key)
        red = as_reduced(pushforward_equation(fixtures[key], tr))
        got = classify(red, AnsatzSpace(Kmax=3, rates=rates))
        if (got.case_label, got.dim, got.signature) != (
            alg.case_label,
            alg.dim,
            alg.signature,
        ):
            failures.append(
                f"{key} under T={tr.T}: case {alg.case_label}->{got.case_label} "
                f"dim {alg.dim}->{got.dim}"
            )
            return
        for Q in alg.basis:
            if verify_symmetry(red, adjoint_general(Q, tr)).holds != "yes":
                failures.append(f"{key} under T={tr.T}: transported {Q.describe()} fails")

    for _ in range(50):
        key = rng.choice(keys)
        case, r = key
        a_pool = [S.One, S(2) ** r, Rational(1, 2**r)]
        if r % 2 == 1:
            a_pool.append(-(S(2) ** r))
        a = rng.choice(a_pool)
        b = rng.choice((S.Zero, S.One, -S(2)))
        # a moving shift past a coefficient pole leaves the solvable catalog
        X0 = S.Zero if case == "2" else rng.choice((S.Zero, S.One, t, t**2))
        U1 = rng.choice((S.One, S(2), Exp(t), Exp(-t)))
        eps = -1 if (r % 2 == 0 and a != 1 and rng.random() < 0.3) else 1
        tr = EquivTransformation(r, T=a * t + b, X0=X0, U1=U1, eps=eps)
        check(key, tr, (0, 1, -1, 1 / a, -1 / a))

    # exponential time maps keep polynomial transported fields exactly when
    # the source algebra has constant time parts and no space shift
    for r, U1 in ((3, S.One), (3, Exp(t)), (4, S.One), (4, Exp(t)), (5, S.One)):
        check(("1", r), EquivTransformation(r, T=Exp(t), U1=U1), (0, 1, -1))

    assert not failures, "\n".join(failures)


def _coefficient_oracle(eq, tr):
    """Closed-form transformed coefficients for x-affine maps with U1 = U1(t):
    the leading orders scale by powers of X1/T_t, the first order picks up the
    drift of the map, the zeroth order the logarithmic derivative of U1, and
    the inhomogeneity transports through the conjugated evolution operator."""
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


def test_conjugation_matches_closed_coefficient_formulas():
    # the generic change-of-variables engine and the closed formulas must
    # agree exactly on random polynomial equations
    rng = random.Random(77)
    pool = (S.One, t, x, t * x, x**2)

    def poly():
        return sum(rng.choice((-2, -1, 0, 1, 2)) * m for m in pool)

    failures = []
    for i in range(50):
        r = rng.choice((3, 4, 5))
        A = tuple(poly() for _ in range(r - 1)) + (poly(), S.One)
        eq = EvolutionEquation(r, A, poly())
        tr = EquivTransformation(
            r,
            T=rng.choice((2 * t + 1, t / 2 + 3, Exp(t), 3 * t, t - 4)),
            X0=rng.choice((S.Zero, t, t**2, 1 + 2 * t)),
            U1=rng.choice((Exp(t), Exp(2 * t), S(2), Exp(-t))),
            U0=rng.choice((S.Zero, x**2, t * x, x**3 + t**2, t)),
        )
        got = pushforward_equation(eq, tr)
        want_A, want_B = _coefficient_oracle(eq, tr)
        bad = [j for j, (p, q) in enumerate(zip(got.A, want_A)) if not zero(p - q)]
        if bad or not zero(got.B - want_B):
            failures.append(f"draw {i} (r={r}, T={tr.T}): mismatch at {bad or 'B'}")
    assert not failures, "\n".join(failures)


def test_exponential_time_map_rescales_constants():
    # T = -e^{-rt} maps the constant-coefficient exponential case onto its
    # |t|-power form; constants rescale by exact fractional powers of r and
    # the case assignment survives the trip

    # order 3, drift rate 1: full image computed by the conjugation engine
    eq3 = ReducedEquation(3, (x, -x))
    tr3 = EquivTransformation(3, T=-Exp(-3 * t))
    img3 = pushforward_equation(eq3, tr3)
    sigma_t = Rational(3) ** Rational(-4, 3)  # r^(-1/r-1) * sigma at sigma=1
    assert zero(img3.A[0] - sigma_t * Pow(-t, Rational(-4, 3)) * x)
    assert zero(img3.A[1])
    assert zero(img3.A[2])
    red3 = as_reduced(img3)
    alg3 = classify(eq3)
    basis3 = tuple(adjoint_general(Q, tr3) for Q in alg3.basis)
    assert all(verify_symmetry(red3, Q).holds == "yes" for Q in basis3)
    assert bracket_closure_check(basis3, 3) == []
    talg3 = SymmetryAlgebra(3, basis3, algebra_signature(basis3))
    assert case_from_algebra(talg3) == "4b"

    # order 4 needs even roots of |t|, which the exact scalars only support
    # through explicit absolute values, so the image is written from the
    # closed form and checked against the source-chart group formulas
    eq4 = ReducedEquation(4, (S.Zero, -x, S.One))
    tr4 = EquivTransformation(4, T=-Exp(-4 * t))
    Tt4 = differentiate(tr4.T, t)
    c2_t = Rational(4) ** Rational(-1, 2)  # r^(j/r-1) * c_j at j=2, c_2=1
    assert c2_t == Rational(1, 2)
    # A~^2 composed with T equals X1^2/T_t * A^2 with |T| = e^{-4t}
    assert zero(
        normalize(tr4.X1**2 / Tt4).as_expr() - c2_t * Exp(-4 * t) ** Rational(-1, 2)
    )
    img4 = ReducedEquation(
        4, (S.Zero, S.Zero, c2_t * Pow(AbsV(t), Rational(-1, 2)))
    )
    alg4 = classify(eq4)
    basis4 = tuple(adjoint_general(Q, tr4) for Q in alg4.basis)
    assert all(verify_symmetry(img4, Q).holds == "yes" for Q in basis4)
    got4 = classify(img4)
    assert (got4.case_label, got4.dim, got4.signature) == ("4b", 3, (1, 1, 1))

    # the drift-rate rescaling at order 4, checked in the source chart:
    # sigma/T_t = sigma~ * |T|^(-1/r-1) * X1 with sigma~ = r^(-1/r-1) sigma
    sigma4_t = Rational(4) ** Rational(-5, 4)
    lhs = normalize(1 / Tt4).as_expr()
    rhs = normalize(sigma4_t * Exp(-4 * t) ** Rational(-5, 4) * tr4.X1).as_expr()
    assert zero(lhs - rhs)


def _bind(expr, parameters):
    vals = (Rational(1, 2), Rational(1, 3), S(2), Rational(-1, 2))
    return substitute(
        expr, {sym(p): vals[i % len(vals)] for i, p in enumerate(parameters)}
    )


def test_solution_certificates_and_numeric_orders():
    # every symbolic solution the five reduction routes produce on the
    # fixture set must certify with an exactly zero residual, re-checked
    # here against the equation independently of the stored certificate;
    # approximate-root companions and the two numeric paths must meet the
    # residual bound on default grids with the expected convergence order
    fixtures = _fixtures()
    failures = []
    produced = 0

    def check_symbolic(eq, sol, tag):
        nonlocal produced
        produced += 1
        if sol.certificate != "zero-residual":
            failures.append(f"{tag}: certificate {sol.certificate!r}")
            return
        res = residual_symbolic(eq, _bind(sol.expr, sol.parameters))
        if not zero(res):
            failures.append(f"{tag}: independent residual {res}")

    def check_numeric(sol, tag):
        nonlocal produced
        produced += 1
        if sol.max_residual is None or sol.max_residual > 1e-6:
            failures.append(f"{tag}: max residual {sol.max_residual}")

    def sweep(eq, sols, tag):
        for i, s in enumerate(sols):
            if s.kind == "symbolic":
                check_symbolic(eq, s, f"{tag}[{i}]")
            else:
                check_numeric(s, f"{tag}[{i}]")

    for (case, r), eq in sorted(fixtures.items()):
        tag = f"case {case} r={r}"
        # steady reduction; exact basis where the reduced operator is constant
        try:
            ode = reduce_D1(eq)
            if ode.is_constant():
                sweep(eq, solve_const_ode(ode), f"{tag} steady")
        except UnsupportedError:
            pass
        # exponential-ansatz reduction on the linear-drift shape
        try:
            sol = reduce_P1Iphi(eq)
            check_symbolic(eq, sol, f"{tag} drift-ansatz")
        except UnsupportedError:
            pass
        if case == "5":
            sweep(eq, polynomial_t_solutions(eq, 1), f"{tag} poly-t N=1")
            sweep(eq, polynomial_t_solutions(eq, 2), f"{tag} poly-t N=2")
            for fam, kw in (
                ("D", {"lam": 1}),
                ("D", {"mu": 0, "nu": 1}),
                ("P", {"lam": 0}),
                ("P", {"mu": 0, "nu": 1}),
            ):
                gr = generalized_reduction(eq, fam, 0, **kw)
                sweep(eq, gr.solutions, f"{tag} {fam}-reduction {kw}")
            gr = generalized_reduction(eq, "P", 1)
            sweep(eq, gr.solutions, f"{tag} P-reduction N=1")
            # the symmetry action maps certified solutions to certified ones
            seed = polynomial_t_solutions(eq, 1)[0]
            for Q in (
                VectorField(tau=S.One),
                VectorField(tau=t),
                VectorField(chi=S.One),
                VectorField(phi=S.One),
            ):
                check_symbolic(eq, act_symmetry(Q, seed, eq), f"{tag} action")
        if case in ("3", "4a"):
            gr = generalized_reduction(eq, "P", 0)
            sweep(eq, gr.solutions, f"{tag} P-reduction N=0")
        if case == "4a":
            sol = reduce_P1Iphi(eq, phi0=0)
            acted = act_symmetry(
                VectorField(tau=S.One), _bind(sol.expr, sol.parameters), eq
            )
            check_symbolic(eq, acted, f"{tag} time-translation action")

    assert produced >= 60, f"only {produced} solutions produced"
    assert not failures, "\n".join(failures)

    # numeric path 1: quadrature generation from a certified seed on the
    # default grid; the verification stencil has order 6
    free3 = fixtures[("5", 3)]
    s = generate_nonlocal(
        free3, t * x**2 + x**5 / 60, 0.0, 0.0, 1.0, phi0_value=0.5
    )
    assert s.kind == "numeric"
    assert s.max_residual is not None and s.max_residual <= 1e-6
    assert s.slope is not None and abs(s.slope - 6.0) <= 0.5

    # numeric path 2: the fixed-step integrator fallback (order 4)
    gr = generalized_reduction(
        free3,
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
    sol = gr.solutions[-1]
    assert sol.kind == "numeric"
    assert sol.max_residual is not None and sol.max_residual <= 1e-6
    errs = []
    for n in (8, 16, 32):
        _, traj, _ = rk4_integrate(gr.system, [1.0, 1.0, 1.0], (0.0, 1.0), n)
        errs.append(abs(traj["v0"][-1] - math.e))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(o - 4.0) <= 0.5 for o in orders), orders


def test_worked_examples_through_cli(capsys, tmp_path):
    # the two reference solutions come out of the command line verbatim and
    # re-certify against their equations
    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        assert code == 0, out.err
        return json.loads(out.out)

    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc), encoding="utf-8")
        return str(p)

    drift = write("drift.json", {"order": 3, "form": "reduced", "coefficients": {"A0": "x"}})
    rep = run("solve", drift, "--method", "P1I", "--phi0", "0")
    assert rep["solutions"][0]["expr"] == "c0*exp(1/4*t^4 + t*x)"
    assert rep["solutions"][0]["certificate"] == "zero-residual"
    got = substitute(parse_expr(rep["solutions"][0]["expr"], declared=("c0",)), {sym("c0"): S.One})
    assert zero(got - Exp(t * x + t**4 / 4))
    assert zero(residual_symbolic(ReducedEquation(3, (x, S.Zero)), got))

    free = write("free.json", {"order": 3, "form": "reduced", "coefficients": {}})
    rep = run("solve", free, "--method", "poly-t", "--N", "1", "--top-layer", "x^2")
    assert rep["solutions"][0]["expr"] == "t*x^2 + 1/60*x^5"
    assert rep["solutions"][0]["certificate"] == "zero-residual"
    got = parse_expr(rep["solutions"][0]["expr"])
    assert zero(got - (t * x**2 + x**5 / 60))
    assert zero(residual_symbolic(ReducedEquation(3, (S.Zero, S.Zero)), got))


def test_flow_derivative_matches_generator_action():
    # for each one-parameter family (time reparametrization, space shift,
    # scaling) the numeric epsilon-derivative of the finite action on the
    # coefficients matches the infinitesimal generator action
    rng = random.Random(88)
    pool = (S.One, t, x, t * x, x**2)

    def poly():
        return sum(rng.choice((-2, -1, 0, 1, 2)) * m for m in pool)

    def tpoly():
        return sum(rng.choice((-2, -1, 0, 1, 2)) * m for m in (S.One, t, t**2))

    pt = {"t": 0.3, "x": 0.7}
    h = Rational(1, 128)
    failures = []
    for fam in ("D", "P", "I"):
        for i in range(20):
            r = rng.choice((3, 4))
            red = ReducedEquation(r, tuple(poly() for _ in range(r - 1)))
            if fam == "D":
                # the finite flow of a time reparametrization closes in the
                # scalar catalog for affine generators
                fn = rng.choice((S.One, t, S(3), 2 - t, 1 + 2 * t))
            else:
                fn = tpoly()
            gen = VectorField(**{{"D": "tau", "P": "chi", "I": "phi"}[fam]: fn})
            want = infinitesimal_action(gen, red)

            def central(j, hh):
                plus = pushforward_equation(red, equivalence_flow(gen, hh, r))
                minus = pushforward_equation(red, equivalence_flow(gen, -hh, r))
                return (
                    eval_numeric(plus.A[j], pt) - eval_numeric(minus.A[j], pt)
                ) / (2 * float(hh))

            for j in range(r - 1):
                rich = (4 * central(j, h / 2) - central(j, h)) / 3
                ref = eval_numeric(want[j], pt)
                if abs(rich - ref) > 1e-6 * max(1.0, abs(ref)):
                    failures.append(
                        f"{fam} draw {i} coefficient {j}: flow {rich} vs action {ref}"
                    )
    assert not failures, "\n".join(failures)
