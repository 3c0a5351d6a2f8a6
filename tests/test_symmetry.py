"""Determining equations, ansatz solver, and the seven-case classification."""

import random

import pytest
from sympy import Integer, Pow, Rational, S

import evolsym.symmetry as symmetry
import slowpath
from evolsym.equivalence import (
    EquivTransformation,
    equivalence_flow,
    infinitesimal_action,
    pushforward_equation,
)
from test_acceptance import _fixtures, _rand_poly

from evolsym.errors import InputError, UnsupportedError
from evolsym.kernel import Verdict, is_zero, normalize, nullspace, row_canonical, t, x
from evolsym.kernel.atoms import Exp
from evolsym.model import (
    ReducedEquation,
    SymmetryAlgebra,
    VectorField,
    _slot_coords,
    algebra_signature,
    as_reduced,
    in_span,
)
from evolsym.symmetry import (
    AnsatzSpace,
    _determining_system,
    case_from_algebra,
    classify,
    classifying_residuals,
    signature_bounds_check,
    solve_symmetries,
    verify_symmetry,
)

D = lambda f: VectorField(tau=f)  # noqa: E731
P = lambda f: VectorField(chi=f)  # noqa: E731
I = lambda f: VectorField(phi=f)  # noqa: E731
Z = lambda f: VectorField(eta0=f)  # noqa: E731


def zero(e, **kw):
    return is_zero(e, **kw) is Verdict.ZERO


def basis_matches(alg, expected):
    """Set equality of spans, element by element in both directions."""
    if alg.dim != len(expected):
        return False
    return all(in_span(q, alg.basis) is not None for q in expected) and all(
        in_span(q, expected) is not None for q in alg.basis
    )


class TestClassifyingResiduals:
    def test_free_equation_time_translation(self):
        # [TRIVIAL] every term carries A or tau_tt
        red = ReducedEquation(3, (S.Zero, S.Zero))
        res = classifying_residuals(red, VectorField(tau=t))
        assert all(zero(e) for e in res)

    def test_scale_invariant_tuple(self):
        # [DERIVED] hand expansion: R_1 = (x/3)(-2x^-3) + (2/3)x^-2 = 0 and
        # R_0 = (x/3)(-3x^-4) + x^-3 = 0
        red = ReducedEquation(3, (Pow(x, -3), Pow(x, -2)))
        res = classifying_residuals(red, VectorField(tau=t))
        assert zero(res[1])
        assert zero(res[0])

    def test_dilation_rejected_for_linear_potential(self):
        # [DERIVED] R_0 = (x/3) + x = (4/3)x
        red = ReducedEquation(3, (x, S.Zero))
        res = classifying_residuals(red, VectorField(tau=t))
        assert zero(res[0] - Rational(4, 3) * x)

    def test_x_dependence_rejected(self):
        # the field carries the guarantee that tau, chi and phi are x-free
        with pytest.raises(InputError):
            VectorField(tau=x)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_negated_infinitesimal_actions(self, seed):
        # the residual of (tau, chi, phi) is minus the sum of the coefficient
        # directions of the three equivalence generators
        rng = random.Random(1000 + seed)
        r = rng.choice([3, 4])

        def rand_poly(vars_):
            terms = [S.Zero]
            for v in vars_:
                for k in (0, 1, 2):
                    if rng.random() < 0.4:
                        terms.append(Rational(rng.randint(-3, 3), rng.randint(1, 2)) * v**k)
            return sum(terms)

        red = ReducedEquation(r, tuple(rand_poly([t, x]) for _ in range(r - 1)))
        tau, chi, phi = rand_poly([t]), rand_poly([t]), rand_poly([t])
        res = classifying_residuals(red, VectorField(tau, chi, phi))
        total = [S.Zero] * (r - 1)
        for gen in (VectorField(tau=tau), VectorField(chi=chi), VectorField(phi=phi)):
            action = infinitesimal_action(gen, red)
            total = [a + b for a, b in zip(total, action)]
        for j in range(r - 1):
            assert zero(res[j] + total[j])


class TestVerifySymmetry:
    def test_shift_on_free_equation(self):
        red = ReducedEquation(3, (S.Zero, S.Zero))
        assert verify_symmetry(red, P(S.One)).holds == "yes"

    def test_case_4a_generator(self):
        red = ReducedEquation(3, (x, S.Zero))
        rep = verify_symmetry(red, VectorField(chi=S.One, phi=t))
        assert rep.holds == "yes"

    def test_superposition_field(self):
        red = ReducedEquation(3, (S.Zero, S.Zero))
        rep = verify_symmetry(red, Z(Exp(x + t)))
        assert rep.holds == "yes"
        # the linearity residual comes last, one residual per verdict
        assert len(rep.residuals) == len(rep.verdicts) == 3
        assert zero(rep.residuals[-1])

    def test_rejection(self):
        red = ReducedEquation(3, (x, S.Zero))
        rep = verify_symmetry(red, D(t))
        assert rep.holds == "no"

    def test_superposition_rejection(self):
        red = ReducedEquation(3, (S.Zero, S.Zero))
        rep = verify_symmetry(red, Z(Exp(x - t)))
        assert rep.holds == "no"


class TestAnsatzSpace:
    def test_defaults(self):
        sp = AnsatzSpace()
        assert sp.Kmax == 3 and len(sp.rates) == 3
        fns = sp.functions()
        assert len(fns) == 12 and fns[0] == 1 and fns[1] == t

    def test_rate_zero_required(self):
        with pytest.raises(InputError):
            AnsatzSpace(2, (Integer(1),))

    def test_rates_deduplicated_and_sorted(self):
        sp = AnsatzSpace(1, (Integer(1), Integer(0), Integer(1), Integer(-2)))
        assert sp.rates == (Integer(0), Integer(-2), Integer(1))


class TestSolveSymmetries:
    def test_free_equation(self):
        red = ReducedEquation(3, (S.Zero, S.Zero))
        alg = solve_symmetries(red, AnsatzSpace(2, (Integer(0),)))
        assert alg.signature == (1, 1, 2)
        assert basis_matches(alg, (I(S.One), P(S.One), D(S.One), D(t)))

    def test_linear_potential(self):
        red = ReducedEquation(3, (x, S.Zero))
        alg = solve_symmetries(red, AnsatzSpace(2, (Integer(0),)))
        assert alg.signature == (1, 1, 1)
        assert basis_matches(
            alg, (I(S.One), D(S.One), VectorField(chi=S.One, phi=t))
        )

    def test_exponential_case(self):
        red = ReducedEquation(3, (x, -x))
        alg = solve_symmetries(red, AnsatzSpace(2, (Integer(0), Integer(1))))
        assert alg.signature == (1, 1, 1)
        assert basis_matches(
            alg,
            (I(S.One), D(S.One), VectorField(chi=Exp(t), phi=Exp(t))),
        )

    def test_parameters_must_be_instantiated(self):
        from evolsym.kernel import sym

        red = ReducedEquation(3, (sym("sigma") * x, S.Zero))
        with pytest.raises(InputError):
            solve_symmetries(red)

    def test_soundness_of_returned_basis(self):
        fixtures = [
            ReducedEquation(3, (S.Zero, S.Zero)),
            ReducedEquation(3, (x, S.Zero)),
            ReducedEquation(3, (x, -x)),
            ReducedEquation(3, (t * x, S.Zero)),
            ReducedEquation(4, (Pow(x, -4), Pow(x, -3), Pow(x, -2))),
        ]
        for red in fixtures:
            alg = solve_symmetries(red)
            for q in alg.basis:
                assert verify_symmetry(red, q).holds == "yes"

    def test_monotone_in_ansatz(self):
        red = ReducedEquation(3, (t * x, S.Zero))
        small = solve_symmetries(red, AnsatzSpace(1, (Integer(0),)))
        # Kmax=1 cannot hold phi = t^2/2, so only the kernel is found
        assert small.dim == 1
        big = solve_symmetries(red, AnsatzSpace(2, (Integer(0),)))
        assert big.dim == 2
        for q in small.basis:
            assert in_span(q, big.basis) is not None

    def test_lemma_bounds_fuzz(self):
        rng = random.Random(77)
        for _ in range(10):
            r = rng.choice([3, 4])
            A = []
            for _l in range(r - 1):
                terms = [S.Zero]
                for a in range(3):
                    for b in range(3 - a):
                        if rng.random() < 0.3:
                            terms.append(rng.randint(-2, 2) * t**a * x**b)
                A.append(sum(terms))
            alg = solve_symmetries(
                ReducedEquation(r, tuple(A)), AnsatzSpace(2, (Integer(0), Integer(1)))
            )
            assert not signature_bounds_check(alg)


    def test_size_bound(self, monkeypatch):
        red = ReducedEquation(3, (x, S.Zero))
        monkeypatch.setattr(symmetry, "MAX_CELLS", 100)
        with pytest.raises(UnsupportedError, match="size bound"):
            solve_symmetries(red)
        monkeypatch.setattr(symmetry, "MAX_CELLS", 10000)
        assert solve_symmetries(red).dim == 3

    def test_size_bound_stops_at_the_first_column_past_it(self, monkeypatch):
        # the bound is checked as each unknown's column grows the row index,
        # not after the whole order block has been built
        red = ReducedEquation(3, (x, S.Zero))
        calls = []
        real = symmetry._ansatz_derivative

        def counted(k, lam, d):
            calls.append((k, lam, d))
            return real(k, lam, d)

        monkeypatch.setattr(symmetry, "_ansatz_derivative", counted)
        monkeypatch.setattr(symmetry, "MAX_CELLS", 1)
        msg = "^classifying system exceeds the size bound; shrink the ansatz$"
        with pytest.raises(UnsupportedError, match=msg):
            solve_symmetries(red)
        # A is t-free, so tau = 1 adds no order-0 monomial and tau = t is the
        # first column past the bound: two terms each, where the whole
        # order-0 block takes 48
        assert len(calls) == 4


def per_slot_system(eq, space):
    """Reference assembly: one classifying_residuals call per unknown, each
    order's residuals put over a common denominator by _slot_coords."""
    funcs = space.functions()
    slots = [(s, f) for s in ("tau", "chi", "phi") for f in funcs]
    contribs = []
    for slot, f in slots:
        contribs.append(classifying_residuals(eq, VectorField(**{slot: f})))
    rows = []
    for j in range(eq.r - 1):
        keys, vecs = _slot_coords([c[j] for c in contribs])
        for k in range(len(keys)):
            row = [vecs[m][k] for m in range(len(slots))]
            if any(row):
                rows.append(row)
    return rows


def _oracle_cases():
    cases = [
        pytest.param(eq, None, id=f"fixture-{c}-r{r}")
        for (c, r), eq in sorted(_fixtures().items())
    ]
    rng = random.Random(20260818)
    for i in range(15):
        r = rng.choice((3, 4, 5))
        eq = ReducedEquation(r, tuple(_rand_poly(rng) for _ in range(r - 1)))
        cases.append(pytest.param(eq, None, id=f"fuzz-{i}"))
    wide = AnsatzSpace(3, tuple(Integer(q) for q in (0, 1, -1, 2)))
    halves = AnsatzSpace(3, (Integer(0), Rational(1, 2), Rational(-1, 3)))
    thirds = AnsatzSpace(3, (Integer(0), Rational(1, 3), Rational(-1, 3)))
    for name, A, space in (
        ("exp-t-x", (Exp(t) * x, S.Zero), wide),
        ("exp-2t-x", (x * Exp(2 * t), S.Zero, Exp(t)), wide),
        ("exp-minus-t", (Exp(-t) * x**2, Exp(t)), wide),
        ("exp-over-den", (Exp(t) / (x + 1), S.Zero), wide),
        # chi = e^t, phi = e^(2t)/2 is a symmetry only if e^t * e^t and
        # e^(2t) get the same monomial key
        ("exp-merge", (x * Exp(t), -x), wide),
        ("rational", (x**-4, x**-3, x**-2), None),
        ("rational-den", (x / (x**2 + 1), 1 / (x + t)), None),
        # P and Q of order 0 share monomial rows, and Q's coefficient 4/3
        # has a denominator: a scale that is not one per order adds a
        # spurious solution here
        ("order-scale", (x * t**-4, S.Zero), None),
        # rates that are not integers give Fraction entries
        ("rate-half", (x * Exp(t / 2), S.Zero), halves),
        ("rate-third", (Exp(-t / 3) * x**2, Exp(t / 3)), thirds),
        ("rate-third-poly", (t * x, S.Zero, S.Zero), thirds),
        # A^0_x = e^t shifts chi's rate-0 columns onto the rate-1 monomials,
        # so one exp coefficient joins two rate blocks
        ("exp-joins-blocks", (x * Exp(t), S.Zero), AnsatzSpace()),
    ):
        cases.append(pytest.param(ReducedEquation(len(A) + 1, A), space, id=name))
    return cases


@pytest.mark.parametrize("eq,space", _oracle_cases())
def test_assembly_matches_per_slot_oracle(eq, space):
    # the probe-and-extend system and the per-slot one have the same null
    # space, so the solved basis cannot differ; the reference side solves
    # the whole matrix at once, the library block by block
    space = space or AnsatzSpace()
    n = 3 * len(space.functions())
    want = row_canonical(slowpath.nullspace(per_slot_system(eq, space), n))
    assert want
    assert row_canonical(nullspace(_determining_system(eq, space), n)) == want


def test_assembly_normalizes_once_per_exp_factor_and_rate(monkeypatch):
    # the merged exponential depends only on a monomial's Exp factor and the
    # rate, so the number of normalize calls does not grow with the number
    # of monomials of the coefficients
    import evolsym.symmetry as sm

    def count(a0):
        calls = []

        def counting(e):
            calls.append(e)
            return normalize(e)

        monkeypatch.setattr(sm, "normalize", counting)
        _determining_system(ReducedEquation(3, (a0, S.Zero)), AnsatzSpace())
        monkeypatch.undo()
        return len(calls)

    assert count((x + t + 1) ** 6) == count((x + t + 1) ** 2)


class TestBoundsCheck:
    def test_negative_control(self):
        # five independent fields cannot be an essential algebra
        bogus = SymmetryAlgebra(
            3,
            (I(S.One), D(S.One), D(t), P(S.One), P(t)),
            algebra_signature((I(S.One), D(S.One), D(t), P(S.One), P(t))),
        )
        problems = signature_bounds_check(bogus)
        assert problems
        assert any("exceeds" in p for p in problems)

    def test_missing_kernel_detected(self):
        bogus = SymmetryAlgebra(3, (D(S.One),), algebra_signature((D(S.One),)))
        assert signature_bounds_check(bogus)


class TestClassify:
    def test_case_0(self):
        alg = classify(ReducedEquation(3, (t * x**3 + t**2 * x**2, S.Zero)))
        assert alg.case_label == "0" and alg.signature == (1, 0, 0)

    def test_case_1(self):
        alg = classify(ReducedEquation(3, (x**3, S.Zero)))
        assert alg.case_label == "1" and alg.signature == (1, 0, 1)
        assert any("case 1" in c for c in alg.caveats)

    def test_case_2(self):
        alg = classify(ReducedEquation(4, (Pow(x, -4), Pow(x, -3), Pow(x, -2))))
        assert alg.case_label == "2" and alg.signature == (1, 0, 2)

    def test_case_3(self):
        alg = classify(ReducedEquation(3, (t * x, S.Zero)))
        assert alg.case_label == "3" and alg.signature == (1, 1, 0)
        assert basis_matches(
            alg, (I(S.One), VectorField(chi=S.One, phi=t**2 / 2))
        )

    def test_case_4a(self):
        alg = classify(ReducedEquation(3, (x, S.Zero)))
        assert alg.case_label == "4a" and alg.signature == (1, 1, 1)

    def test_case_4b(self):
        alg = classify(ReducedEquation(3, (x, -x)))
        assert alg.case_label == "4b" and alg.signature == (1, 1, 1)

    def test_case_5(self):
        alg = classify(ReducedEquation(3, (S.Zero, S.Zero)))
        assert alg.case_label == "5" and alg.signature == (1, 1, 2)
        assert basis_matches(alg, (I(S.One), P(S.One), D(S.One), D(t)))

    def test_case_4b_higher_order(self):
        alg = classify(ReducedEquation(4, (x, -x, S.One)))
        assert alg.case_label == "4b"

    def test_ansatz_recorded(self):
        alg = classify(ReducedEquation(3, (S.Zero, S.Zero)))
        assert "t^k" in alg.ansatz
        assert any("ansatz" in c for c in alg.caveats)


class TestCaseFromAlgebra:
    def test_transported_exponential_case(self):
        # image of the exponential case under t -> -e^{-rt}/r style maps:
        # D-part D(t), P-part with sgn/abs data; a1 = -1/r keeps the label
        r = 3
        phi = -3 * Pow(-3 * t, Rational(-1, 3))
        basis = (I(S.One), D(t), VectorField(chi=S.One, phi=phi))
        alg = SymmetryAlgebra(r, basis, algebra_signature(basis))
        assert case_from_algebra(alg) == "4b"

    def test_transported_polynomial_case(self):
        from evolsym.equivalence import adjoint_general

        base = (I(S.One), D(S.One), VectorField(chi=S.One, phi=t))
        moved = tuple(adjoint_general(q, EquivTransformation(3, T=Exp(t))) for q in base)
        alg = SymmetryAlgebra(3, moved, algebra_signature(moved))
        assert case_from_algebra(alg) == "4a"

    def test_non_closed_span_is_unknown(self):
        basis = (I(S.One), D(t + 1), VectorField(chi=S.One, phi=t))
        alg = SymmetryAlgebra(3, basis, algebra_signature(basis))
        assert case_from_algebra(alg) == "unknown"


class TestEquivalenceInvariance:
    # the ansatz fragment has rational coefficients, so the transformations
    # here keep (T_t)^(1/r) and the induced constants rational
    @pytest.mark.parametrize(
        "tr",
        [
            equivalence_flow(VectorField(chi=t), Rational(1, 2), 3),
            equivalence_flow(VectorField(phi=2 * t), Rational(1, 2), 3),
            EquivTransformation(3, T=8 * t + 1),
            EquivTransformation(3, T=t, X0=t**2, U1=3 * Exp(t)),
        ],
    )
    def test_classification_invariant(self, tr):
        red = ReducedEquation(3, (x, S.Zero))
        before = classify(red)
        moved = as_reduced(pushforward_equation(red, tr))
        after = classify(moved)
        assert after.case_label == before.case_label
        assert after.signature == before.signature
