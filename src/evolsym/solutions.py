"""Exact-solution machinery for the reduced equations u_t = u_r + A^l u_l.

Lie reductions for the time translation D(1) and the shifted space
translation P(1)+I(phi), the symmetry action on known solutions, families
polynomial in t, generalized reductions built from polynomials of the
recursion operator of a Lie symmetry, and a nonlocal generation formula.
Every returned solution carries a residual certificate: symbolic solutions
must pass the exact residual oracle, numeric ones report a max-norm
finite-difference residual.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from sympy import Add, Expr, Integer, Pow, Rational, S, Symbol

from .errors import EvalDomainError, InputError, InternalError, UnsupportedError
from .kernel import (
    Cos,
    Exp,
    Sin,
    Verdict,
    as_exact,
    derivative_terms,
    differentiate,
    eval_grid,
    eval_numeric,
    integrate,
    is_zero,
    normalize,
    numeric_function,
    read_expr,
    substitute,
    sym,
    t,
    to_fraction,
    to_str,
    x,
)
from .kernel.normalform import exp_polynomial
from .kernel.polyroot import cluster_roots, numeric_roots, rational_roots, root_multiplicity
from .kernel.quadpack import first_pass_nodes, quad, quad_many
from .model import _combination, _slot_coords, as_reduced
from .symmetry import verify_symmetry
from .verify import MAX_AXIS_POINTS, MAX_GRID_POINTS, GridSpec, finite_numbers
from .verify import residual_numeric, residual_symbolic

QUAD_TOL = 1e-11


# --- domain types ---------------------------------------------------------------


@dataclass(frozen=True)
class LinearODE:
    """v_order + sum_l coeffs[l] v_l = 0 in the variable var, with coeffs
    the coefficients of v_0 .. v_{order-1}."""

    order: int
    coeffs: tuple
    var: Symbol = x

    def __post_init__(self):
        if not (isinstance(self.order, int) and self.order >= 1):
            raise InputError("ODE order must be a positive integer")
        cs = tuple(as_exact(c) for c in self.coeffs)
        if len(cs) != self.order:
            raise InputError(f"need {self.order} coefficients")
        if self.var not in (t, x):
            raise InputError("ODE variable must be t or x")
        other = x if self.var == t else t
        for e in cs:
            if other in e.free_symbols:
                raise InputError(
                    f"ODE in {self.var} must not involve {other}"
                )
        object.__setattr__(self, "coeffs", tuple(normalize(c).as_expr() for c in cs))

    def residual(self, v):
        """L[v], normalized."""
        v = as_exact(v)
        terms = derivative_terms(self.coeffs, v, self.var)
        return normalize(Add(differentiate(v, self.var, self.order), *terms)).as_expr()

    def is_constant(self):
        return all(c.is_Rational for c in self.coeffs)

    def operator_texts(self, names):
        """The left-hand side v_order + sum_l coeffs[l] v_l as text, one
        per unknown name, with name_l for the l-th derivative."""
        terms = [
            (l, to_str(self.coeffs[l]))
            for l in range(self.order - 1, -1, -1)
            if self.coeffs[l] != 0
        ]
        return [
            " + ".join([f"{n}_{self.order}"] + [f"({c})*{n}_{l}" for l, c in terms])
            for n in names
        ]

    def describe(self):
        return f"{self.operator_texts(['v'])[0]} = 0  [{self.var}]"


@dataclass(frozen=True)
class ReducedSystem:
    """Coupled linear system L[y_i] = sum_j coupling[i][j] y_j in var, with
    one operator L, the ode, for every unknown."""

    var: Symbol
    unknowns: tuple
    ode: LinearODE
    coupling: tuple

    def __post_init__(self):
        rows = tuple(tuple(normalize(c).as_expr() for c in row) for row in self.coupling)
        object.__setattr__(self, "coupling", rows)

    def describe(self):
        lines = []
        for row, lhs in zip(self.coupling, self.ode.operator_texts(self.unknowns)):
            rhs = [f"({to_str(c)})*{other}" for c, other in zip(row, self.unknowns) if c != 0]
            lines.append(lhs + " = " + (" + ".join(rhs) or "0"))
        return lines


def _check_grid_doc(grid):
    """The sampled grid of a solution document: t and x lists of finite
    JSON numbers, values a list of such lists; nothing is coerced."""
    if not isinstance(grid, dict):
        raise InputError("solution document: grid must be a JSON object")
    for key in ("t", "x"):
        if not finite_numbers(grid.get(key)):
            raise InputError(f"solution document: grid.{key} must be a list of finite numbers")
    values = grid.get("values")
    if type(values) is not list or not all(map(finite_numbers, values)):
        raise InputError(
            "solution document: grid.values must be a list of lists of finite numbers"
        )


@dataclass(frozen=True)
class Solution:
    """A certified solution: symbolic (exact residual zero) or numeric
    (max-norm finite-difference residual estimate on a grid)."""

    kind: str
    expr: Expr = None
    grid: dict = None
    provenance: dict = None
    certificate: str = ""
    max_residual: float = None
    slope: float = None
    parameters: tuple = ()

    def to_doc(self):
        doc = {"kind": self.kind}
        if self.expr is not None:
            doc["expr"] = to_str(self.expr)
        if self.kind == "symbolic":
            doc["certificate"] = self.certificate
        else:
            doc["max_residual"] = self.max_residual
            if self.slope is not None:
                doc["slope"] = self.slope
            if self.grid is not None:
                doc["grid"] = self.grid
        if self.parameters:
            doc["parameters"] = list(self.parameters)
        if self.provenance:
            doc["provenance"] = self.provenance
        return doc

    @classmethod
    def from_doc(cls, doc):
        if not isinstance(doc, dict):
            raise InputError("solution document must be a JSON object")
        params = doc.get("parameters", ())
        if not isinstance(params, (list, tuple)) or not all(isinstance(p, str) for p in params):
            raise InputError("solution document: parameters must be a list of names")
        params = tuple(params)
        if "kind" not in doc:
            raise InputError("malformed solution document: missing 'kind'")
        kind = doc["kind"]
        if kind not in ("symbolic", "numeric"):
            raise InputError('solution document: kind must be "symbolic" or "numeric"')
        expr = read_expr(doc, "expr", None, params, "solution")
        if kind == "symbolic" and expr is None:
            raise InputError("malformed solution document: missing 'expr'")
        if "grid" in doc:
            _check_grid_doc(doc["grid"])
        return cls(
            kind,
            expr=expr,
            grid=doc.get("grid"),
            provenance=doc.get("provenance"),
            certificate=doc.get("certificate", ""),
            max_residual=doc.get("max_residual"),
            slope=doc.get("slope"),
            parameters=params,
        )


@dataclass(frozen=True)
class GeneralizedReduction:
    """Reduction data for a polynomial of the recursion operator of D(1) or
    P(1)+I(phi): the ansatz, the exact reduced system, and certified
    solutions when the system is solvable in closed form."""

    family: str
    N: int
    ansatz: str
    system: ReducedSystem
    solutions: tuple = ()
    notes: tuple = ()


# --- certificates ---------------------------------------------------------------


def certify_symbolic(eq, expr, provenance=None, parameters=()):
    """Wrap expr as a symbolic Solution of eq; the exact residual must be
    certifiably zero, anything else is an internal failure of the caller."""
    expr = normalize(expr).as_expr()
    res = residual_symbolic(eq, expr)
    if is_zero(res) is not Verdict.ZERO:
        raise InternalError(
            f"generated solution fails the residual oracle: {to_str(res)}"
        )
    return Solution(
        "symbolic",
        expr=expr,
        provenance=provenance or {},
        certificate="zero-residual",
        parameters=tuple(parameters),
    )


def _grid_solution(eq, tpts, xpts, values, provenance):
    grid = {
        "t": [float(v) for v in tpts],
        "x": [float(v) for v in xpts],
        "values": [[float(v) for v in row] for row in values],
    }
    mr, sl = residual_numeric(eq, grid)
    return Solution(
        "numeric",
        grid=grid,
        provenance=provenance,
        certificate="numeric-residual",
        max_residual=mr,
        slope=sl,
    )


_DEFAULT_GRIDS = {
    3: ((0.0, 1.0), (0.0, 1.0), 1 / 32),
    4: ((0.0, 2.0), (0.0, 2.0), 1 / 8),
    # the fifth derivative needs the finer step: at 1/8 the order-6
    # truncation error for unit-rate exponentials sits at the 1e-6 scale
    5: ((0.0, 2.5), (0.0, 2.5), 1 / 16),
}


def default_grid(r):
    """Verification grid sized so the order-6 stencil stays above the
    rounding floor for derivatives up to order r."""
    tr, xr, h = _DEFAULT_GRIDS.get(r, ((0.0, 2.5), (0.0, 2.5), 1 / 8))
    return GridSpec(tr, xr, h, h, 6)


def _expr_numeric_solution(eq, expr, provenance, parameters=()):
    """Numeric Solution for a closed form with approximate constants."""
    mr, sl = residual_numeric(eq, expr, default_grid(eq.r))
    return Solution(
        "numeric",
        expr=normalize(expr).as_expr(),
        provenance=provenance,
        certificate="numeric-residual",
        max_residual=mr,
        slope=sl,
        parameters=tuple(parameters),
    )


def _finite(name, v):
    if not math.isfinite(v):
        raise InputError(f"{name} must be a finite number, got {v!r}")
    return float(v)


def _rat(v):
    fr = Fraction(float(v)).limit_denominator(10**12)
    return Rational(fr.numerator, fr.denominator)


# --- Lie reductions -------------------------------------------------------------


def reduce_D1(eq):
    """Reduction by the time translation: u = v(x), v_r + A^l v_l = 0."""
    eq = as_reduced(eq)
    for a in eq.A:
        if is_zero(differentiate(a, t)) is not Verdict.ZERO:
            raise UnsupportedError(
                "reduction by the time translation needs t-independent coefficients"
            )
    return LinearODE(eq.r, eq.A + (S.Zero,), x)


def _p_shape(eq):
    """Check A^0 = f(t) x, A^1 = 0, A^j = A^j(t) and return f."""
    eq = as_reduced(eq)
    f = differentiate(eq.A[0], x)
    rest = eq.A[0] - f * x if f != 0 else eq.A[0]
    if x in f.free_symbols or is_zero(rest) is not Verdict.ZERO:
        raise UnsupportedError("the shape needs A^0 = f(t)*x")
    if is_zero(eq.A[1]) is not Verdict.ZERO:
        raise UnsupportedError("the shape needs A^1 = 0")
    for j in range(2, eq.r - 1):
        if x in eq.A[j].free_symbols:
            raise UnsupportedError("the shape needs x-free A^j for j >= 2")
    return f


def _phi_of(eq, phi0):
    """phi with phi_t = A^0/x, plus the integration constant phi0."""
    f = _p_shape(eq)
    F = integrate(f, t)
    if F is None:
        raise UnsupportedError(
            "the antiderivative of A^0/x is outside the integration catalog"
        )
    return normalize(F + phi0).as_expr()


def _rate_coeffs(eq):
    """{k: A^k} for k = 2..r, with A^r = 1 and A^{r-1} = 0 left out."""
    A = {k: eq.A[k] for k in range(2, eq.r - 1)}
    A[eq.r] = S.One
    return A


def _exp_rate(eq, phi):
    """sum_{k=2}^{r} A^k phi^k."""
    g = sum(Ak * Pow(phi, Integer(k)) for k, Ak in _rate_coeffs(eq).items() if Ak != 0)
    return normalize(g).as_expr()


def reduce_P1Iphi(eq, phi0=None, grid=None, phi0_value=0.0):
    """Reduction by P(1)+I(phi): u = c0 exp(phi x) exp(int exp-rate dt).

    phi = int A^0/x dt + phi0 with phi0 exposed as a parameter (pass an
    explicit value to fix it).  When the time quadrature closes in the
    catalog the result is symbolic; otherwise it is sampled on the grid by
    adaptive quadrature with phi0 bound to phi0_value.
    """
    eq = as_reduced(eq)
    phi0_value = _finite("phi0_value", phi0_value)
    free_phi0 = phi0 is None
    phi0 = sym("phi0") if free_phi0 else as_exact(phi0)
    phi = _phi_of(eq, phi0)
    g = _exp_rate(eq, phi)
    G = integrate(g, t)
    c0 = sym("c0")
    prov = {"method": "P1I-reduction", "phi": to_str(phi)}
    if G is not None:
        params = ["c0"] + (["phi0"] if free_phi0 else [])
        return certify_symbolic(eq, c0 * Exp(phi * x + G), prov, params)
    tpts, xpts = (grid or default_grid(eq.r)).points()
    with _float_range("P1I reduction"):
        vals = _p1i_values(g, phi, phi0_value, tpts, xpts)
    prov = dict(prov, quadrature="adaptive", phi0_value=phi0_value)
    return _grid_solution(eq, tpts, xpts, vals, prov)


def _p1i_values(g, phi, phi0_value, tpts, xpts):
    """exp(phi x + w(t)) on tpts x xpts, with w(t) the integral of g from
    the first time point and phi0 bound to phi0_value; g and phi are free
    of x.  The values and errors are those of a scalar quad per time."""
    tpts, xpts = [float(v) for v in tpts], [float(v) for v in xpts]
    t0 = tpts[0]
    phifun = numeric_function(phi)
    gnum, gmany = _time_integrand(g, phi0_value)
    ws = quad_many(gnum, gmany, t0, tpts, QUAD_TOL, QUAD_TOL)
    vals = []
    for tv, (w, _) in zip(tpts, ws):
        pv = phifun({"t": tv, "phi0": phi0_value})
        vals.append([math.exp(pv * xv + w) for xv in xpts])
    return vals


def _time_integrand(g, phi0_value):
    """g, free of x, as a function of t and as one of an array of times."""
    gfun = numeric_function(g)

    def gnum(tv):
        return gfun({"t": tv, "phi0": phi0_value})

    def gmany(tvs):
        return eval_grid(g, tvs.tolist(), [0.0], {"phi0": phi0_value})[:, 0]

    return gnum, gmany


@contextmanager
def _float_range(stage):
    """An OverflowError of math.exp in stage's value loop exits 3."""
    try:
        yield
    except OverflowError:
        raise UnsupportedError(
            f"numeric certificate out of float range in {stage}"
        ) from None


# --- constant-coefficient ODE solver --------------------------------------------


def _char_coeffs(ode):
    cs = []
    for c in ode.coeffs:
        if not c.is_Rational:
            raise InputError("constant rational coefficients required")
        cs.append(to_fraction(c))
    cs.append(Fraction(1))
    return cs


def _ode_numeric_certificate(ode, v):
    res = ode.residual(v)
    pts = [i / 32 for i in range(1, 33)]
    worst = 0.0
    try:
        for val in pts:
            worst = max(worst, abs(eval_numeric(res, {ode.var.name: val})))
    except EvalDomainError:
        # an exp-trig mode's residual has no domain gaps, so its floats
        # overflowed, as e^(5000000 w) does for v_3 + 10^21 v = 0
        raise UnsupportedError("numeric certificate out of float range on (0, 1]") from None
    return worst


def solve_const_ode(ode):
    """Fundamental system of a constant-coefficient homogeneous linear ODE.

    Rational characteristic roots are found exactly (rational root theorem
    with deflation) and their basis elements carry exact zero-residual
    certificates; the remaining roots come from the companion matrix and the
    corresponding elements carry numeric residual certificates, unless the
    rationalized root happens to be exact.
    """
    char = _char_coeffs(ode)
    out = []
    for e, root, k, z in _const_ode_modes(ode, char):
        e = normalize(e).as_expr()
        prov = {
            "method": "constant-ode-basis",
            "ode": ode.describe(),
            "root": root,
            "power": k,
        }
        # L[w^k e^(zw)] = sum_j C(k, j) char^(j)(z) w^(k-j) e^(zw): a mode's
        # residual is zero exactly when z is a root of multiplicity > k
        if root_multiplicity(char, z) > k and is_zero(ode.residual(e)) is Verdict.ZERO:
            out.append(
                Solution(
                    "symbolic",
                    expr=e,
                    provenance=prov,
                    certificate="zero-residual",
                )
            )
        else:
            out.append(
                Solution(
                    "numeric",
                    expr=e,
                    provenance=prov,
                    certificate="numeric-residual",
                    max_residual=_ode_numeric_certificate(ode, e),
                )
            )
    return out


def _const_ode_modes(ode, char):
    """(e, root tag, k, (a, b)) for each basis element of the ODE with
    characteristic polynomial char: w^k e^(aw), or w^k e^(aw) cos(bw) and
    w^k e^(aw) sin(bw), for each root a + ib and k below its multiplicity;
    floating roots are rounded to rationals a and b."""
    rts, rest = rational_roots(char)
    w = ode.var
    for root, m in rts:
        rho = Rational(root.numerator, root.denominator)
        efac = Exp(rho * w) if rho != 0 else S.One
        for k in range(m):
            yield Pow(w, Integer(k)) * efac, str(rho), k, (root, 0)
    if len(rest) > 1:
        for z, m in cluster_roots(numeric_roots(rest)):
            a = _rat(z.real) if abs(z.real) > 1e-13 else S.Zero
            b = _rat(z.imag) if abs(z.imag) > 1e-13 else S.Zero
            efac = Exp(a * w) if a != 0 else S.One
            for k in range(m):
                wk = Pow(w, Integer(k))
                if b == 0:
                    yield wk * efac, f"~{z.real:.12g}", k, (a, b)
                else:
                    tag = f"~{z.real:.12g}+-{z.imag:.12g}i"
                    yield wk * efac * Cos(b * w), tag, k, (a, b)
                    yield wk * efac * Sin(b * w), tag, k, (a, b)


# --- undetermined coefficients for exp-polynomial right-hand sides ---------------


def _particular(coeffs, rhs, var):
    """Particular solution of v_n + sum coeffs[l] v_l = rhs for constant
    rational coeffs and rhs in the exp-polynomial span, else None."""
    nf = normalize(rhs)
    if nf.num == 0:
        return S.Zero
    # {rate b: {degree a: c}} of the terms c var^a exp(b var)
    groups = exp_polynomial(nf.num_terms, var) if nf.den == 1 else None
    if groups is None:
        return None
    op = LinearODE(len(coeffs), tuple(coeffs), var)
    char = _char_coeffs(op)
    total = S.Zero
    for b, poly in groups.items():
        d = max(poly)
        m = root_multiplicity(char, (b, 0))
        rho = Rational(b.numerator, b.denominator)
        efac = Exp(rho * var) if b != 0 else S.One
        basis = [Pow(var, Integer(m + j)) * efac for j in range(d + 1)]
        images = [op.residual(v) for v in basis]
        target = sum(Rational(c) * Pow(var, Integer(a)) for a, c in poly.items()) * efac
        got = _combination(_slot_coords(images + [target])[1])
        if got is None:
            raise InternalError("undetermined-coefficient system inconsistent")
        total += sum(
            Rational(q.numerator, q.denominator) * v for q, v in zip(got, basis) if q
        )
    return normalize(total).as_expr()


# --- symmetry action ------------------------------------------------------------


def _solution_expr(eq, h):
    if isinstance(h, Solution):
        if h.kind != "symbolic":
            raise InputError("a symbolic certified solution is required")
        return h.expr, h.parameters
    h = as_exact(h)
    if is_zero(residual_symbolic(eq, h)) is not Verdict.ZERO:
        raise InputError("h does not certify as a solution of the equation")
    return normalize(h).as_expr(), ()


def act_symmetry(Q, h, eq):
    """Image of the solution h under the symmetry Q:
    Q[h] = phi h + eta0 - tau h_t - ((1/r) tau_t x + chi) h_x."""
    eq = as_reduced(eq)
    rep = verify_symmetry(eq, Q)
    if rep.holds != "yes":
        raise InputError(
            f"Q is not a certified Lie symmetry of the equation ({rep.holds})"
        )
    hexpr, params = _solution_expr(eq, h)
    xi = Rational(1, eq.r) * differentiate(Q.tau, t) * x + Q.chi
    out = (
        Q.phi * hexpr
        + Q.eta0
        - Q.tau * differentiate(hexpr, t)
        - xi * differentiate(hexpr, x)
    )
    prov = {"method": "symmetry-action", "Q": Q.describe(), "h": to_str(hexpr)}
    return certify_symbolic(eq, out, prov, params)


# --- generalized reductions -----------------------------------------------------
#
# Every rate is a Gaussian-rational pair (mu, nu), the rate mu + i nu; a real
# rate lam is the pair (lam, 0).  Matrices over the pairs hold entries (c, d)
# meaning the 2x2 block c I + d K with K^2 = -I, acting on the (v, w) layers;
# on the real axis the w layers and every d vanish.


def _rate_fields(mu, nu):
    """The rate as reported: lam on the real axis, the pair mu, nu off it."""
    return {"lam": mu} if nu == 0 else {"mu": mu, "nu": nu}


def _prov(family, mu, nu, N, **extra):
    rate = {k: to_str(v) for k, v in _rate_fields(mu, nu).items()}
    return {
        "method": "generalized-reduction",
        "family": family,
        **rate,
        "N": N,
        **extra,
    }


def _ansatz(layer_var, var, N, nu, rate):
    layer = f"v^s({layer_var})"
    if nu != 0:
        layer = (
            f"({layer} cos(({to_str(nu)}) {var}) + w^s({layer_var})"
            f" sin(({to_str(nu)}) {var}))"
        )
    return f"u = sum_s {layer} {var}^s exp(({to_str(rate)}) {var}), s = 0..{N}"


def _pair_system(var, ode, nu, cp):
    """ReducedSystem over the layers v^s (and w^s off the real axis) whose
    coupling is the pair matrix cp written out in real 2x2 blocks."""
    n = len(cp)
    names = [f"v{s}" for s in range(n)]
    coup = [[c for c, _ in row] for row in cp]
    if nu != 0:
        names += [f"w{s}" for s in range(n)]
        coup = [coup[s] + [d for _, d in cp[s]] for s in range(n)] + [
            [-d for _, d in cp[s]] + coup[s]
            for s in range(n)
        ]
    return ReducedSystem(var, tuple(names), ode, tuple(map(tuple, coup)))


def _d_system(eq, N, mu, nu):
    n = N + 1
    cp = [[(S.Zero, S.Zero)] * n for _ in range(n)]
    for s in range(n):
        cp[s][s] = (mu, nu)
        if s + 1 < n:
            cp[s][s + 1] = (Integer(s + 1), S.Zero)
    ode = LinearODE(eq.r, eq.A + (S.Zero,), x)
    return _pair_system(x, ode, nu, cp)


def _pow0(base, e):
    # 0^0 = 1 in the binomial sums
    return S.One if e == 0 else Pow(base, Integer(e))


def _dot(*pairs):
    """The sum of the products u * v that are not zero.  A zero factor is
    left out, not multiplied, as in derivative_terms."""
    return Add(*[u * v for u, v in pairs if u != 0 and v != 0])


def _gpow(a, b, e):
    """(a + i b)^e as its (real, imaginary) pair."""
    parts = [S.Zero, S.Zero]
    for j in range(e + 1):
        if b == 0 and j > 0:
            continue
        sign = -1 if j % 4 >= 2 else 1
        parts[j % 2] += (
            Integer(sign * math.comb(e, j)) * _pow0(a, e - j) * _pow0(b, j)
        )
    return tuple(parts)


def _p_coupling(eq, N, phat, nu):
    """Pair matrix of the P-family layers: entry (s, p) is the sum over k of
    A^k C(k, p-s) p!/s! (phat + i nu)^(k+s-p)."""
    n = N + 1
    A = _rate_coeffs(eq)
    cp = [[(S.Zero, S.Zero)] * n for _ in range(n)]
    for s in range(n):
        for p in range(s, n):
            re, im = [], []
            for k, Ak in A.items():
                if p - s > k:
                    continue
                c = Integer(math.comb(k, p - s)) * Rational(
                    math.factorial(p), math.factorial(s)
                )
                gre, gim = _gpow(phat, nu, k + s - p)
                re.append((Ak * c, gre))
                im.append((Ak * c, gim))
            cp[s][p] = (normalize(_dot(*re)).as_expr(), normalize(_dot(*im)).as_expr())
    return cp


def _pair_dot(row, col):
    re = _dot(*[p for (a, b), (c, d) in zip(row, col) for p in ((a, c), (-b, d))])
    im = _dot(*[p for (a, b), (c, d) in zip(row, col) for p in ((a, d), (b, c))])
    return normalize(re).as_expr(), normalize(im).as_expr()


def _nilpotent_exp(T):
    """exp(T t) for a strictly upper triangular pair matrix T (finite sum)."""
    n = len(T)
    zero = (S.Zero, S.Zero)
    out = [[(S.One, S.Zero) if i == j else zero for j in range(n)] for i in range(n)]
    cols = [[T[q][j] for q in range(n)] for j in range(n)]
    power = T
    for k in range(1, n):
        if all(e == zero for row in power for e in row):
            break
        tk = Pow(t, Integer(k)) / math.factorial(k)
        for i in range(n):
            for j in range(n):
                c, d = power[i][j]
                if c != 0 or d != 0:
                    out[i][j] = tuple(
                        normalize(o + v * tk).as_expr() if v != 0 else o
                        for o, v in zip(out[i][j], (c, d))
                    )
        power = [[_pair_dot(row, col) for col in cols] for row in power]
    return out


def _d_real_chain(eq, N, coeffs, top, basis_exact):
    """Layer chains v^s with L[v^s] = (s+1) v^{s+1} + lam v^s, v^{N+1} = 0,
    where coeffs are those of L - lam.

    Returns (chains, notes).  chains lists (layers dict, tag) items: the
    canonical chain from the given top layer first when present, then the
    continuation of each exact homogeneous basis element placed at each
    layer.  A basis chain whose layer right-hand side leaves the
    exp-polynomial span is omitted with a note; a top-layer chain that does
    so is unsupported."""
    out = []
    notes = []

    def descend(vtop, stop):
        layers = {stop: normalize(vtop).as_expr()}
        for s in range(stop - 1, -1, -1):
            rhs = Integer(s + 1) * layers[s + 1]
            part = _particular(coeffs, rhs, x)
            if part is None:
                return None
            layers[s] = part
        return layers

    if top is not None:
        ode = LinearODE(eq.r, coeffs, x)
        if is_zero(ode.residual(top)) is not Verdict.ZERO:
            raise InputError(
                "the top layer must solve the homogeneous reduced ODE"
            )
        layers = descend(top, N)
        if layers is None:
            raise UnsupportedError(
                "layer right-hand side left the exp-polynomial span"
            )
        out.append((layers, "top-layer"))
    for s in range(N + 1):
        for i, b in enumerate(basis_exact):
            layers = descend(b.expr, s)
            if layers is None:
                notes.append(
                    f"layer {s}, basis {i}: layer right-hand side left the"
                    " exp-polynomial span; chain omitted"
                )
            else:
                out.append((layers, f"layer {s}, basis {i}"))
    return out, notes


def _assemble_d_real(layers, lam):
    efac = Exp(lam * t) if lam != 0 else S.One
    u = S.Zero
    for s, vs in layers.items():
        u += vs * Pow(t, Integer(s)) * efac
    return normalize(u).as_expr()


def generalized_reduction(
    eq,
    family,
    N,
    lam=None,
    mu=None,
    nu=None,
    phi0=None,
    top_layer=None,
    numeric=None,
):
    """Reduction by (Q_op + lam)^{N+1} u = 0 or ((Q_op + mu)^2 + nu^2)^{N+1}
    u = 0, with Q_op the recursion operator of D(1) (family "D") or of
    P(1)+I(phi) (family "P").

    The exact reduced system is always constructed; closed-form solution
    families are attached when the coefficients allow (constant A for the
    D family; constant exp-rate or N=0 quadrature for the P family), and a
    numeric request {"span": (a, b), "n_steps": int, "init": [...], plus
    "t_pts"/"x_pts" for the other variable} runs the Runge-Kutta fallback.
    All rates are kept rational so certificates stay exact; lam is carried
    as the pair (lam, 0).
    """
    eq = as_reduced(eq)
    if not (isinstance(N, int) and N >= 0):
        raise InputError("N must be a nonnegative integer")
    if family not in ("D", "P"):
        raise InputError('family must be "D" or "P"')
    if mu is not None or nu is not None:
        if lam is not None:
            raise InputError("give either lam or the pair (mu, nu), not both")
        mu = as_exact(0 if mu is None else mu)
        nu = as_exact(1 if nu is None else nu)
        if not (mu.is_Rational and nu.is_Rational):
            raise InputError("mu and nu must be rational")
        if nu <= 0:
            raise InputError("nu must be positive")
    else:
        mu = as_exact(0 if lam is None else lam)
        if not mu.is_Rational:
            raise InputError("lam must be rational")
        nu = S.Zero

    if family == "D":
        return _gen_reduction_d(eq, N, mu, nu, top_layer, numeric)
    if top_layer is not None:
        raise InputError("top_layer applies to the D family only")
    return _gen_reduction_p(eq, N, mu, nu, phi0, numeric)


def _gen_reduction_d(eq, N, mu, nu, top_layer, numeric):
    for a in eq.A:
        if is_zero(differentiate(a, t)) is not Verdict.ZERO:
            raise UnsupportedError("the D family needs t-independent coefficients")
    system = _d_system(eq, N, mu, nu)
    ansatz = _ansatz("x", "t", N, nu, mu)
    notes = []
    sols = []
    if not all(a.is_Rational for a in eq.A):
        notes.append("non-constant coefficients: closed layer chains unavailable")
    elif nu == 0:
        # exact rational roots, then layer chains by undetermined coefficients
        lam = mu
        coeffs = list(eq.A) + [S.Zero]
        coeffs[0] = normalize(coeffs[0] - lam).as_expr()
        basis = solve_const_ode(LinearODE(eq.r, coeffs, x))
        exact = [b for b in basis if b.kind == "symbolic"]
        approx = [b for b in basis if b.kind != "symbolic"]
        chains, chain_notes = _d_real_chain(eq, N, coeffs, top_layer, exact)
        notes.extend(chain_notes)
        for layers, tag in chains:
            u = _assemble_d_real(layers, lam)
            prov = _prov(
                "D",
                mu,
                nu,
                N,
                chain=tag,
                layers={f"v{s}": to_str(vs) for s, vs in sorted(layers.items())},
            )
            sols.append(certify_symbolic(eq, u, prov))
        if N == 0:
            for b in approx:
                u = normalize(b.expr * Exp(lam * t)).as_expr()
                prov = _prov("D", mu, nu, 0, root=b.provenance["root"])
                sols.append(_expr_numeric_solution(eq, u, prov))
        elif approx:
            notes.append(
                "irrational characteristic directions omitted from the"
                " N > 0 chains; see solve_const_ode for the layer basis"
            )
    elif N == 0:
        # floating complex roots of char(z) = mu - i nu
        char = _char_coeffs(system.ode)
        shifted = [(char[0] - to_fraction(mu), to_fraction(nu))] + char[1:]
        for z, a, b in _rationalized_roots(char, mu, nu):
            # each mode's residual is Re[c (mu - i nu - char(a + ib)) e^(...)],
            # which is zero only at a root of char - (mu - i nu)
            exact = root_multiplicity(shifted, (a, b)) > 0
            for tag, u in _complex_modes(a, b, mu, nu):
                prov = _prov(
                    "D", mu, nu, 0, root=f"{z.real:.12g}{z.imag:+.12g}i ({tag})"
                )
                if exact and is_zero(residual_symbolic(eq, u)) is Verdict.ZERO:
                    sols.append(certify_symbolic(eq, u, prov))
                else:
                    sols.append(_expr_numeric_solution(eq, u, prov))
    else:
        notes.append(
            "complex D chains with N > 0 are not solved in closed form;"
            " pass numeric= for an integrator run"
        )
    if numeric is not None:
        sols.append(_numeric_reduction(eq, "D", system, mu, nu, None, numeric))
    return GeneralizedReduction("D", N, ansatz, system, tuple(sols), tuple(notes))


def _rationalized_roots(char, mu, nu):
    """(z, a, b) for each floating root z of char(z) = mu - i nu, in report
    order, with a and b its real and imaginary parts as rationals (zero
    within 1e-12)."""
    cpoly = [complex(float(c), 0.0) for c in char]
    cpoly[0] -= complex(float(mu), -float(nu))
    for z in sorted(numeric_roots(cpoly), key=lambda z: (round(z.real, 9), round(z.imag, 9))):
        a = _rat(z.real) if abs(z.real) > 1e-12 else S.Zero
        b = _rat(z.imag) if abs(z.imag) > 1e-12 else S.Zero
        yield z, a, b


def _complex_modes(a, b, mu, nu):
    """(tag, u) for the real ("re") and imaginary ("im") parts of
    e^((a + ib) x + (mu - i nu) t), up to sign, skipping a zero part."""
    efac = Exp(a * x) if a != 0 else S.One
    vz = efac * Cos(b * x) if b != 0 else efac
    wz = efac * Sin(b * x) if b != 0 else S.Zero
    emu = Exp(mu * t) if mu != 0 else S.One
    for v0, w0, tag in ((vz, wz, "re"), (-wz, vz, "im")):
        u = normalize((v0 * Cos(nu * t) + w0 * Sin(nu * t)) * emu).as_expr()
        if u != 0:
            yield tag, u


def _gen_reduction_p(eq, N, mu, nu, phi0, numeric):
    free_phi0 = phi0 is None
    phi0 = sym("phi0") if free_phi0 else as_exact(phi0)
    phi = _phi_of(eq, phi0)
    phat = normalize(phi + mu).as_expr()
    params = ("phi0",) if free_phi0 else ()
    notes = []
    sols = []
    cp = _p_coupling(eq, N, phat, nu)
    system = _pair_system(t, LinearODE(1, (S.Zero,), t), nu, cp)
    ansatz = _ansatz("t", "x", N, nu, phat)
    n = N + 1

    tfree = t not in phat.free_symbols and all(
        t not in a.free_symbols for a in eq.A
    )
    if tfree or N == 0:
        # the diagonal rate integrates to the phase exp(Pint) R(Sint); a
        # t-free coupling also exponentiates its nilpotent part
        Pint = integrate(cp[0][0][0], t)
        Sint = integrate(cp[0][0][1], t)
        if Pint is None or Sint is None:
            notes.append(
                "time quadrature outside the catalog; pass numeric= for"
                " an integrator run"
            )
        else:
            zero = (S.Zero, S.Zero)
            Pn = _nilpotent_exp(
                [[cp[s][p] if p > s else zero for p in range(n)] for s in range(n)]
            )
            efac = Exp(Pint)
            cosb = Cos(Sint)
            sinb = Sin(Sint)
            cosx, sinx = (Cos(nu * x), Sin(nu * x)) if nu != 0 else (S.One, S.Zero)
            expx = Exp(phat * x) if phat != 0 else S.One
            tags = ("v", "w") if nu != 0 else ("v",)
            for p in range(n):
                for tag in tags:
                    u = S.Zero
                    for s in range(p + 1):
                        c, d = Pn[s][p]
                        # block action [[c, d], [-d, c]] on the init pair
                        # (1, 0) or (0, 1), then the diagonal phase; zero
                        # products are left out
                        v1, w1 = (c, -d) if tag == "v" else (d, c)
                        vs = _dot((cosb, v1), (sinb, w1))
                        ws = _dot((-sinb, v1), (cosb, w1))
                        wave = _dot((vs, cosx), (ws, sinx))
                        if wave != 0:
                            u += efac * wave * Pow(x, Integer(s)) * expx
                    prov = _prov("P", mu, nu, N, init=f"{tag}{p}")
                    sols.append(certify_symbolic(eq, u, prov, params))
    else:
        notes.append(
            "time-dependent layer coupling with N > 0 has no closed form"
            " here; pass numeric= for an integrator run"
        )
    if numeric is not None:
        sols.append(_numeric_reduction(eq, "P", system, mu, nu, phi, numeric))
    return GeneralizedReduction("P", N, ansatz, system, tuple(sols), tuple(notes))


def polynomial_t_solutions(eq, N, top_layer=None):
    """Solutions u = sum_s v^s(x) t^s with the layer chain
    v^s_r + A^l v^s_l = (s+1) v^{s+1}, v^{N+1} = 0.

    The first returned Solution is the canonical chain grown down from the
    given top layer (which must solve the homogeneous reduced ODE); the rest
    are the chains of each exact homogeneous basis element placed at each
    layer, so their rational spans form the full family.
    """
    gr = generalized_reduction(eq, "D", N, lam=S.Zero, top_layer=top_layer)
    if not gr.solutions:
        raise UnsupportedError(
            "; ".join(gr.notes) or "no closed-form layers available"
        )
    return gr.solutions


# --- numeric fallback: classical Runge-Kutta ------------------------------------


def rk4_integrate(system, init, span, n_steps, params=None):
    """Classical fixed-step RK4 for a ReducedSystem.

    init concatenates, per unknown, the values (y, y', ..., y^{(order-1)})
    at span[0].  Returns (grid, {unknown: values}, err) where err is the
    step-halving error estimate max |y_h - y_{h/2}| / 15 over the final
    state, an order-4 Richardson gauge.
    """
    _check_points(n_steps)
    lo, hi = float(span[0]), float(span[1])
    if not lo < hi:
        raise InputError("span must be increasing")
    n = system.ode.order
    m = len(system.unknowns)
    dim = n * m
    if len(init) != dim:
        raise InputError(f"init must have {dim} entries")
    var = system.var.name
    extra = dict(params or {})
    cof = system.ode.coeffs
    coup = system.coupling

    def F(w, y):
        env = {var: w, **extra}
        out = [0.0] * dim
        for i in range(m):
            base = i * n
            for l in range(n - 1):
                out[base + l] = y[base + l + 1]
            top = 0.0
            for l in range(n):
                c = cof[l]
                if c != 0:
                    top -= eval_numeric(c, env) * y[base + l]
            for j in range(m):
                c = coup[i][j]
                if c != 0:
                    top += eval_numeric(c, env) * y[j * n]
            out[base + n - 1] = top
        return out

    def run(steps):
        h = (hi - lo) / steps
        y = [float(v) for v in init]
        ws = [lo]
        states = [y[:]]
        w = lo
        for _ in range(steps):
            k1 = F(w, y)
            k2 = F(w + h / 2, [a + h / 2 * b for a, b in zip(y, k1)])
            k3 = F(w + h / 2, [a + h / 2 * b for a, b in zip(y, k2)])
            k4 = F(w + h, [a + h * b for a, b in zip(y, k3)])
            y = [
                a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
            ]
            w += h
            ws.append(w)
            states.append(y[:])
        return ws, states

    ws, states = run(n_steps)
    _, fine = run(2 * n_steps)
    err = max(abs(a - b) for a, b in zip(states[-1], fine[-1])) / 15.0
    traj = {
        name: [st[i * n] for st in states]
        for i, name in enumerate(system.unknowns)
    }
    return ws, traj, err


def _check_points(n_steps, key=None, n_other=1):
    """Refuse, before the first step, an RK4 run whose n_steps + 1 points,
    or whose grid with the n_other points of key, is over verify's bounds."""
    if not (isinstance(n_steps, int) and n_steps >= 1):
        raise InputError("n_steps must be a positive integer")
    if n_steps >= MAX_AXIS_POINTS:
        raise InputError(f"n_steps gives more than MAX_AXIS_POINTS = {MAX_AXIS_POINTS} points")
    if n_other > MAX_AXIS_POINTS:
        raise InputError(f"{key} has more than MAX_AXIS_POINTS = {MAX_AXIS_POINTS} points")
    if (n_steps + 1) * n_other > MAX_GRID_POINTS:
        raise InputError(f"grid has {n_steps + 1} x {n_other} points, over MAX_GRID_POINTS")


def _numeric_reduction(eq, family, system, mu, nu, phi, numeric):
    """Assemble a numeric Solution from an RK4 run of the reduced system."""
    spec = dict(numeric)

    def take(key):
        if key not in spec:
            raise InputError(f"numeric= needs the key {key!r}")
        return spec.pop(key)

    span = take("span")
    n_steps = spec.pop("n_steps", 128)
    init = take("init")
    params = spec.pop("params", {})
    key = "t_pts" if family == "D" else "x_pts"
    other = np.array([float(v) for v in take(key)])
    _check_points(n_steps, key, len(other))
    ws, traj, err = rk4_integrate(system, init, span, n_steps, params)
    ws = np.array(ws)
    # (v^s, w^s) per layer; on the real axis there is no w block
    zeros = [0.0] * len(ws)
    layers = [
        (np.array(traj[name]), np.array(traj.get("w" + name[1:], zeros)))
        for name in system.unknowns
        if name.startswith("v")
    ]
    muv, nuv = float(mu), float(nu)
    if family == "D":
        tpts, xpts = other, ws
        vals = np.zeros((len(tpts), len(xpts)))
        for s, (vss, wss) in enumerate(layers):
            for i, tv in enumerate(tpts):
                osc = vss * math.cos(nuv * tv) + wss * math.sin(nuv * tv)
                vals[i] += osc * tv**s * math.exp(muv * tv)
    else:
        tpts, xpts = ws, other
        vals = np.zeros((len(tpts), len(xpts)))
        cosx, sinx = np.cos(nuv * xpts), np.sin(nuv * xpts)
        for i, tv in enumerate(tpts):
            pv = eval_numeric(phi, {"t": float(tv), **params}) + muv
            ex = np.exp(pv * xpts)
            for s, (vss, wss) in enumerate(layers):
                osc = vss[i] * cosx + wss[i] * sinx
                vals[i] += osc * xpts**s * ex
    prov = {
        "method": "generalized-reduction-rk4",
        "family": family,
        "n_steps": n_steps,
        "step_halving_err": err,
    }
    return _grid_solution(eq, tpts, xpts, vals, prov)


# --- nonlocal generation ---------------------------------------------------------


def generate_nonlocal(eq, h, x0, t0, v0, grid=None, phi0_value=0.0):
    """New solution from a known one by the nonlocal formula

    u = e^{phi x} int_{x0}^{x} e^{-phi x'} h(t, x') dx'
        + (int_{t0}^{t} sum_k A^k sum_i phi^{k-i-1} h_i(t', x0)
           e^{-phi x0 - w} dt' + v0) e^{phi x + w(t)},

    with w(t) = int_{t0}^{t} sum_{k=2}^{r} A^k phi^k dt', evaluated by
    adaptive quadrature on the points of grid, default_grid(r) when
    omitted; the integrals of a grid row are batched, and each equals
    QAGS' own bit for bit.  h must be a certified symbolic solution;
    phi0_value fixes the integration constant of phi.  A value out of the
    float range exits 3.
    """
    eq = as_reduced(eq)
    r = eq.r
    x0, t0, v0 = _finite("x0", x0), _finite("t0", t0), _finite("v0", v0)
    phi0_value = _finite("phi0_value", phi0_value)
    phi = _phi_of(eq, sym("phi0"))
    hexpr, _params = _solution_expr(eq, h)
    if _params:
        raise InputError("bind the free parameters of h before generating")
    g, bseries = _nonlocal_integrands(eq, phi, hexpr, x0)
    tpts, xpts = (grid or default_grid(r)).points()
    tpts, xpts = [float(v) for v in tpts], [float(v) for v in xpts]
    with _float_range("nonlocal generation"):
        vals = _nonlocal_values(g, phi, bseries, hexpr, x0, t0, v0, phi0_value, tpts, xpts)
    prov = {
        "method": "nonlocal-generation",
        "h": to_str(hexpr),
        "x0": x0,
        "t0": t0,
        "v0": v0,
        "phi0_value": phi0_value,
    }
    return _grid_solution(eq, tpts, xpts, vals, prov)


def _nonlocal_integrands(eq, phi, h, x0):
    """The exp-rate g and the boundary series
    sum_k A^k sum_{i<k} phi^{k-i-1} h_i at x = x0 of the nonlocal formula."""
    hs = [h]
    for _ in range(eq.r - 1):
        hs.append(differentiate(hs[-1], x))
    x0r = _rat(x0)
    hx0 = [substitute(hi, {x: x0r}) for hi in hs]
    bseries = _dot(
        *[(Ak * _pow0(phi, k - i - 1), hx0[i])
          for k, Ak in _rate_coeffs(eq).items() if Ak != 0 for i in range(k)]
    )
    return _exp_rate(eq, phi), normalize(bseries).as_expr()


def _nonlocal_values(g, phi, bseries, h, x0, t0, v0, phi0_value, tpts, xpts):
    """generate_nonlocal's values on tpts x xpts, row by row.

    w at every grid time and at the first-pass nodes of every boundary
    integral comes from one quad_many on g, read as the loop reaches each
    of them, and a row's x-integrals from one quad_many on its integrand,
    whose h values are evaluated for blocks of rows at once.  The boundary
    integral is a scalar quad whose integrand integrates g itself where it
    asks for another w.  The values, warnings and errors are those of a
    scalar quad per integral, in the same order."""
    phifun, bfun, hfun = map(numeric_function, (phi, bseries, h))
    gnum, gmany = _time_integrand(g, phi0_value)
    ts = [sv for tv in tpts for sv in [tv] + first_pass_nodes(t0, tv)]
    ws, k = quad_many(gnum, gmany, t0, ts, QUAD_TOL, QUAD_TOL), 0

    # the loop asks for w at the points of ts in their order, and in
    # between at the nodes of later boundary passes, which ts leaves out
    def wof(sv):
        nonlocal k
        if k < len(ts) and ts[k] == sv:
            k += 1
            return next(ws)[0]
        return quad(gnum, t0, sv, epsabs=QUAD_TOL, epsrel=QUAD_TOL)[0]

    def bnum(sv):
        env = {"t": sv, "phi0": phi0_value}
        psv = phifun(env)
        return bfun(env) * math.exp(-psv * x0 - wof(sv))

    # every row's x-integrals have the same nodes: h is evaluated there on
    # blocks of rows of at most MAX_GRID_POINTS values, and e^(-phi x) is
    # kept while phi stays the same; each holds its last value only
    last_h, last_decay = {}, {}

    def h_row(i, xvs):
        n = max(1, MAX_GRID_POINTS // len(xvs))
        lo = i - i % n
        key = (lo, xvs.tobytes())
        if key not in last_h:
            last_h.clear()
            # a block that raises is evaluated once: its rows integrate one by one
            last_h[key] = None
            last_h[key] = eval_grid(h, tpts[lo : lo + n], xvs.tolist())
        if last_h[key] is None:
            raise EvalDomainError("h raised on this block of rows")
        return last_h[key][i - lo]

    def decay(pv, xvs):
        key = (pv, xvs.tobytes())
        if key not in last_decay:
            last_decay.clear()
            last_decay[key] = np.array([math.exp(-pv * xv) for xv in xvs.tolist()])
        return last_decay[key]

    vals = []
    for i, tv in enumerate(tpts):
        pv = phifun({"t": tv, "phi0": phi0_value})
        wv = wof(tv)
        bv = quad(bnum, t0, tv, epsabs=QUAD_TOL, epsrel=QUAD_TOL)[0]

        def hker(xv, tv=tv, pv=pv):
            return math.exp(-pv * xv) * hfun({"t": tv, "x": xv})

        def hmany(xvs, i=i, pv=pv):
            return decay(pv, xvs) * h_row(i, xvs)

        inners = quad_many(hker, hmany, x0, xpts, QUAD_TOL, QUAD_TOL)
        vals.append(
            [
                math.exp(pv * xv) * inner + (bv + v0) * math.exp(pv * xv + wv)
                for xv, (inner, _) in zip(xpts, inners)
            ]
        )
    return vals
