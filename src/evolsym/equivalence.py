"""Equivalence transformations of linear evolution equations.

Point transformations t~ = T(t), x~ = X1(t) x + X0(t),
u~ = U1(t,x) u + U0(t,x) map the class u_t = A^k u_k + B to itself.  The
subgroup preserving the reduced form (A^r = 1, A^{r-1} = 0, B = 0) has
X1 = eps (T_t)^{1/r} with eps^r = 1 and U1 = U1(t); gauge transformations
use a free X1 and an x-dependent U1.

Coefficient pushforwards use the closed formula for this class (see
pushforward_equation): each transformed coefficient is one expression in
the old coordinates, normalized once and pulled back to the new ones.
"""

from dataclasses import dataclass, field
from math import comb

from sympy import Add, Expr, Pow, Rational, S, expand

from .errors import InputError, InternalError, UnsupportedError
from .kernel import (
    AbsV,
    Exp,
    Ln,
    Sgn,
    Verdict,
    as_exact,
    derivative_terms,
    differentiate,
    integrate,
    is_zero,
    normalize,
    read_expr,
    substitute,
    t,
    x,
)
from .kernel.normalform import nth_root, polynomial
from .model import (
    EvolutionEquation,
    ReducedEquation,
    VectorField,
    _combination,
    _reduced_shape,
    _slot_coords,
    embed_reduced,
)
from .symmetry import classifying_residuals
from .verify import residual_symbolic

__all__ = [
    "EquivTransformation",
    "adjoint_general",
    "compose_scalar",
    "equivalence_flow",
    "expand_special",
    "find_particular_solution",
    "gauge_all",
    "gauge_inhomogeneity",
    "gauge_leading",
    "gauge_subleading",
    "infinitesimal_action",
    "nth_root",
    "pushforward_equation",
    "recognize_scalar",
    "transport_solution",
]


# --- structural rewriting ----------------------------------------------------


def expand_special(e):
    """Rewrite exp(c*ln(s) + rest) -> s^c * exp(rest) and ln(exp(z)) -> z.

    Needed after substituting a catalog inverse: compositions like
    exp(b * (ln(s)/b)) must collapse back to s."""
    return _expand_special(as_exact(e))


def _expand_special(e):
    # e is validated, and so is each of its subtrees; a node is rebuilt
    # only when a child changed, so an unchanged tree comes back as itself
    if e.args:
        args = [_expand_special(a) for a in e.args]
        if any(a is not b for a, b in zip(args, e.args)):
            e = e.func(*args)
    if isinstance(e, Ln) and isinstance(e.args[0], Exp):
        return e.args[0].args[0]
    if isinstance(e, Exp) and e.args[0].has(Ln):
        powers = S.One
        rest = []
        for term in Add.make_args(expand(e.args[0])):
            c, m = term.as_coeff_Mul()
            if isinstance(m, Ln) and c.is_Rational:
                powers *= Pow(m.args[0], c)
            else:
                rest.append(term)
        if powers != 1:
            return powers * (Exp(Add(*rest)) if rest else S.One)
    return e


def _pull_back(e, mapping):
    """e with the symbols of mapping substituted, exp/ln compositions
    folded by expand_special, as a normal form."""
    return normalize(expand_special(substitute(e, mapping))).as_expr()


def compose_scalar(f, g):
    """f(g(t)) as a tidied expression in t."""
    return _pull_back(f, {t: g})


# --- invertible scalar catalog -----------------------------------------------


def _tfree(e):
    return t not in e.free_symbols


def recognize_scalar(f):
    """Match f(t) against the invertible families: affine a*t+c,
    power a*t^q+c, exponential a*exp(b*t)+c, logarithm a*ln(b*t+c)+d.
    Returns the inverse map, old t as a function of the new, or None."""
    f = normalize(f).as_expr()
    fp = differentiate(f, t)
    if fp == 0:
        return None
    if _tfree(fp):
        a = fp
        c = normalize(f - a * t).as_expr()
        if not _tfree(c):
            return None
        return normalize((t - c) / a).as_expr()
    fpp = differentiate(fp, t)
    # exponential: f''/f' = b constant, nonzero
    b = normalize(fpp / fp).as_expr()
    if _tfree(b) and b != 0:
        a = normalize(fp * Exp(-b * t) / b).as_expr()
        if _tfree(a):
            c = normalize(f - a * Exp(b * t)).as_expr()
            if _tfree(c):
                return normalize(expand_special(Ln((t - c) / a) / b)).as_expr()
    # power: t f''/f' = q - 1 constant
    qm1 = normalize(t * fpp / fp).as_expr()
    if _tfree(qm1):
        q = normalize(qm1 + 1).as_expr()
        if q.is_Rational and q != 0 and q != 1:
            a = normalize(fp / (q * Pow(t, q - 1))).as_expr()
            if _tfree(a):
                c = normalize(f - a * Pow(t, q)).as_expr()
                if _tfree(c):
                    if q.is_Integer and q > 0 and q % 2 == 1:
                        s = (t - c) / a
                        return normalize(Sgn(s) * Pow(AbsV(s), 1 / q)).as_expr()
                    return normalize(Pow((t - c) / a, 1 / q)).as_expr()
    # logarithm: read the Ln atom directly
    for node in f.atoms(Ln):
        arg = node.args[0]
        db = differentiate(arg, t)
        if not _tfree(db) or db == 0:
            continue
        cc = normalize(arg - db * t).as_expr()
        if not _tfree(cc):
            continue
        a = normalize(fp * arg / db).as_expr()
        if not _tfree(a) or a == 0:
            continue
        d = normalize(f - a * node).as_expr()
        if not _tfree(d):
            continue
        return normalize(expand_special((Exp((t - d) / a) - cc) / db)).as_expr()
    return None


# --- transformations ----------------------------------------------------------


@dataclass(frozen=True)
class EquivTransformation:
    """t~ = T(t), x~ = X1 x + X0, u~ = U1 u + U0.

    X1 defaults to eps*(T_t)^{1/r}, the constraint of the reduced-class
    equivalence group; gauge transformations pass an explicit X1.  The
    inverse time map T_inverse is resolved once here from the invertible
    catalog, so every element can be inverted; a T outside the catalog is
    refused.  The inverse of an element passes T_inverse instead: the
    forward map of the element it inverts, whose inverse need not lie in
    the catalog."""

    r: int
    T: Expr = t
    X0: Expr = S.Zero
    U1: Expr = S.One
    U0: Expr = S.Zero
    eps: int = 1
    X1: Expr = None
    T_inverse: Expr = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.r, int) and self.r >= 3):
            raise InputError("order r must be an integer >= 3")
        if type(self.eps) is not int or self.eps not in (1, -1):
            raise InputError("transformation eps must be the integer 1 or -1")
        if self.eps == -1 and self.r % 2 == 1:
            raise InputError("eps = -1 exists only for even order")
        names = ("T", "X0", "U1", "U0")
        T, X0, U1, U0 = (as_exact(getattr(self, name)) for name in names)
        for name, c in (("T", T), ("X0", X0)):
            if x in c.free_symbols:
                raise InputError(f"{name} must not depend on x")
        Tt = differentiate(T, t)
        if is_zero(Tt) is not Verdict.NONZERO:
            raise InputError("T_t must be certifiably nonzero")
        if is_zero(U1) is not Verdict.NONZERO:
            raise InputError("U1 must be certifiably nonzero")
        if self.X1 is None:
            # for even order a certifiably negative T_t has no real root
            if self.r % 2 == 0 and _sign_certificate(Tt) == -1:
                raise InputError("even order requires T_t > 0")
            X1 = self.eps * nth_root(Tt, self.r)
        else:
            X1 = as_exact(self.X1)
            if x in X1.free_symbols:
                raise InputError("X1 must not depend on x")
            if is_zero(X1) is not Verdict.NONZERO:
                raise InputError("X1 must be certifiably nonzero")
        for name, c in zip(names + ("X1",), (T, X0, U1, U0, X1)):
            object.__setattr__(self, name, normalize(c).as_expr())
        if self.T_inverse is not None:
            T_inverse = normalize(self.T_inverse).as_expr()
        else:
            T_inverse = t if self.T == t else recognize_scalar(self.T)
            if T_inverse is None:
                raise UnsupportedError("time map outside the invertible catalog")
        object.__setattr__(self, "T_inverse", T_inverse)

    @property
    def X_expr(self):
        return self.X1 * x + self.X0

    def inverse_map(self):
        """Substitution {t, x} -> old coordinates as functions of the new."""
        tin = self.T_inverse
        X1i = compose_scalar(self.X1, tin)
        X0i = compose_scalar(self.X0, tin)
        xin = normalize((x - X0i) / X1i).as_expr()
        return {t: tin, x: xin}

    def to_doc(self):
        from .kernel import to_str

        doc = {name: to_str(getattr(self, name)) for name in ("T", "X0", "U1", "U0")}
        doc["eps"] = self.eps
        derived = self.eps * nth_root(differentiate(self.T, t), self.r)
        if normalize(self.X1 - derived).num != 0:
            doc["X1"] = to_str(self.X1)
        return doc

    @classmethod
    def from_doc(cls, doc, r, params=()):
        if not isinstance(doc, dict):
            raise InputError("transformation document must be a JSON object")

        def rd(key, default):
            return read_expr(doc, key, default, params, "transformation")

        x1 = rd("X1", None)
        eps = doc.get("eps", 1)
        return cls(r, rd("T", t), rd("X0", S.Zero), rd("U1", S.One), rd("U0", S.Zero), eps, x1)


# --- pushforward ----------------------------------------------------------------


def pushforward_equation(eq, tr):
    """Transformed equation: coefficients of the image of eq under tr,
    expressed in the new coordinates.

    With V = 1/U1 and W = -U0/U1 the old unknown is u = V u~ + W.  D, the
    old x-derivative, is X1 d/dx~ because X1 is x-free, and
    X_t = X1_t x + X0_t.  Substituting into u_t = A^k u_k + B gives

        A~^j = U1/T_t (X1^j sum_{k>=j} C(k,j) A^k D^{k-j}V - [j=1] X_t V - [j=0] V_t)
        B~   = U1/T_t (B + sum_k A^k D^k W - W_t)

    in the old coordinates; each is normalized once and pulled back."""
    eq = embed_reduced(eq)
    r = eq.r
    if tr.r != r:
        raise InputError("transformation order does not match the equation")
    A = eq.A
    scale = tr.U1 / differentiate(tr.T, t)
    V = normalize(1 / tr.U1).as_expr()
    W = S.Zero if tr.U0 == 0 else normalize(-tr.U0 / tr.U1).as_expr()
    DV = [differentiate(V, x, m) for m in range(r + 1)]

    def scaled(parts):
        # zero terms are left out, as in derivative_terms; V is x-free
        # whenever U1 is, and then DV[m] = 0 for m > 0
        a = Add(*parts)
        return S.Zero if a == 0 else normalize(scale * a).as_expr()

    Atil = []
    for j in range(r + 1):
        terms = [
            comb(k, j) * A[k] * DV[k - j]
            for k in range(j, r + 1)
            if 0 not in (A[k], DV[k - j])
        ]
        parts = [Pow(tr.X1, j) * Add(*terms)] if terms else []
        if j == 1:
            Xt = differentiate(tr.X_expr, t)
            if Xt != 0:
                parts.append(-(Xt * V))
        elif j == 0:
            parts.append(-differentiate(V, t))
        Atil.append(scaled(parts))
    Btil = scaled([eq.B, *derivative_terms(A, W, x), -differentiate(W, t)])

    inv = tr.inverse_map()
    return EvolutionEquation(
        r, tuple(_pull_back(a, inv) for a in Atil), _pull_back(Btil, inv)
    )


# --- gauging -------------------------------------------------------------------


def gauge_leading(eq):
    """Normalize the leading coefficient to 1 by t~ = int A^r dt, x~ = x.

    Like every gauge step, returns (equation, chain) with chain the tuple
    of the EquivTransformations applied, empty when nothing was to do."""
    eq = embed_reduced(eq)
    r = eq.r
    a = eq.A[r]
    if x in a.free_symbols:
        raise UnsupportedError("leading coefficient must depend on t only")
    if a == 1:
        return eq, ()
    sgn = _sign_certificate(a)
    if r % 2 == 0 and sgn != 1:
        raise UnsupportedError("even order requires a positive leading coefficient")
    if sgn == 0:
        raise UnsupportedError("leading coefficient must have a fixed sign")
    T = integrate(a, t)
    if T is None:
        raise UnsupportedError("no closed-form antiderivative for the leading coefficient")
    tr = EquivTransformation(r, T=T, X1=S.One)
    out = pushforward_equation(eq, tr)
    if is_zero(out.A[r] - 1) is not Verdict.ZERO:
        raise InternalError("leading gauge failed its post-hoc check")
    return out, (tr,)


def gauge_subleading(eq):
    """Zero the subleading coefficient by u~ = U1(t,x) u with
    U1 = exp((1/r) int A^{r-1} dx): the u~_{r-1} coefficient is
    A^{r-1} - r U1_x/U1, so this U1 is the only choice."""
    eq = embed_reduced(eq)
    r = eq.r
    if is_zero(eq.A[r] - 1) is not Verdict.ZERO:
        raise InputError("gauge the leading coefficient first")
    b = eq.A[r - 1]
    if b == 0:
        return eq, ()
    prim = integrate(b, x)
    if prim is None:
        raise UnsupportedError("no closed-form antiderivative for the subleading coefficient")
    tr = EquivTransformation(r, U1=expand_special(Exp(Rational(1, r) * prim)), X1=S.One)
    out = pushforward_equation(eq, tr)
    check = is_zero(out.A[r - 1])
    if check is not Verdict.ZERO:
        raise InternalError(f"subleading gauge failed its post-hoc check ({check})")
    return out, (tr,)


def gauge_inhomogeneity(eq, w):
    """Remove B by u~ = u - w, w a particular solution of the equation.

    The shift leaves every A^k as it is and makes B~ minus the residual of
    w, which the input check certifies zero, so nothing is pushed."""
    eq = embed_reduced(eq)
    r = eq.r
    if not _reduced_shape(eq, homogeneous=False):
        raise InputError("gauge the leading and subleading coefficients first")
    w = as_exact(w)
    if is_zero(residual_symbolic(eq, w)) is not Verdict.ZERO:
        raise InputError("w is not a particular solution of the equation")
    red = ReducedEquation(r, eq.A[: r - 1])
    if eq.B == 0 and normalize(w).num == 0:
        return red, ()
    return red, (EquivTransformation(r, U0=-w, X1=S.One),)


def find_particular_solution(eq, ansatz_degree):
    """Polynomial w with w_t = A^k w_k + B, bidegree (dt, dx), or None."""
    eq = embed_reduced(eq)
    dt_, dx_ = ansatz_degree
    for e in eq.A + (eq.B,):
        nf = normalize(e)
        if nf.den != 1 or polynomial(nf.num_terms, (t, x)) is None:
            raise InputError("polynomial coefficients required")
    monos = [(i, j) for i in range(dt_ + 1) for j in range(dx_ + 1)]

    def residual(w):
        return differentiate(w, t) - Add(*derivative_terms(eq.A, w, x))

    residuals = [residual(Pow(t, i) * Pow(x, j)) for i, j in monos]
    part = _combination(_slot_coords(residuals + [eq.B])[1])
    if part is None:
        return None
    return normalize(
        Add(*[Rational(c) * Pow(t, i) * Pow(x, j) for c, (i, j) in zip(part, monos) if c])
    ).as_expr()


# gauge_all tries polynomial particular solutions up to this t-degree
PARTICULAR_MAX_DEGREE = 6


def gauge_all(eq, particular=None):
    """Full pipeline to the reduced form; returns (ReducedEquation, chain).

    `particular` is a particular solution of the *input* equation; it is
    transported through the leading and subleading gauges, one step at a
    time, before being used to absorb the inhomogeneity.  When omitted, a
    polynomial one is searched for on the input equation, where the
    coefficients are still polynomial.
    """
    eq = embed_reduced(eq)
    if particular is None:
        if eq.B == 0:
            particular = S.Zero
        else:
            for d in range(1, PARTICULAR_MAX_DEGREE + 1):
                particular = find_particular_solution(eq, (d, d + eq.r))
                if particular is not None:
                    break
            if particular is None:
                raise UnsupportedError(
                    "no polynomial particular solution found; pass one explicitly"
                )
    eq1, chain1 = gauge_leading(eq)
    eq2, chain2 = gauge_subleading(eq1)
    for step in chain1 + chain2:
        particular = transport_solution(particular, step)
    red, chain3 = gauge_inhomogeneity(eq2, particular)
    return red, chain1 + chain2 + chain3


# --- equivalence algebra -------------------------------------------------------


def infinitesimal_action(Q, eq):
    """Coefficient directions (dA^0 ... dA^{r-2}) of the equivalence
    generator D(tau) + P(chi) + I(phi), an essential field Q, acting on a
    reduced equation; matches d/de at e=0 of the finite action.  The
    classifying conditions are this action, so it is minus the classifying
    residuals of Q."""
    if Q.eta0 != 0:
        raise InputError("an equivalence generator has eta0 = 0")
    res = classifying_residuals(eq, Q)
    return tuple(normalize(-e).as_expr() for e in res)


def equivalence_flow(Q, eps_val, r):
    """Finite transformation at parameter e of one generator: D(tau) with
    affine tau, P(chi) or I(phi), a field with exactly one of tau, chi, phi
    nonzero and eta0 = 0."""
    parts = [f != 0 for f in (Q.tau, Q.chi, Q.phi)]
    if Q.eta0 != 0 or sum(parts) != 1:
        raise InputError("a flow needs exactly one of D(tau), P(chi), I(phi)")
    e = as_exact(eps_val)
    if parts[0]:
        b = differentiate(Q.tau, t)
        if not _tfree(b):
            raise UnsupportedError("flow supported for affine tau only")
        a = normalize(Q.tau - b * t).as_expr()
        if b == 0:
            T = t + a * e
        else:
            T = t * Exp(b * e) + a * (Exp(b * e) - 1) / b
        return EquivTransformation(r, T=T)
    if parts[1]:
        return EquivTransformation(r, X0=e * Q.chi)
    return EquivTransformation(r, U1=Exp(e * Q.phi))


# --- adjoint actions -----------------------------------------------------------


def adjoint_general(Q, tr):
    """Pushforward of a field by a reduced-class group element.  With
    xi = (1/r) tau_t x + chi the image is

        tau~ = T_t tau
        chi~ = X1 chi + tau X0_t - (1/r)(tau_t + tau T_tt/T_t) X0
        phi~ = phi + tau U1_t/U1
        eta~ = U1 eta

    in the old coordinates, each pulled back once.  tau, chi and phi depend
    on t alone, so the t-preimage suffices for them; the x-preimage can
    leave the representable scalars (even roots of sign-indefinite maps),
    so it is built only when eta0 != 0.  U0 is ignored: it moves the
    equation off the reduced class and does not act on fields."""
    r = tr.r
    tau, chi, phi, eta = Q.tau, Q.chi, Q.phi, Q.eta0
    Tt = differentiate(tr.T, t)
    tau_t = differentiate(tau, t)
    chi_new = (
        tr.X1 * chi
        + tau * differentiate(tr.X0, t)
        - Rational(1, r) * (tau_t + tau * differentiate(Tt, t) / Tt) * tr.X0
    )
    phi_new = phi + tau * differentiate(tr.U1, t) / tr.U1
    inv = tr.inverse_map() if eta != 0 else {t: tr.T_inverse}
    return VectorField(
        *(_pull_back(e, inv) for e in (Tt * tau, chi_new, phi_new, tr.U1 * eta))
    )


# --- sign certificates -----------------------------------------------------------


def _sign_certificate(f):
    if is_zero(AbsV(f) - f) is Verdict.ZERO:
        return 1
    if is_zero(AbsV(f) + f) is Verdict.ZERO:
        return -1
    return 0


# --- solution transport ----------------------------------------------------------


def transport_solution(h, tr):
    """Image of a solution: u~(t~,x~) = U1 h + U0 at the preimage point."""
    expr = tr.U1 * as_exact(h) + tr.U0
    return _pull_back(expr, tr.inverse_map())
