"""Equivalence transformations of linear evolution equations.

Point transformations t~ = T(t), x~ = X1(t) x + X0(t), u~ = U1 u + U0(t,x)
map the class u_t = A^k u_k + B to itself.  The subgroup preserving the
reduced form (A^r = 1, A^{r-1} = 0, B = 0) has X1 = eps (T_t)^{1/r} with
eps^r = 1 and U1 = U1(t); gauge transformations use a free X1.

Coefficient pushforwards are computed by operator conjugation: derivatives
of u~ are carried as expressions linear in u, u_1, ..., eliminating u_t via
the equation, and the transformed coefficients are read off triangularly.
"""

from dataclasses import dataclass, field

from sympy import Add, Expr, Pow, Rational, S, expand

from .errors import InputError, InternalError, UnsupportedError
from .kernel import (
    AbsV,
    Exp,
    Ln,
    Sgn,
    Verdict,
    as_exact,
    differentiate,
    integrate,
    is_zero,
    normalize,
    parse_expr,
    substitute,
    t,
    x,
)
from .model import (
    EvolutionEquation,
    ReducedEquation,
    VectorField,
    _combination,
    _slot_coords,
    embed_reduced,
)
from .verify import residual_symbolic

__all__ = [
    "CatalogEntry",
    "EquivTransformation",
    "GaugeReport",
    "adjoint_chain",
    "adjoint_general",
    "adjoint_pushforward",
    "canonicalize_1d",
    "compose",
    "compose_scalar",
    "equivalence_flow",
    "expand_special",
    "find_particular_solution",
    "gauge_all",
    "gauge_inhomogeneity",
    "gauge_leading",
    "gauge_subleading",
    "identity_transformation",
    "infinitesimal_action",
    "invert",
    "invert_scalar",
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
    # e is validated, and so is each of its subtrees
    if e.args:
        e = e.func(*[_expand_special(a) for a in e.args])
    if isinstance(e, Ln) and isinstance(e.args[0], Exp):
        return e.args[0].args[0]
    if isinstance(e, Exp):
        arg = expand(e.args[0])
        terms = arg.as_ordered_terms() if isinstance(arg, Add) else [arg]
        powers = S.One
        rest = []
        for term in terms:
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


def nth_root(f, r):
    """Real r-th root of f.  Monomials get exact per-factor roots; other
    expressions fall back to sgn/abs powers (domain handled by callers)."""
    nf = normalize(f)
    if nf.num == 0:
        return S.Zero
    e = nf.as_expr()
    if nf.den == 1 and len(nf.num_terms) == 1:
        ((key, coeff),) = nf.num_terms.items()
        c = Rational(coeff)
        out = S.One
        if c < 0:
            if r % 2 == 0:
                raise UnsupportedError("even-order root of a negative coefficient")
            out = S.NegativeOne
            c = -c
        if c != 1:
            out *= Pow(c, Rational(1, r))
        for base, expo in key:
            q = Rational(expo, r)
            if isinstance(base, Exp):
                out *= Exp(q * base.args[0])
            elif isinstance(base, AbsV):
                out *= Pow(base, q)
            elif isinstance(base, Sgn):
                out *= Pow(base, expo % 2)
            elif q.is_Integer:
                if r % 2 == 1 or q % 2 == 0:
                    out *= Pow(base, q)
                else:
                    out *= Pow(AbsV(base), q)
            else:
                if r % 2 == 1:
                    out *= Pow(Sgn(base), expo % 2) * Pow(AbsV(base), q)
                else:
                    out *= Pow(AbsV(base), q)
        return normalize(out).as_expr()
    if r % 2 == 1:
        return normalize(Sgn(e) * Pow(AbsV(e), Rational(1, r))).as_expr()
    return normalize(Pow(AbsV(e), Rational(1, r))).as_expr()


# --- invertible scalar catalog -----------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    family: str
    params: tuple
    T: Expr
    T_inverse: Expr
    domain: str


def _tfree(e):
    return t not in e.free_symbols


def recognize_scalar(f):
    """Match f(t) against the invertible families: affine a*t+c,
    power a*t^q+c, exponential a*exp(b*t)+c, logarithm a*ln(b*t+c)+d.
    Returns a CatalogEntry or None."""
    f = normalize(f).as_expr()
    fp = differentiate(f, t)
    if fp == 0:
        return None
    if _tfree(fp):
        a = fp
        c = normalize(f - a * t).as_expr()
        if not _tfree(c):
            return None
        return CatalogEntry("affine", (a, c), f, normalize((t - c) / a).as_expr(), "all t")
    fpp = differentiate(fp, t)
    # exponential: f''/f' = b constant, nonzero
    b = normalize(fpp / fp).as_expr()
    if _tfree(b) and b != 0:
        a = normalize(fp * Exp(-b * t) / b).as_expr()
        if _tfree(a):
            c = normalize(f - a * Exp(b * t)).as_expr()
            if _tfree(c):
                inv = normalize(expand_special(Ln((t - c) / a) / b)).as_expr()
                dom = _ratio_domain(a, c)
                return CatalogEntry("exp", (a, b, c), f, inv, dom)
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
                        inv = normalize(Sgn(s) * Pow(AbsV(s), 1 / q)).as_expr()
                        dom = "all t"
                    else:
                        inv = normalize(Pow((t - c) / a, 1 / q)).as_expr()
                        dom = "t > 0 (source); " + _ratio_domain(a, c) + " (target)"
                    return CatalogEntry("power", (a, q, c), f, inv, dom)
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
        inv = normalize(expand_special((Exp((t - d) / a) - cc) / db)).as_expr()
        return CatalogEntry("log", (a, db, cc, d), f, inv, f"{db}*t + {cc} > 0")
    return None


def _ratio_domain(a, c):
    if a.is_Rational:
        return f"t > {c}" if a > 0 else f"t < {c}"
    return f"(t - ({c}))/({a}) > 0"


def invert_scalar(f):
    entry = recognize_scalar(f)
    if entry is None:
        raise UnsupportedError("time map outside the invertible catalog")
    return entry


# --- transformations ----------------------------------------------------------


@dataclass(frozen=True)
class EquivTransformation:
    """t~ = T(t), x~ = X1 x + X0, u~ = U1 u + U0.

    X1 defaults to eps*(T_t)^{1/r}, the constraint of the reduced-class
    equivalence group; gauge transformations pass an explicit X1."""

    r: int
    T: Expr = t
    X0: Expr = S.Zero
    U1: Expr = S.One
    U0: Expr = S.Zero
    eps: int = 1
    X1: Expr = None

    def __post_init__(self):
        if not (isinstance(self.r, int) and self.r >= 3):
            raise InputError("order r must be an integer >= 3")
        if self.eps not in (1, -1):
            raise InputError("eps must be +1 or -1")
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
            if self.r % 2 == 0 and is_zero(AbsV(Tt) + Tt) is Verdict.ZERO:
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

    @property
    def X_expr(self):
        return self.X1 * x + self.X0

    def inverse_map(self):
        """Substitution {t, x} -> old coordinates as functions of the new."""
        if self.T == t:
            tin = t
        else:
            tin = invert_scalar(self.T).T_inverse
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
        def rd(key, default):
            v = doc.get(key, default)
            return parse_expr(v, declared=params) if isinstance(v, str) else as_exact(v)

        eps = doc.get("eps", 1)
        if eps not in (1, -1):
            raise InputError("eps must be +1 or -1")
        x1 = rd("X1", None) if "X1" in doc else None
        return cls(r, rd("T", t), rd("X0", 0), rd("U1", 1), rd("U0", 0), eps, x1)


def identity_transformation(r):
    return EquivTransformation(r)


# --- operator conjugation -----------------------------------------------------
# states (g, cs) stand for g + sum cs[i] * u_i with u_i the i-th x-derivative


def _st_dx(st):
    g, cs = st
    out = [differentiate(cs[0], x)]
    for i in range(1, len(cs)):
        out.append(differentiate(cs[i], x) + cs[i - 1])
    out.append(cs[-1])
    return (differentiate(g, x), out)


def _st_scale(st, f):
    g, cs = st
    return (normalize(f * g).as_expr(), [normalize(f * c).as_expr() for c in cs])


def _st_sub(a, b):
    ga, ca = a
    gb, cb = b
    n = max(len(ca), len(cb))
    ca = ca + [S.Zero] * (n - len(ca))
    cb = cb + [S.Zero] * (n - len(cb))
    return (ga - gb, [p - q for p, q in zip(ca, cb)])


def pushforward_equation(eq, tr):
    """Transformed equation: coefficients of the image of eq under tr,
    expressed in the new coordinates."""
    eq = embed_reduced(eq)
    r = eq.r
    if tr.r != r:
        raise InputError("transformation order does not match the equation")
    Xe = tr.X_expr
    Tt = differentiate(tr.T, t)
    Xx = tr.X1
    Xt = differentiate(Xe, t)

    rhs = (eq.B, list(eq.A))
    rhs_dx = [rhs]
    # u~ and its x~-derivatives
    base = (tr.U0, [tr.U1])
    xder = [base]
    for _k in range(r):
        xder.append(_st_scale(_st_dx(xder[-1]), 1 / Xx))
    # t~-derivative: total t-derivative of u~ eliminating u_t, then chain rule
    g, cs = base
    dt_g = differentiate(g, t)
    dt_cs = [differentiate(c, t) for c in cs]
    acc = (dt_g, dt_cs)
    for i, c in enumerate(cs):
        if c == 0:
            continue
        while len(rhs_dx) <= i:
            rhs_dx.append(_st_dx(rhs_dx[-1]))
        gi, ci = rhs_dx[i]
        acc = _st_sub(acc, _st_scale((gi, ci), -c))
    ut = _st_scale(_st_sub(acc, _st_scale(_st_dx(base), Xt / Xx)), 1 / Tt)

    # triangular readoff of the transformed coefficients
    Atil = [S.Zero] * (r + 1)
    resid = ut
    for k in range(r, 0, -1):
        ck = resid[1][k] if k < len(resid[1]) else S.Zero
        lead = xder[k][1][k]
        Ak = normalize(ck / lead).as_expr()
        Atil[k] = Ak
        if Ak != 0:
            resid = _st_sub(resid, _st_scale(xder[k], Ak))
    A0 = normalize(resid[1][0] / tr.U1).as_expr()
    Atil[0] = A0
    resid = _st_sub(resid, _st_scale(base, A0))
    Btil = normalize(resid[0]).as_expr()
    for c in resid[1]:
        if is_zero(c) is not Verdict.ZERO:
            raise InternalError("conjugation left an unresolved derivative term")

    inv = tr.inverse_map()
    return EvolutionEquation(
        r, tuple(_pull_back(a, inv) for a in Atil), _pull_back(Btil, inv)
    )


def compose(tr1, tr2):
    """The single transformation equal to tr2 after tr1."""
    if tr1.r != tr2.r:
        raise InputError("orders do not match")
    r = tr1.r
    T = compose_scalar(tr2.T, tr1.T)
    if recognize_scalar(T) is None and T != t:
        raise UnsupportedError("composed time map leaves the invertible catalog")
    push = {t: tr1.T, x: tr1.X_expr}
    X1_2 = _pull_back(tr2.X1, push)
    U1_2 = _pull_back(tr2.U1, push)
    # the constructor stores the normal forms of these
    X1 = X1_2 * tr1.X1
    X0 = X1_2 * tr1.X0 + compose_scalar(tr2.X0, tr1.T)
    U1 = U1_2 * tr1.U1
    U0 = U1_2 * tr1.U0 + _pull_back(tr2.U0, push)
    eps = tr1.eps * tr2.eps
    if r % 2 == 1:
        eps = 1
    return EquivTransformation(r, T, X0, U1, U0, eps, X1)


def invert(tr):
    r = tr.r
    inv = tr.inverse_map()
    tin = inv[t]
    X1i = normalize(1 / compose_scalar(tr.X1, tin)).as_expr()
    X0i = normalize(-compose_scalar(tr.X0, tin) * X1i).as_expr()
    U1i = normalize(1 / _pull_back(tr.U1, inv)).as_expr()
    U0i = normalize(-_pull_back(tr.U0, inv) * U1i).as_expr()
    return EquivTransformation(r, tin, X0i, U1i, U0i, tr.eps, X1i)


# --- gauging -------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeReport:
    chain: tuple
    target_form: str
    residual_checks: tuple = field(default_factory=tuple)

    def combined(self):
        tr = None
        for step in self.chain:
            tr = step if tr is None else compose(tr, step)
        return tr


def gauge_leading(eq):
    """Normalize the leading coefficient to 1 by t~ = int A^r dt, x~ = x."""
    eq = embed_reduced(eq)
    r = eq.r
    a = eq.A[r]
    if x in a.free_symbols:
        raise UnsupportedError("leading coefficient must depend on t only")
    if a == 1:
        return eq, GaugeReport((), "leading-normalized", ())
    if r % 2 == 0:
        if is_zero(AbsV(a) - a) is not Verdict.ZERO:
            raise UnsupportedError("even order requires a positive leading coefficient")
    else:
        if (
            is_zero(AbsV(a) - a) is not Verdict.ZERO
            and is_zero(AbsV(a) + a) is not Verdict.ZERO
        ):
            raise UnsupportedError("leading coefficient must have a fixed sign")
    T = integrate(a, t)
    if T is None:
        raise UnsupportedError("no closed-form antiderivative for the leading coefficient")
    tr = EquivTransformation(r, T=T, X1=S.One)
    out = pushforward_equation(eq, tr)
    check = is_zero(out.A[r] - 1)
    if check is not Verdict.ZERO:
        raise InternalError("leading gauge failed its post-hoc check")
    return out, GaugeReport((tr,), "leading-normalized", (check,))


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
        return eq, GaugeReport((), "subleading-gauged", ())
    prim = integrate(b, x)
    if prim is None:
        raise UnsupportedError("no closed-form antiderivative for the subleading coefficient")
    tr = EquivTransformation(r, U1=expand_special(Exp(Rational(1, r) * prim)), X1=S.One)
    out = pushforward_equation(eq, tr)
    check = is_zero(out.A[r - 1])
    if check is not Verdict.ZERO:
        raise InternalError(f"subleading gauge failed its post-hoc check ({check})")
    return out, GaugeReport((tr,), "subleading-gauged", (check,))


def gauge_inhomogeneity(eq, w):
    """Remove B by u~ = u - w, w a particular solution of the equation."""
    eq = embed_reduced(eq)
    r = eq.r
    if is_zero(eq.A[r] - 1) is not Verdict.ZERO or is_zero(eq.A[r - 1]) is not Verdict.ZERO:
        raise InputError("gauge the leading and subleading coefficients first")
    w = as_exact(w)
    pre = is_zero(residual_symbolic(eq, w))
    if pre is not Verdict.ZERO:
        raise InputError("w is not a particular solution of the equation")
    if eq.B == 0 and normalize(w).num == 0:
        return ReducedEquation(r, eq.A[: r - 1]), GaugeReport((), "reduced-homogeneous", ())
    tr = EquivTransformation(r, U0=-w, X1=S.One)
    out = pushforward_equation(eq, tr)
    check = is_zero(out.B)
    if check is not Verdict.ZERO:
        raise InternalError("inhomogeneity gauge failed its post-hoc check")
    return (
        ReducedEquation(r, out.A[: r - 1]),
        GaugeReport((tr,), "reduced-homogeneous", (pre, check)),
    )


def find_particular_solution(eq, ansatz_degree):
    """Polynomial w with w_t = A^k w_k + B, bidegree (dt, dx), or None."""
    eq = embed_reduced(eq)
    dt_, dx_ = ansatz_degree
    for e in eq.A + (eq.B,):
        nf = normalize(e)
        if nf.den != 1:
            raise InputError("polynomial coefficients required")
        for key in nf.num_terms:
            for base, expo in key:
                if base not in (t, x) or not expo.is_Integer or expo < 0:
                    raise InputError("polynomial coefficients required")
    monos = [(i, j) for i in range(dt_ + 1) for j in range(dx_ + 1)]

    def residual(w):
        return differentiate(w, t) - sum(
            eq.A[k] * differentiate(w, x, k) for k in range(eq.r + 1)
        )

    residuals = [residual(Pow(t, i) * Pow(x, j)) for i, j in monos]
    part = _combination(_slot_coords(residuals + [eq.B])[1])
    if part is None:
        return None
    return normalize(
        Add(*[Rational(c) * Pow(t, i) * Pow(x, j) for c, (i, j) in zip(part, monos)])
    ).as_expr()


def gauge_all(eq, particular=None, max_degree=6):
    """Full pipeline to the reduced form; returns (ReducedEquation, GaugeReport).

    `particular` is a particular solution of the *input* equation; it is
    transported through the leading/subleading gauges before being used to
    absorb the inhomogeneity.  When omitted, a polynomial one is searched for
    on the input equation, where the coefficients are still polynomial.
    """
    eq = embed_reduced(eq)
    if particular is None:
        if eq.B == 0:
            particular = S.Zero
        else:
            for d in range(1, max_degree + 1):
                particular = find_particular_solution(eq, (d, d + eq.r))
                if particular is not None:
                    break
            if particular is None:
                raise UnsupportedError(
                    "no polynomial particular solution found; pass one explicitly"
                )
    eq1, rep1 = gauge_leading(eq)
    eq2, rep2 = gauge_subleading(eq1)
    done = GaugeReport(rep1.chain + rep2.chain, "").combined()
    if done is not None:
        particular = transport_solution(particular, done)
    red, rep3 = gauge_inhomogeneity(eq2, particular)
    return red, GaugeReport(
        rep1.chain + rep2.chain + rep3.chain,
        "reduced-homogeneous",
        rep1.residual_checks + rep2.residual_checks + rep3.residual_checks,
    )


# --- equivalence algebra -------------------------------------------------------


def infinitesimal_action(gen, eq):
    """Coefficient directions (dA^0 ... dA^{r-2}) of an equivalence generator
    acting on a reduced equation; matches d/de at e=0 of the finite action."""
    kind, fn = gen
    fn = as_exact(fn)
    r = eq.r
    A = eq.A
    out = []
    if kind == "D":
        tau = fn
        tau_t = differentiate(tau, t)
        for j in range(r - 1):
            dj = (
                -Rational(r - j, r) * tau_t * A[j]
                - tau * differentiate(A[j], t)
                - Rational(1, r) * tau_t * x * differentiate(A[j], x)
            )
            if j == 1:
                dj -= Rational(1, r) * x * differentiate(tau_t, t)
            out.append(dj)
    elif kind == "P":
        chi = fn
        for j in range(r - 1):
            dj = -chi * differentiate(A[j], x)
            if j == 1:
                dj -= differentiate(chi, t)
            out.append(dj)
    elif kind == "I":
        for j in range(r - 1):
            out.append(differentiate(fn, t) if j == 0 else S.Zero)
    else:
        raise InputError("generator kind must be one of D, P, I")
    return tuple(normalize(e).as_expr() for e in out)


def equivalence_flow(gen, eps_val, r):
    """Finite transformation at parameter e for a generator with affine tau."""
    kind, fn = gen
    fn = as_exact(fn)
    e = as_exact(eps_val)
    if kind == "D":
        b = differentiate(fn, t)
        if not _tfree(b):
            raise UnsupportedError("flow supported for affine tau only")
        a = normalize(fn - b * t).as_expr()
        if b == 0:
            T = t + a * e
        else:
            T = t * Exp(b * e) + a * (Exp(b * e) - 1) / b
        return EquivTransformation(r, T=T)
    if kind == "P":
        return EquivTransformation(r, X0=e * fn)
    if kind == "I":
        return EquivTransformation(r, U1=Exp(e * fn))
    raise InputError("generator kind must be one of D, P, I")


# --- adjoint actions -----------------------------------------------------------


def adjoint_pushforward(Q, step, r):
    """Pushforward of an essential field by one elementary transformation:
    ("D", T), ("P", X0), ("I", U1), ("X",) for even r, or ("scale", c)."""
    kind = step[0]
    tau, chi, phi, eta = Q.tau, Q.chi, Q.phi, Q.eta0
    if kind == "D":
        T = as_exact(step[1])
        Tt = differentiate(T, t)
        if r % 2 == 0 and is_zero(AbsV(Tt) + Tt) is Verdict.ZERO:
            raise InputError("even order requires T_t > 0")
        entry = invert_scalar(T)
        tin = entry.T_inverse
        root = nth_root(Tt, r)

        if eta != 0:
            # the x-preimage can leave the representable scalars (even roots
            # of sign-indefinite maps), so build it only when eta needs it
            xin = normalize(x / compose_scalar(root, tin)).as_expr()
            eta_new = _pull_back(eta, {t: tin, x: xin})
        else:
            eta_new = S.Zero
        back = {t: tin}
        return VectorField(
            _pull_back(Tt * tau, back),
            _pull_back(root * chi, back),
            _pull_back(phi, back),
            eta_new,
        )
    if kind == "P":
        X0 = as_exact(step[1])
        chi_new = chi + tau * differentiate(X0, t) - Rational(1, r) * differentiate(tau, t) * X0
        eta_new = substitute(eta, {x: x - X0}) if eta != 0 else S.Zero
        return VectorField(tau, chi_new, phi, eta_new)
    if kind == "I":
        U1 = as_exact(step[1])
        if is_zero(U1) is not Verdict.NONZERO:
            raise InputError("U1 must be certifiably nonzero")
        phi_new = phi + tau * differentiate(U1, t) / U1
        return VectorField(tau, chi, phi_new, U1 * eta)
    if kind == "X":
        if r % 2 == 1:
            raise InputError("the reflection exists only for even order")
        eta_new = substitute(eta, {x: -x}) if eta != 0 else S.Zero
        return VectorField(tau, -chi, phi, eta_new)
    if kind == "scale":
        c = as_exact(step[1])
        return VectorField(c * tau, c * chi, c * phi, c * eta)
    raise InputError(f"unknown elementary transformation {kind!r}")


def adjoint_chain(Q, chain, r):
    for step in chain:
        Q = adjoint_pushforward(Q, step, r)
    return Q


def adjoint_general(Q, tr):
    """Pushforward by a reduced-class group element, via its factorization
    into elementary transformations (I, then P, then X, then D)."""
    r = tr.r
    Tt = differentiate(tr.T, t)
    root = nth_root(Tt, r)
    s = normalize(tr.X0 / root).as_expr()
    chain = [("I", tr.U1), ("P", s if tr.eps == 1 else normalize(-s).as_expr())]
    if tr.eps == -1:
        chain.append(("X",))
    chain.append(("D", tr.T))
    return adjoint_chain(Q, chain, r)


# --- canonical one-dimensional subalgebras --------------------------------------


def _sign_certificate(f, assume=None):
    if is_zero(AbsV(f) - f, assume=assume) is Verdict.ZERO:
        return 1
    if is_zero(AbsV(f) + f, assume=assume) is Verdict.ZERO:
        return -1
    return 0


def canonicalize_1d(Q, r, assume=None):
    """Representative of <Q> among <D(1)>, <P(1)+I(phi)>, <I(1)>, <I(t)>,
    with the elementary chain that realizes it."""
    if is_zero(Q.eta0, assume=assume) is not Verdict.ZERO:
        raise UnsupportedError("canonicalization applies to essential fields only")
    chain = []
    tau, chi, phi = Q.tau, Q.chi, Q.phi
    if is_zero(tau, assume=assume) is not Verdict.ZERO:
        sgn = _sign_certificate(tau, assume=assume)
        if r % 2 == 0:
            if sgn == 0:
                raise UnsupportedError("sign of tau must be definite for even order")
            if sgn < 0:
                chain.append(("scale", S.NegativeOne))
                tau, chi, phi = -tau, -chi, -phi
        T = integrate(normalize(1 / tau).as_expr(), t)
        if T is None or recognize_scalar(T) is None:
            raise UnsupportedError("int dt/tau leaves the invertible catalog")
        chain.append(("D", T))
        Q1 = adjoint_chain(Q, chain, r)
        if is_zero(Q1.chi, assume=assume) is not Verdict.ZERO:
            X0 = integrate(normalize(-Q1.chi).as_expr(), t)
            if X0 is None:
                raise UnsupportedError("int chi dt outside the closed-form catalog")
            chain.append(("P", X0))
        Q2 = adjoint_chain(Q, chain, r)
        if is_zero(Q2.phi, assume=assume) is not Verdict.ZERO:
            ph = integrate(normalize(-Q2.phi).as_expr(), t)
            if ph is None:
                raise UnsupportedError("int phi dt outside the closed-form catalog")
            U1 = normalize(expand_special(Exp(ph))).as_expr()
            chain.append(("I", U1))
        canonical = VectorField(tau=S.One)
    elif is_zero(chi, assume=assume) is not Verdict.ZERO:
        unit = None
        if chi != 1:
            sgn = _sign_certificate(chi, assume=assume)
            if r % 2 == 0 and sgn == 0:
                raise UnsupportedError("sign of chi must be definite for even order")
            Tt = normalize(Pow(chi, -r)).as_expr()
            T = integrate(Tt, t)
            if T is None or recognize_scalar(T) is None:
                raise UnsupportedError("int chi^-r dt leaves the invertible catalog")
            chain.append(("D", T))
            if r % 2 == 0 and sgn < 0:
                chain.append(("X",))
        Q1 = adjoint_chain(Q, chain, r)
        unit = is_zero(Q1.chi - 1, assume=assume)
        if unit is not Verdict.ZERO:
            raise InternalError("translation part did not normalize to 1")
        canonical = VectorField(chi=S.One, phi=Q1.phi)
    elif is_zero(phi, assume=assume) is not Verdict.ZERO:
        if _tfree(phi):
            chain.append(("scale", normalize(1 / phi).as_expr()))
            canonical = VectorField(phi=S.One)
        else:
            entry = recognize_scalar(phi)
            if entry is None:
                raise UnsupportedError("phi outside the invertible catalog")
            chain.append(("D", phi))
            canonical = VectorField(phi=t)
    else:
        raise InputError("cannot canonicalize the zero field")
    got = adjoint_chain(Q, chain, r)
    for slot in ("tau", "chi", "phi"):
        if is_zero(getattr(got, slot) - getattr(canonical, slot), assume=assume) is not Verdict.ZERO:
            raise InternalError("canonicalization chain failed verification")
    return canonical, chain


# --- solution transport ----------------------------------------------------------


def transport_solution(h, tr):
    """Image of a solution: u~(t~,x~) = U1 h + U0 at the preimage point."""
    expr = tr.U1 * as_exact(h) + tr.U0
    return _pull_back(expr, tr.inverse_map())
