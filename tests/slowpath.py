"""Slow paths kept as oracles for the normal form, derivatives, the
pushforward of equations, numeric evaluation and quadrature loops.

normal_form: normalize turns an expression into num/den dicts with one
recursive converter to a polynomial ring.  The code below is the path it
replaced: canonicalize atom arguments, put the expression over one
denominator with sympy's together(expand(e), deep=True), expand numerator
and denominator again term by term and canonicalize each monomial.  The back
half (ring cancellation and scaling) is shared, so any difference
between the two is a difference of the front halves.

common_numerators: the library multiplies the stored num_terms/den_terms of
normal forms; the oracle converts num and den back into ring polynomials and
multiplies those.

derivative: the library reads a derivative off the stored terms of the
normal form, with the product rule and one table of base derivatives; the
oracle differentiates the expression tree with sympy's Expr.diff and
normalizes the result.

pushforward_equation: the library writes each transformed coefficient
with the closed formula for this class and normalizes it once.  The oracle
conjugates instead: the x~- and t~-derivatives of u~ are carried as states
linear in u, u_1, ..., u_r, each entry normalized separately, u_t is
eliminated through the equation, and the transformed coefficients are read
off triangularly, one division at a time, so it makes O(r^2) normalize
calls.  Both pull the coefficients back to the new coordinates the same
way.

adjoint_general: the library moves a field by a group element with one
closed formula, each slot pulled back once.  The oracle factorizes the
element into elementary transformations (I, then P, then X, then D) and
applies the per-kind formula of each in turn.

eval_numeric: the library compiles each expression once into closures and
evaluates those at every point; the oracle walks the validated tree
recursively at every call.  Both must give the same float bit for bit, or
raise the same error.

stencil: the library computes finite-difference weights by Fornberg's
recurrence; the oracle solves the Vandermonde moment system exactly.  The
weights are unique, so both must return equal Fractions.

nullspace: the library solves each connected block of columns on its own;
the oracle runs one rref over the whole matrix and reads every free column
off the reduced rows.  The basis is one vector per free column either way,
so both must return equal lists of Fractions.

coefficient readers: the library reads polynomial and exp-polynomial
coefficients off the terms of a normal form with one reader in
kernel.normalform.  The oracles are the loops each caller used to carry:
poly_coeffs_1d (singular loci), exp_poly_groups (undetermined
coefficients, which tested an exp factor's linearity by differentiating
its argument), tx_polynomial (particular solutions) and linear_coeffs
(partial fractions).

char_value: the library counts the multiplicity of a Gaussian-rational
root by synthetic division on pairs; the oracle evaluates the polynomial
once, by Horner on pairs.

divisors: the library takes a polynomial coefficient's divisors from its
bounded prime factorization; the oracle divides by every integer up to the
square root.

dict_to_expr: the library assembles the Expr of a canonical dict in the
order that flattening gives, without flattening it; the oracle builds each
monomial with Mul(coeff, *powers) and the sum with Add, which flatten.
Both must give the same srepr, == and hash.

compose and invert: the library has no API to compose or invert group
elements; these helpers do it for the tests of the pushforward's action
law.

nonlocal_values and p1i_values: the library integrates the x-integrals of
a grid row, and w(t) at a row's time and at the first-pass nodes of its
boundary integral, in batches whose first Kronrod pass is one array
evaluation.  The oracles are the loops of generate_nonlocal and
reduce_P1Iphi as they were, one scalar quad per integral, the boundary
integrand calling the w quadrature at every node.  Both must give the same
floats bit for bit, or raise the same error.

to_str: the library's printer orders a sum's terms with sympy's key but
computes it itself, reading each exact number's float and sign off its
numerator and denominator; the oracle is the printer as it was, on
Expr.as_ordered_terms, which evaluates every coefficient with complex(),
and could_extract_minus_sign.  Both must print the same text byte for
byte.
"""

import math
from fractions import Fraction

from sympy import Add, Mul, Pow, Rational, S, Symbol, expand, together

from evolsym.equivalence import (
    EquivTransformation,
    _pull_back,
    compose_scalar,
    nth_root,
    recognize_scalar,
)
from evolsym.errors import EvalDomainError, FloatRangeError, InputError, InternalError
from evolsym.errors import UnsupportedError
from evolsym.kernel import (
    Verdict,
    differentiate,
    is_zero,
    rref,
    solve_affine,
    substitute,
    t,
    to_fraction,
    x,
)
from evolsym.kernel.atoms import ATOM_HEADS, AbsV, Cos, Exp, Ln, Sgn, Sin
from evolsym.kernel.normalform import (
    _ZERO,
    _accumulate,
    _canon_monomial,
    _canon_terms,
    _Converter,
    _finish,
    _key,
    _reduce_cos,
    _v_mul,
    as_exact,
    normalize,
)
from evolsym.kernel.numeric import ZERO_TOL, numeric_function
from evolsym.kernel.quadpack import quad
from evolsym.kernel.printer import _ADD, _ATOM, _MUL, _NEG, _POW
from evolsym.model import EvolutionEquation, VectorField, embed_reduced
from evolsym.solutions import QUAD_TOL
from evolsym.verify import _stencil_margin


def canonical_atom_args(e):
    # exp arguments are left to _canon_monomial
    if e.is_Atom or isinstance(e, Exp):
        return e
    if isinstance(e, ATOM_HEADS):
        return type(e)(normalize(e.args[0]).as_expr())
    return e.func(*(canonical_atom_args(a) for a in e.args))


def term_parts(term):
    coeff = S.One
    factors = []
    for f in Mul.make_args(term):
        if f.is_Rational:
            coeff *= f
        else:
            factors.append(f.as_base_exp())
    return coeff, factors


def dict_to_expr(d):
    # Add and Mul order their arguments themselves
    return Add(*[Mul(coeff, *[Pow(b, e) for b, e in key]) for key, coeff in d.items()])


def mono_dict(e):
    """Canonical polynomial dict of expand(e), re-expanded to a fixpoint."""
    terms = [term_parts(term) for term in Add.make_args(expand(e))]
    for _round in range(6):
        out = {}
        for coeff, factors in terms:
            if coeff == 0:
                continue
            coeff, fmap = _canon_monomial(coeff, factors)
            _accumulate(out, _key(fmap), coeff)
        _reduce_cos(out)
        if not any(
            base.is_Add and e2.is_Integer and e2 > 0 for key in out for base, e2 in key
        ):
            return out
        terms = [term_parts(term) for term in Add.make_args(expand(dict_to_expr(out)))]
    raise UnsupportedError("monomial canonicalization did not stabilize")


def normal_form(e):
    """normalize(e) computed through together(expand(e), deep=True)."""
    e = canonical_atom_args(as_exact(e))
    n0, d0 = together(expand(e), deep=True).as_numer_denom()
    dn = mono_dict(n0)
    if not dn:
        return _ZERO
    return _finish(dn, mono_dict(d0))


def common_numerators(nfs):
    """Numerator dicts over the product of the distinct denominators,
    computed by converting num and den of each normal form again."""
    dens = []
    for nf in nfs:
        if nf.den != 1 and nf.den not in dens:
            dens.append(nf.den)
    conv = _Converter(canonical=False)
    nums = [conv.rewrite(nf.num) for nf in nfs]
    dnodes = [conv.rewrite(d) for d in dens]
    conv.start()
    dens = [(d, conv.evaluate(node)) for d, node in zip(dens, dnodes)]
    out = []
    for nf, node in zip(nfs, nums):
        value = conv.evaluate(node)
        for d, dvalue in dens:
            if d != nf.den:
                value = _v_mul(conv.R, value, dvalue)
        out.append(_canon_terms(conv.value_terms(value)))
    return out


def derivative(e, var, n=1):
    """n passes of Expr.diff on as_exact(e), normalized once at the end."""
    return normalize(as_exact(e).diff(var, n)).as_expr()


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
    """pushforward_equation by conjugating the evolution operator with the
    states above, read off triangularly."""
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


def adjoint_pushforward(Q, step, r):
    """Pushforward of an essential field by one elementary transformation,
    ("D", T), ("P", X0), ("I", U1) or ("X",) for even r, each by its own
    formula."""
    kind = step[0]
    tau, chi, phi, eta = Q.tau, Q.chi, Q.phi, Q.eta0
    if kind == "D":
        T = as_exact(step[1])
        Tt = differentiate(T, t)
        if r % 2 == 0 and is_zero(AbsV(Tt) + Tt) is Verdict.ZERO:
            raise InputError("even order requires T_t > 0")
        tin = recognize_scalar(T)
        root = nth_root(Tt, r)
        if eta != 0:
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
    raise InputError(f"unknown elementary transformation {kind!r}")


def adjoint_general(Q, tr):
    """adjoint_general through the factorization of tr into elementary
    transformations: I, then P, then X, then D."""
    r = tr.r
    root = nth_root(differentiate(tr.T, t), r)
    s = normalize(tr.X0 / root).as_expr()
    chain = [("I", tr.U1), ("P", s if tr.eps == 1 else normalize(-s).as_expr())]
    if tr.eps == -1:
        chain.append(("X",))
    chain.append(("D", tr.T))
    for step in chain:
        Q = adjoint_pushforward(Q, step, r)
    return Q


def compose(tr1, tr2):
    """The single transformation equal to tr2 after tr1."""
    if tr1.r != tr2.r:
        raise InputError("orders do not match")
    r = tr1.r
    T = compose_scalar(tr2.T, tr1.T)
    push = {t: tr1.T, x: tr1.X_expr}
    X1_2 = _pull_back(tr2.X1, push)
    U1_2 = _pull_back(tr2.U1, push)
    # the constructor stores the normal forms of these
    X1 = X1_2 * tr1.X1
    X0 = X1_2 * tr1.X0 + compose_scalar(tr2.X0, tr1.T)
    U1 = U1_2 * tr1.U1
    U0 = U1_2 * tr1.U0 + _pull_back(tr2.U0, push)
    return EquivTransformation(r, T, X0, U1, U0, tr1.eps * tr2.eps, X1)


def invert(tr):
    r = tr.r
    inv = tr.inverse_map()
    tin = inv[t]
    X1i = normalize(1 / compose_scalar(tr.X1, tin)).as_expr()
    X0i = normalize(-compose_scalar(tr.X0, tin) * X1i).as_expr()
    U1i = normalize(1 / _pull_back(tr.U1, inv)).as_expr()
    U0i = normalize(-_pull_back(tr.U0, inv) * U1i).as_expr()
    return EquivTransformation(r, tin, X0i, U1i, U0i, tr.eps, X1i, T_inverse=tr.T)


def eval_numeric(e, point):
    """eval_numeric by a recursive walk of as_exact(e) at every call."""
    e = as_exact(e)
    env = {}
    for k, v in point.items():
        env[k if isinstance(k, str) else k.name] = float(v)
    try:
        return _ev(e, env)
    except (OverflowError, ValueError):  # ValueError: sin, cos or fsum of an overflow's inf
        raise FloatRangeError("numeric overflow") from None


def _ev(e, env):
    zt = ZERO_TOL
    if e.is_Rational:
        return e.p / e.q
    if isinstance(e, Symbol):
        try:
            return env[e.name]
        except KeyError:
            raise EvalDomainError(f"unbound symbol {e.name!r}") from None
    if e.is_Add:
        return math.fsum(_ev(a, env) for a in e.args)
    if e.is_Mul:
        v = 1.0
        for a in e.args:
            v *= _ev(a, env)
        if not math.isfinite(v):
            raise OverflowError("product not finite")
        return v
    if e.is_Pow:
        base, expo = e.args
        b = _ev(base, env)
        if expo.is_Integer:
            n = int(expo)
            if n < 0 and abs(b) <= zt:
                raise EvalDomainError("division by zero within tolerance")
            return b**n
        if expo.is_Rational:
            p, q = expo.p, expo.q
            if p < 0 and abs(b) <= zt:
                raise EvalDomainError("division by zero within tolerance")
            if b < 0:
                if q % 2 == 0:
                    raise EvalDomainError("even root of a negative value")
                # real odd root
                return (-1.0) ** p * abs(b) ** (p / q)
            return b ** (p / q)
        ev = _ev(expo, env)
        if b < 0:
            raise EvalDomainError("negative base under symbolic exponent")
        if abs(b) <= zt and ev < 0:
            raise EvalDomainError("division by zero within tolerance")
        return b**ev
    if isinstance(e, Exp):
        return math.exp(_ev(e.args[0], env))
    if isinstance(e, Ln):
        v = _ev(e.args[0], env)
        if v <= zt:
            raise EvalDomainError("ln of a nonpositive value")
        return math.log(v)
    if isinstance(e, Sin):
        return math.sin(_ev(e.args[0], env))
    if isinstance(e, Cos):
        return math.cos(_ev(e.args[0], env))
    if isinstance(e, AbsV):
        return abs(_ev(e.args[0], env))
    if isinstance(e, Sgn):
        v = _ev(e.args[0], env)
        return 0.0 if v == 0 else math.copysign(1.0, v)
    raise InputError(f"cannot evaluate node of type {type(e).__name__}")


def nonlocal_values(g, phi, bseries, h, x0, t0, v0, phi0_value, tpts, xpts):
    """generate_nonlocal's values by a scalar quad per integral."""
    gfun, phifun, bfun, hfun = map(numeric_function, (g, phi, bseries, h))

    def gnum(tv):
        return gfun({"t": tv, "phi0": phi0_value})

    def wof(tv):
        return quad(gnum, t0, tv, epsabs=QUAD_TOL, epsrel=QUAD_TOL)[0]

    def bnum(tv):
        env = {"t": tv, "phi0": phi0_value}
        pv = phifun(env)
        return bfun(env) * math.exp(-pv * x0 - wof(tv))

    vals = []
    for tv in tpts:
        pv = phifun({"t": tv, "phi0": phi0_value})
        wv = wof(tv)
        bv = quad(bnum, t0, tv, epsabs=QUAD_TOL, epsrel=QUAD_TOL)[0]

        def hker(xv, tv=tv, pv=pv):
            return math.exp(-pv * xv) * hfun({"t": tv, "x": xv})

        row = []
        for xv in xpts:
            inner = quad(hker, x0, xv, epsabs=QUAD_TOL, epsrel=QUAD_TOL)[0]
            row.append(
                math.exp(pv * xv) * inner + (bv + v0) * math.exp(pv * xv + wv)
            )
        vals.append(row)
    return vals


def p1i_values(g, phi, phi0_value, tpts, xpts):
    """reduce_P1Iphi's values by a scalar quad per time point."""
    t0 = float(tpts[0])
    gfun, phifun = map(numeric_function, (g, phi))

    def gnum(tv):
        return gfun({"t": tv, "phi0": phi0_value})

    vals = []
    for tv in tpts:
        w = quad(gnum, t0, tv, epsabs=QUAD_TOL, epsrel=QUAD_TOL)[0]
        pv = phifun({"t": float(tv), "phi0": phi0_value})
        vals.append([math.exp(pv * xv + w) for xv in xpts])
    return vals


def stencil(d, p):
    """stencil(d, p) by an exact solve of the moment conditions
    sum_k c_k k^j = d! [j == d], j <= 2m, over the offsets -m..m."""
    m = _stencil_margin(d, p)
    offs = range(-m, m + 1)
    rows = [[Fraction(k) ** j for k in offs] for j in range(2 * m + 1)]
    rhs = [Fraction(math.factorial(d)) if j == d else Fraction(0) for j in range(2 * m + 1)]
    return m, tuple(solve_affine(rows, rhs))


def nullspace(rows, ncols):
    """nullspace by one rref of the whole matrix, one vector per free
    column."""
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    red, pivots = rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def poly_coeffs_1d(terms, var):
    """Fraction coefficient list of the canonical terms of a polynomial in
    var alone, or None."""
    coeffs = {}
    for key, c in terms.items():
        if not c.is_Rational:
            return None
        if key == ():
            coeffs[0] = Fraction(c.p, c.q)
            continue
        if len(key) != 1:
            return None
        base, expo = key[0]
        if base != var or not expo.is_Integer or expo < 0:
            return None
        coeffs[int(expo)] = Fraction(c.p, c.q)
    if not coeffs:
        return None
    deg = max(coeffs)
    return [coeffs.get(i, Fraction(0)) for i in range(deg + 1)]


def exp_poly_groups(e, var):
    """Split e into {rate b: {degree a: Rational}} groups of var^a exp(b var);
    None when e is outside that span."""
    nf = normalize(e)
    if nf.den != 1:
        return None
    groups = {}
    for key, c in nf.num_terms.items():
        if not c.is_Rational:
            return None
        a = 0
        b = Fraction(0)
        for base, ex in key:
            if base == var and ex.is_Integer and ex >= 0:
                a = int(ex)
            elif isinstance(base, Exp) and ex.is_Integer:
                arg = base.args[0]
                slope = differentiate(arg, var)
                if not slope.is_Rational:
                    return None
                if normalize(arg - slope * var).num != 0:
                    return None
                b += Fraction(int(ex)) * to_fraction(slope)
            else:
                return None
        groups.setdefault(b, {})
        groups[b][a] = groups[b].get(a, S.Zero) + c
    return groups


def tx_polynomial(terms):
    """Whether the terms are a polynomial in t and x."""
    for key in terms:
        for base, expo in key:
            if base not in (t, x) or not expo.is_Integer or expo < 0:
                return False
    return True


def linear_coeffs(terms, var):
    """(a, b) when the terms are a var + b with rational a, b, else None."""
    a = b = S.Zero
    for key, c in terms.items():
        if key == ():
            b = c
        elif len(key) == 1 and key[0][0] == var and key[0][1] == 1:
            a = c
        else:
            return None
    return a, b


def char_value(char, a, b):
    """char(a + ib) as its exact (real, imaginary) pair: Horner on pairs."""
    a, b = to_fraction(a), to_fraction(b)
    re = im = Fraction(0)
    for c in reversed(char):
        re, im = re * a - im * b + c, re * b + im * a
    return re, im


def divisors(n):
    """Positive divisors of n by trial division up to its square root."""
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def to_str(e):
    """The printer on Expr.as_ordered_terms and could_extract_minus_sign."""
    if e is S.Zero:
        return "0"
    if e.is_Integer:
        return str(int(e))
    if e.is_Rational:
        return f"{e.p}/{e.q}"
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, ATOM_HEADS):
        return f"{e.fname}({to_str(e.args[0])})"
    if e.is_Add:
        terms = e.as_ordered_terms()
        out = [to_str(terms[0])]
        for term in terms[1:]:
            if term.could_extract_minus_sign():
                out.append(f" - {to_str(-term)}")
            else:
                out.append(f" + {to_str(term)}")
        return "".join(out)
    if e.is_Mul:
        coeff, rest = e.as_coeff_Mul()
        sign = ""
        if coeff < 0:
            sign = "-"
            coeff = -coeff
        factors = rest.as_ordered_factors() if rest is not S.One else []
        parts = []
        if coeff != 1 or not factors:
            parts.append(to_str(coeff))
        parts.extend(_paren(f, _MUL + 1) for f in factors)
        return sign + "*".join(parts)
    if e.is_Pow:
        base, expo = e.args
        return f"{_paren(base, _POW + 1)}^{_paren(expo, _POW)}"
    raise InternalError(f"cannot print node of type {type(e).__name__}: {e!r}")


def _paren(e, ctx):
    s = to_str(e)
    return f"({s})" if _prec(e) < ctx else s


def _prec(e):
    if e.is_Add:
        return _ADD
    if e.is_Mul:
        return _NEG if e.could_extract_minus_sign() else _MUL
    if e.is_Pow:
        return _POW
    if e.is_Integer:
        return _ATOM if e >= 0 else _NEG
    if e.is_Rational:
        return _MUL if e >= 0 else _NEG
    return _ATOM
