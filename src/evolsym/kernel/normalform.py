"""Canonical num/den normal form over the closed fragment.

A normalized expression is a ratio of two expanded polynomials in the
"generators": symbols, surd constants, and transcendental atom applications.
Canonicalization rules, applied per monomial:

  * exp factors merge:            exp(a)^p * exp(b)^q -> exp(p*a + q*b)
  * sgn(a)^n -> sgn(a)^(n mod 2)
  * abs(a)^q -> a^m * sgn(a)^(m mod 2) * abs(a)^(q-m),  m = floor(q),
    so abs carries only a fractional exponent in [0, 1)
  * cos(a)^n with n >= 2 -> (1 - sin(a)^2)^(n//2) * cos(a)^(n mod 2)

The num/den gcd is cancelled exactly in a sparse polynomial ring over QQ
(sympy.polys.rings).  Each base is one ring generator, base^(1/q) with q
the lcm of its exponent denominators, and negative powers are cleared by
shifting each generator by its lowest exponent on either side.  A factor
with a non-rational exponent, such as 2^t, is an opaque generator of its
own: it cancels only against itself.  The den is then cleared of rational
content and its leading monomial made positive, so equal rational
expressions get identical normal forms.  Domain notes record denominator
loci, cancelled factors of two or more terms, ln positivity,
fractional-power positivity and abs/sgn punctures.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from sympy import (
    Add,
    Expr,
    Integer,
    Mul,
    Pow,
    Rational,
    S,
    Symbol,
    default_sort_key,
    expand,
    nan,
    oo,
    together,
    zoo,
)
from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyRing

from ..errors import InputError, UnsupportedError
from .atoms import ATOM_HEADS, AbsV, Cos, Exp, Ln, Sgn, Sin, atom_heads_in
from .printer import to_str


@dataclass(frozen=True)
class NormalForm:
    num: Expr
    den: Expr
    atoms: tuple = ()
    domain_notes: tuple = ()

    def as_expr(self):
        if self.den == 1:
            return self.num
        return self.num / self.den

    def __str__(self):
        if self.den == 1:
            return to_str(self.num)
        return f"({to_str(self.num)})/({to_str(self.den)})"


def as_exact(e):
    """Coerce to an exact sympy expression; floats and infinities rejected."""
    if isinstance(e, NormalForm):
        e = e.as_expr()
    if isinstance(e, int):
        e = Integer(e)
    if isinstance(e, Fraction):
        e = Rational(e.numerator, e.denominator)
    if not isinstance(e, Expr):
        raise InputError(f"not an expression: {e!r}")
    if e.has(nan, oo, -oo, zoo):
        raise InputError("expression contains an undefined value (zero denominator?)")
    if any(a.is_Float for a in e.atoms()):
        raise InputError("float literals are outside the exact fragment")
    return _adopt_foreign_heads(e)


def _adopt_foreign_heads(e):
    # sympy auto-evaluation can mint its own function heads, e.g.
    # (t**2)**(1/2) -> Abs(t) for real t; fold them into our atoms
    import sympy as _sp

    table = {
        _sp.Abs: AbsV,
        _sp.sign: Sgn,
        _sp.exp: Exp,
        _sp.log: Ln,
        _sp.sin: Sin,
        _sp.cos: Cos,
    }
    if not e.has(*table.keys()):
        return e

    def walk(n):
        if not n.args:
            return n
        args = [walk(a) for a in n.args]
        head = table.get(n.func)
        if head is not None and len(args) == 1:
            return head(args[0])
        if all(a is b for a, b in zip(args, n.args)):
            return n
        return n.func(*args)

    return walk(e)


def _canonical_atom_args(e):
    # normalize transcendental arguments so sin(t+t) and sin(2*t) agree
    # before the monomial pass sees them; normalize walks the argument
    # itself, and exp arguments are left to _canon_monomial, which
    # normalizes the merged exponent, so each nested atom is normalized once
    if e.is_Atom or isinstance(e, Exp):
        return e
    if isinstance(e, ATOM_HEADS):
        return type(e)(normalize(e.args[0]).as_expr())
    return e.func(*(_canonical_atom_args(a) for a in e.args))


# --- monomial dictionaries -------------------------------------------------
# A monomial is a factor map {base: exponent} plus a Rational coefficient;
# a polynomial is {key: coeff} with key the sorted tuple of (base, exponent).


def _key(fmap):
    return tuple(sorted(fmap.items(), key=lambda be: default_sort_key(be[0])))


def _add_factor(fmap, base, e):
    cur = fmap.get(base, S.Zero) + e
    if cur == 0:
        fmap.pop(base, None)
    else:
        fmap[base] = cur


def _canon_push(fmap, base, e):
    # flatten product bases and nested powers where the rewrite is sound
    if base.is_Mul:
        for f in base.args:
            b2, e2 = f.as_base_exp()
            _canon_push(fmap, b2, e2 * e)
        return
    if base.is_Pow:
        b2, e2 = base.as_base_exp()
        sound = (
            e.is_Integer
            or b2.is_positive
            or (e2.is_Integer and e2 % 2 == 1 and e.is_Rational and e.q % 2 == 1)
        )
        if sound:
            _canon_push(fmap, b2, e2 * e)
            return
    _add_factor(fmap, base, e)


def _rat_prime_powers(q):
    """Prime factorization of a positive rational as [(prime, exponent)]."""
    from sympy import factorint

    out = []
    for p, k in factorint(q.p).items():
        out.append((int(p), int(k)))
    for p, k in factorint(q.q).items():
        out.append((int(p), -int(k)))
    return out


def _canon_monomial(coeff, factors):
    """Apply the per-monomial rules; returns (coeff, fmap)."""
    fmap = {}
    exp_arg = S.Zero
    for base, e in factors:
        if isinstance(base, Exp):
            exp_arg += e * base.args[0]
        else:
            _canon_push(fmap, base, e)
    # fixpoint cleanup: factor merging may recreate reducible powers
    while True:
        changed = False
        for base in list(fmap):
            e = fmap.get(base)
            if e is None:
                continue
            if base.is_Rational:
                if not e.is_Rational:
                    if base.is_negative:
                        raise UnsupportedError(
                            "negative base under a symbolic exponent"
                        )
                    continue
                if base.is_Integer and base.is_prime and 0 < e < 1:
                    continue
                del fmap[base]
                changed = True
                if base.is_negative:
                    if e.q % 2 == 0:
                        raise UnsupportedError(
                            "fractional power of a negative constant"
                        )
                    # real odd root: (-b)^(p/q) = (-1)^p * b^(p/q)
                    if e.p % 2:
                        coeff = -coeff
                    base = -base
                if base == 1:
                    continue
                if e.is_Integer:
                    coeff *= base**e
                    continue
                # split surds over prime bases so sqrt(2)*sqrt(3) == sqrt(6)
                for p, k in _rat_prime_powers(base):
                    ee = e * k
                    m = ee.p // ee.q
                    coeff *= Integer(p) ** Integer(m)
                    if ee - m:
                        _add_factor(fmap, Integer(p), ee - m)
            elif isinstance(base, Sgn) and e.is_Integer and not (0 <= e < 2):
                del fmap[base]
                if e % 2:
                    _add_factor(fmap, base, S.One)
                changed = True
            elif isinstance(base, AbsV) and e.is_Rational and not (0 <= e < 1):
                del fmap[base]
                m = e.p // e.q
                a = base.args[0]
                _canon_push(fmap, a, Integer(m))
                if m % 2:
                    _add_factor(fmap, Sgn(a), S.One)
                if e - m:
                    _add_factor(fmap, base, e - m)
                changed = True
            elif isinstance(base, Exp):
                del fmap[base]
                exp_arg += e * base.args[0]
                changed = True
        if not changed:
            break
    if exp_arg != 0:
        ne = Exp(normalize(exp_arg).as_expr())
        if ne != 1:
            _add_factor(fmap, ne, S.One)
    return coeff, fmap


def _term_parts(term):
    coeff = S.One
    factors = []
    for f in Mul.make_args(term):
        if f.is_Rational:
            coeff *= f
        else:
            b, e = f.as_base_exp()
            factors.append((b, e))
    return coeff, factors


def _accumulate(out, key, coeff):
    cur = out.get(key, S.Zero) + coeff
    if cur == 0:
        out.pop(key, None)
    else:
        out[key] = cur


def mono_dict(e):
    """Expand e into the canonical polynomial dict {key: Rational coeff}."""
    return _canon_terms(_term_parts(term) for term in Add.make_args(expand(e)))


def _canon_terms(terms):
    """Canonical polynomial dict of (coeff, [(base, exponent)]) terms."""
    for _round in range(6):
        out = {}
        for coeff, factors in terms:
            if coeff == 0:
                continue
            coeff, fmap = _canon_monomial(coeff, factors)
            _accumulate(out, _key(fmap), coeff)
        _reduce_cos(out)
        # the abs rule can move integer powers onto sum bases; re-expand
        if not any(
            base.is_Add and e2.is_Integer and e2 > 0 for key in out for base, e2 in key
        ):
            return out
        terms = [_term_parts(term) for term in Add.make_args(expand(dict_to_expr(out)))]
    raise UnsupportedError("monomial canonicalization did not stabilize")


def _reduce_cos(out):
    # cos(a)^n (n>=2) -> (1 - sin(a)^2)^(n//2) cos(a)^(n%2), to a fixpoint
    while True:
        target = None
        for key in out:
            for base, e in key:
                if isinstance(base, Cos) and e.is_Integer and e >= 2:
                    target = (key, base, e)
                    break
            if target:
                break
        if target is None:
            return
        key, base, e = target
        coeff = out.pop(key)
        rest = {b: q for b, q in key if b is not base}
        n2, nrem = int(e) // 2, int(e) % 2
        a = base.args[0]
        for k in range(n2 + 1):
            c = coeff * Integer(math.comb(n2, k)) * Integer(-1) ** k
            fmap = dict(rest)
            if k:
                _add_factor(fmap, Sin(a), Integer(2 * k))
            if nrem:
                _add_factor(fmap, base, S.One)
            _accumulate(out, _key(fmap), c)


def fmap_to_expr(fmap):
    return Mul(
        *[Pow(b, e) for b, e in sorted(fmap.items(), key=lambda be: default_sort_key(be[0]))]
    )


def dict_to_expr(d):
    terms = sorted(d.items(), key=lambda kc: default_sort_key(fmap_to_expr(dict(kc[0]))))
    return Add(*[coeff * fmap_to_expr(dict(key)) for key, coeff in terms])


def common_numerators(nfs):
    """Numerator dicts of normal forms over one common denominator, the
    product of their distinct denominators: each numerator is multiplied by
    the denominators other than its own and canonicalized."""
    dens = []
    for nf in nfs:
        if nf.den != 1 and nf.den not in dens:
            dens.append(nf.den)
    return [mono_dict(Mul(nf.num, *[d for d in dens if d != nf.den])) for nf in nfs]


# --- cancellation in a polynomial ring over QQ ------------------------------


def _cancel(num_d, den_d):
    """Cancel num/den exactly; returns (num dict, den dict, cancelled factors).

    Each base becomes one ring generator base^(1/q), q the lcm of its
    exponent denominators; a factor with a non-rational exponent, such as
    2^t, is an opaque generator of its own.  Negative powers are cleared by
    shifting every generator by its lowest exponent across both sides.
    """
    if () in den_d and len(den_d) == 1 and not any(
        e.is_negative for key in num_d for _b, e in key
    ):
        return num_d, den_d, []
    units = {}  # (base, opaque exponent or None) -> exponent of the generator
    for d in (num_d, den_d):
        for key in d:
            for base, e in key:
                if e.is_Rational:
                    q = units.get((base, None), S.One).q
                    units[(base, None)] = Rational(1, q * e.q // math.gcd(q, e.q))
                else:
                    units[(base, e)] = e
    # generator names and order follow sympy's own choice for expressions,
    # so cancelled factors keep the sign sympy's factor_list gives them
    names = {
        g: g[0] if isinstance(g[0], Symbol) and unit == 1 else Symbol(f"_g{i}")
        for i, (g, unit) in enumerate(units.items())
    }
    order = {n: j for j, n in enumerate(_sort_gens(names.values()))}
    gens = sorted(units, key=lambda g: order[names[g]])
    col = {g: j for j, g in enumerate(gens)}

    def vector(key):
        v = [0] * len(gens)
        for base, e in key:
            g = (base, None) if e.is_Rational else (base, e)
            v[col[g]] = int(e / units[g])
        return v

    sides = [[(vector(key), QQ(c.p, c.q)) for key, c in d.items()] for d in (num_d, den_d)]
    low = [min(0, *ks) for ks in zip(*(v for side in sides for v, _c in side))]
    R = PolyRing([names[g] for g in gens], QQ, lex)
    pn, pd = (
        R.from_dict({tuple(k - m for k, m in zip(v, low)): c for v, c in side})
        for side in sides
    )
    common, pn, pd = pn.cofactors(pd)

    def back(p):
        return _canon_terms(
            (
                Rational(c.numerator, c.denominator),
                [(g[0], k * units[g]) for g, k in zip(gens, m) if k],
            )
            for m, c in p.items()
        )

    # a cancelled power of a single generator adds no note
    cancelled = []
    if not common.is_ground:
        cancelled = [
            dict_to_expr(back(f)) for f, _m in common.factor_list()[1] if len(f) > 1
        ]
    return back(pn), back(pd), cancelled


def _scale(num_d, den_d):
    """Make den integer-primitive with positive leading coefficient."""
    coeffs = list(den_d.values())
    l = 1
    for c in coeffs:
        l = l * c.q // math.gcd(l, c.q)
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c.p) * (l // c.q))
    lead_key = min(den_d, key=lambda k: default_sort_key(fmap_to_expr(dict(k))))
    s = Rational(l, g)
    if den_d[lead_key] < 0:
        s = -s
    if s == 1:
        return num_d, den_d
    return {k: c * s for k, c in num_d.items()}, {k: c * s for k, c in den_d.items()}


def _domain_notes(num_d, den_d, cancelled, den_e):
    notes = set()
    for f in cancelled:
        notes.add(f"{to_str(f)} != 0")
    if len(den_d) > 1:
        notes.add(f"{to_str(den_e)} != 0")
    else:
        for key in den_d:
            for base, _e in key:
                if not base.is_Rational:
                    notes.add(f"{to_str(base)} != 0")
    for d in (num_d, den_d):
        for key in d:
            for base, e in key:
                if isinstance(base, (AbsV, Sgn)):
                    notes.add(f"{to_str(base.args[0])} != 0")
                elif not e.is_Integer and not base.is_Rational and not isinstance(base, Exp):
                    notes.add(f"{to_str(base)} > 0")
                for sub in base.atoms(Ln):
                    notes.add(f"{to_str(sub.args[0])} > 0")
    return tuple(sorted(notes))


def normalize(e):
    """Normal form of e.  Raises InputError on malformed input and
    UnsupportedError outside the fragment.

    Results are memoized per exact expression in a bounded LRU; the input
    is validated on every call, and errors are not cached.  A NormalForm is
    frozen and holds only immutable sympy objects, so callers may share it.
    """
    return _normalize(as_exact(e))


@lru_cache(maxsize=4096)
def _normalize(e):
    e = _canonical_atom_args(e)
    n0, d0 = together(expand(e), deep=True).as_numer_denom()
    dn = mono_dict(n0)
    if not dn:
        return NormalForm(S.Zero, S.One)
    dd = mono_dict(d0)
    if not dd:
        raise InputError("zero denominator")
    num_d, den_d, cancelled = _cancel(dn, dd)
    if not num_d:
        return NormalForm(S.Zero, S.One)
    num_d, den_d = _scale(num_d, den_d)
    num_e = dict_to_expr(num_d)
    den_e = dict_to_expr(den_d)
    atoms = tuple(
        sorted(
            set(atom_heads_in(num_e)) | set(atom_heads_in(den_e)),
            key=default_sort_key,
        )
    )
    notes = _domain_notes(num_d, den_d, cancelled, den_e)
    return NormalForm(num_e, den_e, atoms, notes)
