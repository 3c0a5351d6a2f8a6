"""Canonical num/den normal form over the closed fragment.

A normalized expression is a ratio of two expanded polynomials in the
"generators": symbols, surd constants, and transcendental atom applications.
normalize builds it in three steps.

Conversion.  One recursive converter turns the expression into polynomials
of a sparse ring over QQ (sympy.polys.rings).  A first pass collects the raw
generators: t, x and parameters; base^(1/q) for a base with rational
exponents, q the lcm of their denominators; an opaque base^e for each
non-rational exponent e, such as 2^t; and the atoms, whose arguments are
normalized first and written out term by term.  A second pass makes sums,
products and integer powers ring operations on sums of fractions grouped by
denominator; a negative power of a sum adds that sum as a denominator
factor, and the groups go over one common denominator at the end.  That
combines denominator factors as sympy's together did after expand, the
path that tests/slowpath.py keeps as the oracle.

Canonicalization, applied per monomial:

  * exp factors merge:            exp(a)^p * exp(b)^q -> exp(p*a + q*b)
  * sgn(a)^n -> sgn(a)^(n mod 2)
  * abs(a)^q -> a^m * sgn(a)^(m mod 2) * abs(a)^(q-m),  m = floor(q),
    so abs carries only a fractional exponent in [0, 1)
  * cos(a)^n with n >= 2 -> (1 - sin(a)^2)^(n//2) * cos(a)^(n mod 2)
  * surds split over primes, so sqrt(2)*sqrt(3) == sqrt(6)

Cancellation.  The num/den gcd is cancelled exactly in a ring over the
canonical generators, negative powers cleared by shifting each generator by
its lowest exponent on either side; an opaque generator cancels only
against itself.  The den is then cleared of rational content and its
leading monomial made positive, so equal rational expressions get identical
normal forms.  The gcd is unique up to a rational unit, which that scaling
fixes, so the order of the ring's generators does not show in the result.

Terms.  A NormalForm keeps the canonical dicts that num and den print as
num_terms and den_terms: monomial coordinates are read off them, never
derived from num or den again.

Budgets.  A power of a sum whose multinomial term count exceeds TERM_BUDGET,
any converted polynomial longer than that, and non-rational exponents nested
deeper than EXPONENT_DEPTH_BUDGET raise UnsupportedError (exit 3) naming the
budget, before the work is done where the bound can be known in advance.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

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
    nan,
    oo,
    zoo,
)
from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing

from ..errors import InputError, UnsupportedError
from .atoms import ATOM_HEADS, AbsV, Cos, Exp, Ln, Sgn, Sin


@dataclass(frozen=True)
class NormalForm:
    """num/den of an expression; num_terms and den_terms are the canonical
    dicts {key: Rational} that num and den print, read-only."""

    num: Expr
    den: Expr
    num_terms: MappingProxyType = field(compare=False)
    den_terms: MappingProxyType = field(compare=False)

    def as_expr(self):
        if self.den == 1:
            return self.num
        return self.num / self.den


_ZERO = NormalForm(S.Zero, S.One, MappingProxyType({}), MappingProxyType({(): S.One}))


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


# --- monomial dictionaries -------------------------------------------------
# A monomial is a factor map {base: exponent} plus a Rational coefficient;
# a polynomial is {key: coeff} with key the sorted tuple of (base, exponent).


@lru_cache(maxsize=4096)
def _order(base):
    return default_sort_key(base)


def _key(fmap):
    return tuple(sorted(fmap.items(), key=lambda be: _order(be[0])))


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


def _accumulate(out, key, coeff):
    cur = out.get(key, S.Zero) + coeff
    if cur == 0:
        out.pop(key, None)
    else:
        out[key] = cur


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
        terms = _raw_terms(dict_to_expr(out))
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
        n2, nrem = int(e) // 2, int(e) % 2
        if n2 + 1 > TERM_BUDGET:
            raise _over_budget(f"the {e}th power of a cosine")
        coeff = out.pop(key)
        rest = {b: q for b, q in key if b is not base}
        a = base.args[0]
        for k in range(n2 + 1):
            c = coeff * Integer(math.comb(n2, k)) * Integer(-1) ** k
            fmap = dict(rest)
            if k:
                _add_factor(fmap, Sin(a), Integer(2 * k))
            if nrem:
                _add_factor(fmap, base, S.One)
            _accumulate(out, _key(fmap), c)
        _checked(out)


def fmap_to_expr(fmap):
    return Mul(*[Pow(b, e) for b, e in _key(fmap)])


def dict_to_expr(d):
    # Add and Mul order their arguments themselves
    return Add(*[Mul(coeff, *[Pow(b, e) for b, e in key]) for key, coeff in d.items()])


def common_numerators(nfs):
    """Numerator dicts of normal forms over one common denominator, the
    product of their distinct denominators: each numerator's terms are
    multiplied by those of the denominators other than its own and
    canonicalized."""
    dens = {nf.den: nf.den_terms for nf in nfs if nf.den != 1}
    out = []
    for nf in nfs:
        others = [d for den, d in dens.items() if den != nf.den]
        terms = [(c, key) for key, c in nf.num_terms.items()]
        for d in others:
            terms = [(c1 * c2, k1 + k2) for c1, k1 in terms for k2, c2 in d.items()]
        out.append(_canon_terms(terms) if others else nf.num_terms)
    return out


# --- the converter: Expr -> polynomials over raw generators ---------------
# A raw generator is a key (base, None), standing for base^(1/q) with q the
# lcm of the exponent denominators seen for base, or (base, e) for a factor
# base^e with a non-rational exponent e.  A first pass rewrites the Expr
# into a tree of monomials ("m"), sums ("+"), products ("*") and integer
# powers ("^") and collects the keys; a second pass evaluates the tree in
# one ring.  A value is {denominator: numerator}, a sum of fractions grouped
# by denominator, each denominator a frozenset of (factor, multiplicity).
# As in sympy's expand, powers of one factor add up; as in its together,
# _one_fraction then takes each distinct power of a sum once.

# most terms a polynomial may reach while an expression is converted
TERM_BUDGET = 20000

# deepest nesting of non-rational exponents, as in the tower x^x^...^x
EXPONENT_DEPTH_BUDGET = 8


def _exponent_depth(e):
    """How deep non-rational exponents nest in e."""
    if e.is_Atom:
        return 0
    depths = [_exponent_depth(a) for a in e.args]
    if e.is_Pow and not e.exp.is_Rational:
        depths[1] += 1
    return max(depths)


def _over_budget(what):
    return UnsupportedError(
        f"term budget exceeded: {what} has more than {TERM_BUDGET} terms"
    )


def _checked(p):
    if len(p) > TERM_BUDGET:
        raise _over_budget("a product")
    return p


def _multinomial_check(terms, n):
    # bound the multinomial term count before expanding a power of a sum
    if terms > 1 and math.comb(n + terms - 1, terms - 1) > TERM_BUDGET:
        raise _over_budget(f"the {n}th power of a {terms}-term sum")


def _power(p, n):
    _multinomial_check(len(p), n)
    return _checked(p**n)


def _v_sum(R, values):
    groups = {}
    for value in values:
        for d, n in value.items():
            acc = groups.setdefault(d, {})
            for m, c in n.items():
                acc[m] = acc.get(m, 0) + c
    out = {}
    for d, acc in groups.items():
        p = _checked(R.from_dict(acc))
        if p:
            out[d] = p
    return out


def _v_mul(R, a, b):
    products = []
    for d1, n1 in a.items():
        for d2, n2 in b.items():
            den = dict(d1)
            for f, m in d2:
                den[f] = den.get(f, 0) + m
            products.append({frozenset(den.items()): _checked(n1 * n2)})
    return _v_sum(R, products)


def _v_pow(R, a, n):
    if len(a) != 1:
        _multinomial_check(sum(len(p) for p in a.values()), n)
        out = a
        for _ in range(n - 1):
            out = _v_mul(R, out, a)
        return out
    ((d, num),) = a.items()
    return {frozenset((f, m * n) for f, m in d): _power(num, n)}


def _one_fraction(R, a):
    """(numerator, denominator) of a over one common denominator.

    As in sympy's together after expand, a power s^m of a sum is one factor,
    its expansion, and the common denominator takes each distinct factor
    once; generators take their highest power."""
    expanded = {}  # (s, m) -> s^m multiplied out
    dens = []
    for d in a:
        den = {}
        for f, m in d:
            if len(f) > 1:
                if (f, m) not in expanded:
                    expanded[(f, m)] = _power(f, m)
                f, m = expanded[(f, m)], 1
            den[f] = den.get(f, 0) + m
        dens.append(den)
    lcm = {}
    for den in dens:
        for f, m in den.items():
            lcm[f] = max(m, lcm.get(f, 0))
    num = R.zero
    for den, n in zip(dens, a.values()):
        for f, m in lcm.items():
            if m > den.get(f, 0):
                n = _checked(n * f ** (m - den.get(f, 0)))
        num = _checked(num + n)
    den = R.one
    for f, m in lcm.items():
        den = _checked(den * f**m)
    return num, den


@lru_cache(maxsize=64)
def _ring(n):
    return PolyRing(tuple(Symbol(f"_r{i}") for i in range(n)), QQ, lex)


def _signed_atom(r, head):
    """(sign, atom) when r is head(a) or -head(a), else None."""
    if isinstance(r, head):
        return 1, r
    if r.is_Mul and len(r.args) == 2 and r.args[0] is S.NegativeOne:
        if isinstance(r.args[1], head):
            return -1, r.args[1]
    return None


def _canonical_atom(e):
    """The atom e with its argument normalized and written out term by term,
    so sin(t+t) and sin(2*t) agree; the head's own rules may instead turn
    it into a sign times an atom, or into another expression."""
    head = type(e)
    nf = normalize(e.args[0])
    first = head(nf.as_expr())
    if _signed_atom(first, head) is None:
        return first
    return head(_written_out(nf))


def _written_out(nf):
    """A normal form as a sum of numerator terms over the denominator, exp
    arguments inside it written out the same way."""
    num = _exp_args_written_out(nf.num)
    if nf.den == 1:
        return num
    inv = Pow(_exp_args_written_out(nf.den), -1)
    return Add(*[Mul(term, inv) for term in Add.make_args(num)])


def _exp_args_written_out(e):
    if isinstance(e, Exp):
        return Exp(_written_out(_normalize(e.args[0])))
    if e.is_Atom or isinstance(e, ATOM_HEADS) or not e.has(Exp):
        return e
    return e.func(*[_exp_args_written_out(a) for a in e.args])


def _inner(b):
    """Canonical written-out form of a base or exponent under a power."""
    if b.is_Symbol or b.is_Rational:
        return b
    if isinstance(b, ATOM_HEADS) and not isinstance(b, Exp):
        return _canonical_atom(b)
    return _written_out(_normalize(b))


class _Converter:
    """Expr -> fraction of polynomials over raw generators, in two passes.

    canonical: atoms get canonical arguments and a negative power of a sum
    becomes a denominator factor (normalize); otherwise atoms are taken as
    they stand and b^(-n) is one more generator power (_raw_terms)."""

    def __init__(self, canonical):
        self.canonical = canonical
        self.units = {}  # key -> q (base^(1/q)) or the opaque exponent

    # --- first pass: Expr -> tree ---------------------------------------------

    def leaf(self, base, e):
        if e.is_Rational:
            key = (base, None)
            q = self.units.get(key, 1)
            self.units[key] = q * e.q // math.gcd(q, e.q)
            return key, e
        # a non-rational exponent: base^e is a generator of its own, and
        # base^(-e) its inverse, as as_numer_denom splits them
        neg = e.is_negative or (
            e.is_Mul and not e.is_positive and e.could_extract_minus_sign()
        )
        key = (base, -e if neg else e)
        self.units[key] = key[1]
        return key, -1 if neg else 1

    def monomial(self, p):
        """Monomial node of a product of powers with rational or opaque
        exponents, as sympy evaluated it."""
        coeff = S.One
        factors = []
        for f in Mul.make_args(p):
            if f.is_Rational:
                coeff *= f
            else:
                factors.append(self.leaf(*f.as_base_exp()))
        return ("m", coeff, tuple(factors))

    def rewrite(self, e):
        if e.is_Rational:
            return ("m", e, ())
        if e.is_Add:
            return ("+", [self.rewrite(a) for a in e.args])
        if e.is_Mul:
            coeff = S.One
            factors = []
            rest = []
            for a in e.args:
                node = self.rewrite(a)
                if node[0] == "m":
                    coeff *= node[1]
                    factors += node[2]
                else:
                    rest.append(node)
            mono = ("m", coeff, tuple(factors))
            return ("*", [mono] + rest) if rest else mono
        if e.is_Pow:
            return self.rewrite_pow(*e.args)
        if isinstance(e, ATOM_HEADS) and not isinstance(e, Exp) and self.canonical:
            r = _canonical_atom(e)
            signed = _signed_atom(r, type(e))
            if signed is None:
                return self.rewrite(r)
            return ("m", Integer(signed[0]), (self.leaf(signed[1], S.One),))
        return ("m", S.One, (self.leaf(e, S.One),))

    def rewrite_pow(self, b, n):
        if n.is_Integer:
            if b.is_Add and n < 0 and not self.canonical:
                return ("m", S.One, (self.leaf(b, n),))
            node = self.rewrite(b)
            if node[0] == "m":
                c, factors = node[1], node[2]
                return ("m", c**n, tuple((k, x * n) for k, x in factors))
            return ("^", node, int(n))
        if not self.canonical:
            return ("m", S.One, (self.leaf(b, n),))
        b = _inner(b)
        if n.is_Rational:
            # a sum's positive content comes out of the root, as sympy
            # takes it out of c*(x + 1) under a rational power
            c, b = b.as_content_primitive() if b.is_Add else (S.One, b)
            return self.monomial(Pow(c, n) * Pow(b, n))
        if _exponent_depth(n) >= EXPONENT_DEPTH_BUDGET:
            raise UnsupportedError(
                "exponent nesting budget exceeded: non-rational exponents "
                f"nest more than {EXPONENT_DEPTH_BUDGET} deep"
            )
        # b^(e1 + e2) -> b^e1 b^e2 where sympy's expand would split it
        n = _inner(n)
        parts = [n]
        if n.is_Add and (b.is_zero is False or n._all_nonneg_or_nonppos()):
            parts = n.args
        return self.monomial(Mul(*[Pow(b, p) for p in parts]))

    # --- second pass: tree -> (numerator, {denominator factor: mult}) ---------

    def start(self):
        self.keys = list(self.units)
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.R = _ring(len(self.keys))
        self.gen_index = {g: i for i, g in enumerate(self.R.gens)}

    def evaluate(self, node):
        """{denominator: numerator} of a tree: a sum of fractions, grouped by
        denominator, each a frozenset of (factor, multiplicity)."""
        tag = node[0]
        R = self.R
        if tag == "m":
            return self.eval_monomial(node[1], node[2])
        if tag == "+":
            return _v_sum(R, [self.evaluate(child) for child in node[1]])
        if tag == "*":
            acc = self.evaluate(node[1][0])
            for child in node[1][1:]:
                acc = _v_mul(R, acc, self.evaluate(child))
            return acc
        value, n = self.evaluate(node[1]), node[2]
        if n > 0:
            return _v_pow(R, value, n)
        num, den = _one_fraction(R, value)
        if not num:
            raise InputError("zero denominator")
        k = -n
        inv = _power(den, k)
        if len(num) == 1:
            ((monom, c),) = num.items()
            den = frozenset((R.gens[i], e * k) for i, e in enumerate(monom) if e)
            return {den: inv.quo_ground(c**k)}
        lc = num.LC
        return {frozenset([(num.quo_ground(lc), k)]): inv.quo_ground(lc**k)}

    def eval_monomial(self, coeff, factors):
        R = self.R
        exps = [0] * len(R.gens)
        for key, e in factors:
            i = self.index[key]
            exps[i] += e if key[1] is not None else e.p * (self.units[key] // e.q)
        den = {}
        for i, k in enumerate(exps):
            if k < 0:
                den[R.gens[i]] = -k
                exps[i] = 0
        if coeff == 0:
            return {}
        return {frozenset(den.items()): R.term_new(tuple(exps), QQ(coeff.p, coeff.q))}

    def terms(self, num, den=()):
        """(coeff, [(base, exponent)]) of num over a monomial den."""
        shift = [0] * len(self.keys)
        for g, m in den:
            shift[self.gen_index[g]] = m
        gens = [
            (base, opaque, self.units[(base, opaque)]) for base, opaque in self.keys
        ]
        out = []
        for monom, c in num.items():
            factors = []
            for (base, opaque, unit), k, s in zip(gens, monom, shift):
                k -= s
                if k:
                    e = Rational(k, unit) if opaque is None else k * opaque
                    factors.append((base, e))
            out.append((Rational(c.numerator, c.denominator), factors))
        return out

    def value_terms(self, value):
        """Raw terms of a value whose denominators are monomials."""
        return [term for d, n in value.items() for term in self.terms(n, d)]


def _raw_terms(e):
    """Raw (coeff, [(base, exponent)]) terms of e written out, atoms as
    they stand and negative powers kept as factors; _canon_terms re-expands
    with it."""
    conv = _Converter(canonical=False)
    node = conv.rewrite(e)
    conv.start()
    return conv.value_terms(conv.evaluate(node))


def _fraction(e):
    """Raw numerator and denominator terms of e over one denominator."""
    conv = _Converter(canonical=True)
    node = conv.rewrite(e)
    conv.start()
    num, den = _one_fraction(conv.R, conv.evaluate(node))
    return conv.terms(num), conv.terms(den)


# --- cancellation in a polynomial ring over QQ ------------------------------


def _cancel(num_d, den_d):
    """Cancel num/den exactly; returns (num dict, den dict).

    Each base becomes one ring generator base^(1/q), q the lcm of its
    exponent denominators; a factor with a non-rational exponent, such as
    2^t, is an opaque generator of its own.  Negative powers are cleared by
    shifting every generator by its lowest exponent across both sides.
    """
    if () in den_d and len(den_d) == 1 and not any(
        e.is_negative for key in num_d for _b, e in key
    ):
        return num_d, den_d
    units = {}  # (base, opaque exponent or None) -> exponent of the generator
    for d in (num_d, den_d):
        for key in d:
            for base, e in key:
                if e.is_Rational:
                    q = units.get((base, None), S.One).q
                    units[(base, None)] = Rational(1, q * e.q // math.gcd(q, e.q))
                else:
                    units[(base, e)] = e
    gens = list(units)
    col = {g: j for j, g in enumerate(gens)}

    def vector(key):
        v = [0] * len(gens)
        for base, e in key:
            g = (base, None) if e.is_Rational else (base, e)
            v[col[g]] = int(e / units[g])
        return v

    sides = [[(vector(key), QQ(c.p, c.q)) for key, c in d.items()] for d in (num_d, den_d)]
    low = [min(0, *ks) for ks in zip(*(v for side in sides for v, _c in side))]
    R = _ring(len(gens))
    pn, pd = (
        R.from_dict({tuple(k - m for k, m in zip(v, low)): c for v, c in side})
        for side in sides
    )
    _common, pn, pd = pn.cofactors(pd)

    def back(p):
        return _canon_terms(
            (
                Rational(c.numerator, c.denominator),
                [(g[0], k * units[g]) for g, k in zip(gens, m) if k],
            )
            for m, c in p.items()
        )

    return back(pn), back(pd)


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


def _exact_input(e):
    # refuse, before a cache lookup, what as_exact never accepts
    if not isinstance(e, (Expr, int, Fraction, NormalForm)):
        raise InputError(f"not an expression: {e!r}")
    return e


def normalize(e):
    """Normal form of e.  Raises InputError on malformed input and
    UnsupportedError outside the fragment.

    Results are memoized per input in a bounded LRU and as_exact validates
    the input on a miss only: a hit needs an equal key, and no exact input
    equals an inexact one (Float(2.0) != Integer(2), though their hashes
    agree).  Errors are not cached.  A NormalForm is frozen and holds only
    immutable values, so callers may share it.
    """
    return _normalize(_exact_input(e))


@lru_cache(maxsize=4096)
def _normalize(e):
    num_terms, den_terms = _fraction(as_exact(e))
    dn = _canon_terms(num_terms)
    if not dn:
        return _ZERO
    return _finish(dn, _canon_terms(den_terms))


def _finish(dn, dd):
    """Normal form of the canonical dicts num/den: cancel, scale, build."""
    if not dd:
        raise InputError("zero denominator")
    num_d, den_d = _cancel(dn, dd)
    if not num_d:
        return _ZERO
    num_d, den_d = _scale(num_d, den_d)
    return NormalForm(
        dict_to_expr(num_d),
        dict_to_expr(den_d),
        MappingProxyType(num_d),
        MappingProxyType(den_d),
    )
