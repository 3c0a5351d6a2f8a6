"""Expression atoms for the closed symbolic fragment.

The fragment is: rational functions of t, x and declared parameters over Q,
composed with exp, ln, sin, cos, abs, sgn.  The six transcendental heads are
custom Function subclasses so that exactly the documented evaluation rules
fire and nothing else (in particular no exp/ln collapse, no trig expansion).
Their fdiff methods serve sympy's Expr.diff, which the library no longer
calls (kernel.calculus reads derivatives off the normal form) but the
slow-path derivative oracle still does.
"""

from sympy import Function, Integer, S, Symbol

t = Symbol("t", real=True)
x = Symbol("x", real=True)

_SYMCACHE = {"t": t, "x": x}


def sym(name):
    """Shared real symbol; t and x are the reserved independent variables."""
    s = _SYMCACHE.get(name)
    if s is None:
        s = Symbol(name, real=True)
        _SYMCACHE[name] = s
    return s


def number_sign(e):
    """The sign of the Rational e, -1, 0 or 1, read from its numerator
    without sympy's assumption engine, whose first query on a fresh number
    deduces all of its facts."""
    return (e.p > 0) - (e.p < 0)


def minus_sign(e):
    """e.could_extract_minus_sign() for an exact expression, with numbers
    answering by number_sign: a negative Rational, or a product led by
    one; a sum has more such terms than others, or on a tie the smaller
    sort key with its sign flipped, as sympy decides.  sympy also compares
    a product with its negative, which only zoo equals.  A product led by
    a Float, which sympy may call negative, is not one here."""
    if e.is_Add:
        neg = sum(map(minus_sign, e.args))
        if 2 * neg != len(e.args):
            return 2 * neg > len(e.args)
        return e.sort_key() < (-e).sort_key()
    lead = e.args[0] if e.is_Mul else e
    return lead.is_Rational and number_sign(lead) < 0


class Exp(Function):
    fname = "exp"

    @classmethod
    def eval(cls, a):
        if a is S.Zero:
            return S.One

    def fdiff(self, argindex=1):
        return Exp(self.args[0])

    def _eval_power(self, expt):
        # exp(a) > 0, so rational powers commute with the argument
        if expt.is_Rational:
            return Exp(expt * self.args[0])

    def _eval_is_positive(self):
        return True

    def _eval_is_real(self):
        return self.args[0].is_real


class Ln(Function):
    fname = "ln"

    @classmethod
    def eval(cls, a):
        if a is S.One:
            return S.Zero

    def fdiff(self, argindex=1):
        return 1 / self.args[0]

    def _eval_is_real(self):
        return self.args[0].is_real


class Sin(Function):
    fname = "sin"

    @classmethod
    def eval(cls, a):
        if a is S.Zero:
            return S.Zero
        if minus_sign(a):
            return -Sin(-a)

    def fdiff(self, argindex=1):
        return Cos(self.args[0])

    def _eval_is_real(self):
        return self.args[0].is_real


class Cos(Function):
    fname = "cos"

    @classmethod
    def eval(cls, a):
        if a is S.Zero:
            return S.One
        if minus_sign(a):
            return Cos(-a)

    def fdiff(self, argindex=1):
        return -Sin(self.args[0])

    def _eval_is_real(self):
        return self.args[0].is_real


class AbsV(Function):
    fname = "abs"

    @classmethod
    def eval(cls, a):
        if a.is_Rational:
            return abs(a)
        if minus_sign(a):
            return AbsV(-a)
        if isinstance(a, Exp):
            return a
        # assumption queries are sound: True only when provable
        if a.is_positive:
            return a
        if a.is_negative:
            return -a

    def fdiff(self, argindex=1):
        # valid away from the zero locus of the argument
        return Sgn(self.args[0])

    def _eval_power(self, expt):
        # |a|^q -> a^m sgn(a)^(m mod 2) |a|^(q-m),  m = floor(q)
        if expt.is_Rational:
            m = expt.p // expt.q
            if m != 0:
                a = self.args[0]
                rest = expt - m
                out = a**Integer(m) * Sgn(a) ** Integer(m % 2)
                if rest:
                    out *= AbsV(a) ** rest
                return out

    def _eval_is_nonnegative(self):
        return True

    def _eval_is_real(self):
        return self.args[0].is_real


class Sgn(Function):
    fname = "sgn"

    @classmethod
    def eval(cls, a):
        if a.is_Rational:
            return Integer(number_sign(a))
        if minus_sign(a):
            return -Sgn(-a)
        if isinstance(a, Exp):
            return S.One
        if a.is_positive:
            return S.One
        if a.is_negative:
            return S.NegativeOne

    def fdiff(self, argindex=1):
        # valid away from the zero locus of the argument
        return S.Zero

    def _eval_power(self, expt):
        if expt.is_Integer:
            return S.One if expt % 2 == 0 else self

    def _eval_is_real(self):
        return self.args[0].is_real


ATOM_HEADS = (Exp, Ln, Sin, Cos, AbsV, Sgn)
FUNC_BY_NAME = {cls.fname: cls for cls in ATOM_HEADS}
