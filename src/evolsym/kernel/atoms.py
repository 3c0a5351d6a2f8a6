"""Expression atoms for the closed symbolic fragment.

The fragment is: rational functions of t, x and declared parameters over Q,
composed with exp, ln, sin, cos, abs, sgn.  The six transcendental heads are
custom Function subclasses so that exactly the documented evaluation rules
fire and nothing else (in particular no exp/ln collapse, no trig expansion).
"""

from sympy import Function, Integer, Rational, S, Symbol

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
        if a.could_extract_minus_sign():
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
        if a.could_extract_minus_sign():
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
        if a.could_extract_minus_sign():
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
            if a.is_zero:
                return S.Zero
            return S.One if a > 0 else S.NegativeOne
        if a.could_extract_minus_sign():
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
