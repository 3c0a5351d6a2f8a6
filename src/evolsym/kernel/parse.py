"""Recursive-descent parser for the expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          -- right associative
    atom   := NUMBER | SYMBOL | FUNC '(' expr ')' | '(' expr ')'

'^' binds tighter than unary minus, so -x^2 is -(x^2) and x^-2 is x^(-2).
Integer literals divided by integer literals fold to exact rationals.
t and x are reserved; every other symbol must be declared up front.
Error positions are byte offsets into the input.

Nesting is bounded by MAX_DEPTH: every open parenthesis, function call,
unary minus and '^' exponent counts one level while it is open, so
"-(x^(2^y))" reaches depth 4.  Deeper input raises ParseError instead of
exhausting the interpreter's recursion limit.

A power of two rational literals is evaluated exactly, so its size is
bounded too: when |exponent| times the bit length of the base's numerator
or denominator exceeds MAX_POWER_BITS, ParseError is raised at the '^'
before the power is built.  2^(10^8) would otherwise take a 10^8-bit
integer, and the cost grows linearly in the exponent.
"""

from sympy import Integer, Mul, Pow, Rational, S

from ..errors import InputError, ParseError, UnknownSymbolError
from .atoms import FUNC_BY_NAME, sym

_OPS = set("+-*/^()")

MAX_DEPTH = 50

MAX_POWER_BITS = 100_000


class _Tok:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(s):
    toks = []
    i = 0
    boff = 0
    n = len(s)
    while i < n:
        c = s[i]
        if c.isspace():
            boff += len(c.encode("utf-8"))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            toks.append(_Tok("num", s[i:j], boff))
            boff += len(s[i:j].encode("utf-8"))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (s[j].isalnum() or s[j] == "_"):
                j += 1
            toks.append(_Tok("name", s[i:j], boff))
            boff += len(s[i:j].encode("utf-8"))
            i = j
            continue
        if c in _OPS:
            toks.append(_Tok(c, c, boff))
            boff += len(c.encode("utf-8"))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", boff)
    toks.append(_Tok("end", "", boff))
    return toks


class _Parser:
    def __init__(self, toks, declared):
        self.toks = toks
        self.pos = 0
        self.declared = frozenset(declared)
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.offset
            )
        return tok

    def nest(self, tok):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(
                f"expression nests deeper than the limit of {MAX_DEPTH} levels",
                tok.offset,
            )

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.offset)
        return e

    def expr(self):
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self):
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            tok = self.next()
            rhs = self.factor()
            if tok.kind == "*":
                e = Mul(e, rhs)
            else:
                if rhs.is_Integer and rhs == 0:
                    raise ParseError("division by literal zero", tok.offset)
                if e.is_Integer and rhs.is_Integer:
                    e = Rational(int(e), int(rhs))
                else:
                    e = Mul(e, Pow(rhs, S.NegativeOne))
        return e

    def factor(self):
        if self.peek().kind == "-":
            self.nest(self.next())
            e = -self.factor()
            self.depth -= 1
            return e
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            tok = self.next()
            self.nest(tok)
            expo = self.factor()
            self.depth -= 1
            if base.is_Rational and expo.is_Rational and abs(base) not in (0, 1):
                bits = max(abs(base.p).bit_length(), base.q.bit_length())
                if abs(expo) * bits > MAX_POWER_BITS:
                    raise ParseError(
                        f"power of a rational exceeds the limit of {MAX_POWER_BITS} bits",
                        tok.offset,
                    )
            return Pow(base, expo)
        return base

    def atom(self):
        tok = self.next()
        if tok.kind == "num":
            return Integer(int(tok.text))
        if tok.kind == "(":
            self.nest(tok)
            e = self.expr()
            self.expect(")")
            self.depth -= 1
            return e
        if tok.kind == "name":
            name = tok.text
            if name in FUNC_BY_NAME:
                if self.peek().kind != "(":
                    raise ParseError(f"function name {name!r} used as a symbol", tok.offset)
                self.nest(self.next())
                arg = self.expr()
                self.expect(")")
                self.depth -= 1
                return FUNC_BY_NAME[name](arg)
            if name in ("t", "x") or name in self.declared:
                return sym(name)
            raise UnknownSymbolError(f"unknown symbol {name!r}", tok.offset)
        raise ParseError(f"expected an operand, found {tok.text or 'end of input'!r}", tok.offset)


def parse_expr(text, declared=()):
    """Parse text to an expression.  declared lists allowed parameter names."""
    if not isinstance(text, str):
        raise ParseError("input is not a string", 0)
    return _Parser(_tokenize(text), declared).parse()


def read_expr(doc, key, default, declared, what):
    """The value under key of a JSON document as an expression: an
    expression string or an exact JSON integer, default when the key is
    absent.  Anything else raises InputError naming what and key."""
    if key not in doc:
        return default
    v = doc[key]
    if isinstance(v, str):
        return parse_expr(v, declared=declared)
    # exactly int: a JSON true or false is a bool, an int subclass
    if type(v) is int:
        return Integer(v)
    raise InputError(f"{what} {key}: expression string or integer required")
