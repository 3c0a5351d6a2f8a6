"""Exact symbolic kernel: the closed expression fragment and its operations."""

from .atoms import ATOM_HEADS, AbsV, Cos, Exp, Ln, Sgn, Sin, sym, t, x
from .calculus import differentiate, integrate, substitute
from .linalg import nullspace, rank, row_canonical, rref, solve_affine, to_fraction
from .normalform import NormalForm, as_exact, dict_to_expr, normalize
from .numeric import eval_numeric
from .parse import parse_expr
from .printer import to_str
from .zerotest import Verdict, is_zero

__all__ = [
    "ATOM_HEADS",
    "AbsV",
    "Cos",
    "Exp",
    "Ln",
    "NormalForm",
    "Sgn",
    "Sin",
    "Verdict",
    "as_exact",
    "dict_to_expr",
    "differentiate",
    "eval_numeric",
    "integrate",
    "is_zero",
    "normalize",
    "nullspace",
    "parse_expr",
    "rank",
    "row_canonical",
    "rref",
    "solve_affine",
    "substitute",
    "sym",
    "t",
    "to_fraction",
    "to_str",
    "x",
]
