"""Exact symbolic kernel: the closed expression fragment and its operations."""

from .atoms import ATOM_HEADS, AbsV, Cos, Exp, Ln, Sgn, Sin, sym, t, x
from .calculus import derivative_terms, differentiate, integrate, substitute
from .linalg import nullspace, rank, row_canonical, rref, solve_affine, to_fraction
from .normalform import NormalForm, as_exact, dict_to_expr, normalize
from .numeric import eval_grid, eval_numeric, numeric_function
from .parse import parse_expr, read_expr
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
    "derivative_terms",
    "dict_to_expr",
    "differentiate",
    "eval_grid",
    "eval_numeric",
    "integrate",
    "is_zero",
    "normalize",
    "nullspace",
    "numeric_function",
    "parse_expr",
    "rank",
    "read_expr",
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
