"""Equations and symmetry vector fields.

An evolution equation is u_t = A^r u_r + ... + A^1 u_1 + A^0 u + B with
u_k the k-th x-derivative, r > 2, A^r nonvanishing.  The reduced form has
A^r = 1, A^{r-1} = 0, B = 0 and stores only A^0..A^{r-2}.

Symmetry fields are spanned by

    D(tau) = tau d/dt + (1/r) tau' x d/dx     (tau, chi, phi functions of t)
    P(chi) = chi d/dx
    I(phi) = phi u d/du
    Z(eta) = eta d/du                          (eta a function of t and x)

and VectorField(tau, chi, phi, eta) realizes D(tau)+P(chi)+I(phi)+Z(eta).

Every expression field of these types, and of the transformation and ODE
types built on them, holds normalize(e).as_expr(): the constructors check
the input as given, then store its normal form, so consumers compare,
print and reuse fields without normalizing them again.
"""

from dataclasses import dataclass

from sympy import Expr, Rational, S

from .errors import InputError
from .kernel import (
    Verdict,
    as_exact,
    differentiate,
    is_zero,
    normalize,
    rank,
    solve_affine,
    t,
    to_fraction,
    to_str,
    x,
)
from .kernel.normalform import common_numerators


@dataclass(frozen=True)
class EvolutionEquation:
    r: int
    A: tuple
    B: Expr = S.Zero

    def __post_init__(self):
        if not (isinstance(self.r, int) and self.r >= 3):
            raise InputError("order r must be an integer >= 3")
        if len(self.A) != self.r + 1:
            raise InputError(f"need {self.r + 1} coefficients A^0..A^{self.r}")
        A = tuple(as_exact(a) for a in self.A)
        B = as_exact(self.B)
        for a in A + (B,):
            if _has_bad_vars(a):
                raise InputError("coefficients may depend on t, x and parameters only")
        if is_zero(A[self.r]) is not Verdict.NONZERO:
            raise InputError("leading coefficient A^r must be certifiably nonzero")
        object.__setattr__(self, "A", tuple(normalize(a).as_expr() for a in A))
        object.__setattr__(self, "B", normalize(B).as_expr())


@dataclass(frozen=True)
class ReducedEquation:
    r: int
    A: tuple

    def __post_init__(self):
        if not (isinstance(self.r, int) and self.r >= 3):
            raise InputError("order r must be an integer >= 3")
        if len(self.A) != self.r - 1:
            raise InputError(f"need {self.r - 1} coefficients A^0..A^{self.r - 2}")
        A = tuple(as_exact(a) for a in self.A)
        for a in A:
            if _has_bad_vars(a):
                raise InputError("coefficients may depend on t, x and parameters only")
        object.__setattr__(self, "A", tuple(normalize(a).as_expr() for a in A))


def _has_bad_vars(e):
    return any(s.name == "u" for s in e.free_symbols)


def embed_reduced(eq):
    """View a reduced equation as a full one (A^{r-1}=0, A^r=1, B=0)."""
    if isinstance(eq, EvolutionEquation):
        return eq
    return EvolutionEquation(eq.r, eq.A + (S.Zero, S.One), S.Zero)


def as_reduced(eq):
    """View a full equation in the reduced form, checking the gauges hold."""
    if isinstance(eq, ReducedEquation):
        return eq
    if not _reduced_shape(eq):
        raise InputError("equation is not reduced (needs A^r=1, A^(r-1)=0, B=0)")
    return ReducedEquation(eq.r, eq.A[: eq.r - 1])


def _reduced_shape(eq, homogeneous=True):
    """A^r = 1 and A^{r-1} = 0, and also B = 0 when homogeneous, each
    certified ZERO by is_zero."""
    r = eq.r
    return (
        is_zero(eq.A[r] - 1) is Verdict.ZERO
        and is_zero(eq.A[r - 1]) is Verdict.ZERO
        and (not homogeneous or is_zero(eq.B) is Verdict.ZERO)
    )


@dataclass(frozen=True)
class VectorField:
    tau: Expr = S.Zero
    chi: Expr = S.Zero
    phi: Expr = S.Zero
    eta0: Expr = S.Zero

    def __post_init__(self):
        names = ("tau", "chi", "phi", "eta0")
        comps = [as_exact(getattr(self, name)) for name in names]
        for name, c in zip(names[:3], comps):
            if x in c.free_symbols:
                raise InputError(f"{name} must not depend on x")
        for name, c in zip(names, comps):
            object.__setattr__(self, name, normalize(c).as_expr())

    def describe(self):
        parts = []
        labelled = ((self.tau, "D"), (self.chi, "P"), (self.phi, "I"), (self.eta0, "Z"))
        for c, label in labelled:
            if c != 0:
                parts.append(f"{label}({to_str(c)})")
        return " + ".join(parts) if parts else "0"


def lie_bracket(q1, q2, r):
    """Commutator [q1, q2] for equations of order r."""
    if not (isinstance(r, int) and r >= 3):
        raise InputError("order r must be an integer >= 3")
    rr = Rational(1, r)
    t1, c1, p1, z1 = q1.tau, q1.chi, q1.phi, q1.eta0
    t2, c2, p2, z2 = q2.tau, q2.chi, q2.phi, q2.eta0
    dt = lambda f: differentiate(f, t)  # noqa: E731
    tau_b = t1 * dt(t2) - t2 * dt(t1)
    chi_b = t1 * dt(c2) - rr * dt(t1) * c2 - (t2 * dt(c1) - rr * dt(t2) * c1)
    phi_b = t1 * dt(p2) - t2 * dt(p1)
    zeta_b = S.Zero
    if z1 != 0 or z2 != 0:
        act1 = t1 * differentiate(z2, t) + (rr * dt(t1) * x + c1) * differentiate(z2, x) - p1 * z2
        act2 = t2 * differentiate(z1, t) + (rr * dt(t2) * x + c2) * differentiate(z1, x) - p2 * z1
        zeta_b = act1 - act2
    return VectorField(tau_b, chi_b, phi_b, zeta_b)


# --- coordinates over a common function basis -------------------------------


def _slot_coords(funcs):
    """Monomial-coordinate vectors for a list of functions, over a common
    denominator.  Returns (keys, rows of Fractions)."""
    dicts = common_numerators([normalize(f) for f in funcs])
    keys = sorted({k for d in dicts for k in d}, key=repr)
    rows = [[to_fraction(d.get(k, S.Zero)) for k in keys] for d in dicts]
    return keys, rows


def _combination(rows):
    """Exact coefficients that write the last coordinate row as a
    combination of the others, or None."""
    *cols, target = rows
    return solve_affine([[c[k] for c in cols] for k in range(len(target))], target)


def _slot_blocks(basis):
    """Exact coordinate rows of basis, one block per slot tau, chi, phi, eta0."""
    return [
        _slot_coords([getattr(q, slot) for q in basis])[1]
        for slot in ("tau", "chi", "phi", "eta0")
    ]


def _stacked(blocks):
    return [sum(rows, []) for rows in zip(*blocks)]


def field_coordinates(basis):
    """Stacked exact coordinate rows for (tau | chi | phi | eta0) slots."""
    return _stacked(_slot_blocks(basis))


def algebra_signature(basis):
    """Signature (k0, k1, k2): dimensions of the I-part, the P-complement
    and the D-complement in the flag I <= I+P <= all."""
    basis = tuple(basis)
    if not basis:
        return (0, 0, 0)
    blocks = _slot_blocks(basis)
    n = len(basis)
    if rank(_stacked(blocks)) < n:
        raise InputError("basis is linearly dependent")
    k2 = rank(blocks[0])
    k12 = rank(_stacked(blocks[:2]))
    return (n - k12, k12 - k2, k2)


def in_span(field, basis):
    """Exact coordinates of field in span(basis), or None."""
    return _combination(field_coordinates(list(basis) + [field]))


def bracket_closure_check(basis, r):
    """All pairwise brackets lie in span(basis); returns list of failures."""
    bad = []
    for i, qi in enumerate(basis):
        for j in range(i + 1, len(basis)):
            b = lie_bracket(qi, basis[j], r)
            if in_span(b, basis) is None:
                bad.append((i, j))
    return bad


@dataclass(frozen=True)
class SymmetryAlgebra:
    r: int
    basis: tuple
    signature: tuple
    case_label: str = ""
    ansatz: str = ""
    caveats: tuple = ()

    @property
    def dim(self):
        return len(self.basis)
