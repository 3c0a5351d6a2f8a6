"""Command-line surface: equation documents in, reports out.

All I/O is UTF-8 JSON with expression strings; exact rationals are kept as
strings ("1/3") so nothing is rounded in transit.  Exit codes: 0 ok,
2 invalid input, 3 unsupported request, 4 internal invariant violation.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from sympy import Rational, S

from .equivalence import (
    EquivTransformation,
    gauge_all,
    pushforward_equation,
)
from .errors import EvolsymError, InputError, ParseError
from .kernel import (
    Verdict,
    is_zero,
    parse_expr,
    read_expr,
    sym,
    substitute,
    to_str,
)
from .model import (
    EvolutionEquation,
    ReducedEquation,
    VectorField,
    _reduced_shape,
    as_reduced,
    embed_reduced,
)
from .solutions import (
    Solution,
    default_grid,
    generalized_reduction,
    generate_nonlocal,
    polynomial_t_solutions,
    reduce_D1,
    reduce_P1Iphi,
    solve_const_ode,
)
from .symmetry import AnsatzSpace, classify, verify_symmetry
from .verify import GridSpec, residual_numeric, residual_symbolic

FORMS = ("general", "reduced-inhomogeneous", "reduced")

# the highest equation order a document may declare: each order costs a
# coefficient slot and a determining-system block, so an oversized integer
# would exhaust memory before any other check
MAX_ORDER = 64


# --- documents -------------------------------------------------------------------


def _coefficient_names(r, form):
    if form == "general":
        return [f"A{k}" for k in range(r + 1)] + ["B"]
    names = [f"A{k}" for k in range(r - 1)]
    if form == "reduced-inhomogeneous":
        names.append("B")
    return names


def parse_equation_document(doc):
    """EquationDocument -> (equation, declared parameter names)."""
    if not isinstance(doc, dict):
        raise InputError("equation document must be a JSON object")
    try:
        r = doc["order"]
        form = doc["form"]
        cmap = doc["coefficients"]
    except KeyError as exc:
        raise InputError(f"equation document: missing {exc}") from None
    if not (isinstance(r, int) and r >= 3):
        raise InputError("order must be an integer >= 3")
    if r > MAX_ORDER:
        raise InputError(f"order exceeds the limit of {MAX_ORDER}")
    if form not in FORMS:
        raise InputError(f"form must be one of {FORMS}")
    if not isinstance(cmap, dict):
        raise InputError("coefficients must be a name -> expression map")
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise InputError("equation document: parameters must be a name -> value map")
    declared = []
    bindings = {}
    for name, val in params.items():
        declared.append(name)
        if val != "symbolic":
            try:
                # exactly int or str: bools and floats are refused
                if type(val) is not int and not isinstance(val, str):
                    raise ValueError
                fr = Fraction(val)
            except (ValueError, ZeroDivisionError):
                raise InputError(
                    f'parameter {name}: rational value or "symbolic" required'
                ) from None
            bindings[sym(name)] = Rational(fr.numerator, fr.denominator)
    allowed = _coefficient_names(r, form)
    for name in cmap:
        if name not in allowed:
            raise InputError(
                f"coefficient {name} is not consistent with form {form!r}"
            )

    def coeff(name):
        e = read_expr(cmap, name, S.Zero, tuple(declared), "coefficient")
        if bindings:
            e = substitute(e, bindings)
        return e

    if form == "general":
        A = tuple(coeff(f"A{k}") for k in range(r + 1))
        eq = EvolutionEquation(r, A, coeff("B"))
    else:
        A = tuple(coeff(f"A{k}") for k in range(r - 1))
        if form == "reduced-inhomogeneous":
            eq = EvolutionEquation(
                r,
                A + (S.Zero, S.One),
                coeff("B"),
            )
        else:
            eq = ReducedEquation(r, A)
    return eq, tuple(declared)


def equation_to_document(eq):
    """Inverse of parse_equation_document, in the tightest form that fits."""
    eq = embed_reduced(eq)
    reduced_shape = _reduced_shape(eq, homogeneous=False)
    bzero = is_zero(eq.B) is Verdict.ZERO
    if reduced_shape:
        cmap = {f"A{k}": to_str(eq.A[k]) for k in range(eq.r - 1) if eq.A[k] != 0}
        if bzero:
            return {"order": eq.r, "form": "reduced", "coefficients": cmap}
        cmap["B"] = to_str(eq.B)
        return {
            "order": eq.r,
            "form": "reduced-inhomogeneous",
            "coefficients": cmap,
        }
    cmap = {f"A{k}": to_str(eq.A[k]) for k in range(eq.r + 1) if eq.A[k] != 0}
    if not bzero:
        cmap["B"] = to_str(eq.B)
    return {"order": eq.r, "form": "general", "coefficients": cmap}


def parse_field_document(doc, declared=()):
    if not isinstance(doc, dict):
        raise InputError("vector-field document must be a JSON object")
    comps = {}
    for name in ("tau", "chi", "phi", "eta0"):
        comps[name] = read_expr(doc, name, S.Zero, declared, "vector-field")
    extra = set(doc) - {"tau", "chi", "phi", "eta0"}
    if extra:
        raise InputError(f"unknown vector-field components: {sorted(extra)}")
    return VectorField(**comps)


def _basis_sort_key(q):
    """Display order: I-block, then D-block, then P-block, length-lex inside.
    Classify's fields have eta0 = 0."""
    tau, chi, phi = (to_str(c) for c in (q.tau, q.chi, q.phi))
    block = 1 if tau != "0" else 2 if chi != "0" else 0
    return (block, len(tau), tau, len(chi), chi, len(phi), phi)


# --- i/o helpers ------------------------------------------------------------------


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers malformed JSON, bytes that are not UTF-8 and integer
    # literals past the interpreter's digit limit; RecursionError, nesting
    # deeper than the decoder's stack
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from None


def _emit(obj, args):
    text = json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rational_flag(value, name):
    try:
        fr = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--{name} must be rational, got {value!r}") from None
    return Rational(fr.numerator, fr.denominator)


def _ansatz_space(args):
    kw = {}
    if args.ansatz_degree is not None:
        kw["Kmax"] = args.ansatz_degree
    if args.exp_rates is not None:
        rates = []
        for part in args.exp_rates.split(","):
            part = part.strip()
            if part:
                rates.append(_rational_flag(part, "exp-rates"))
        kw["rates"] = tuple(rates)
    return AnsatzSpace(**kw)


def _grid_from_args(args, r):
    if args.grid:
        return GridSpec.from_doc(_read_json(args.grid))
    return default_grid(r)


def _to_reduced(eq):
    """Reduced form plus the gauge caveat trail, if any."""
    if isinstance(eq, ReducedEquation):
        return eq, ()
    eq = embed_reduced(eq)
    if _reduced_shape(eq):
        return as_reduced(eq), ()
    red, chain = gauge_all(eq)
    steps = [step.to_doc() for step in chain]
    return red, (f"gauged to reduced form via {json.dumps(steps, sort_keys=True)}",)


# --- commands ---------------------------------------------------------------------


def _classify_one(doc, args):
    eq, _params = parse_equation_document(doc)
    red, caveats = _to_reduced(eq)
    alg = classify(red, _ansatz_space(args))
    basis = sorted(alg.basis, key=_basis_sort_key)
    printed = [q.describe() for q in basis]
    return {
        "case": alg.case_label,
        "dim": alg.dim,
        "signature": list(alg.signature),
        "basis": printed,
        "ansatz": alg.ansatz,
        "caveats": list(caveats) + list(alg.caveats),
        "summary": (
            f"case {alg.case_label}; dim {alg.dim};"
            f" basis {','.join(printed)}"
        ),
    }


def cmd_classify(args):
    doc = _read_json(args.equation)
    if not isinstance(doc, list):
        _emit(_classify_one(doc, args), args)
        return 0
    # a batch reports each document's error in its place
    results = []
    for item in doc:
        try:
            results.append(_classify_one(item, args))
        except EvolsymError as exc:
            results.append({"error": str(exc), "exit_code": exc.exit_code})
    _emit({"results": results}, args)
    return 0


def cmd_transform(args):
    doc = _read_json(args.equation)
    eq, params = parse_equation_document(doc)
    eq = embed_reduced(eq)
    trdoc = _read_json(args.transformation)
    tr = EquivTransformation.from_doc(trdoc, eq.r, params=params)
    out = pushforward_equation(eq, tr)
    _emit(equation_to_document(out), args)
    return 0


def cmd_gauge(args):
    doc = _read_json(args.equation)
    eq, params = parse_equation_document(doc)
    particular = None
    if args.particular:
        particular = parse_expr(args.particular, declared=params)
    red, chain = gauge_all(embed_reduced(eq), particular=particular)
    _emit(
        {
            "equation": equation_to_document(red),
            "report": {
                "target_form": "reduced-homogeneous",
                "chain": [step.to_doc() for step in chain],
            },
        },
        args,
    )
    return 0


def _solution_docs(sols):
    return [s.to_doc() for s in sols]


def cmd_solve(args):
    doc = _read_json(args.equation)
    eq, params = parse_equation_document(doc)
    red, caveats = _to_reduced(eq)
    out = {"method": args.method}
    if caveats:
        out["caveats"] = list(caveats)
    phi0 = None
    if args.phi0 is not None:
        phi0 = _rational_flag(args.phi0, "phi0")
    top = None
    if args.top_layer is not None:
        top = parse_expr(args.top_layer, declared=params)

    if args.method == "D1":
        ode = reduce_D1(red)
        out["ode"] = ode.describe()
        if ode.is_constant():
            out["solutions"] = _solution_docs(solve_const_ode(ode))
        else:
            out["solutions"] = []
            out["notes"] = ["non-constant reduced ODE returned unsolved"]
    elif args.method == "P1I":
        sol = reduce_P1Iphi(
            red, phi0=phi0, grid=_grid_from_args(args, red.r), phi0_value=args.phi0_value
        )
        out["solutions"] = [sol.to_doc()]
    elif args.method == "poly-t":
        if args.N is None:
            raise InputError("--N is required for --method poly-t")
        sols = polynomial_t_solutions(red, args.N, top_layer=top)
        out["solutions"] = _solution_docs(sols)
    elif args.method == "gen-reduction":
        if args.family is None or args.N is None:
            raise InputError(
                "--family and --N are required for --method gen-reduction"
            )
        kw = {}
        if args.lam is not None:
            kw["lam"] = _rational_flag(args.lam, "lambda")
        if args.mu is not None:
            kw["mu"] = _rational_flag(args.mu, "mu")
        if args.nu is not None:
            kw["nu"] = _rational_flag(args.nu, "nu")
        gr = generalized_reduction(
            red, args.family, args.N, phi0=phi0, top_layer=top, **kw
        )
        out["ansatz"] = gr.ansatz
        out["system"] = gr.system.describe()
        out["solutions"] = _solution_docs(gr.solutions)
        if gr.notes:
            out["notes"] = list(gr.notes)
    else:  # nonlocal; argparse's choices refuse any other method
        if args.seed is None:
            raise InputError("--seed is required for --method nonlocal")
        seed_doc = _read_json(args.seed)
        seed = Solution.from_doc(seed_doc)
        sol = generate_nonlocal(
            red,
            seed,
            args.x0,
            args.t0,
            args.v0,
            _grid_from_args(args, red.r),
            phi0_value=args.phi0_value,
        )
        out["solutions"] = [sol.to_doc()]
    _emit(out, args)
    return 0


def cmd_verify(args):
    doc = _read_json(args.equation)
    eq, params = parse_equation_document(doc)
    sdoc = _read_json(args.solution)
    sol = Solution.from_doc(sdoc)
    report = {}
    if sol.kind == "symbolic":
        res = residual_symbolic(eq, sol.expr)
        verdict = is_zero(res)
        report["symbolic_residual"] = (
            "zero" if verdict is Verdict.ZERO else to_str(res)
        )
        report["verdict"] = verdict.name.lower()
    elif sol.expr is None and sol.grid is None:
        raise InputError("numeric solution document carries neither 'expr' nor 'grid'")
    if sol.kind == "numeric" or (args.numeric and not sol.parameters):
        u = sol.expr if sol.grid is None else sol.grid
        mr, slope = residual_numeric(eq, u, _grid_from_args(args, eq.r))
        report["max_residual"] = mr
        report["slope"] = slope
    if args.tolerance is not None and "max_residual" in report:
        report["within_tolerance"] = bool(
            report["max_residual"] <= args.tolerance
        )
    _emit(report, args)
    return 0


def cmd_symmetry_check(args):
    doc = _read_json(args.equation)
    eq, params = parse_equation_document(doc)
    red, caveats = _to_reduced(eq)
    q = parse_field_document(_read_json(args.field), declared=params)
    rep = verify_symmetry(red, q)
    out = {
        "holds": rep.holds,
        "residuals": [to_str(e) for e in rep.residuals],
        "verdicts": [v.name.lower() for v in rep.verdicts],
    }
    if caveats:
        out["caveats"] = list(caveats)
    _emit(out, args)
    return 0


# --- argument parsing ---------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="evolsym",
        description=(
            "Symmetry classification, equivalence transformations, and"
            " certified exact solutions for linear evolution equations"
            " u_t = A^k u_k + B of order r > 2."
        ),
    )
    ap.add_argument(
        "--ansatz-degree",
        type=int,
        default=None,
        help="max power of t in the symmetry ansatz (default 3)",
    )
    ap.add_argument(
        "--exp-rates",
        default=None,
        help="comma-separated rational exponential rates for the ansatz",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="numeric residual tolerance for verification verdicts",
    )
    ap.add_argument("--output", default=None, help="write the report to a file")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="Lie symmetry classification")
    p.add_argument("equation", help="equation document (JSON file or -)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("transform", help="apply an equivalence transformation")
    p.add_argument("equation")
    p.add_argument("transformation", help="transformation document (JSON)")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("gauge", help="gauge to the reduced form")
    p.add_argument("equation")
    p.add_argument(
        "--particular",
        default=None,
        help="particular solution used to absorb the inhomogeneity",
    )
    p.set_defaults(func=cmd_gauge)

    p = sub.add_parser("solve", help="generate certified solutions")
    p.add_argument("equation")
    p.add_argument(
        "--method",
        required=True,
        choices=["D1", "P1I", "poly-t", "gen-reduction", "nonlocal"],
    )
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--family", choices=["D", "P"], default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--mu", default=None)
    p.add_argument("--nu", default=None)
    p.add_argument("--phi0", default=None)
    p.add_argument("--top-layer", default=None)
    p.add_argument("--seed", default=None, help="seed solution document")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--v0", type=float, default=0.0)
    p.add_argument("--phi0-value", type=float, default=0.0)
    p.add_argument("--grid", default=None, help="grid document (JSON)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="residual oracles for a solution")
    p.add_argument("equation")
    p.add_argument("solution", help="solution document (JSON file or -)")
    p.add_argument("--grid", default=None, help="grid document (JSON)")
    p.add_argument(
        "--numeric",
        action="store_true",
        help="also run the finite-difference oracle on symbolic solutions",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("symmetry-check", help="verify a vector field")
    p.add_argument("equation")
    p.add_argument("field", help="vector-field document (JSON)")
    p.set_defaults(func=cmd_symmetry_check)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.tolerance is not None and not 0 <= args.tolerance < math.inf:
            raise InputError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
        return args.func(args)
    except EvolsymError as exc:
        err = {"error": str(exc), "exit_code": exc.exit_code}
        if isinstance(exc, ParseError):
            err["offset"] = exc.offset
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - defensive
        err = {"error": f"internal: {exc}", "exit_code": 4}
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
