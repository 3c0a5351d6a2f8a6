"""Correctness checks for every benchmark document, independent of the code
path that produced the report.

Each check returns None when the report is right and a one-line reason when
it is not.  Expected outcomes come from docs.py (by construction) or from
the closed formulas re-implemented here; evolsym is used only to read
expressions and to re-run the exact residual oracle on bound solutions.
"""

import json
import math
import random

from docs import CASES, SCALES, SHIFTS, OFFSETS, TIME_MAPS

# residual bound and convergence-order window for numeric certificates
MAX_RESIDUAL = 1e-6
ORDER_WINDOW = 0.5
# a slope is undefined when every grid level sits at the rounding floor
ROUNDING_FLOOR = 1e-8
REL_TOL = 1e-9

_COMMANDS = ("classify", "gauge", "transform", "solve", "verify")
_LABELS = {sig: case for case, (_dim, sig) in CASES.items() if case not in ("4a", "4b")}


class Checker:
    def __init__(self):
        from evolsym.cli import parse_equation_document
        from evolsym.kernel import Verdict, eval_numeric, is_zero, parse_expr, substitute, sym
        from evolsym.verify import residual_symbolic

        self.parse_eq = parse_equation_document
        self.parse_expr = parse_expr
        self.eval_numeric = eval_numeric
        self.is_zero = is_zero
        self.zero = Verdict.ZERO
        self.substitute = substitute
        self.sym = sym
        self.residual_symbolic = residual_symbolic

    def check(self, doc, code, report, stderr):
        want = doc["expect"]["exit"]
        if code != want:
            return f"exit {code}, expected {want}: {stderr.strip()[:200]}"
        if code != 0:
            message = doc["expect"].get("message")
            if message and message not in stderr:
                return f"exit {code} without {message!r}: {stderr.strip()[:200]}"
            return None
        try:
            rep = json.loads(report)
        except (TypeError, ValueError):
            return "report is not JSON"
        cmd = next(a for a in doc["argv"] if a in _COMMANDS)
        return getattr(self, "_" + cmd)(doc, rep)

    # --- classify -----------------------------------------------------------

    def _classify(self, doc, rep):
        sig = tuple(rep["signature"])
        dim = rep["dim"]
        k0, k1, k2 = sig
        if k0 != 1 or k1 > 1 or k2 > 2 or dim > 4:
            return f"structural bounds violated: dim {dim} signature {sig}"
        if dim != sum(sig) or len(rep["basis"]) != dim:
            return f"dimension {dim} disagrees with signature {sig} or basis"
        label = rep["case"]
        expected_label = _LABELS.get(sig)
        if expected_label is not None and label != expected_label:
            return f"label {label} does not match signature {sig}"
        if sig == (1, 1, 1) and label not in ("4a", "4b"):
            return f"label {label} does not match signature {sig}"
        case = doc["expect"].get("case")
        if case is not None and (label, dim, sig) != (case,) + CASES[case]:
            return f"table case {case}: got {label}, dim {dim}, signature {sig}"
        return None

    # --- gauge-transform ------------------------------------------------------

    def _gauge(self, doc, rep):
        eq = rep["equation"]
        r = doc["expect"]["r"]
        allowed = {f"A{k}" for k in range(r - 1)}
        if eq["order"] != r or eq["form"] != "reduced" or set(eq["coefficients"]) - allowed:
            return f"gauged equation is not in reduced form: {json.dumps(eq)[:200]}"
        if rep["report"]["target_form"] != "reduced-homogeneous":
            return f"target form {rep['report']['target_form']!r}"
        return None

    def _transform(self, doc, rep):
        """Pointwise agreement with the closed coefficient formulas for
        x-affine maps with U1 = U1(t)."""
        r = doc["expect"]["r"]
        ti, xi, si, oi = doc["expect"]["map"]
        A, B = doc["expect"]["A"], doc["expect"]["B"]
        X0 = SHIFTS[xi]
        _text, c, lam = SCALES[si]
        U0 = OFFSETS[oi]
        tmap = TIME_MAPS[ti][1]
        got = _coefficients(rep, r)
        if isinstance(got, str):
            return got
        rng = random.Random(json.dumps(doc["files"], sort_keys=True))
        for _ in range(3):
            tv, xv = rng.uniform(0.2, 0.8), rng.uniform(0.3, 1.1)
            if tmap[0] == "affine":
                a, b = float(tmap[1]), float(tmap[2])
                Tv, Tt, X1, X1t = a * tv + b, a, a ** (1.0 / r), 0.0
            else:
                Tv = Tt = math.exp(tv)
                X1 = math.exp(tv / r)
                X1t = X1 / r
            x0, x0t = X0.eval(tv, 0.0), X0.dt().eval(tv, 0.0)
            Av = [a.eval(tv, xv) for a in A]
            want = [(Av[0] + lam) / Tt, (X1 * Av[1] - (X1t * xv + x0t)) / Tt]
            want += [X1**j * Av[j] / Tt for j in range(2, r + 1)]
            u1 = c * math.exp(lam * tv)
            rho_t = (U0.dt().eval(tv, xv) - lam * U0.eval(tv, xv)) / u1
            op = rho_t - sum(Av[k] * U0.dx(k).eval(tv, xv) / u1 for k in range(r + 1))
            want.append(u1 / Tt * (B.eval(tv, xv) + op))
            point = {"t": Tv, "x": X1 * xv + x0}
            for name, text, w in zip(_names(r), got, want):
                expr = self.parse_expr(text)
                terms = expr.args if expr.is_Add else (expr,)
                # the printed sums can cancel by many orders of magnitude, so
                # floating-point agreement is relative to the largest term
                scale = sum(abs(self.eval_numeric(term, point)) for term in terms)
                v = self.eval_numeric(expr, point)
                if abs(v - w) > REL_TOL * max(1.0, abs(w), scale):
                    return f"{name} = {v!r} at {point}, closed formula gives {w!r}"
        return None

    # --- certify ----------------------------------------------------------------

    def _solve(self, doc, rep):
        sols = rep.get("solutions") or []
        if not sols:
            return "no solutions"
        expr = doc["expect"].get("expr")
        if expr is not None and sols[0].get("expr") != expr:
            return f"worked example gave {sols[0].get('expr')!r}, expected {expr!r}"
        eq, _params = self.parse_eq(doc["files"]["eq"])
        for i, s in enumerate(sols):
            if s["kind"] == "symbolic":
                if s.get("certificate") != "zero-residual":
                    return f"solution {i}: certificate {s.get('certificate')!r}"
                params = tuple(s.get("parameters", ()))
                vals = ("1/2", "1/3", "2", "-1/2")
                bound = self.substitute(
                    self.parse_expr(s["expr"], declared=params),
                    {self.sym(p): self.parse_expr(vals[k % 4]) for k, p in enumerate(params)},
                )
                if self.is_zero(self.residual_symbolic(eq, bound)) is not self.zero:
                    return f"solution {i}: residual of the bound solution is not zero"
            else:
                why = _numeric_certificate(s.get("max_residual"), s.get("slope"), 6)
                if why:
                    return f"solution {i}: {why}"
        return None

    def _verify(self, doc, rep):
        if rep.get("symbolic_residual") != "zero" or rep.get("verdict") != "zero":
            return f"symbolic verdict {rep.get('verdict')!r}"
        return _numeric_certificate(rep.get("max_residual"), rep.get("slope"), doc["expect"]["order"])


def _numeric_certificate(max_residual, slope, order):
    if max_residual is None or max_residual > MAX_RESIDUAL:
        return f"max residual {max_residual}"
    if slope is None:
        if max_residual > ROUNDING_FLOOR:
            return f"no slope above the rounding floor (residual {max_residual})"
        return None
    if abs(slope - order) > ORDER_WINDOW:
        return f"slope {slope} outside {order} +- {ORDER_WINDOW}"
    return None


def _names(r):
    return [f"A{k}" for k in range(r + 1)] + ["B"]


def _coefficients(rep, r):
    """Coefficient strings A0..Ar, B of an equation document of any form."""
    cmap = rep["coefficients"]
    form = rep["form"]
    if rep["order"] != r:
        return f"order {rep['order']}, expected {r}"
    out = {name: cmap.get(name, "0") for name in _names(r)}
    if form != "general":
        if set(cmap) - set(_names(r)[: r - 1] + ["B"]):
            return f"unexpected coefficients for form {form}"
        out[f"A{r - 1}"], out[f"A{r}"] = "0", "1"
        if form == "reduced":
            out["B"] = "0"
    return [out[name] for name in _names(r)]

