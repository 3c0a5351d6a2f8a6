"""Seeded document streams for the three benchmark workloads.

Nothing here imports evolsym: every input is built from exact rationals with
a small bivariate Laurent-polynomial type, so document generation costs the
same on every commit and the expected outcomes are known by construction.

A document is a dict:
  cls     document class, used for stratified ordering and reporting;
  argv    CLI arguments, with "@name" standing for the file files[name];
  files   name -> JSON document written before the call;
  expect  {"exit": code, ...} plus what the checks in checks.py need.
"""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as F

# --- exact polynomials in t and x (x may carry negative exponents) -------------


class Poly:
    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {k: v for k, v in (c or {}).items() if v != 0}

    @staticmethod
    def const(v):
        return Poly({(0, 0): F(v)})

    @staticmethod
    def mono(coef, i, j):
        return Poly({(i, j): F(coef)})

    def __add__(self, o):
        o = _lift(o)
        out = dict(self.c)
        for k, v in o.c.items():
            out[k] = out.get(k, 0) + v
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({k: -v for k, v in self.c.items()})

    def __sub__(self, o):
        return self + (-_lift(o))

    def __mul__(self, o):
        o = _lift(o)
        out = {}
        for (i1, j1), v1 in self.c.items():
            for (i2, j2), v2 in o.c.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + v1 * v2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self):
        return not self.c

    def dt(self):
        return Poly({(i - 1, j): v * i for (i, j), v in self.c.items() if i})

    def dx(self, n=1):
        out = self
        for _ in range(n):
            out = Poly({(i, j - 1): v * j for (i, j), v in out.c.items() if j})
        return out

    def compose(self, tsub, xsub):
        """self(tsub, xsub) for polynomial tsub and xsub; a negative power
        of x needs xsub to be a single monomial."""
        out = Poly()
        for (i, j), v in self.c.items():
            term = Poly.const(v) * tsub**i
            if j >= 0:
                term = term * xsub**j
            else:
                ((key, cv),) = xsub.c.items()
                term = term * Poly({(key[0] * j, key[1] * j): cv**j})
            out = out + term
        return out

    def eval(self, tv, xv):
        return sum(float(v) * tv**i * xv**j for (i, j), v in self.c.items())

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for (i, j), v in sorted(self.c.items(), key=lambda kv: (-kv[0][0] - kv[0][1], kv[0])):
            factors = []
            if v != 1 or (i == 0 and j == 0):
                factors.append(_rat(v))
            for name, e in (("t", i), ("x", j)):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}" if e > 0 else f"{name}^({e})")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _lift(o):
    return o if isinstance(o, Poly) else Poly.const(o)


def _rat(v):
    v = F(v)
    s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return f"({s})" if v < 0 else s


T = Poly.mono(1, 1, 0)
X = Poly.mono(1, 0, 1)
ONE = Poly.const(1)


def doc_key(doc):
    """Identity of a document: its argv and input files."""
    blob = json.dumps([doc["argv"], doc["files"]], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


# draws per slot of a stream before the slot is skipped
REDRAWS = 20


def _fresh(make, seen):
    """make() until it gives a document not in seen, at most REDRAWS times;
    None when every draw repeats an earlier document.  A seeded draw that
    repeats one is made again in the same slot rather than skipped, so that
    the rotation of classes, and the mix of costs in any prefix of a stream,
    is the same for every seed; a slot without seeded values repeats alike
    for every seed."""
    for _ in range(REDRAWS):
        doc = make()
        key = doc_key(doc)
        if key not in seen:
            seen.add(key)
            return doc
    return None


def _equation(r, form, coeffs):
    cmap = {k: str(v) for k, v in coeffs.items() if not v.is_zero()}
    return {"order": r, "form": form, "coefficients": cmap}


# --- the paper's classification table -----------------------------------------

# expected (dimension, signature) per case label
CASES = {
    "0": (1, (1, 0, 0)),
    "1": (2, (1, 0, 1)),
    "2": (3, (1, 0, 2)),
    "3": (2, (1, 1, 0)),
    "4a": (3, (1, 1, 1)),
    "4b": (3, (1, 1, 1)),
    "5": (4, (1, 1, 2)),
}


def fixtures():
    """One reduced equation per case and order r in {3, 4, 5}: {(case, r): A}."""
    fix = {}
    for r in (3, 4, 5):

        def pad(*A, r=r):
            return tuple(A) + (Poly(),) * (r - 1 - len(A))

        fix[("0", r)] = pad(T * X**3 + T**2 * X**2)
        fix[("1", r)] = pad(X**3)
        fix[("2", r)] = tuple(Poly.mono(1, 0, l - r) for l in range(r - 1))
        fix[("3", r)] = pad(T * X)
        fix[("4a", r)] = pad(X)
        fix[("5", r)] = pad()
    fix[("4b", 3)] = (X, -X)
    fix[("4b", 4)] = (Poly(), -X, ONE)
    fix[("4b", 5)] = (X, -X, ONE, Poly())
    return fix


def reduced_doc(A):
    return _equation(len(A) + 1, "reduced", {f"A{k}": a for k, a in enumerate(A)})


# --- classify -------------------------------------------------------------------

_POOL2 = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))
_FUZZ_COEFFS = (0, 0, 0, 1, -1, 2, -2, F(1, 2))


def _fuzz_poly(rng):
    out = Poly()
    for i, j in _POOL2:
        out = out + Poly.mono(rng.choice(_FUZZ_COEFFS), i, j)
    return out


def transport_reduced(A, a, b, X0, lam, eps):
    """Image of the reduced equation u_t = u_r + sum A^j u_j under
    t~ = a t + b, x~ = X1 x + X0(t), u~ = c exp(lam t) u with X1 = eps a^(1/r),
    written from the closed coefficient formulas of the reduced class:
    A~^j = X1^j/T_t A^j, A~^1 gains -X0_t/T_t, A~^0 gains U1_t/(U1 T_t)."""
    r = len(A) + 1
    root = _rth_root(a, r)
    X1 = eps * root
    tin = (T - b) * F(1, a) if a != 1 or b else T
    x0t = X0.compose(tin, X)
    xin = (X - x0t) * F(1, X1)
    out = []
    for j, Aj in enumerate(A):
        v = Aj.compose(tin, xin) * (F(X1) ** j / a)
        if j == 1:
            v = v - X0.dt().compose(tin, X) * F(1, a)
        if j == 0:
            v = v + F(lam, a)
        out.append(v)
    return tuple(out)


def _rth_root(a, r):
    a = F(a)
    sign = -1 if a < 0 else 1
    for base in (F(1), F(2), F(1, 2)):
        if base**r == abs(a):
            return sign * base
    raise ValueError(f"{a} is not a perfect {r}-th power")


def classify_stream(rng):
    """Reduced-form documents: the 21 table fixtures, fuzz draws from the
    acceptance distribution, and group-transported fixtures.

    The cost of a document depends mostly on its class, its order, the
    fixture it starts from, the time-map slope a (a != 1 widens the ansatz
    by two rates) and the degree of the moving shift X0.  Those follow a
    fixed schedule, the same for every seed; the seed draws the rest.  Short runs then see the
    same mix of costs whatever the seed."""
    fix = fixtures()
    # fixtures interleave orders and cases so any prefix has a typical mix
    keys = sorted(fix, key=lambda k: (sorted(CASES).index(k[0]) * 7 + k[1] * 5) % 21)
    fixture_docs = [
        {
            "cls": "fixture",
            "argv": ["classify", "@eq"],
            "files": {"eq": reduced_doc(fix[key])},
            "expect": {"exit": 0, "case": key[0], "r": key[1]},
            "anchor": True,
        }
        for key in keys
    ]

    def fuzz(r):
        A = tuple(_fuzz_poly(rng) for _ in range(r - 1))
        return {
            "cls": f"fuzz-r{r}",
            "argv": ["classify", "@eq"],
            "files": {"eq": reduced_doc(A)},
            "expect": {"exit": 0, "r": r},
        }

    def transported(i, rescale):
        case, r = key = keys[(i + 10) % len(keys)]
        a = F(1)
        if rescale:
            a_pool = [F(2) ** r, F(1, 2**r)]
            if r % 2 == 1:
                a_pool.append(-(F(2) ** r))
            a = a_pool[(i // 2) % len(a_pool)]
        b = rng.choice((0, 1, -2))
        # a moving shift past a coefficient pole leaves the solvable catalog
        X0 = Poly() if case == "2" else (Poly(), ONE, T, T**2)[(i // 2) % 4]
        c, lam = rng.choice(((1, 0), (2, 0), (1, 1), (1, -1)))
        eps = -1 if (r % 2 == 0 and a != 1 and rng.random() < 0.3) else 1
        A = transport_reduced(fix[key], a, b, X0, lam, eps)
        rates = ",".join(_rat(q).strip("()") for q in (0, 1, -1, 1 / a, -1 / a))
        return {
            "cls": "transported-rescaled" if rescale else "transported",
            "argv": ["--exp-rates", rates, "classify", "@eq"],
            "files": {"eq": reduced_doc(A)},
            "expect": {"exit": 0, "case": case, "r": r},
        }

    rotation = ("fixture", 3, "transported", 4, "fixture", 5, "rescaled", 3, 4, 5)
    seen = set()
    n = 0
    moved = 0
    while True:
        kind = rotation[n % len(rotation)]
        n += 1
        if kind == "fixture":
            if not fixture_docs:
                continue
            fixture = fixture_docs.pop(0)
            doc = _fresh(lambda: fixture, seen)
        elif kind in ("transported", "rescaled"):
            doc = _fresh(lambda: transported(moved, kind == "rescaled"), seen)
            moved += 1
        else:
            doc = _fresh(lambda: fuzz(kind), seen)
        if doc is not None:
            yield doc


# --- gauge-transform -------------------------------------------------------------

_POOL_T = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))
_LEAD_EVEN = (F(2), F(1, 2), F(3), F(4))
_LEAD_ODD = _LEAD_EVEN + (F(-1), F(-2))


def _small_poly(rng, pool=_POOL_T, coeffs=(-2, -1, 0, 1, 2)):
    out = Poly()
    for i, j in pool:
        out = out + Poly.mono(rng.choice(coeffs), i, j)
    return out


def general_doc(A, B):
    r = len(A) - 1
    coeffs = {f"A{k}": a for k, a in enumerate(A)}
    coeffs["B"] = B
    return _equation(r, "general", coeffs)


def apply_operator(A, w):
    """w_t - sum_k A^k w_{x^k}: the inhomogeneity that w solves against."""
    out = w.dt()
    for k, Ak in enumerate(A):
        out = out - Ak * w.dx(k)
    return out


# transformation catalog of the conjugation test: (text, data for checks.py)
TIME_MAPS = (("2*t + 1", ("affine", 2, 1)), ("1/2*t + 3", ("affine", F(1, 2), 3)),
             ("exp(t)", ("exp",)), ("3*t", ("affine", 3, 0)), ("t - 4", ("affine", 1, -4)))
SHIFTS = (Poly(), T, T**2, ONE + 2 * T)
SCALES = (("exp(t)", 1, 1), ("exp(2*t)", 1, 2), ("2", 2, 0), ("exp(-t)", 1, -1))
OFFSETS = (Poly(), X**2, T * X, X**3 + T**2, T)


def gauge_transform_stream(rng):
    """CLI gauge and transform documents in a fixed rotation of orders, group
    elements and gauge variants; one gauge document in eight has a leading
    coefficient outside the invertible catalog and must end in exit 3."""
    nonzero = (-1, 1, 2, F(1, 2))
    anchor_rng = random.Random("gauge-transform:anchor")

    def gauge(r, variant, rng):
        # fixed monomial supports with seeded nonzero values keep the cost of
        # a gauge document nearly independent of the seed
        lead = Poly.const(rng.choice(_LEAD_EVEN if r % 2 == 0 else _LEAD_ODD))
        if variant == "bad":
            lead = T**2 + 1
        A = [Poly.const(rng.choice(nonzero)) + rng.choice(nonzero) * X for _ in range(r)]
        A.append(lead)
        w = (rng.choice(nonzero) * X**3 + rng.choice(nonzero) * T * X
             + rng.choice(nonzero))
        argv = ["gauge", "@eq"]
        if variant == "particular":
            argv += ["--particular", str(w)]
        expect = {"exit": 0}
        if variant == "bad":
            expect = {"exit": 3, "message": "time map outside the invertible catalog"}
        return {
            "cls": f"gauge-{variant}",
            "argv": argv,
            "files": {"eq": general_doc(A, apply_operator(A, w))},
            "expect": dict(expect, r=r),
            "anchor": rng is anchor_rng,
        }

    def transform(k, rng):
        # the group element cycles through the catalog; the seed draws the
        # equation
        r, ti, xi = 3 + k % 3, k % len(TIME_MAPS), (k // 3) % len(SHIFTS)
        si, oi = (k // 2) % len(SCALES), (k // 4) % len(OFFSETS)
        A = [_small_poly(rng) for _ in range(r - 1)] + [_small_poly(rng), ONE]
        B = _small_poly(rng)
        tr = {"T": TIME_MAPS[ti][0], "X0": str(SHIFTS[xi]), "U1": SCALES[si][0],
              "U0": str(OFFSETS[oi])}
        return {
            # exponential time maps cost about twice the affine ones
            "cls": "transform-exp" if TIME_MAPS[ti][1][0] == "exp" else "transform",
            "argv": ["transform", "@eq", "@tr"],
            "files": {"eq": general_doc(A, B), "tr": tr},
            "expect": {"exit": 0, "r": r, "map": [ti, xi, si, oi], "A": A, "B": B},
            "anchor": rng is anchor_rng,
        }

    gauges = ((3, "particular"), (4, "search"), (3, "search"), (4, "particular")) * 2
    gauges = gauges[:4] + ((3, "bad"),) + gauges[5:]
    seen = set()
    n = 0
    while True:
        if n % 3 == 0:
            # the first half of every cycle of gauge variants is the same for
            # all seeds, so every run compares gauge reports with digests
            g = (n // 3) % len(gauges)
            doc = _fresh(lambda: gauge(*gauges[g], anchor_rng if g < 4 else rng), seen)
        else:
            # every sixth document is the same for all seeds
            k = n - n // 3 - 1
            doc = _fresh(lambda: transform(k, anchor_rng if n % 6 == 5 else rng), seen)
        n += 1
        if doc is not None:
            yield doc


# --- certify ---------------------------------------------------------------------

WORKED_EXAMPLES = (
    ({"order": 3, "form": "reduced", "coefficients": {"A0": "x"}},
     ["solve", "@eq", "--method", "P1I", "--phi0", "0"], "c0*exp(1/4*t^4 + t*x)"),
    ({"order": 3, "form": "reduced", "coefficients": {}},
     ["solve", "@eq", "--method", "poly-t", "--N", "1", "--top-layer", "x^2"],
     "t*x^2 + 1/60*x^5"),
)


def certify_stream(rng):
    """CLI solve with all five methods plus verify --numeric, in a fixed
    rotation: fixture solves that are the same for every seed (then P1I
    solves with seeded phi0), and seeded variants (top layers, nonlocal
    constants, parameter bindings)."""
    fix = fixtures()

    def solve(cls, A, argv, **expect):
        return {"cls": cls, "argv": ["solve", "@eq"] + argv,
                "files": {"eq": reduced_doc(A)}, "expect": dict({"exit": 0}, **expect)}

    def fixed_solve(*a):
        return dict(solve(*a), anchor=True)

    fixed = []
    for eq, argv, want in WORKED_EXAMPLES:
        fixed.append({"cls": "worked-example", "argv": argv, "files": {"eq": eq},
                      "expect": {"exit": 0, "expr": want}, "anchor": True})
    for r in (3, 4, 5):
        fixed.append(fixed_solve("D1", fix[("5", r)], ["--method", "D1"]))
        fixed.append(fixed_solve("P1I", fix[("4a", r)], ["--method", "P1I"]))
        fixed.append(fixed_solve("P1I", fix[("3", r)], ["--method", "P1I"]))
        fixed.append(fixed_solve("poly-t", fix[("5", r)], ["--method", "poly-t", "--N", "2"]))
        fixed.append(fixed_solve("gen-reduction-pair", fix[("5", r)],
                                 ["--method", "gen-reduction", "--family", "D", "--N", "0",
                                  "--mu", "0", "--nu", "1"]))
        fixed.append(fixed_solve("gen-reduction", fix[("5", r)],
                           ["--method", "gen-reduction", "--family", "P", "--N", "1"]))
    def top_layer(r):
        # the top layer solves v^(r) = 0 on the free equation
        v = Poly()
        while v.is_zero():
            v = sum((Poly.mono(rng.choice((-2, -1, 0, 1, 2, F(1, 2))), 0, j)
                     for j in range(r)), Poly())
        return v

    # order, method variant and solution family cycle per class; the seed
    # draws top layers, nonlocal constants and parameter bindings
    def fixed_or_drift(i):
        if i < len(fixed):
            return fixed[i]
        key = (("4a", "3")[i % 2], 3 + (i // 2) % 3)
        phi0 = rng.choice(("1", "-1", "1/2", "2", "-1/3"))
        return solve("P1I", fix[key], ["--method", "P1I", f"--phi0={phi0}"])

    def poly_t(i):
        r, N = 3 + i % 3, 1 + (i // 3) % 2
        return solve("poly-t", fix[("5", r)],
                     ["--method", "poly-t", "--N", str(N), f"--top-layer={top_layer(r)}"])

    def gen_real(i):
        r, lam = 3 + i % 3, ("1", "-1", "1/2", "-1/2", "1/3")[(i // 3) % 5]
        return solve("gen-reduction", fix[("5", r)],
                     ["--method", "gen-reduction", "--family", "D", "--N", "0",
                      f"--lambda={lam}"])

    def gen_complex(i):
        r = 3 + i % 2
        mu, nu = (("0", "1"), ("-1", "1"), ("1/2", "1"), ("1/2", "1/2"), ("-1/2", "1"))[(i // 2) % 5]
        return solve("gen-reduction-pair", fix[("5", r)],
                     ["--method", "gen-reduction", "--family", "D", "--N", "0",
                      f"--mu={mu}", f"--nu={nu}"])

    def nonlocal_(i):
        seed_expr = ("t*x^2 + 1/60*x^5", "x^3 + 6*t", "x", "t*x + 1/24*x^4")[i % 4]
        seed = {"kind": "symbolic", "expr": seed_expr, "certificate": "zero-residual"}
        argv = ["--method", "nonlocal", "--seed", "@seed",
                "--x0=" + rng.choice(("0", "0.25")), "--t0=0",
                "--v0=" + rng.choice(("0", "0.5", "1", "2")),
                "--phi0-value=" + rng.choice(("0", "0.5", "-0.5", "0.25"))]
        doc = solve("nonlocal", fix[("5", 3)], argv, order=6)
        doc["files"]["seed"] = seed
        return doc

    def verify(i):
        # a parameter family member with its constants bound to rationals
        r, expr = ((3, "c0*exp(1/4*t^4 + t*x)"),
                   (3, "c0*t*x^2 + c0*1/60*x^5 + c1*x"),
                   (4, "c0*x^4 + c1*x^2 + c0*24*t"))[i % 3]
        vals = {"c0": rng.choice(("1/2", "1/3", "2", "-1/2", "1/4")),
                "c1": rng.choice(("1", "-2", "1/4", "5"))}
        for name, v in vals.items():
            expr = expr.replace(name, f"({v})")
        A = fix[("4a", r)] if "exp" in expr else fix[("5", r)]
        return {"cls": "verify", "argv": ["verify", "--numeric", "@eq", "@sol"],
                "files": {"eq": reduced_doc(A),
                          "sol": {"kind": "symbolic", "expr": expr,
                                  "certificate": "zero-residual"}},
                "expect": {"exit": 0, "order": 6}}

    rotation = (fixed_or_drift, poly_t, fixed_or_drift, verify, gen_real, fixed_or_drift,
                nonlocal_, fixed_or_drift, poly_t, gen_complex, fixed_or_drift, verify)
    seen = set()
    made = Counter()
    n = 0
    while True:
        kind = rotation[n % len(rotation)]
        n += 1
        doc = _fresh(lambda: kind(made[kind]), seen)
        made[kind] += 1
        if doc is not None:
            yield doc


# length of each stream's fixed rotation of document classes
CYCLE = {"classify": 10, "gauge-transform": 6, "certify": 12}

STREAMS = {
    "classify": classify_stream,
    "gauge-transform": gauge_transform_stream,
    "certify": certify_stream,
}


def anchor_documents(workload, count):
    """The first `count` seed-independent documents of a workload's stream,
    the ones whose digests every run can compare."""
    stream = STREAMS[workload](random.Random(f"{workload}:0"))
    out = []
    for _ in range(20 * count):
        doc = next(stream)
        if doc.get("anchor"):
            out.append(doc)
            if len(out) == count:
                break
    return out


def documents(workload, seed, count):
    """The first `count` documents of a workload's stream for a seed."""
    stream = STREAMS[workload](random.Random(f"{workload}:{seed}"))
    return [next(stream) for _ in range(count)]
