"""Layer tracing from outside the program.

Every public function (and public method of a plain class) defined in an
evolsym module is replaced, in every evolsym namespace that bound it, by a
wrapper that records a span: calls and self time per function, and self
time per layer.  Layers are the modules cli, symmetry, model, equivalence,
solutions, verify and kernel (all of evolsym.kernel.*), plus scipy for
scipy.integrate.quad as seen from evolsym.solutions.

Self time is a span's duration minus the time covered by the wrapped spans
it encloses, so a layer's self time is its own work only.  The code is
single-threaded, so no layer waits or queues.  Spans are aggregated in
memory while tracing is on; nothing is recorded between documents.
"""

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "symmetry", "model", "equivalence", "solutions", "verify", "kernel", "scipy")
# private names that the per-layer metrics name explicitly
EXTRA = {"evolsym.model": ("_slot_coords",)}


def layer_of(module_name):
    parts = module_name.split(".")
    if parts[0] != "evolsym" or len(parts) < 2:
        return None
    return parts[1] if parts[1] in LAYERS else None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.stack = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.layer_self_s = defaultdict(float)
        self.counts = Counter()
        self._wrapped = {}

    # --- spans ---------------------------------------------------------------

    def span(self, name, layer, fn, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(tracer, args)
            frame = [tracer.clock(), 0.0]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.clock() - frame[0]
                tracer.stack.pop()
                own = duration - frame[1]
                tracer.calls[name] += 1
                tracer.self_s[name] += own
                tracer.layer_self_s[layer] += own
                if tracer.stack:
                    tracer.stack[-1][1] += duration
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # --- installation ----------------------------------------------------------

    def install(self):
        """Wrap every evolsym function in every evolsym namespace."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("evolsym") and m]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrapper_for(attr, obj)
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
            for cls in vars(mod).values():
                if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                    self._wrap_methods(cls)
        solutions = sys.modules["evolsym.solutions"]
        solutions.quad = self.span(
            "scipy.quad", "scipy", solutions.quad, before=_count_integrand
        )

    def _wrapper_for(self, attr, obj):
        if id(obj) in self._wrapped:
            return self._wrapped[id(obj)][1]
        if inspect.isclass(obj) or not callable(obj):
            return None
        home = getattr(obj, "__module__", None) or ""
        layer = layer_of(home)
        name = getattr(obj, "__name__", attr)
        if layer is None or (name.startswith("_") and name not in EXTRA.get(home, ())):
            return None
        wrapper = self.span(f"{layer}.{name}", layer, obj, after=_AFTER.get(f"{layer}.{name}"))
        # keep the original alive so its id cannot be reused
        self._wrapped[id(obj)] = (obj, wrapper)
        self._wrapped[id(wrapper)] = (wrapper, wrapper)
        return wrapper

    def _wrap_methods(self, cls):
        layer = layer_of(cls.__module__)
        if layer is None or _foreign(cls) or id(cls) in self._wrapped:
            return
        self._wrapped[id(cls)] = (cls, None)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.span(name, layer, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.span(name, layer, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.span(name, layer, raw))


def _foreign(cls):
    """Classes whose behaviour belongs to a library: sympy atoms and enums."""
    return any(base.__module__.split(".")[0] in ("sympy", "enum") for base in cls.__mro__[1:])


def _count_integrand(tracer, args):
    fn = args[0]

    def integrand(*a):
        tracer.counts["scipy.quad.evals"] += 1
        return fn(*a)

    # the integrand is a closure of evolsym.solutions, so its own time counts there
    return (tracer.span("solutions.quad_integrand", "solutions", integrand),) + tuple(args[1:])


def _after_nullspace(tracer, args, result):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else 0
    tracer.counts["kernel.nullspace.cells"] += len(rows) * ncols


def _after_is_zero(tracer, args, result):
    if getattr(result, "name", None) == "UNKNOWN":
        tracer.counts["kernel.is_zero.unknown"] += 1


def _after_residual_numeric(tracer, args, result):
    if result[1] is None:
        tracer.counts["verify.residual_numeric.slope_none"] += 1


_AFTER = {
    "kernel.nullspace": _after_nullspace,
    "kernel.is_zero": _after_is_zero,
    "verify.residual_numeric": _after_residual_numeric,
}
