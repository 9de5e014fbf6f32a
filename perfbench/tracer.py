"""Outside-in layer tracer for the ewcontract modules.

The tracer never edits the program. It rebinds each public module-level
function of the traced modules to a timing wrapper, in every ``ewcontract``
module namespace and in every module-level dict that holds the function
(``suites.REGISTRY``, ``cli.COMMANDS``), because ``from .x import f`` copies
the binding. Ring operations are far too frequent to time one call at a
time, so ``Jet`` construction, ``Jet`` multiplication and ``JetMatrix2``
multiplication are only counted. ``restore`` puts every original object
back; the untraced runs call the original function objects.

A span's self time is its duration minus the durations of the spans it
called. Time spent in unwrapped code (ring operations, private helpers,
methods) therefore lands in the self time of the nearest wrapped caller,
which lives in the same module in every case that the layer metrics read.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: layer name -> module whose public functions are wrapped
LAYERS = ("group", "fields", "lagrangian", "spectrum", "suites", "cli")

#: name of the root span the benchmark opens around each command
ROOT = "bench"

#: the eight suites of a default verify
SUITE_NAMES = ("algebra", "group", "invariance", "coordinate",
               "quadratic", "cubic", "fermion", "limit")

ORACLE_FUNCTIONS = ("spectrum.quadratic_form", "spectrum.normative_cubic_terms",
                    "spectrum.transcribed_cubic_terms")


def _package_modules() -> List[types.ModuleType]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ewcontract"
                                  or name.startswith("ewcontract."))]


def public_functions(module: types.ModuleType) -> Dict[str, Callable]:
    """Public functions defined in ``module`` itself (not re-exported)."""
    return {
        name: obj for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Span and count recorder for one traced command list.

    Use ``install()`` before the commands, ``span(ROOT, fn)`` around each
    command, and ``restore()`` in a ``finally`` block afterwards.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: inclusive seconds of a span keyed by (caller span, span)
        self.edge_incl_s: Dict[Tuple[str, str], float] = defaultdict(float)
        #: ring operation counts: jet_new, mul, matmul
        self.ring = {"jet_new": 0, "mul": 0, "matmul": 0}
        #: density evaluator calls made by epsilon_expand
        self.evaluator_calls = 0
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        clock = time.perf_counter
        self_s, incl_s, calls, edges = (self.self_s, self.incl_s,
                                        self.calls, self.edge_incl_s)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                incl_s[name] += elapsed
                calls[name] += 1
                if parent is not None:
                    stack[-1][1] += elapsed
                    edges[(parent, name)] += elapsed

        return wrapper

    def _count_evaluations(self, fn: Callable) -> Callable:
        """Wrap epsilon_expand so the evaluator it receives is counted."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(evaluator, *args, **kwargs):
            def counted(eps):
                tracer.evaluator_calls += 1
                return evaluator(eps)

            return fn(counted, *args, **kwargs)

        return wrapper

    # -- install / restore ------------------------------------------------

    def _set(self, target, key: str, value) -> None:
        if isinstance(target, dict):
            self._patched.append((target, key, target[key]))
            target[key] = value
        else:
            self._patched.append((target, key, target.__dict__[key]))
            setattr(target, key, value)

    def install(self) -> None:
        import ewcontract.cli  # noqa: F401  (loads every traced module)
        from ewcontract.jets import Jet, JetMatrix2

        wrappers: Dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"ewcontract.{layer}"]
            for name, fn in public_functions(module).items():
                qualified = f"{layer}.{name}"
                inner = (self._count_evaluations(fn)
                         if qualified == "spectrum.epsilon_expand" else fn)
                wrappers[id(fn)] = self.span(qualified, inner)
        originals = {id(fn): fn for layer in LAYERS
                     for fn in public_functions(
                         sys.modules[f"ewcontract.{layer}"]).values()}

        def original(value) -> bool:
            return originals.get(id(value), wrappers) is value

        for module in _package_modules():
            for key, value in list(vars(module).items()):
                if original(value):
                    self._set(module, key, wrappers[id(value)])
                elif isinstance(value, dict) and key != "__builtins__":
                    for dkey, dvalue in list(value.items()):
                        if original(dvalue):
                            self._set(value, dkey, wrappers[id(dvalue)])

        ring = self.ring
        jet_init = Jet.__init__
        jet_mul = Jet.__mul__
        mat_mul = JetMatrix2.__mul__

        def __init__(jet, *args, **kwargs):
            ring["jet_new"] += 1
            jet_init(jet, *args, **kwargs)

        def __mul__(jet, other):
            ring["mul"] += 1
            return jet_mul(jet, other)

        def matrix_mul(mat, other):
            if isinstance(other, JetMatrix2):
                ring["matmul"] += 1
            return mat_mul(mat, other)

        self._set(Jet, "__init__", __init__)
        self._set(Jet, "__mul__", __mul__)
        if "__rmul__" in Jet.__dict__:
            self._set(Jet, "__rmul__", __mul__)
        self._set(JetMatrix2, "__mul__", matrix_mul)

    def restore(self) -> None:
        while self._patched:
            target, key, original = self._patched.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # -- derived layer metrics ---------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds summed per layer, including the root span."""
        out: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return dict(out)

    def metrics(self, commands: int) -> Dict[str, Tuple[float, str]]:
        """Per-command layer metrics as name -> (value, unit)."""
        per = 1.0 / commands
        layer = self.layer_self_s()
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s

        def s(value: float) -> Tuple[float, str]:
            return (value * per, "s/cmd")

        def n(value: float) -> Tuple[float, str]:
            return (value * per, "count/cmd")

        expand_calls = calls.get("spectrum.epsilon_expand", 0)
        out = {
            "lagrangian.self_s": s(layer.get("lagrangian", 0.0)),
            "lagrangian.stress_tensors.self_s":
                s(self_s.get("lagrangian.stress_tensors", 0.0)),
            "lagrangian.covariant_derivative_psi.self_s":
                s(self_s.get("lagrangian.covariant_derivative_psi", 0.0)),
            "lagrangian.density_evals":
                n(calls.get("lagrangian.lagrangian_bosonic", 0)
                  + calls.get("lagrangian.lagrangian_fermion", 0)),
            "lagrangian.unread_s": s(self.edge_incl_s.get(
                ("lagrangian.lagrangian_psi", "lagrangian.lagrangian_psi_closed"),
                0.0)),
            "fields.self_s": s(layer.get("fields", 0.0)),
            "fields.sample_gauge.self_s":
                s(self_s.get("fields.sample_gauge", 0.0)),
            "fields.samples": n(sum(c for name, c in calls.items()
                                    if name.startswith("fields.sample_"))),
            "fields.infinitesimal_gauge_transform.self_s":
                s(self_s.get("fields.infinitesimal_gauge_transform", 0.0)),
            "group.self_s": s(layer.get("group", 0.0)),
            "group.random_group_element.incl_s":
                s(incl_s.get("group.random_group_element", 0.0)),
            "jets.jet_new": n(self.ring["jet_new"]),
            "jets.mul": n(self.ring["mul"]),
            "jets.matmul": n(self.ring["matmul"]),
            "spectrum.self_s": s(layer.get("spectrum", 0.0)),
            "spectrum.expand_calls": n(expand_calls),
            "spectrum.evals_per_expand":
                (self.evaluator_calls / expand_calls if expand_calls else 0.0,
                 "evals/expand"),
            "spectrum.epsilon_expand.incl_s":
                s(incl_s.get("spectrum.epsilon_expand", 0.0)),
            "spectrum.mass_spectrum.incl_s":
                s(incl_s.get("spectrum.mass_spectrum", 0.0)),
            "spectrum.oracles.incl_s":
                s(sum(incl_s.get(name, 0.0) for name in ORACLE_FUNCTIONS)),
            "suites.self_s": s(layer.get("suites", 0.0)),
        }
        for suite in SUITE_NAMES:
            out[f"suites.{suite}.s"] = s(incl_s.get(f"suites.suite_{suite}", 0.0))
        out["cli.self_s"] = s(layer.get("cli", 0.0))
        return out
