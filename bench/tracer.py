"""Outside-in layer tracer: wraps public functions of ``threewave`` modules.

Nothing in the package is edited. A wrapped function is replaced in every
``threewave`` namespace that bound the same object at import time (``ratfunc``
imports ``poly_gcd`` by name, for example); imports inside a function body
read the defining module's attribute at call time, so they see the wrapper
too. Class methods are replaced under every class attribute that holds them
(``MultiPoly.__rmul__`` is ``__mul__``).

Per wrapped function the tracer keeps:

* ``calls`` and, for re-entrant functions, ``inner_calls``;
* ``s``: inclusive time of outermost calls only, so recursion is not counted
  twice;
* ``self_s``: time minus the time spent in wrapped callees.

A ``count`` spec only counts calls, for functions too hot to time.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


class Stat:
    __slots__ = ("calls", "inner_calls", "s", "self_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.inner_calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.extra: dict[str, float] = {}

    def as_dict(self) -> dict:
        out = {"calls": self.calls, "inner_calls": self.inner_calls, "s": self.s,
               "self_s": self.self_s}
        out.update(self.extra)
        return out


class Tracer:
    """Install with :meth:`install`, read :attr:`stats`, then :meth:`uninstall`."""

    def __init__(self, specs):
        # spec: (stat name, module, attribute path, mode, result hook or None)
        self.specs = specs
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, fn, st: Stat, hook):
        stack = self._stack

        def wrapper(*args, **kwargs):
            st.calls += 1
            outer = st.depth == 0
            st.depth += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st.depth -= 1
                st.self_s += dt - frame[0]
                if outer:
                    st.s += dt
                else:
                    st.inner_calls += 1
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(st, result, outer)
            return result

        return wrapper

    @staticmethod
    def _count(fn, st: Stat):
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, module_name, path, mode, hook in self.specs:
            module = importlib.import_module(module_name)
            owner = module
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            original = owner.__dict__[attr]
            st = self.stats.setdefault(name, Stat())
            wrapped = self._count(original, st) if mode == "count" else self._span(original, st, hook)
            if parents:  # a method: patch every alias on the class
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapped)
            else:
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("threewave"):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapped)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def snapshot(self) -> dict[str, dict]:
        return {name: st.as_dict() for name, st in self.stats.items()}


def _gcd_hook(st: Stat, result, outer: bool) -> None:
    if outer and not result.is_constant():
        st.extra["nontrivial"] = st.extra.get("nontrivial", 0) + 1


def _roots_hook(st: Stat, result, outer: bool) -> None:
    if outer and result.fully_split():
        st.extra["fully_split"] = st.extra.get("fully_split", 0) + 1


def _integrate_hook(st: Stat, traj, outer: bool) -> None:
    for key, value in (
        ("steps_accepted", traj.steps_accepted),
        ("steps_rejected", traj.steps_rejected),
        ("switch_events", len(traj.events)),
    ):
        st.extra[key] = st.extra.get(key, 0) + value


# The layers of ROADMAP's north star, outermost last within each module.
SPECS = [
    ("gaussian.GaussianRational.mul", "threewave.gaussian", "GaussianRational.__mul__", "count", None),
    ("poly.MultiPoly.mul", "threewave.poly", "MultiPoly.__mul__", "span", None),
    ("poly.MultiPoly.exact_divide", "threewave.poly", "MultiPoly.exact_divide", "span", None),
    ("poly.poly_gcd", "threewave.poly", "poly_gcd", "span", _gcd_hook),
    ("poly.resultant", "threewave.poly", "resultant", "span", None),
    ("ratfunc._reduce", "threewave.ratfunc", "_reduce", "span", None),
    ("ratfunc.substitute", "threewave.ratfunc", "substitute", "span", None),
    ("roots.find_roots", "threewave.roots", "find_roots", "span", _roots_hook),
    ("linalg.linear_solve", "threewave.linalg", "linear_solve", "span", None),
    ("geometry.ChartMap.verify", "threewave.geometry", "ChartMap._verify", "span", None),
    ("geometry.jacobian_determinant", "threewave.geometry", "jacobian_determinant", "span", None),
    ("geometry.pushforward", "threewave.geometry", "pushforward", "span", None),
    ("parsing.parse_model", "threewave.parsing", "parse_model", "span", None),
    ("singular.find_accessible", "threewave.singular", "find_accessible", "span", None),
    ("singular.local_index", "threewave.singular", "local_index", "span", None),
    ("singular.painleve_leading_orders", "threewave.singular", "painleve_leading_orders", "span", None),
    ("singular.resolution_pipeline", "threewave.singular", "resolution_pipeline", "span", None),
    ("models.verify_atlas_holomorphy", "threewave.models", "verify_atlas_holomorphy", "span", None),
    ("models.verify_symmetry", "threewave.models", "verify_symmetry", "span", None),
    ("uniqueness.build_constraints", "threewave.uniqueness", "build_constraints", "span", None),
    ("uniqueness.solve_ansatz", "threewave.uniqueness", "solve_ansatz", "span", None),
    ("numerics.NumericAtlas.compile", "threewave.numerics", "NumericAtlas.__init__", "span", None),
    ("numerics.integrate", "threewave.numerics", "integrate", "span", _integrate_hook),
    ("numerics.fit_pole", "threewave.numerics", "fit_pole", "span", None),
    ("numerics.monodromy_check", "threewave.numerics", "monodromy_check", "span", None),
]


def new_tracer() -> Tracer:
    """A tracer over every layer; importing the modules first makes sure each
    namespace that re-exports a wrapped name exists before patching."""
    for module in ("threewave", "threewave.cli", "threewave.reports", "threewave.uniqueness"):
        importlib.import_module(module)
    return Tracer(SPECS)
