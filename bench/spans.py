"""Spans around calls into the ``ncgauge`` modules, taken from outside.

``Tracer.install`` replaces each listed public function with a timing
wrapper wherever the package binds it: in its defining module and in every
``ncgauge`` module that imported the name (for ``basis.gellmann``, the class
attribute ``MatrixBasis.gellmann``).  Calls between modules, such as
``minimize -> action``, therefore produce nested spans.  ``uninstall`` puts
the original objects back, so untraced rounds run the program untouched.

Spans stay in memory as ``[id, parent, name, start, end, extra]`` and are
written out once, at the end of the run.  The self time of a span is its
duration minus the durations of its child spans; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: the wrapped functions, as ``<module>.<function>``
TRACED = (
    "basis.gellmann",
    "basis.structure_constants",
    "universal.duniv",
    "universal.uproduct",
    "derforms.dprime",
    "derforms.wedge",
    "derforms.hodge",
    "derforms.nc_integrate",
    "connections.curvature",
    "connections.action",
    "connections.action_gradient",
    "connections.action_via_pairing",
    "connections.minimize",
    "connections.flat_connection_check",
    "lattice.lattice_action",
    "lattice.mass_spectrum",
    "lattice.lattice_gauge_transform",
    "spectral.check_axioms",
    "spectral.inner_gauge",
    "spectral.sm_algebra_fixture",
    "verify.suite_universal",
    "verify.suite_calculus",
    "verify.suite_gauge",
    "verify.suite_lattice",
    "verify.suite_spectral",
    "verify.fd_action_gradient",
    "cli.main",
)

#: counts read from the spans: (metric, counted span, enclosing span)
NESTED_COUNTS = (
    ("connections.minimize.action_evals", "connections.action", "connections.minimize"),
    ("lattice.mass_spectrum.action_evals", "lattice.lattice_action", "lattice.mass_spectrum"),
)

ID, PARENT, NAME, START, END, EXTRA = range(6)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in TRACED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out.append(("connections.minimize.iterations", "count"))
    out += [(metric, "count") for metric, _, _ in NESTED_COUNTS]
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span for one benchmark operation; program spans nest in it."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        tracer = self
        record_iterations = name == "connections.minimize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if record_iterations:
                span[EXTRA] = result.iterations
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every function in ``TRACED`` at each place it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items()) if key == "ncgauge" or key.startswith("ncgauge.")]
        for qualname in TRACED:
            layer, fname = qualname.split(".")
            module = importlib.import_module(f"ncgauge.{layer}")
            if qualname == "basis.gellmann":
                cls = module.MatrixBasis
                method = vars(cls)["gellmann"]
                self._patch(cls, "gellmann", classmethod(self._wrap(qualname, method.__func__)))
                continue
            original = getattr(module, fname)
            wrapper = self._wrap(qualname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every object ``install`` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def summarize(self, first: int, last: int) -> dict[str, float]:
        """Calls, self time and nested counts over spans ``first:last``."""
        spans = self.spans[first:last]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        iterations = 0
        for s in spans:
            calls[s[NAME]] += 1
            self_s[s[NAME]] += (s[END] - s[START]) - child_time[s[ID]]
            if s[EXTRA] is not None:
                iterations += s[EXTRA]
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["connections.minimize.iterations"] = iterations
        names = {s[ID]: s[NAME] for s in spans}
        parents = {s[ID]: s[PARENT] for s in spans}
        for metric, inner, outer in NESTED_COUNTS:
            count = 0
            for s in spans:
                if s[NAME] != inner:
                    continue
                p = s[PARENT]
                while p >= 0 and names.get(p) != outer:
                    p = parents.get(p, -1)
                count += p >= 0
            out[metric] = count
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines ``[id, parent, name, start_s, end_s, extra]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
