"""Span recorder for the traced run.

Wraps public functions of thinmarket from outside the package.  Each call
becomes a span (name, start, end, parent id) kept in memory; a name bound in
several modules (`from .nash import solve` in `cli` and `analysis`, say) is
replaced in every one of them, and every replacement is undone afterwards.
A target that no longer exists raises TracerError, so a rename cannot
silently zero a layer.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  "Class.method" patches the class.
TARGETS = (
    ("thinmarket.scenario", "load_scenario", "scenario.load"),
    ("thinmarket.scenario", "build_report", "scenario.report"),
    ("thinmarket.scenario", "write_report", "scenario.report"),
    ("thinmarket.model", "validate_model", "model.validate"),
    ("thinmarket.model", "derive_exposures", "model.derive"),
    ("thinmarket.competitive", "competitive_equilibrium", "competitive.equilibrium"),
    ("thinmarket.best_response", "best_response", "best_response"),
    ("thinmarket.nash", "solve", "nash.solve"),
    ("thinmarket.nash", "check_extreme_condition", "nash.classify"),
    ("thinmarket.nash", "solve_extreme", "nash.core"),
    ("thinmarket.nash", "solve_bilateral", "nash.core"),
    ("thinmarket.nash", "solve_general", "nash.core"),
    ("thinmarket.nash", "GeneralSystem.F", "nash.F"),
    ("thinmarket.nash", "fixed_point_deviation", "nash.verify"),
    ("thinmarket.analysis", "compare", "analysis.compare"),
    ("thinmarket.analysis", "incompleteness_effect", "analysis.incompleteness"),
    ("thinmarket.cli", "main", "cli.main"),
    ("thinmarket.cli", "cmd_analyze", "cli.cmd"),
    ("thinmarket.cli", "cmd_sweep", "cli.cmd"),
)

# Per-layer metric -> (statistic, span names).  "time" sums the inclusive
# duration of outermost spans, "calls" counts spans, "self" sums self time.
LAYER_METRICS = {
    "import.thinmarket_s": ("time", ("import.thinmarket",)),
    "import.scipy_s": ("time", ("import.scipy",)),
    "scenario.load_s": ("time", ("scenario.load",)),
    "scenario.report_s": ("time", ("scenario.report",)),
    "model.validate_s": ("time", ("model.validate",)),
    "model.validate_calls": ("calls", ("model.validate",)),
    "model.derive_s": ("time", ("model.derive",)),
    "model.derive_calls": ("calls", ("model.derive",)),
    "competitive.equilibrium_s": ("time", ("competitive.equilibrium",)),
    "nash.solve_s": ("time", ("nash.solve",)),
    "nash.solve_calls": ("calls", ("nash.solve",)),
    "nash.classify_s": ("time", ("nash.classify",)),
    "nash.classify_calls": ("calls", ("nash.classify",)),
    "nash.core_s": ("time", ("nash.core",)),
    "nash.F_evals": ("calls", ("nash.F",)),
    "nash.verify_s": ("time", ("nash.verify",)),
    "nash.best_response_calls": ("calls", ("best_response",)),
    "analysis.compare_s": ("time", ("analysis.compare",)),
    "analysis.incompleteness_s": ("time", ("analysis.incompleteness",)),
    "cli.self_s": ("self", ("cli.main", "cli.cmd")),
}


class TracerError(RuntimeError):
    """A traced name is missing from the package."""


class Recorder:
    """Spans of one operation, as [name, start, end, parent] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span_id = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id][1:3] = start, end

    def is_open(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)


def _resolve(module_name: str, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise TracerError(f"traced module {module_name} cannot be imported: {exc}") from exc
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TracerError(f"traced name {module_name}.{attr} is missing")
    if not callable(getattr(owner, name, None)):
        raise TracerError(f"traced name {module_name}.{attr} is missing")
    return owner, name


class Patches:
    """Installs span wrappers for TARGETS on one Recorder; undo() restores."""

    def __init__(self, recorder: Recorder, targets=TARGETS):
        self._undo: list[tuple[object, str, object]] = []
        resolved = [(_resolve(m, a), span) for m, a, span in targets]
        try:
            for (owner, name), span in resolved:
                original = getattr(owner, name)
                wrapper = _wrapper(recorder, span, original)
                if isinstance(owner, type):
                    self._set(owner, name, wrapper)
                    continue
                for module in _package_modules(owner.__name__.partition(".")[0]):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)
        except BaseException:
            self.undo()
            raise

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()


def _wrapper(recorder: Recorder, span: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(span, fn, *args, **kwargs)

    return traced


def _package_modules(package: str):
    prefix = package + "."
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]


def import_traced(recorder: Recorder, module_name: str):
    """Import a module under the import.thinmarket span, with a child span
    around the first import of scipy it triggers.  The hook stays installed,
    so a scipy import deferred into a function call is still seen; call the
    returned function to remove it."""
    real_import = builtins.__import__

    def hooked(name, globals=None, locals=None, fromlist=(), level=0):
        if level == 0 and name.partition(".")[0] == "scipy" and not recorder.is_open("import.scipy"):
            return recorder.call("import.scipy", real_import, name, globals, locals, fromlist, level)
        return real_import(name, globals, locals, fromlist, level)

    builtins.__import__ = hooked
    recorder.call("import.thinmarket", importlib.import_module, module_name)

    def remove():
        builtins.__import__ = real_import

    return remove


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for span_id, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for span_id, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[span_id]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(max(end - start, 0.0) - covered)
    return out


def layer_totals(spans) -> dict[str, float]:
    """LAYER_METRICS summed over one operation's spans."""
    own = self_times(spans)
    totals = {}
    for metric, (stat, names) in LAYER_METRICS.items():
        value = 0.0
        for span_id, (name, start, end, parent) in enumerate(spans):
            if name not in names:
                continue
            if stat == "calls":
                value += 1
            elif stat == "self":
                value += own[span_id]
            elif not _has_ancestor(spans, parent, name):
                value += end - start
        totals[metric] = value
    return totals


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
