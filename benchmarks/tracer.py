"""Span tracer that wraps vortexsym's public functions from outside the program.

The scenario modules bind library functions with ``from ... import``, so
wrapping a function in its defining module alone would miss most calls.
``Tracer.install`` therefore rebinds every module-level name and every class
attribute in every loaded ``vortexsym.*`` module that holds a traced
original, and ``check_coverage`` fails if any such binding still holds one.

Each traced call records a span ``(name, start, end, parent, op)`` in
memory; ``summary`` turns the spans into per-function call counts, total
time and self time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# (module under vortexsym, attribute path) of every traced function.  The
# metric prefix is ``<first module component>.<attribute path>``.
SPAN_TARGETS = (
    ("groebner", "eliminate"),
    ("groebner", "buchberger"),
    ("groebner", "resultant"),
    ("groebner", "standard_monomials"),
    ("realroots", "hermite_matrix"),
    ("realroots", "inertia"),
    ("realroots", "sturm_isolate"),
    ("realroots", "IsolatingInterval.refine"),
    ("realroots", "char_poly"),
    ("trigvortex", "pipeline"),
    ("trigvortex", "gradient_component"),
    ("trigvortex", "char_poly_in"),
    ("ratpoly", "Poly.__mul__"),
    ("ratpoly", "Poly.subs"),
    ("ratpoly", "Poly.parse"),
    ("scenarios.square", "run_square"),
    ("scenarios.kite", "run_kite"),
    ("scenarios.rectangle", "run_rectangle"),
    ("scenarios.trapezoid", "run_trapezoid"),
    ("scenarios.trapezoid", "plane_factorisation"),
    ("scenarios.trapezoid", "annihilating_lines"),
    ("scenarios.trapezoid", "angle_analysis"),
    ("scenarios.kite", "count_configurations"),
    ("scenarios.kite", "special_angle_analysis"),
    ("targets", "build_products"),
    ("targets", "f_basis"),
    ("cli", "render_json"),
)

# Called so often that a span per call would dominate the traced run:
# these only count calls.
COUNT_TARGETS = (("ratpoly", "Poly.__add__"),)

# Counters read from the values the traced functions return.
OUTPUT_COUNTERS = (
    "groebner.basis_polys",
    "groebner.basis_terms",
    "groebner.max_coeff_bits",
    "realroots.hermite_dim",
    "realroots.isolated_roots",
    "cli.json_bytes",
)


class CoverageError(RuntimeError):
    """A loaded vortexsym module still holds an unwrapped traced function."""


def metric_prefix(module, attr):
    return f"{module.split('.')[0]}.{attr}"


def _observe(counters, name, result):
    """Update the output counters from the value the traced ``name`` returned."""
    if name in ("groebner.eliminate", "groebner.buchberger"):
        polys = result.polys
        counters["groebner.basis_polys"] += len(polys)
        counters["groebner.basis_terms"] += sum(len(p.terms) for p in polys)
        bits = max(
            (
                max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for p in polys
                for c in p.terms.values()
            ),
            default=0,
        )
        counters["groebner.max_coeff_bits"] = max(counters["groebner.max_coeff_bits"], bits)
    elif name == "realroots.hermite_matrix":
        counters["realroots.hermite_dim"] += result.n
    elif name == "realroots.sturm_isolate":
        counters["realroots.isolated_roots"] += len(result)
    elif name == "cli.render_json":
        counters["cli.json_bytes"] += len(result.encode())


def _namespaces():
    """Module and class namespaces of every loaded vortexsym module."""
    for modname, module in sorted(sys.modules.items()):
        if module is None or not (modname == "vortexsym" or modname.startswith("vortexsym.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == modname:
                yield value


def _resolve(module, attr):
    """The raw namespace entry (function or descriptor) for ``module:attr``."""
    obj = sys.modules[f"vortexsym.{module}"]
    *owners, last = attr.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return vars(obj)[last]


class Tracer:
    """In-memory span recorder; install it, run ops, then summarise."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.op_walls = {}  # op id -> (start, end)
        self.calls_only = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack = []
        self._op = -1
        self._originals = {}  # id(original) -> (original, replacement)
        self._rebound = []  # (namespace, attribute, original)

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op)
            _observe(counters, name, result)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        calls = self.calls_only

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def op(self, op_id):
        """Mark the spans recorded inside the block as one op."""
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.op_walls[op_id] = (start, time.perf_counter())
            self._op = -1

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target and rebind every name that holds an original."""
        import vortexsym.cli  # noqa: F401  (loads every vortexsym module)

        for targets, make in ((SPAN_TARGETS, self._span_wrapper), (COUNT_TARGETS, self._count_wrapper)):
            for module, attr in targets:
                raw = _resolve(module, attr)
                name = metric_prefix(module, attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    func = raw.__func__
                    wrapped = type(raw)(make(name, func))
                    self._originals[id(func)] = (func, wrapped.__func__)
                else:
                    wrapped = make(name, raw)
                self._originals[id(raw)] = (raw, wrapped)
        for ns in _namespaces():
            for key, value in list(vars(ns).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, key, hit[1])
                    self._rebound.append((ns, key, value))
        self.check_coverage()
        return self

    def check_coverage(self):
        """Raise CoverageError if any vortexsym namespace holds an original."""
        missed = []
        for ns in _namespaces():
            for key, value in vars(ns).items():
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    missed.append(f"{getattr(ns, '__name__', ns)}.{key}")
        if missed:
            raise CoverageError("unwrapped bindings: " + ", ".join(sorted(missed)))

    def original(self, module, attr):
        """The untraced function behind ``module:attr`` (for tests)."""
        raw = _resolve(module, attr)
        for original, wrapped in self._originals.values():
            if wrapped is raw:
                return original
        raise KeyError(f"{module}.{attr} is not wrapped")

    def uninstall(self):
        for ns, key, value in reversed(self._rebound):
            setattr(ns, key, value)
        self._rebound.clear()

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per-op means of every per-layer metric, plus trace accounting.

        ``total_s`` counts a span only when no ancestor has the same name, so
        recursion is not counted twice; ``self_s`` subtracts the duration of
        direct children.
        """
        spans = self.spans
        n_ops = max(len(self.op_walls), 1)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, total
        covered = defaultdict(float)
        for idx, (name, start, end, parent, op) in enumerate(spans):
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start - child_time[idx]
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:
                entry[2] += end - start
            if parent < 0:
                covered[op] += end - start
        out = {}
        for module, attr in SPAN_TARGETS:
            name = metric_prefix(module, attr)
            calls, self_s, total_s = stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls / n_ops, "count")
            out[f"{name}.self_s"] = (self_s / n_ops, "s")
            out[f"{name}.total_s"] = (total_s / n_ops, "s")
        for module, attr in COUNT_TARGETS:
            name = metric_prefix(module, attr)
            out[f"{name}.calls"] = (self.calls_only[name] / n_ops, "count")
        for name in OUTPUT_COUNTERS:
            value = self.counters[name]
            if name != "groebner.max_coeff_bits":
                value /= n_ops
            out[name] = (value, "bits" if name.endswith("_bits") else "count")
        uncovered = sum(
            (end - start) - covered[op] for op, (start, end) in self.op_walls.items()
        )
        out["trace.uncovered_s"] = (uncovered / n_ops, "s")
        return out

    def dump(self, path):
        """Write the raw spans, one JSON array per line."""
        import json

        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
