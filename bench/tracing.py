"""Layer spans and work counters for the traced run, installed from outside.

``Tracer.install`` wraps the public entry points of each layer module:
its public functions, the public methods of its public classes, and the
arithmetic operators of ``MultiPoly``.  A wrapped function object is
replaced in every ``trajquad`` namespace that bound it (``from .numerics
import derivative`` in trajectory, gexpand, greens, coulomb, excited), so
each call site reaches the wrapper.  Nothing under ``src/`` changes.

A span opens only where a call crosses from one layer into another; calls
inside a layer pass through uninstrumented, so counts and times do not
depend on how a layer is factored internally.  Spans are aggregated per
(parent span, callee): the many ``MultiPoly`` calls of a job collapse
into one node per caller, and memory stays bounded.  A layer's self time
is the time of its spans minus the part covered by their child spans;
callables evaluated inside a span (integrands, potential derivatives)
count toward the layer that calls them.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("exactalg", "oscpert", "coulomb", "trajectory", "numerics",
          "gexpand", "greens", "oracle")
ROOT_LAYER = "cli"
PACKAGE = "trajquad"
OPERATORS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                       "__rmul__", "__neg__", "__pow__"})


class Node:
    """Aggregated spans of one callee under one parent."""

    __slots__ = ("name", "calls", "total_s", "self_s", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.children = {}

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def to_dict(self) -> dict:
        return {"name": self.name, "calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s,
                "children": [c.to_dict() for c in self.children.values()]}


class _Frame:
    __slots__ = ("layer", "node", "child_s")

    def __init__(self, layer: str, node: Node):
        self.layer = layer
        self.node = node
        self.child_s = 0.0


class Tracer:
    """Collects per-layer self time and work counts over traced jobs."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []

    # ---------------------------------------------------------------- jobs

    def run_job(self, fn, *args):
        """Call fn(*args) as one job span of the root layer; return (result, tree)."""
        root = Node(f"{ROOT_LAYER}.job")
        frame = _Frame(ROOT_LAYER, root)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args), root
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            root.calls, root.total_s = 1, elapsed
            root.self_s = elapsed - frame.child_s
            self.self_s[ROOT_LAYER] += root.self_s

    # ------------------------------------------------------------ wrappers

    def _wrap(self, layer: str, name: str, fn, before=None, after=None):
        poly_type = sys.modules[f"{PACKAGE}.exactalg"].MultiPoly
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        exact = layer == "exactalg"
        render = name.endswith(".render")
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            if not stack or stack[-1].layer == layer:
                result = fn(*args, **kwargs)
            else:
                parent = stack[-1]
                node = parent.node.child(name)
                frame = _Frame(layer, node)
                stack.append(frame)
                if exact:
                    counts["exactalg.poly_ops"] += 1
                    counts["exactalg.term_ops"] += sum(
                        len(a.terms) for a in args if isinstance(a, poly_type))
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    node.calls += 1
                    node.total_s += elapsed
                    node.self_s += elapsed - frame.child_s
                    self_s[layer] += elapsed - frame.child_s
                    parent.child_s += elapsed
                    if render:   # render has no child spans
                        self_s["exactalg.render"] += elapsed
            if after is not None:
                result = after(result)
            return result

        return functools.wraps(fn)(wrapper)

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _hooks(self, name: str):
        """(before, after) work counters attached to particular entry points."""
        counts = self.counts
        if name == "numerics.adaptive_integral":
            def before(args, kwargs):
                return (self._counted("numerics.integrand_evals", args[0]),) + args[1:]
            return before, None
        if name in ("numerics.derivative", "numerics.cumulative_integral"):
            def before(args, kwargs):
                counts["numerics.stencil_nodes"] += len(args[0])
                return args
            return before, None
        if name in ("oracle.solve_1d", "oracle.solve_radial"):
            position = 2 if name == "oracle.solve_1d" else 4
            def before(args, kwargs):
                n = kwargs["n"] if "n" in kwargs else args[position]
                counts["oracle.matrix_rows"] += 3 * n   # n coarse + 2n fine rows
                return args
            return before, None
        if name in ("oscpert.gamma_even", "oscpert.gamma_odd"):
            def after(entry):
                counts["oscpert.table_entries"] += 1
                counts["oscpert.table_nonzero"] += bool(entry)
                return entry
            return None, after
        if name in ("trajectory.Potential1D.from_poly",
                    "trajectory.Potential1D.from_callables"):
            def after(potential):
                derivs = tuple(self._counted("trajectory.potential_evals", d)
                               for d in potential.derivatives)
                return dataclasses.replace(potential, derivatives=derivs)
            return None, after
        return None, None

    # -------------------------------------------------------- installation

    def install(self):
        """Wrap every layer's public entry points; return a function that undoes it."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        undo = []

        def replace(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, f"{layer}.{attr}", obj,
                                         *self._hooks(f"{layer}.{attr}"))
                    for ns in namespaces:
                        for bound, value in list(vars(ns).items()):
                            if value is obj:
                                replace(ns, bound, wrapper)
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_") and meth not in OPERATORS:
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        hooks = self._hooks(name)
                        if inspect.isfunction(raw):
                            replace(obj, meth, self._wrap(layer, name, raw, *hooks))
                        elif isinstance(raw, (classmethod, staticmethod)):
                            wrapped = self._wrap(layer, name, raw.__func__, *hooks)
                            replace(obj, meth, type(raw)(wrapped))

        def uninstall():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return uninstall

    # ------------------------------------------------------------- metrics

    def per_layer(self) -> dict:
        """Per-layer metrics accumulated so far (values only)."""
        c = self.counts
        entries = c["oscpert.table_entries"]
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({
            "exactalg.poly_ops": c["exactalg.poly_ops"],
            "exactalg.term_ops": c["exactalg.term_ops"],
            "exactalg.render_s": self.self_s["exactalg.render"],
            "oscpert.table_entries": entries,
            "oscpert.table_nonzero_ratio":
                c["oscpert.table_nonzero"] / entries if entries else 0.0,
            "trajectory.potential_evals": c["trajectory.potential_evals"],
            "numerics.stencil_nodes": c["numerics.stencil_nodes"],
            "numerics.integrand_evals": c["numerics.integrand_evals"],
            "oracle.matrix_rows": c["oracle.matrix_rows"],
            "cli.self_s": self.self_s[ROOT_LAYER],
        })
        return out
