"""Layer spans recorded from outside the program.

``Tracer.install`` wraps every public function defined in each ``prelie``
module, plus a few hot methods, and rebinds the wrapper in every ``prelie``
namespace that holds the function (``ainf.transfer`` re-binds ``circle``,
``star``, ``compose_at`` and ``solve_sparse``; ``series`` and
``multicomplex`` re-bind ``enumerate_trees`` and ``solve_sparse``).  Spans are
aggregated in memory per job kind and function: calls, self time (span time
minus the time of wrapped child spans) and total time of outermost calls,
plus size counters for a few functions.  ``uninstall`` restores the
original bindings.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict
from functools import partial

# layer name -> module; a layer's functions are those defined in its module
LAYERS = {
    "trees": "prelie.trees",
    "series": "prelie.series",
    "calculus": "prelie.calculus",
    "linalg": "prelie.linalg",
    "multicomplex": "prelie.multicomplex",
    "ainf.convolution": "prelie.ainf.convolution",
    "ainf.transfer": "prelie.ainf.transfer",
    "ainf.jsonio": "prelie.ainf.jsonio",
    "cli": "prelie.cli",
}

METHODS = (
    ("linalg", "GradedMap", "compose"),
    ("linalg", "GradedMap", "apply"),
    ("ainf.transfer", "TensorOperator", "compose"),
)


def _conv_entries(args, out):
    return {"out_entries": sum(len(op.entries) for op in out.components.values())}


SIZES = {
    "trees.levelizations": lambda args, out: {"out": len(out)},
    "series.graft": lambda args, out: {"out_terms": len(out.terms)},
    "series.circle": lambda args, out: {"out_terms": len(out.terms)},
    "linalg.solve_sparse": lambda args, out: {
        "rows": len(args[0]),
        "unknowns": args[2],
        "nnz": sum(len(r) for r in args[0]),
    },
    "ainf.convolution.star": _conv_entries,
    "ainf.convolution.circle": _conv_entries,
    "ainf.transfer.sym_homotopy": lambda args, out: {"entries": len(out.entries)},
}


def _prelie_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "prelie" and m]


def _rebind(original, replacement):
    """Point every ``prelie`` module attribute bound to ``original`` at ``replacement``."""
    for module in _prelie_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "sizes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.sizes = defaultdict(int)


class Tracer:
    def __init__(self):
        self.kind = None  # job kind the current spans belong to
        self.stats = defaultdict(Stat)  # (kind, span name) -> Stat
        self._stack = []  # child time accumulated under each open span
        self._depth = defaultdict(int)  # open spans per name, for total_s
        self._undo = []

    def _wrap(self, name, fn):
        stats, stack, depth = self.stats, self._stack, self._depth
        sizer = SIZES.get(name)
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            depth[name] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                depth[name] -= 1
                st = stats[self.kind, name]
                st.calls += 1
                st.self_s += elapsed - child
                if not depth[name]:
                    st.total_s += elapsed
            if sizer is not None:
                for key, value in sizer(args, out).items():
                    stats[self.kind, name].sizes[key] += value
            return out

        span.__wrapped__ = fn
        return span

    def install(self):
        for layer, modname in LAYERS.items():
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType) and value.__module__ == modname
                        and not attr.startswith("_")):
                    wrapper = self._wrap(f"{layer}.{attr}", value)
                    _rebind(value, wrapper)
                    self._undo.append(partial(_rebind, wrapper, value))
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[LAYERS[layer]], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))
            self._undo.append(partial(setattr, cls, method, original))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def totals(self) -> dict:
        """Span name -> Stat summed over job kinds."""
        out = defaultdict(Stat)
        for (_kind, name), st in self.stats.items():
            agg = out[name]
            agg.calls += st.calls
            agg.self_s += st.self_s
            agg.total_s += st.total_s
            for key, value in st.sizes.items():
                agg.sizes[key] += value
        return out

    def dump(self) -> dict:
        """Spans per job kind, for the trace file written at the end of a run."""
        out = defaultdict(dict)
        for (kind, name), st in sorted(self.stats.items()):
            out[kind][name] = {"calls": st.calls, "self_s": st.self_s,
                               "total_s": st.total_s, **st.sizes}
        return dict(out)


class SolveSizes:
    """Rows x unknowns of every ``solve_sparse`` call, recorded in untraced
    runs too so that each job's record carries its stage sizes.  It adds one
    list append per stage solve (a handful per job)."""

    def __init__(self):
        self.calls = []
        self._original = None

    def install(self):
        original = sys.modules["prelie.linalg"].solve_sparse
        calls = self.calls

        def solve_sparse(rows, rhs, nvars):
            calls.append([len(rows), nvars])
            return original(rows, rhs, nvars)

        self._original, self._wrapper = original, solve_sparse
        _rebind(original, solve_sparse)

    def uninstall(self):
        _rebind(self._wrapper, self._original)
