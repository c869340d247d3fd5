"""Per-layer tracing for the qexch benchmark, installed from outside the library.

`Tracer.install()` replaces every public function and public method of the six
qexch modules with a wrapper, in every qexch module that binds it: a function
imported by name into another module is patched there too, and each binding
site keeps its own call count.  Most wrappers record a span (name, start, end
and parent span; the root span of each op stands for the op).  Hot leaves in
`COUNT_ONLY` only count calls, so their time stays in the caller's self time.
Spans stay in memory; `self_times()` turns them into per-function self times
and `write_spans()` saves them when the run ends.  Nothing in the library
changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("partitions", "algebra", "magic", "cumulants", "exchangeability", "cli")

# Hot leaves: counted but not timed, to keep the tracing overhead low.
COUNT_ONLY = frozenset(
    {
        "partitions.is_noncrossing",
        "partitions.delete_block",
        "partitions.interval_blocks",
        "partitions.canonical_pattern",
        "partitions.kernel",
        "partitions.Partition.block_containing",
        "algebra.as_matrix",
        "algebra.frobenius",
        "algebra.State.value",
        "algebra.AlgebraContext.phi",
        "algebra.AlgebraContext.expect",
        "algebra.MomentFunctional.identity_coeff",
        "algebra.ConcreteMomentFunctional.moment",
        "algebra.ConcreteMomentFunctional.scalar_moment",
        "magic.MagicUnitary.entry",
    }
)

ROOT = "bench.op"


def qexch_modules():
    """Every loaded qexch module, the package itself included, by name."""
    return {
        name: mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "qexch" or name.startswith("qexch."))
    }


def public_callables(layer):
    """(key, owner, attr, function, is_static) for one layer's public callables."""
    mod = importlib.import_module("qexch." + layer)
    out = []
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{layer}.{attr}", mod, attr, obj, False))
        elif inspect.isclass(obj):
            for mname, member in vars(obj).items():
                if mname.startswith("_"):
                    continue
                if isinstance(member, staticmethod):
                    out.append((f"{layer}.{attr}.{mname}", obj, mname, member.__func__, True))
                elif inspect.isfunction(member):
                    out.append((f"{layer}.{attr}.{mname}", obj, mname, member, False))
    return out


class Tracer:
    """Wrappers, call counts and spans for one benchmark process.

    A span is one row of four columns (parent row, name id, start, end); its
    row number is its id.  A row is appended when the call starts, so a
    parent always precedes its children, and its end is filled in on return.
    """

    def __init__(self):
        self.names = [ROOT]
        self._key_ids = {ROOT: 0}
        self.site_calls = {}  # (binding module, key) -> [count]
        self._patches = []  # (owner, attr, original value)
        self._stack = [-1]
        self.span_parent = array("q")
        self.span_key = array("q")
        self.span_t0 = array("d")
        self.span_t1 = array("d")

    # -- wrappers ---------------------------------------------------------

    def key_id(self, key):
        kid = self._key_ids.get(key)
        if kid is None:
            kid = self._key_ids[key] = len(self.names)
            self.names.append(key)
        return kid

    def _open(self, kid, t0, t1=0.0):
        row = len(self.span_key)
        self.span_parent.append(self._stack[-1])
        self.span_key.append(kid)
        self.span_t0.append(t0)
        self.span_t1.append(t1)
        return row

    def _wrap(self, key, fn, site):
        cell = self.site_calls.setdefault((site, key), [0])
        if key in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        kid = self.key_id(key)
        stack, clock = self._stack, time.perf_counter
        parents, keys, starts, ends = self.span_parent, self.span_key, self.span_t0, self.span_t1
        add_parent, add_key, add_start, add_end = (
            parents.append, keys.append, starts.append, ends.append
        )

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            cell[0] += 1
            row = len(keys)
            add_parent(stack[-1])
            add_key(kid)
            add_end(0.0)
            stack.append(row)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[row] = clock()
                stack.pop()

        return timed

    def install(self):
        """Patch every binding of every public callable of the six layers."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        callables = [c for layer in LAYERS for c in public_callables(layer)]
        modules = qexch_modules()
        for key, owner, attr, fn, is_static in callables:
            if inspect.isclass(owner):
                wrapper = self._wrap(key, fn, key.split(".")[0])
                self._patches.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
                continue
            for site, mod in modules.items():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, name, value))
                        setattr(mod, name, self._wrap(key, fn, site.split(".")[-1]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def unpatched(self):
        """(binding module, name) of public layer callables still bound unwrapped."""
        layer_modules = {"qexch." + layer for layer in LAYERS}
        left = []
        for site, mod in qexch_modules().items():
            for name, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and not name.startswith("_")
                    and value.__module__ in layer_modules
                    and not hasattr(value, "__wrapped__")
                ):
                    left.append((site, name))
        for layer in LAYERS:
            for key, owner, _, fn, _ in public_callables(layer):
                if inspect.isclass(owner) and not hasattr(fn, "__wrapped__"):
                    left.append((owner.__module__, key))
        return left

    # -- ops ------------------------------------------------------------------

    def current_span(self):
        return self._stack[-1]

    def record_span(self, key, t0, t1):
        """Record a span timed by the caller, as a child of the current span."""
        self._open(self.key_id(key), t0, t1)

    def begin_op(self):
        """Open the root span of one op; every span until `end_op` descends from it."""
        row = self._open(0, time.perf_counter())
        self._stack.append(row)
        return row

    def end_op(self, row):
        self.span_t1[row] = time.perf_counter()
        self._stack.pop()
        return self.span_t1[row] - self.span_t0[row]

    def merge_child(self, doc, parent_row):
        """Append the spans and counts a traced child process wrote, under `parent_row`."""
        remap = [self.key_id(name) for name in doc["names"]]
        base = len(self.span_key)
        for parent, kid, t0, t1 in zip(
            doc["span_parent"], doc["span_key"], doc["span_t0"], doc["span_t1"]
        ):
            self.span_parent.append(parent_row if parent < 0 else base + parent)
            self.span_key.append(remap[kid])
            self.span_t0.append(t0)
            self.span_t1.append(t1)
        for site, key, count in doc["site_calls"]:
            self.site_calls.setdefault((site, key), [0])[0] += count

    # -- results --------------------------------------------------------------

    def calls(self):
        out = {}
        for (_, key), cell in self.site_calls.items():
            out[key] = out.get(key, 0) + cell[0]
        return out

    def self_times(self):
        """Total self time per name: span durations minus their child spans' durations."""
        import numpy as np

        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = np.frombuffer(self.span_t1, dtype=np.float64) - np.frombuffer(
            self.span_t0, dtype=np.float64
        )
        nested = parents >= 0
        own = dur.copy()
        np.subtract.at(own, parents[nested], dur[nested])
        per_key = np.zeros(len(self.names))
        np.add.at(per_key, np.frombuffer(self.span_key, dtype=np.int64), own)
        return dict(zip(self.names, per_key.tolist()))

    def to_doc(self):
        return {
            "names": self.names,
            "span_parent": list(self.span_parent),
            "span_key": list(self.span_key),
            "span_t0": list(self.span_t0),
            "span_t1": list(self.span_t1),
            "site_calls": self.sites(),
        }

    def sites(self):
        """[binding module, name, calls] for every patched binding, sorted."""
        return sorted([site, key, cell[0]] for (site, key), cell in self.site_calls.items())

    def write_spans(self, path):
        """Save every span, with the op it belongs to, as a compressed numpy archive."""
        import numpy as np

        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        op = np.full(len(parents), -1, dtype=np.int64)
        roots = np.flatnonzero(parents < 0)
        op[roots] = np.arange(len(roots))
        for row in np.flatnonzero(parents >= 0).tolist():  # parents precede children
            op[row] = op[parents[row]]
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_parent=parents,
            span_key=np.frombuffer(self.span_key, dtype=np.int64),
            span_op=op,
            span_t0=np.frombuffer(self.span_t0, dtype=np.float64),
            span_t1=np.frombuffer(self.span_t1, dtype=np.float64),
        )
