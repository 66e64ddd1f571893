"""Per-layer tracing of repring from outside the program.

Every public module-level function of each layer, and the arithmetic
methods of Poly, LaurentPoly and Cyclo (plus RowSpace.add), is replaced
by a wrapper that records one span: name, start, end and the span that
was open when it began.  Names bound elsewhere with `from .x import f`
are patched too, so calls between modules are caught.  `grevlex_key` is
bound as a default argument and cannot be caught this way.

Spans are kept in flat arrays and written out when the run ends.  A
layer's self time is the length of its spans minus the part covered by
their child spans.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from functools import update_wrapper

PACKAGE = "repring"
LAYERS = ("cli", "completion", "groebner", "poly", "linalg", "rootdata",
          "invariants", "laurent", "spectrum", "cyclotomic", "twist", "lattice")

_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
               "__mul__", "__rmul__", "__pow__", "__truediv__",
               "__rtruediv__", "inverse")
METHODS = {"poly": ("Poly", _ARITHMETIC), "laurent": ("LaurentPoly", _ARITHMETIC),
           "cyclotomic": ("Cyclo", _ARITHMETIC), "linalg": ("RowSpace", ("add",))}


class Tracer:
    """Installs span-recording wrappers into a loaded repring package."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._last_spoly = None
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        ids, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                          self.end, self.stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(result, args)
            return result
        return update_wrapper(wrapper, fn)

    # Counters that need a look at arguments or results.

    def _on_spoly(self, result, args) -> None:
        self._last_spoly = result

    def _on_reduce(self, result, args) -> None:
        if args and args[0] is self._last_spoly:
            self._last_spoly = None
            self.counts["groebner.s_useful"] += not result.is_zero()

    def _on_truncation(self, result, args) -> None:
        self.counts["completion.std_monomials"] += result.dimension

    def _on_rowspace_add(self, result, args) -> None:
        self.counts["linalg.rowspace_grew"] += bool(result)

    def _on_group(self, result, args) -> None:
        self.counts["rootdata.weyl_elements"] += result.order

    def _on_fiber(self, result, args) -> None:
        self.counts["spectrum.fiber_members"] += len(result)

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place, building them on the first call."""
        if not self._patches:
            self._build()
        for owner, attr, _orig, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig, _new in self._patches:
            setattr(owner, attr, orig)

    def _build(self) -> None:
        hooks = {"groebner.s_polynomial": self._on_spoly,
                 "groebner.reduce_poly": self._on_reduce,
                 "completion.truncated_quotient": self._on_truncation,
                 "linalg.RowSpace.add": self._on_rowspace_add,
                 "rootdata.weyl_group": self._on_group,
                 "rootdata.reflection_subgroup": self._on_group,
                 "spectrum.fiber_over_RG": self._on_fiber}
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrapped[id(fn)] = (fn, self._wrap(name, fn, hooks.get(name)))
            if layer in METHODS:
                cls_name, methods = METHODS[layer]
                cls = getattr(mod, cls_name)
                for meth in methods:
                    if meth in vars(cls):
                        name = f"{layer}.{cls_name}.{meth}"
                        orig = vars(cls)[meth]
                        self._patches.append(
                            (cls, meth, orig, self._wrap(name, orig, hooks.get(name))))
        for mod in modules:
            for attr, val in vars(mod).items():
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val, hit[1]))

    # -- reading -------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """A position to measure one pass from."""
        return len(self.name_id), Counter(self.counts)

    def layer_totals(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Calls, self time and counters of the spans recorded since a mark."""
        first, counts_before = since
        ids, parent, start, end = self.name_id, self.parent, self.start, self.end
        n = len(ids) - first
        child = [0.0] * n
        for i in range(first, len(ids)):
            p = parent[i]
            if p >= first:
                child[p - first] += end[i] - start[i]
        out: Counter = Counter()
        calls_by_name: Counter = Counter()
        for i in range(first, len(ids)):
            calls_by_name[ids[i]] += 1
            layer = self.names[ids[i]].split(".", 1)[0]
            out[f"{layer}.self_s"] += end[i] - start[i] - child[i - first]
        for nid, calls in calls_by_name.items():
            name = self.names[nid]
            out[f"{name.split('.', 1)[0]}.calls"] += calls
            out[f"@{name}"] += calls
        translates_in_fiber = sum(
            1 for i in range(first, len(ids))
            if self.names[ids[i]] == "spectrum.weyl_translate" and parent[i] >= 0
            and self.names[ids[parent[i]]] == "spectrum.fiber_over_RG")
        out["spectrum.fiber_translates"] = translates_in_fiber
        for key, value in self.counts.items():
            out[key] = value - counts_before[key]
        return dict(out)

    def write(self, path) -> None:
        """All spans, gzip'd: one JSON header line, then the raw columns."""
        columns = {"name": self.name_id, "parent": self.parent,
                   "start": self.start, "end": self.end}
        header = {"names": self.names, "count": len(self.name_id),
                  "columns": [[key, col.typecode] for key, col in columns.items()]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in columns.values():
                fh.write(col.tobytes())


def read_spans(path) -> dict:
    """Read a file written by Tracer.write: names plus one array per column."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"]}
        for key, typecode in header["columns"]:
            col = array(typecode)
            col.frombytes(fh.read(col.itemsize * header["count"]))
            out[key] = col
    return out
