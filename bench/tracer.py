"""Span tracing of chordcheck's public functions, installed from outside the package.

`Tracer.install` replaces every public function of the traced modules, in
every module namespace that binds it (and in function defaults that hold it),
with a wrapper that records a span: name, start, end and the index of the
enclosing span. A generator function gets one span per resumption, so the
work of an enumeration is charged to it and not to the loop consuming it.
The hottest leaves are only counted. Spans stay in compact arrays in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array

MODULES = ("ident", "netstate", "events", "topology", "invariants", "measure", "checker", "sim")

# Hot leaves: counted, no span. Their time is part of their caller's self time.
COUNT_ONLY = frozenset(
    {
        "ident.between",
        "ident.clockwise_distance",
        "ident.clockwise_rank",
        "netstate.is_live",
        "netstate.extended_succ_list",
        "topology.best_successor",
        "invariants.skips",
        "events.join_precondition_holds",
        "measure.pointer_error",
        "measure.succ_role",
        "measure.visible_state",
    }
)

NETWORK_METHODS = ("with_node", "without_member", "canonical_key")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.yields: list[int] = []
        self.pair_calls: dict[tuple[int, int], int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.stack: list[list] = []  # [span index, name id, start, child seconds]
        self.restore: list = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.yields.append(0)
        return self.ids[name]

    # --- span bookkeeping -------------------------------------------------

    def _push(self, nid: int) -> None:
        stack = self.stack
        parent = stack[-1] if stack else None
        pid = parent[1] if parent else -1
        key = (nid, pid)
        self.pair_calls[key] = self.pair_calls.get(key, 0) + 1
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(parent[0] if parent else -1)
        t = time.perf_counter()
        self.start.append(t)
        self.end.append(t)
        stack.append([idx, nid, t, 0.0])

    def _pop(self) -> None:
        t = time.perf_counter()
        idx, nid, t0, child = self.stack.pop()
        self.end[idx] = t
        dur = t - t0
        self.self_s[nid] += dur - child
        if self.stack:
            self.stack[-1][3] += dur

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        calls = self.calls
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                calls[nid] += 1
                return fn(*args, **kwargs)

            wrapper = counted
        elif inspect.isgeneratorfunction(fn):
            push, pop, yields = self._push, self._pop, self.yields

            def resumed(*args, **kwargs):
                calls[nid] += 1
                gen = fn(*args, **kwargs)
                while True:
                    push(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        pop()
                    yields[nid] += 1
                    yield item

            wrapper = resumed
        else:
            push, pop = self._push, self._pop

            def spanned(*args, **kwargs):
                calls[nid] += 1
                push(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    pop()

            wrapper = spanned
        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of chordcheck's modules wherever they are bound."""
        import chordcheck

        modules = [sys.modules[f"chordcheck.{m}"] for m in MODULES]
        originals = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    originals[value] = self._wrap(f"{short}.{attr}", value)
        namespaces = modules + [chordcheck]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in originals:
                    self.restore.append((ns, attr, value))
                    setattr(ns, attr, originals[value])
        # Defaults such as `invariant=is_valid` were bound at definition time.
        for fn in list(originals):
            if fn.__defaults__ and any(d in originals for d in fn.__defaults__ if inspect.isfunction(d)):
                self.restore.append((fn, "__defaults__", fn.__defaults__))
                fn.__defaults__ = tuple(
                    originals.get(d, d) if inspect.isfunction(d) else d for d in fn.__defaults__
                )
        network = sys.modules["chordcheck.netstate"].Network
        for attr in NETWORK_METHODS:
            method = vars(network)[attr]
            self.restore.append((network, attr, method))
            setattr(network, attr, self._wrap(f"netstate.Network.{attr}", method))

    def uninstall(self) -> None:
        for target, attr, value in reversed(self.restore):
            setattr(target, attr, value)
        self.restore.clear()

    # --- results --------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self.ids[name]] if name in self.ids else 0

    def self_time(self, name: str) -> float:
        return self.self_s[self.ids[name]] if name in self.ids else 0.0

    def yielded(self, name: str) -> int:
        return self.yields[self.ids[name]] if name in self.ids else 0

    def calls_under(self, name: str, parent: str) -> int:
        """Calls of `name` whose enclosing span is `parent`."""
        if name not in self.ids or parent not in self.ids:
            return 0
        return self.pair_calls.get((self.ids[name], self.ids[parent]), 0)

    @property
    def span_count(self) -> int:
        return len(self.name_id)

    def write(self, path) -> None:
        """Spans as gzip: a JSON header line, then the four arrays in native byte order."""
        header = {
            "names": self.names,
            "spans": self.span_count,
            "arrays": ["start:d", "end:d", "name:i", "parent:i"],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.start, self.end, self.name_id, self.parent):
                arr.tofile(fh)
