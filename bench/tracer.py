"""Span tracer that wraps kfaclab from the outside.

`Tracer.install()` wraps every public function of the traced modules and
rebinds the wrapper wherever kfaclab holds the original: the defining
module, every module that imported it by name (`from .linalg import solve`),
dicts kept at module level (`harness._STEP_FNS`) and class attributes. It
then scans the package again, lists, tuples, function defaults and closures
included, and raises if any place still holds an unwrapped function, so no
call site escapes.

Spans stay in memory as tuples `(name, start, end, parent, run, size)`;
`parent` is the index of the enclosing span (-1 at top level), `run` the
invariance-run id, and `size` the matrix order for `linalg.solve` (None
elsewhere). `write()` stores them when the benchmark ends.
"""

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

TRACED_MODULES = ("linalg", "nets", "metrics", "kfac", "reparam", "harness", "cli")

# Output-model methods, traced together as one "metrics.model" layer.
MODEL_SPAN = "metrics.model"
MODEL_METHODS = ("loss", "loss_grad", "fisher", "sample")


class Tracer:
    def __init__(self):
        self.spans = []
        self.run = -1
        self._stack = []
        self._patches = []  # (setter, restore-value) pairs, undone in reverse
        self._wrapped = {}  # id(original) -> (original, wrapper)

    # -- recording ---------------------------------------------------------

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index, parent, name, start, size=None):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.run, size)

    @contextmanager
    def span(self, name):
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, name, start)

    def _wrap(self, name, fn):
        measure_size = name == "linalg.solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                size = len(args[0]) if measure_size and args else None
                self._close(index, parent, name, start, size)

        traced.__bench_traced__ = True
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap and rebind; raise RuntimeError if any binding was missed."""
        modules = {m: importlib.import_module(f"kfaclab.{m}") for m in TRACED_MODULES}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    self._wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for cls in vars(modules["metrics"]).values():
            if inspect.isclass(cls) and cls.__module__ == "kfaclab.metrics":
                for meth in MODEL_METHODS:
                    fn = vars(cls).get(meth)
                    if inspect.isfunction(fn):
                        self._wrapped[id(fn)] = (fn, self._wrap(MODEL_SPAN, fn))
        self._visit(rebind=True)
        missed = self._visit(rebind=False)
        if missed:
            self.uninstall()
            raise RuntimeError("tracer missed call sites: " + ", ".join(missed))

    def uninstall(self):
        for setter, value in reversed(self._patches):
            setter(value)
        self._patches.clear()
        self._wrapped.clear()

    def _original(self, obj):
        hit = self._wrapped.get(id(obj))
        return hit if hit is not None and hit[0] is obj else None

    def _visit(self, rebind):
        """Rebind originals to wrappers, or list where originals remain.

        kfaclab binds functions as module attributes, in module-level dicts
        (`harness._STEP_FNS`) and as class attributes; those are rebound.
        Lists, tuples, function defaults and closures are only scanned, so
        an original held there is reported as a missed call site.
        """
        found = []

        def slot(where, value, setter=None):
            hit = self._original(value)
            if hit is None:
                return
            if not rebind:
                found.append(where)
            elif setter is not None:
                setter(hit[1])
                self._patches.append((setter, value))

        def held_by(fn, where):
            if getattr(fn, "__bench_traced__", False):
                return
            for i, value in enumerate(fn.__defaults__ or ()):
                slot(f"{where}.__defaults__[{i}]", value)
            for key, value in (fn.__kwdefaults__ or {}).items():
                slot(f"{where}.__kwdefaults__[{key!r}]", value)
            for i, cell in enumerate(fn.__closure__ or ()):
                try:
                    value = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                slot(f"{where}.<closure {i}>", value)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "kfaclab" and not mod_name.startswith("kfaclab."):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                where = f"{mod_name}.{attr}"
                slot(where, value, functools.partial(namespace.__setitem__, attr))
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        slot(f"{where}[{key!r}]", item, functools.partial(value.__setitem__, key))
                elif isinstance(value, (list, tuple)):
                    for i, item in enumerate(value):
                        slot(f"{where}[{i}]", item)
                elif inspect.isfunction(value):
                    held_by(value, where)
                elif inspect.isclass(value) and value.__module__ == mod_name:
                    for meth, member in list(vars(value).items()):
                        slot(f"{where}.{meth}", member,
                             functools.partial(setattr, value, meth))
                        if inspect.isfunction(member):
                            held_by(member, f"{where}.{meth}")
        return found

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Store all spans, gzipped: a JSON header naming the span names and
        columns, then one comma-separated line per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        header = {"names": names, "columns": ["name", "start", "end", "parent", "run", "size"]}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            fh.writelines(
                f"{index[name]},{start!r},{end!r},{parent},{run},{'' if size is None else size}\n"
                for name, start, end, parent, run, size in self.spans
            )


# ---------------------------------------------------------------------------
# analysis


class SpanStats:
    """Per-name totals over a list of spans.

    `total[name]` counts only spans with no ancestor of the same name, so a
    nested call (a wrapped output model calling its inner model) is not
    counted twice. `self_time[name]` is span time minus direct child spans.
    """

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self.calls, self.total, self.self_time = {}, {}, {}
        self.max_size = {}
        self.under = {}  # (name, ancestor name) -> calls of name below ancestor
        for i, (name, start, end, parent, _, size) in enumerate(spans):
            dur = end - start
            ancestors = set()
            p = parent
            while p >= 0:
                ancestors.add(spans[p][0])
                p = spans[p][3]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child[i]
            if name not in ancestors:
                self.total[name] = self.total.get(name, 0.0) + dur
            if size is not None:
                self.max_size[name] = max(self.max_size.get(name, 0), size)
            for a in ancestors:
                self.under[(name, a)] = self.under.get((name, a), 0) + 1

    def self_of_module(self, module):
        prefix = module + "."
        return sum(t for n, t in self.self_time.items() if n.startswith(prefix))
