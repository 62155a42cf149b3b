"""Call tracing for the traced run: spans at the public functions of each
``modspec`` layer, recorded from outside the program.

``install`` rebinds each listed function at every module attribute inside
``modspec`` that holds it (``from .lattices import hnf`` makes a copy in the
importer, so patching only the defining module would miss its callers), in
module-level dicts such as the CLI command table, and in module-level
tuples such as ``verify.ACCEPTANCE_CRITERIA``, which are replaced by copies
holding the wrappers; a listed method, such as ``FgModule.elements``, is
replaced on its class.  ``uninstall`` puts the originals back.  Time spent
in unlisted functions counts as self time of the nearest listed caller, so
a layer's self time is the self time of its listed functions.

Each call records a span (name, start, end, parent).  A span's self time is
its duration minus the durations of its child spans.  Functions that run
very often (``restrict``, ``lattice_contains``, ``Section``) would fill
memory with spans, so after ``SPAN_LIMIT`` spans a function keeps only its
aggregate calls, total time and self time.  A verification suite
(``verify.check_*``) also records its suite name and the checks its result
reports.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

SPAN_LIMIT = 20_000

LAYERS = ("cli", "arith", "lattices", "fgmodules", "spectrum", "localization", "sheaf", "verify")


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    own: float = 0.0
    failed: int = 0
    yielded: int = 0
    hits: int = 0
    misses: int = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self._span_counts: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._seen_errors: set[int] = set()
        self._query_args: dict[str, set] = {}
        self.distinct: dict[str, int] = {}
        self.suites: dict[str, str] = {}  # traced suite function -> suite name
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def exit(self, frame: list, count: bool = True) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        st = self.stat(name)
        if count:
            st.calls += 1
        st.total += duration
        st.own += duration - child
        n = self._span_counts.get(name, 0)
        if n < SPAN_LIMIT:
            self._span_counts[name] = n + 1
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((span_id, name, start, end, parent))

    def error(self, name: str, exc: BaseException) -> None:
        """Count an exception once, at the innermost traced call raising it."""
        if id(exc) in self._seen_errors:
            return
        self._seen_errors.add(id(exc))
        self.stat(name).failed += 1
        if name.startswith("fgmodules.") and type(exc).__name__ == "CapExceededError":
            self.add("fgmodules.cap_errors", 1)

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- per-query bookkeeping -------------------------------------------------

    def end_query(self) -> None:
        """Close one query: distinct arguments are counted per query."""
        for name, seen in self._query_args.items():
            self.distinct[name] = self.distinct.get(name, 0) + len(seen)
        self._query_args.clear()
        self._seen_errors.clear()

    def note_args(self, name: str, args: tuple) -> None:
        self._query_args.setdefault(name, set()).add(args)

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, fn, name: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        cache_info = getattr(fn, "cache_info", None)
        note_args = name in NOTE_ARGS
        on_miss = ON_MISS.get(name)
        on_return = _suite_result if name.startswith("verify.check_") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note_args:
                tracer.note_args(name, args)
            before = cache_info().hits if cache_info else 0
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.error(name, exc)
                raise
            finally:
                tracer.exit(frame)
            if cache_info:
                st = tracer.stats[name]
                if cache_info().hits > before:
                    st.hits += 1
                else:
                    st.misses += 1
                    if on_miss:
                        on_miss(tracer, result)
            if on_return:
                on_return(tracer, name, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.stat(name).calls += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = tracer.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    except BaseException as exc:
                        tracer.error(name, exc)
                        raise
                    finally:
                        tracer.exit(frame, count=False)
                    tracer.stats[name].yielded += 1
                    yield item
            finally:
                inner.close()

        return traced

    # -- installation -------------------------------------------------------------

    def install(self, package, names) -> None:
        """Wrap the named functions ("layer.function", or
        "layer.Class.method") at every binding inside ``package``."""
        prefix = package.__name__
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == prefix or n.startswith(prefix + "."))
        ]
        wrappers: dict[int, object] = {}
        for name in names:
            layer, _, attr = name.partition(".")
            owner = sys.modules[f"{prefix}.{layer}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self.wrap(vars(owner)[attr], name))
            else:
                original = vars(owner)[attr]
                wrappers[id(original)] = self.wrap(original, name)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._patch_item(obj, key, wrappers[id(value)])
                elif type(obj) is tuple:
                    swapped = _swap(obj, wrappers)
                    if swapped != obj:
                        self._patch(module, attr, swapped)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _patch_item(self, mapping: dict, key, new) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = new

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- summaries ------------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in self.stats.items():
            layer = name.partition(".")[0]
            if layer in out:
                out[layer] += st.own
        return out


def _swap(obj, wrappers: dict[int, object]):
    """``obj`` with each wrapped function in it, or in plain tuples nested
    in it, replaced by its wrapper."""
    if type(obj) is tuple:
        return tuple(_swap(x, wrappers) for x in obj)
    return wrappers.get(id(obj), obj)


def self_times_from_spans(spans) -> dict[int, float]:
    """Self time of each recorded span: its duration minus its children's."""
    child: dict[int, float] = {}
    for _, _, start, end, parent in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child.get(sid, 0.0) for sid, _, start, end, _ in spans}


# ---------------------------------------------------------------------------
# counters read at particular calls
# ---------------------------------------------------------------------------

def _points_built(tracer: Tracer, spectrum) -> None:
    tracer.add("spectrum.points_built", len(spectrum))


def _suite_result(tracer: Tracer, name: str, result) -> None:
    tracer.suites[name] = result.suite
    tracer.add(f"verify.{result.suite}.checks", result.checks)


ON_MISS = {"spectrum.spec_enumerate": _points_built}
NOTE_ARGS = {"arith.factorize"}
