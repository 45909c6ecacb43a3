"""Per-layer tracing by wrapping the package's public functions and methods.

The layers are the package modules.  `install` replaces every binding of
every public function and method of those modules with a wrapper: the
defining module's attribute, the names other modules bring in with
`from ... import`, the package's re-exports, and module-level dicts that
hold the function.  `Installed.restore` puts every original back.

A call that enters a layer from another layer (or from the harness) opens
a span; a call within the same layer is only counted.  A layer's self time
is the time during which its span is the innermost open one, so the self
times of all layers plus the harness add up to the request time.  Spans
stay in memory; consecutive sibling leaf spans of the same function are
merged into one record with a call count, which keeps per-cell accessor
calls from flooding the record.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

LAYERS = ("cli", "series", "graphs", "counting", "formulas", "verify")
HARNESS = "harness"

BUILD_FUNCTIONS = frozenset({"graphs.build_riordan", "graphs.build_toeplitz", "graphs.build_delta"})
BRANCH_FUNCTIONS = frozenset(
    {"counting.count_is", "counting.independence_number", "counting.count_maximum_is"}
)
BANDED_FUNCTIONS = frozenset({"counting.count_is_banded"})
REPORT_FUNCTIONS = frozenset({"verify.bound_report"})


def graph_key(graph) -> int:
    return hash((graph.n, graph.rows))


class _Span:
    __slots__ = ("span_id", "parent_id", "layer", "name", "start", "child_time", "has_children")

    def __init__(self, span_id, parent_id, layer, name, start):
        self.span_id = span_id
        self.parent_id = parent_id
        self.layer = layer
        self.name = name
        self.start = start
        self.child_time = 0.0
        self.has_children = False


class Tracer:
    """Collects spans and per-layer counters for a sequence of requests."""

    def __init__(self):
        self.stack: list[_Span] = []
        # closed spans: [request, span_id, parent_id, layer, name, start, duration,
        #                calls, raised, leaf]
        self.spans: list[list] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.function_calls: Counter = Counter()
        self.request_s: list[float] = []
        self.request = -1
        self._next_id = 0
        self._builds: list[int] = []
        self._counted: list[int] = []
        self.build_distinct = 0
        self.build_total = 0
        self.count_distinct = 0
        self.count_total = 0

    # -- requests --

    def begin_request(self) -> None:
        if self.stack:
            raise RuntimeError("a request is already open")
        self.request += 1
        self._builds = []
        self._counted = []
        self._open(HARNESS, HARNESS)

    def end_request(self) -> float:
        span = self.stack[-1]
        if span.layer != HARNESS or len(self.stack) != 1:
            raise RuntimeError("spans left open at the end of a request")
        duration = self._close(raised=False)
        self.request_s.append(duration)
        self.build_total += len(self._builds)
        self.build_distinct += len(set(self._builds))
        self.count_total += len(self._counted)
        self.count_distinct += len(set(self._counted))
        return duration

    # -- spans --

    def _open(self, layer: str, name: str) -> None:
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.has_children = True
        self._next_id += 1
        self.stack.append(
            _Span(self._next_id, parent.span_id if parent else 0, layer, name, time.perf_counter())
        )

    def _close(self, raised: bool) -> float:
        end = time.perf_counter()
        span = self.stack.pop()
        duration = end - span.start
        self.self_s[span.layer] += duration - span.child_time
        if self.stack:
            self.stack[-1].child_time += duration
        last = self.spans[-1] if self.spans else None
        if (
            not span.has_children
            and last is not None
            and last[0] == self.request
            and last[2] == span.parent_id
            and last[4] == span.name
            and last[9]
        ):
            last[6] += duration
            last[7] += 1
            last[8] += raised
        else:
            self.spans.append(
                [
                    self.request,
                    span.span_id,
                    span.parent_id,
                    span.layer,
                    span.name,
                    span.start,
                    duration,
                    1,
                    int(raised),
                    not span.has_children,
                ]
            )
        return duration

    # -- wrappers --

    def wrap(self, fn, layer: str, name: str):
        """A wrapper that counts calls to fn and opens a span when the call
        crosses into `layer` from elsewhere."""
        tracer = self
        is_build = name in BUILD_FUNCTIONS
        is_counting = layer == "counting"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            tracer.calls[layer] += 1
            tracer.function_calls[name] += 1
            crossing = not stack or stack[-1].layer != layer
            if crossing:
                if is_counting and args and hasattr(args[0], "rows"):
                    tracer._counted.append(graph_key(args[0]))
                tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[layer] += 1
                if crossing:
                    tracer._close(raised=True)
                raise
            if crossing:
                tracer._close(raised=False)
            if is_build:
                tracer._builds.append(graph_key(result))
            return result

        return wrapper

    # -- results --

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over all requests traced so far, with units."""
        total = sum(self.request_s)
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.share"] = (self.self_s[layer] / total if total else 0.0, "ratio")
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.raised"] = (self.raised[layer], "count")
        out["harness.self_s"] = (self.self_s[HARNESS], "s")
        out["graphs.build_calls"] = (self.build_total, "count")
        out["graphs.build_useful_ratio"] = (_ratio(self.build_distinct, self.build_total), "ratio")
        out["counting.branch_calls"] = (self._calls_to(BRANCH_FUNCTIONS), "count")
        out["counting.banded_calls"] = (self._calls_to(BANDED_FUNCTIONS), "count")
        out["counting.useful_ratio"] = (_ratio(self.count_distinct, self.count_total), "ratio")
        out["verify.reports"] = (self._calls_to(REPORT_FUNCTIONS), "count")
        return out

    def _calls_to(self, names) -> int:
        return sum(self.function_calls[name] for name in names)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not inspect.isgeneratorfunction(obj)
        ):
            yield name, obj


def _public_classes(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isclass(obj)
            and obj.__module__ == module.__name__
            and not issubclass(obj, BaseException)
        ):
            yield name, obj


class Installed:
    """The bindings replaced by `install`, so they can be put back."""

    def __init__(self):
        self.attributes: list[tuple[object, str, object]] = []  # (owner, name, original)
        self.items: list[tuple[dict, object, object]] = []  # (dict, key, original)

    def restore(self) -> None:
        for owner, name, original in reversed(self.attributes):
            setattr(owner, name, original)
        for mapping, key, original in reversed(self.items):
            mapping[key] = original
        self.attributes.clear()
        self.items.clear()


def install(tracer: Tracer, layer_modules: dict[str, object], all_modules) -> Installed:
    """Wrap the public functions and methods of each layer module.

    layer_modules maps layer names to modules; all_modules lists every
    module whose bindings are rewritten (the layers, the package itself,
    and anything else that imports from them).
    """
    installed = Installed()
    wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)

    for layer, module in layer_modules.items():
        for name, fn in _public_functions(module):
            wrappers[id(fn)] = (fn, tracer.wrap(fn, layer, f"{layer}.{name}"))
        for cls_name, cls in _public_classes(module):
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                qual = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, (staticmethod, classmethod)):
                    new = type(raw)(tracer.wrap(raw.__func__, layer, qual))
                elif isinstance(raw, property) and raw.fget is not None:
                    new = property(tracer.wrap(raw.fget, layer, qual), raw.fset, raw.fdel, raw.__doc__)
                elif inspect.isfunction(raw):
                    new = tracer.wrap(raw, layer, qual)
                else:
                    continue
                installed.attributes.append((cls, attr, raw))
                setattr(cls, attr, new)

    def replacement(value):
        entry = wrappers.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    for module in all_modules:
        for name, value in list(vars(module).items()):
            new = replacement(value)
            if new is not None:
                installed.attributes.append((module, name, value))
                setattr(module, name, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    new = replacement(item)
                    if new is not None:
                        installed.items.append((value, key, item))
                        value[key] = new
    return installed
