"""Span recording for the traced run, installed from outside the library.

``install()`` wraps the public functions of every ``stanlab`` module, plus
the TruncatedSeries arithmetic, ``cli._emit`` and the CLI's ``json.loads``,
and rebinds every place that holds a reference to one of them: module
globals (names imported from another module included), values of
module-level dicts and the tuples inside them (``cli.BIJECTIONS``,
``verification.SUITES``), and class attributes (``__rmul__`` and
``__radd__`` are attributes of their own).

Each call records a span in memory: name, parent span, start and end.
Generators get one span per resumption, so a generator's time is counted
where it runs and not while it is suspended.  ``dump()`` writes the spans
out once the pass has ended; ``layers.py`` turns them into per-layer
metrics.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "stanlab"
LAYERS = ("objects", "enumeration", "bijections", "series", "catalog",
          "verification", "cli")
SERIES_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__neg__", "__pow__")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)
        self.wrapped: dict[int, object] = {}  # id(original) -> wrapper
        self.originals: list = []  # keeps the originals alive for the ids
        self.unwrapped_targets: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def top_is(self, nid: int) -> bool:
        top = self.stack[-1]
        return top >= 0 and self.nid[top] == nid

    # -- wrappers -----------------------------------------------------------------

    def wrap(self, fn, name: str, pre=None, post=None):
        """Span around every call; post(args, result, token) may replace the
        result and runs outside the span, token being pre(args)."""
        if fn is None:
            return None
        if id(fn) in self.wrapped:
            return self.wrapped[id(fn)]
        if inspect.isgeneratorfunction(fn):
            wrapper = self._wrap_generator(fn, name)
        else:
            wrapper = self._wrap_call(fn, name, pre, post)
        for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
            try:
                setattr(wrapper, attr, getattr(fn, attr))
            except (AttributeError, TypeError):
                pass
        self.wrapped[id(fn)] = wrapper
        self.originals.append(fn)
        return wrapper

    def _wrap_call(self, fn, name, pre, post):
        nid = self.name_id(name)
        nids, parents, starts, ends = self.nid, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = pre(args) if pre is not None else None
            i = len(ends)
            nids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if post is not None:
                result = post(args, result, token)
            return result

        return wrapper

    def _wrap_generator(self, fn, name):
        nid = self.name_id(name)
        nids, parents, starts, ends = self.nid, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        counters = self.counters
        key = name + ".objects"

        def resume(it):
            try:
                while True:
                    i = len(ends)
                    nids.append(nid)
                    parents.append(stack[-1])
                    ends.append(0.0)
                    stack.append(i)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[i] = clock()
                        stack.pop()
                    counters[key] += 1
                    yield item
            finally:
                it.close()

        def wrapper(*args, **kwargs):
            return resume(fn(*args, **kwargs))

        return wrapper

    # -- output ---------------------------------------------------------------------

    def dump(self, directory: str) -> None:
        with open(os.path.join(directory, "spans.bin"), "wb") as fh:
            for arr in (self.nid, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(os.path.join(directory, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"names": self.names, "count": len(self.end),
                       "counters": dict(self.counters),
                       "unwrapped_targets": self.unwrapped_targets,
                       "stale_references": stale_references(self)}, fh)


def load(directory: str) -> dict:
    """Spans written by ``Tracer.dump`` as four arrays plus the metadata."""
    with open(os.path.join(directory, "spans.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["count"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(os.path.join(directory, "spans.bin"), "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    meta["nid"], meta["parent"], meta["start"], meta["end"] = arrays
    return meta


# -- installation -----------------------------------------------------------------------

def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def _is_cached(v) -> bool:
    return callable(v) and hasattr(v, "cache_info") and hasattr(v, "__wrapped__")


def _targets(module) -> list[tuple[str, object]]:
    """Public functions defined in the module, lru-cached ones included."""
    out = []
    for name, v in vars(module).items():
        if name.startswith("_"):
            continue
        inner = v.__wrapped__ if _is_cached(v) else v
        if inspect.isfunction(inner) and inner.__module__ == module.__name__:
            out.append((name, v))
    return out


def install(tracer: Tracer) -> None:
    modules = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
    hooks = _Hooks(tracer, modules)
    for layer in LAYERS:
        module = modules.get(layer)
        if module is None:
            tracer.unwrapped_targets.append(layer)
            continue
        for name, fn in _targets(module):
            pre, post = hooks.for_function(layer, name)
            tracer.wrap(fn, f"{layer}.{name}", pre, post)

    series = modules.get("series")
    for cls_name in ("TruncatedSeries", "SeriesRing"):
        cls = getattr(series, cls_name, None)
        if cls is None:
            tracer.unwrapped_targets.append(f"series.{cls_name}")
            continue
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if attr.startswith("_") and attr not in SERIES_DUNDERS:
                continue
            pre, post = hooks.for_method(attr)
            setattr(cls, attr,
                    tracer.wrap(fn, f"series.{cls_name}.{attr}", pre, post))

    cli = modules.get("cli")
    emit = getattr(cli, "_emit", None)
    if emit is None:
        tracer.unwrapped_targets.append("cli._emit")
    else:
        tracer.wrap(emit, "cli._emit", pre=hooks.emit_pre)
    if getattr(cli, "json", None) is not None:
        cli.json = _JsonProxy(cli.json, tracer.wrap(cli.json.loads,
                                                    "cli.decode"))
    else:
        tracer.unwrapped_targets.append("cli.json")

    hooks.count_field_reads()
    for module in modules.values():
        _rebind(module, tracer.wrapped)


class _JsonProxy:
    """Stands in for the json module inside cli, with loads wrapped."""

    def __init__(self, module, loads):
        self._module = module
        self.loads = loads

    def __getattr__(self, name):
        return getattr(self._module, name)


def _swap(value, wrapped: dict):
    if id(value) in wrapped:
        return wrapped[id(value)], True
    if isinstance(value, tuple):
        items = [_swap(v, wrapped) for v in value]
        if any(changed for _, changed in items):
            return tuple(v for v, _ in items), True
    return value, False


def _rebind(module, wrapped: dict) -> None:
    for name, value in list(vars(module).items()):
        new, changed = _swap(value, wrapped)
        if changed:
            setattr(module, name, new)
        elif isinstance(value, dict):
            for key, item in list(value.items()):
                new, changed = _swap(item, wrapped)
                if changed:
                    value[key] = new
        elif isinstance(value, list):
            for i, item in enumerate(value):
                new, changed = _swap(item, wrapped)
                if changed:
                    value[i] = new


def stale_references(tracer: Tracer) -> list[str]:
    """Places in the package that still hold an unwrapped original."""
    originals = {id(fn) for fn in tracer.originals}
    out = []

    def scan(where: str, value) -> None:
        if id(value) in originals:
            out.append(where)
        elif isinstance(value, tuple):
            for i, v in enumerate(value):
                scan(f"{where}[{i}]", v)

    for module in _package_modules():
        for name, value in vars(module).items():
            where = f"{module.__name__}.{name}"
            scan(where, value)
            if isinstance(value, dict):
                for key, item in value.items():
                    scan(f"{where}[{key!r}]", item)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    scan(f"{where}[{i}]", item)
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, item in vars(value).items():
                    scan(f"{where}.{attr}", item)
    return out


class _CountingDict(dict):
    """A statistics record that counts the distinct fields read from it."""

    __slots__ = ("_read", "_counters")

    def __getitem__(self, key):
        self._mark(key)
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self._mark(key)
        return dict.get(self, key, default)

    def _mark(self, key) -> None:
        if key not in self._read and dict.__contains__(self, key):
            self._read.add(key)
            self._counters["objects.stat_fields.read"] += 1

    def mark_all(self) -> None:
        for key in self:
            self._mark(key)


class _Hooks:
    """Counters that spans alone do not give: objects yielded, series terms,
    and statistic fields computed against fields read."""

    def __init__(self, tracer: Tracer, modules: dict):
        self.tracer = tracer
        self.counters = tracer.counters
        self.modules = modules
        self.stats_json_id = tracer.name_id("objects.stats_json")

    def for_function(self, layer: str, name: str):
        if layer == "objects" and name.endswith("_stats"):
            return None, self._stats_post
        if layer == "objects" and name == "stats_json":
            return self._stats_json_pre, self._stats_json_post
        return None, None

    def for_method(self, attr: str):
        if attr in ("__mul__", "__rmul__"):
            return None, self._mul_post
        if attr == "restrict":
            return None, self._restrict_post
        return None, None

    def _stats_post(self, args, result, token):
        fields = getattr(result, "__dataclass_fields__", None)
        if fields is not None:
            self.counters["objects.stat_fields.computed"] += len(fields)
        return result

    def _stats_json_pre(self, args):
        return self.counters["objects.stat_fields.computed"]

    def _stats_json_post(self, args, result, token):
        if not isinstance(result, dict):
            return result
        if self.counters["objects.stat_fields.computed"] == token:
            # a record built without a statistics dataclass
            self.counters["objects.stat_fields.computed"] += len(result)
        counting = _CountingDict(result)
        counting._read = set()
        counting._counters = self.counters
        return counting

    def _mul_post(self, args, result, token):
        terms = getattr(result, "terms", None)
        if terms is not None:
            self.counters["series.mul.terms_out"] += len(terms)
        return result

    def _restrict_post(self, args, result, token):
        self.counters["series.restrict.terms_in"] += len(args[0].terms)
        self.counters["series.restrict.terms_kept"] += len(result.terms)
        return result

    def emit_pre(self, args):
        # an emitted record uses every field of the statistics it carries
        record = args[0] if args else None
        if isinstance(record, dict):
            for value in record.values():
                if isinstance(value, _CountingDict):
                    value.mark_all()

    def count_field_reads(self) -> None:
        """Count distinct field reads on the statistics dataclasses, except
        the copy ``dataclasses.asdict`` makes inside stats_json."""
        objects = self.modules.get("objects")
        if objects is None:
            return
        tracer, counters, sj = self.tracer, self.counters, self.stats_json_id
        for cls in vars(objects).values():
            fields = getattr(cls, "__dataclass_fields__", None)
            if not inspect.isclass(cls) or not fields \
                    or not cls.__name__.endswith("Stats"):
                continue
            names = frozenset(fields)

            def counted(self, attr, _names=names, _get=object.__getattribute__):
                if attr in _names and not tracer.top_is(sj):
                    seen = _get(self, "__dict__").setdefault("_bench_read", set())
                    if attr not in seen:
                        seen.add(attr)
                        counters["objects.stat_fields.read"] += 1
                return _get(self, attr)

            cls.__getattribute__ = counted
