"""Per-layer metrics from the spans of one traced pass.

A span's self time is its duration minus the durations of its direct child
spans; spans nest properly, so the children never overlap.  A layer's
inclusive time counts only the outermost span of each name, so recursion is
not counted twice.
"""

from __future__ import annotations

from collections import defaultdict

from workloads import SUITES

FAMILY_STATS = ("stanley", "dyck", "fountain", "parallelogram")
BIJECTIONS = ("phi", "phi_inv", "chi", "chi_prime", "f_map", "f_inv",
              "h_map", "psi")
GFS = ("gf_full", "gf_columns", "gf_semiperimeter", "gf_area",
       "gf_continued_fractions")
PHYSICS = ("objects.fountain_levels", "objects.levels_support_ok",
           "objects.diagonals_from_levels")
MUL = ("series.TruncatedSeries.__mul__", "series.TruncatedSeries.__rmul__")


def metric_names() -> list[str]:
    """Every per-layer metric, in the order they are reported."""
    names = ["enumeration.iter_raw.objects", "enumeration.iter_raw.self_s",
             "enumeration.count_grouped.self_s",
             "enumeration.cached_count.hit_ratio"]
    for fam in FAMILY_STATS:
        names += [f"objects.{fam}_stats.calls", f"objects.{fam}_stats.us_per_call"]
    names += ["objects.stats_json.us_per_call", "objects.stat_fields_used_ratio",
              "objects.validate.calls", "objects.validate.us_per_call",
              "objects.fountain_physics.self_s"]
    for b in BIJECTIONS:
        names += [f"bijections.{b}.calls", f"bijections.{b}.us_per_call"]
    names += ["series.mul.calls", "series.mul.self_s", "series.mul.terms_out",
              "series.invert.calls", "series.invert.self_s",
              "series.restrict.kept_ratio"]
    names += [f"catalog.{g}.s" for g in GFS] + ["catalog.self_s"]
    names += [f"verification.{s}.s" for s in SUITES] + ["verification.self_s"]
    names += ["cli.emit.lines", "cli.emit.bytes", "cli.emit.self_s",
              "cli.decode.self_s"]
    names += ["trace.spans", "trace.overhead_s", "caches.hits", "caches.misses"]
    return names


class Spans:
    def __init__(self, data: dict):
        self.names = data["names"]
        nid, parent, start, end = (data["nid"], data["parent"], data["start"],
                                   data["end"])
        n = len(end)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        for i in range(n):
            name = self.names[nid[i]]
            dur = end[i] - start[i]
            self.calls[name] += 1
            self.self_s[name] += dur - child[i]
        self.n = n
        self._nid, self._parent, self._start, self._end = nid, parent, start, end

    def inclusive(self, name: str) -> float:
        """Summed duration of the outermost spans with this name."""
        if name not in self.names:
            return 0.0
        target = self.names.index(name)
        total = 0.0
        nid, parent = self._nid, self._parent
        for i in range(self.n):
            if nid[i] != target:
                continue
            p = parent[i]
            while p >= 0 and nid[p] != target:
                p = parent[p]
            if p < 0:
                total += self._end[i] - self._start[i]
        return total

    def roots(self, name: str) -> list[tuple[int, int]]:
        """Index ranges [start, stop) of each top-level span with this name;
        a top-level span's descendants follow it in the arrays."""
        tops = [i for i in range(self.n)
                if self._parent[i] < 0 and self.names[self._nid[i]] == name]
        return [(a, b) for a, b in zip(tops, tops[1:] + [self.n])]

    def calls_between(self, name: str, lo: int, hi: int) -> int:
        if name not in self.names:
            return 0
        target = self.names.index(name)
        return sum(1 for i in range(lo, hi) if self._nid[i] == target)


def _per_call_us(seconds: float, calls: int) -> float:
    return seconds / calls * 1e6 if calls else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(spans: Spans, counters: dict, caches: dict, emitted_bytes: int,
            overhead_s: float) -> dict:
    c, s = spans.calls, spans.self_s
    out: dict[str, float] = {}
    hits, misses = caches.get("stanlab.enumeration.cached_count", [0, 0])
    out["enumeration.iter_raw.objects"] = counters.get(
        "enumeration.iter_raw.objects", 0)
    out["enumeration.iter_raw.self_s"] = s["enumeration.iter_raw"]
    out["enumeration.count_grouped.self_s"] = s["enumeration.count_grouped"]
    out["enumeration.cached_count.hit_ratio"] = _ratio(hits, hits + misses)

    for fam in FAMILY_STATS:
        name = f"objects.{fam}_stats"
        out[f"{name}.calls"] = c[name]
        out[f"{name}.us_per_call"] = _per_call_us(s[name], c[name])
    out["objects.stats_json.us_per_call"] = _per_call_us(
        s["objects.stats_json"], c["objects.stats_json"])
    out["objects.stat_fields_used_ratio"] = _ratio(
        counters.get("objects.stat_fields.read", 0),
        counters.get("objects.stat_fields.computed", 0))
    makes = [n for n in c if n.startswith("objects.make_")]
    validate_calls = sum(c[n] for n in makes)
    out["objects.validate.calls"] = validate_calls
    out["objects.validate.us_per_call"] = _per_call_us(
        sum(s[n] for n in makes), validate_calls)
    out["objects.fountain_physics.self_s"] = sum(s[n] for n in PHYSICS)

    for fn in BIJECTIONS:
        name = f"bijections.{fn}"
        out[f"{name}.calls"] = c[name]
        out[f"{name}.us_per_call"] = _per_call_us(s[name], c[name])

    out["series.mul.calls"] = sum(c[n] for n in MUL)
    out["series.mul.self_s"] = sum(s[n] for n in MUL)
    out["series.mul.terms_out"] = counters.get("series.mul.terms_out", 0)
    out["series.invert.calls"] = c["series.invert"]
    out["series.invert.self_s"] = s["series.invert"]
    out["series.restrict.kept_ratio"] = _ratio(
        counters.get("series.restrict.terms_kept", 0),
        counters.get("series.restrict.terms_in", 0))

    for g in GFS:
        out[f"catalog.{g}.s"] = spans.inclusive(f"catalog.{g}")
    out["catalog.self_s"] = sum(v for n, v in s.items()
                                if n.startswith("catalog."))
    for suite in SUITES:
        out[f"verification.{suite}.s"] = spans.inclusive(
            "verification.suite_" + suite.replace("-", "_"))
    out["verification.self_s"] = sum(v for n, v in s.items()
                                     if n.startswith("verification."))

    out["cli.emit.lines"] = c["cli._emit"]
    out["cli.emit.bytes"] = emitted_bytes
    out["cli.emit.self_s"] = s["cli._emit"]
    out["cli.decode.self_s"] = s["cli.decode"] + s["objects.from_json_obj"]

    out["trace.spans"] = spans.n
    out["trace.overhead_s"] = overhead_s
    out["caches.hits"] = sum(h for h, _ in caches.values())
    out["caches.misses"] = sum(m for _, m in caches.values())
    return out
