"""Outside-in spans around isoprod's layer boundaries.

The benchmark installs these wrappers in a fresh interpreter before it runs
a traced pass; the program itself is not edited.  Each wrapper replaces a
module attribute at the name its caller looks up (for example
``isoprod.classify.character_table``), so calls made inside library
functions such as ``classify_all`` are caught too.  Spans stay in memory
and are reduced to per-layer metrics when the pass ends.

A span's self time is its busy time minus the busy time of the spans
opened while it was on top of the stack.  Lazy generators are timed over
their consumption: each resume is one more slice of the same span.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (span name, kind, [(module, attribute), ...]).  "call" times a call,
# "gen" times the consumption of the returned generator, "stream" times
# the call and then the consumption of the returned cover stream, and
# "count" only counts calls.  Names starting with "_" are private helpers
# a later version may remove; their metrics are then reported absent.
HOOKS = (
    ("groups.build_group", "call", [
        ("isoprod.cli", "build_group"),
        ("isoprod.classify", "build_group"),
        ("isoprod.groups", "build_group"),
    ]),
    ("groups.automorphisms", "call", [("isoprod.covers", "automorphisms")]),
    ("groups.all_subgroups", "call", [("isoprod.groups", "all_subgroups")]),
    ("groups.subgroup_table", "call", [("isoprod.characters", "subgroup_table")]),
    ("characters.character_table", "call", [
        ("isoprod.cli", "character_table"),
        ("isoprod.classify", "character_table"),
        ("isoprod.characters", "character_table"),
        ("isoprod.surfaces", "character_table"),
    ]),
    ("characters.check", "call", [("isoprod.characters", "CharacterTable.check")]),
    ("characters.restriction_multiplicity", "call", [
        ("isoprod.characters", "restriction_multiplicity"),
    ]),
    ("characters.induced_character", "call", [
        ("isoprod.characters", "induced_character"),
    ]),
    ("cyclotomic.Cyc", "count", [("isoprod.cyclotomic", "Cyc.__init__")]),
    ("covers.enumerate_vectors", "stream", [("isoprod.cli", "enumerate_vectors")]),
    ("covers._raw_tuples", "gen", [
        ("isoprod.covers", "_raw_tuples"),
        ("isoprod.classify", "_raw_tuples"),
    ]),
    ("classify._cover_buckets", "call", [("isoprod.classify", "_cover_buckets")]),
    ("classify._classify_group", "call", [("isoprod.classify", "_classify_group")]),
    ("classify._aut0_mask", "call", [("isoprod.classify", "_aut0_mask")]),
    ("classify.compute_aut0", "call", [("isoprod.classify", "compute_aut0")]),
    ("surfaces.build_surface", "call", [("isoprod.classify", "build_surface")]),
)

# per-layer metric -> hook spans it cannot be computed without
REQUIRES = {
    "covers.raw_tuples": ["covers._raw_tuples"],
    "covers.dedup_ratio": ["covers._raw_tuples"],
    "covers.truncated": ["classify._cover_buckets"],
    "classify.buckets": ["classify._cover_buckets"],
    "classify.bucket_pairs": ["classify._aut0_mask", "classify._classify_group"],
    "classify.records": ["classify._classify_group"],
    "classify.vector_pairs": ["classify._classify_group"],
    "classify.groups_skipped": ["classify._classify_group"],
    "classify.max_group_share": ["classify._classify_group"],
}


ENTRY = "entry"


class Span:
    __slots__ = ("name", "parent", "kept", "busy", "child", "items", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        # only spans under an operation's entry span count; checking the
        # output afterwards calls the library too
        self.kept = parent.kept if parent is not None else name == ENTRY
        self.busy = 0.0
        self.child = 0.0
        self.items = 0
        self.attrs = {}


class _TimedStream:
    """Stands in for a ``CoverStream``: iteration is timed, every other
    attribute (``truncated``, ``count``) is read from the real stream."""

    def __init__(self, tracer, name, stream):
        self._tracer = tracer
        self._name = name
        self._stream = stream

    def __iter__(self):
        return self._tracer.timed_iter(self._name, iter(self._stream))

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = {}
        self.absent = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        span = Span(name, self.stack[-1] if self.stack else None)
        if span.kept:
            self.spans.append(span)
        return span

    def _enter(self, span):
        self.stack.append(span)
        return perf_counter()

    def _leave(self, span, t0):
        dt = perf_counter() - t0
        self.stack.pop()
        span.busy += dt
        if self.stack:
            self.stack[-1].child += dt

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a new span; returns (span, result)."""
        span = self._open(name)
        t0 = self._enter(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            self._leave(span, t0)
        return span, result

    def timed_iter(self, name, it):
        span = None
        try:
            while True:
                if span is None:
                    span = self._open(name)
                t0 = self._enter(span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(span, t0)
                span.items += 1
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    # -- installation ----------------------------------------------------

    def _wrapper(self, name, kind, fn):
        if kind == "count":
            calls = self.calls
            calls[name] = 0
            stack = self.stack

            def counted(*args, **kwargs):
                if stack and stack[-1].kept:
                    calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        if kind == "gen":
            return lambda *args, **kwargs: self.timed_iter(name, fn(*args, **kwargs))

        def timed(*args, **kwargs):
            span, result = self.call(name, fn, *args, **kwargs)
            _observe(name, span, args, result)
            if kind == "stream":
                return _TimedStream(self, name, result)
            return result

        return timed

    def install(self):
        """Wrap every hook that exists; record the names that do not."""
        for name, kind, sites in HOOKS:
            found = False
            for module_name, dotted in sites:
                owner = importlib.import_module(module_name)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    continue
                setattr(owner, attr, self._wrapper(name, kind, fn))
                found = True
            if not found:
                self.absent.append(name)


def _observe(name, span, args, result):
    """Keep the counts a span's result carries, read at the boundary."""
    if name == "groups.automorphisms":
        span.attrs["built"] = len(result)
    elif name == "groups.build_group":
        span.attrs["order"] = result.order
    elif name == "classify._cover_buckets":
        buckets, truncated = result
        span.attrs["buckets"] = len(buckets)
        span.attrs["truncated"] = truncated
    elif name == "classify._classify_group":
        records, counts = result
        span.attrs["records"] = len(records)
        span.attrs["vector_pairs"] = counts["surfaces"]
        span.attrs["max_group_order"] = args[1].max_group_order


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass (see README.md)."""
    spans = tracer.spans
    selfs = {}
    count = {}
    for s in spans:
        selfs[s.name] = selfs.get(s.name, 0.0) + s.busy - s.child
        count[s.name] = count.get(s.name, 0) + 1

    def self_s(*names):
        return sum(selfs.get(n, 0.0) for n in names)

    def named(name):
        return [s for s in spans if s.name == name]

    raw = named("covers._raw_tuples")
    streams = {id(s) for s in named("covers.enumerate_vectors")}
    emitted = sum(s.items for s in named("covers.enumerate_vectors"))
    visited = sum(s.items for s in raw if id(s.parent) in streams)
    groups = named("classify._classify_group")
    group_ids = {id(g) for g in groups}
    group_busy = [s.busy for s in groups]
    skipped = set()
    for s in named("groups.build_group"):
        g = s.parent
        if id(g) in group_ids and (
            "error" in s.attrs or s.attrs["order"] > g.attrs["max_group_order"]
        ):
            skipped.add(id(g))
    buckets = named("classify._cover_buckets")
    enumerate_s = self_s(
        "classify._cover_buckets", "covers._raw_tuples", "covers.enumerate_vectors"
    )
    total_self = sum(selfs.values())
    out = {
        "entry.self_s": self_s(ENTRY),
        "covers.enumerate_s": enumerate_s,
        "covers.enumerate_share": enumerate_s / total_self if total_self else 0.0,
        "covers.raw_tuples": sum(s.items for s in raw),
        "covers.emitted": emitted,
        "covers.dedup_ratio": emitted / visited if visited else 0.0,
        "covers.truncated": sum(s.attrs.get("truncated", 0) for s in buckets),
        "groups.build_s": self_s("groups.build_group"),
        "groups.automorphisms_s": self_s("groups.automorphisms"),
        "groups.automorphisms_built": sum(
            s.attrs.get("built", 0) for s in named("groups.automorphisms")
        ),
        "groups.subgroups_s": self_s("groups.all_subgroups", "groups.subgroup_table"),
        "characters.table_s": self_s("characters.character_table"),
        "characters.check_s": self_s("characters.check"),
        "characters.restriction_s": self_s("characters.restriction_multiplicity"),
        "characters.restriction_calls": count.get(
            "characters.restriction_multiplicity", 0
        ),
        "characters.induced_s": self_s("characters.induced_character"),
        "cyclotomic.cyc_built": tracer.calls.get("cyclotomic.Cyc", 0),
        "classify.buckets": sum(s.attrs.get("buckets", 0) for s in buckets),
        "classify.bucket_pairs": sum(
            1 for s in named("classify._aut0_mask") if id(s.parent) in group_ids
        ),
        "classify.pairing_s": self_s(
            "classify._classify_group", "classify._aut0_mask", "classify.compute_aut0"
        ),
        "classify.records": sum(s.attrs.get("records", 0) for s in groups),
        "classify.vector_pairs": sum(s.attrs.get("vector_pairs", 0) for s in groups),
        "classify.groups_skipped": len(skipped),
        "classify.max_group_share": (
            max(group_busy) / sum(group_busy) if sum(group_busy) else 0.0
        ),
        "surfaces.build_s": self_s("surfaces.build_surface"),
        "surfaces.built": count.get("surfaces.build_surface", 0),
    }
    for metric, needs in REQUIRES.items():
        if any(n in tracer.absent for n in needs):
            del out[metric]
    return out
