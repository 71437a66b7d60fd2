"""Spans around orderkit's layers, recorded from outside the program.

``install`` replaces each traced function with a wrapper at every site it
is looked up: the defining module, every orderkit module that imported it
with ``from ... import``, the predicate dicts in ``properties`` and, for
methods, the ``FinitePoset`` class.  ``verifier.SUITES`` holds its check
functions in closures, so suites are traced through ``run_suite`` and the
predicates below them.

A span is one call.  For a generator the span is its whole iteration: time
counts only while the generator runs, and calls made from its body are its
children.  Spans are kept in memory with their parent's id; ``layer_totals``
turns them into per-layer calls, total time and self time, where self time
is a span's busy time minus the busy time of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

clock = time.perf_counter


class Span:
    __slots__ = ("name", "parent", "busy", "count", "units")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.busy = 0.0   # seconds while on the stack
        self.count = 0    # items produced: yields, opens, classes, lattices
        self.units = 0    # candidates scanned, where the layer scans any


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]

    def _open(self, name):
        self.spans.append(Span(name, self.stack[-1]))
        return len(self.spans) - 1

    def current(self):
        return self.spans[self.stack[-1]]

    def call(self, name, fn, /, *args, **kwargs):
        sid = self._open(name)
        self.stack.append(sid)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[sid].busy += clock() - start
            self.stack.pop()

    def iterate(self, name, gen, size=None):
        """Trace a generator's iteration as one span.  ``size`` is the
        number of candidates the generator scans in ascending order when
        run to the end; a yielded value ``m`` means ``m + 1`` were scanned."""
        sid = self._open(name)
        span = self.spans[sid]
        while True:
            self.stack.append(sid)
            start = clock()
            try:
                value = next(gen)
            except StopIteration:
                if size is not None:
                    span.units = size
                return
            finally:
                span.busy += clock() - start
                self.stack.pop()
            span.count += 1
            if size is not None:
                span.units = value + 1
            yield value


def layer_totals(spans):
    """name -> {"calls", "total_s", "self_s", "count", "units"}."""
    child_busy = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_busy[s.parent] += s.busy
    out = {}
    for sid, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "count": 0, "units": 0})
        row["calls"] += 1
        row["total_s"] += s.busy
        row["self_s"] += s.busy - child_busy[sid]
        row["count"] += s.count
        row["units"] += s.units
    return out


def enumeration_counts(spans):
    """(candidates, classes): canonical keys computed directly inside a
    poset-level span, and the classes of the levels that computed them."""
    candidates = defaultdict(int)
    for s in spans:
        if s.name == "poset.canonical_key" and s.parent >= 0 \
                and spans[s.parent].name == "generators.poset_level":
            candidates[s.parent] += 1
    return sum(candidates.values()), sum(spans[sid].count for sid in candidates)


# -- installation -------------------------------------------------------------

MODULES = ("poset", "relations", "scott", "properties", "verifier", "generators",
           "files", "cli")


def install(package):
    """Wrap orderkit's layers for this process; returns the Tracer."""
    tracer = Tracer()
    mods = {m: sys.modules[f"{package.__name__}.{m}"] for m in MODULES}

    def traced(name, fn, measure=None):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.current().count = measure(result)
            return result

        inner = fn if measure is None else counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, inner, *args, **kwargs)
        return wrapper

    def suite(fn):
        @functools.wraps(fn)
        def wrapper(which, *args, **kwargs):
            return tracer.call(f"verifier.suite.{which}", fn, which, *args, **kwargs)
        return wrapper

    rel, scott, files, gen = mods["relations"], mods["scott"], mods["files"], mods["generators"]
    replaced = {
        rel.fin_family: traced("relations.fin_family", rel.fin_family),
        rel.way_below_sets: traced("relations.way_below_sets", rel.way_below_sets),
        scott.scott_opens: traced("scott.scott_opens", scott.scott_opens,
                                  lambda fam: len(fam.opens)),
        scott.scott_closed_lattice: traced("scott.scott_closed_lattice",
                                           scott.scott_closed_lattice),
        files.parse: traced("files.parse", files.parse),
        files.emit: traced("files.emit", files.emit),
        gen._poset_level: traced("generators.poset_level", gen._poset_level, len),
        mods["verifier"].run_suite: suite(mods["verifier"].run_suite),
    }
    props = mods["properties"]
    for pred in props.PREDICATE_NAMES:
        fn = getattr(props, f"is_{pred}")
        replaced[fn] = traced(f"properties.{pred}", fn)
    for table in (props.POSET_PREDICATES, props.LATTICE_PREDICATES):
        for key, fn in table.items():
            table[key] = replaced[fn]

    # every module global that names a traced function, imported, defined
    # or re-exported by the package
    for mod in (package, *mods.values()):
        for attr, value in list(vars(mod).items()):
            if callable(value) and value in replaced:
                setattr(mod, attr, replaced[value])

    cls = mods["poset"].FinitePoset
    cls.canonical_key = traced("poset.canonical_key", cls.canonical_key)
    cls.as_lattice = traced("poset.as_lattice", cls.as_lattice, lambda lat: 1)
    cls.__init__ = traced("poset.construct", cls.__init__)

    directed, upper = cls.iter_directed_masks, cls.iter_upper_masks

    def iter_directed_masks(self, *args, **kwargs):
        return tracer.iterate("poset.iter_directed_masks", directed(self, *args, **kwargs),
                              size=1 << self.n)

    def iter_upper_masks(self):
        return tracer.iterate("poset.iter_upper_masks", upper(self))

    cls.iter_directed_masks = iter_directed_masks
    cls.iter_upper_masks = iter_upper_masks
    return tracer
