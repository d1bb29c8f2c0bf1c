"""Spans, self time and counters for the traced benchmark run.

The benchmark records spans from its own files: `instrument` wraps the
public functions of each mobiuslat module, plus a few named methods, and
rebinds every module namespace that imported them, so a call through
`families.enumerate_avoiders` is seen as well as one through
`permutation.enumerate_avoiders`.  Nothing under src/ is edited.

Spans are folded into per-name totals as they close rather than kept one by
one: the verify workload makes over a hundred thousand calls, and only the
totals are reported.  A span's self time is its duration minus the
durations of the spans opened directly inside it, so the self times of all
spans add up to the duration of the outermost ones.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# the layers, in pipeline order; each is a module of the mobiuslat package
LAYERS = ("permutation", "poset", "nbb", "fibpoly", "families", "cli")

# methods that get a span of their own, under the name the report uses
METHOD_SPANS = {
    "poset.FinitePoset": ("poset", "FinitePoset", "__init__"),
    "poset.mobius": ("poset", "FinitePoset", "mobius"),
    "poset.covers": ("poset", "FinitePoset", "covers"),
    "poset.atoms": ("poset", "BoundedLattice", "atoms"),
}


class Tracer:
    """Open spans on a stack; closed spans add to per-name totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [name, start, seconds in child spans]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span and return its duration."""
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(result, *args) may update counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap fn so that it only counts calls; its time stays with the caller."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> dict:
        if self._stack:
            raise RuntimeError(f"span {self._stack[-1][0]!r} is still open")
        return {
            "spans": {n: [self.calls[n], self.self_s[n]] for n in sorted(self.calls)},
            "counts": dict(sorted(self.counts.items())),
        }


def _public_functions(module):
    """Public functions and lru_caches defined in the module itself."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


def instrument(tracer: Tracer):
    """Wrap the layers' public names and rebind them everywhere they were imported.

    Returns a function that reads the build_family cache statistics at the
    end of the job.  Meant for a child process that exits after one job:
    nothing is unwrapped.
    """
    mods = {short: importlib.import_module(f"mobiuslat.{short}") for short in LAYERS}
    counts = tracer.counts
    nbb_targets: list[int] = []

    def avoiders_out(result, *args):
        counts["permutation.avoiders_out"] += len(result)

    def poset_built(result, poset, *args):
        counts["poset.elements_built"] += poset.size
        counts["poset.order_bytes"] += poset.size * poset.size * poset.leq.itemsize

    def tables_built(result, *args):
        counts["poset.table_bytes"] += result.meet_table.nbytes + result.join_table.nbytes

    after = {
        "permutation.enumerate_avoiders": avoiders_out,
        "poset.FinitePoset": poset_built,
        "poset.as_lattice": tables_built,
    }

    def targeted(fn, target_of):
        # NBB bases that join to the requested element are the useful ones
        @functools.wraps(fn)
        def wrapper(order, *args, **kwargs):
            nbb_targets.append(target_of(order, *args))
            try:
                return fn(order, *args, **kwargs)
            finally:
                nbb_targets.pop()

        return wrapper

    nbb_mod = mods["nbb"]
    replace = {}  # id of an original -> (original, wrapper)
    for short, mod in mods.items():
        for name, original in _public_functions(mod):
            key = f"{short}.{name}"
            fn = original
            if original is nbb_mod.nbb_bases_of:
                fn = targeted(original, lambda order, x: order.lattice._as_index(x))
            elif original is nbb_mod.mobius_via_nbb:
                fn = targeted(original, lambda order: order.lattice.top)
            replace[id(original)] = (original, tracer.span(key, fn, after.get(key)))

    for key, (short, cls_name, meth) in METHOD_SPANS.items():
        cls = getattr(mods[short], cls_name)
        setattr(cls, meth, tracer.span(key, getattr(cls, meth), after.get(key)))

    lattice_cls = mods["poset"].BoundedLattice
    lattice_cls.join = tracer.counted("poset.BoundedLattice.join.calls", lattice_cls.join)

    base_init = nbb_mod.NbbBase.__init__

    def nbb_base_init(self, atoms, joins_to):
        base_init(self, atoms, joins_to)
        counts["nbb.NbbBase.created"] += 1
        if nbb_targets and joins_to == nbb_targets[-1]:
            counts["nbb.NbbBase.useful"] += 1

    nbb_mod.NbbBase.__init__ = nbb_base_init
    mods["families"].ClaimResult.__init__ = tracer.counted(
        "families.claims", mods["families"].ClaimResult.__init__
    )

    build_family = mods["families"].build_family  # the lru_cache itself
    for name, mod in list(sys.modules.items()):
        if name != "mobiuslat" and not name.startswith("mobiuslat."):
            continue
        for attr, obj in list(vars(mod).items()):
            original, wrapper = replace.get(id(obj), (None, None))
            if original is obj:
                setattr(mod, attr, wrapper)

    def cache_counts():
        info = build_family.cache_info()
        counts["families.build_family.cache_hits"] = info.hits
        counts["families.build_family.cache_misses"] = info.misses

    return cache_counts
