"""Spans around the public functions of affcluster, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper that records a
span (name, start, end, parent span, job id) and rebinds every alias of it in
the ``affcluster`` modules, since the modules import each other's names.
``Tracer.uninstall`` puts every original back.  Spans stay in memory until
``dump``; ``per_layer`` turns them into the per-layer metrics.

A span's self time is its duration minus the durations of its direct
children; its inclusive time (``.s``) counts only spans with no ancestor of
the same name, so recursion is not counted twice.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

from affcluster import affine, cli, gca, poly, scatter2, seeds, theta

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("poly.mul.calls", "count"),
    ("poly.mul.self_s", "s"),
    ("poly.mul.pairs", "count"),
    ("poly.mul.terms_out", "count"),
    ("poly.add.calls", "count"),
    ("poly.add.self_s", "s"),
    ("poly.eq.calls", "count"),
    ("poly.eq.self_s", "s"),
    ("poly.exact_div.calls", "count"),
    ("poly.exact_div.self_s", "s"),
    ("poly.substitute.calls", "count"),
    ("poly.substitute.self_s", "s"),
    ("seeds.gvec_search.states", "count"),
    ("seeds.gvec_search.s", "s"),
    ("seeds.mutate_seed.calls", "count"),
    ("seeds.mutate_seed.self_s", "s"),
    ("affine.build_affine_data.s", "s"),
    ("affine.detect_tubes.s", "s"),
    ("affine.cluster_expansion_imaginary.calls", "count"),
    ("affine.cluster_expansion_imaginary.s", "s"),
    ("theta.engine_init.calls", "count"),
    ("theta.engine_init.s", "s"),
    ("theta.theta_gfan.calls", "count"),
    ("theta.theta_gfan.distinct", "count"),
    ("theta.theta_gfan.self_s", "s"),
    ("theta.theta_gfan.hit_ratio", "ratio"),
    ("theta.theta_k_delta.self_s", "s"),
    ("theta.theta_delta_from.self_s", "s"),
    ("theta.theta_imaginary.self_s", "s"),
    ("theta.expand_product.calls", "count"),
    ("theta.expand_product.self_s", "s"),
    ("theta.expand_product.peels", "count"),
    ("theta.assert_pointed.calls", "count"),
    ("theta.assert_pointed.self_s", "s"),
    ("gca.enumerate_exchange_graph.s", "s"),
    ("gca.t_o_check.s", "s"),
    ("gca.t_o_check.relations", "count"),
    ("scatter2.complete_scattering_rank2.s", "s"),
    ("scatter2.enumerate_broken_lines_rank2.s", "s"),
    ("scatter2.enumerate_broken_lines_rank2.lines", "count"),
    *((f"cli.run_identity.{family}.s", "s") for family in cli.IDENTITIES),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

# Module-level functions: (module, attribute, span name).
FUNCTIONS = (
    (poly, "exact_div", "poly.exact_div"),
    (poly, "substitute", "poly.substitute"),
    (seeds, "mutate_seed", "seeds.mutate_seed"),
    (affine, "build_affine_data", "affine.build_affine_data"),
    (affine, "detect_tubes", "affine.detect_tubes"),
    (affine, "cluster_expansion_imaginary", "affine.cluster_expansion_imaginary"),
    (gca, "enumerate_exchange_graph", "gca.enumerate_exchange_graph"),
    (gca, "t_o_check", "gca.t_o_check"),
    (scatter2, "complete_scattering_rank2", "scatter2.complete_scattering_rank2"),
    (scatter2, "enumerate_broken_lines_rank2", "scatter2.enumerate_broken_lines_rank2"),
)

# Methods: (class, attribute, span name).
METHODS = (
    (poly.LaurentPoly, "__mul__", "poly.mul"),
    (poly.LaurentPoly, "__add__", "poly.add"),
    (poly.LaurentPoly, "__eq__", "poly.eq"),
    (theta.ThetaEngine, "__init__", "theta.engine_init"),
    (theta.ThetaEngine, "theta_gfan", "theta.theta_gfan"),
    (theta.ThetaEngine, "theta_k_delta", "theta.theta_k_delta"),
    (theta.ThetaEngine, "theta_delta_from", "theta.theta_delta_from"),
    (theta.ThetaEngine, "theta_imaginary", "theta.theta_imaginary"),
    (theta.ThetaEngine, "theta_by_label", "theta.theta_by_label"),
    (theta.ThetaEngine, "expand_product", "theta.expand_product"),
    (theta.ThetaEngine, "assert_pointed", "theta.assert_pointed"),
)


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # one entry per span, in the order the spans opened
        self.name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.job: List[int] = []
        self.current_job = -1
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._gfan_labels: set = set()
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call.  ``name`` is a string or a
        function of the call's arguments; ``after(args, result)`` counts."""

        def wrapper(*args, **kwargs):
            idx = self.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator_factory(self, name: str, factory):
        """``factory`` returns a generator; time each resumption of it (the
        call that creates it does no work) and count the items it yields."""

        def traced(*args, **kwargs):
            gen = factory(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.counts[name + ".states"] += 1
                yield item

        traced.__wrapped__ = factory
        return traced

    # -- counters --------------------------------------------------------------

    def _count_mul(self, args, result) -> None:
        a, b = args
        self.counts["poly.mul.pairs"] += len(a.terms) * len(b.terms)
        self.counts["poly.mul.terms_out"] += len(result.terms)

    def _count_gfan(self, args, result) -> None:
        engine, label = args
        # an engine lives for the whole of its job, so (job, id) names it
        self._gfan_labels.add((self.current_job, id(engine), label.coords))

    def _count_relations(self, args, result) -> None:
        self.counts["gca.t_o_check.relations"] += result

    def _count_lines(self, args, result) -> None:
        self.counts["scatter2.enumerate_broken_lines_rank2.lines"] += len(result)

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "affcluster":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self) -> None:
        after = {
            "poly.mul": self._count_mul,
            "theta.theta_gfan": self._count_gfan,
            "gca.t_o_check": self._count_relations,
            "scatter2.enumerate_broken_lines_rank2": self._count_lines,
        }
        for owner, attr, name in METHODS:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), after.get(name)))
        for module, attr, name in FUNCTIONS:
            fn = getattr(module, attr)
            self._patch_everywhere(fn, self.wrap(name, fn, after.get(name)))
        frontier = seeds.enumerate_gvector_frontier
        self._patch_everywhere(frontier, self.wrap_generator_factory("seeds.gvec_search", frontier))
        run_identity = cli.run_identity
        self._patch_everywhere(
            run_identity,
            self.wrap(lambda args: f"cli.run_identity.{args[1]}", run_identity),
        )

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """``<span>.calls``, ``<span>.self_s`` and ``<span>.s`` for every span
        name, plus the counters."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        stats: Dict[str, float] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            stats[name + ".calls"] += 1
            stats[name + ".self_s"] += dur - child[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < 0:
                stats[name + ".s"] += dur
            if name == "theta.theta_by_label" and self.parent[i] >= 0:
                if self.names[self.name[self.parent[i]]] == "theta.expand_product":
                    stats["theta.expand_product.peels"] += 1
        stats.update(self.counts)
        calls = stats["theta.theta_gfan.calls"]
        stats["theta.theta_gfan.distinct"] = len(self._gfan_labels)
        stats["theta.theta_gfan.hit_ratio"] = 1 - len(self._gfan_labels) / calls if calls else 0.0
        stats["trace.spans"] = n
        return stats

    def per_layer(self) -> Dict[str, float]:
        """Every PER_LAYER metric except ``trace.overhead_s``."""
        stats = self.stats()
        return {name: stats[name] for name, _unit in PER_LAYER if name != "trace.overhead_s"}

    def dump(self, path) -> None:
        spans = list(zip(self.name, self.start, self.end, self.parent, self.job))
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "fields": ["name", "start", "end", "parent", "job"], "spans": spans},
                fh,
            )
