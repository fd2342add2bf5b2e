"""Per-layer metrics of a traced run: the counts taken at layer boundaries,
the seven lru_caches, and the assembly of every per-layer metric named in
BENCHMARK.json (what each one should move is in per_layer.json)."""

from __future__ import annotations

from collections import Counter

from opturan import exactmath, extremal_search, graph_core, tree_engine

from .tracing import Tracer, self_times


def cache_functions() -> dict[str, object]:
    """The seven lru_caches, keyed by metric prefix.  Call this before
    `Tracer.install()`: afterwards the public cached functions are wrapped
    and the wrappers have no `cache_info`."""
    return {
        "graph_core.mop_graph_cache": graph_core._mop_graph,
        "graph_core.mop_triangles_cache": graph_core._mop_triangles,
        "tree_engine.bounded_tree_cache": tree_engine._bounded_tree_classes,
        "exactmath.subtree_profile_cache": exactmath.subtree_profile_table,
        "exactmath.catalan_cache": exactmath.catalan,
        "exactmath.path_count_bounds_cache": exactmath.path_count_bounds,
        "extremal_search.fixed_endpoint_cache": extremal_search._fixed_endpoint_maxima,
    }


def read_caches(caches: dict[str, object]) -> Counter:
    """Current hits and misses of each cache, as `prefix.hits` and
    `prefix.misses` counts (subtract two readings to get one op's share)."""
    out = Counter()
    for prefix, cached in caches.items():
        info = cached.cache_info()
        out[prefix + ".hits"] = info.hits
        out[prefix + ".misses"] = info.misses
    return out


def _count(key: str, amount):
    def hook(tracer: Tracer, kwargs: dict, result) -> None:
        tracer.counts[key] += amount(kwargs, result)
    return hook


def _profile_cells(tracer: Tracer, kwargs: dict, table) -> None:
    # The cache hands back the same table on a hit; only a new one was built.
    if tracer.first_sight(table):
        tracer.counts["exactmath.subtree_profile_table.cells"] += table.k_max ** 2


HOOKS = {
    "graph_core.cycle_histogram":
        _count("graph_core.cycle_histogram.found", lambda kw, hist: sum(hist.values())),
    "graph_core.path_histogram":
        _count("graph_core.path_histogram.found", lambda kw, hist: sum(hist.values())),
    "numeral_paths.numeral_graph":
        _count("numeral_paths.numeral_graph.vertices", lambda kw, graph: graph.n),
    "extremal_search.verify_suite":
        _count("extremal_search.verify_suite.cases", lambda kw, report: len(report.cases)),
    "extremal_search.brute_force_many":
        _count("extremal_search.dedup.orbits_out",
               lambda kw, results: (sum(len(r.maximizers) for r in results)
                                    if kw.get("dedup", True) else 0)),
    "exactmath.subtree_profile_table": _profile_cells,
}


def _span(own: Counter, counts: Counter, name: str, *counters: str) -> dict:
    out = {f"{name}.self_s": own[name]}
    out.update({f"{name}.{c}": counts[f"{name}.{c}"] for c in counters})
    return out


def layer_metrics(tracer: Tracer, cache_counts: Counter, stdout_bytes: int) -> dict:
    """Every per-layer metric of one traced workload run.  cache_counts
    holds the caches' hits and misses summed over the ops."""
    spans = tracer.spans
    own = Counter(self_times(spans))
    n = tracer.counts
    # Dedup input: the canonical_chords calls brute_force_many makes itself.
    maximizers_in = sum(1 for s in spans
                        if s.name == "graph_core.canonical_chords" and s.parent >= 0
                        and spans[s.parent].name == "extremal_search.brute_force_many")
    orbits_out = n["extremal_search.dedup.orbits_out"]
    m = {
        "graph_core.enumerate_mops.self_s": own["graph_core.enumerate_mops"],
        "graph_core.enumerate_mops.hosts": n["graph_core.enumerate_mops.yielded"],
        "graph_core.Mop.validate_s": own["graph_core.Mop.validate"],
        "graph_core.Mop.count": n["graph_core.Mop.validate.calls"],
        "graph_core.Mop.graph.self_s": own["graph_core.Mop.graph"],
    }
    m.update(_span(own, n, "graph_core.cycle_histogram", "calls", "found"))
    m.update(_span(own, n, "graph_core.path_histogram", "calls", "found"))
    m.update(_span(own, n, "graph_core.paths_between_histogram", "calls"))
    m.update(_span(own, n, "graph_core.subgraph_count", "calls"))
    m.update(_span(own, n, "graph_core.canonical_chords", "calls"))
    m.update(_span(own, n, "graph_core.parse_edge_list"))
    m.update(_span(own, n, "tree_engine.weak_dual", "calls"))
    m["tree_engine.count_subtrees.self_s"] = (own["tree_engine.count_subtrees"]
                                              + own["tree_engine.count_subtrees_all"])
    m["tree_engine.count_subtrees.calls"] = (n["tree_engine.count_subtrees.calls"]
                                             + n["tree_engine.count_subtrees_all.calls"])
    m.update(_span(own, n, "tree_engine.enumerate_bounded_trees"))
    m.update(_span(own, n, "exactmath.subtree_profile_table", "cells"))
    m.update(_span(own, n, "exactmath.subtree_density", "calls"))
    m.update(_span(own, n, "numeral_paths.numeral_graph", "vertices"))
    m.update(_span(own, n, "numeral_paths.enumerate_schedules", "yielded"))
    m.update(_span(own, n, "numeral_paths.count_schedules"))
    m.update(_span(own, n, "numeral_paths.schedule_to_path", "calls"))
    m.update(_span(own, n, "numeral_paths.admissible_pairs"))
    m.update(_span(own, n, "extremal_search.brute_force_many"))
    m["extremal_search.dedup.maximizers_in"] = maximizers_in
    m["extremal_search.dedup.orbits_out"] = orbits_out
    m["extremal_search.dedup.yield"] = orbits_out / maximizers_in if maximizers_in else 0.0
    m.update(_span(own, n, "extremal_search.max_fixed_endpoint_paths"))
    m.update(_span(own, n, "extremal_search.verify_suite", "cases"))
    m.update(_span(own, n, "cli.run"))
    m["cli.stdout_bytes"] = stdout_bytes
    for prefix in cache_functions():
        hits, misses = cache_counts[prefix + ".hits"], cache_counts[prefix + ".misses"]
        m[prefix + ".hits"] = hits
        m[prefix + ".misses"] = misses
        m[prefix + ".hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return m
