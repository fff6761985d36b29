"""Checks of matchiso's reports that do not use matchiso.

Minimum-weight perfect matchings come from networkx's blossom algorithm
(`max_weight_matching` with `maxcardinality=True` on weights C - w, which
stays in integer arithmetic for integer weights).  A minimum is unique when
deleting any one of its edges leaves no perfect matching of the same
weight.  Corpus counts are the known numbers of connected graphs.
"""

from __future__ import annotations

import json

import networkx as nx

CONNECTED_GRAPH_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


def _perfect_min(graph: nx.Graph, n: int, weight_of):
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    if 2 * len(matching) != n:
        return None
    return sum(weight_of(u, v) for u, v in matching), matching


def min_matching(n: int, edges: list[tuple[int, int]], weights: list[int]):
    """(weight of a minimum-weight perfect matching, whether it is the only
    one); None when the graph has no perfect matching."""
    w = {uv: x for uv, x in zip(edges, weights)}
    ceiling = max(weights) + 1
    graph = nx.Graph()
    graph.add_nodes_from(range(1, n + 1))
    graph.add_weighted_edges_from((u, v, ceiling - x) for (u, v), x in w.items())

    def weight_of(u, v):
        return w[(min(u, v), max(u, v))]

    found = _perfect_min(graph, n, weight_of)
    if found is None:
        return None
    best, matching = found
    for u, v in matching:
        graph.remove_edge(u, v)
        other = _perfect_min(graph, n, weight_of)
        graph.add_edge(u, v, weight=ceiling - weight_of(u, v))
        if other is not None and other[0] == best:
            return best, False
    return best, True


def _check_matched(spec, matching_ids: list[int], weights: list[int]) -> str | None:
    edges = spec.edges
    if len(weights) != len(edges):
        return f"{len(weights)} weights for {len(edges)} edges"
    if any(not 1 <= j <= len(edges) for j in matching_ids):
        return "matching names an edge id out of range"
    covered = sorted(v for j in matching_ids for v in edges[j - 1])
    if covered != list(range(1, spec.n + 1)):
        return "reported matching is not a perfect matching"
    truth = min_matching(spec.n, edges, weights)
    if truth is None:
        return "oracle finds no perfect matching"
    best, unique = truth
    total = sum(weights[j - 1] for j in matching_ids)
    if total != best:
        return f"reported matching weighs {total}, minimum is {best}"
    if not unique:
        return "reported as isolated but the minimum is not unique"
    return None


def _cli_weights(result: dict) -> list[int]:
    return [int(x) for x in result["weight" if "weight" in result else "weights"]["values"]]


def check(spec, outcome) -> str | None:
    """None when the outcome is correct for the spec, else the reason."""
    if outcome.rc != 0:
        return f"exit {outcome.rc}: {outcome.error}"
    verb = spec.argv[0]
    if verb == "connected_graphs":
        counts = json.loads(outcome.stdout)["counts"]
        expected = list(CONNECTED_GRAPH_COUNTS[: spec.n])
        return None if counts == expected else f"counts {counts}, expected {expected}"
    result = json.loads(outcome.stdout)["result"]
    weights = _cli_weights(result)
    if verb == "search":
        if result["status"] == "isolation-failure":
            truth = min_matching(spec.n, spec.edges, weights)
            if truth is not None and truth[1]:
                return "isolation-failure reported on weights that isolate"
            return None
        if result["status"] != "matched":
            return f"status {result['status']}"
    return _check_matched(spec, result["matching"], weights)


def digest_text(outcome) -> str:
    """The report with its wall-clock field removed."""
    if not outcome.stdout:
        return f"rc={outcome.rc}"
    report = json.loads(outcome.stdout)
    report.pop("ms", None)
    return json.dumps(report, separators=(",", ":"))
