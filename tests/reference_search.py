"""The digit search as first written, kept as a test-only differential
oracle: one fresh Bareiss determinant for the whole graph and one per
removed edge (m + 1 in all), and the verdict read off the digits alone.

Its verdict table is the reference for the one-inverse search.  Its status
is not: when the weights do not isolate, cancelling Pfaffian terms can make
it report a wrong `matched`, or `no-perfect-matching` for a graph that has
one.
"""

from matchiso import Graph, WeightFunction, build_tutte_matrix, determinant
from matchiso.graphs import edge_mask, is_perfect_matching
from matchiso.tutte import (
    STATUS_MATCHED,
    STATUS_NO_PM,
    STATUS_NOT_ISOLATING,
    EdgeVerdict,
    SearchOutcome,
)


def per_edge_search(g: Graph, w: WeightFunction) -> SearchOutcome:
    full = determinant(build_tutte_matrix(g, w))
    if full.value == 0:
        return SearchOutcome(STATUS_NO_PM, None, None, 0, None, ())
    target = full.ord2
    verdicts = []
    selected = []
    for edge_id in range(1, g.m + 1):
        sub = Graph(g.n, g.edges[: edge_id - 1] + g.edges[edge_id:])
        sub_w = WeightFunction(w.n, w.values[: edge_id - 1] + w.values[edge_id:], w.provenance)
        res = determinant(build_tutte_matrix(sub, sub_w))
        hit = res.ord2_or_inf > target
        verdicts.append(EdgeVerdict(edge_id, res.value == 0, res.ord2, hit))
        if hit:
            selected.append(edge_id)
    candidate = edge_mask(selected)
    det_bits = full.value.bit_length()
    if not is_perfect_matching(g, candidate) or 2 * w.matching_weight(candidate) != target:
        return SearchOutcome(STATUS_NOT_ISOLATING, None, None, det_bits, target, tuple(verdicts))
    return SearchOutcome(
        STATUS_MATCHED, candidate, w.matching_weight(candidate), det_bits, target, tuple(verdicts)
    )
