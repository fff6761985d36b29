"""The digit search as first written, kept as a test-only differential
oracle: one fresh Bareiss determinant of the Tutte rows for the whole graph
and one per removed edge (m + 1 in all), and the verdict read off the
digits alone.

Its verdict table is the reference for the one-inverse search.  Its status
is not: when the weights do not isolate, cancelling Pfaffian terms can make
it report a wrong `matched`, or `no-perfect-matching` for a graph that has
one.
"""

import math

from matchiso import Graph, WeightFunction
from matchiso.graphs import edge_mask, is_perfect_matching
from matchiso.tutte import (
    STATUS_MATCHED,
    STATUS_NO_PM,
    STATUS_NOT_ISOLATING,
    EdgeVerdict,
    SearchOutcome,
    _ord2,
    _tutte_rows,
)

from reference_determinant import bareiss_determinant


def ord2(value: int) -> int | None:
    """Largest k with 2^k dividing the value; None for value 0."""
    return None if value == 0 else _ord2(value)


def ord2_or_inf(value: int) -> float | int:
    """The 2-adic order, infinite for 0: "digit disappeared" is one comparison."""
    o = ord2(value)
    return math.inf if o is None else o


def tutte_rows(g: Graph, values) -> list[list[int]]:
    """The Tutte rows that determinant_search inverts: 2^values[j] for edge j + 1."""
    return _tutte_rows(g, [1 << x for x in values])


def per_edge_search(g: Graph, w: WeightFunction) -> SearchOutcome:
    full = bareiss_determinant(tutte_rows(g, w.values))
    if full == 0:
        return SearchOutcome(STATUS_NO_PM, None, None, 0, None, ())
    target = ord2(full)
    verdicts = []
    selected = []
    for edge_id in range(1, g.m + 1):
        sub = Graph(g.n, g.edges[: edge_id - 1] + g.edges[edge_id:])
        value = bareiss_determinant(tutte_rows(sub, w.values[: edge_id - 1] + w.values[edge_id:]))
        hit = ord2_or_inf(value) > target
        verdicts.append(EdgeVerdict(edge_id, value == 0, ord2(value), hit))
        if hit:
            selected.append(edge_id)
    candidate = edge_mask(selected)
    det_bits = full.bit_length()
    if not is_perfect_matching(g, candidate) or 2 * w.matching_weight(candidate) != target:
        return SearchOutcome(STATUS_NOT_ISOLATING, None, None, det_bits, target, tuple(verdicts))
    return SearchOutcome(
        STATUS_MATCHED, candidate, w.matching_weight(candidate), det_bits, target, tuple(verdicts)
    )
