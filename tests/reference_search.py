"""Two earlier digit searches, kept as test-only differential oracles.

``per_edge_search`` is the search as first written: one fresh Bareiss
determinant of the Tutte rows for the whole graph and one per removed edge
(m + 1 in all), and the verdict read off the digits alone.  Its verdict
table is the reference for the one-inverse search.  Its status is not: when
the weights do not isolate, cancelling Pfaffian terms can make it report a
wrong `matched`, or `no-perfect-matching` for a graph that has one.

``unscaled_search`` is the one-inverse search before vertex potentials: it
inverts the Tutte rows with entries 2^w(e) as they stand.  The scaled
search must equal it in every field.
"""

import math

from matchiso import Graph, WeightFunction
from matchiso.graphs import (
    EngineError,
    bit_positions,
    edge_mask,
    is_perfect_matching,
    min_weight_perfect_matching,
)
from matchiso.tutte import (
    STATUS_MATCHED,
    STATUS_NO_PM,
    STATUS_NOT_ISOLATING,
    EdgeVerdict,
    SearchOutcome,
    _inverse,
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


def unscaled_search(g: Graph, w: WeightFunction) -> SearchOutcome:
    """Find the unique minimum-weight perfect matching, and say so exactly.

    One fraction-free inversion yields D = +-det T and R = D * T^-1.
    Removing edge e = (u, v), u < v, is a rank-2 skew update, so
    det(T - e) = s^2 / |D| with s = D - 2^w(e) * R[v][u]: the per-edge
    determinant is zero iff s = 0 and otherwise has 2-adic valuation
    2 ord2(s) - ord2(D).  The edges whose removal kills the lowest digit
    2^(2 W*) are selected (Mulmuley, Vazirani and Vazirani 1987).

    The digit test alone can be fooled when w does not isolate: equal
    minimum terms of the Pfaffian may cancel and move the lowest digit.  So
    the verdict is settled by the blossom algorithm: the candidate M is
    reported as matched only if it is a minimum under
    (n/2 + 1) * w + chi_M, which holds exactly when M is the unique minimum
    under w.  A vanishing determinant is reported as no-perfect-matching
    only when no perfect matching exists, and as isolation-failure
    otherwise.
    """
    if w.m != g.m:
        raise ValueError(f"weight function covers {w.m} edges, graph has {g.m}")
    if any(x < 1 for x in w.values):
        raise ValueError("search requires strictly positive weights")
    d, adj = _inverse(_tutte_rows(g, [1 << x for x in w.values]))
    if d == 0:
        if min_weight_perfect_matching(g, w.values) is None:
            return SearchOutcome(STATUS_NO_PM, None, None, 0, None, ())
        return SearchOutcome(
            STATUS_NOT_ISOLATING, None, None, 0, None, (),
            reason="determinant vanishes although a perfect matching exists",
        )
    target = _ord2(d)
    if target % 2:
        raise EngineError(f"skew-symmetric determinant has odd 2-adic valuation {target}")
    verdicts = []
    candidate = 0
    for edge_id, ((u, v), x) in enumerate(zip(g.edges, w.values), start=1):
        s = d - (adj[v - 1][u - 1] << x)
        ord2 = None if s == 0 else 2 * _ord2(s) - target
        hit = ord2 is None or ord2 > target
        verdicts.append(EdgeVerdict(edge_id, s == 0, ord2, hit))
        if hit:
            candidate |= 1 << (edge_id - 1)
    det_bits = abs(d).bit_length()

    def failure(reason: str) -> SearchOutcome:
        return SearchOutcome(
            STATUS_NOT_ISOLATING, None, None, det_bits, target, tuple(verdicts), reason=reason
        )

    if not is_perfect_matching(g, candidate):
        return failure("selected edges do not form a perfect matching")
    weight = w.matching_weight(candidate)
    if 2 * weight != target:
        return failure(f"matching weight {weight} inconsistent with digit position {target}")
    scale = g.n // 2 + 1
    shifted = [scale * x + (candidate >> j & 1) for j, x in enumerate(w.values)]
    best = min_weight_perfect_matching(g, shifted)
    if best is None:
        raise EngineError("blossom algorithm lost the candidate's perfect matching")
    gap = sum(shifted[j - 1] for j in bit_positions(candidate))
    gap -= sum(shifted[j - 1] for j in bit_positions(best))
    if gap < 0:
        raise EngineError("blossom algorithm returned a non-minimum perfect matching")
    if gap > 0:
        return failure(f"matching weight {weight} is not the unique minimum")
    return SearchOutcome(
        STATUS_MATCHED, candidate, weight, det_bits, target, tuple(verdicts)
    )
