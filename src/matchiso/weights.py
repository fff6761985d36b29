"""Edge weight functions: the oblivious modular family, concatenation,
random draws for the isolation test, and the brute-force isolation check.

The family member with index k assigns edge j the value (4n^2+1)^j mod k.
Scanning k = 2, 3, ... is guaranteed to produce a member giving every
vector in a bounded obligation set a nonzero inner product before k passes
n^3 times the number of vectors, the bound that separating_weights scans to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Collection

from .graphs import EdgeVector, EngineError, Graph, enumerate_perfect_matchings


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative integer weight per edge id (values[j-1] is edge j).

    ``n`` is the vertex count of the ambient graph; it fixes the family base
    4n^2+1 and the padding bounds used by concatenation.
    """

    n: int
    values: tuple[int, ...]
    provenance: str = "custom"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        if any(x < 0 for x in self.values):
            raise ValueError("weights must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.values)

    def matching_weight(self, mask: int) -> int:
        """Total weight of the edges in an edge mask."""
        total, values = 0, self.values
        while mask:
            low = mask & -mask
            total += values[low.bit_length() - 1]
            mask ^= low
        return total


def family_base(n: int) -> int:
    return 4 * n * n + 1


def _member_values(k: int, n: int, m: int) -> list[int]:
    """The values (4n^2+1)^j mod k of member k, for j = 1..m."""
    base = family_base(n) % k
    values = []
    acc = 1
    for _ in range(m):
        acc = acc * base % k
        values.append(acc)
    return values


def family_member(k: int, n: int, m: int) -> WeightFunction:
    """Member k of the oblivious family on m edges: (4n^2+1)^j mod k."""
    if k < 2:
        raise ValueError(f"family index must be >= 2, got {k}")
    return WeightFunction(n, tuple(_member_values(k, n, m)), provenance=f"family:{k}")


def concatenate(w: WeightFunction, w2: WeightFunction, padding: int) -> WeightFunction:
    """padding * w + w2, exact.

    Minimizing the result is the same as minimizing w and then w2, provided
    the padding strictly dominates every possible matching weight under w2;
    the check below uses the bound (n // 2) * max(w2) since a matching has
    at most n // 2 edges.
    """
    if w.m != w2.m:
        raise ValueError(f"edge counts differ: {w.m} vs {w2.m}")
    if w.n != w2.n:
        raise ValueError(f"vertex counts differ: {w.n} vs {w2.n}")
    ceiling = (w.n // 2) * max(w2.values, default=0)
    if padding <= ceiling:
        raise ValueError(
            f"padding {padding} does not dominate possible matching weights (need > {ceiling})"
        )
    values = tuple(padding * a + b for a, b in zip(w.values, w2.values))
    return WeightFunction(w.n, values, provenance="concat")


def separating_weights(
    vectors: Collection[EdgeVector],
    n: int,
    m: int,
) -> tuple[int, WeightFunction]:
    """Smallest family index k whose member on m edges has nonzero inner
    product with every one of the distinct vectors, from one scan up to the
    family lemma's bound n^3 per vector (at least 7).

    Each vector must be a nonzero EdgeVector on the edges 1..m with 1-norm
    at most 4n^2.  The lemma rules out an empty scan, so one raises
    EngineError.
    """
    vecs = set(vectors)
    rows = []
    for v in vecs:
        v.check(m)
        if not v.support:
            raise ValueError("zero vector in obligation set")
        if sum(map(abs, v.coeffs)) > 4 * n * n:
            raise ValueError("vector 1-norm exceeds 4n^2")
        rows.append([(j - 1, c) for j, c in v.items()])
    bound = max(7, n**3 * len(vecs))
    for k in range(2, bound + 1):
        values = _member_values(k, n, m)
        if all(sum(c * values[i] for i, c in row) for row in rows):
            return k, WeightFunction(n, tuple(values), provenance=f"family:{k}")
    raise EngineError(f"no separating family member up to {bound}")


def random_weights(g: Graph, seed: int) -> WeightFunction:
    """Independent uniform weights in {1, ..., 2m}, reproducible from seed."""
    rng = random.Random(seed)
    hi = 2 * g.m
    values = tuple(rng.randint(1, hi) for _ in range(g.m)) if g.m else ()
    return WeightFunction(g.n, values, provenance="random")


def is_isolating(g: Graph, w: WeightFunction) -> bool:
    """True iff exactly one perfect matching attains the minimum total
    weight (False when the graph has no perfect matching).  Raises when w
    has another edge count than g."""
    if w.m != g.m:
        raise ValueError(f"{w.m} weights for a graph with {g.m} edges")
    matchings = enumerate_perfect_matchings(g)
    if not matchings:
        return False
    totals = [w.matching_weight(mm) for mm in matchings]
    best = min(totals)
    return totals.count(best) == 1
