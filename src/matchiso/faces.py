"""Faces of the perfect matching polytope and the machinery living on them.

A face is represented extensionally by the set of perfect matchings whose
hull it is; this is exact because every face of the polytope is integral.
On top of that sit: support and tight odd sets, maximal laminar families
and uncrossing, contractible tight sets, the node-weighted contraction
multigraph, alternating circuits with their signed indicator vectors, the
respect predicate, and the combined progress check (maximality + small-set
contractibility + no short circuit in the contraction).

Conventions: vertex sets are frozensets of labels, edge vectors are integer
tuples of length m indexed by edge id - 1, and circuit vectors are
canonicalized so their first nonzero coordinate is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

from .graphs import (
    DEFAULT_SIZE_GUARD,
    EngineError,
    Graph,
    SizeGuardExceeded,
    crossing,
    edge_ids_of_mask,
    edge_mask,
    laminar_check,
    mask_vertices,
    vertex_mask,
    enumerate_perfect_matchings,
)
from .weights import WeightFunction


@dataclass(frozen=True)
class Face:
    """Nonempty, deduplicated, deterministically ordered matching set, plus
    the weight functions whose successive minimization produced it."""

    matchings: tuple[frozenset[int], ...]
    defining_weights: tuple[WeightFunction, ...] = ()

    def __post_init__(self):
        if not self.matchings:
            raise ValueError("a face is nonempty")
        canon = tuple(sorted(set(self.matchings), key=sorted))
        if canon != self.matchings:
            object.__setattr__(self, "matchings", canon)

    def __len__(self) -> int:
        return len(self.matchings)

    @cached_property
    def matching_masks(self) -> tuple[int, ...]:
        return tuple(edge_mask(mm) for mm in self.matchings)

    @cached_property
    def support_mask(self) -> int:
        acc = 0
        for mask in self.matching_masks:
            acc |= mask
        return acc


def perfect_matching_face(g: Graph, max_vertices: int = DEFAULT_SIZE_GUARD) -> Face:
    """The whole polytope: hull of all perfect matchings."""
    matchings = enumerate_perfect_matchings(g, max_vertices)
    if not matchings:
        raise ValueError("graph has no perfect matching; no face exists")
    return Face(matchings)


def min_weight_subface(face: Face, w: WeightFunction) -> Face:
    """Subface of the matchings attaining minimum total weight under w."""
    totals = [w.matching_weight(mm) for mm in face.matchings]
    best = min(totals)
    kept = tuple(mm for mm, t in zip(face.matchings, totals) if t == best)
    return Face(kept, face.defining_weights + (w,))


def face_support(face: Face) -> frozenset[int]:
    """Edges appearing in at least one matching of the face."""
    return edge_ids_of_mask(face.support_mask)


@lru_cache(maxsize=4096)
def _tight_odd_masks(matching_masks: tuple[int, ...], g: Graph) -> tuple[int, ...]:
    n = g.n
    out = []
    full = (1 << n) - 1
    # Enumerate one set per complement pair (those containing vertex 1);
    # delta and hence tightness are complement-invariant.
    for half in range(1 << (n - 1)):
        smask = (half << 1) | 1
        dm = g.delta_mask(smask)
        if all((dm & mm).bit_count() == 1 for mm in matching_masks):
            if smask.bit_count() % 2 == 1:
                out.append(smask)
            comp = full ^ smask
            if comp and comp.bit_count() % 2 == 1:
                out.append(comp)
    out.sort(key=lambda s: (s.bit_count(), sorted(mask_vertices(s))))
    return tuple(out)


def tight_odd_sets(face: Face, g: Graph, max_vertices: int = DEFAULT_SIZE_GUARD) -> tuple[frozenset[int], ...]:
    """All odd vertex sets crossed exactly once by every matching of the
    face; always includes the singletons."""
    if g.n > max_vertices:
        raise SizeGuardExceeded(f"n={g.n} exceeds oracle guard {max_vertices}")
    return tuple(mask_vertices(s) for s in _tight_odd_masks(face.matching_masks, g))


def is_tight(face: Face, g: Graph, s: frozenset[int]) -> bool:
    if len(s) % 2 == 0:
        return False
    dm = g.delta_mask(vertex_mask(s))
    return all((dm & mm).bit_count() == 1 for mm in face.matching_masks)


@dataclass(frozen=True)
class LaminarFamily:
    """Pairwise non-crossing odd vertex sets containing every singleton."""

    n: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        canon = tuple(sorted(set(self.sets), key=lambda s: (len(s), sorted(s))))
        object.__setattr__(self, "sets", canon)
        for v in range(1, self.n + 1):
            if frozenset({v}) not in set(canon):
                raise ValueError(f"laminar family must contain the singleton {{{v}}}")
        for s in canon:
            if len(s) % 2 == 0:
                raise ValueError(f"laminar member {sorted(s)} has even size")
            if any(v < 1 or v > self.n for v in s):
                raise ValueError(f"laminar member {sorted(s)} out of range")
        ok, pair = laminar_check(canon)
        if not ok:
            a, b = pair
            raise ValueError(f"sets {sorted(a)} and {sorted(b)} cross")

    def __contains__(self, s: frozenset[int]) -> bool:
        return s in set(self.sets)

    def members_at_most(self, size: int) -> tuple[frozenset[int], ...]:
        return tuple(s for s in self.sets if len(s) <= size)

    def maximal_at_most(self, size: int) -> tuple[frozenset[int], ...]:
        """Inclusion-maximal members of size <= size.  With all singletons
        present these partition the vertex set."""
        small = [s for s in self.sets if len(s) <= size]
        out = [s for s in small if not any(s < t for t in small)]
        return tuple(sorted(out, key=sorted))


def singletons(n: int) -> LaminarFamily:
    return LaminarFamily(n, tuple(frozenset({v}) for v in range(1, n + 1)))


def extend_to_maximal_laminar(
    base: LaminarFamily, candidates: Iterable[frozenset[int]]
) -> LaminarFamily:
    """Greedily add candidates (size ascending, then lexicographic) while
    laminarity is preserved; the result is a maximal laminar subset of the
    candidates containing the base."""
    cand = sorted(set(candidates), key=lambda s: (len(s), sorted(s)))
    present = set(base.sets)
    if not present <= set(cand):
        raise ValueError("candidates must contain the base family")
    chosen = list(base.sets)
    for s in cand:
        if s in present:
            continue
        if all(not crossing(s, t) for t in chosen):
            chosen.append(s)
            present.add(s)
    return LaminarFamily(base.n, tuple(chosen))


def _reduce_row(row: list[int], basis: list[tuple[int, list[int]]]) -> list[int]:
    """Fraction-free reduction of an integer row against pivoted basis rows."""
    for piv, brow in basis:
        c = row[piv]
        if c:
            b = brow[piv]
            for i in range(len(row)):
                row[i] = b * row[i] - c * brow[i]
            g = 0
            for x in row:
                g = math.gcd(g, x)
            if g > 1:
                row = [x // g for x in row]
    return row


def laminar_spans_tight_cuts(face: Face, fam: LaminarFamily, g: Graph) -> bool:
    """Exact rational check that the boundary vectors of the laminar family
    span those of all tight sets, restricted to the support of the face.

    Raises if fam is not a maximal laminar subset of tight(face).
    """
    tight = tight_odd_sets(face, g)
    tight_set = set(tight)
    for s in fam.sets:
        if s not in tight_set:
            raise ValueError(f"laminar member {sorted(s)} is not tight for the face")
    for t in tight:
        if t not in fam and all(not crossing(t, s) for s in fam.sets):
            raise ValueError(f"family is not maximal: {sorted(t)} could be added")
    support = sorted(face_support(face))
    col = {j: i for i, j in enumerate(support)}

    def restricted(s: frozenset[int]) -> list[int]:
        dm = g.delta_mask(vertex_mask(s))
        row = [0] * len(support)
        for j in edge_ids_of_mask(dm):
            if j in col:
                row[col[j]] = 1
        return row

    basis: list[tuple[int, list[int]]] = []
    rank_laminar = 0
    for s in fam.sets:
        row = _reduce_row(restricted(s), basis)
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is not None:
            basis.append((piv, row))
            rank_laminar += 1
    rank_all = rank_laminar
    for t in tight:
        row = _reduce_row(restricted(t), basis)
        if any(row):
            return False
    return rank_all == rank_laminar


@dataclass(frozen=True)
class UncrossCertificate:
    sets: tuple[frozenset[int], frozenset[int]]
    odd_intersection: bool
    lhs_on_support: tuple[int, ...]
    rhs_on_support: tuple[int, ...]


def uncross_pair(
    s: frozenset[int], t: frozenset[int], face: Face, g: Graph
) -> tuple[frozenset[int], frozenset[int], UncrossCertificate]:
    """Replace a crossing pair of tight sets by a non-crossing tight pair.

    Odd intersection gives (S&T, S|T), even gives (S-T, T-S); in both cases
    the boundary-indicator identity holds coordinatewise on the support of
    the face, and both returned sets are verified tight.
    """
    if not crossing(s, t):
        raise ValueError("sets do not cross")
    if not is_tight(face, g, s) or not is_tight(face, g, t):
        raise ValueError("both sets must be tight for the face")
    odd = len(s & t) % 2 == 1
    a, b = (s & t, s | t) if odd else (s - t, t - s)
    support = sorted(face_support(face))

    def on_support(*sets: frozenset[int]) -> tuple[int, ...]:
        masks = [g.delta_mask(vertex_mask(x)) for x in sets]
        return tuple(sum((dm >> (j - 1)) & 1 for dm in masks) for j in support)

    lhs = on_support(s, t)
    rhs = on_support(a, b)
    if lhs != rhs:
        raise AssertionError("uncrossing identity failed on the face support")
    if not is_tight(face, g, a) or not is_tight(face, g, b):
        raise AssertionError("uncrossed sets are not tight")
    return a, b, UncrossCertificate((a, b), odd, lhs, rhs)


class ChainLayer(NamedTuple):
    """Layer U_{p..r} of a nested chain: chain[p-2] is stripped from
    chain[r-1] (1-based p, r; p >= 2 here, p = 1 is the plain-set form)."""

    chain: tuple[frozenset[int], ...]
    p: int
    r: int


def _forced_interiors(face: Face, g: Graph, boundary_ids: Sequence[int], interior: int) -> bool:
    """True iff all matchings containing each boundary edge agree inside."""
    for eid in boundary_ids:
        bit = 1 << (eid - 1)
        seen = None
        for mm in face.matching_masks:
            if mm & bit:
                inner = mm & interior
                if seen is None:
                    seen = inner
                elif inner != seen:
                    return False
    return True


def is_contractible(face: Face, target, g: Graph) -> bool:
    """Contractibility of a tight set, or of a chain layer.

    Plain form (target a vertex frozenset): every boundary edge forces the
    matching inside the set.  Layer form (target a ChainLayer): every pair
    of boundary edges of the two chain prefixes forces the matching inside
    the layer.  Raises when the target is not tight.
    """
    if isinstance(target, ChainLayer):
        chain, p, r = target
        if not (2 <= p <= r <= len(chain)):
            raise ValueError(f"need 2 <= p <= r <= {len(chain)}, got p={p} r={r}")
        for s in chain:
            if not is_tight(face, g, s):
                raise ValueError(f"chain set {sorted(s)} is not tight for the face")
        lo, hi = chain[p - 2], chain[r - 1]
        if not lo < hi:
            raise ValueError("chain sets must be strictly nested")
        u_mask = vertex_mask(hi) & ~vertex_mask(lo)
        interior = g.interior_mask(u_mask)
        lo_delta = sorted(edge_ids_of_mask(g.delta_mask(vertex_mask(lo))))
        hi_delta = sorted(edge_ids_of_mask(g.delta_mask(vertex_mask(hi))))
        for e_lo in lo_delta:
            bit_lo = 1 << (e_lo - 1)
            for e_hi in hi_delta:
                bit_hi = 1 << (e_hi - 1)
                seen = None
                for mm in face.matching_masks:
                    if mm & bit_lo and mm & bit_hi:
                        inner = mm & interior
                        if seen is None:
                            seen = inner
                        elif inner != seen:
                            return False
        return True
    s: frozenset[int] = target
    if not is_tight(face, g, s):
        raise ValueError(f"set {sorted(s)} is not tight for the face")
    sm = vertex_mask(s)
    interior = g.interior_mask(sm)
    boundary = sorted(edge_ids_of_mask(g.delta_mask(sm)))
    return _forced_interiors(face, g, boundary, interior)


@dataclass(frozen=True)
class ContractionMultigraph:
    """Node-weighted multigraph: maximal small laminar sets become nodes
    (weight = cardinality); support edges survive unless they sit inside a
    node or cross the erased boundary of a larger laminar set.  Every edge
    keeps its original id, so vectors on the contraction embed into the
    ambient edge space."""

    m: int
    nodes: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int, int], ...]  # (node_a, node_b, edge_id), a < b

    @property
    def node_weights(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.nodes)

    @cached_property
    def edge_id_set(self) -> frozenset[int]:
        return frozenset(e for _, _, e in self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adj: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        for a, b, eid in self.edges:
            adj[a].append((eid, b))
            adj[b].append((eid, a))
        return tuple(tuple(sorted(lst)) for lst in adj)


def contract_face(
    face: Face, fam: LaminarFamily, threshold: int, g: Graph
) -> ContractionMultigraph:
    """The contraction of the graph at the given size threshold."""
    if not (1 <= threshold <= 2 * g.n):
        raise ValueError(f"threshold must be in 1..{2 * g.n}")
    for s in fam.sets:
        if not is_tight(face, g, s):
            raise ValueError(f"laminar member {sorted(s)} is not tight for the face")
    nodes = fam.maximal_at_most(threshold)
    node_of = {}
    for idx, s in enumerate(nodes):
        for v in s:
            node_of[v] = idx
    if len(node_of) != g.n:
        raise EngineError("maximal small sets must partition the vertices")
    erased = 0
    for s in fam.sets:
        if len(s) > threshold:
            erased |= g.delta_mask(vertex_mask(s))
    edges = []
    for eid in sorted(face_support(face)):
        if erased & (1 << (eid - 1)):
            continue
        u, v = g.endpoints(eid)
        a, b = node_of[u], node_of[v]
        if a == b:
            continue
        edges.append((min(a, b), max(a, b), eid))
    return ContractionMultigraph(g.m, nodes, tuple(edges))


def canonical_sign(vec: Sequence[int]) -> tuple[int, ...]:
    """Negate if needed so the first nonzero coordinate is positive."""
    for x in vec:
        if x > 0:
            return tuple(vec)
        if x < 0:
            return tuple(-y for y in vec)
    return tuple(vec)


def alternating_indicator(edge_seq: Sequence[int], m: int) -> tuple[int, ...]:
    """Signed indicator of a cyclic walk: +1 on even positions, -1 on odd.

    Rejects odd-length and zero-vector walks (those are not circuits)."""
    if len(edge_seq) == 0 or len(edge_seq) % 2 == 1:
        raise ValueError("a circuit is a nonempty even-length closed walk")
    vec = [0] * m
    for i, eid in enumerate(edge_seq):
        vec[eid - 1] += 1 if i % 2 == 0 else -1
    if not any(vec):
        raise ValueError("alternating indicator vector is zero")
    return tuple(vec)


@dataclass(frozen=True)
class AlternatingCircuit:
    """A closed even walk in a contraction with nonzero signed indicator."""

    edge_ids: tuple[int, ...]
    indicator: tuple[int, ...]
    node_weight: int

    @classmethod
    def from_walk(cls, h: ContractionMultigraph, edge_ids: Sequence[int]) -> "AlternatingCircuit":
        indicator = alternating_indicator(edge_ids, h.m)
        ends = {}
        for a, b, eid in h.edges:
            ends[eid] = (a, b)
        k = len(edge_ids)
        weights = h.node_weights

        def orientations(i: int, at: int, total: int):
            if i == k:
                if at == start:
                    yield total
                return
            eid = edge_ids[i]
            a, b = ends[eid]
            if at == a:
                yield from orientations(i + 1, b, total + weights[a])
            if at == b and a != b:
                yield from orientations(i + 1, a, total + weights[b])

        a0, b0 = ends[edge_ids[0]]
        for start in (a0, b0):
            for total in orientations(0, start, 0):
                return cls(tuple(edge_ids), indicator, total)
        raise ValueError("edge sequence is not a closed walk in the contraction")


def bounded_circuit_vectors(h: ContractionMultigraph, max_node_weight: int) -> tuple[tuple[int, ...], ...]:
    """All distinct canonical indicator vectors of alternating circuits with
    node-weight at most the bound, found by exhaustive bounded walk search.

    A circuit's node-weight counts the tail vertex of each step, with
    multiplicities, so every step consumes at least one unit of budget and
    the walks explored have length at most the bound.  Each circuit has a
    rotation starting at its minimum edge id, so the search anchors there.
    """
    weights = h.node_weights
    adj = h.adjacency
    results: set[tuple[int, ...]] = set()
    vec = [0] * h.m

    def dfs(anchor: int, start: int, cur: int, pos: int, used: int):
        # used counts the tails of the edges taken so far; taking one more
        # edge from cur adds weights[cur].
        nu = used + weights[cur]
        if nu > max_node_weight:
            return
        sign = 1 if pos % 2 == 0 else -1
        can_close = pos % 2 == 1
        for eid, nxt in adj[cur]:
            if eid < anchor:
                continue
            idx = eid - 1
            vec[idx] += sign
            if can_close and nxt == start and any(vec):
                results.add(canonical_sign(vec))
            dfs(anchor, start, nxt, pos + 1, nu)
            vec[idx] -= sign

    for a, b, eid in h.edges:
        for start, nxt in ((a, b), (b, a)):
            if weights[start] > max_node_weight:
                continue
            idx = eid - 1
            vec[idx] += 1
            dfs(eid, start, nxt, 1, weights[start])
            vec[idx] -= 1
    return tuple(sorted(results))


def _node_union_tight_masks(face: Face, g: Graph, h: ContractionMultigraph) -> list[int]:
    node_masks = [vertex_mask(s) for s in h.nodes]
    out = []
    for tmask in _tight_odd_masks(face.matching_masks, g):
        union = 0
        exact = True
        for nm in node_masks:
            inter = nm & tmask
            if inter == nm:
                union |= nm
            elif inter:
                exact = False
                break
        if exact and union == tmask:
            out.append(tmask)
    return out


def respects_face(
    y: Sequence[int],
    face: Face,
    g: Graph,
    contraction: ContractionMultigraph | None = None,
) -> bool:
    """Support inside the face support, and zero inner product with every
    tight cut (restricted, in contraction context, to tight sets that are
    unions of contraction nodes; spanning makes that restriction exact)."""
    if len(y) != g.m:
        raise ValueError(f"vector length {len(y)} does not match edge count {g.m}")
    ymask = 0
    for i, c in enumerate(y):
        if c:
            ymask |= 1 << i
    if ymask & ~face.support_mask:
        return False
    if contraction is None:
        masks = _tight_odd_masks(face.matching_masks, g)
    else:
        masks = _node_union_tight_masks(face, g, contraction)
    for tmask in masks:
        dm = g.delta_mask(tmask)
        total = 0
        rest = dm & ymask
        while rest:
            low = rest & -rest
            total += y[low.bit_length() - 1]
            rest ^= low
        if total != 0:
            return False
    return True


def lift_contracted_vector(
    z: Sequence[int], face: Face, h: ContractionMultigraph, g: Graph
) -> tuple[int, ...]:
    """Extend a balanced vector on the contraction's edges to the ambient
    edge space by inserting the forced interior matchings of each node.

    Positive and negative boundary multiplicities are paired per node in
    ascending edge order; each paired edge contributes the unique interior
    matching that the face forces once that boundary edge is fixed.  The
    result keeps 1-norm at most n times that of the input, and respects any
    subface that the input respects.
    """
    if len(z) != g.m:
        raise ValueError(f"vector length {len(z)} does not match edge count {g.m}")
    zmask = 0
    for i, c in enumerate(z):
        if c:
            if (i + 1) not in h.edge_id_set:
                raise ValueError(f"vector touches edge {i + 1} outside the contraction")
            zmask |= 1 << i
    if zmask & ~face.support_mask:
        raise ValueError("vector support must lie inside the face support")
    y = list(z)
    for s in h.nodes:
        if len(s) == 1:
            continue
        sm = vertex_mask(s)
        dm = g.delta_mask(sm)
        boundary = sorted(edge_ids_of_mask(dm & zmask))
        balance = sum(z[eid - 1] for eid in boundary)
        if balance != 0:
            raise ValueError(f"vector is unbalanced at node {sorted(s)}")
        pos = []
        neg = []
        for eid in boundary:
            c = z[eid - 1]
            pos.extend([eid] * max(c, 0))
            neg.extend([eid] * max(-c, 0))
        interior = g.interior_mask(sm)
        forced: dict[int, int] = {}

        def forced_interior(eid: int) -> int:
            if eid not in forced:
                bit = 1 << (eid - 1)
                inner = None
                for mm in face.matching_masks:
                    if mm & bit:
                        part = mm & interior
                        if inner is None:
                            inner = part
                        elif part != inner:
                            raise ValueError(
                                f"interior of {sorted(s)} not forced by edge {eid}: "
                                "contractibility precondition violated"
                            )
                if inner is None:
                    raise EngineError("boundary edge vanished from the face support")
                forced[eid] = inner
            return forced[eid]

        for e_plus, e_minus in zip(pos, neg):
            for eid in edge_ids_of_mask(forced_interior(e_plus)):
                y[eid - 1] += 1
            for eid in edge_ids_of_mask(forced_interior(e_minus)):
                y[eid - 1] -= 1
    z_norm = sum(abs(c) for c in z)
    if sum(abs(c) for c in y) > g.n * z_norm:
        raise EngineError("lifted vector exceeds n times the circuit's 1-norm")
    return tuple(y)


@dataclass(frozen=True)
class GoodnessReport:
    ok: bool
    failed: str | None = None  # "maximality" | "contractibility" | "circuit"
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


def goodness_check(face: Face, fam: LaminarFamily, threshold: int, g: Graph) -> GoodnessReport:
    """The progress predicate for a face-laminar pair at a size threshold:

    (a) the family is a maximal laminar subset of the tight sets,
    (b) every member of size <= threshold is contractible for the face,
    (c) the contraction at the threshold has no alternating circuit of
        node-weight <= threshold.

    Returns which clause failed and a witness when not good.
    """
    tight = tight_odd_sets(face, g)
    tight_lookup = set(tight)
    for s in fam.sets:
        if s not in tight_lookup:
            return GoodnessReport(False, "maximality", s)
    fam_lookup = set(fam.sets)
    for t in tight:
        if t not in fam_lookup and all(not crossing(t, s) for s in fam.sets):
            return GoodnessReport(False, "maximality", t)
    for s in fam.sets:
        if len(s) <= threshold and not is_contractible(face, s, g):
            return GoodnessReport(False, "contractibility", s)
    h = contract_face(face, fam, threshold, g)
    vectors = bounded_circuit_vectors(h, threshold)
    if vectors:
        return GoodnessReport(False, "circuit", vectors[0])
    return GoodnessReport(True)
