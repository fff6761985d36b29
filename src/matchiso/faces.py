"""Faces of the perfect matching polytope and the machinery living on them.

A face is represented extensionally by the perfect matchings whose hull it
is; this is exact because every face of the polytope is integral.  A face
carries its graph, so every operation on it reads the matchings against the
graph's own edge ids.  Outside input is checked when it enters:
Face(g, masks) and LaminarFamily(n, masks) check what a caller hands them,
and the faces and families derived here from checked ones are not checked
again.  Every tightness test reads one memo on the face, the walk over its
tight sets.  On top of that sit:
support and tight odd sets, maximal laminar families held as forests (each
member points to the least member around it; one routine places a set,
or finds a member it crosses), contractible tight sets, the
node-weighted contraction multigraph, the set of signed indicator vectors
of its short alternating circuits, the respect predicate, and the combined
progress check (maximality + small-set contractibility + no short circuit
in the contraction).  The uncrossing and spanning lemmas that justify the
laminar families are checked by the tests, not here.

Conventions: every vertex set (tight sets, laminar members, chains,
contraction nodes, witnesses) is an int mask with bit v - 1 for vertex v,
so set algebra and the crossing test are a few integer operations; the
public functions that take a mask from their caller check that it names a
nonempty set of the graph's vertices.  A matching is an int edge mask, bit
j - 1 for edge j.  What a face memoizes (its tight sets, and the forcing
groups of each set or layer, keyed by the vertex masks (hi, lo)) lives on
the face.  A signed edge vector (a circuit vector, or its lift) is an
EdgeVector: its support edge mask and the nonzero coefficients in edge-id
order, canonical with a positive first coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .graphs import (
    DEFAULT_SIZE_GUARD,
    EdgeVector,
    EngineError,
    Graph,
    NoPerfectMatchingError,
    SizeGuardExceeded,
    bit_positions,
    dense_sorted,
    edge_mask,
    enumerate_perfect_matchings,
    is_perfect_matching,
)
from .weights import WeightFunction


@dataclass(frozen=True)
class Face:
    """A face of the perfect matching polytope of g: nonempty, deduplicated
    edge masks of g with n/2 edges each, in lexicographic order of their
    sorted edge ids.  Face(g, masks) checks that each mask is a perfect
    matching of g; the faces derived from a checked one are not checked
    again.  The tight sets are walked once, and every tightness test reads
    that memo."""

    g: Graph
    matchings: tuple[int, ...]

    def __post_init__(self):
        if not self.matchings:
            raise ValueError("a face is nonempty")
        canon = tuple(_set_sorted(set(self.matchings)))
        n, m = self.g.n, self.g.m
        if 2 * canon[0].bit_count() != n or 2 * canon[-1].bit_count() != n:
            raise ValueError(f"every matching of a face has n/2 edges, n = {n}")
        if min(canon) < 0 or max(canon) >> m:
            raise ValueError(f"a matching of a face names an edge outside 1..{m}")
        if not all(is_perfect_matching(self.g, mm) for mm in canon):
            raise ValueError("every matching of a face is a perfect matching of its graph")
        if canon != self.matchings:
            object.__setattr__(self, "matchings", canon)

    def __len__(self) -> int:
        return len(self.matchings)

    @cached_property
    def support_mask(self) -> int:
        acc = 0
        for mask in self.matchings:
            acc |= mask
        return acc

    @cached_property
    def forcing_memo(self) -> dict[tuple[int, int], dict[int, tuple[int, ...]]]:
        """What forcing_groups has found on this face, keyed by (hi, lo)."""
        return {}

    @cached_property
    def _field_bytes(self) -> int:
        """The bytes of one matching's field in _tight_masks' packed matchings."""
        return (max(self.matchings).bit_length() + 7) // 8 or 1

    def tight_walk_bytes(self) -> int:
        """A bound on the bytes that the tight-set walk reads: its 2^(n-2)
        steps, each reading at most one field per matching."""
        return (1 << self.g.n >> 2) * len(self) * self._field_bytes

    @cached_property
    def _tight_masks(self) -> tuple[int, ...]:
        """The tight odd sets as vertex masks, in (size, lexicographic)
        order; tight_odd_sets reads them behind its size guard.

        A set and its complement share a cut and n is even, so only the
        sets containing vertex 1 are visited, in Gray-code order: each step
        flips one vertex and XORs its incidence mask into the cut (Knuth,
        TAOCP 7.2.1.1).  Odd steps flip vertex 2 and leave the set even, so
        the walk takes two at a time.  Most sets already meet the first
        matching more than once; for the others, (cut & field) * repunit
        copies the cut into the field of each matching in packed, and the
        set is tight iff each field keeps one bit of it."""
        n, k, masks = self.g.n, len(self), self.matchings
        size = self._field_bytes
        packed = int.from_bytes(b"".join(mm.to_bytes(size, "little") for mm in masks), "little")
        repunit = int.from_bytes((b"\x01" + bytes(size - 1)) * k, "little")
        field = (1 << 8 * size) - 1
        inc, first = self.g.incidence_masks, masks[0]
        full = (1 << n) - 1
        s, cut, out = 1, inc[0], []
        for i in range(0, 1 << (n - 1), 2):
            if i:
                v = (i & -i).bit_length()
                s ^= 2 | 1 << v
                cut ^= inc[1] ^ inc[v]
            if (cut & first).bit_count() == 1 and ((cut & field) * repunit & packed).bit_count() == k:
                out += (s, full ^ s)
        return tuple(_set_sorted(out))

    @cached_property
    def _tight_set(self) -> set[int]:
        """The sets of tight_odd_sets, for membership tests."""
        return set(tight_odd_sets(self))


def _trusted(cls, **fields):
    """The frozen dataclass cls from fields that are already checked and
    canonical, being derived from checked objects: no constructor check."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def perfect_matching_face(g: Graph) -> Face:
    """The whole polytope: hull of all perfect matchings.  Behind the size
    guard."""
    matchings = enumerate_perfect_matchings(g)
    if not matchings:
        raise NoPerfectMatchingError(g)
    return _trusted(Face, g=g, matchings=matchings)


def min_weight_subface(face: Face, w: WeightFunction) -> Face:
    """Subface of the matchings attaining minimum total weight under w; the
    face itself, with what is memoized on it, when they all do.  Raises
    when w has another edge count than the face's graph."""
    if w.m != face.g.m:
        raise ValueError(f"{w.m} weights for a graph with {face.g.m} edges")
    totals = [w.matching_weight(mm) for mm in face.matchings]
    best = min(totals)
    if totals.count(best) == len(totals):
        return face
    return _trusted(Face, g=face.g, matchings=tuple(mm for mm, t in zip(face.matchings, totals) if t == best))


def _check_vertex_mask(s: int, n: int) -> None:
    """The one range check on a vertex mask from a caller: a nonempty set
    of the vertices 1..n."""
    if not 0 < s < 1 << n:
        raise ValueError(f"vertex mask {s} is not a nonempty set of vertices 1..{n}")


def _set_sorted(masks: Iterable[int]) -> list[int]:
    """Distinct masks by size, then by ascending list of bit positions.  Of
    two sets of one size, the one holding the lowest bit where they differ
    comes first: its bit string, read from bit 0, is the larger."""
    out = sorted(masks, key=lambda s: format(s, "b")[::-1], reverse=True)
    out.sort(key=int.bit_count)
    return out


def tight_odd_sets(face: Face) -> tuple[int, ...]:
    """All odd vertex sets crossed exactly once by every matching of the
    face, as masks in (size, lexicographic) order; always includes the
    singletons.  Behind the size guard; memoized on the face."""
    n = face.g.n
    if n > DEFAULT_SIZE_GUARD:
        raise SizeGuardExceeded(f"n={n} exceeds oracle guard {DEFAULT_SIZE_GUARD}")
    return face._tight_masks


def _place(parent: dict[int, int], s: int, insert: bool = True) -> int | None:
    """Place the vertex mask s in the forest parent, which maps each member
    to the least member strictly containing it (0 at a root), holds every
    singleton and not s.  Returns a member crossing s, or None; then s joins
    unless insert is False.  A climb from a vertex of s ends at a maximal
    member inside s, whose parent is the least member around s unless it
    crosses s; the climbs cost the children of s times the depth."""
    tops, around, rest = [], 0, s
    while rest:
        x = rest & -rest
        while (p := parent[x]) and p & s == p:
            x = p
        if p and p & s != s:
            return p
        tops.append(x)
        around, rest = p, rest & ~x
    if insert:
        parent[s] = around
        for x in tops:
            parent[x] = s
    return None


@dataclass(frozen=True)
class LaminarFamily:
    """Pairwise non-crossing odd vertex sets containing every singleton, as
    vertex masks in (size, lexicographic) order and as a forest: parent maps
    each member to the least member strictly containing it, 0 at a root."""

    n: int
    masks: tuple[int, ...]
    parent: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.n
        canon = tuple(_set_sorted(set(self.masks)))
        present = set(canon)
        for v in range(n):
            if 1 << v not in present:
                raise ValueError(f"laminar family must contain the singleton {{{v + 1}}}")
        for s in canon:
            _check_vertex_mask(s, n)
            if s.bit_count() % 2 == 0:
                raise ValueError(f"laminar member {list(bit_positions(s))} has even size")
        parent = dict.fromkeys(canon[:n], 0)
        for s in canon[n:]:
            if (a := _place(parent, s)) is not None:
                raise ValueError(f"sets {list(bit_positions(a))} and {list(bit_positions(s))} cross")
        object.__setattr__(self, "masks", canon)
        object.__setattr__(self, "parent", parent)

    def maximal_at_most(self, size: int) -> tuple[int, ...]:
        """Masks of the inclusion-maximal members of size <= size, in vertex
        order: those whose parent is 0 (a root) or larger than size.  With
        all singletons present they partition the vertex set."""
        out = [s for s, p in self.parent.items() if s.bit_count() <= size and (not p or p.bit_count() > size)]
        return tuple(sorted(out, key=lambda s: s & -s))


def singletons(n: int) -> LaminarFamily:
    return LaminarFamily(n, [1 << v for v in range(n)])


def extend_to_maximal_laminar(base: LaminarFamily, candidates: Sequence[int]) -> LaminarFamily:
    """Greedily add candidate masks, taken in the order given ((size,
    lexicographic) as tight_odd_sets returns them), while laminarity is
    preserved; the result is a maximal laminar subset of the candidates
    containing the base.  Raises on a candidate that is no odd vertex set."""
    if not set(base.masks) <= set(candidates):
        raise ValueError("candidates must contain the base family")
    parent = dict(base.parent)
    for s in candidates:
        if s not in parent:
            _check_vertex_mask(s, base.n)
            if s.bit_count() % 2 == 0:
                raise ValueError(f"laminar member {list(bit_positions(s))} has even size")
            _place(parent, s)
    return _trusted(LaminarFamily, n=base.n, masks=tuple(_set_sorted(parent)), parent=parent)


def _maximality_witness(face: Face, fam: LaminarFamily) -> int | None:
    """A member of fam that is not tight for the face, or a tight set that
    fam could take without crossing; None when fam is a maximal laminar
    subset of the tight sets."""
    if fam.n != face.g.n:
        raise ValueError(f"a family on {fam.n} vertices for a graph on {face.g.n}")
    kept, parent = face._tight_set, fam.parent
    return next((s for s in fam.masks if s not in kept), None) or next(
        (t for t in tight_odd_sets(face) if t not in parent and _place(parent, t, insert=False) is None), None
    )


def forcing_groups(face: Face, hi: int, lo: int = 0) -> dict[int, tuple[int, ...]]:
    """The one "boundary edges force the interior" primitive, on the layer
    hi - lo of two nested tight vertex masks (lo = 0: the set hi).  Every
    matching meets the boundaries of lo and hi in one edge or one pair;
    the matchings are grouped by it, and each group maps to the distinct
    edge masks its matchings use inside the layer, ascending.  The layer is
    contractible iff every group has one interior.  Memoized on the face."""
    groups = face.forcing_memo.get((hi, lo))
    if groups is None:
        g = face.g
        boundary, interior = g.delta_mask(lo) | g.delta_mask(hi), g.interior_mask(hi & ~lo)
        acc: dict[int, set[int]] = {}
        for mm in face.matchings:
            acc.setdefault(mm & boundary, set()).add(mm & interior)
        groups = {key: tuple(sorted(inners)) for key, inners in acc.items()}
        face.forcing_memo[hi, lo] = groups
    return groups


def _check_tight(face: Face, sets: Iterable[int]) -> None:
    """Raise unless each of the sets is tight for the face."""
    for s in sets:
        if s not in face._tight_set:
            raise ValueError(f"set {list(bit_positions(s))} is not tight for the face")


def is_contractible(face: Face, s: int) -> bool:
    """Contractibility of the tight set s: every boundary edge of s forces the
    matching inside (a singleton, with no interior, always is).  Raises when
    s is not tight."""
    _check_vertex_mask(s, face.g.n)
    if not s & (s - 1):
        return True
    _check_tight(face, (s,))
    return all(len(inners) == 1 for inners in forcing_groups(face, s).values())


@dataclass(frozen=True)
class ContractionMultigraph:
    """Node-weighted multigraph: maximal small laminar sets become nodes
    (weight = cardinality); support edges survive unless they sit inside a
    node or cross the erased boundary of a larger laminar set.  Every edge
    keeps its original id, so vectors on the contraction embed into the
    ambient edge space."""

    m: int
    nodes: tuple[int, ...]  # vertex masks
    edges: tuple[tuple[int, int, int], ...]  # (node_a, node_b, edge_id), a < b

    @property
    def node_weights(self) -> tuple[int, ...]:
        return tuple(s.bit_count() for s in self.nodes)

    @cached_property
    def edge_mask(self) -> int:
        return edge_mask(e for _, _, e in self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adj: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        for a, b, eid in self.edges:
            adj[a].append((eid, b))
            adj[b].append((eid, a))
        return tuple(tuple(sorted(lst)) for lst in adj)


def contract_face(face: Face, fam: LaminarFamily, threshold: int) -> ContractionMultigraph:
    """The contraction of the face's graph at the given size threshold;
    raises when a member of the family is not tight for the face."""
    g = face.g
    if not (1 <= threshold <= 2 * g.n):
        raise ValueError(f"threshold must be in 1..{2 * g.n}")
    _check_tight(face, fam.masks)
    erased = 0
    for s in fam.masks:
        if s.bit_count() > threshold:
            erased |= g.delta_mask(s)
    nodes = fam.maximal_at_most(threshold)
    node_of = {v: idx for idx, s in enumerate(nodes) for v in bit_positions(s)}
    if len(node_of) != g.n:
        raise EngineError("maximal small sets must partition the vertices")
    edges = []
    for eid in bit_positions(face.support_mask & ~erased):
        u, v = g.endpoints(eid)
        a, b = node_of[u], node_of[v]
        if a != b:
            edges.append((min(a, b), max(a, b), eid))
    return ContractionMultigraph(g.m, nodes, tuple(edges))


def bounded_circuit_vectors(h: ContractionMultigraph, max_node_weight: int) -> set[EdgeVector]:
    """The set of canonical indicator vectors of alternating circuits with
    node-weight at most the bound, found by exhaustive bounded walk search.

    A circuit's node-weight counts the tail vertex of each step, with
    multiplicities, so every step consumes at least one unit of budget and
    the walks explored have length at most the bound.  Each circuit has a
    rotation starting at its minimum edge id, so the search anchors there,
    and walks the anchor from its lower node only: read backwards, a closed
    walk of even length has the same vector and node-weight.  A walk sums
    its steps in one scratch list and carries the support of the sum.
    """
    weights = h.node_weights
    adj = h.adjacency
    results: set[EdgeVector] = set()
    vec = [0] * h.m

    def dfs(anchor: int, start: int, cur: int, pos: int, used: int, support: int):
        # used counts the tails of the edges taken so far and of the next
        # one, out of cur; each call is entered only within the bound.
        sign = 1 if pos % 2 == 0 else -1
        for eid, nxt in adj[cur]:
            if eid < anchor:
                continue
            idx = eid - 1
            c = vec[idx] = vec[idx] + sign
            now = support ^ (1 << idx) if c == sign or c == 0 else support  # left 0, or returned to it
            if sign < 0 and nxt == start and now:  # a walk closes after an odd step
                co = tuple(filter(None, vec))  # canonical: the first coefficient positive
                results.add(EdgeVector(now, co if co[0] > 0 else tuple(-x for x in co)))
            nu = used + weights[nxt]
            if nu <= max_node_weight:
                dfs(anchor, start, nxt, pos + 1, nu, now)
            vec[idx] = c - sign

    for a, b, eid in h.edges:
        used = weights[a] + weights[b]
        if used <= max_node_weight:
            vec[eid - 1] = 1
            dfs(eid, a, b, 1, used, 1 << (eid - 1))
            vec[eid - 1] = 0
    return results


def respects_face(
    y: EdgeVector,
    face: Face,
    contraction: ContractionMultigraph | None = None,
) -> bool:
    """Support inside the face support, and zero inner product with every
    tight cut (restricted, in contraction context, to tight sets that are
    unions of contraction nodes; spanning makes that restriction exact)."""
    g = face.g
    y.check(g.m)
    if y.support & ~face.support_mask:
        return False
    coeff = dict(y.items())
    masks = tight_odd_sets(face)
    if contraction is not None:
        # The nodes partition the vertices: a union of nodes is a set that
        # no node straddles.
        nodes = contraction.nodes
        masks = [t for t in masks if not any(nm & t and nm & t != nm for nm in nodes)]
    for tmask in masks:
        if sum(coeff[j] for j in bit_positions(g.delta_mask(tmask) & y.support)):
            return False
    return True


def lift_contracted_vector(z: EdgeVector, face: Face, h: ContractionMultigraph) -> EdgeVector:
    """Extend a balanced vector on the contraction's edges to the ambient
    edge space by inserting the forced interior matchings of each node;
    the result is canonical.

    Each boundary edge e of a node adds z_e times the unique interior
    matching that the face forces once e is fixed, so the positive and the
    negative multiplicities at a balanced node insert as many interiors
    each.  The result keeps 1-norm at most n times that of the input, and
    respects any subface that the input respects.  Raises when a node is
    not tight for the face or not contractible.
    """
    g = face.g
    z.check(g.m)
    outside = bit_positions(z.support & ~h.edge_mask)
    if outside:
        raise ValueError(f"vector touches edge {outside[0]} outside the contraction")
    if z.support & ~face.support_mask:
        raise ValueError("vector support must lie inside the face support")
    _check_tight(face, h.nodes)
    zc = dict(z.items())
    y = dict(zc)
    for sm in h.nodes:
        if sm.bit_count() == 1:
            continue
        boundary = bit_positions(g.delta_mask(sm) & z.support)
        if sum(zc[eid] for eid in boundary):
            raise ValueError(f"vector is unbalanced at node {list(bit_positions(sm))}")
        groups = forcing_groups(face, sm)
        for eid in boundary:
            inners = groups.get(1 << (eid - 1))
            if inners is None:
                raise EngineError("boundary edge vanished from the face support")
            if len(inners) > 1:
                raise ValueError(
                    f"interior of {list(bit_positions(sm))} not forced by edge {eid}: "
                    "contractibility precondition violated"
                )
            for j in bit_positions(inners[0]):
                y[j] = y.get(j, 0) + zc[eid]
    lifted = EdgeVector.of(y)
    if sum(map(abs, lifted.coeffs)) > g.n * sum(map(abs, z.coeffs)):
        raise EngineError("lifted vector exceeds n times the circuit's 1-norm")
    return lifted


@dataclass(frozen=True)
class GoodnessReport:
    ok: bool
    failed: str | None = None  # "maximality" | "contractibility" | "circuit"
    witness: object = None  # a vertex mask, or a circuit EdgeVector


def goodness_check(face: Face, fam: LaminarFamily, threshold: int) -> GoodnessReport:
    """The progress predicate for a face-laminar pair at a size threshold:

    (a) the family is a maximal laminar subset of the tight sets,
    (b) every member of size <= threshold is contractible for the face,
    (c) the contraction at the threshold has no alternating circuit of
        node-weight <= threshold.

    Returns which clause failed and a witness when not good: for (c), the
    least circuit vector in the order of the dense m-tuples.
    """
    bad = _maximality_witness(face, fam)
    if bad is not None:
        return GoodnessReport(False, "maximality", bad)
    for s in fam.masks:
        if s.bit_count() <= threshold and not is_contractible(face, s):
            return GoodnessReport(False, "contractibility", s)
    h = contract_face(face, fam, threshold)
    vectors = bounded_circuit_vectors(h, threshold)
    if vectors:
        return GoodnessReport(False, "circuit", dense_sorted(vectors, h.m)[0])
    return GoodnessReport(True)
