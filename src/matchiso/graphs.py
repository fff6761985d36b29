"""Simple undirected graphs with canonical edge indexing.

Vertices are labeled 1..n.  Edges are unordered pairs stored as (u, v) with
u < v, sorted lexicographically; the 1-based position of an edge in that
order is its edge id.  Every other module speaks in these ids, so parsing a
shuffled edge list yields the same graph and the same ids.

The module also hosts the exhaustive perfect-matching oracle that the rest
of the package (and its tests) use as ground truth.  The oracle is guarded
by an instance-size limit, the constant DEFAULT_SIZE_GUARD, because it
enumerates matchings explicitly.  The polynomial counterpart, Edmonds'
blossom algorithm for a minimum-weight perfect matching (O(n^2 m), one edge
scan per dual step), has no guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

DEFAULT_SIZE_GUARD = 16


class ParseError(ValueError):
    """Invalid edge-list input.  ``kind`` names the defect: "malformed",
    "self-loop", "duplicate-edge", "vertex-range", or "unreadable" for a
    file that cannot be read as UTF-8 text."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class SizeGuardExceeded(RuntimeError):
    """An exhaustive oracle was invoked above its instance-size guard."""


class EngineError(RuntimeError):
    """A verified pipeline invariant failed; indicates a bug, never a bad input."""


class NoPerfectMatchingError(ValueError):
    """The input graph has no perfect matching."""

    def __init__(self, g: Graph):
        super().__init__(f"graph with {g.n} vertices has no perfect matching")


@dataclass(frozen=True)
class Graph:
    """Immutable graph with lexicographic edge ids.

    ``edges[j - 1]`` is the edge with id ``j``.  Construct via
    :func:`graph_from_edges` or :func:`parse_graph`; the raw constructor
    insists on already-canonical input.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ParseError("malformed", f"vertex count must be positive, got {self.n}")
        prev = None
        for u, v in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ParseError("vertex-range", f"edge ({u}, {v}) out of range 1..{self.n}")
            if u == v:
                raise ParseError("self-loop", f"self-loop at vertex {u}")
            if u > v:
                raise ParseError("malformed", f"edge ({u}, {v}) not normalized")
            if prev is not None and (u, v) <= prev:
                kind = "duplicate-edge" if (u, v) == prev else "malformed"
                raise ParseError(kind, f"edge list not strictly increasing at ({u}, {v})")
            prev = (u, v)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_ids(self) -> dict[tuple[int, int], int]:
        return {uv: j for j, uv in enumerate(self.edges, start=1)}

    def edge_id(self, u: int, v: int) -> int:
        return self.edge_ids[(min(u, v), max(u, v))]

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        return self.edges[edge_id - 1]

    @cached_property
    def incidence_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmask over edges, bit ``j - 1`` set iff edge j touches v."""
        masks = [0] * self.n
        for j, (u, v) in enumerate(self.edges):
            masks[u - 1] |= 1 << j
            masks[v - 1] |= 1 << j
        return tuple(masks)

    @cached_property
    def endpoint_masks(self) -> tuple[int, ...]:
        """Per-edge bitmask over vertices (bit ``v - 1``)."""
        return tuple((1 << (u - 1)) | (1 << (v - 1)) for u, v in self.edges)

    def delta_mask(self, vertex_mask: int) -> int:
        """Edge bitmask of the cut delta(S) for S given as a vertex bitmask.

        XOR of incidence masks counts endpoint parity, which is 1 exactly
        for the crossing edges.
        """
        if vertex_mask < 0:
            raise ValueError(f"negative vertex mask {vertex_mask}")
        acc = 0
        vm = vertex_mask
        while vm:
            low = vm & -vm
            acc ^= self.incidence_masks[low.bit_length() - 1]
            vm ^= low
        return acc

    def interior_mask(self, vertex_mask: int) -> int:
        """Edge bitmask of E(S): the edges touching S less the cut."""
        touching = 0
        for v in bit_positions(vertex_mask):
            touching |= self.incidence_masks[v - 1]
        return touching & ~self.delta_mask(vertex_mask)


def bit_positions(mask: int) -> tuple[int, ...]:
    """1-based positions of the set bits, ascending: the vertices of a
    vertex mask, or the edge ids of an edge mask."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def edge_mask(edge_ids: Iterable[int]) -> int:
    acc = 0
    for j in edge_ids:
        acc |= 1 << (j - 1)
    return acc


class EdgeVector(NamedTuple):
    """A signed vector over edge ids, sparse: the edge mask of its nonzero
    coordinates and their values in edge-id order.  The library makes its
    circuit, lifted and obligation vectors in this form, canonical with a
    positive first coefficient: a vector and its negation respect a face
    and separate alike."""

    support: int
    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, coeff_of: dict[int, int]) -> EdgeVector:
        """The canonical vector with these coefficients by edge id, zeros dropped."""
        ids = sorted(j for j, c in coeff_of.items() if c)
        coeffs = tuple(coeff_of[j] for j in ids)
        return cls(edge_mask(ids), tuple(-c for c in coeffs) if coeffs and coeffs[0] < 0 else coeffs)

    def items(self) -> Iterator[tuple[int, int]]:
        """(edge id, coefficient) pairs in edge-id order."""
        return zip(bit_positions(self.support), self.coeffs)

    def check(self, m: int) -> None:
        """Raise ValueError unless the vector lies on the edge ids 1..m."""
        if not 0 <= self.support < 1 << m or len(self.coeffs) != self.support.bit_count() or not all(self.coeffs):
            raise ValueError(f"not a vector on the edge ids 1..{m}: {self}")


def dense_sorted(vectors: Collection[EdgeVector], m: int) -> list[EdgeVector]:
    """Vectors on the edges 1..m in the order of their dense m-tuples: with
    r > 2 max |coefficient|, a tuple read as balanced base-r digits, edge 1
    the most significant, is an integer that sorts as the tuple does."""
    if len(vectors) < 2:
        return list(vectors)
    r = 2 * max(max(map(abs, v.coeffs), default=0) for v in vectors) + 1
    place = [r ** (m - e) for e in range(1, m + 1)]
    return sorted(vectors, key=lambda v: sum(c * place[e - 1] for e, c in v.items()))


def graph_from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from unordered pairs in any order, canonicalizing ids."""
    normalized = []
    seen = set()
    for a, b in pairs:
        if a == b:
            raise ParseError("self-loop", f"self-loop at vertex {a}")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ParseError("vertex-range", f"edge ({a}, {b}) out of range 1..{n}")
        uv = (min(a, b), max(a, b))
        if uv in seen:
            raise ParseError("duplicate-edge", f"duplicate edge {uv}")
        seen.add(uv)
        normalized.append(uv)
    return Graph(n, tuple(sorted(normalized)))


def parse_graph(text: str) -> Graph:
    """Parse the edge-list document format.

    First non-comment line: ``n m``.  Then exactly m lines ``u v``.
    Lines starting with ``#`` and blank lines are ignored.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise ParseError("malformed", "empty document")
    head = rows[0].split()
    if len(head) != 2:
        raise ParseError("malformed", f"header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("malformed", f"header must be 'n m', got {rows[0]!r}") from None
    if n < 1 or m < 0:
        raise ParseError("malformed", f"invalid header counts n={n} m={m}")
    body = rows[1:]
    if len(body) != m:
        raise ParseError("malformed", f"expected {m} edge lines, found {len(body)}")
    pairs = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("malformed", f"edge line must be 'u v', got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("malformed", f"edge line must be 'u v', got {line!r}") from None
        pairs.append((a, b))
    return graph_from_edges(n, pairs)


def is_perfect_matching(g: Graph, mask: int) -> bool:
    """Whether an edge mask meets every vertex's edges exactly once;
    ValueError when it is not a set of the edges 1..m."""
    if not 0 <= mask < 1 << g.m:
        raise ValueError(f"edge mask {mask} is not a set of edges 1..{g.m}")
    return all((star & mask).bit_count() == 1 for star in g.incidence_masks)


def enumerate_perfect_matchings(g: Graph) -> tuple[int, ...]:
    """All perfect matchings as edge masks, in lexicographic order of their
    sorted edge ids.  Empty iff none exist.  The walk covers the lowest free
    vertex by ascending edge ids, so the ids of each matching come in
    ascending order and the walk emits the matchings in that order.
    Behind the size guard.
    """
    if g.n > DEFAULT_SIZE_GUARD:
        raise SizeGuardExceeded(f"n={g.n} exceeds oracle guard {DEFAULT_SIZE_GUARD}")
    if g.n % 2 == 1:
        return ()
    full = (1 << g.n) - 1
    by_vertex: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for j, em in enumerate(g.endpoint_masks):
        u, v = g.edges[j]
        by_vertex[u - 1].append((1 << j, em))
    out: list[int] = []

    def walk(covered: int, chosen: int):
        if covered == full:
            out.append(chosen)
            return
        low = (~covered & full) & -(~covered & full)
        v_idx = low.bit_length() - 1
        for bit, em in by_vertex[v_idx]:
            if covered & em:
                continue
            walk(covered | em, chosen | bit)

    walk(0, 0)
    return tuple(out)


def min_weight_perfect_matching(g: Graph, values: Sequence[int]) -> int | None:
    """A minimum-weight perfect matching under the integer edge weights
    ``values`` (``values[j - 1]`` weighs edge j), as an edge mask; None iff
    the graph has no perfect matching.  Polynomial and unguarded.

    Among maximum-cardinality matchings the blossom algorithm maximizes the
    total of ``ceiling - w``; when a perfect matching exists every maximum
    matching is perfect, and maximizing that total minimizes w.
    """
    if len(values) != g.m:
        raise ValueError(f"{len(values)} weights for {g.m} edges")
    if g.n % 2 or not g.edges:
        return None
    ceiling = max(values) + 1
    mate = _max_weight_matching(
        g.n, [(u - 1, v - 1, ceiling - x) for (u, v), x in zip(g.edges, values)]
    )
    if -1 in mate:
        return None
    return edge_mask(g.edge_id(v + 1, mate[v] + 1) for v in range(g.n) if v < mate[v])


def _max_weight_matching(n: int, edges: list[tuple[int, int, int]]) -> list[int]:
    """Edmonds' primal-dual blossom algorithm, O(n^2 m): a maximum-weight
    matching among the maximum-cardinality ones.  Vertices are 0..n-1,
    blossoms get the ids n..2n-1, and the result is each vertex's mate or
    -1.  Each dual step finds its size by one scan over the edges, with no
    least-slack edges kept per blossom (Galil's O(n^3) bookkeeping); at the
    sizes the CLI admits (n <= 40) the scan costs about the same.

    Edge k has the endpoints 2k (its first vertex) and 2k + 1 (its second);
    ``p ^ 1`` is the other end of endpoint p.  Vertex duals are stored
    doubled, so a slack is ``dual[i] + dual[j] - 2 w``; with integer weights
    every S-vertex dual has the same parity, S-S slacks are even, and the
    whole computation stays in integers.  Labels: 0 free, 1 S (outer),
    2 T (inner); 5 marks an S-blossom visited by ``scan_blossom``.
    """
    nedge = len(edges)
    endpoint = [edges[p >> 1][p & 1] for p in range(2 * nedge)]
    neighbend: list[list[int]] = [[] for _ in range(n)]
    for k, (i, j, _) in enumerate(edges):
        neighbend[i].append(2 * k + 1)
        neighbend[j].append(2 * k)
    mate = [-1] * n  # remote endpoint of the matched edge
    label = [0] * (2 * n)
    labelend = [-1] * (2 * n)  # endpoint through which the label came
    inblossom = list(range(n))  # top-level blossom of each vertex
    parent = [-1] * (2 * n)
    childs: list = [None] * (2 * n)  # sub-blossoms, base first, in cycle order
    base = list(range(n)) + [-1] * n
    endps: list = [None] * (2 * n)  # endps[b][i] links childs i and i + 1, in child i
    unused = list(range(n, 2 * n))
    dual = [max((wt for _, _, wt in edges), default=0)] * n + [0] * n
    allowed = [False] * nedge
    queue: list[int] = []

    def slack(k):
        i, j, wt = edges[k]
        return dual[i] + dual[j] - 2 * wt

    def leaves(b):
        if b < n:
            return [b]
        out, stack = [], [b]
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(childs[t])
        return out

    def assign_label(w, t, p):
        b = inblossom[w]
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        if t == 1:
            queue.extend(leaves(b))
        else:
            # A T-blossom's base is matched; its mate becomes an S-vertex.
            p = mate[base[b]]
            assign_label(endpoint[p], 1, p ^ 1)

    def scan_blossom(v, w):
        """Walk up the trees from v and w in turn: the base of their
        closest common S-blossom, or -1 when the roots differ."""
        path = []
        found = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                found = base[b]
                break
            path.append(b)
            label[b] = 5
            if labelend[b] == -1:
                v = -1  # a root
            else:
                v = endpoint[labelend[inblossom[endpoint[labelend[b]]]]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return found

    def add_blossom(b0, k):
        """Shrink the odd cycle closed by edge k, through base b0."""
        v, w, _ = edges[k]
        bb, bv, bw = inblossom[b0], inblossom[v], inblossom[w]
        b = unused.pop()
        base[b] = b0
        parent[b] = -1
        parent[bb] = b
        path, ends = [], []
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            ends.append(labelend[bv])
            bv = inblossom[endpoint[labelend[bv]]]
        path.append(bb)
        path.reverse()
        ends.reverse()
        ends.append(2 * k)
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            ends.append(labelend[bw] ^ 1)
            bw = inblossom[endpoint[labelend[bw]]]
        childs[b], endps[b] = path, ends
        label[b] = 1
        labelend[b] = labelend[bb]
        dual[b] = 0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)  # a T-vertex turned S
            inblossom[v] = b

    def expand_blossom(b, endstage):
        """Undo blossom b; mid-stage a T-blossom's children are relabelled
        so the alternating tree stays intact."""
        for s in childs[b]:
            parent[s] = -1
            if s < n:
                inblossom[s] = s
            elif endstage and dual[s] == 0:
                expand_blossom(s, endstage)
            else:
                for v in leaves(s):
                    inblossom[v] = s
        if not endstage and label[b] == 2:
            entry = inblossom[endpoint[labelend[b] ^ 1]]
            cyc, ends = childs[b], endps[b]
            # Walk the even-length side of the cycle from the entry child
            # to the base: forward from an odd index, backward from an even.
            j = cyc.index(entry)
            if j & 1:
                j -= len(cyc)
                step, trick = 1, 0
            else:
                step, trick = -1, 1
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                label[endpoint[ends[j - trick] ^ trick ^ 1]] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowed[ends[j - trick] >> 1] = True
                j += step
                p = ends[j - trick] ^ trick
                allowed[p >> 1] = True
                j += step
            # The base child turns T without passing the label to its mate.
            bv = cyc[j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            j += step
            while cyc[j] != entry:
                bv = cyc[j]
                if label[bv] != 1:
                    reached = [v for v in leaves(bv) if label[v] != 0]
                    if reached:
                        v = reached[0]
                        label[v] = 0
                        label[endpoint[mate[base[bv]]]] = 0
                        assign_label(v, 2, labelend[v])
                j += step
        label[b] = labelend[b] = -1
        childs[b] = endps[b] = None
        base[b] = -1
        unused.append(b)

    def augment_blossom(b, v):
        """Swap matched and unmatched edges on the even path from vertex v
        to the base of b, making v's child the new base."""
        t = v
        while parent[t] != b:
            t = parent[t]
        if t >= n:
            augment_blossom(t, v)
        cyc, ends = childs[b], endps[b]
        i = j = cyc.index(t)
        if i & 1:
            j -= len(cyc)
            step, trick = 1, 0
        else:
            step, trick = -1, 1
        while j != 0:
            j += step
            p = ends[j - trick] ^ trick
            if cyc[j] >= n:
                augment_blossom(cyc[j], endpoint[p])
            j += step
            if cyc[j] >= n:
                augment_blossom(cyc[j], endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        childs[b] = cyc[i:] + cyc[:i]
        endps[b] = ends[i:] + ends[:i]
        base[b] = base[childs[b][0]]

    def augment_matching(k):
        """Augment along the path through edge k between two S-vertices."""
        v, w, _ = edges[k]
        for s, p in ((v, 2 * k + 1), (w, 2 * k)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break  # reached the root
                bt = inblossom[endpoint[labelend[bs]]]
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    for _ in range(n):
        # One stage: grow alternating trees from every exposed vertex until
        # an augmenting path appears or no dual change can make one.
        label[:] = [0] * (2 * n)
        allowed[:] = [False] * nedge
        queue[:] = []
        for v in range(n):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                for p in neighbend[v]:
                    k = p >> 1
                    w = endpoint[p]
                    if inblossom[v] == inblossom[w]:
                        continue
                    if not allowed[k]:
                        if slack(k) > 0:
                            continue
                        allowed[k] = True
                    if label[inblossom[w]] == 0:
                        assign_label(w, 2, p ^ 1)
                    elif label[inblossom[w]] == 1:
                        b0 = scan_blossom(v, w)
                        if b0 >= 0:
                            add_blossom(b0, k)
                        else:
                            augment_matching(k)
                            augmented = True
                            break
                    elif label[w] == 0:
                        # w sits inside a T-blossom; remember how it
                        # was reached in case the blossom expands.
                        label[w] = 2
                        labelend[w] = p ^ 1
            if augmented:
                break
            # Dual change: the largest step keeping every slack and every
            # T-blossom dual nonnegative.  An edge from an S-blossom to a
            # free one closes by its slack, an edge between two S-blossoms
            # by half its slack, as both ends move; either way (kind 2) the
            # edge then joins the scan.
            kind, delta, edge, blossom = 0, None, -1, -1
            for k, (i, j, wt) in enumerate(edges):
                bi, bj = inblossom[i], inblossom[j]
                if label[bi] + label[bj] == 1:
                    d = dual[i] + dual[j] - 2 * wt
                elif label[bi] == label[bj] == 1 and bi != bj:
                    d = (dual[i] + dual[j] - 2 * wt) // 2
                else:
                    continue
                if kind == 0 or d < delta:
                    kind, delta, edge = 2, d, k
            for b in range(n, 2 * n):
                if (base[b] >= 0 and parent[b] == -1 and label[b] == 2
                        and (kind == 0 or dual[b] < delta)):
                    kind, delta, blossom = 4, dual[b], b
            if kind == 0:
                # No augmenting path can appear: the matching has maximum
                # cardinality.  Finish with a last feasible dual step.
                kind, delta = 1, max(0, min(dual[:n]))
            for v in range(n):
                lab = label[inblossom[v]]
                if lab == 1:
                    dual[v] -= delta
                elif lab == 2:
                    dual[v] += delta
            for b in range(n, 2 * n):
                if base[b] >= 0 and parent[b] == -1:
                    if label[b] == 1:
                        dual[b] += delta
                    elif label[b] == 2:
                        dual[b] -= delta
            if kind == 1:
                break
            if kind == 4:
                expand_blossom(blossom, False)
                continue
            allowed[edge] = True
            i, j, _ = edges[edge]
            if label[inblossom[i]] == 0:
                i = j
            queue.append(i)
        if not augmented:
            break
        for b in range(n, 2 * n):
            if parent[b] == -1 and base[b] >= 0 and label[b] == 1 and dual[b] == 0:
                expand_blossom(b, True)
    return [endpoint[p] if p >= 0 else -1 for p in mate]
