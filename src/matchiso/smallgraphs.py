"""Exhaustive enumeration of small graphs up to isomorphism.

Graphs are built level by level: every graph on k vertices arises from a
graph on k-1 vertices by attaching a new vertex with some neighborhood.
Each candidate is bucketed by a cheap isomorphism invariant, the sorted
multiset of per-vertex signatures (degree, sorted neighbour degrees), and
kept only when a backtracking search finds no isomorphism onto any graph
already kept in its bucket.  The search maps each vertex only onto vertices
of the same signature and checks adjacency to the vertices mapped so far,
so it is exact.  Candidates are met in a fixed order and each class keeps
its first, so the output does not depend on how duplicates are found.

A base graph is extended only by the neighbourhoods that are least in their
orbit under its automorphism group.  Another neighbourhood is the image of
a smaller one under an automorphism, which extends to an isomorphism of the
two candidates, so its candidate copies one met earlier and was never the
first of its class: every class keeps the same first candidate.  The orbits
come from a generating set of the group, one automorphism per (i, w) that
fixes 0..i-1 and maps i to w, each found by the same isomorphism search
with those vertices recoloured apart.

A candidate's signatures are derived from its base's, not counted afresh.
They are packed with one field width per call, max_n.bit_length(), so a
base and its candidates share it.  Attaching the new vertex to nb gives each
u in nb one more degree and a neighbour of degree |nb|, and moves u's term
in each of its old neighbours' signatures up by one field; the new vertex
sees each u in nb at its new degree.  That costs deg(u) steps per u in nb,
not a pass over every edge.

Used by the acceptance suite as the exhaustive corpus; counts are checked
against the known sequences (all graphs: 1, 2, 4, 11, 34, 156, 1044, 12346;
connected: 1, 1, 2, 6, 21, 112, 853, 11117).
"""

from __future__ import annotations

from .graphs import Graph


def _signatures(adj: tuple[int, ...], width: int) -> list[int]:
    """Per vertex: its degree and the multiset of its neighbours' degrees,
    packed into one int of fields width bits wide.  Field 0 holds the
    degree and field d + 1 the number of neighbours of degree d, so a
    neighbour of degree d adds 1 << (d + 1) * width.  The packing is
    injective when every degree and every count is below 1 << width."""
    weight = [1 << (a.bit_count() + 1) * width for a in adj]
    sigs = []
    for row in adj:
        sig, rest = row.bit_count(), row
        while rest:
            low = rest & -rest
            sig += weight[low.bit_length() - 1]
            rest ^= low
        sigs.append(sig)
    return sigs


def _signature_steps(adj: tuple[int, ...], width: int) -> tuple[list[int], list[int]]:
    """Per vertex u of adj: lift[u], the term that u adds to a neighbour's
    signature once its degree has grown by one, and delta[u], how much each
    of u's neighbours' signatures grows when it does."""
    lift = [1 << (a.bit_count() + 2) * width for a in adj]
    return lift, [x - (x >> width) for x in lift]


def _extended_signatures(adj: tuple[int, ...], sigs: list[int], lift: list[int], delta: list[int],
                         nb: int, width: int) -> list[int]:
    """The signatures of adj with a new last vertex joined to the vertex
    mask nb, from sigs = _signatures(adj, width) and the _signature_steps
    of adj: each u in nb gains one degree and a neighbour of degree |nb|,
    and each of u's old neighbours sees u's degree grow by one."""
    out = sigs + [0]
    size = nb.bit_count()
    gain = 1 + (1 << (size + 1) * width)
    new = size
    rest = nb
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        out[u] += gain
        new += lift[u]
        step, around = delta[u], adj[u]
        while around:
            bit = around & -around
            out[bit.bit_length() - 1] += step
            around ^= bit
        rest ^= low
    out[-1] = new
    return out


def _isomorphic(a: tuple[int, ...], sa: list[int], b: tuple[int, ...], sb: list[int], k: int) -> list[int] | None:
    """A bijection v -> image[v] with sa[v] == sb[image[v]] that is an
    isomorphism from a onto b, or None.  Vertices of a are mapped in index
    order, each onto the least image that still fits, by one loop over the
    depths v: left[v] holds the images of v's colour not yet tried at that
    depth, so a step back resumes where that depth stopped."""
    colour: dict[int, int] = {}
    for w, sig in enumerate(sb):
        colour[sig] = colour.get(sig, 0) | 1 << w
    image = [0] * k
    want = [0] * k  # the images of v's mapped neighbours, which w's mapped neighbours must be
    left = [0] * k
    if k:
        left[0] = colour.get(sa[0], 0)
    v = used = 0
    while v < k:
        rest, need = left[v], want[v]
        while rest:
            low = rest & -rest
            rest ^= low
            if b[low.bit_length() - 1] & used == need:
                break
        else:
            if not v:
                return None
            v -= 1
            used ^= 1 << image[v]
            continue
        left[v] = rest
        image[v] = low.bit_length() - 1
        used |= low
        v += 1
        if v < k:
            need, mapped = 0, a[v] & ((1 << v) - 1)
            while mapped:
                bit = mapped & -mapped
                need |= 1 << image[bit.bit_length() - 1]
                mapped ^= bit
            want[v] = need
            left[v] = colour.get(sa[v], 0) & ~used
    return image


def _automorphism_generators(adj: tuple[int, ...], sigs: list[int], k: int) -> list[list[int]]:
    """Generators of the automorphism group of adj.  For i from k-1 down to
    0, and each w > i that an automorphism fixing 0..i-1 maps i to but the
    generators found so far do not, one such automorphism joins them: the
    _isomorphic search of adj onto itself with 0..i-1 coloured apart and i
    coloured as w.  By induction they then generate every automorphism
    that fixes 0..i-1, since they reach the whole orbit of i."""
    gens: list[list[int]] = []
    for i in reversed(range(k)):
        fixed = [-1 - j for j in range(i)]  # signatures are nonnegative
        orbit = 1 << i
        for w in range(i + 1, k):
            if sigs[w] != sigs[i] or orbit >> w & 1:
                continue
            sb = fixed + sigs[i:]
            sb[w] = -1 - i
            perm = _isomorphic(adj, fixed + [-1 - i] + sigs[i + 1 :], adj, sb, k)
            if perm is not None:
                gens.append(perm)
                orbit = _orbit(i, gens)
    return gens


def _orbit(v: int, perms: list[list[int]]) -> int:
    """The orbit of v under the group that perms generate, as a vertex mask."""
    orbit, stack = 1 << v, [v]
    while stack:
        u = stack.pop()
        for perm in perms:
            if not orbit >> perm[u] & 1:
                orbit |= 1 << perm[u]
                stack.append(perm[u])
    return orbit


def _orbit_minima(gens: list[list[int]], k: int) -> list[int]:
    """The subsets of 0..k-1, as masks in increasing order, that are least
    in their orbit under the group that the permutations gens generate."""
    size = 1 << k
    images = []
    for perm in gens:
        image = [0] * size
        for x in range(1, size):
            low = x & -x
            image[x] = image[x ^ low] | 1 << perm[low.bit_length() - 1]
        images.append(image)
    seen = bytearray(size)
    out = []
    for x in range(size):
        if seen[x]:
            continue
        out.append(x)
        seen[x] = 1
        stack = [x]
        while stack:
            y = stack.pop()
            for image in images:
                z = image[y]
                if not seen[z]:
                    seen[z] = 1
                    stack.append(z)
    return out


def _is_connected(adj: tuple[int, ...], k: int) -> bool:
    if k == 0:
        return False
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << k) - 1


def graphs_up_to_iso(max_n: int) -> dict[int, list[tuple[int, ...]]]:
    """All graphs on 1..max_n vertices up to isomorphism, as adjacency
    bitmask tuples."""
    levels: dict[int, list[tuple[int, ...]]] = {1: [(0,)]} if max_n >= 1 else {}
    width = max_n.bit_length()  # every degree and count is below max_n
    for k in range(2, max_n + 1):
        buckets: dict[tuple[int, ...], list[tuple[tuple[int, ...], list[int]]]] = {}
        for base in levels[k - 1]:
            base_sigs = _signatures(base, width)
            lift, delta = _signature_steps(base, width)
            gens = _automorphism_generators(base, base_sigs, k - 1)
            for nb in _orbit_minima(gens, k - 1):
                adj = list(base) + [nb]
                rest = nb
                while rest:
                    low = rest & -rest
                    adj[low.bit_length() - 1] |= 1 << (k - 1)
                    rest ^= low
                tup = tuple(adj)
                sigs = _extended_signatures(base, base_sigs, lift, delta, nb, width)
                kept = buckets.setdefault(tuple(sorted(sigs)), [])
                if not any(_isomorphic(tup, sigs, rep, rsigs, k) for rep, rsigs in kept):
                    kept.append((tup, sigs))
        levels[k] = sorted(rep for kept in buckets.values() for rep, _ in kept)
    return levels


def connected_graphs(max_n: int) -> list[Graph]:
    """Connected graphs on 1..max_n vertices up to isomorphism."""
    out = []
    for k, graphs in graphs_up_to_iso(max_n).items():
        for adj in graphs:
            if not _is_connected(adj, k):
                continue
            edges = []
            for u in range(k):
                rest = adj[u] >> (u + 1)
                v = u + 1
                while rest:
                    if rest & 1:
                        edges.append((u + 1, v + 1))
                    rest >>= 1
                    v += 1
            out.append(Graph(k, tuple(sorted(edges))))
    return out
