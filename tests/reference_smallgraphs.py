"""Two retired paths of smallgraphs, kept as test oracles.

The canonical form that graphs_up_to_iso deduplicated with before invariant
buckets and an isomorphism test replaced it: colour refinement, then the
least adjacency bitstring over every ordering the stable colouring allows.
Exhaustive within colour classes, hence exact, and slow on symmetric graphs.

The recursive isomorphism search that smallgraphs._isomorphic ran before it
became one loop over the depths: the same vertex order and the same
ascending order of images, so both return the same image or None."""

from itertools import permutations


def isomorphism(a: tuple[int, ...], sa: list[int], b: tuple[int, ...], sb: list[int], k: int) -> list[int] | None:
    """A bijection v -> image[v] with sa[v] == sb[image[v]] that is an
    isomorphism from a onto b, or None.  Vertices of a are mapped in index
    order."""
    image = [0] * k

    def extend(v: int, used: int) -> bool:
        if v == k:
            return True
        # the images of v's already-mapped neighbours, which w must match
        want = 0
        rest = a[v] & ((1 << v) - 1)
        while rest:
            low = rest & -rest
            want |= 1 << image[low.bit_length() - 1]
            rest ^= low
        for w in range(k):
            if not used >> w & 1 and sb[w] == sa[v] and b[w] & used == want:
                image[v] = w
                if extend(v + 1, used | 1 << w):
                    return True
        return False

    return image if extend(0, 0) else None


def _refine_colors(adj: tuple[int, ...], k: int) -> tuple[int, ...]:
    colors = [adj[v].bit_count() for v in range(k)]
    while True:
        signatures = []
        for v in range(k):
            neigh = adj[v]
            local = []
            while neigh:
                low = neigh & -neigh
                local.append(colors[low.bit_length() - 1])
                neigh ^= low
            signatures.append((colors[v], tuple(sorted(local))))
        order = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new = [order[sig] for sig in signatures]
        if new == colors:
            return tuple(colors)
        colors = new


def canonical_key(adj: tuple[int, ...], k: int) -> tuple[int, int]:
    """Minimal upper-triangle adjacency bitstring over colored orderings."""
    colors = _refine_colors(adj, k)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    groups = [classes[c] for c in sorted(classes)]
    best = None
    for perm_parts in _group_orderings(groups):
        order = [v for part in perm_parts for v in part]
        code = 0
        bit = 0
        for i in range(k):
            ai = adj[order[i]]
            for j in range(i + 1, k):
                if ai >> order[j] & 1:
                    code |= 1 << bit
                bit += 1
        if best is None or code < best:
            best = code
    return (k, best if best is not None else 0)


def _group_orderings(groups: list[list[int]]):
    if not groups:
        yield []
        return
    head, *rest = groups
    for perm in permutations(head):
        for tail in _group_orderings(rest):
            yield [list(perm)] + tail


def graphs_up_to_iso(max_n: int) -> dict[int, list[tuple[int, ...]]]:
    """The generator loop as it stood, deduplicating by canonical_key."""
    levels: dict[int, list[tuple[int, ...]]] = {1: [(0,)]}
    for k in range(2, max_n + 1):
        seen: dict[tuple[int, int], tuple[int, ...]] = {}
        for base in levels[k - 1]:
            for nb in range(1 << (k - 1)):
                adj = list(base) + [nb]
                rest = nb
                while rest:
                    low = rest & -rest
                    adj[low.bit_length() - 1] |= 1 << (k - 1)
                    rest ^= low
                tup = tuple(adj)
                key = canonical_key(tup, k)
                if key not in seen:
                    seen[key] = tup
        levels[k] = sorted(seen.values())
    return levels
