"""The perfect-matching enumerator as it stood when matchings were
frozensets of edge ids, kept as a test-only differential oracle for the
edge-mask enumeration in matchiso.graphs."""

from matchiso.graphs import DEFAULT_SIZE_GUARD, Graph, SizeGuardExceeded


def enumerate_perfect_matchings(
    g: Graph, max_vertices: int = DEFAULT_SIZE_GUARD
) -> tuple[frozenset[int], ...]:
    """All perfect matchings as frozensets of edge ids, deterministically
    ordered (lexicographic on sorted edge-id tuples).  Empty iff none exist.
    """
    if g.n > max_vertices:
        raise SizeGuardExceeded(f"n={g.n} exceeds oracle guard {max_vertices}")
    if g.n % 2 == 1:
        return ()
    full = (1 << g.n) - 1
    by_vertex: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for j, em in enumerate(g.endpoint_masks):
        u, v = g.edges[j]
        by_vertex[u - 1].append((j + 1, em))
    out: list[tuple[int, ...]] = []

    def walk(covered: int, chosen: list[int]):
        if covered == full:
            out.append(tuple(chosen))
            return
        low = (~covered & full) & -(~covered & full)
        v_idx = low.bit_length() - 1
        for j, em in by_vertex[v_idx]:
            if covered & em:
                continue
            chosen.append(j)
            walk(covered | em, chosen)
            chosen.pop()

    walk(0, [])
    return tuple(frozenset(t) for t in sorted(out))
