"""The circuit census as first written, kept as a test-only differential
oracle: every anchor edge is walked in both orientations, where
bounded_circuit_vectors walks each anchor one way only, because a closed
alternating walk read backwards has the same vector and node-weight."""

from dense_vectors import canonical_sign
from matchiso.faces import ContractionMultigraph


def bounded_circuit_vectors(h: ContractionMultigraph, max_node_weight: int) -> tuple[tuple[int, ...], ...]:
    weights = h.node_weights
    adj = h.adjacency
    results: set[tuple[int, ...]] = set()
    vec = [0] * h.m

    def dfs(anchor: int, start: int, cur: int, pos: int, used: int):
        sign = 1 if pos % 2 == 0 else -1
        can_close = pos % 2 == 1
        for eid, nxt in adj[cur]:
            if eid < anchor:
                continue
            idx = eid - 1
            vec[idx] += sign
            if can_close and nxt == start and any(vec):
                results.add(canonical_sign(vec))
            nu = used + weights[nxt]
            if nu <= max_node_weight:
                dfs(anchor, start, nxt, pos + 1, nu)
            vec[idx] -= sign

    for a, b, eid in h.edges:
        for start, nxt in ((a, b), (b, a)):
            used = weights[start] + weights[nxt]
            if used <= max_node_weight:
                vec[eid - 1] += 1
                dfs(eid, start, nxt, 1, used)
                vec[eid - 1] -= 1
    return tuple(sorted(results))
