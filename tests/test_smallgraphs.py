"""The corpus generator against its former canonical-form dedupe, its
isomorphism test on graphs that the bucket invariant cannot tell apart and
against its former recursive form, the signatures it derives for each
candidate against a full recount, and the automorphism generators and
neighbourhood orbits that prune it."""

import ast
import itertools
import math
import random
from pathlib import Path

import pytest

from matchiso import graph_from_edges, smallgraphs
from matchiso.smallgraphs import (
    _automorphism_generators,
    _extended_signatures,
    _isomorphic,
    _orbit_minima,
    _signature_steps,
    _signatures,
    connected_graphs,
    graphs_up_to_iso,
)

import reference_smallgraphs as reference
from conftest import complete_graph, cycle_graph, path_graph

ALL_GRAPH_COUNTS = [1, 2, 4, 11, 34, 156, 1044]


def adjacency(g) -> tuple[int, ...]:
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return tuple(adj)


def relabel(adj: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    """The graph with vertex v renamed perm[v]."""
    out = [0] * len(adj)
    for v, row in enumerate(adj):
        for u in range(len(adj)):
            if row >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return tuple(out)


def signatures(adj: tuple[int, ...]) -> list[int]:
    """The signatures at the field width graphs_up_to_iso(len(adj)) packs with."""
    return _signatures(adj, len(adj).bit_length())


def bucket_key(adj: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(signatures(adj)))


def isomorphic(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    k = len(a)
    return _isomorphic(a, signatures(a), b, signatures(b), k) is not None


def generators(adj: tuple[int, ...]) -> list[list[int]]:
    return _automorphism_generators(adj, signatures(adj), len(adj))


def attach(base: tuple[int, ...], nb: int) -> tuple[int, ...]:
    """base with a new last vertex joined to the vertex mask nb."""
    k = len(base)
    return tuple(row | (nb >> v & 1) << k for v, row in enumerate(base)) + (nb,)


def group_order(gens: list[list[int]], k: int) -> int:
    """The order of the permutation group that gens generate, by closure."""
    identity = tuple(range(k))
    group, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[p[v]] for v in range(k))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return len(group)


def permute_mask(perm, x: int) -> int:
    return sum(1 << perm[v] for v in range(len(perm)) if x >> v & 1)


K33_EDGES = [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]
RIGID_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (4, 6)]  # the least asymmetric graphs have 6 vertices


def disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return graph_from_edges(offset, edges)


@pytest.fixture(scope="module")
def oracle7():
    return reference.graphs_up_to_iso(7)


@pytest.mark.parametrize("k", range(1, 8))
def test_matches_canonical_form_dedupe(oracle7, k):
    assert graphs_up_to_iso(k) == {j: oracle7[j] for j in range(1, k + 1)}


def test_all_graph_counts():
    levels = graphs_up_to_iso(7)
    assert [len(levels[k]) for k in range(1, 8)] == ALL_GRAPH_COUNTS


@pytest.mark.parametrize("max_n", [0, -3])
def test_no_vertices_no_graphs(max_n):
    assert graphs_up_to_iso(max_n) == {}
    assert connected_graphs(max_n) == []


def test_c6_and_two_triangles_stay_apart():
    c6, two_k3 = adjacency(cycle_graph(6)), adjacency(disjoint_union(cycle_graph(3), cycle_graph(3)))
    assert bucket_key(c6) == bucket_key(two_k3)
    assert not isomorphic(c6, two_k3) and not isomorphic(two_k3, c6)
    assert reference.canonical_key(c6, 6) != reference.canonical_key(two_k3, 6)


def test_k33_and_prism_stay_apart(prism):
    k33 = adjacency(graph_from_edges(6, K33_EDGES))
    prism = adjacency(prism)
    assert bucket_key(k33) == bucket_key(prism)
    assert not isomorphic(k33, prism) and not isomorphic(prism, k33)
    assert reference.canonical_key(k33, 6) != reference.canonical_key(prism, 6)


def test_cubic_graphs_on_eight_vertices_stay_apart(cube):
    """Every connected cubic graph on 8 vertices is an 8-cycle plus a perfect
    matching of chords; with 2·K4 they make six classes in one bucket."""
    ring = cycle_graph(8).edges
    chords = [uv for uv in itertools.combinations(range(1, 9), 2) if uv not in ring]
    candidates = [adjacency(cube), adjacency(disjoint_union(complete_graph(4), complete_graph(4)))]
    for four in itertools.combinations(chords, 4):
        if len({v for uv in four for v in uv}) == 8:
            candidates.append(adjacency(graph_from_edges(8, ring + four)))
    assert len({bucket_key(adj) for adj in candidates}) == 1
    classes: list[tuple[int, ...]] = []
    for adj in candidates:
        if not any(isomorphic(adj, rep) for rep in classes):
            classes.append(adj)
    assert len(classes) == 6  # the five connected cubic graphs, and 2·K4
    assert classes[0] == adjacency(cube)
    assert len({reference.canonical_key(adj, 8) for adj in classes}) == 6
    for a, b in itertools.permutations(classes, 2):
        assert not isomorphic(a, b)


def test_random_relabellings_are_isomorphic():
    rng = random.Random(8)
    for _ in range(200):
        adj = [0] * 8
        for u, v in itertools.combinations(range(8), 2):
            if rng.random() < rng.choice((0.2, 0.5, 0.8)):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        perm = list(range(8))
        rng.shuffle(perm)
        a, b = tuple(adj), relabel(tuple(adj), perm)
        assert bucket_key(a) == bucket_key(b)
        assert isomorphic(a, b) and isomorphic(b, a)


def test_bucket_key_is_finer_than_degrees():
    """A path on five vertices and a triangle beside an edge have the same
    degree sequence but different neighbour degrees."""
    p5 = adjacency(graph_from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
    k3_k2 = adjacency(graph_from_edges(5, [(1, 2), (2, 3), (1, 3), (4, 5)]))
    assert sorted(a.bit_count() for a in p5) == sorted(a.bit_count() for a in k3_k2)
    assert bucket_key(p5) != bucket_key(k3_k2)


def test_isomorphism_respects_the_given_colours():
    """The search maps a vertex only onto one of the same colour, even when
    an isomorphism that ignores the colours exists."""
    p3 = adjacency(graph_from_edges(3, [(1, 2), (2, 3)]))
    assert _isomorphic(p3, [0, 1, 0], p3, [0, 1, 0], 3)
    assert not _isomorphic(p3, [0, 1, 0], p3, [1, 0, 0], 3)
    for sb in ([0, 1, 0], [1, 0, 0]):
        assert _isomorphic(p3, [0, 1, 0], p3, sb, 3) == reference.isomorphism(p3, [0, 1, 0], p3, sb, 3)


def test_search_matches_the_recursive_oracle_on_every_corpus_call(monkeypatch, oracle7):
    """Every search that graphs_up_to_iso(7) runs, for the buckets and for
    the automorphism generators, returns the recursive oracle's image."""
    calls = []

    def recording(a, sa, b, sb, k):
        image = _isomorphic(a, sa, b, sb, k)
        calls.append((a, sa, b, sb, k, image))
        return image

    monkeypatch.setattr(smallgraphs, "_isomorphic", recording)
    assert graphs_up_to_iso(7) == oracle7
    assert len(calls) > 5000
    assert any(image is None for *_, image in calls) and any(image for *_, image in calls)
    for a, sa, b, sb, k, image in calls:
        assert image == reference.isomorphism(a, sa, b, sb, k), (a, sa, b, sb)
        if min(sa) >= 0:  # a bucket search, not a recoloured automorphism search
            assert sa == _signatures(a, 3) and sb == _signatures(b, 3)


def test_search_matches_the_recursive_oracle_on_random_relabellings(oracle7):
    """Seeded relabellings of graphs on 6 and 7 vertices, onto either the
    same graph or another one with the same signature multiset."""
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for k in (6, 7):
        for adj in oracle7[k]:
            buckets.setdefault(bucket_key(adj), []).append(adj)
    shared = [b for b in buckets.values() if len(b) > 1]
    rng = random.Random(27)
    found = {True: 0, False: 0}
    for i in range(500):
        bucket = rng.choice(shared)
        a = rng.choice(bucket)
        b = a if i % 2 else rng.choice([adj for adj in bucket if adj != a])
        perm = list(range(len(a)))
        rng.shuffle(perm)
        b = relabel(b, perm)
        sa, sb = signatures(a), signatures(b)
        image = _isomorphic(a, sa, b, sb, len(a))
        assert image == reference.isomorphism(a, sa, b, sb, len(a)), (a, b)
        found[image is not None] += 1
    assert found[True] == 250 and found[False] == 250


def test_generators_match_under_the_recursive_oracle(monkeypatch):
    graphs = [adj for level in graphs_up_to_iso(6).values() for adj in level]
    gens = [generators(adj) for adj in graphs]
    monkeypatch.setattr(smallgraphs, "_isomorphic", reference.isomorphism)
    assert [generators(adj) for adj in graphs] == gens


@pytest.mark.parametrize("max_n", [7, 8])
def test_extended_signatures_match_a_full_recount(max_n):
    """On every candidate of levels 2..7, each orbit-minimum neighbourhood
    of each base, the derived signatures equal _signatures recomputed at
    the field width that graphs_up_to_iso(max_n) packs with."""
    width = max_n.bit_length()
    candidates = 0
    for base in (adj for level in graphs_up_to_iso(6).values() for adj in level):
        sigs = _signatures(base, width)
        lift, delta = _signature_steps(base, width)
        for nb in _orbit_minima(generators(base), len(base)):
            derived = _extended_signatures(base, sigs, lift, delta, nb, width)
            assert derived == _signatures(attach(base, nb), width), (base, nb)
            candidates += 1
    assert candidates > 1000


def fields(sig: int, width: int, count: int) -> list[int]:
    """The first count fields of a packed signature; nothing is above them."""
    assert sig >> count * width == 0
    return [sig >> i * width & ((1 << width) - 1) for i in range(count)]


@pytest.mark.parametrize("max_n, width", [(7, 3), (8, 4), (15, 4), (16, 5)])
def test_signature_fields_do_not_carry(max_n, width):
    """A degree of max_n - 1 and a neighbour count of max_n - 1, the largest
    on max_n vertices, each stay in their own field, both when counted and
    when derived: the star and the complete graph on max_n vertices, each
    made by attaching its last vertex to everything."""
    assert max_n.bit_length() == width
    top, count = max_n - 1, max_n + 1
    for base, centre, other in [
        ((0,) * top, [top, 0, top] + [0] * (count - 3), [1] + [0] * (count - 2) + [1]),
        (adjacency(complete_graph(top)), [top] + [0] * (count - 2) + [top], [top] + [0] * (count - 2) + [top]),
    ]:
        adj = attach(base, (1 << top) - 1)
        lift, delta = _signature_steps(base, width)
        for sigs in (_signatures(adj, width),
                     _extended_signatures(base, _signatures(base, width), lift, delta, (1 << top) - 1, width)):
            assert fields(sigs[top], width, count) == centre
            assert all(fields(sig, width, count) == other for sig in sigs[:top])


@pytest.mark.parametrize("name, order", [
    *[(f"K{k}", math.factorial(k)) for k in range(1, 7)],
    *[(f"C{k}", 2 * k) for k in range(3, 9)],
    ("cube", 48), ("petersen", 120), ("K3,3", 72), ("rigid", 1),
])
def test_generators_generate_the_automorphism_group(request, name, order):
    if name == "K3,3":
        g = graph_from_edges(6, K33_EDGES)
    elif name[0] == "K":
        g = complete_graph(int(name[1:]))
    elif name[0] == "C":
        g = cycle_graph(int(name[1:]))
    elif name == "rigid":
        g = graph_from_edges(6, RIGID_EDGES)
    else:
        g = request.getfixturevalue(name)
    adj = adjacency(g)
    gens = generators(adj)
    assert all(relabel(adj, perm) == adj for perm in gens)
    assert group_order(gens, g.n) == order
    assert (gens == []) == (order == 1)


def brute_force_orbit_minima(adj: tuple[int, ...]) -> list[int]:
    k = len(adj)
    automorphisms = [p for p in itertools.permutations(range(k)) if relabel(adj, list(p)) == adj]
    return [x for x in range(1 << k) if all(permute_mask(p, x) >= x for p in automorphisms)]


def test_kept_masks_are_the_orbit_minima(prism, k6, c6):
    bases = [adj for level in graphs_up_to_iso(5).values() for adj in level]
    bases += [adjacency(g) for g in (k6, graph_from_edges(6, K33_EDGES), prism, c6)]
    bases.append((0,) * 6)
    for adj in bases:
        assert _orbit_minima(generators(adj), len(adj)) == brute_force_orbit_minima(adj), adj


def test_orbit_minima_without_generators_keep_every_mask():
    assert _orbit_minima([], 4) == list(range(16))
    assert _orbit_minima(generators(adjacency(path_graph(3))), 3) == [0, 1, 2, 3, 5, 7]


def test_one_backtracking_search():
    """smallgraphs searches by backtracking in one place, the isomorphism
    test; the automorphism generators come from it, not from a second
    search or a walk over all permutations."""
    path = Path(__file__).resolve().parent.parent / "src" / "matchiso" / "smallgraphs.py"
    tree = ast.parse(path.read_text(), filename=path.name)
    recursive, callers = [], set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.FunctionDef):
                inner = (*scope, child.name)
                calls = {getattr(c.func, "id", None) for c in ast.walk(child) if isinstance(c, ast.Call)}
                if child.name in calls:
                    recursive.append(".".join(inner))
            elif isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_isomorphic":
                callers.add(scope[0])
            visit(child, inner)

    visit(tree, ())
    assert recursive == []
    assert callers == {"_automorphism_generators", "graphs_up_to_iso"}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not imported & {"itertools", "permutations"}
