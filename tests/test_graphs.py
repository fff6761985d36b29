import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchiso import (
    Graph,
    ParseError,
    SizeGuardExceeded,
    enumerate_perfect_matchings,
    graph_from_edges,
    is_perfect_matching,
    min_weight_perfect_matching,
    parse_graph,
)

from matchiso.graphs import EdgeVector, bit_positions, dense_sorted, edge_mask
from matchiso.smallgraphs import connected_graphs

from conftest import random_graph, vertex_mask
from dense_vectors import to_dense, to_sparse
from reference_laminar import crossing
from reference_matchings import enumerate_perfect_matchings as frozenset_matchings

C4_TEXT = "4 4\n1 2\n2 3\n3 4\n4 1\n"


def test_parse_c4_lexicographic_ids():
    g = parse_graph(C4_TEXT)
    assert g.n == 4
    assert g.edges == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert g.edge_id(4, 1) == 2
    assert g.endpoints(3) == (2, 3)


def test_parse_four_vertex_five_edge_document():
    g = parse_graph("4 5\n1 2\n1 3\n1 4\n2 4\n3 4\n")
    assert g.m == 5
    assert g.edges == ((1, 2), (1, 3), (1, 4), (2, 4), (3, 4))


def test_parse_comments_and_blanks():
    g = parse_graph("# a square\n\n4 4\n# edges follow\n1 2\n2 3\n3 4\n4 1\n")
    assert g.m == 4


@pytest.mark.parametrize(
    "text,kind",
    [
        ("2 1\n1 1\n", "self-loop"),
        ("3 2\n1 2\n2 1\n", "duplicate-edge"),
        ("3 1\n1 4\n", "vertex-range"),
        ("3 1\n1\n", "malformed"),
        ("3 2\n1 2\n", "malformed"),
        ("nope\n1 2\n", "malformed"),
        ("", "malformed"),
    ],
)
def test_parse_errors_are_distinct(text, kind):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.kind == kind


# Near-valid documents: short lines of small, negative, huge or malformed
# numbers, comments and blanks, so the fuzz reaches every check.
_TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["#", "# note", "x", "1.5", "0x3", "+4", "1_0", "\u0663", "9" * 30]),
)
_DOCUMENTS = st.lists(st.lists(_TOKENS, max_size=3).map(" ".join), max_size=12).map("\n".join)


@given(st.one_of(st.text(max_size=200), _DOCUMENTS))
def test_parse_graph_raises_only_parse_error(text):
    try:
        g = parse_graph(text)
    except ParseError:
        return
    assert g.n >= 1 and all(1 <= u < v <= g.n for u, v in g.edges)


@given(st.integers(2, 8), st.data())
def test_edge_indexing_is_permutation_invariant(n, data):
    import itertools

    all_pairs = list(itertools.combinations(range(1, n + 1), 2))
    pairs = data.draw(st.lists(st.sampled_from(all_pairs), unique=True, min_size=1))
    shuffled = data.draw(st.permutations(pairs))
    flipped = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in shuffled]
    assert graph_from_edges(n, pairs) == graph_from_edges(n, flipped)


def test_cut_and_interior_c4():
    g = parse_graph(C4_TEXT)

    def cut_and_interior(s):
        sm = vertex_mask(s)
        return bit_positions(g.delta_mask(sm)), bit_positions(g.interior_mask(sm))

    # delta({1,2,3}) = {(1,4),(3,4)} = ids {2,4}; interior {(1,2),(2,3)} = {1,3}.
    assert cut_and_interior({1, 2, 3}) == ((2, 4), (1, 3))
    assert cut_and_interior(set()) == ((), ())
    assert cut_and_interior({1, 2, 3, 4}) == ((), (1, 2, 3, 4))


@given(st.integers(2, 8), st.data())
def test_cut_size_identity(n, data):
    import itertools

    all_pairs = list(itertools.combinations(range(1, n + 1), 2))
    pairs = data.draw(st.lists(st.sampled_from(all_pairs), unique=True))
    g = graph_from_edges(n, pairs)
    s = data.draw(st.sets(st.integers(1, n)))
    sm = vertex_mask(s)
    cut, interior = g.delta_mask(sm), g.interior_mask(sm)
    assert not cut & interior
    degree_sum = sum(1 for u, v in g.edges for x in (u, v) if x in s)
    assert cut.bit_count() + 2 * interior.bit_count() == degree_sum


def test_enumerate_perfect_matchings_c4(c4):
    assert enumerate_perfect_matchings(c4) == (edge_mask({1, 4}), edge_mask({2, 3}))


def test_enumerate_perfect_matchings_k4(k4):
    pms = enumerate_perfect_matchings(k4)
    assert len(pms) == 3
    # K4 ids: (1,2)=1 (1,3)=2 (1,4)=3 (2,3)=4 (2,4)=5 (3,4)=6.
    assert set(pms) == {edge_mask({1, 6}), edge_mask({2, 5}), edge_mask({3, 4})}


def test_enumerate_perfect_matchings_odd(triangle):
    assert enumerate_perfect_matchings(triangle) == ()


def test_size_guard():
    g = graph_from_edges(18, [(i, i + 1) for i in range(1, 18)])
    with pytest.raises(SizeGuardExceeded):
        enumerate_perfect_matchings(g)


def test_is_perfect_matching_c4(c4):
    assert is_perfect_matching(c4, edge_mask({1, 4}))
    assert not is_perfect_matching(c4, edge_mask({1, 3}))  # share vertex 2
    assert not is_perfect_matching(c4, edge_mask({1}))  # leaves 3, 4 uncovered
    with pytest.raises(ValueError):
        is_perfect_matching(c4, edge_mask({9}))


@pytest.mark.parametrize("mask", [-1, -8, 1 << 4])  # C4 has 4 edges
def test_is_perfect_matching_rejects_masks_outside_the_edges(c4, mask):
    with pytest.raises(ValueError):
        is_perfect_matching(c4, mask)


@pytest.mark.parametrize("mask", [-1, -8])
def test_bit_helpers_reject_negative_masks(c4, mask):
    """A negative int has infinitely many set bits: each helper raises
    rather than loop."""
    for helper in (bit_positions, c4.delta_mask, c4.interior_mask):
        with pytest.raises(ValueError):
            helper(mask)


def test_enumeration_matches_the_frozenset_oracle():
    """Same matchings in the same order as the frozenset enumerator, on
    every connected graph up to 6 vertices with a perfect matching and on
    50 seeded random graphs up to 12 vertices."""
    rng = random.Random(12)
    corpus = [g for g in connected_graphs(6) if frozenset_matchings(g)]
    draws = [random_graph(rng.randint(2, 12), rng.uniform(0.3, 0.9), rng) for _ in range(50)]
    for g in corpus + draws:
        assert enumerate_perfect_matchings(g) == tuple(edge_mask(mm) for mm in frozenset_matchings(g))


@given(st.integers(2, 9), st.data())
def test_enumeration_consistency(n, data):
    import itertools

    all_pairs = list(itertools.combinations(range(1, n + 1), 2))
    pairs = data.draw(st.lists(st.sampled_from(all_pairs), unique=True))
    g = graph_from_edges(n, pairs)
    pms = enumerate_perfect_matchings(g)
    if n % 2 == 1:
        assert pms == ()
    assert len(set(pms)) == len(pms)
    for mm in pms:
        assert is_perfect_matching(g, mm)


def test_crossing_on_masks_matches_set_definition():
    rng = random.Random(11)
    for _ in range(3000):
        n = rng.randint(1, 12)
        s, t = (frozenset(v for v in range(1, n + 1) if rng.random() < 0.5) for _ in range(2))
        expected = bool(s & t) and bool(s - t) and bool(t - s)
        assert crossing(vertex_mask(s), vertex_mask(t)) == expected
        assert crossing(s, t) == expected


def test_seeded_random_graph_roundtrip():
    rng = random.Random(7)
    pairs = [(u, v) for u in range(1, 7) for v in range(u + 1, 7) if rng.random() < 0.5]
    g = graph_from_edges(6, pairs)
    text = f"{g.n} {g.m}\n" + "\n".join(f"{u} {v}" for u, v in g.edges)
    assert parse_graph(text) == g


def test_min_weight_perfect_matching_small_cases(c4, k4, triangle, star):
    assert min_weight_perfect_matching(c4, (1, 1, 1, 2)) == edge_mask({2, 3})
    assert min_weight_perfect_matching(k4, (5, 5, 1, 1, 5, 5)) == edge_mask({3, 4})
    assert min_weight_perfect_matching(triangle, (1, 1, 1)) is None
    assert min_weight_perfect_matching(star, (1, 1, 1)) is None
    assert min_weight_perfect_matching(graph_from_edges(4, []), ()) is None
    with pytest.raises(ValueError):
        min_weight_perfect_matching(c4, (1, 1, 1))


def test_min_weight_perfect_matching_seeded_sweep():
    """Against enumeration, with blossom shrinking and expansion on dense
    graphs with many ties."""
    rng = random.Random(31)
    for _ in range(400):
        n = rng.choice([3, 4, 6, 8, 10, 12])
        g = random_graph(n, rng.uniform(0.2, 1.0), rng)
        values = tuple(rng.randint(0, rng.choice([1, 4, 50])) for _ in range(g.m))
        got = min_weight_perfect_matching(g, values)
        pms = enumerate_perfect_matchings(g)
        if not pms:
            assert got is None
            continue
        best = min(sum(values[j - 1] for j in bit_positions(mm)) for mm in pms)
        assert is_perfect_matching(g, got) and sum(values[j - 1] for j in bit_positions(got)) == best


@given(st.integers(1, 8).flatmap(lambda m: st.lists(st.tuples(*[st.integers(-3, 3)] * m), max_size=12)))
def test_dense_sorted_is_the_order_of_the_dense_tuples(vectors):
    """Sorting the sparse vectors gives the order in which their dense
    m-tuples sort, so a census keeps the witness it had as m-tuples."""
    m = len(vectors[0]) if vectors else 3
    got = dense_sorted([to_sparse(vec) for vec in vectors], m)
    assert [to_dense(v, m) for v in got] == sorted(vectors)


def test_edge_vector_forms():
    v = EdgeVector.of({5: 2, 2: 0, 3: -1})  # canonical: negated, so edge 3 reads +1
    assert v == EdgeVector(0b10100, (1, -2)) and list(v.items()) == [(3, 1), (5, -2)]
    v.check(5)
    for bad, m in ((v, 4), (EdgeVector(0b11, (1,)), 2), (EdgeVector(0b1, (0,)), 2)):
        with pytest.raises(ValueError):
            bad.check(m)
