import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchiso import (
    ContractionMultigraph,
    Face,
    LaminarFamily,
    WeightFunction,
    bounded_circuit_vectors,
    contract_face,
    enumerate_perfect_matchings,
    extend_to_maximal_laminar,
    family_member,
    goodness_check,
    graph_from_edges,
    is_contractible,
    lift_contracted_vector,
    min_weight_subface,
    perfect_matching_face,
    respects_face,
    tight_odd_sets,
)
from matchiso.faces import forcing_groups, singletons
from matchiso.graphs import bit_positions, edge_mask
from matchiso.weights import random_weights

import reference_census
from dense_vectors import canonical_sign, dense_all, to_dense, to_sparse
from conftest import complete_graph, random_graph_with_pm, vertex_mask
from reference_uncrossing import is_tight, laminar_spans_tight_cuts, uncross_pair

f = edge_mask  # a matching: the mask of its edge ids
v = vertex_mask  # a vertex set: the mask of its labels


def tight_sets_oracle(face):
    """Independent implementation: explicit subsets and crossing counts;
    the masks of the tight sets in (size, lexicographic) order."""
    g = face.g
    out = []
    for size in range(1, g.n + 1, 2):
        for s in itertools.combinations(range(1, g.n + 1), size):
            ss = set(s)
            ok = True
            for mm in face.matchings:
                crossing = sum(
                    1 for j in bit_positions(mm) if len(ss & set(g.endpoints(j))) == 1
                )
                if crossing != 1:
                    ok = False
                    break
            if ok:
                out.append(s)
    return [v(s) for s in sorted(out, key=lambda x: (len(x), x))]


@pytest.fixture
def prism_one_connector_face(prism):
    # Subface of the prism whose matchings use exactly one connector edge;
    # both triangles are tight for it.
    w = WeightFunction(6, (0, 0, 1, 0, 1, 1, 0, 0, 0))
    face = min_weight_subface(perfect_matching_face(prism), w)
    assert len(face) == 3
    return face


def test_face_canonicalization_and_nonempty(c4):
    face = Face(c4, (f({2, 3}), f({1, 4}), f({2, 3})))
    assert face.matchings == (f({1, 4}), f({2, 3}))
    with pytest.raises(ValueError):
        Face(c4, ())


def test_face_orders_masks_lexicographically_on_edge_ids(k6):
    rng = random.Random(5)
    masks = list(enumerate_perfect_matchings(k6))
    shuffled = masks + rng.sample(masks, 7)
    rng.shuffle(shuffled)
    assert Face(k6, tuple(shuffled)).matchings == tuple(sorted(set(shuffled), key=bit_positions))


def test_face_rejects_masks_of_unequal_size(c4):
    """Every matching of a face has n/2 edges, so masks of one wrong size
    are refused as well."""
    for masks in [(f({1, 4}), f({2})), (f({1}), f({4})), (f({1, 2, 3}),)]:
        with pytest.raises(ValueError, match="n/2 edges"):
            Face(c4, masks)


@pytest.mark.parametrize("masks", [
    (f({1, 4}), f({2, 5})),  # edge 5 of a 4-edge graph
    (f({4, 5}),),
    (f({2}) | 1 << 70,),  # edge 71
    (-f({1, 4}),),
], ids=["second-mask", "only-mask", "far-above", "negative"])
def test_face_refuses_edges_outside_the_graph(c4, masks):
    with pytest.raises(ValueError, match="outside 1..4"):
        Face(c4, masks)


def test_face_refuses_masks_that_are_not_perfect_matchings(c4):
    """Edges (1,2) and (1,4) are n/2 = 2 edges inside 1..4, but both meet
    vertex 1, so they form no perfect matching, alone or beside one."""
    for masks in [(0b0011,), (f({1, 4}), f({1, 2}))]:
        with pytest.raises(ValueError, match="perfect matching"):
            Face(c4, masks)


def test_perfect_matching_face(c4, triangle):
    face = perfect_matching_face(c4)
    assert face.matchings == (f({1, 4}), f({2, 3}))
    with pytest.raises(ValueError):
        perfect_matching_face(triangle)


def test_min_weight_subface(c4, k4):
    face = perfect_matching_face(c4)
    sub = min_weight_subface(face, WeightFunction(4, (1, 1, 1, 2)))
    assert sub.matchings == (f({2, 3}),)
    unchanged = min_weight_subface(face, WeightFunction(4, (0, 0, 0, 0)))
    assert unchanged.matchings == face.matchings
    # A strict order on the three matchings of K4 leaves a singleton:
    # weights 33, 18, 12 for {1,6}, {2,5}, {3,4}.
    sub_k4 = min_weight_subface(perfect_matching_face(k4), WeightFunction(4, (1, 2, 4, 8, 16, 32)))
    assert sub_k4.matchings == (f({3, 4}),)


def test_min_weight_subface_refuses_another_edge_count(c4):
    face = perfect_matching_face(c4)
    for values in ((1, 1, 2), (1, 1, 1, 2, 1)):
        with pytest.raises(ValueError, match="graph with 4 edges"):
            min_weight_subface(face, WeightFunction(4, values))


def test_noop_minimization_returns_the_same_face(k4):
    face = perfect_matching_face(k4)
    tight = tight_odd_sets(face)
    # Every perfect matching of K4 has two edges, so unit weights tie them.
    same = min_weight_subface(face, WeightFunction(4, (1,) * 6))
    assert same is face
    assert tight_odd_sets(same) is tight


def test_cutting_minimization_returns_a_new_face(prism):
    face = perfect_matching_face(prism)
    tight = tight_odd_sets(face)
    # Weight on edge 7 = (4, 5) cuts the one matching that uses it.
    sub = min_weight_subface(face, WeightFunction(6, (0, 0, 0, 0, 0, 0, 1, 0, 0)))
    assert sub is not face and len(sub) == len(face) - 1
    # The subface walks its own tight sets, not the parent's.
    assert set(tight) < set(tight_odd_sets(sub))
    assert list(tight_odd_sets(sub)) == tight_sets_oracle(sub)


def test_cutting_subface_takes_the_parent_masks():
    """A subface holds its parent's edge masks that attain the minimum, in
    the parent's order.  Draws as in criterion 8, with chains of
    minimizations under random weights and small family members."""
    rng = random.Random(808)
    cutting = 0
    for _ in range(200):
        n = rng.choice([4, 6, 8])
        g = random_graph_with_pm(n, rng.uniform(0.2, 0.8), rng)
        face = perfect_matching_face(g)
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                w = random_weights(g, rng.randrange(1 << 30))
            else:
                w = family_member(rng.randint(2, 5), g.n, g.m)
            sub = min_weight_subface(face, w)
            if sub is not face:
                cutting += 1
            totals = [w.matching_weight(mm) for mm in face.matchings]
            best = min(totals)
            assert sub.matchings == tuple(mm for mm, t in zip(face.matchings, totals) if t == best)
            face = sub
    assert cutting >= 100


def test_tight_sets_are_memoized_per_graph(c6):
    # The same edge ids on the relabelled 6-cycle 1-2-5-6-4-3-1: two faces
    # with the same masks, two graphs, two families of tight sets.
    other = graph_from_edges(6, [(1, 2), (1, 3), (2, 5), (3, 4), (4, 6), (5, 6)])
    face, twin = perfect_matching_face(c6), perfect_matching_face(other)
    assert face.matchings == twin.matchings
    assert tight_odd_sets(face) != tight_odd_sets(twin)
    for x in (face, twin, face):
        assert list(tight_odd_sets(x)) == tight_sets_oracle(x)
        assert tight_odd_sets(x) is tight_odd_sets(x)


def test_face_support(c4):
    face = perfect_matching_face(c4)
    assert face.support_mask == edge_mask({1, 2, 3, 4})
    assert Face(c4, (f({2, 3}),)).support_mask == edge_mask({2, 3})


def test_face_support_five_edge_document(fig_four_vertex):
    # Matchings are {(1,2),(3,4)} and {(1,3),(2,4)}; edge (1,4) = id 3 sits
    # in no perfect matching, so the support excludes it.
    face = perfect_matching_face(fig_four_vertex)
    assert face.matchings == (f({1, 5}), f({2, 4}))
    assert face.support_mask == edge_mask({1, 2, 4, 5})


def test_tight_odd_sets_c4(c4):
    face = perfect_matching_face(c4)
    got = tight_odd_sets(face)
    assert list(got) == tight_sets_oracle(face)
    assert set(got) == {
        v({1}), v({2}), v({3}), v({4}),
        v({1, 2, 3}), v({1, 2, 4}), v({1, 3, 4}), v({2, 3, 4}),
    }


def test_tight_odd_sets_k4(k4):
    face = perfect_matching_face(k4)
    got = tight_odd_sets(face)
    assert list(got) == tight_sets_oracle(face)
    assert len(got) == 8


def test_tight_odd_sets_prism_full_face(prism):
    # The all-connectors matching crosses each triangle three times, so the
    # triangles are not tight for the full face; only singletons and their
    # complements are.
    face = perfect_matching_face(prism)
    got = tight_odd_sets(face)
    assert list(got) == tight_sets_oracle(face)
    assert v({1, 2, 3}) not in got
    assert len(got) == 12


def test_tight_odd_sets_one_connector_face(prism, prism_one_connector_face):
    got = tight_odd_sets(prism_one_connector_face)
    assert v({1, 2, 3}) in got and v({4, 5, 6}) in got
    assert list(got) == tight_sets_oracle(prism_one_connector_face)


@given(st.integers(2, 7), st.data())
@settings(max_examples=30)
def test_tight_odd_sets_match_oracle(n, data):
    all_pairs = list(itertools.combinations(range(1, n + 1), 2))
    pairs = data.draw(st.lists(st.sampled_from(all_pairs), unique=True, min_size=1))
    g = graph_from_edges(n, pairs)
    if not enumerate_perfect_matchings(g):
        return
    face = perfect_matching_face(g)
    assert list(tight_odd_sets(face)) == tight_sets_oracle(face)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_gray_code_tight_sets_match_oracle_on_larger_graphs(n):
    """The Gray-code walk against explicit subsets, on seeded graphs above
    the hypothesis range and on a min-weight subface of each."""
    rng = random.Random(n)
    for _ in range(3):
        g = random_graph_with_pm(n, 0.35, rng)
        whole = perfect_matching_face(g)
        # A small family member ties many matchings, so the subface is rarely a point.
        for face in (whole, min_weight_subface(whole, family_member(rng.randint(2, 4), g.n, g.m))):
            assert list(tight_odd_sets(face)) == tight_sets_oracle(face)


def test_mask_tightness_matches_oracle_on_every_set():
    rng = random.Random(8)
    g = random_graph_with_pm(8, 0.4, rng)
    whole = perfect_matching_face(g)
    for face in (whole, min_weight_subface(whole, random_weights(g, 3))):
        tight = set(tight_sets_oracle(face))
        for size in range(1, 9):
            for s in itertools.combinations(range(1, 9), size):
                assert is_tight(face, v(s)) == (v(s) in tight)


def test_extend_to_maximal_laminar_c4(c4):
    face = perfect_matching_face(c4)
    base = singletons(4)
    fam = extend_to_maximal_laminar(base, tight_odd_sets(face))
    # Any two distinct 3-subsets of a 4-set cross, so exactly one triple
    # joins, and the (size, lexicographic) order picks {1,2,3}.
    assert fam.masks == (v({1}), v({2}), v({3}), v({4}), v({1, 2, 3}))
    assert extend_to_maximal_laminar(fam, fam.masks).masks == fam.masks


def test_extend_requires_candidates_superset(c4):
    base = singletons(4)
    with pytest.raises(ValueError):
        extend_to_maximal_laminar(base, [v({1, 2, 3})])


def test_laminar_family_validation():
    with pytest.raises(ValueError):
        LaminarFamily(3, (v({1}), v({2})))  # singleton {3} missing
    with pytest.raises(ValueError):
        LaminarFamily(2, (v({1}), v({2}), v({1, 2})))  # even member
    with pytest.raises(ValueError):
        LaminarFamily(
            4,
            (v({1}), v({2}), v({3}), v({4}), v({1, 2, 3}), v({2, 3, 4})),
        )  # crossing members


def test_span_equality_c4_and_k4(c4, k4):
    for g in (c4, k4):
        face = perfect_matching_face(g)
        fam = extend_to_maximal_laminar(singletons(4), tight_odd_sets(face))
        assert laminar_spans_tight_cuts(face, fam)


def test_span_equality_requires_maximal(c4):
    face = perfect_matching_face(c4)
    with pytest.raises(ValueError):
        laminar_spans_tight_cuts(face, singletons(4))


def test_uncross_even_intersection(c4):
    face = perfect_matching_face(c4)
    a, b, cert = uncross_pair(v({1, 2, 3}), v({2, 3, 4}), face)
    assert (a, b) == (v({1}), v({4}))
    assert not cert.odd_intersection
    assert cert.lhs_on_support == cert.rhs_on_support


def test_uncross_odd_intersection(c6):
    face = perfect_matching_face(c6)
    s, t = v({1, 2, 3}), v({3, 4, 5})
    a, b, cert = uncross_pair(s, t, face)
    assert (a, b) == (v({3}), v({1, 2, 3, 4, 5}))
    assert cert.odd_intersection
    assert cert.lhs_on_support == cert.rhs_on_support


def test_uncross_rejects_non_crossing(c4):
    face = perfect_matching_face(c4)
    with pytest.raises(ValueError):
        uncross_pair(v({1}), v({2}), face)  # disjoint
    with pytest.raises(ValueError):
        uncross_pair(v({1}), v({1, 2, 3}), face)  # nested
    with pytest.raises(ValueError):
        uncross_pair(v({1, 2}), v({2, 3, 4}), face)  # {1,2} not tight


@pytest.mark.parametrize(
    "s", [0, -1, 1 << 4, v({1, 2, 5})], ids=["zero", "negative", "one-shl-n", "bit-above-n"]
)
def test_out_of_range_vertex_masks_raise_value_error(c4, s):
    """Every public function taking a vertex mask from its caller refuses
    one that is not a nonempty set of the vertices 1..n."""
    face = perfect_matching_face(c4)
    calls = [
        lambda: is_tight(face, s),
        lambda: is_contractible(face, s),
        lambda: uncross_pair(s, v({2, 3, 4}), face),
        lambda: uncross_pair(v({1, 2, 3}), s, face),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="vertex mask"):
            call()
    with pytest.raises(ValueError, match="vertex mask"):
        LaminarFamily(4, singletons(4).masks + (s,))


def test_contractible_singletons_always(c4):
    face = perfect_matching_face(c4)
    for x in range(1, 5):
        assert is_contractible(face, v({x}))


def test_contractible_c4_triple(c4):
    face = perfect_matching_face(c4)
    assert is_contractible(face, v({1, 2, 3}))


def test_contractible_prism_triangle(prism, prism_one_connector_face):
    # Fixing the crossing connector forces the interior triangle edge.
    assert is_contractible(prism_one_connector_face, v({1, 2, 3}))
    assert is_contractible(prism_one_connector_face, v({4, 5, 6}))


def test_contractible_fails_on_k6_five_set(k6):
    face = perfect_matching_face(k6)
    # Matchings through a fixed boundary edge still differ inside {1..5}.
    assert not is_contractible(face, v({1, 2, 3, 4, 5}))


def test_contractible_requires_tight(prism):
    face = perfect_matching_face(prism)
    with pytest.raises(ValueError):
        is_contractible(face, v({1, 2, 3}))  # not tight for full face


def layer_oracle(face, hi, lo):
    g = face.g
    lo, hi = set(bit_positions(lo)), set(bit_positions(hi))
    u = hi - lo
    interior = [
        j for j in range(1, g.m + 1) if set(g.endpoints(j)) <= u
    ]
    lo_cut = [j for j in range(1, g.m + 1) if len(set(g.endpoints(j)) & lo) == 1]
    hi_cut = [j for j in range(1, g.m + 1) if len(set(g.endpoints(j)) & hi) == 1]
    for e_lo in lo_cut:
        for e_hi in hi_cut:
            inners = {
                frozenset(bit_positions(mm)) & frozenset(interior)
                for mm in face.matchings
                if e_lo in bit_positions(mm) and e_hi in bit_positions(mm)
            }
            if len(inners) > 1:
                return False
    return True


def test_layer_contractibility_matches_oracle(c6):
    chain_c6 = (v({3}), v({1, 2, 3}), v({1, 2, 3, 4, 5}))
    face = perfect_matching_face(c6)
    for lo, hi in itertools.combinations(chain_c6, 2):
        groups = forcing_groups(face, hi, lo)
        assert all(len(inners) == 1 for inners in groups.values()) == layer_oracle(face, hi, lo)


def test_contract_face_uncontracted(c4):
    face = perfect_matching_face(c4)
    h = contract_face(face, singletons(4), 1)
    assert h.nodes == (v({1}), v({2}), v({3}), v({4}))
    assert h.node_weights == (1, 1, 1, 1)
    assert [e for _, _, e in h.edges] == [1, 2, 3, 4]


def test_contract_face_prism_triangles(prism, prism_one_connector_face):
    fam = LaminarFamily(6, singletons(6).masks + (v({1, 2, 3}), v({4, 5, 6})))
    h = contract_face(prism_one_connector_face, fam, 3)
    assert h.nodes == (v({1, 2, 3}), v({4, 5, 6}))
    assert h.node_weights == (3, 3)
    # Surviving edges are exactly the three connectors (ids 3, 5, 6).
    assert [e for _, _, e in h.edges] == [3, 5, 6]
    assert all((a, b) == (0, 1) for a, b, _ in h.edges)


def test_contract_face_erases_large_boundaries(prism, prism_one_connector_face):
    fam = LaminarFamily(
        6, singletons(6).masks + (v({1, 2, 3}), v({1, 2, 3, 4, 5}))
    )
    h = contract_face(prism_one_connector_face, fam, 3)
    # {1,2,3} contracts; the 5-set boundary (edges at vertex 6) is erased;
    # the triangle interior disappears.  Edges left: (1,4)=3, (2,5)=5, (4,5)=7.
    assert h.nodes == (v({1, 2, 3}), v({4}), v({5}), v({6}))
    assert [e for _, _, e in h.edges] == [3, 5, 7]


def test_contract_face_rejects_untight_member(prism):
    face = perfect_matching_face(prism)
    fam = LaminarFamily(6, singletons(6).masks + (v({1, 2, 3}),))
    with pytest.raises(ValueError):
        contract_face(face, fam, 3)


def test_bounded_circuit_vectors_repeated_edge_walk():
    # Vertices 1..5 with edges (1,3)=1 (1,4)=2 (2,3)=3 (2,4)=4 (4,5)=5: the
    # walk 5,4,3,1,2,5 of node-weight 6 reuses edge 5 at positions 0 and
    # 5, which cancel, leaving -e1 +e2 +e3 -e4, the indicator of the
    # 4-cycle.  A back-and-forth walk cancels to zero and is no circuit.
    h = ContractionMultigraph(
        5,
        (v({1}), v({2}), v({3}), v({4}), v({5})),
        ((0, 2, 1), (0, 3, 2), (1, 2, 3), (1, 3, 4), (3, 4, 5)),
    )
    assert dense_all(bounded_circuit_vectors(h, 6), 5) == (canonical_sign((-1, 1, 1, -1, 0)),)
    assert bounded_circuit_vectors(h, 2) == set()


def test_bounded_circuit_vectors_c4(c4):
    face = perfect_matching_face(c4)
    h = contract_face(face, singletons(4), 1)
    assert dense_all(bounded_circuit_vectors(h, 4), 4) == ((1, -1, -1, 1),)
    assert bounded_circuit_vectors(h, 3) == set()


def test_bounded_circuit_vectors_single_edge():
    g = graph_from_edges(2, [(1, 2)])
    h = contract_face(perfect_matching_face(g), singletons(2), 1)
    assert bounded_circuit_vectors(h, 10) == set()


def test_bounded_circuit_vectors_parallel_pair(c4):
    face = perfect_matching_face(c4)
    fam = extend_to_maximal_laminar(singletons(4), tight_odd_sets(face))
    h = contract_face(face, fam, 4)
    assert h.node_weights == (3, 1)
    # Two parallel edges between the contracted triple and vertex 4; the
    # two-step circuit weighs 3 + 1 = 4.
    assert dense_all(bounded_circuit_vectors(h, 4), 4) == ((0, 1, 0, -1),)
    assert bounded_circuit_vectors(h, 3) == set()


@st.composite
def multigraphs(draw):
    """Contraction multigraphs with up to five nodes of one to three
    vertices each and up to eight edges, parallel edges allowed."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    nodes, low = [], 0
    for size in sizes:
        nodes.append(((1 << size) - 1) << low)
        low += size
    pairs = st.tuples(st.integers(0, len(nodes) - 1), st.integers(0, len(nodes) - 1)).filter(lambda ab: ab[0] != ab[1])
    drawn = draw(st.lists(pairs, min_size=1, max_size=8))
    edges = tuple((min(a, b), max(a, b), eid) for eid, (a, b) in enumerate(drawn, start=1))
    return ContractionMultigraph(len(edges), tuple(nodes), edges)


@given(multigraphs(), st.integers(1, 10))
def test_one_orientation_census_matches_both_orientations(h, bound):
    """Walking each anchor edge from its lower node finds what walking it
    both ways finds: a closed walk read backwards keeps its vector and its
    node-weight."""
    assert dense_all(bounded_circuit_vectors(h, bound), h.m) == reference_census.bounded_circuit_vectors(h, bound)


def test_respects_face_whole_graph(c4):
    face = perfect_matching_face(c4)
    cycle_vec = to_sparse((1, -1, -1, 1))
    assert respects_face(cycle_vec, face)
    assert respects_face(to_sparse((0, 0, 0, 0)), face)
    sub = min_weight_subface(face, WeightFunction(4, (1, 1, 1, 2)))
    assert not respects_face(cycle_vec, sub)  # support shrank
    assert not respects_face(to_sparse((1, 1, 0, 0)), face)  # singleton cut hit


def test_respects_face_contraction_context(prism, prism_one_connector_face):
    fam = LaminarFamily(6, singletons(6).masks + (v({1, 2, 3}), v({4, 5, 6})))
    h = contract_face(prism_one_connector_face, fam, 3)
    z = [0] * 9
    z[2], z[4] = 1, -1  # connectors (1,4) and (2,5)
    z = to_sparse(z)
    assert respects_face(z, prism_one_connector_face, contraction=h)
    # In whole-graph context the same vector violates singleton cuts.
    assert not respects_face(z, prism_one_connector_face)


def test_respect_is_monotone_under_subfaces(c4):
    face = perfect_matching_face(c4)
    sub = min_weight_subface(face, WeightFunction(4, (1, 1, 1, 2)))
    for vec in map(to_sparse, [(1, -1, -1, 1), (1, 0, 0, -1), (0, 1, -1, 0)]):
        if respects_face(vec, sub):
            assert respects_face(vec, face)


def test_lift_identity_on_singleton_nodes(c4):
    face = perfect_matching_face(c4)
    h = contract_face(face, singletons(4), 1)
    z = to_sparse((1, -1, -1, 1))
    assert lift_contracted_vector(z, face, h) == z


def test_lift_prism_inserts_forced_interiors(prism, prism_one_connector_face):
    fam = LaminarFamily(6, singletons(6).masks + (v({1, 2, 3}), v({4, 5, 6})))
    h = contract_face(prism_one_connector_face, fam, 3)
    z = [0] * 9
    z[2], z[4] = 1, -1  # +(1,4) -(2,5)
    y = to_dense(lift_contracted_vector(to_sparse(z), prism_one_connector_face, h), 9)
    # Forced interiors: +(2,3) -(1,3) in the first triangle, +(5,6) -(4,6)
    # in the second; ids (1,2)=1 (1,3)=2 (1,4)=3 (2,3)=4 (2,5)=5 (3,6)=6
    # (4,5)=7 (4,6)=8 (5,6)=9.  The lift is canonical: its first nonzero
    # coordinate, -1 at (1,3), is negated with all the others.
    assert y == canonical_sign((0, -1, 1, 1, -1, 0, 0, -1, 1))
    assert sum(abs(c) for c in y) <= 6 * sum(abs(c) for c in z)


def test_lift_rejects_unbalanced_vector(prism, prism_one_connector_face):
    fam = LaminarFamily(6, singletons(6).masks + (v({1, 2, 3}), v({4, 5, 6})))
    h = contract_face(prism_one_connector_face, fam, 3)
    z = [0] * 9
    z[2] = 1
    with pytest.raises(ValueError):
        lift_contracted_vector(to_sparse(z), prism_one_connector_face, h)


def test_lift_rejects_uncontractible_node(k6):
    face = perfect_matching_face(k6)
    fam = LaminarFamily(6, singletons(6).masks + (v({1, 2, 3, 4, 5}),))
    h = contract_face(face, fam, 5)
    z = [0] * 15
    # Edges (1,6) and (2,6) are ids 5 and 9 in K6's lexicographic order.
    assert k6.endpoints(5) == (1, 6) and k6.endpoints(9) == (2, 6)
    z[4], z[8] = 1, -1
    with pytest.raises(ValueError, match="contractibility"):
        lift_contracted_vector(to_sparse(z), face, h)


def test_goodness_initialization(c4):
    face = perfect_matching_face(c4)
    fam = extend_to_maximal_laminar(singletons(4), tight_odd_sets(face))
    assert goodness_check(face, fam, 1).ok


def test_goodness_detects_short_circuit(c4):
    face = perfect_matching_face(c4)
    fam = extend_to_maximal_laminar(singletons(4), tight_odd_sets(face))
    report = goodness_check(face, fam, 4)
    assert not report.ok
    assert report.failed == "circuit"
    assert to_dense(report.witness, 4) == (0, 1, 0, -1)


def test_goodness_detects_non_maximal_family(c4):
    face = perfect_matching_face(c4)
    report = goodness_check(face, singletons(4), 1)
    assert not report.ok
    assert report.failed == "maximality"
    assert report.witness == v({1, 2, 3})


def test_goodness_detects_uncontractible_member(k6):
    face = perfect_matching_face(k6)
    fam = extend_to_maximal_laminar(singletons(6), tight_odd_sets(face))
    assert v({1, 2, 3, 4, 5}) in fam.masks
    report = goodness_check(face, fam, 5)
    assert not report.ok
    assert report.failed == "contractibility"
    assert report.witness == v({1, 2, 3, 4, 5})


def test_goodness_singleton_face_at_full_threshold(c4):
    face = Face(c4, (f({1, 4}),))
    fam = extend_to_maximal_laminar(singletons(4), tight_odd_sets(face))
    report = goodness_check(face, fam, 2 * 4)
    assert report.ok
    assert len(face) == 1


def test_defining_weights_prefix_invariant(prism):
    # Every matching of a face weighs the same under each weight function
    # in the chain that produced it.
    face = perfect_matching_face(prism)
    defining = [random_weights(prism, seed) for seed in range(5)]
    for w in defining:
        face = min_weight_subface(face, w)
    for w in defining:
        totals = {w.matching_weight(mm) for mm in face.matchings}
        assert len(totals) == 1


def test_subface_monotonicity_properties(prism):
    face = perfect_matching_face(prism)
    for seed in range(6):
        sub = min_weight_subface(face, random_weights(prism, seed))
        assert set(tight_odd_sets(face)) <= set(tight_odd_sets(sub))
        assert sub.support_mask & face.support_mask == sub.support_mask


def test_contractibility_stable_under_subfaces_and_nesting(c6):
    # Subface stability and downward closure, spot-checked on C6 faces.
    face = perfect_matching_face(c6)
    tights = tight_odd_sets(face)
    for seed in range(4):
        sub = min_weight_subface(face, random_weights(c6, seed))
        for s in tights:
            if is_contractible(face, s):
                assert is_contractible(sub, s)
        for s in tights:
            for t in tights:
                if s & t == s != t and is_contractible(face, t):
                    assert is_contractible(face, s)


def test_derived_faces_and_families_equal_their_checked_twins(monkeypatch, petersen):
    """The faces and families the engine derives skip the constructors'
    checks.  On every state of the derand walk, each equals what the
    checked constructor builds from the same data, a subface holds exactly
    the minimizers of its parent, and tightness read from the memo equals a
    direct count of crossing edges for every odd set."""
    import matchiso.engine as engine

    calls = []

    def record(fn):
        def recorded(*args):
            calls.append((args, fn(*args)))
            return calls[-1][1]
        return recorded

    for name in ("perfect_matching_face", "min_weight_subface", "extend_to_maximal_laminar"):
        monkeypatch.setattr(engine, name, record(getattr(engine, name)))
    rng = random.Random(18)
    graphs = [random_graph_with_pm(n, p, rng) for n in (4, 6, 8, 10) for p in (0.2, 0.35, 0.5, 0.65) for _ in "abc"]
    for g in graphs + [complete_graph(8), petersen]:
        engine.isolate_derandomized(g)
    faces, families = 0, 0
    for args, out in calls:
        if isinstance(out, LaminarFamily):
            twin = LaminarFamily(out.n, out.masks)
            assert twin == out and twin.parent == out.parent
            families += 1
            continue
        assert Face(out.g, out.matchings) == out
        if isinstance(args[0], Face):
            parent, w = args
            totals = [w.matching_weight(mm) for mm in parent.matchings]
            assert out == Face(parent.g, [mm for mm, t in zip(parent.matchings, totals) if t == min(totals)])
        if out is args[0]:
            continue
        faces += 1
        g = out.g
        for s in range(1, 1 << g.n):
            if s.bit_count() % 2:
                direct = all((g.delta_mask(s) & mm).bit_count() == 1 for mm in out.matchings)
                assert is_tight(out, s) == direct
    assert faces >= 50 and families >= 100


def test_tight_sets_are_read_against_each_face_graph():
    """One matching mask on two graphs: {1,2,3} is tight where one matching
    edge leaves it and not where three do, so each face keeps its own memo."""
    one = Face(graph_from_edges(6, [(1, 2), (3, 4), (5, 6)]), (0b111,))
    other = Face(graph_from_edges(6, [(1, 4), (2, 5), (3, 6)]), (0b111,))
    assert is_tight(one, v({1, 2, 3})) and not is_tight(other, v({1, 2, 3}))
    for face in (one, other):
        assert list(tight_odd_sets(face)) == tight_sets_oracle(face)
