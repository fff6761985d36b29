import random

import pytest

from matchiso import (
    EngineError,
    Face,
    Graph,
    IsolationCertificate,
    NoPerfectMatchingError,
    TrialsExhausted,
    WeightFunction,
    advance,
    determinant_search,
    enumerate_perfect_matchings,
    initial_state,
    is_isolating,
    isolate_derandomized,
    isolate_randomized,
    make_chains_contractible,
    random_weights,
    remove_circuits,
    respects_face,
)
from matchiso.engine import ceil_log2, chain_phase_spans, compose_log, PhaseRecord
from matchiso.faces import contract_face, bounded_circuit_vectors
from matchiso.graphs import bit_positions, edge_mask
from matchiso.tutte import STATUS_MATCHED

from conftest import random_graph_with_pm, vertex_mask

f = edge_mask  # a matching: the mask of its edge ids
v = vertex_mask  # a vertex set: the mask of its labels


def test_ceil_log2():
    assert [ceil_log2(n) for n in (2, 3, 4, 6, 8, 10, 16)] == [1, 2, 2, 3, 3, 4, 4]


def test_chain_phase_spans_eight_chain():
    # A chain of 8 sets needs phases 2..4 after the first: spans 1, 3, 7
    # (so the whole chain is a single layer by the last phase).
    assert chain_phase_spans(8, 33) == ((2, 1), (3, 3), (4, 7))
    assert chain_phase_spans(1, 8) == ()
    assert chain_phase_spans(2, 8) == ((2, 1),)


def test_initial_state_is_good(c4):
    state = initial_state(c4)
    assert state.threshold == 1
    assert len(state.face) == 2
    assert v({1, 2, 3}) in state.laminar.masks


def test_remove_circuits_c4_trace(c4):
    # At contraction threshold 4 the triple contracts against vertex 4 and
    # the two parallel support edges form the only short circuit; the
    # smallest separating member is k=7 and minimizing it isolates {1,4}.
    state = initial_state(c4)
    record, face = remove_circuits(state.face, state.laminar, bound=4, beta=4)
    assert record.k == 7
    assert record.obligations == 1
    assert record.changed_face
    assert face.matchings == (f({1, 4}),)
    h = contract_face(state.face, state.laminar, 4)
    for z in bounded_circuit_vectors(h, 4):
        assert not respects_face(z, face, contraction=h)


def test_find_member_raises_when_the_scan_comes_back_empty(c4, monkeypatch):
    # With every family member all-ones, the c4 cycle vector (1, -1, -1, 1) is
    # orthogonal to each one: the engine's member step finds none and raises.
    import matchiso.weights as weights

    monkeypatch.setattr(weights, "_member_values", lambda k, n, m: [1] * m)
    state = initial_state(c4)
    with pytest.raises(EngineError, match="no separating family member"):
        remove_circuits(state.face, state.laminar, bound=4, beta=4)
    with pytest.raises(EngineError, match="no separating family member"):
        isolate_derandomized(c4)


def test_remove_circuits_vacuous(c4):
    state = initial_state(c4)
    record, face = remove_circuits(state.face, state.laminar, bound=2, beta=2)
    assert record.k == 2
    assert record.obligations == 0
    assert not record.changed_face
    assert face is state.face


def test_make_chains_no_members_is_noop(c4):
    state = initial_state(c4)
    records, face = make_chains_contractible(state.face, state.laminar, 1)
    assert records == ()
    assert face.matchings == state.face.matchings


def test_make_chains_k6_five_set(k6):
    # At threshold 4 the tight 5-set is the single chain; phase one removes
    # the short circuits of the K5 left after erasing its boundary, and the
    # verification demands the 5-set end up contractible.
    state = initial_state(k6)
    st2 = advance(advance(state))
    assert st2.threshold == 4
    records, face = make_chains_contractible(st2.face, st2.laminar, 4)
    assert records, "chain phase records expected"
    assert records[0].label.startswith("circuits:bound=8,beta=4")
    from matchiso.faces import is_contractible

    assert is_contractible(face, v({1, 2, 3, 4, 5}))


def test_advance_c4_two_rounds(c4):
    state = initial_state(c4)
    st1 = advance(state)
    # The first doubling has nothing to do: the triple's boundary is erased
    # in the contraction and no short circuits exist.
    assert st1.threshold == 2
    assert st1.face.matchings == state.face.matchings
    st2 = advance(st1)
    assert st2.threshold == 4
    assert st2.face.matchings == (f({1, 4}),)
    assert set(state.laminar.masks) <= set(st2.laminar.masks)


def test_advance_noop_on_unique_matching(p4):
    state = initial_state(p4)
    assert len(state.face) == 1
    st1 = advance(state)
    assert st1.threshold == 2
    assert st1.face.matchings == state.face.matchings


def test_isolate_derandomized_p4(p4):
    cert = isolate_derandomized(p4)
    assert cert.matching == f({1, 3})
    assert is_isolating(p4, cert.weight)


def test_isolate_derandomized_c4(c4):
    cert = isolate_derandomized(c4)
    assert cert.matching == f({1, 4})
    assert cert.weight.values == (2, 4, 1, 2)  # the k=7 family member
    assert [r.k for r in cert.audit if r.changed_face] == [7]
    assert is_isolating(c4, cert.weight)
    out = determinant_search(c4, cert.weight)
    assert out.status == STATUS_MATCHED and out.matching == cert.matching


@pytest.mark.parametrize(
    "values,message",
    [((1, 1, 1, 1), "not isolating"), ((5, 1, 1, 5), "brute-force minimizer disagrees")],
    ids=["tie", "other-matching"],
)
def test_isolate_derandomized_checks_the_composed_weights(c4, monkeypatch, values, message):
    """The brute force weighs the starting face under the composed weights:
    a tie, or a minimizer other than the singleton face ({1,4}; the weights
    5,1,1,5 favour {2,3}), raises EngineError."""
    import matchiso.engine as engine

    monkeypatch.setattr(engine, "compose_log", lambda records, n, m: WeightFunction(n, values))
    with pytest.raises(EngineError, match=message):
        isolate_derandomized(c4)


def test_isolate_derandomized_k4(k4):
    cert = isolate_derandomized(k4)
    pms = enumerate_perfect_matchings(k4)
    totals = sorted((cert.weight.matching_weight(mm), mm) for mm in pms)
    assert totals[0][1] == cert.matching
    assert totals[0][0] < totals[1][0]


def test_isolate_derandomized_no_pm(triangle, star):
    for g in (triangle, star):
        with pytest.raises(NoPerfectMatchingError):
            isolate_derandomized(g)


def test_isolate_derandomized_weight_log_budget(prism, cube, k6):
    for g in (prism, cube, k6):
        cert = isolate_derandomized(g)
        rounds = ceil_log2(g.n)
        assert len(cert.audit) <= (rounds + 1) * rounds
        assert is_isolating(g, cert.weight)


def test_compose_log_empty_gives_constant():
    w = compose_log((), 4, 3)
    assert w.values == (1, 1, 1)


def test_compose_log_skips_noop_members():
    keep = PhaseRecord("a", 3, WeightFunction(4, (2, 1)), 1, True)
    skip = PhaseRecord("b", 2, WeightFunction(4, (1, 1)), 0, False)
    w = compose_log((skip, keep, skip), 4, 2)
    assert w.values == (2, 1)


def test_compose_log_orders_lexicographically():
    first = PhaseRecord("a", 0, WeightFunction(4, (1, 1, 0, 0)), 1, True)
    second = PhaseRecord("b", 0, WeightFunction(4, (0, 3, 1, 0)), 1, True)
    w = compose_log((first, second), 4, 4)
    # padding = 2 * 3 + 1 = 7 gives 7*w1 + w2 = (7, 10, 1, 0); the zero
    # entry triggers the uniform +1 shift.
    assert w.values == (8, 11, 2, 1)


def test_isolate_randomized_p4(p4):
    cert = isolate_randomized(p4, seed=5)
    assert isinstance(cert, IsolationCertificate)
    assert cert.trials == 1
    assert cert.matching == f({1, 3})


def test_isolate_randomized_deterministic(c4):
    a = isolate_randomized(c4, seed=9)
    b = isolate_randomized(c4, seed=9)
    assert a == b


def test_isolate_randomized_expected_trials(c4):
    trials = [isolate_randomized(c4, seed=s).trials for s in range(60)]
    assert sum(trials) / len(trials) < 3


def test_isolate_randomized_no_pm(triangle):
    with pytest.raises(NoPerfectMatchingError, match="graph with 3 vertices has no perfect matching"):
        isolate_randomized(triangle, seed=1)


def test_isolate_randomized_exhaustion(c4):
    with pytest.raises(TrialsExhausted):
        isolate_randomized(c4, seed=1, max_trials=0)


def test_isolate_randomized_certificate_weight_isolates(cube):
    cert = isolate_randomized(cube, seed=3)
    assert is_isolating(cube, cert.weight)
    assert determinant_search(cube, cert.weight).matching == cert.matching


def test_isolate_randomized_same_certificates_as_brute_force_filter():
    """The first trial the exact search accepts is the first trial whose
    weights isolate by brute force, so certificates do not depend on how
    isolation is decided."""
    rng = random.Random(77)
    for seed in range(12):
        g = random_graph_with_pm(rng.choice([6, 8, 10]), 0.5, rng)
        cert = isolate_randomized(g, seed)
        draws = random.Random(seed)
        for trial in range(1, cert.trials + 1):
            w = random_weights(g, draws.randrange(1 << 63))
            assert is_isolating(g, w) == (trial == cert.trials)
        assert cert.weight == w


def test_isolate_randomized_above_the_guard_enumerates_nothing(monkeypatch):
    """One path for every n: no matching enumeration, no brute-force check."""
    from matchiso import engine, faces, graphs, weights

    def forbidden(*args, **kwargs):
        raise AssertionError("exhaustive oracle called")

    # Every module that binds an exhaustive oracle gets the forbidden one.
    for module in (graphs, weights, faces, engine):
        for name in ("enumerate_perfect_matchings", "is_isolating"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    g = random_graph_with_pm(20, 0.2, random.Random(5))
    cert = isolate_randomized(g, seed=4)
    out = determinant_search(g, cert.weight)
    assert out.status == STATUS_MATCHED and out.matching == cert.matching
    odd = random_graph_with_pm(18, 0.2, random.Random(6))
    isolated = Graph(odd.n, tuple(e for e in odd.edges if 18 not in e))
    with pytest.raises(NoPerfectMatchingError):
        isolate_randomized(isolated, seed=1)


def test_random_corpus_smoke():
    rng = random.Random(2)
    done = 0
    while done < 30:
        n = rng.choice([4, 6, 8])
        pairs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < rng.uniform(0.3, 0.9)
        ]
        try:
            from matchiso import graph_from_edges

            g = graph_from_edges(n, pairs)
        except ValueError:
            continue
        if not enumerate_perfect_matchings(g):
            continue
        cert = isolate_derandomized(g)
        assert is_isolating(g, cert.weight)
        pms = enumerate_perfect_matchings(g)
        best = min((cert.weight.matching_weight(mm), bit_positions(mm)) for mm in pms)
        assert f(best[1]) == cert.matching
        done += 1
