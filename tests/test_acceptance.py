"""Acceptance suite: one test per criterion, printing a PASS line each.

The exhaustive corpus (connected graphs up to 8 vertices, up to isomorphism)
is generated once per session and its counts are asserted against the known
sequence, which independently validates the generator, and its listing is
pinned by a digest, so that a changed representative shows too.  Criteria 2 and 3
share the isolation-draw records; criteria 10 and 11 share one walk of the
constructive pipeline over the corpus.
"""

import hashlib
import itertools
import math
import random
import time

import pytest

from matchiso import (
    WeightFunction,
    decide_random,
    determinant_search,
    enumerate_perfect_matchings,
    extend_to_maximal_laminar,
    graph_from_edges,
    is_isolating,
    isolate_derandomized,
    min_weight_subface,
    perfect_matching_face,
    random_weights,
    respects_face,
    separating_weights,
    tight_odd_sets,
)
import matchiso.engine as engine
from matchiso.engine import ceil_log2
from matchiso.faces import (
    bounded_circuit_vectors,
    contract_face,
    is_contractible,
    singletons,
)
from matchiso.graphs import bit_positions, edge_mask
from matchiso.smallgraphs import connected_graphs
from matchiso.tutte import STATUS_MATCHED, STATUS_NO_PM, STATUS_NOT_ISOLATING, _inverse, is_prime

from conftest import (
    complete_graph,
    cycle_graph,
    random_graph,
    random_graph_with_pm,
)
import reference_census
from dense_vectors import dense_all, to_sparse
from reference_determinant import crt_determinant
from reference_laminar import crossing
from reference_search import per_edge_search, tutte_rows
from reference_uncrossing import laminar_spans_tight_cuts, uncross_pair

EXPECTED_CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]
# sha256 of the corpus listing, ";".join(f"{g.n}:{g.edges}"): 12,113 graphs, every representative in order
CORPUS8_SHA256 = "ebe90fa58cb8014ed2b0ffd659afac3d6acbc69ea702475775064fcd3d7a5f5b"


def announce(criterion: int, elapsed: float, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.1f}s) {detail}")


@pytest.fixture(scope="session")
def corpus8():
    started = time.perf_counter()
    graphs = connected_graphs(8)
    counts = [sum(1 for g in graphs if g.n == k) for k in range(1, 9)]
    assert counts == EXPECTED_CONNECTED_COUNTS, "corpus generator disagrees with known counts"
    print(f"[corpus: {len(graphs)} connected graphs <= 8 vertices in "
          f"{time.perf_counter() - started:.1f}s]")
    return graphs


def test_corpus8_listing_is_pinned(corpus8):
    """The counts pin the number of classes; the digest pins which graph
    represents each class, and their order."""
    listing = ";".join(f"{g.n}:{g.edges}" for g in corpus8)
    assert len(corpus8) == 12_113
    assert hashlib.sha256(listing.encode()).hexdigest() == CORPUS8_SHA256


@pytest.fixture(scope="session")
def corpus8_with_pm(corpus8):
    return [g for g in corpus8 if g.n % 2 == 0 and enumerate_perfect_matchings(g)]


def fixed_rate_graphs():
    """Ten fixed graphs, each with n <= 10 and at least two perfect matchings."""
    chordal_c6 = graph_from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4)])
    k33 = graph_from_edges(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
    cube = graph_from_edges(
        8, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5),
            (1, 5), (2, 6), (3, 7), (4, 8)])
    prism = graph_from_edges(
        6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (3, 6)])
    petersen = graph_from_edges(
        10, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (6, 8), (8, 10), (10, 7),
             (7, 9), (9, 6), (1, 6), (2, 7), (3, 8), (4, 9), (5, 10)])
    graphs = [
        ("C4", cycle_graph(4)),
        ("K4", complete_graph(4)),
        ("C6", cycle_graph(6)),
        ("C6+chord", chordal_c6),
        ("K33", k33),
        ("prism", prism),
        ("C8", cycle_graph(8)),
        ("cube", cube),
        ("C10", cycle_graph(10)),
        ("petersen", petersen),
    ]
    for _, g in graphs:
        assert len(enumerate_perfect_matchings(g)) >= 2
    return graphs


@pytest.fixture(scope="session")
def isolation_draws():
    """Criterion 2/3 shared records: per fixed graph, 2000 seeded draws with
    the brute-force isolating flag, the search outcome, and for isolating
    draws the brute-force minimizer.  Draw i uses random_weights(g, i).

    The search must say matched exactly when the draw isolates."""
    records = {}
    for name, g in fixed_rate_graphs():
        pms = enumerate_perfect_matchings(g)
        rows = []
        for seed in range(2000):
            w = random_weights(g, seed)
            isolating = is_isolating(g, w)
            outcome = determinant_search(g, w)
            assert (outcome.status == STATUS_MATCHED) == isolating, f"{name}: draw {seed}"
            expected = min(pms, key=w.matching_weight) if isolating else None
            rows.append((isolating, outcome, expected))
        records[name] = (g, rows)
    return records


def assert_agrees_with_per_edge_oracle(g, w, outcome, isolating):
    """Same verdict table and digits as the m + 1-determinant search; the
    status may differ only where the old search was wrong."""
    old = per_edge_search(g, w)
    assert (outcome.verdicts, outcome.det_bits, outcome.target_ord2) == (
        old.verdicts, old.det_bits, old.target_ord2)
    if outcome.status != old.status:
        assert not isolating and outcome.status == STATUS_NOT_ISOLATING
        assert old.status in (STATUS_MATCHED, STATUS_NO_PM)
        return 1
    return 0


def test_criterion_1_tutte_equivalence(corpus8):
    started = time.perf_counter()
    assert is_prime(1000003)
    checked = 0
    for g in corpus8:
        oracle = bool(enumerate_perfect_matchings(g))
        got = decide_random(g, prime=1000003, trials=5, seed=checked)
        assert got == oracle, f"decision mismatch on {g}"
        checked += 1
    rng = random.Random(101)
    for i in range(500):
        n = rng.choice([4, 6, 8, 9, 10, 11, 12])
        g = random_graph(n, rng.uniform(0.15, 0.9), rng)
        oracle = bool(enumerate_perfect_matchings(g))
        got = decide_random(g, prime=1000003, trials=5, seed=10_000 + i)
        assert got == oracle
        checked += 1
    announce(1, time.perf_counter() - started, f"{checked} instances, 0 mismatches")


def test_criterion_2_isolation_rate(isolation_draws):
    started = time.perf_counter()
    draws = 2000
    sigma = math.sqrt(0.25 / draws)
    floor = 0.5 - 4 * sigma
    rates = {}
    for name, (_, rows) in isolation_draws.items():
        rate = sum(1 for isolating, _, _ in rows if isolating) / draws
        assert rate >= floor, f"{name}: isolating rate {rate:.3f} below {floor:.3f}"
        rates[name] = rate
    worst = min(rates, key=rates.get)
    announce(2, time.perf_counter() - started,
             f"min rate {rates[worst]:.3f} ({worst}) >= {floor:.3f}")


def test_criterion_3_search_matches_brute_force(isolation_draws):
    started = time.perf_counter()
    checked = 0
    for name, (_, rows) in isolation_draws.items():
        for isolating, outcome, expected in rows:
            if not isolating:
                continue
            assert outcome.status == STATUS_MATCHED, f"{name}: search failed"
            assert outcome.matching == expected, f"{name}: wrong matching"
            checked += 1
    announce(3, time.perf_counter() - started, f"{checked} isolating draws, 100% agreement")


def test_criterion_3_per_edge_oracle(isolation_draws):
    """The one-inverse search against the m + 1-determinant search it
    replaced, over every criterion-2/3 draw."""
    started = time.perf_counter()
    checked = changed = 0
    for name, (g, rows) in isolation_draws.items():
        for seed, (isolating, outcome, _) in enumerate(rows):
            changed += assert_agrees_with_per_edge_oracle(
                g, random_weights(g, seed), outcome, isolating)
            checked += 1
    print(f"[per-edge oracle: {checked} draws, {changed} wrong old statuses corrected "
          f"in {time.perf_counter() - started:.1f}s]")


def test_corpus_sample_per_edge_oracle(corpus8):
    """The same differential over a seeded tenth of the n <= 8 corpus, with
    weights in {1, 2, 3} so that ties are common."""
    rng = random.Random(808)
    checked = changed = 0
    for g in corpus8:
        if rng.random() >= 0.1:
            continue
        w = WeightFunction(g.n, tuple(rng.randint(1, 3) for _ in range(g.m)))
        outcome = determinant_search(g, w)
        isolating = is_isolating(g, w)
        assert (outcome.status == STATUS_MATCHED) == isolating
        if outcome.status == STATUS_NO_PM:
            assert not enumerate_perfect_matchings(g)
        changed += assert_agrees_with_per_edge_oracle(g, w, outcome, isolating)
        checked += 1
    assert changed > 0
    print(f"[per-edge oracle: {checked} corpus graphs, {changed} wrong old statuses corrected]")


def test_criterion_4_determinant_cross_check():
    started = time.perf_counter()
    rng = random.Random(404)
    done = 0
    while done < 1000:
        n = rng.choice([2, 4, 6, 8, 10, 12])
        g = random_graph(n, rng.uniform(0.2, 0.95), rng)
        if g.m == 0:
            continue
        w = WeightFunction(n, tuple(rng.randint(0, 2 * g.m) for _ in range(g.m)))
        rows = tutte_rows(g, w.values)
        assert abs(_inverse([list(r) for r in rows])[0]) == crt_determinant(rows)
        done += 1
    announce(4, time.perf_counter() - started, "1000 matrices, exact == CRT bit-exactly")


def test_criterion_5_family_bit_exactness():
    started = time.perf_counter()
    from matchiso import family_member

    checked = 0
    for n in range(2, 13):
        m = n * (n - 1) // 2
        base = 4 * n * n + 1
        for k in range(2, 201):
            values = family_member(k, n, m).values
            for j in range(1, m + 1):
                assert values[j - 1] == pow(base, j, k)
                checked += 1
    announce(5, time.perf_counter() - started, f"{checked} values, 0 mismatches")


def test_criterion_6_concatenation_subface_law():
    started = time.perf_counter()
    from matchiso import concatenate, family_member

    rng = random.Random(606)
    done = 0
    while done < 500:
        n = rng.choice([4, 6, 8])
        g = random_graph_with_pm(n, rng.uniform(0.2, 0.8), rng)
        face = perfect_matching_face(g)
        if rng.random() < 0.4:
            face = min_weight_subface(face, random_weights(g, rng.randrange(1 << 30)))
        w = family_member(rng.randint(2, 200), n, g.m)
        w2 = family_member(rng.randint(2, 200), n, g.m)
        sequential = min_weight_subface(min_weight_subface(face, w), w2)
        # n**21: the padding of the CLI's weights --concat at its default --padding-exponent
        combined = min_weight_subface(face, concatenate(w, w2, n**21))
        assert sequential.matchings == combined.matchings
        done += 1
    announce(6, time.perf_counter() - started, "500 triples, exact equality")


def test_criterion_7_separating_member_exists():
    started = time.perf_counter()
    rng = random.Random(707)
    done = 0
    while done < 200:
        n = rng.randint(4, 10)
        m = rng.randint(1, n * (n - 1) // 2)
        s = rng.randint(1, 20)
        cap = 4 * n * n
        vectors = []
        for _ in range(s):
            vec = [0] * m
            support = rng.sample(range(m), rng.randint(1, m))
            budget = cap
            for i in support:
                c = rng.choice([-2, -1, 1, 2])
                if budget - abs(c) < 0:
                    break
                vec[i] = c
                budget -= abs(c)
            if not any(vec):
                vec[support[0]] = 1
            vectors.append(tuple(vec))
        _, w = separating_weights([to_sparse(vec) for vec in vectors], n, m)  # raises on an empty scan
        for vec in vectors:
            assert sum(a * b for a, b in zip(vec, w.values)) != 0
        done += 1
    announce(7, time.perf_counter() - started, "200 obligation sets, all separated")


def test_criterion_8_removal_law():
    started = time.perf_counter()
    rng = random.Random(808)
    done = 0
    while done < 200:
        n = rng.choice([4, 6, 8])
        g = random_graph_with_pm(n, rng.uniform(0.2, 0.8), rng)
        face = perfect_matching_face(g)
        if rng.random() < 0.4:
            face = min_weight_subface(face, random_weights(g, rng.randrange(1 << 30)))
        vec = [0] * g.m
        for i in rng.sample(range(g.m), rng.randint(1, min(4, g.m))):
            vec[i] = rng.choice([-2, -1, 1, 2])
        w = random_weights(g, rng.randrange(1 << 30))
        if sum(a * b for a, b in zip(vec, w.values)) == 0:
            continue
        sub = min_weight_subface(face, w)
        assert not respects_face(to_sparse(vec), sub)
        done += 1
    announce(8, time.perf_counter() - started, "200 cases, none respects the minimized face")


def _structural_checks(face, g, limit_pairs=40, limit_sets=None):
    tight = tight_odd_sets(face)
    fam = extend_to_maximal_laminar(singletons(g.n), tight)
    assert laminar_spans_tight_cuts(face, fam)
    # Uncrossing identities on deterministically sampled crossing pairs.
    pairs_checked = 0
    for s, t in itertools.combinations(tight, 2):
        if pairs_checked >= limit_pairs:
            break
        if crossing(s, t):
            uncross_pair(s, t, face)  # raises on any violated identity
            pairs_checked += 1
    # Contractibility: downward closure on nested tight pairs, and
    # stability under one seeded subface.
    sets = list(tight) if limit_sets is None else list(fam.masks) + [
        s for s in tight if s not in fam.masks
    ][:limit_sets]
    flags = {s: is_contractible(face, s) for s in sets}
    for s, t in itertools.combinations(sets, 2):
        if s & t == s != t and flags[t]:
            assert flags[s], f"downward closure failed for {bit_positions(s)} < {bit_positions(t)}"
        if s & t == t != s and flags[s]:
            assert flags[t], f"downward closure failed for {bit_positions(t)} < {bit_positions(s)}"
    sub = min_weight_subface(face, random_weights(g, 99))
    for s in sets:
        if flags[s]:
            assert is_contractible(sub, s), "subface stability failed"


def test_criterion_9_structural_lemmas(corpus8_with_pm):
    started = time.perf_counter()
    faces_checked = 0
    for idx, g in enumerate(corpus8_with_pm):
        face = perfect_matching_face(g)
        limit = None if g.n <= 6 else 16
        _structural_checks(face, g, limit_sets=limit)
        faces_checked += 1
        sub = min_weight_subface(face, random_weights(g, idx))
        if sub.matchings != face.matchings:
            _structural_checks(sub, g, limit_sets=limit)
            faces_checked += 1
    announce(9, time.perf_counter() - started,
             f"{faces_checked} faces: spans, uncrossing, contractibility all hold")


@pytest.fixture(scope="session")
def corpus8_walks(corpus8_with_pm):
    """One constructive walk per corpus graph with a perfect matching, in
    corpus order: the certificate that isolate_derandomized returns, and
    the face-laminar states it passed through, recorded by wrapping
    initial_state and advance while it runs."""
    started = time.perf_counter()
    states, walks = [], []

    def recorded(step):
        def wrapper(arg):
            state = step(arg)
            states.append(state)
            return state
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "initial_state", recorded(engine.initial_state))
        mp.setattr(engine, "advance", recorded(engine.advance))
        for g in corpus8_with_pm:
            walks.append((isolate_derandomized(g), tuple(states)))
            states.clear()
    print(f"[walks: {len(walks)} corpus graphs in {time.perf_counter() - started:.1f}s]")
    return walks


def test_criterion_10_derandomized_isolation(corpus8_with_pm, corpus8_walks):
    started = time.perf_counter()
    for g, (cert, _) in zip(corpus8_with_pm, corpus8_walks, strict=True):
        # The walk ran in corpus8_walks: advance() verified goodness at each
        # doubled threshold, and isolate_derandomized re-validated the
        # composed weights three independent ways, raising EngineError on
        # any failure.
        rounds = ceil_log2(g.n)
        assert len(cert.audit) <= (rounds + 1) * rounds
        assert is_isolating(g, cert.weight)
        pms = enumerate_perfect_matchings(g)
        best = min((cert.weight.matching_weight(mm), bit_positions(mm)) for mm in pms)
        assert edge_mask(best[1]) == cert.matching
    announce(10, time.perf_counter() - started,
             f"{len(corpus8_with_pm)} graphs isolated with verified certificates")


def test_criterion_11_circuit_census(corpus8_with_pm, corpus8_walks):
    started = time.perf_counter()
    censuses = 0
    worst = 0
    for i, (g, (_, states)) in enumerate(zip(corpus8_with_pm, corpus8_walks, strict=True)):
        bound_total = g.n**17
        assert states[-1].threshold >= g.n
        for state in states:
            lam = state.threshold
            h = contract_face(state.face, state.laminar, lam)
            assert bounded_circuit_vectors(h, lam) == set()
            vectors = bounded_circuit_vectors(h, 2 * lam)
            if i % 5 == 0:  # the census that walks both orientations, on a fifth of the graphs
                assert dense_all(vectors, g.m) == reference_census.bounded_circuit_vectors(h, 2 * lam)
            census = len(vectors)
            assert census <= bound_total
            worst = max(worst, census)
            censuses += 1
    announce(11, time.perf_counter() - started,
             f"{censuses} contractions, max census {worst} <= n^17")
