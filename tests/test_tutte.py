import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchiso.tutte as tutte
from matchiso import (
    WeightFunction,
    decide_random,
    determinant_search,
    enumerate_perfect_matchings,
    graph_from_edges,
    parse_graph,
)
from matchiso.graphs import EngineError, edge_mask
from matchiso.tutte import (
    MR_BOUND,
    STATUS_MATCHED,
    STATUS_NO_PM,
    STATUS_NOT_ISOLATING,
    _inverse,
    is_prime,
)

from conftest import random_graph, random_graph_with_pm
from reference_determinant import bareiss_determinant, crt_determinant
from reference_search import ord2, ord2_or_inf, per_edge_search, tutte_rows, unscaled_search


def leibniz_determinant(rows):
    """Independent oracle: sum over permutations (fine for n <= 6)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # parity by counting inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def test_matrix_shape_for_five_edge_document():
    g = graph_from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)])
    # Entries are +-1 in the adjacency sign pattern: row u has +1 at columns
    # of higher-labeled neighbors, -1 at lower ones.
    assert tutte_rows(g, (0, 0, 0, 0, 0)) == [
        [0, 1, 1, 1],
        [-1, 0, 0, 1],
        [-1, 0, 0, 1],
        [-1, -1, -1, 0],
    ]


def test_single_edge_matrix_and_determinant():
    g = graph_from_edges(2, [(1, 2)])
    rows = tutte_rows(g, (3,))
    assert rows == [[0, 8], [-8, 0]]
    value = abs(_inverse([list(r) for r in rows])[0])
    assert value == bareiss_determinant(rows) == 64 and ord2(value) == 6


def test_triangle_determinant_zero(triangle):
    rows = tutte_rows(triangle, (1, 2, 3))
    assert all(rows[i][i] == 0 for i in range(3))
    assert _inverse([list(r) for r in rows]) == (0, [])
    value = bareiss_determinant(rows)
    assert value == 0 and ord2(value) is None and ord2_or_inf(value) == math.inf


def test_c4_determinant_value(c4):
    # Matching weights are 3 and 2, so det = (2^3 + 2^2)^2 = 144, ord2 = 4.
    rows = tutte_rows(c4, (1, 1, 1, 2))
    assert leibniz_determinant(rows) == crt_determinant(rows) == 144
    value = abs(_inverse([list(r) for r in rows])[0])
    assert value == bareiss_determinant(rows) == 144 and ord2(value) == 4


def test_weight_missing_edge(c4):
    with pytest.raises(ValueError, match="covers 3 edges, graph has 4"):
        determinant_search(c4, WeightFunction(4, (1, 1, 1)))


@given(st.integers(2, 6), st.data())
def test_exact_matches_leibniz_and_crt(n, data):
    all_pairs = list(itertools.combinations(range(1, n + 1), 2))
    pairs = data.draw(st.lists(st.sampled_from(all_pairs), unique=True))
    g = graph_from_edges(n, pairs)
    w = WeightFunction(n, tuple(data.draw(st.integers(0, 8)) for _ in range(g.m)))
    rows = tutte_rows(g, w.values)
    exact = leibniz_determinant(rows)
    assert exact == crt_determinant(rows)
    assert exact == abs(_inverse([list(r) for r in rows])[0])
    assert exact == bareiss_determinant(rows)


@given(st.integers(2, 8), st.data())
@settings(max_examples=40)
def test_determinant_is_square_with_even_ord2(n, data):
    all_pairs = list(itertools.combinations(range(1, n + 1), 2))
    pairs = data.draw(st.lists(st.sampled_from(all_pairs), unique=True))
    g = graph_from_edges(n, pairs)
    w = WeightFunction(n, tuple(data.draw(st.integers(0, 6)) for _ in range(g.m)))
    value = abs(_inverse(tutte_rows(g, w.values))[0])
    assert value == bareiss_determinant(tutte_rows(g, w.values))
    assert math.isqrt(value) ** 2 == value
    if value:
        assert ord2(value) % 2 == 0


def test_decide_random_c4_true(c4):
    assert decide_random(c4, prime=101, trials=3, seed=0) is True


def test_decide_random_no_pm(triangle, star):
    for g in (triangle, star):
        for seed in range(5):
            assert decide_random(g, prime=1000003, trials=3, seed=seed) is False


def test_decide_random_validation(c4):
    with pytest.raises(ValueError):
        decide_random(c4, prime=100, trials=1, seed=0)  # not prime
    with pytest.raises(ValueError):
        decide_random(c4, prime=13, trials=1, seed=0)  # <= n^2
    with pytest.raises(ValueError):
        decide_random(c4, prime=101, trials=0, seed=0)


def test_decide_random_agrees_with_oracle_over_many_seeds(c4, k4, p4, prism, cube, petersen, triangle, star):
    for g in (c4, k4, p4, prism, cube, petersen, triangle, star):
        expected = bool(enumerate_perfect_matchings(g))
        for seed in range(100):
            assert decide_random(g, prime=1000003, trials=3, seed=seed) == expected


def test_is_prime_small():
    assert [p for p in range(2, 40) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37
    ]
    assert is_prime((1 << 31) - 1)
    assert not is_prime((1 << 29) - 1)


# Least strong pseudoprime to the twelve prime bases 2..37; base 41 exposes it.
PSEUDOPRIME_2_TO_37 = 318665857834031151167461


def test_is_prime_rejects_the_strong_pseudoprime_to_bases_up_to_37():
    assert PSEUDOPRIME_2_TO_37 == 399165290221 * 798330580441
    assert not is_prime(PSEUDOPRIME_2_TO_37)


def test_decide_random_refuses_moduli_outside_the_primality_bound(c4):
    with pytest.raises(ValueError, match="not prime"):
        decide_random(c4, prime=PSEUDOPRIME_2_TO_37, trials=1, seed=0)
    # MR_BOUND is composite and passes every base; 2^89 - 1 is a prime above it.
    assert MR_BOUND == 1287836182261 * 2575672364521 and is_prime(MR_BOUND)
    for modulus in (MR_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match="bound"):
            decide_random(c4, prime=modulus, trials=1, seed=0)
    assert decide_random(c4, prime=2**61 - 1, trials=1, seed=0) is True


def test_search_isolating_c4(c4):
    out = determinant_search(c4, WeightFunction(4, (1, 1, 1, 2)))
    assert out.status == STATUS_MATCHED
    assert out.matching == edge_mask({2, 3}) and out.weight == 2
    assert out.target_ord2 == 4
    by_edge = {v.edge: v for v in out.verdicts}
    # Removing a matching edge leaves only the weight-3 matching: ord2 6.
    assert by_edge[2].ord2 == 6 and by_edge[2].selected
    assert by_edge[3].ord2 == 6 and by_edge[3].selected
    assert by_edge[1].ord2 == 4 and not by_edge[1].selected
    assert by_edge[4].ord2 == 4 and not by_edge[4].selected


def test_search_tie_reports_isolation_failure(c4):
    out = determinant_search(c4, WeightFunction(4, (1, 1, 1, 1)))
    assert out.status == STATUS_NOT_ISOLATING
    assert out.matching is None and out.reason


def test_search_unique_pm_path(p4):
    for values in [(1, 1, 1), (5, 2, 9), (1, 7, 1)]:
        out = determinant_search(p4, WeightFunction(4, values))
        assert out.status == STATUS_MATCHED
        assert out.matching == edge_mask({1, 3})


def test_search_no_pm(triangle):
    out = determinant_search(triangle, WeightFunction(3, (1, 1, 1)))
    assert out.status == STATUS_NO_PM


def test_search_requires_positive_weights(c4):
    with pytest.raises(ValueError):
        determinant_search(c4, WeightFunction(4, (0, 1, 1, 1)))


def test_search_agrees_with_brute_force_on_random_isolating_weights():
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        n = rng.choice([4, 6])
        pairs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.6
        ]
        try:
            g = graph_from_edges(n, pairs)
        except ValueError:
            continue
        pms = enumerate_perfect_matchings(g)
        if not pms:
            continue
        w = WeightFunction(n, tuple(rng.randint(1, 2 * g.m) for _ in range(g.m)))
        totals = sorted((w.matching_weight(mm), mm) for mm in pms)
        isolated = len(totals) == 1 or totals[0][0] < totals[1][0]
        out = determinant_search(g, w)
        if isolated:
            assert out.status == STATUS_MATCHED and out.matching == totals[0][1]
        else:
            assert out.status == STATUS_NOT_ISOLATING
        checked += 1


@given(st.integers(2, 7), st.data())
@settings(max_examples=40)
def test_inverse_is_scaled_inverse(n, data):
    all_pairs = list(itertools.combinations(range(1, n + 1), 2))
    pairs = data.draw(st.lists(st.sampled_from(all_pairs), unique=True))
    g = graph_from_edges(n, pairs)
    w = WeightFunction(n, tuple(data.draw(st.integers(0, 6)) for _ in range(g.m)))
    rows = tutte_rows(g, w.values)
    d, r = _inverse([list(row) for row in rows])
    assert abs(d) == bareiss_determinant([list(row) for row in rows])
    if d:
        product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*r)] for row in rows]
        assert product == [[d if i == j else 0 for j in range(n)] for i in range(n)]


# K4 with edge ids 1=(1,2) 2=(1,3) 3=(1,4) 4=(2,3) 5=(2,4) 6=(3,4); its
# perfect matchings are {1,6}, {2,5} and {3,4}.


def test_search_k4_tie_with_moved_digit_is_not_matched(k4):
    # {1,6} and {2,5} both weigh 2; their Pfaffian terms cancel, so the lowest
    # digit belongs to {3,4} of weight 3, which the digits alone accept.
    w = WeightFunction(4, (1, 1, 1, 2, 1, 1))
    assert per_edge_search(k4, w).status == STATUS_MATCHED
    out = determinant_search(k4, w)
    assert out.status == STATUS_NOT_ISOLATING and out.matching is None
    assert out.verdicts == per_edge_search(k4, w).verdicts


def test_search_k4_vanishing_determinant_is_not_absence(k4):
    # All three matchings weigh 2 and the whole Pfaffian cancels.
    w = WeightFunction(4, (1, 1, 1, 1, 2, 1))
    assert bareiss_determinant(tutte_rows(k4, w.values)) == 0
    assert per_edge_search(k4, w).status == STATUS_NO_PM
    out = determinant_search(k4, w)
    assert out.status == STATUS_NOT_ISOLATING
    assert out.verdicts == () and out.det_bits == 0 and out.target_ord2 is None


def test_search_agrees_with_networkx_blossom():
    """Seeded n = 18..24 differential against networkx's blossom algorithm,
    with the uniqueness rule of the benchmark oracle: a minimum is unique
    when deleting any one of its edges leaves no perfect matching of the
    same weight."""
    nx = pytest.importorskip("networkx")

    def minimum(n, weighted):
        graph = nx.Graph()
        graph.add_nodes_from(range(1, n + 1))
        ceiling = max(weighted.values()) + 1
        graph.add_weighted_edges_from((u, v, ceiling - x) for (u, v), x in weighted.items())
        found = nx.max_weight_matching(graph, maxcardinality=True)
        if 2 * len(found) != n:
            return None
        return sum(weighted[min(e), max(e)] for e in found), found

    rng = random.Random(1818)
    outcomes = set()
    for _ in range(12):
        n = rng.choice([18, 20, 22, 24])
        g = random_graph_with_pm(n, 0.2, rng)
        w = WeightFunction(n, tuple(rng.randint(1, 6) for _ in range(g.m)))
        weighted = dict(zip(g.edges, w.values))
        best, found = minimum(n, weighted)
        unique = True
        for u, v in found:
            rest = {e: x for e, x in weighted.items() if e != (min(u, v), max(u, v))}
            other = minimum(n, rest)
            if other is not None and other[0] == best:
                unique = False
        out = determinant_search(g, w)
        if unique:
            assert out.status == STATUS_MATCHED and out.weight == best
        else:
            assert out.status == STATUS_NOT_ISOLATING
        outcomes.add(out.status)
    assert outcomes == {STATUS_MATCHED, STATUS_NOT_ISOLATING}


def _scaled_search_cases():
    """Seeded (graph, weights) pairs for the scaled-against-unscaled check."""
    rng = random.Random(30)
    for n in range(4, 21, 2):  # planted, weights in 1..2m
        for _ in range(3):
            g = random_graph_with_pm(n, 0.3, rng)
            yield g, tuple(rng.randint(1, 2 * g.m) for _ in range(g.m))
    for _ in range(40):  # ties: many isolation failures
        n = rng.choice([4, 6, 8, 10, 12])
        g = random_graph_with_pm(n, 0.5, rng)
        yield g, tuple(rng.randint(1, 3) for _ in range(g.m))
    for x in (1, 2, 7, 50):  # all weights equal: every reduced weight is x mod 2
        for n in (4, 8, 12):
            g = random_graph_with_pm(n, 0.5, rng)
            yield g, (x,) * g.m
    for n in (6, 10, 16):  # each vertex's lightest edge at weight 1: every y is 0
        g = random_graph_with_pm(n, 0.3, rng)
        planted = {(v, v + 1) for v in range(1, n, 2)}
        yield g, tuple(1 if e in planted else rng.randint(2, 2 * g.m) for e in g.edges)
    for n in (5, 7, 9):  # odd n, and an isolated vertex: no perfect matching
        g = random_graph(n, 0.6, rng)
        yield g, tuple(rng.randint(1, 2 * g.m) for _ in range(g.m))
        pairs = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.6]
        g = graph_from_edges(n + 1, pairs)
        yield g, tuple(rng.randint(1, 2 * g.m) for _ in range(g.m))
    golden = Path(__file__).resolve().parent / "data" / "derand_golden.jsonl"
    for line in golden.read_text().splitlines():  # the composed certificate weights
        case = json.loads(line)
        values = json.loads(case["report"])["result"]["weight"]["values"]
        yield parse_graph(case["graph"]), tuple(int(x) for x in values)


def test_scaled_search_equals_unscaled_search():
    """The search on the potential-scaled matrix equals the unscaled
    one-inverse search in every field: status, matching, weight, det_bits,
    target_ord2, each EdgeVerdict and the reason."""
    statuses = set()
    for g, values in _scaled_search_cases():
        w = WeightFunction(g.n, values)
        out = determinant_search(g, w)
        assert out == unscaled_search(g, w), (g, values)
        statuses.add(out.status)
    assert statuses == {STATUS_MATCHED, STATUS_NO_PM, STATUS_NOT_ISOLATING}


def test_equal_weights_scale_to_unit_entries(monkeypatch):
    """With every weight equal and even, each potential is half of it and
    every reduced weight 0: the rows handed to _inverse hold only 0 and +-1."""
    seen = []

    def spy(rows):
        seen.append({x for row in rows for x in row})
        return _inverse(rows)

    monkeypatch.setattr(tutte, "_inverse", spy)
    rng = random.Random(31)
    for x, n in ((2, 6), (10, 10), (500, 12)):
        g = random_graph_with_pm(n, 0.5, rng)
        determinant_search(g, WeightFunction(n, (x,) * g.m))
    assert len(seen) == 3
    assert all(entries <= {0, 1, -1} for entries in seen), seen


def test_infeasible_potentials_raise(c4, tmp_path, capsys, monkeypatch):
    """Potentials with y_u + y_v = w(e) + 1 on one edge give EngineError,
    never a report: search exits 1 with nothing on stdout."""
    from matchiso.cli import EXIT_INTERNAL, main

    w = WeightFunction(4, (3, 3, 3, 3))
    assert tutte._potentials(c4, w.values) == [1, 1, 1, 1]
    # Edge 1 = (1, 2) gets 2 + 2 = 4 = w + 1; the other three stay feasible.
    monkeypatch.setattr(tutte, "_potentials", lambda g, values: [2, 2, 0, 0])
    with pytest.raises(EngineError, match="potentials"):
        determinant_search(c4, w)
    path = tmp_path / "c4.txt"
    path.write_text("4 4\n1 2\n1 4\n2 3\n3 4\n")
    assert main(["search", "--graph", str(path), "--weights", "3,3,3,3"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == "" and "potentials" in captured.err
