import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchiso import (
    WeightFunction,
    concatenate,
    family_member,
    is_isolating,
    random_weights,
    separating_weights,
)
from matchiso.graphs import EdgeVector, EngineError, edge_mask

from dense_vectors import to_sparse


def test_family_member_frozen_values():
    # Base 4*16+1 = 65.
    assert family_member(2, 4, 5).values == (1, 1, 1, 1, 1)
    assert family_member(3, 4, 5).values == (2, 1, 2, 1, 2)
    assert family_member(7, 4, 5).values == (2, 4, 1, 2, 4)
    assert family_member(7, 4, 5).provenance == "family:7"


def test_family_member_on_graph(c4):
    assert family_member(3, c4.n, c4.m).values == (2, 1, 2, 1)


def test_family_member_validation():
    with pytest.raises(ValueError):
        family_member(1, 4, 3)


@given(st.integers(2, 12), st.integers(2, 60), st.integers(0, 40))
def test_family_matches_modular_exponentiation_oracle(n, k, m):
    w = family_member(k, n, m)
    base = 4 * n * n + 1
    assert w.values == tuple(pow(base, j, k) for j in range(1, m + 1))
    assert all(0 <= x < k for x in w.values)


def test_concat_frozen_value():
    w = WeightFunction(4, (1,))
    w2 = WeightFunction(4, (3,))
    padded = concatenate(w, w2, 4**21)
    assert padded.values == (4398046511107,)  # 4^21 + 3
    assert padded.provenance == "concat"


def test_concat_zero_sides():
    w = WeightFunction(4, (5, 6, 7))
    zero = WeightFunction(4, (0, 0, 0))
    assert concatenate(w, zero, 100).values == (500, 600, 700)
    assert concatenate(zero, w, 100).values == (5, 6, 7)


def test_concat_validation():
    with pytest.raises(ValueError):
        concatenate(WeightFunction(4, (1, 2)), WeightFunction(4, (1,)), 100)
    with pytest.raises(ValueError):
        # padding 6 does not dominate (n//2) * max = 2 * 9.
        concatenate(WeightFunction(4, (1, 1)), WeightFunction(4, (9, 1)), 6)


@given(st.data())
def test_concat_realizes_lexicographic_order(data):
    n = data.draw(st.integers(2, 8))
    m = data.draw(st.integers(1, 10))
    w = WeightFunction(n, tuple(data.draw(st.integers(0, 50)) for _ in range(m)))
    w2 = WeightFunction(n, tuple(data.draw(st.integers(0, 50)) for _ in range(m)))
    padding = (n // 2) * max(w2.values) + 1 if any(w2.values) else 1
    combined = concatenate(w, w2, padding)
    size = n // 2
    m1 = edge_mask(data.draw(st.lists(st.integers(1, m), min_size=size, max_size=size)))
    m2 = edge_mask(data.draw(st.lists(st.integers(1, m), min_size=size, max_size=size)))
    key1 = (w.matching_weight(m1), w2.matching_weight(m1))
    key2 = (w.matching_weight(m2), w2.matching_weight(m2))
    c1, c2 = combined.matching_weight(m1), combined.matching_weight(m2)
    if key1 < key2:
        assert c1 < c2
    elif key1 > key2:
        assert c1 > c2
    else:
        assert c1 == c2


def test_separating_weights_c4_cycle_vector():
    # Alternating vector of the 4-cycle in lexicographic ids: traversal
    # 1-2-3-4-1 uses edges 1, 3, 4, 2, so the vector is (+1, -1, -1, +1).
    # Scanning: members k = 2..6 all give inner product 0; k = 7 with
    # values (2, 4, 1, 2) gives 2 - 4 - 1 + 2 = -1.
    y = (1, -1, -1, 1)
    k, w = separating_weights([to_sparse(y)], 4, 4)
    assert k == 7 and w.values == (2, 4, 1, 2)
    assert sum(a * b for a, b in zip(y, w.values)) != 0


def test_separating_weights_empty_is_vacuous():
    k, w = separating_weights([], 4, 5)
    assert k == 2 and w.values == (1, 1, 1, 1, 1)


def test_separating_weights_exhausted_is_data():
    # (1, -1) is orthogonal to the all-ones member w_2, which exhausted a scan
    # capped at k = 2. The scan now runs to the lemma's bound, so it passes w_2
    # over and returns the first separating member as data: k = 3, (2, 1).
    k, w = separating_weights([to_sparse((1, -1))], 4, 2)
    assert k == 3 and w.values == (2, 1)
    assert w.values[0] - w.values[1] != 0


def test_separating_weights_raises_when_no_member_separates(monkeypatch):
    # With every member all-ones, (1, -1) is orthogonal to each one up to the
    # lemma's bound, n^3 per distinct vector and at least 7: an empty scan is
    # an engine fault, not data.
    import matchiso.weights as weights

    scanned = []

    def all_ones(k, n, m):
        scanned.append(k)
        return [1] * m

    monkeypatch.setattr(weights, "_member_values", all_ones)
    for n, bound in [(2, 8), (1, 7)]:
        scanned.clear()
        with pytest.raises(EngineError, match=f"no separating family member up to {bound}"):
            separating_weights([to_sparse((1, -1))] * 2, n, 2)
        assert scanned == list(range(2, bound + 1))


def test_separating_weights_validation():
    with pytest.raises(ValueError):
        separating_weights([to_sparse((0, 0))], 4, 2)
    with pytest.raises(ValueError):
        separating_weights([to_sparse((100,) * 10)], 2, 10)  # 1-norm over 4n^2
    with pytest.raises(ValueError):
        separating_weights([to_sparse((1, 0)), to_sparse((1, 0, 1))], 4, 2)  # edge 3 of 2
    with pytest.raises(ValueError):
        separating_weights([EdgeVector(0b11, (1,))], 4, 2)  # two edges, one coefficient


@given(st.integers(4, 10), st.data())
def test_separating_weights_succeeds_within_bound(n, data):
    m = data.draw(st.integers(1, min(12, n * (n - 1) // 2)))
    s = data.draw(st.integers(1, 6))
    vectors = []
    for _ in range(s):
        vec = [0] * m
        support = data.draw(
            st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)
        )
        for i in support:
            vec[i] = data.draw(st.sampled_from([-2, -1, 1, 2]))
        if not any(vec):
            vec[support[0]] = 1
        vectors.append(tuple(vec))
    k, w = separating_weights([to_sparse(vec) for vec in vectors], n, m)
    for vec in vectors:
        assert sum(a * b for a, b in zip(vec, w.values)) != 0
    # Minimality: every smaller index fails on some vector.
    for smaller in range(2, k):
        wk = family_member(smaller, n, m)
        assert any(
            sum(a * b for a, b in zip(vec, wk.values)) == 0 for vec in vectors
        )


def test_random_weights_deterministic_and_ranged(c4):
    w1 = random_weights(c4, 42)
    w2 = random_weights(c4, 42)
    assert w1 == w2
    assert w1.provenance == "random"
    assert len(w1.values) == 4
    assert all(1 <= v <= 8 for v in w1.values)
    assert random_weights(c4, 43) != w1


def test_random_weights_roughly_uniform(c4):
    counts = [0] * 8
    draws = 4000
    for seed in range(draws):
        for v in random_weights(c4, seed).values:
            counts[v - 1] += 1
    total = draws * 4
    expected = total / 8
    sigma = math.sqrt(total * (1 / 8) * (7 / 8))
    for c in counts:
        assert abs(c - expected) < 5 * sigma


def test_is_isolating_cases(c4, p4):
    for seed in range(5):
        assert is_isolating(p4, random_weights(p4, seed))
    assert not is_isolating(c4, WeightFunction(4, (1, 1, 1, 1)))
    assert is_isolating(c4, WeightFunction(4, (1, 1, 1, 2)))


def test_is_isolating_no_pm(triangle):
    assert not is_isolating(triangle, WeightFunction(3, (1, 1, 1)))


def test_is_isolating_refuses_another_edge_count(c4):
    # Too few values used to raise IndexError, too many went unread.
    for values in ((1, 1, 2), (1, 1, 1, 2, 1)):
        with pytest.raises(ValueError, match="graph with 4 edges"):
            is_isolating(c4, WeightFunction(4, values))
