"""Laminar families held as forests, against the scans they replaced
(tests/reference_laminar.py): the constructor, the greedy extension, the
maximality witness, the maximal small members and the chains of a size
range must agree with the scans on every state of the constructive walk
and on random odd-set families."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matchiso import LaminarFamily, extend_to_maximal_laminar, goodness_check, tight_odd_sets
from matchiso.engine import _disjoint_chains, advance, initial_state
from matchiso.faces import _maximality_witness, _place, _set_sorted, perfect_matching_face, singletons
import reference_laminar as ref
from conftest import cycle_graph, random_graph_with_pm, vertex_mask

v = vertex_mask


def test_laminar_check_cases():
    f = frozenset
    assert ref.laminar_check([f({1}), f({2}), f({1, 2, 3})]) == (True, None)
    ok, pair = ref.laminar_check([f({1, 2}), f({2, 3})])
    assert not ok and pair == (f({1, 2}), f({2, 3}))
    assert ref.laminar_check([f({1, 2}), f({3, 4})]) == (True, None)


def test_crossing_members_name_the_pair():
    with pytest.raises(ValueError, match=r"^sets \[1, 2, 3\] and \[2, 3, 4\] cross$"):
        LaminarFamily(4, singletons(4).masks + (v({1, 2, 3}), v({2, 3, 4})))


def test_parent_map_is_the_forest_and_not_compared():
    fam = LaminarFamily(5, singletons(5).masks + (v({1, 2, 3}), v({1, 2, 3, 4, 5})))
    assert fam.parent == {
        v({1}): v({1, 2, 3}), v({2}): v({1, 2, 3}), v({3}): v({1, 2, 3}),
        v({4}): v({1, 2, 3, 4, 5}), v({5}): v({1, 2, 3, 4, 5}),
        v({1, 2, 3}): v({1, 2, 3, 4, 5}), v({1, 2, 3, 4, 5}): 0,
    }
    twin = LaminarFamily(5, tuple(reversed(fam.masks)))
    assert twin == fam and hash(twin) == hash(fam) and "parent" not in repr(fam)


def test_extension_refuses_candidates_outside_the_vertices():
    base = singletons(4)
    for bad in (-v({1, 2, 3}), 1 << 4 | 1, 0):
        with pytest.raises(ValueError, match="vertex mask"):
            extend_to_maximal_laminar(base, base.masks + (bad,))


def test_extension_refuses_an_even_candidate():
    """Each new candidate's parity is checked, whether it would join the
    family ({1, 2}) or cross a member ({3, 4} crosses {1, 2, 3})."""
    base = LaminarFamily(4, singletons(4).masks + (v({1, 2, 3}),))
    for even in (v({1, 2}), v({3, 4}), v({1, 2, 3, 4})):
        with pytest.raises(ValueError, match="even size"):
            extend_to_maximal_laminar(base, base.masks + (even,))


def test_maximality_refuses_a_family_of_another_size():
    face = perfect_matching_face(cycle_graph(4))
    for n in (2, 6):
        with pytest.raises(ValueError, match="family on"):
            goodness_check(face, singletons(n), 1)


def _check_scans(fam: LaminarFamily) -> None:
    """Every read of the parent map equals the scan it replaced."""
    n, masks = fam.n, list(fam.masks)
    assert ref.laminar_check(masks) == (True, None)
    for size in range(1, n + 1):
        assert fam.maximal_at_most(size) == ref.maximal_at_most(masks, size)
        group = [s for s in masks if size < s.bit_count() <= 2 * size]
        assert _disjoint_chains(fam, group) == ref.disjoint_chains(group)


def test_chains_of_a_nested_family():
    nested = [v(range(1, k + 1)) for k in (5, 7, 9, 11)]
    fam = LaminarFamily(12, singletons(12).masks + (v({2, 3, 4}),) + tuple(nested))
    _check_scans(fam)
    assert _disjoint_chains(fam, nested[:2]) == [tuple(nested[:2])]
    assert _disjoint_chains(fam, [v({2, 3, 4})] + nested) == [(v({2, 3, 4}), *nested)]
    assert fam.maximal_at_most(8) == (nested[1], v({8}), v({9}), v({10}), v({11}), v({12}))


def _walk(g):
    state = initial_state(g)
    yield state
    while state.threshold < g.n:
        state = advance(state)
        yield state


def test_forest_matches_scans_on_the_constructive_walk():
    rng = random.Random(14)
    states = 0
    for n in (4, 6, 8, 10):
        for p in (0.2, 0.35, 0.5):
            g = random_graph_with_pm(n, p, rng)
            prev = None
            for state in _walk(g):
                face, fam = state.face, state.laminar
                tight = tight_odd_sets(face)
                _check_scans(fam)
                assert _maximality_witness(face, fam) is None
                origin = prev or singletons(n)
                assert fam.masks == tuple(_set_sorted(ref.greedy_extension(origin.masks, tight)))
                bases = [singletons(n), origin]
                # Drop the largest members one at a time: each smaller
                # family has the scan's witness.
                bases += [LaminarFamily(n, fam.masks[:k]) for k in range(n, len(fam.masks))]
                for base in bases:
                    assert _maximality_witness(face, base) == ref.maximality_witness(tight, base.masks)
                    grown = extend_to_maximal_laminar(base, tight)
                    assert grown.masks == tuple(_set_sorted(ref.greedy_extension(base.masks, tight)))
                    _check_scans(grown)
                prev = fam
                states += 1
    assert states >= 30


odd_masks = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(1, (1 << n) - 1).filter(lambda s: s.bit_count() % 2), max_size=14),
    )
)


@given(odd_masks)
def test_constructor_raises_exactly_when_the_scan_finds_a_crossing(case):
    n, extra = case
    masks = singletons(n).masks + tuple(extra)
    ok, pair = ref.laminar_check(_set_sorted(set(masks)))
    if ok:
        fam = LaminarFamily(n, masks)
        assert fam.masks == tuple(_set_sorted(set(masks)))
        _check_scans(fam)
    else:
        with pytest.raises(ValueError, match="cross"):
            LaminarFamily(n, masks)


@given(odd_masks, odd_masks)
def test_greedy_placement_matches_the_scan_in_any_order(first, second):
    """Candidates come in the order drawn, so a placed set may land inside,
    around or between members already placed."""
    n = first[0]
    drawn = [s for s in first[1] + second[1] if s < 1 << n]
    half = len(drawn) // 2
    base = extend_to_maximal_laminar(singletons(n), singletons(n).masks + tuple(drawn[:half]))
    assert base.masks == tuple(_set_sorted(ref.greedy_extension(singletons(n).masks, drawn[:half])))
    candidates = base.masks + tuple(drawn[half:])
    fam = extend_to_maximal_laminar(base, candidates)
    assert fam.masks == tuple(_set_sorted(ref.greedy_extension(base.masks, candidates)))
    _check_scans(fam)
    for t in drawn:
        if t not in fam.parent:
            witness = _place(fam.parent, t, insert=False)
            assert witness in fam.parent and ref.crosses_any(t, [witness])
    parent = dict(base.parent)
    for t in drawn:
        if t not in base.parent:
            assert (_place(parent, t, insert=False) is None) == (not ref.crosses_any(t, base.masks))
    assert parent == base.parent
