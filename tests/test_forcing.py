"""The forcing primitive against the scans it replaced.

faces.forcing_groups groups a face's matchings by their boundary edges
once; contractibility, lifting and the chain-layer obligations read it.
reference_forcing.py keeps the old per-edge scans.  Both must agree on
seeded random faces with 8 to 12 vertices and on a min-weight subface of
each.
"""

import random

import pytest

from matchiso.engine import (
    _layer_difference_vectors,
    advance,
    initial_state,
    make_chains_contractible,
)
from matchiso.faces import (
    bounded_circuit_vectors,
    contract_face,
    extend_to_maximal_laminar,
    forcing_groups,
    is_contractible,
    lift_contracted_vector,
    min_weight_subface,
    perfect_matching_face,
    singletons,
    tight_odd_sets,
)
from matchiso.graphs import dense_sorted
from matchiso.weights import WeightFunction

import reference_forcing as ref
from conftest import random_graph_with_pm
from dense_vectors import canonical_sign, to_dense, to_sparse

CASES = [(n, seed) for n in (8, 10, 12) for seed in range(3)]


def faces_of(n: int, seed: int):
    """A seeded graph, its whole face, and the subface minimizing 0/1
    weights, which usually keeps several matchings."""
    rng = random.Random(f"forcing:{n}:{seed}")
    g = random_graph_with_pm(n, rng.uniform(0.3, 0.5), rng)
    face = perfect_matching_face(g)
    w = WeightFunction(n, tuple(int(rng.random() < 0.3) for _ in range(g.m)))
    return g, (face, min_weight_subface(face, w))


def dense_set(vectors, m: int) -> set[tuple[int, ...]]:
    return {to_dense(v, m) for v in vectors}


def nested_pairs(fam):
    return [(lo, hi) for hi in fam.masks for lo in fam.masks if lo & hi == lo != hi]


@pytest.mark.parametrize("n,seed", CASES)
def test_contractibility_matches_scan(n, seed):
    g, faces = faces_of(n, seed)
    for face in faces:
        tight = tight_odd_sets(face)
        for s in tight:
            assert is_contractible(face, s) == ref.contractible(face, s)
        fam = extend_to_maximal_laminar(singletons(n), tight)
        for lo, hi in nested_pairs(fam):
            groups = forcing_groups(face, hi, lo)
            assert all(len(inners) == 1 for inners in groups.values()) == ref.contractible(face, hi, lo)


@pytest.mark.parametrize("n,seed", CASES)
def test_layer_obligations_match_scan(n, seed):
    g, faces = faces_of(n, seed)
    for face in faces:
        fam = extend_to_maximal_laminar(singletons(n), tight_odd_sets(face))
        for hi in fam.masks:
            assert dense_set(_layer_difference_vectors(face, hi), g.m) == ref.layer_difference_vectors(face, hi)
        for lo, hi in nested_pairs(fam):
            assert dense_set(_layer_difference_vectors(face, hi, lo), g.m) == ref.layer_difference_vectors(face, hi, lo)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def compare_lifts(face, fam, threshold, bound) -> tuple[int, int]:
    """Lift the first circuit vectors of the contraction both ways; count
    the lifts that inserted interiors and the refusals."""
    h = contract_face(face, fam, threshold)
    m = face.g.m
    lifted = refused = 0
    for z in dense_sorted(bounded_circuit_vectors(h, bound), m)[:40]:
        got = outcome(lift_contracted_vector, z, face, h)
        want = outcome(ref.lift, to_dense(z, m), face, h)
        if isinstance(want, tuple):  # the lift is canonical; the scan's is not
            want = to_sparse(canonical_sign(want))
        assert got == want
        lifted += isinstance(got, tuple) and got != z
        refused += got is ValueError
    return lifted, refused


def test_lifted_vectors_match_scan():
    """On the seeded faces, contracted at every member size, where some
    nodes are not contractible, and on the faces of the derandomization
    walk, where the small members are."""
    counts = []
    for n, seed in CASES:
        g, faces = faces_of(n, seed)
        for face in faces:
            fam = extend_to_maximal_laminar(singletons(n), tight_odd_sets(face))
            for threshold in sorted({s.bit_count() for s in fam.masks}):
                counts.append(compare_lifts(face, fam, threshold, min(2 * threshold, 8)))
        state = initial_state(g)
        while state.threshold < n:
            th = state.threshold
            _, f_mid = make_chains_contractible(state.face, state.laminar, th)
            counts.append(compare_lifts(f_mid, state.laminar, 2 * th, 2 * th))
            state = advance(state)
    lifted, refused = map(sum, zip(*counts))
    assert lifted > 0 and refused > 0
