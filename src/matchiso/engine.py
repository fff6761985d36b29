"""End-to-end isolation pipelines.

Randomized route: draw uniform edge weights until a unique minimum-weight
perfect matching exists, then certify it through the determinant search.

Constructive route: walk a face-laminar pair through doubling size
thresholds.  Each round makes the chain layers of mid-sized tight sets
contractible (one weight function per doubling phase), removes the short
alternating circuits of the contraction with one more weight function,
extends the laminar family maximally over the new tight sets, and verifies
the progress predicate before continuing.  One step, _apply_member,
discharges obligations: it scans the oblivious weight family for the
smallest member with nonzero inner product against every obligation
vector, minimizes the face under it and records it.  At threshold >= n the
face is a single matching; the logged members compose into one isolating
weight function which is cross-checked three ways (brute force, face
content, determinant search).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .graphs import (
    EdgeVector,
    EngineError,
    Graph,
    NoPerfectMatchingError,
    bit_positions,
)
from .weights import (
    WeightFunction,
    concatenate,
    random_weights,
    separating_weights,
)
from .faces import (
    Face,
    LaminarFamily,
    bounded_circuit_vectors,
    contract_face,
    extend_to_maximal_laminar,
    forcing_groups,
    goodness_check,
    is_contractible,
    lift_contracted_vector,
    min_weight_subface,
    perfect_matching_face,
    respects_face,
    singletons,
    tight_odd_sets,
)
from .tutte import STATUS_MATCHED, STATUS_NO_PM, determinant_search


class TrialsExhausted(RuntimeError):
    """The randomized route ran out of trials without isolating."""


@dataclass(frozen=True)
class PhaseRecord:
    """One applied weight function: which phase produced it, the family
    index it came from, how many obligation vectors it separated, and
    whether minimizing it actually shrank the face."""

    label: str
    k: int
    weights: WeightFunction
    obligations: int
    changed_face: bool


@dataclass(frozen=True)
class FaceLaminarState:
    face: Face
    laminar: LaminarFamily
    threshold: int
    weight_log: tuple[PhaseRecord, ...] = ()


@dataclass(frozen=True)
class IsolationCertificate:
    weight: WeightFunction
    matching: int  # edge mask
    audit: tuple[PhaseRecord, ...]
    trials: int | None = None


def ceil_log2(n: int) -> int:
    return max(1, (n - 1).bit_length())


def _apply_member(face: Face, vectors, label: str, obligations: int) -> tuple[PhaseRecord, Face]:
    """The one step that applies a family member: the smallest member
    separating the vectors, the face minimized under it, and its record."""
    k, w = separating_weights(vectors, face.g.n, face.g.m)
    new_face = min_weight_subface(face, w)
    return PhaseRecord(label, k, w, obligations, new_face is not face), new_face


def remove_circuits(
    face: Face,
    fam: LaminarFamily,
    bound: int,
    beta: int,
) -> tuple[PhaseRecord, Face]:
    """Apply one weight function after which no alternating circuit of
    node-weight <= bound in the beta-contraction respects the new face.

    Every member of the family with size <= beta must be contractible for
    the face (the lifting step needs the forced interiors).  The circuit
    vectors are lifted to ambient edge vectors, a separating family member
    is found for them, and the face is minimized; the postcondition is then
    verified circuit by circuit.  Raises when a member is not tight for
    the face.
    """
    h = contract_face(face, fam, beta)
    circuit_vecs = bounded_circuit_vectors(h, bound)
    lifted = [lift_contracted_vector(z, face, h) for z in circuit_vecs]
    record, new_face = _apply_member(face, lifted, f"circuits:bound={bound},beta={beta}", len(circuit_vecs))
    for z in circuit_vecs:
        if respects_face(z, new_face, contraction=h):
            raise EngineError(f"circuit vector {z} still respects the face after removal")
    return record, new_face


def chain_phase_spans(longest: int, n: int) -> tuple[tuple[int, int], ...]:
    """Schedule of the chain phases after the first: phase t covers every
    layer spanning up to 2^(t-1) - 1 chain steps.  Phases stop once the
    previous one already covered the longest chain, and never exceed
    ceil(log2 n); a chain has fewer than n/2 sets, so that always suffices.
    """
    spans = []
    t = 2
    while 2 ** (t - 2) - 1 < longest - 1 and t <= ceil_log2(n):
        spans.append((t, 2 ** (t - 1) - 1))
        t += 1
    return tuple(spans)


def _disjoint_chains(fam: LaminarFamily, group: list[int]) -> list[tuple[int, ...]]:
    """Ascending chains of the members in group, a size range of the family
    in which each has at most one child, read off the family's parent map."""
    inside = set(group)
    up = {s: p for s in group if (p := fam.parent[s]) in inside}
    has_child = set(up.values())
    chains = [[s] for s in group if s not in has_child]
    for chain in chains:
        while chain[-1] in up:
            chain.append(up[chain[-1]])
    return [tuple(chain) for chain in chains]


def _layer_difference_vectors(face: Face, hi: int, lo: int = 0) -> set[EdgeVector]:
    """Obligations that make the layer hi - lo of two nested chain sets
    (lo = 0: the set hi) contractible: for each boundary pair that the
    face's matchings use, the differences of the distinct interior
    matchings a, b that the face still allows."""
    out: set[EdgeVector] = set()
    for inners in forcing_groups(face, hi, lo).values():
        for a, b in combinations(inners, 2):
            out.add(EdgeVector.of({j: 1 if a >> (j - 1) & 1 else -1 for j in bit_positions(a ^ b)}))
    return out


def make_chains_contractible(
    face: Face,
    fam: LaminarFamily,
    threshold: int,
) -> tuple[tuple[PhaseRecord, ...], Face]:
    """Make every laminar member of size <= 2*threshold contractible.

    Members of size in (threshold, 2*threshold] form disjoint chains.  Phase
    one removes short circuits from the threshold-contraction, which forces
    the single layers.  Phase t then handles layers spanning up to 2^(t-1)
    chain steps; with both halves of a layer already forced, the layer
    admits few interior matchings and their pairwise differences become the
    obligation vectors.  The final contractibility of every small member is
    verified before returning.
    """
    g = face.g
    chain_sets = [s for s in fam.masks if threshold < s.bit_count() <= 2 * threshold]
    records: list[PhaseRecord] = []
    cur = face
    if chain_sets:
        rec, cur = remove_circuits(cur, fam, bound=2 * threshold, beta=threshold)
        records.append(rec)
        chains = _disjoint_chains(fam, chain_sets)
        longest = max(len(c) for c in chains)
        for t, span in chain_phase_spans(longest, g.n):
            obligations: set[EdgeVector] = set()
            for chain in chains:
                # Layers hi - lo: lo is chain[p - 1] (none for p = 0), hi is
                # chain[p] or one of the span sets above it.
                for p in range(len(chain)):
                    lo = chain[p - 1] if p else 0
                    for hi in chain[p : p + span + 1]:
                        obligations |= _layer_difference_vectors(cur, hi, lo)
            if obligations:
                label = f"chain:phase={t},threshold={threshold}"
                rec, cur = _apply_member(cur, obligations, label, len(obligations))
                records.append(rec)
    for s in fam.masks:
        if s.bit_count() <= 2 * threshold and not is_contractible(cur, s):
            raise EngineError(f"set {list(bit_positions(s))} not contractible after chain phases")
    return tuple(records), cur


def initial_state(g: Graph) -> FaceLaminarState:
    """The whole polytope with a maximal laminar family; always 1-good."""
    face = perfect_matching_face(g)
    fam = extend_to_maximal_laminar(singletons(g.n), tight_odd_sets(face))
    report = goodness_check(face, fam, 1)
    if not report.ok:
        raise EngineError(f"initial pair not 1-good: {report}")
    return FaceLaminarState(face, fam, 1)


def advance(state: FaceLaminarState) -> FaceLaminarState:
    """From a threshold-good state to a verified (2*threshold)-good state."""
    th = state.threshold
    chain_records, f_mid = make_chains_contractible(state.face, state.laminar, th)
    final_record, f_out = remove_circuits(f_mid, state.laminar, bound=2 * th, beta=2 * th)
    records = chain_records + (final_record,)
    if len(records) > ceil_log2(state.face.g.n) + 1:
        raise EngineError("round used more weight functions than its budget")
    fam_out = extend_to_maximal_laminar(state.laminar, tight_odd_sets(f_out))
    report = goodness_check(f_out, fam_out, 2 * th)
    if not report.ok:
        raise EngineError(
            f"advance failed verification at threshold {2 * th}: "
            f"{report.failed} witness {report.witness}"
        )
    return FaceLaminarState(f_out, fam_out, 2 * th, state.weight_log + records)


def compose_log(records: tuple[PhaseRecord, ...], n: int, m: int) -> WeightFunction:
    """Fold the face-changing members into one weight function.

    Each concatenation uses the smallest dominating padding, which realizes
    exactly the same lexicographic order on matchings as the generic padding
    while keeping values small enough for exact determinant work.  Members
    whose minimization left the face unchanged are no-ops and are skipped.
    A final pointwise +1 shift (applied only if some edge got weight zero)
    adds the same constant to every perfect matching, preserving the order.
    """
    effective = [r.weights for r in records if r.changed_face]
    if not effective:
        return WeightFunction(n, (1,) * m, provenance="constant")
    w = effective[0]
    for nxt in effective[1:]:
        padding = (n // 2) * max(nxt.values, default=0) + 1
        w = concatenate(w, nxt, padding)
    if any(v == 0 for v in w.values):
        w = WeightFunction(w.n, tuple(v + 1 for v in w.values), w.provenance)
    return w


def isolate_derandomized(g: Graph) -> IsolationCertificate:
    """Run the constructive pipeline to a certificate.

    Doubles the threshold ceil(log2 n) times, then cross-validates the
    composed weight function three independent ways: the brute-force
    minimum is unique, it equals the singleton face content, and the
    determinant search returns the same matching.  The brute force weighs
    the perfect matchings of the starting face, enumerated once.
    """
    state = initial_state(g)
    start = state.face
    while state.threshold < g.n:
        state = advance(state)
    if len(state.face) != 1:
        raise EngineError("face is not a singleton at threshold >= n")
    matching = state.face.matchings[0]
    rounds = ceil_log2(g.n)
    if len(state.weight_log) > (rounds + 1) * rounds:
        raise EngineError("weight log exceeds the concatenation budget")
    w = compose_log(state.weight_log, g.n, g.m)
    best = min_weight_subface(start, w)
    if len(best) != 1:
        raise EngineError("composed weight function is not isolating")
    if best.matchings[0] != matching:
        raise EngineError("brute-force minimizer disagrees with the singleton face")
    outcome = determinant_search(g, w)
    if outcome.status != STATUS_MATCHED or outcome.matching != matching:
        raise EngineError(f"determinant search disagrees: {outcome.status}")
    return IsolationCertificate(weight=w, matching=matching, audit=state.weight_log)


def isolate_randomized(g: Graph, seed: int, max_trials: int = 64) -> IsolationCertificate:
    """Draw random weights until the determinant search certifies one.

    The search's verdict is exact at every size (the blossom algorithm
    confirms that the matching it reads off the digits is the unique
    minimum), so the first trial it reports as matched is the first one
    whose weights isolate.  The search's blossom call also settles a
    vanishing determinant, so the first trial raises NoPerfectMatchingError
    when the graph has no perfect matching.  Each failed trial happens with
    probability at most 1/2, so exhausting max_trials has probability at
    most 2^-max_trials.
    """
    rng = random.Random(seed)
    for trial in range(1, max_trials + 1):
        w = random_weights(g, rng.randrange(1 << 63))
        outcome = determinant_search(g, w)
        if outcome.status == STATUS_NO_PM:
            raise NoPerfectMatchingError(g)
        if outcome.status != STATUS_MATCHED:
            continue
        record = PhaseRecord(
            label=f"random:trial={trial}", k=0, weights=w, obligations=0, changed_face=True
        )
        return IsolationCertificate(
            weight=w, matching=outcome.matching, audit=(record,), trials=trial
        )
    raise TrialsExhausted(f"no isolating weights in {max_trials} trials")
