"""The scans that LaminarFamily's parent map replaced, kept as test oracles.
Each one rescans a family of vertex masks pairwise or from the largest
member down, where the library places a set in the forest of the family
once."""


def crossing(s, t) -> bool:
    """S and T cross when S&T, S-T and T-S are all nonempty: S&T is neither
    empty nor S nor T, for two vertex masks."""
    common = s & t
    return bool(common) and common != s and common != t


def laminar_check(sets) -> tuple[bool, tuple | None]:
    """True iff pairwise non-crossing; otherwise also the first crossing pair
    in scan order."""
    seq = list(sets)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if crossing(seq[i], seq[j]):
                return False, (seq[i], seq[j])
    return True, None


def crosses_any(s: int, masks) -> bool:
    return any(crossing(s, t) for t in masks)


def greedy_extension(base_masks, candidates) -> list[int]:
    """The members that extend_to_maximal_laminar keeps: the base, then each
    candidate in the order given that crosses none kept so far."""
    chosen = list(base_masks)
    for s in candidates:
        if s not in chosen and not crosses_any(s, chosen):
            chosen.append(s)
    return chosen


def maximality_witness(tight, masks) -> int | None:
    """A member that is not tight, or a tight set that the family could
    take without crossing; None when the family is maximal."""
    for s in masks:
        if s not in tight:
            return s
    return next((t for t in tight if t not in masks and not crosses_any(t, masks)), None)


def maximal_at_most(masks, size: int) -> tuple[int, ...]:
    """Scanning from the largest of masks in (size, lexicographic) order, a
    member of size <= size is maximal iff it misses those kept."""
    covered, out = 0, []
    for s in reversed(masks):
        if s.bit_count() <= size and not s & covered:
            out.append(s)
            covered |= s
    return tuple(sorted(out, key=lambda s: s & -s))


def disjoint_chains(group) -> list[tuple[int, ...]]:
    """Nested masks, each with at most one child, as ascending chains; a
    set's parent is its smallest strict superset in the group."""
    gs = sorted(group, key=int.bit_count)
    parent = {s: next((t for t in gs if s & t == s != t), None) for s in gs}
    chains = []
    for s in gs:
        if any(t & s == t != s for t in gs):
            continue
        chain = [s]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        chains.append(tuple(chain))
    return chains
