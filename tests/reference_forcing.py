"""The three "a boundary edge forces the interior" scans that
faces.forcing_groups replaced, kept as test oracles: each one rescans the
face's matchings for every boundary edge or pair it is asked about."""

from itertools import combinations

from dense_vectors import canonical_sign
from matchiso.graphs import EngineError, bit_positions


def forced_interiors(face, boundary: int, interior: int) -> bool:
    """True iff the matchings through each edge of a tight set's boundary
    agree inside; each matching has exactly one boundary edge to group by."""
    seen = {}
    for mm in face.matchings:
        inner = mm & interior
        if seen.setdefault(mm & boundary, inner) != inner:
            return False
    return True


def contractible(face, hi: int, lo: int = 0) -> bool:
    """Contractibility of the tight set hi, or of the layer hi - lo."""
    g = face.g
    return forced_interiors(face, g.delta_mask(lo) | g.delta_mask(hi), g.interior_mask(hi & ~lo))


def forced_interior(face, node: int, eid: int) -> int:
    """The interior of node in every matching of the face through edge eid."""
    bit, interior, inner = 1 << (eid - 1), face.g.interior_mask(node), None
    for mm in face.matchings:
        if mm & bit:
            part = mm & interior
            if inner is None:
                inner = part
            elif part != inner:
                raise ValueError("contractibility precondition violated")
    if inner is None:
        raise EngineError("boundary edge vanished from the face support")
    return inner


def lift(z, face, h) -> tuple[int, ...]:
    """lift_contracted_vector's insertion of forced interiors, without its
    input checks."""
    g = face.g
    y = list(z)
    for node in h.nodes:
        if node.bit_count() == 1:
            continue
        pos, neg = [], []
        for eid in bit_positions(g.delta_mask(node)):
            pos += [eid] * max(z[eid - 1], 0)
            neg += [eid] * max(-z[eid - 1], 0)
        for e_plus, e_minus in zip(pos, neg):
            for eid in bit_positions(forced_interior(face, node, e_plus)):
                y[eid - 1] += 1
            for eid in bit_positions(forced_interior(face, node, e_minus)):
                y[eid - 1] -= 1
    return tuple(y)


def layer_difference_vectors(face, hi: int, lo: int = 0) -> set[tuple[int, ...]]:
    """For each pair of boundary edges of lo and hi (each boundary edge of
    hi when lo = 0), the differences of the distinct interiors of the
    matchings through both."""
    g = face.g
    interior = g.interior_mask(hi & ~lo)
    lo_ids = bit_positions(g.delta_mask(lo)) if lo else [None]
    out = set()
    for e_lo in lo_ids:
        bit_lo = 0 if e_lo is None else 1 << (e_lo - 1)
        for e_hi in bit_positions(g.delta_mask(hi)):
            need = bit_lo | 1 << (e_hi - 1)
            interiors = {mm & interior for mm in face.matchings if mm & need == need}
            for a, b in combinations(sorted(interiors), 2):
                vec = [0] * g.m
                for j in bit_positions(a & ~b):
                    vec[j - 1] = 1
                for j in bit_positions(b & ~a):
                    vec[j - 1] = -1
                out.add(canonical_sign(vec))
    return out
