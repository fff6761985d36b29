"""The paper's structural lemmas on faces, kept as test oracles: the
tightness predicate, the uncrossing of two crossing tight sets, and the
exact check that a maximal laminar family of tight sets spans the boundary
vectors of all of them on the face's support.  The library relies on these
lemmas and never runs them; the tests check them on every corpus face."""

import math
from dataclasses import dataclass

from matchiso.faces import Face, LaminarFamily, _check_vertex_mask, _maximality_witness, tight_odd_sets
from matchiso.graphs import EngineError, bit_positions

from reference_laminar import crossing


def is_tight(face: Face, s: int) -> bool:
    """Tightness of a vertex mask, read from the face's tight sets."""
    _check_vertex_mask(s, face.g.n)
    return s in face._tight_set


def _reduce_row(row: list[int], basis: list[tuple[int, list[int]]]) -> list[int]:
    """Fraction-free reduction of an integer row against pivoted basis rows."""
    for piv, brow in basis:
        c = row[piv]
        if c:
            b = brow[piv]
            for i in range(len(row)):
                row[i] = b * row[i] - c * brow[i]
            g = 0
            for x in row:
                g = math.gcd(g, x)
            if g > 1:
                row = [x // g for x in row]
    return row


def laminar_spans_tight_cuts(face: Face, fam: LaminarFamily) -> bool:
    """Exact rational check that the boundary vectors of the laminar family
    span those of all tight sets, restricted to the support of the face.

    Raises if fam is not a maximal laminar subset of tight(face).
    """
    g = face.g
    bad = _maximality_witness(face, fam)
    tight = tight_odd_sets(face)
    if bad is not None:
        raise ValueError(f"not a maximal laminar family of tight sets: {list(bit_positions(bad))}")
    support = bit_positions(face.support_mask)

    def restricted(s: int) -> list[int]:
        dm = g.delta_mask(s)
        return [(dm >> (j - 1)) & 1 for j in support]

    basis: list[tuple[int, list[int]]] = []
    for s in fam.masks:
        row = _reduce_row(restricted(s), basis)
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is not None:
            basis.append((piv, row))
    return not any(any(_reduce_row(restricted(t), basis)) for t in tight)


@dataclass(frozen=True)
class UncrossCertificate:
    sets: tuple[int, int]
    odd_intersection: bool
    lhs_on_support: tuple[int, ...]
    rhs_on_support: tuple[int, ...]


def uncross_pair(s: int, t: int, face: Face) -> tuple[int, int, UncrossCertificate]:
    """Replace a crossing pair of tight sets by a non-crossing tight pair.

    Odd intersection gives (S&T, S|T), even gives (S-T, T-S); in both cases
    the boundary-indicator identity holds coordinatewise on the support of
    the face, and both returned sets are verified tight.
    """
    if not is_tight(face, s) or not is_tight(face, t):
        raise ValueError("both sets must be tight for the face")
    if not crossing(s, t):
        raise ValueError("sets do not cross")
    odd = (s & t).bit_count() % 2 == 1
    a, b = (s & t, s | t) if odd else (s & ~t, t & ~s)
    shifts = [j - 1 for j in bit_positions(face.support_mask)]
    delta = face.g.delta_mask

    def on_support(x: int, y: int) -> tuple[int, ...]:
        dx, dy = delta(x), delta(y)
        return tuple((dx >> j & 1) + (dy >> j & 1) for j in shifts)

    lhs = on_support(s, t)
    rhs = on_support(a, b)
    if lhs != rhs:
        raise EngineError("uncrossing identity failed on the face support")
    if not is_tight(face, a) or not is_tight(face, b):
        raise EngineError("uncrossed sets are not tight")
    return a, b, UncrossCertificate((a, b), odd, lhs, rhs)
