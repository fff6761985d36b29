"""Tutte matrices over powers of two, the exact determinant, the modular
existence test, and the determinant-digit search for an isolated perfect
matching.

The matrix of a graph has entry +2^w(e) at (u, v) and -2^w(e) at (v, u) for
every edge e = (u, v) with u < v.  When a unique perfect matching M attains
the minimum total weight, the determinant is nonzero and its 2-adic
valuation equals 2 w(M); removing an edge of M makes that lowest digit
disappear, which is what the search exploits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import EngineError, Graph, bit_positions, is_perfect_matching, min_weight_perfect_matching
from .weights import WeightFunction

STATUS_MATCHED = "matched"
STATUS_NO_PM = "no-perfect-matching"
STATUS_NOT_ISOLATING = "isolation-failure"


@dataclass(frozen=True)
class TutteMatrix:
    """Skew-symmetric integer matrix with zero diagonal."""

    size: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.size or any(len(r) != self.size for r in self.rows):
            raise ValueError("matrix shape mismatch")
        for i in range(self.size):
            if self.rows[i][i] != 0:
                raise ValueError("nonzero diagonal")
            for j in range(i + 1, self.size):
                if self.rows[i][j] != -self.rows[j][i]:
                    raise ValueError("matrix not skew-symmetric")


def _ord2(x: int) -> int:
    """Largest k with 2^k dividing x, for x != 0."""
    return (x & -x).bit_length() - 1


@dataclass(frozen=True)
class DeterminantResult:
    """The exact determinant of a Tutte matrix."""

    value: int


def _tutte_rows(g: Graph, entries: list[int]) -> list[list[int]]:
    """The rows of the skew matrix with entries[j] at (u, v) and -entries[j]
    at (v, u) for the edge (u, v), u < v, of id j + 1."""
    rows = [[0] * g.n for _ in range(g.n)]
    for (u, v), x in zip(g.edges, entries):
        rows[u - 1][v - 1] = x
        rows[v - 1][u - 1] = -x
    return rows


def build_tutte_matrix(g: Graph, w: WeightFunction) -> TutteMatrix:
    if w.m != g.m:
        raise ValueError(f"weight function covers {w.m} edges, graph has {g.m}")
    rows = _tutte_rows(g, [1 << x for x in w.values])  # 2^w(e), exact
    return TutteMatrix(g.n, tuple(tuple(r) for r in rows))


def _bareiss(rows: list[list[int]]) -> int:
    """Fraction-free elimination; exact integer determinant, destructive."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            row_i = rows[i]
            row_k = rows[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - rik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def _det_mod(rows: list[list[int]], p: int) -> int:
    """Gaussian elimination over GF(p), reading every entry mod p, so the
    rows may hold any integers; destructive."""
    n = len(rows)
    det = 1
    for k in range(n):
        pivot_row = None
        for i in range(k, n):
            if rows[i][k] % p:
                pivot_row = i
                break
        if pivot_row is None:
            return 0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            det = -det
        pivot = rows[k][k] % p
        det = det * pivot % p
        inv = pow(pivot, p - 2, p)
        for i in range(k + 1, n):
            factor = rows[i][k] * inv % p
            if factor:
                row_i = rows[i]
                row_k = rows[k]
                for j in range(k, n):
                    row_i[j] = (row_i[j] - factor * row_k[j]) % p
    return det % p


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to all of _MR_BASES (Sorenson and Webster, Math. Comp. 2017).
MR_BOUND = 3317044064679887385961981


def is_prime(x: int) -> bool:
    """Deterministic Miller-Rabin for x < MR_BOUND, about 3.3e24."""
    if x < 2:
        return False
    for p in _MR_BASES:
        if x % p == 0:
            return x == p
    d = x - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def determinant(matrix: TutteMatrix) -> DeterminantResult:
    """Exact determinant, by fraction-free elimination."""
    return DeterminantResult(_bareiss([list(r) for r in matrix.rows]))


def decide_random(g: Graph, prime: int, trials: int, seed: int) -> bool:
    """Randomized existence test: substitute uniform field elements for the
    indeterminates and check det != 0 mod prime.

    One-sided: a True answer is always correct; a False answer is wrong with
    probability at most (n / prime)^trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if prime >= MR_BOUND:
        raise ValueError(f"prime {prime} is not below the primality-test bound {MR_BOUND}")
    if not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if prime <= g.n * g.n:
        raise ValueError(f"prime {prime} too small, need > n^2 = {g.n * g.n}")
    rng = random.Random(seed)
    for _ in range(trials):
        rows = _tutte_rows(g, [rng.randrange(prime) for _ in range(g.m)])
        if _det_mod(rows, prime) != 0:
            return True
    return False


@dataclass(frozen=True)
class EdgeVerdict:
    edge: int
    det_is_zero: bool
    ord2: int | None
    selected: bool


@dataclass(frozen=True)
class SearchOutcome:
    """Result of the determinant-digit search.

    status is one of "matched", "no-perfect-matching", "isolation-failure".
    The last is a data outcome, not an error: it reports that the supplied
    weights did not isolate a unique minimum-weight perfect matching.
    ``matching`` is the matched edge mask, None unless matched.
    """

    status: str
    matching: int | None
    weight: int | None
    det_bits: int
    target_ord2: int | None
    verdicts: tuple[EdgeVerdict, ...]
    reason: str | None = None


def _inverse(rows: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination, in place; destructive.

    Returns (D, R) with D = +-det A (the sign of the row swaps) and
    R = D * A^-1, an integer matrix; (0, []) when A is singular.  Every
    division is exact because each entry stays a minor of [A | I] (Bareiss
    1968, extended to the rows above the pivot).  Only n of the 2n columns
    of [A | I] carry information at any step: the pivot turns left column k
    into a unit column and brings right column k to life, so the latter
    takes the former's place.  A row swap exchanges the names of two right
    columns that are still units, recorded in ``name``.
    """
    n = len(rows)
    name = list(range(n))
    prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    name[k], name[i] = name[i], name[k]
                    break
            else:
                return 0, []
        top = rows[k]
        pivot = top[k]
        for i in range(n):
            if i == k:
                continue
            row = rows[i]
            f = row[k]
            if f:
                row = [(pivot * x - f * y) // prev for x, y in zip(row, top)]
            else:
                row = [pivot * x // prev for x in row]
            row[k] = -f
            rows[i] = row
        top[k] = prev
        prev = pivot
    out = [[0] * n for _ in range(n)]
    for c, true_c in enumerate(name):
        for r in range(n):
            out[r][true_c] = rows[r][c]
    return prev, out


def determinant_search(g: Graph, w: WeightFunction) -> SearchOutcome:
    """Find the unique minimum-weight perfect matching, and say so exactly.

    One fraction-free inversion yields D = +-det T and R = D * T^-1.
    Removing edge e = (u, v), u < v, is a rank-2 skew update, so
    det(T - e) = s^2 / |D| with s = D - 2^w(e) * R[v][u]: the per-edge
    determinant is zero iff s = 0 and otherwise has 2-adic valuation
    2 ord2(s) - ord2(D).  The edges whose removal kills the lowest digit
    2^(2 W*) are selected (Mulmuley, Vazirani and Vazirani 1987).

    The digit test alone can be fooled when w does not isolate: equal
    minimum terms of the Pfaffian may cancel and move the lowest digit.  So
    the verdict is settled by the blossom algorithm: the candidate M is
    reported as matched only if it is a minimum under
    (n/2 + 1) * w + chi_M, which holds exactly when M is the unique minimum
    under w.  A vanishing determinant is reported as no-perfect-matching
    only when no perfect matching exists, and as isolation-failure
    otherwise.
    """
    if w.m != g.m:
        raise ValueError(f"weight function covers {w.m} edges, graph has {g.m}")
    if any(x < 1 for x in w.values):
        raise ValueError("search requires strictly positive weights")
    d, adj = _inverse(_tutte_rows(g, [1 << x for x in w.values]))
    if d == 0:
        if min_weight_perfect_matching(g, w.values) is None:
            return SearchOutcome(STATUS_NO_PM, None, None, 0, None, ())
        return SearchOutcome(
            STATUS_NOT_ISOLATING, None, None, 0, None, (),
            reason="determinant vanishes although a perfect matching exists",
        )
    target = _ord2(d)
    if target % 2:
        raise EngineError(f"skew-symmetric determinant has odd 2-adic valuation {target}")
    verdicts = []
    candidate = 0
    for edge_id, ((u, v), x) in enumerate(zip(g.edges, w.values), start=1):
        s = d - (adj[v - 1][u - 1] << x)
        ord2 = None if s == 0 else 2 * _ord2(s) - target
        hit = ord2 is None or ord2 > target
        verdicts.append(EdgeVerdict(edge_id, s == 0, ord2, hit))
        if hit:
            candidate |= 1 << (edge_id - 1)
    det_bits = abs(d).bit_length()

    def failure(reason: str) -> SearchOutcome:
        return SearchOutcome(
            STATUS_NOT_ISOLATING, None, None, det_bits, target, tuple(verdicts), reason=reason
        )

    if not is_perfect_matching(g, candidate):
        return failure("selected edges do not form a perfect matching")
    weight = w.matching_weight(candidate)
    if 2 * weight != target:
        return failure(f"matching weight {weight} inconsistent with digit position {target}")
    scale = g.n // 2 + 1
    shifted = [scale * x + (candidate >> j & 1) for j, x in enumerate(w.values)]
    best = min_weight_perfect_matching(g, shifted)
    if best is None:
        raise EngineError("blossom algorithm lost the candidate's perfect matching")
    gap = sum(shifted[j - 1] for j in bit_positions(candidate))
    gap -= sum(shifted[j - 1] for j in bit_positions(best))
    if gap < 0:
        raise EngineError("blossom algorithm returned a non-minimum perfect matching")
    if gap > 0:
        return failure(f"matching weight {weight} is not the unique minimum")
    return SearchOutcome(
        STATUS_MATCHED, candidate, weight, det_bits, target, tuple(verdicts)
    )
