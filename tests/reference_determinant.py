"""Two exact determinants of integer rows, kept as test-only differential
oracles for the one the library computes (the D of tutte._inverse):

- the forward-only fraction-free (Bareiss) elimination that
  tutte.determinant once ran;
- the modular-CRT determinant it once offered beside it: the exact value
  from its residues modulo enough primes above 2^30 to exceed the Hadamard
  bound, recovered by the Chinese remainder theorem.
"""

import math

from matchiso.tutte import _det_mod, is_prime

_PRIME_FLOOR = 1 << 30
_prime_cache: list[int] = []


def _primes_above_floor(count: int) -> list[int]:
    """Smallest `count` primes above 2^30, cached across calls."""
    candidate = _prime_cache[-1] + 1 if _prime_cache else _PRIME_FLOOR + 1
    while len(_prime_cache) < count:
        if is_prime(candidate):
            _prime_cache.append(candidate)
        candidate += 2 if candidate % 2 else 1
    return _prime_cache[:count]


def _crt(residues: list[int], moduli: list[int]) -> int:
    total = 0
    product = math.prod(moduli)
    for r, p in zip(residues, moduli):
        q = product // p
        total += r * q * pow(q, p - 2, p)
    return total % product


def bareiss_determinant(rows: list[list[int]]) -> int:
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


def crt_determinant(rows: list[list[int]]) -> int:
    """Exact determinant from residues; reads the rows without changing them."""
    n = len(rows)
    if n == 0:
        return 1
    max_entry = max((abs(x) for row in rows for x in row), default=0)
    if max_entry == 0:
        return 0
    # |det| <= n^(n/2) * B^n; take enough primes for the symmetric range.
    bound = 2 * pow(n, (n + 1) // 2) * pow(max_entry, n) + 1
    primes: list[int] = []
    product = 1
    i = 0
    while product <= bound:
        i += 1
        primes = _primes_above_floor(i)
        product = math.prod(primes)
    residues = []
    for p in primes:
        residues.append(_det_mod([[x % p for x in row] for row in rows], p))
    value = _crt(residues, primes)
    if value > product // 2:
        value -= product
    return value
