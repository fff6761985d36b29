"""The modular-CRT determinant that tutte.determinant once offered beside
its fraction-free one, kept as a test-only differential oracle: the exact
value from its residues modulo enough primes above 2^30 to exceed the
Hadamard bound, recovered by the Chinese remainder theorem."""

import math

from matchiso.tutte import TutteMatrix, _det_mod, is_prime

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


def crt_determinant(matrix: TutteMatrix) -> int:
    n = matrix.size
    if n == 0:
        return 1
    max_entry = max((abs(x) for row in matrix.rows for x in row), default=0)
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
        rows = [[x % p for x in row] for row in matrix.rows]
        residues.append(_det_mod(rows, p))
    value = _crt(residues, primes)
    if value > product // 2:
        value -= product
    return value
