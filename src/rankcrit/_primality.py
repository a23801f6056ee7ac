"""Deterministic Miller-Rabin primality for 64-bit integers."""

from __future__ import annotations

from itertools import chain

# Witnesses proving primality for all n < 3.3 * 10^24 (covers 64-bit inputs).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Witnesses that suffice below _SMALL_BOUND, the least strong pseudoprime to all three.
_SMALL_BASES = (2, 7, 61)
_SMALL_BOUND = 4759123141


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_BASES if n < _SMALL_BOUND else _MR_BASES:
        if a % n == 0:  # n = 61
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in(lo: int, hi: int, modulus: int = 1, residues: tuple[int, ...] = (0,)) -> list[int]:
    """All primes p with lo <= p <= hi and p % modulus in residues."""
    lo = max(lo, 2)
    classes = [range(lo + (res - lo) % modulus, hi + 1, modulus) for res in set(residues) if 0 <= res < modulus]
    return [n for n in sorted(chain.from_iterable(classes)) if is_prime(n)]
