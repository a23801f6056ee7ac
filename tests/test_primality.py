from hypothesis import given, settings
from hypothesis import strategies as st

from rankcrit._primality import is_prime, primes_in


def _sieve(n: int) -> bytearray:
    flags = bytearray([1]) * n
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(range(i * i, n, i)))
    return flags


def test_matches_sieve_below_2e5():
    flags = _sieve(200_000)
    assert [n for n in range(200_000) if is_prime(n)] == [n for n in range(200_000) if flags[n]]


def test_first_strong_pseudoprime_to_2_7_61_is_composite():
    assert 4759123141 == 48781 * 97561
    assert not is_prime(4759123141)


def test_base_61_is_needed():
    # 314821 = 13 * 61 * 397 is the least strong pseudoprime to bases 2 and 7
    assert 314821 == 13 * 61 * 397
    assert not is_prime(314821)


def test_mersenne_61_is_prime():
    assert is_prime(2 ** 61 - 1)


def test_primes_in_congruence_class():
    assert primes_in(2, 100, 16, (1, 9)) == [17, 41, 73, 89, 97]
    assert primes_in(2, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@settings(max_examples=300, deadline=None)
@given(lo=st.integers(-5, 3000), span=st.integers(-3, 600), modulus=st.integers(1, 40),
       residues=st.lists(st.integers(-3, 45), max_size=5).map(tuple))
def test_primes_in_equals_the_filter_over_every_integer(lo, span, modulus, residues):
    # the reference tests n % modulus for every n in the range
    hi = lo + span
    want = [n for n in range(max(lo, 2), hi + 1) if n % modulus in residues and is_prime(n)]
    assert primes_in(lo, hi, modulus, residues) == want
    assert primes_in(lo, hi) == [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]
