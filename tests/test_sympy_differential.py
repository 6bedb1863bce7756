"""Differential tests against sympy beyond desk scale (skipped without it)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from residuo import arithmetic
from residuo.arithmetic import factorize, is_prime, primes_upto
from residuo.symbols import symbol_prime_checked

sympy = pytest.importorskip("sympy")
from sympy.ntheory.residue_ntheory import is_nthpow_residue  # noqa: E402


def _sympy_factors(n):
    return tuple(sorted(sympy.factorint(n).items()))


@settings(max_examples=60, deadline=None)
@given(st.integers(2**39, 2**64 - 1))
def test_factorize_integers(n):
    assert factorize(n).factors == _sympy_factors(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2**20, 2**32 - 2**10), st.integers(2**20, 2**32 - 2**10))
def test_factorize_semiprimes(a, b):
    # nextprime moves at most a few hundred past a 32-bit start, so p*q
    # keeps 40 to 64 bits.
    n = sympy.nextprime(a) * sympy.nextprime(b)
    assert factorize(n).factors == _sympy_factors(n)


def _deep_prime(rng, bits):
    # p = 1 + c*2^v with 6 <= v <= bits - 6, as the benchmark's deep
    # semiprimes draw them. At 26 bits no c makes 1 + c*2^20 prime, so v
    # is drawn again after 64 values of c.
    while True:
        v = rng.randrange(6, bits - 5)
        for _ in range(64):
            p = 1 + ((rng.randrange(1 << (bits - 1 - v), 1 << (bits - v)) | 1) << v)
            if sympy.isprime(p):
                return p


def test_deep_prime_redraws_a_valuation_without_primes():
    # The first v drawn by this seed at 26 bits is 20: no odd c in
    # [32, 64) makes 1 + c*2^20 prime.
    rng = random.Random(20)
    assert rng.randrange(6, 21) == 20
    p = _deep_prime(random.Random(20), 26)
    assert sympy.isprime(p) and p.bit_length() == 26
    assert arithmetic.valuation(p - 1, 2) >= 6


def _smooth_prime(rng, bits, top):
    # p - 1 = 2 * top * (primes below 2^11): every prime of p - 1 lies
    # below the p - 1 stage's bound 4096, the largest at top in [2^11, 2^12).
    small = primes_upto(2047)
    while True:
        m = 2 * top
        while m.bit_length() < bits - 1:
            m *= rng.choice(small)
        if m.bit_length() <= bits and sympy.isprime(m + 1):
            return m + 1


def _safe_prime(rng, bits):
    # p = 2r + 1 with r prime, so the order of 2 mod p is r or 2r.
    r = sympy.nextprime(rng.randrange(1 << (bits - 3), 1 << (bits - 2)))
    while not sympy.isprime(2 * r + 1):
        r = sympy.nextprime(r)
    return 2 * r + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(40, 64), st.integers(0, 2**32))
def test_factorize_deep_semiprimes(bits, seed):
    rng = random.Random(seed)
    n = _deep_prime(rng, bits // 2) * _deep_prime(rng, bits - bits // 2)
    assert factorize(n).factors == _sympy_factors(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(40, 64), st.integers(0, 2**32))
def test_factorize_both_smooth(bits, seed):
    # Both orders of 2 divide the product of the last block, so its gcd is
    # all of n and the block is redone one prime power at a time; the
    # largest primes of p - 1 and q - 1 differ, so that splits n without
    # rho.
    rng = random.Random(seed)
    top_p, top_q = rng.sample([r for r in primes_upto(4095) if r > 2048], 2)
    p = _smooth_prime(rng, bits // 2, top_p)
    q = _smooth_prime(rng, bits - bits // 2, top_q)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arithmetic, "_RHO_ITERATION_CAP", 1)
        assert factorize(p * q).factors == _sympy_factors(p * q)


@settings(max_examples=20, deadline=None)
@given(st.integers(40, 64), st.integers(0, 2**32))
def test_factorize_neither_smooth(bits, seed):
    rng = random.Random(seed)
    n = _safe_prime(rng, bits // 2) * _safe_prime(rng, bits - bits // 2)
    assert arithmetic._pm1_split(n) is None
    assert factorize(n).factors == _sympy_factors(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(10**4, 2**21), st.integers(2, 3))
def test_factorize_prime_powers(x, e):
    n = sympy.nextprime(x) ** e
    assert factorize(n).factors == _sympy_factors(n)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(10**4, 2**21), min_size=3, max_size=3))
def test_factorize_three_primes(xs):
    n = sympy.nextprime(xs[0]) * sympy.nextprime(xs[1]) * sympy.nextprime(xs[2])
    assert factorize(n).factors == _sympy_factors(n)


def test_factorize_examples():
    assert factorize(2**64 + 1).factors == _sympy_factors(2**64 + 1)
    # 2 has order 61 and 89 at these Mersenne primes, in two blocks of
    # the p - 1 stage.
    assert factorize((2**61 - 1) * (2**89 - 1)).factors == (
        (2**61 - 1, 1),
        (2**89 - 1, 1),
    )


@st.composite
def _prime_and_level(draw):
    # A 64-128-bit prime p = 1 + c*2^v, so nu_2(p-1) >= v reaches past the
    # 1 or 2 of most primes, and a level k <= 8 on either side of it.
    v = draw(st.integers(1, 10))
    p = 1 + (draw(st.integers(2**63 >> v, 2**127 >> v)) << v)
    while not sympy.isprime(p):
        p += 1 << v
    return p, draw(st.integers(1, 8))


@settings(max_examples=200, deadline=None)
@given(_prime_and_level(), st.integers(1, 2**128))
def test_symbol_prime_checked(pk, x):
    # a = x^(2^(k-1)) is admissible at level k: its level-(k-1) symbol is +1.
    p, k = pk
    a = pow(x, 1 << (k - 1), p)
    if a == 0:
        return
    expected = 1 if is_nthpow_residue(a, 1 << k, p) else -1
    assert symbol_prime_checked(a, p, k) == expected


@settings(max_examples=400, deadline=None)
@given(st.integers(2**63, 2**128))
def test_is_prime(n):
    n |= 1
    assert is_prime(n) == sympy.isprime(n)
    assert is_prime(sympy.nextprime(n))
