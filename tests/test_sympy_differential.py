"""Differential tests against sympy beyond desk scale (skipped without it)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from residuo import arithmetic
from residuo.arithmetic import Factorization, factorize, is_prime, jacobi, primes_upto
from residuo.oracle import FactorOracle
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
    # below stage 1's bound 4096, the largest at top in [2^11, 2^12).
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


def _stage2_prime(rng, bits):
    # p - 1 = 2 * top * (primes below 2^11) with top a prime in (2^12, 2^16),
    # the range of the p - 1 split's stage 2; each further prime has at
    # most as many bits as p - 1 still lacks.
    small = primes_upto(2047)
    tops = [r for r in primes_upto(2**16) if r > 2**12]
    while True:
        m = 2 * rng.choice(tops)
        while m.bit_length() < bits - 1:
            room = bits - m.bit_length()
            m *= rng.choice([r for r in small if r.bit_length() <= room])
        if sympy.isprime(m + 1):
            return m + 1


@settings(max_examples=40, deadline=None)
@given(st.integers(40, 64), st.integers(0, 2**32), st.booleans())
def test_factorize_stage2_semiprimes(bits, seed, smaller):
    # The stage-2 prime is the smaller or the larger factor; q is any
    # prime of the other size.
    rng = random.Random(seed)
    small, large = bits // 2, bits - bits // 2
    if not smaller:
        small, large = large, small
    p = _stage2_prime(rng, small)
    q = sympy.nextprime(rng.randrange(1 << (large - 1), 1 << large))
    n = p * q
    assert factorize(n).factors == _sympy_factors(n)


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
    # stage 1 of the p - 1 split.
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


@settings(max_examples=100, deadline=None)
@given(
    st.integers(40, 128),
    st.sampled_from((0, 1, 3)),
    st.integers(0, 2**32),
    st.integers(1, 2**128),
)
def test_factor_oracle_level_1(bits, j, seed, m):
    # N = 2^j * p * q at 40-128 bits, asked of an oracle that is told the
    # factors: level 1 is the Jacobi symbol of N's odd part and the product
    # of the Legendre symbols at p and q.
    rng = random.Random(seed)
    half = (bits - j) // 2
    p = sympy.nextprime(rng.randrange(1 << (half - 1), 1 << half))
    q = sympy.nextprime(rng.randrange(1 << (bits - j - half - 1), 1 << (bits - j - half)))
    if p == q or math.gcd(m, 2 * p * q) != 1:
        return
    n = (p * q) << j
    factors = sorted([(p, 1), (q, 1)] + ([(2, j)] if j else []))
    oracle = FactorOracle(known=[Factorization(tuple(factors))])
    answer = oracle.crs_query(m, n, 1)
    assert answer == sympy.jacobi_symbol(m, p * q)
    assert answer == sympy.legendre_symbol(m % p, p) * sympy.legendre_symbol(m % q, q)


# Odd n below 2^256; a of either sign, with long runs of trailing zero bits
# among them, which the Jacobi symbol strips as one shift.
_ODD_256 = st.integers(0, 2**255 - 1).map(lambda h: 2 * h + 1)
_SIGNED = st.one_of(
    st.integers(-(2**300), 2**300),
    st.builds(lambda b, s: b << s, st.integers(-(2**64), 2**64), st.integers(0, 300)),
)


@settings(max_examples=300, deadline=None)
@given(_ODD_256, _SIGNED)
def test_jacobi(n, a):
    assert jacobi(a, n) == sympy.jacobi_symbol(a, n)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 2**127 - 1).map(lambda h: 2 * h + 1),
    st.integers(0, 2**127 - 1).map(lambda h: 2 * h + 1),
    _SIGNED,
)
def test_jacobi_off_the_units(d, c, b):
    # n = d * c < 2^256 and a = d * b share the factor d >= 3, so the
    # symbol is 0.
    n, a = d * c, d * b
    assert jacobi(a, n) == sympy.jacobi_symbol(a, n) == 0
