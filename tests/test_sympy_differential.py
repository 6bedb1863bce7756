"""Differential tests against sympy beyond desk scale (skipped without it)."""

import pytest
from hypothesis import given, settings, strategies as st

from residuo.arithmetic import factorize, is_prime
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
