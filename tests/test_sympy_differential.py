"""Differential tests against sympy beyond desk scale (skipped without it)."""

import pytest
from hypothesis import given, settings, strategies as st

from residuo.arithmetic import factorize

sympy = pytest.importorskip("sympy")


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
