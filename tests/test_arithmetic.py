import math

import pytest
from hypothesis import given, strategies as st

from residuo import arithmetic
from residuo.arithmetic import (
    Factorization,
    factorize,
    is_prime,
    jacobi,
    primes_upto,
    trial_division,
    valuation,
)
from residuo.errors import (
    InvalidInput,
    InvalidModulus,
    UndefinedValuation,
)


class TestValuation:
    def test_examples(self):
        assert valuation(64, 2) == 6
        assert valuation(38, 2) == 1
        assert valuation(12, 2) == 2

    def test_zero_rejected(self):
        with pytest.raises(UndefinedValuation):
            valuation(0, 2)

    @pytest.mark.parametrize("b", [2, 3, 5, 7])
    def test_divides_exactly(self, b):
        for n in range(1, 3000):
            k = valuation(n, b)
            assert n % b**k == 0 and n % b ** (k + 1) != 0


class TestJacobi:
    def test_examples(self):
        assert jacobi(3, 65) == -1
        assert jacobi(1, 9999) == 1
        assert jacobi(2, 11021) == -1

    def test_even_modulus_rejected(self):
        with pytest.raises(InvalidModulus):
            jacobi(3, 10)

    def test_zero_on_shared_factor(self):
        assert jacobi(6, 9) == 0
        assert jacobi(5, 15) == 0

    def test_congruence_invariance(self):
        for n in range(3, 200, 2):
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    assert jacobi(a + 3 * n, n) == jacobi(a, n)

    def test_multiplicativity(self):
        for n in range(3, 100, 2):
            units = [a for a in range(1, n) if math.gcd(a, n) == 1]
            for a in units[:20]:
                for b in units[:20]:
                    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


class TestIsPrime:
    def test_examples(self):
        assert is_prime(13)
        assert not is_prime(1)
        assert not is_prime(11021)

    def test_against_sieve(self):
        limit = 10000
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        for n in range(limit + 1):
            assert is_prime(n) == bool(sieve[n])

    def test_large_prime(self):
        # 2^89 - 1 is a Mersenne prime, above the deterministic threshold.
        assert is_prime(2**89 - 1)
        assert not is_prime((2**89 - 1) * (2**61 - 1))


class TestFactorize:
    def test_examples(self):
        assert factorize(65).factors == ((5, 1), (13, 1))
        assert factorize(195).factors == ((3, 1), (5, 1), (13, 1))
        assert factorize(11009).factors == ((101, 1), (109, 1))

    def test_reconstructs(self):
        for n in range(1, 5000):
            fact = factorize(n)
            assert fact.value == n
            primes = fact.primes()
            assert primes == sorted(primes)
            assert all(is_prime(p) for p in primes)

    def test_rho_path(self):
        n = 1000003 * 1000033
        assert factorize(n).factors == ((1000003, 1), (1000033, 1))

    def test_rejects_zero(self):
        with pytest.raises(InvalidInput):
            factorize(0)


def _odd_d_trial_division(n, bound):
    # The literal reference: try d = 2, then every odd d, stopping at
    # d*d > n; a cofactor 1 < n <= bound left over is prime.
    found = []
    d = 2
    limit = min(bound, math.isqrt(n))
    while d <= limit:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            found.append((d, e))
            limit = min(bound, math.isqrt(n))
        d += 1 if d == 2 else 2
    if 1 < n <= bound:
        found.append((n, 1))
        n = 1
    return found, n


class TestOddSemiprime:
    def test_examples(self):
        assert factorize(39).odd_semiprime() == (3, 13)
        assert Factorization(()).odd_semiprime() is None
        for n in (2, 6, 9, 13, 45, 105):
            assert factorize(n).odd_semiprime() is None

    def test_matches_definition(self):
        for n in range(1, 5000):
            expected = [
                (p, n // p)
                for p in range(3, math.isqrt(n) + 1, 2)
                if n % p == 0 and p < n // p and is_prime(p) and is_prime(n // p)
            ]
            assert factorize(n).odd_semiprime() == (
                expected[0] if expected else None
            ), n


class TestTrialDivision:
    def test_examples(self):
        assert trial_division(65, 10) == ([(5, 1)], 13)
        assert trial_division(11021, 50) == ([], 11021)
        assert trial_division(8, 2) == ([(2, 3)], 1)
        assert trial_division(2 * 9973, 10**4) == ([(2, 1), (9973, 1)], 1)
        assert trial_division(2 * 10007, 10**4) == ([(2, 1)], 10007)

    def test_reconstructs_and_strips(self):
        for n in range(1, 2000):
            for bound in (2, 10, 50):
                found, cofactor = trial_division(n, bound)
                product = cofactor
                for p, e in found:
                    product *= p**e
                assert product == n
                assert all(cofactor % d for d in range(2, bound + 1))

    @pytest.mark.parametrize("bound", [1, 2, 3, 97, 10**4, 10**5])
    def test_matches_odd_d(self, bound):
        for n in range(1, 20000):
            assert trial_division(n, bound) == _odd_d_trial_division(n, bound)

    def test_past_the_sieve(self):
        n = 10007 * 1000003
        assert trial_division(n, 10**7) == ([(10007, 1), (1000003, 1)], 1)
        for n, bound in [
            (65537 * 1000003, 10**7),
            (65537**2 * 65539, 10**5),
            (65521 * 65537 * 70001, 70000),
            (3**5 * 65537 * 1000003, 65536),
        ]:
            assert trial_division(n, bound) == _odd_d_trial_division(n, bound)

    def test_caches_stay_bounded(self):
        primes_upto(2**16 + 500)
        trial_division(65537 * 1000003, 10**7)
        assert len(arithmetic._small_prime_mask()) == 2**16
        # One primorial per bit length of the covered bound, 0 to 16.
        assert arithmetic._primorial.cache_info().currsize <= 17


class TestPrimesUpto:
    def test_small_bounds(self):
        reference = [p for p in range(3000) if is_prime(p)]
        for b in range(-2, 3000):
            assert primes_upto(b) == [p for p in reference if p <= b]

    @pytest.mark.parametrize("b", [2**16 - 1, 2**16, 2**16 + 500])
    def test_around_sieve_limit(self, b):
        assert primes_upto(b) == [p for p in range(b + 1) if is_prime(p)]
