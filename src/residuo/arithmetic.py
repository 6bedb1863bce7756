"""Arbitrary-precision integer utilities: valuations, the Jacobi symbol,
primality testing, prime lists and desk-scale factorization.

All functions are pure and operate on Python ints (nonnegative unless noted).
The primes below 2^16 come from one sieve, built on first use and then kept.
`primes_upto` reads its lists from it. `trial_division` tests n against all
the primes it needs at once, with one gcd against their product: the
primorial of the primes below 2^j, for the least j that covers min(bound,
sqrt(n)), each of the 17 built at most once.
"""

import functools
import math
import random
from dataclasses import dataclass
from itertools import compress

from .errors import (
    FactorizationTimeout,
    InvalidInput,
    InvalidModulus,
    UndefinedValuation,
)

# Miller-Rabin with these 13 bases is deterministic below this threshold.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

# Extra probabilistic rounds above the threshold: error < 4^-64 = 2^-128.
_MR_EXTRA_ROUNDS = 64

_RHO_ITERATION_CAP = 10**7

# Primes below this bound come from the one cached sieve; above it,
# `primes_upto` sieves afresh and `trial_division` steps odd d.
_SIEVE_LIMIT = 1 << 16


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition: factors as (prime, exponent) pairs with
    strictly increasing primes."""

    factors: tuple

    @property
    def value(self):
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    def primes(self):
        """Distinct primes, ascending."""
        return [p for p, _ in self.factors]

    def odd_semiprime(self):
        """(p, q) when the value is p*q for distinct odd primes p < q, the
        shape the reductions and the semiprime Zolotarev theorem need;
        None otherwise."""
        if [e for _, e in self.factors] == [1, 1] and self.factors[0][0] != 2:
            return self.factors[0][0], self.factors[1][0]
        return None


def valuation(n, b):
    """Largest k with b**k dividing n (the b-adic valuation)."""
    if n == 0:
        raise UndefinedValuation("valuation of 0 is undefined")
    if b < 2:
        raise InvalidInput(f"valuation base must be >= 2, got {b}")
    if b == 2:
        return (n & -n).bit_length() - 1
    k = 0
    while n % b == 0:
        n //= b
        k += 1
    return k


def jacobi(a, n):
    """Jacobi symbol (a|n) for odd n >= 1 via quadratic reciprocity.

    Returns 0 exactly when gcd(a, n) > 1.
    """
    if n < 1 or n % 2 == 0:
        raise InvalidModulus(f"Jacobi symbol needs odd n >= 1, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _miller_rabin_witness(a, n, d, r):
    # True if a proves n composite; n odd, n - 1 = d * 2^r.
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n):
    """Primality test: deterministic below 3.3e24, error < 2^-128 above.

    The probabilistic rounds above the threshold draw bases from a generator
    seeded with n, so the answer is still deterministic for a fixed n.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        if _miller_rabin_witness(a, n, d, r):
            return False
    if n >= _MR_DETERMINISTIC_LIMIT:
        rng = random.Random(n)
        for _ in range(_MR_EXTRA_ROUNDS):
            a = rng.randrange(2, n - 1)
            if _miller_rabin_witness(a, n, d, r):
                return False
    return True


def _prime_mask(bound):
    """Byte mask of length bound + 1 >= 2 whose byte x is 1 exactly when x
    is prime (sieve of Eratosthenes by slice assignment)."""
    mask = bytearray(b"\x01") * (bound + 1)
    mask[0] = mask[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if mask[p]:
            mask[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return mask


@functools.cache
def _small_prime_mask():
    # Read-only, since every caller shares it.
    return bytes(_prime_mask(_SIEVE_LIMIT - 1))


@functools.cache
def _primorial(bits):
    """The product of the primes below 2^bits, bits <= 16: the one below
    times the primes in [2^(bits-1), 2^bits). The full chain holds 17
    values, about 23 KB together."""
    if bits < 2:
        return 1
    lo = 1 << (bits - 1)
    block = compress(range(lo, 2 * lo), _small_prime_mask()[lo : 2 * lo])
    return _primorial(bits - 1) * math.prod(block)


def primes_upto(bound):
    """All primes p <= bound, ascending.

    Bounds below 2^16 read the cached sieve; a larger bound sieves afresh
    and keeps nothing.
    """
    if bound < 2:
        return []
    mask = _small_prime_mask() if bound < _SIEVE_LIMIT else _prime_mask(bound)
    return list(compress(range(bound + 1), mask))


def trial_division(n, bound):
    """Strip all prime factors <= bound from n with multiplicity.

    Returns (found, cofactor) where found is a list of (prime, exponent)
    pairs in ascending order and the cofactor has no prime factor <= bound.
    One gcd of n against a primorial of the cached primes names the primes
    below 2^16 that divide n, and only those are divided out; above 2^16
    odd d are tried in turn. Division stops at d*d > n, where what is left
    is 1 or a prime.
    """
    if n < 1:
        raise InvalidInput(f"n must be >= 1, got {n}")
    found = []
    # Only primes up to top need a test: past sqrt(n) what is left is 1 or
    # a prime, and past bound nothing is stripped.
    top = min(bound, math.isqrt(n), _SIEVE_LIMIT - 1)
    g = math.gcd(n, _primorial(top.bit_length())) if top > 1 else 1
    if g > 1:
        for p in compress(range(bound + 1), _small_prime_mask()):
            if g == 1 or p * p > n:
                break
            if g % p == 0:
                g //= p
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                found.append((p, e))
    d = _SIEVE_LIMIT + 1
    limit = min(bound, math.isqrt(n))
    while d <= limit:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            found.append((d, e))
            limit = min(bound, math.isqrt(n))
        d += 2
    if 1 < n <= bound:
        # Every prime factor of n is above min(bound, sqrt(n)) = sqrt(n).
        found.append((n, 1))
        n = 1
    return found, n


def _rho_split(n, budget):
    """Brent's cycle-finding variant of Pollard rho. Returns a nontrivial
    factor of composite n, consuming iterations from budget (a one-item
    list used as a mutable counter)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                m = min(128, r - k)
                for _ in range(m):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                budget[0] -= m
                if budget[0] <= 0:
                    raise FactorizationTimeout(
                        f"rho iteration cap exceeded while splitting {n}"
                    )
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # Backtrack one step at a time to recover the factor.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise FactorizationTimeout(f"rho failed to split {n}")


def factorize(n):
    """Complete prime factorization of n >= 1 (trial division, then rho).

    Deterministic for a fixed n; intended for desk-scale inputs.
    """
    if n < 1:
        raise InvalidInput(f"n must be >= 1, got {n}")
    counts = {}
    found, rest = trial_division(n, min(n, 10_000))
    for p, e in found:
        counts[p] = e
    budget = [_RHO_ITERATION_CAP]
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _rho_split(m, budget)
        stack.append(d)
        stack.append(m // d)
    return Factorization(tuple(sorted(counts.items())))
