"""Arbitrary-precision integer utilities: valuations, modular inverses, the
Jacobi symbol, primality testing and desk-scale factorization.

All functions are pure and operate on Python ints (nonnegative unless noted).
"""

import math
import random
from dataclasses import dataclass

from .errors import (
    FactorizationTimeout,
    InvalidInput,
    InvalidModulus,
    NotInvertible,
    UndefinedValuation,
)

# Miller-Rabin with these 13 bases is deterministic below this threshold.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

# Extra probabilistic rounds above the threshold: error < 4^-64 = 2^-128.
_MR_EXTRA_ROUNDS = 64

_RHO_ITERATION_CAP = 10**7


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

    def with_multiplicity(self):
        """Primes repeated according to their exponents."""
        out = []
        for p, e in self.factors:
            out.extend([p] * e)
        return out


def valuation(n, b):
    """Largest k with b**k dividing n (the b-adic valuation)."""
    if n == 0:
        raise UndefinedValuation("valuation of 0 is undefined")
    if b < 2:
        raise InvalidInput(f"valuation base must be >= 2, got {b}")
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


def trial_division(n, bound):
    """Strip all prime factors <= bound from n with multiplicity.

    Returns (found, cofactor) where found is a list of (prime, exponent)
    pairs in ascending order and the cofactor has no prime factor <= bound.
    Division stops at d*d > n, where what is left is 1 or a prime.
    """
    if n < 1:
        raise InvalidInput(f"n must be >= 1, got {n}")
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
        # n has no prime factor below d, and d*d > n or d > bound >= n.
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
                    q = q * abs(x - y) % n
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
                g = math.gcd(abs(x - ys), n)
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


def mod_inverse(a, n):
    """The unique x in [1, n) with a*x = 1 mod n."""
    if n < 2:
        raise InvalidModulus(f"modulus must be >= 2, got {n}")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotInvertible(f"{a} is not invertible mod {n}") from None
