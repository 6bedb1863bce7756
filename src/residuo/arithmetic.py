"""Arbitrary-precision integer utilities: valuations, the Jacobi symbol,
primality testing, prime lists and desk-scale factorization.

All functions are pure and operate on Python ints (nonnegative unless noted).
The primes below 2^16 come from one sieve, built on first use and then kept.
`primes_upto` reads its lists from it. `trial_division` tests n against all
the primes it needs at once, with one gcd against their product: the
primorial of the primes below 2^j, for the least j that covers min(bound,
sqrt(n)), each of the 17 built at most once. `factorize` splits what trial
division leaves with Pollard's p - 1 before Brent's rho: stage 1 always,
stage 2 on cofactors of 50 bits or more. Stage 1's exponent comes from the
same sieve in 11 blocks, each built at most once; stage 2 reads its primes,
those in (2^12, 2^16), from the same sieve as one table of
baby-step/giant-step pairs, built at most once.
"""

import functools
import math
import random
from itertools import compress
from typing import NamedTuple

from .errors import (
    FactorizationTimeout,
    InvalidInput,
    InvalidModulus,
    SearchSpaceTooLarge,
    UndefinedValuation,
)

# Miller-Rabin with these 13 bases is deterministic below this threshold.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

# (bound, t): below bound the first t bases suffice. Each bound is the least
# odd composite that is a strong pseudoprime to the first t prime bases
# (OEIS A014233), for the least t whose bound it is.
_MR_BASE_COUNTS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (_MR_DETERMINISTIC_LIMIT, 13),
)

# Extra probabilistic rounds above the threshold: error < 4^-64 = 2^-128.
_MR_EXTRA_ROUNDS = 64

_RHO_ITERATION_CAP = 10**7

# Stage 1 of the p - 1 split covers the primes below 2^_PM1_BITS = 4096,
# each to its largest power below that bound, except 2, which is raised to
# 2^64: the reductions study primes p = 1 + c*2^v with a large v, and
# nu_2(p - 1) < 64 for every p < 2^65.
_PM1_BITS = 12

# Stage 2 of the p - 1 split takes each prime q in (2^_PM1_BITS, _SIEVE_LIMIT)
# as kD - j or kD + j, with 0 < j < D/2 coprime to D = _PM1_STEP.
_PM1_STEP = 210

# Stage 2 runs only on cofactors of at least this many bits: below it rho
# splits what stage 2 would find in less time than stage 2 takes (measured
# break-even over 40-64-bit semiprimes).
_PM1_STAGE2_BITS = 50

# Primes below this bound come from the one cached sieve; above it,
# `primes_upto` sieves afresh and `trial_division` steps odd d.
_SIEVE_LIMIT = 1 << 16

# `primes_upto` refuses a bound above this before it allocates: its sieve
# and list then take about 16 MB at most.
_SIEVE_CEILING = 1 << 22


class Factorization(NamedTuple):
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
        """(p, q) when the factors are exactly (p, 1), (q, 1) with 2 < p < q,
        the shape the reductions and the semiprime Zolotarev theorem need;
        None otherwise, a hand-built ((7, 1), (7, 1)) included."""
        if len(self.factors) == 2:
            (p, e), (q, f) = self.factors
            if e == f == 1 and 2 < p < q:
                return p, q
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
    while a:
        if not a & 1:
            twos = (a & -a).bit_length() - 1
            a >>= twos
            # (2|n) = -1 exactly when n = 3 or 5 mod 8, that is when bits 1
            # and 2 of n differ.
            if twos & 1 and (n ^ n >> 1) & 2:
                result = -result
        # Reciprocity: a and n odd, the sign flips when both are 3 mod 4.
        if a & n & 2:
            result = -result
        a, n = n % a, a
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

    Below the threshold n meets only as many of the 13 prime bases as its
    size needs: 4 below 3.2e9, 5 below 2.2e12. The probabilistic rounds
    above it draw bases from a generator seeded with n, so the answer is
    still deterministic for a fixed n.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    r = valuation(n - 1, 2)
    d = (n - 1) >> r
    # From the deterministic limit on, the loop ends with all 13 bases.
    for bound, t in _MR_BASE_COUNTS:
        if n < bound:
            break
    for a in _MR_BASES[:t]:
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


@functools.cache
def _pm1_block(bits):
    """The stage-1 prime powers of the p - 1 split for the primes in
    [2^(bits-1), 2^bits), 2 <= bits <= _PM1_BITS, and their product."""
    lo = 1 << (bits - 1)
    powers = []
    for r in compress(range(lo, 2 * lo), _small_prime_mask()[lo : 2 * lo]):
        q = r
        while q * r < 1 << _PM1_BITS:
            q *= r
        powers.append(1 << 64 if r == 2 else q)
    return math.prod(powers), tuple(powers)


@functools.cache
def _pm1_stage2_table():
    """The giant steps k0..k1 of the p - 1 split's stage 2, the baby steps j
    in (0, D/2) coprime to D, and for each j a byte mask over the k that is
    1 where kD - j or kD + j is a prime in (2^_PM1_BITS, _SIEVE_LIMIT). It
    is sliced from the cached sieve, one stride per j: 24 masks of 293
    bytes for D = 210."""
    step, half = _PM1_STEP, _PM1_STEP // 2
    lo = (1 << _PM1_BITS) + 1
    k0, k1 = (lo + half) // step, (_SIEVE_LIMIT + half) // step
    # The primes of stage 2 alone, padded so every kD + j is an index.
    primes = bytes(lo) + _small_prime_mask()[lo:] + bytes(step)
    js = [j for j in range(1, half) if math.gcd(j, step) == 1]
    masks = []
    for j in js:
        below = primes[k0 * step - j : k1 * step - j + 1 : step]
        above = primes[k0 * step + j : k1 * step + j + 1 : step]
        either = int.from_bytes(below, "big") | int.from_bytes(above, "big")
        masks.append(either.to_bytes(k1 - k0 + 1, "big"))
    return k0, k1, tuple(js), tuple(masks)


def primes_upto(bound):
    """All primes p <= bound, ascending.

    Bounds below 2^16 read the cached sieve; a larger bound sieves afresh
    and keeps nothing. A bound above 2^22 raises SearchSpaceTooLarge.
    """
    if bound > _SIEVE_CEILING:
        raise SearchSpaceTooLarge(f"bound = {bound} exceeds the sieve ceiling")
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


def _pm1_split(n):
    """Pollard's p - 1 with base 2: a nontrivial factor of odd composite n,
    or None. Stage 1 finds one when the order of 2 mod some prime of n
    divides the stage-1 exponent and mod some other prime does not, or
    divides it from an earlier prime power on. Each block costs one pow
    and one gcd; a block that reaches order 1 at every prime at once is
    redone one prime power at a time. A stage 1 that ends with gcd 1 hands
    its power of 2 to stage 2 (`_pm1_stage2`) when n has at least
    _PM1_STAGE2_BITS bits, and gives None below that."""
    a = 2
    for bits in range(2, _PM1_BITS + 1):
        product, powers = _pm1_block(bits)
        b = pow(a, product, n)
        g = math.gcd(b - 1, n)
        if g == 1:
            a = b
            continue
        if g == n:
            for q in powers:
                a = pow(a, q, n)
                g = math.gcd(a - 1, n)
                if g != 1:
                    break
        return g if g != n else None
    if n.bit_length() < _PM1_STAGE2_BITS:
        return None
    return _pm1_stage2(a, n)


def _pm1_stage2(b, n):
    """Stage 2 of the p - 1 split: a nontrivial factor of odd n, or None,
    given b = 2^E mod n after a stage 1 whose gcd was 1. With
    V_i = b^i + b^-i, V_kD - V_j = b^-kD (b^(kD-j) - 1)(b^(kD+j) - 1), so
    at a prime r of n it is 0 when the order of b mod r divides kD - j or
    kD + j (Montgomery's pairing). One product over the table's pairs and
    one gcd thus test every stage-2 prime as that order: 4,670 pairs, one
    multiplication each, for the 5,978 primes. A gcd of 1 or n gives
    None."""
    k0, k1, js, masks = _pm1_stage2_table()
    # V_{i+1} = V_1 V_i - V_{i-1} from V_0 = 2: the baby steps up to
    # V_{D/2}, then V_D = V_{D/2}^2 - 2 and the giant steps V_kD.
    v1 = (b + pow(b, -1, n)) % n
    baby = [2, v1]
    while len(baby) <= _PM1_STEP // 2:
        baby.append((v1 * baby[-1] - baby[-2]) % n)
    vd = (baby[-1] * baby[-1] - 2) % n
    giant = [2, vd]
    while len(giant) <= k1:
        giant.append((vd * giant[-1] - giant[-2]) % n)
    del giant[:k0]
    acc = 1
    for j, mask in zip(js, masks):
        vj = baby[j]
        for x in compress(giant, mask):
            acc = acc * (x - vj) % n
    g = math.gcd(acc, n)
    return g if 1 < g < n else None


def _rho_split(n, budget):
    """Brent's cycle-finding variant of Pollard rho. Returns a nontrivial
    factor of odd composite n, consuming iterations from budget (a one-item
    list used as a mutable counter)."""
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
                        f"rho iteration cap of {_RHO_ITERATION_CAP:,} exceeded"
                        f" while splitting a {n.bit_length()}-bit cofactor"
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
    raise FactorizationTimeout(f"rho failed to split a {n.bit_length()}-bit cofactor")


def factorize(n):
    """Complete prime factorization of n >= 1.

    Trial division strips the primes up to 10^4; every n below 10^8 ends
    there. Each composite cofactor left is split by Pollard's p - 1
    (`_pm1_split`: stage 1 to 2^12, then, on a cofactor of 50 bits or more,
    stage 2 over the primes up to 2^16) and, when that finds nothing, by
    Brent's rho. Rho raises FactorizationTimeout once the iterations it
    charges for this n pass 10^7. It charges only the iterations that
    multiply into its gcd product, not the advance loop between them, so it
    has done about twice that many steps by then.
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
        d = _pm1_split(m) or _rho_split(m, budget)
        stack.append(d)
        stack.append(m // d)
    return Factorization(tuple(sorted(counts.items())))
