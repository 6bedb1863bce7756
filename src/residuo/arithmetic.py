"""Arbitrary-precision integer utilities: valuations, the Jacobi symbol,
primality testing, prime lists and desk-scale factorization.

All functions are pure and operate on Python ints (nonnegative unless noted).
The primes below 2^16 come from one sieve, built on first use and then kept.
`primes_upto` reads its lists from it. `trial_division` tests n against all
the primes it needs at once, with one gcd against their product: the
primorial of the primes below 2^j, for the least j that covers min(bound,
sqrt(n)), each of the 17 built at most once. `factorize` splits what trial
division leaves with Pollard's p - 1, then Lenstra's elliptic curves, before
Brent's rho: p - 1 stage 1 always; p - 1 stage 2 and the curves on
cofactors of 50 bits or more. The p - 1 stage-1 exponent comes from the
same sieve in 10 blocks, each built at most once. Both stage 2s read their
primes from the same sieve as one table of baby-step/giant-step pairs per
lower bound, built at most once and ending at the larger stage-2 bound:
(2^11, 2^14] for p - 1 and (150, 2^14], read to 8000, for the curves.
"""

import bisect
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
    digits,
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

# Stage 1 of the p - 1 split covers the primes below 2^_PM1_BITS = 2048,
# each to its largest power below that bound, except 2, which is raised to
# 2^64: the reductions study primes p = 1 + c*2^v with a large v, and
# nu_2(p - 1) < 64 for every p < 2^65. Stage 2 covers the primes in
# (2^_PM1_BITS, _PM1_B2]. Both bounds were measured best over 40-64-bit
# semiprimes with the curves splitting what p - 1 leaves: a failed p - 1 is
# cheaper at these bounds than the few curves that its larger bounds save.
_PM1_BITS = 11
_PM1_B2 = 1 << 14

# Stage 2 of the p - 1 split takes each prime q in its range as kD - j or
# kD + j, with 0 < j < D/2 coprime to D = _PM1_STEP.
_PM1_STEP = 210

# Stage 2 and the elliptic-curve split run only on cofactors of at least
# this many bits: below it rho splits what either would find in less time
# than it takes (measured break-even over 40-64-bit semiprimes, for each).
_PM1_STAGE2_BITS = 50

# The elliptic-curve split tries at most _ECM_CURVES curves, each with stage
# 1 to _ECM_B1 and stage 2 over the primes in (_ECM_B1, _ECM_B2], both
# bounds measured best over 50-64-bit semiprimes that p - 1 leaves whole.
# Stage 2 reads the giant steps kD <= _ECM_B2 + D/2 of the p - 1 table.
_ECM_CURVES = 40
_ECM_B1 = 150
_ECM_B2 = 8000

# Primes below this bound come from the one cached sieve; above it,
# `primes_upto` sieves afresh and `trial_division` steps odd d.
_SIEVE_LIMIT = 1 << 16

# `primes_upto` refuses a bound above this before it allocates: its sieve
# and list then take about 16 MB at most.
_SIEVE_CEILING = 1 << 22


class _Factors(NamedTuple):
    factors: tuple
    value: int


class Factorization(_Factors):
    """Prime-power decomposition of n = value: (prime, exponent) pairs,
    primes strictly increasing, exponents >= 1.  A hand-built list is
    checked once, here; `factorize` builds through `_factorization`,
    unchecked.  `_make`, `_replace`, copy and pickle rebuild through the
    check, and `value` is always computed from the factors, never taken."""

    __slots__ = ()

    def __new__(cls, factors):
        if not isinstance(factors, (tuple, list)):
            raise InvalidInput("factor list must be strictly increasing primes")
        n = last = 1
        for pair in factors:
            p, e = pair if isinstance(pair, tuple) and len(pair) == 2 else (0, 1)
            if not isinstance(p, int) or p <= last or not is_prime(p):
                raise InvalidInput("factor list must be strictly increasing primes")
            if not isinstance(e, int) or e < 1:
                raise InvalidInput("exponents must be positive")
            n, last = n * p**e, p
        return _factorization(tuple(factors), n)

    @classmethod
    def _make(cls, fields):
        factors, _ = fields
        return cls(factors)

    def __reduce__(self):
        return type(self), (self.factors,)

    def primes(self):
        """Distinct primes, ascending."""
        return [p for p, _ in self.factors]

    def odd_semiprime(self):
        """(p, q) when the factors are exactly (p, 1), (q, 1) with 2 < p,
        hence p < q, the shape the reductions and the semiprime Zolotarev
        theorem need; None otherwise."""
        if len(self.factors) == 2:
            (p, e), (q, f) = self.factors
            if e == f == 1 and p > 2:
                return p, q
        return None


def _factorization(factors, n):
    # The unchecked build, for factors known to be n's prime factorization.
    return tuple.__new__(Factorization, (factors, n))


def valuation(n, b):
    """Largest k with b**k dividing n (the b-adic valuation)."""
    if n == 0:
        raise UndefinedValuation("valuation of 0 is undefined")
    if b < 2:
        raise InvalidInput(f"valuation base must be >= 2, got {digits(b)}")
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
        raise InvalidModulus(f"Jacobi symbol needs odd n >= 1, got {digits(n)}")
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
def _pm1_stage2_table(bound):
    """The stage-2 table shared by the p - 1 and elliptic-curve splits, for
    the primes in (bound, top], D/2 <= bound, where top = max(_PM1_B2,
    _ECM_B2) is the larger stage 2's bound: the giant steps k0..k1, the
    baby steps j in (0, D/2) coprime to D, and for each j a byte mask over
    the k that is 1 where kD - j or kD + j is such a prime. Each stage reads
    it from k0 to its own bound. It is sliced from the cached sieve, one
    stride per j: 24 masks of 69 bytes for D = 210 and bound = 2^11."""
    step, half = _PM1_STEP, _PM1_STEP // 2
    lo, top = bound + 1, max(_PM1_B2, _ECM_B2)
    k0, k1 = (lo + half) // step, (top + half) // step
    # The primes of stage 2 alone, padded so every kD + j is an index.
    primes = bytes(lo) + _small_prime_mask()[lo : top + 1] + bytes(step)
    js = [j for j in range(1, half) if math.gcd(j, step) == 1]
    masks = []
    for j in js:
        below = primes[k0 * step - j : k1 * step - j + 1 : step]
        above = primes[k0 * step + j : k1 * step + j + 1 : step]
        either = int.from_bytes(below, "big") | int.from_bytes(above, "big")
        masks.append(either.to_bytes(k1 - k0 + 1, "big"))
    return k0, k1, tuple(js), tuple(masks)


@functools.cache
def _primes_below(bits):
    """The primes below 2^bits, bits <= 16, as a tuple read off the cached
    sieve once per bits."""
    return tuple(compress(range(1 << bits), _small_prime_mask()))


def primes_upto(bound):
    """All primes p <= bound, ascending, in a new list.

    Bounds below 2^16 are a slice of the cached primes below
    2^bound.bit_length(); a larger bound sieves afresh and keeps nothing. A
    bound above 2^22 raises SearchSpaceTooLarge.
    """
    if bound > _SIEVE_CEILING:
        raise SearchSpaceTooLarge(f"bound = {digits(bound)} exceeds the sieve ceiling")
    if bound < 2:
        return []
    if bound < _SIEVE_LIMIT:
        primes = _primes_below(bound.bit_length())
        return list(primes[: bisect.bisect_right(primes, bound)])
    return list(compress(range(bound + 1), _prime_mask(bound)))


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
        raise InvalidInput(f"n must be >= 1, got {digits(n)}")
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
    divides it from an earlier prime power on. Stage 1 runs to 2^11 in 10
    blocks; each costs one pow and one gcd, and a block that reaches order
    1 at every prime at once is redone one prime power at a time. A stage 1
    that ends with gcd 1 hands its power of 2 to stage 2 (`_pm1_stage2`,
    to 2^14) when n has at least _PM1_STAGE2_BITS bits, and gives None
    below that."""
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
    one gcd thus test every stage-2 prime, in (2^11, _PM1_B2], as that
    order: 1,203 pairs, one multiplication each, for the 1,591 primes."""
    table = k0, _, _, _ = _pm1_stage2_table(1 << _PM1_BITS)
    # V_{i+1} = V_1 V_i - V_{i-1} from V_0 = 2: the baby steps up to
    # V_{D/2}, then V_D = V_{D/2}^2 - 2 and the giant steps V_kD up to
    # kD <= _PM1_B2 + D/2.
    v1 = (b + pow(b, -1, n)) % n
    baby = [2, v1]
    while len(baby) <= _PM1_STEP // 2:
        baby.append((v1 * baby[-1] - baby[-2]) % n)
    vd = (baby[-1] * baby[-1] - 2) % n
    giant = [2, vd]
    while len(giant) <= (_PM1_B2 + _PM1_STEP // 2) // _PM1_STEP:
        giant.append((vd * giant[-1] - giant[-2]) % n)
    return _stage2_gcd(n, table, baby, giant[k0:])


def _stage2_gcd(n, table, baby, giant):
    """The gcd of n with the product of giant[k - k0] - baby[j] over the
    table's pairs (k, j), when it is a proper factor; None when it is 1 or
    n."""
    _, _, js, masks = table
    acc = 1
    for j, mask in zip(js, masks):
        vj = baby[j]
        for x in compress(giant, mask):
            acc = acc * (x - vj) % n
    g = math.gcd(acc, n)
    return g if 1 < g < n else None


@functools.cache
def _ecm_multiplier():
    """Stage 1's scalar for the elliptic-curve split: the product of the
    largest powers below _ECM_B1 of the primes below it."""
    powers = []
    for r in primes_upto(_ECM_B1 - 1):
        q = r
        while q * r < _ECM_B1:
            q *= r
        powers.append(q)
    return math.prod(powers)


def _xdbl(x, z, a24, n):
    # 2P on By^2 = x^3 + Ax^2 + x in (X:Z), a24 = (A + 2)/4.
    s, d = (x + z) ** 2, (x - z) ** 2
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xadd(x1, z1, x2, z2, xd, zd, n):
    # P1 + P2 in (X:Z), given P1 - P2 = (xd:zd).
    u, v = (x1 - z1) * (x2 + z2), (x1 + z1) * (x2 - z2)
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _ecm_curve(n, sigma):
    """One curve of the elliptic-curve split (Lenstra's ECM on Montgomery's
    curves): a nontrivial factor of odd n, or None. Suyama's parametrization
    by sigma >= 6 gives the curve, with a24 = (v - u)^3 (3u + v) / 16u^3v,
    and the start point x = u^3/v^3, u = sigma^2 - 5, v = 4 sigma; both
    divisions share one inverse, taken only after its gcd with n is 1.
    Stage 1 multiplies the point by `_ecm_multiplier()` on Montgomery's
    x-only ladder, and finds a factor when the point's order mod some prime
    of n divides that scalar and mod some other prime does not. A stage 1
    whose gcd is 1 hands its point to stage 2 (`_ecm_stage2`); a gcd of n
    skips the curve."""
    u, v = sigma * sigma - 5, 4 * sigma
    den = 16 * u**3 * v**4
    g = math.gcd(den, n)
    if g != 1:
        return g if g < n else None
    inv = pow(den, -1, n)
    x1 = 16 * u**6 * v * inv % n
    a24 = (v - u) ** 3 * (3 * u + v) * v**3 * inv % n
    # The ladder keeps (mP, (m + 1)P), whose difference is P = (x1:1).
    x, z = x1, 1
    xn, zn = _xdbl(x1, 1, a24, n)
    for bit in bin(_ecm_multiplier())[3:]:
        if bit == "1":
            x, z = _xadd(x, z, xn, zn, x1, 1, n)
            xn, zn = _xdbl(xn, zn, a24, n)
        else:
            xn, zn = _xadd(x, z, xn, zn, x1, 1, n)
            x, z = _xdbl(x, z, a24, n)
    g = math.gcd(z, n)
    if g != 1:
        return g if g < n else None
    return _ecm_stage2(x, z, a24, n)


def _ecm_stage2(x, z, a24, n):
    """Stage 2 of one curve: a nontrivial factor of odd n, or None, given
    stage 1's point Q = (x:z) with gcd(z, n) = 1. The points kDQ and jQ
    have one x mod a prime r of n exactly when the order of Q mod r divides
    kD - j or kD + j, so with every x normalized by one inverse
    (Montgomery's trick, after its gcd), `_stage2_gcd` tests each prime of
    the table up to _ECM_B2 as that order by one multiplication per
    pair."""
    table = k0, _, js, _ = _pm1_stage2_table(_ECM_B1)
    # The odd multiples jQ up to D/2 (each from the one two below, 2Q and
    # the one four below), then DQ = 2 (D/2)Q and the giant steps kDQ.
    two = _xdbl(x, z, a24, n)
    odd = [(x, z), _xadd(*two, x, z, x, z, n)]
    while len(odd) <= _PM1_STEP // 4:
        odd.append(_xadd(*odd[-1], *two, *odd[-2], n))
    step = _xdbl(*odd[-1], a24, n)
    giant = [(0, 0), step, _xdbl(*step, a24, n)]
    while len(giant) <= (_ECM_B2 + _PM1_STEP // 2) // _PM1_STEP:
        giant.append(_xadd(*giant[-1], *step, *giant[-2], n))
    points = [odd[j // 2] for j in js] + giant[k0:]
    prefix, acc = [], 1
    for _, zp in points:
        prefix.append(acc)
        acc = acc * zp % n
    g = math.gcd(acc, n)
    if g != 1:
        return g if g < n else None
    inv = pow(acc, -1, n)
    xs = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        xp, zp = points[i]
        xs[i] = xp * prefix[i] % n * inv % n
        inv = inv * zp % n
    return _stage2_gcd(n, table, dict(zip(js, xs)), xs[len(js) :])


def _ecm_split(n):
    """The elliptic-curve split of odd composite n of _PM1_STAGE2_BITS bits
    or more: the first factor that one of _ECM_CURVES curves, sigma = 6, 7,
    ..., finds; None below that size or when every curve finds none."""
    if n.bit_length() < _PM1_STAGE2_BITS:
        return None
    for sigma in range(6, 6 + _ECM_CURVES):
        g = _ecm_curve(n, sigma)
        if g:
            return g
    return None


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
    (`_pm1_split`: stage 1 to 2^11, then, on a cofactor of 50 bits or more,
    stage 2 over the primes up to 2^14); when that finds nothing, on a
    cofactor of 50 bits or more, by at most 40 elliptic curves
    (`_ecm_split`: stage 1 to 150, stage 2 to 8000); and when those find
    nothing, by Brent's rho. Rho raises FactorizationTimeout once the
    iterations it charges for this n pass 10^7. It charges only the
    iterations that multiply into its gcd product, not the advance loop
    between them, so it has done about twice that many steps by then.
    Deterministic for a fixed n; intended for desk-scale inputs.
    """
    if n < 1:
        raise InvalidInput(f"n must be >= 1, got {digits(n)}")
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
        d = _pm1_split(m) or _ecm_split(m) or _rho_split(m, budget)
        stack.append(d)
        stack.append(m // d)
    return _factorization(tuple(sorted(counts.items())), n)
