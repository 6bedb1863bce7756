"""The rational 2^k-th power residue symbol.

Two prime-level evaluation routes are provided: exhaustive solvability
search (the brute-force reference) and the Euler-type power criterion.  The
composite symbol is the product over prime factors with multiplicity; the
Euler route's level 1 is the Jacobi symbol of n's odd part, one reciprocity
run in place of one power per prime.  Its level 2 at an integer square
a = s^2 mod n is one Jacobi symbol too, (s|n1) for n1 the part of n at the
primes 1 mod 4: there (s^2)^((p-1)/4) = s^((p-1)/2), and at 2 and at the
primes 3 mod 4 level 2 reads a lower level, where a square is +1.  That
makes Lemma L4's (a^2|N)_4, a below sqrt(N), as cheap as its (a|N)_2.
Every other query costs one power per prime and about 0.1 us besides.
`symbol_composite` adds about 1 us per call for its gcd and k checks and
for reading n's odd part and n1 off the factor list; the factor oracle
reads those once per modulus, and its evaluator adds under 0.1 us to a
level-1 Jacobi symbol (2-vCPU Xeon, Python 3.11.7).

The residue sets behind the definition route are cached byte masks, built
by the shape of n (see `power_residues`): at an odd prime, found by a
primality test with no factorization of n, level 0 zeroes only the
multiples of n, and each level above it is one walk of the subgroup of
2^k-th powers, shared by every level above nu_2(p-1) and by both kinds, and
only half as long, then mirrored, while that subgroup holds -1; a CRT product
of the parts' masks at composite n; and squaring level by level
elsewhere.  The cache is bounded by bytes, not by entries: once the
masks built since it was last empty would pass `MASK_BUDGET` bytes, it is
emptied whole before the new mask goes in.

Symbols take values in {+1, -1}, represented as plain ints.
"""

import math
import threading
from functools import lru_cache, reduce
from itertools import compress
from operator import and_
from typing import NamedTuple

from .arithmetic import Factorization, factorize, is_prime, jacobi, valuation
from .errors import (
    InvalidInput,
    NotCoprime,
    PreconditionViolated,
    SearchSpaceTooLarge,
    digits,
)

ENUMERATION_LIMIT = 10**6

# Two limit-sized masks, the working set of one query at the limit.
MASK_BUDGET = 2 * ENUMERATION_LIMIT


class ResidueClassSet(NamedTuple):
    """The image of x -> x^(2^k) mod `modulus`, over all residues or over
    the units only.  Members are sorted ascending."""

    modulus: int
    k: int
    units_only: bool
    members: tuple

    def to_json(self):
        return {
            "modulus": str(self.modulus),
            "k": self.k,
            "units_only": self.units_only,
            "members": [str(m) for m in self.members],
        }


@lru_cache(maxsize=None)
def power_residues(n, k, units_only):
    """Membership mask of the 2^k-th power residues mod n, over the units
    only or over all residues: `bytes` of length n, so `mask[a % n]` is 1
    exactly when a is in the set.  Enumerated once per (n, k, units_only)
    and cached; the input checks run only on a miss, since a raised error
    is never cached.

    The cache holds at most `MASK_BUDGET` bytes of masks.  A miss counts
    the bytes of each mask it builds (a key that shares another key's mask
    adds nothing), and a mask that would take the count past the budget
    empties the whole cache first, so a hit stays one C-level lookup.  A
    cache found empty, by that or by an outside `cache_clear()`, counts 0.

    Three constructions, by the shape of n:
    - an odd prime n, k >= 1, told by `is_prime` before anything is
      factorized: every unit is g^i for a primitive root g (searched once
      per prime), so the image of the units is the cyclic subgroup H_k
      generated by h = g^(2^k), of order m = (n-1)/2^k.  With v =
      nu_2(n-1) the subgroup stops shrinking at level v, so every k > v
      returns the level-v mask itself, and the all-residues mask is the
      units mask with byte 0 set, not a second walk.  For k < v, m is even
      and -1 = h^(m/2) is in H_k, so H_k is the h^i and their negatives
      for i < m/2: that half is walked, each member stored at the one of x,
      n-x at most n/2, and the upper half of the mask is copied from the
      lower as its mirror image.  At k = v, m is odd and all m steps are
      walked.
    - n with two or more prime-power parts q: by the CRT, a is in the set
      exactly when a mod q is in the set mod q for every q, so the mask is
      the bytewise AND of each part's mask tiled n/q times.  Only (n, k)
      and the parts' entries are cached, no lower level at n.
    - k = 0, n = 1, n = 2 and prime powers: level 0 is every residue, or
      the units found by zeroing the multiples of each prime factor of n,
      n itself when `is_prime` says n is prime; each higher level squares
      the members of the level below.
    Only the last two factorize n, and neither factorizes an odd prime.
    """
    if n < 1:
        raise InvalidInput(f"n must be >= 1, got {digits(n)}")
    if k < 0:
        raise InvalidInput(f"k must be >= 0, got {digits(k)}")
    if n > ENUMERATION_LIMIT:
        raise SearchSpaceTooLarge(f"n = {digits(n)} exceeds enumeration limit")
    if k > n.bit_length():
        # The image stops shrinking once 2^k exceeds n.
        return power_residues(n, n.bit_length(), units_only)
    if k == 0:
        mask = bytearray(b"\x01") * n
        if units_only:
            for p in [n] if is_prime(n) else factorize(n).primes():
                mask[::p] = bytes(len(range(0, n, p)))
        return _admit(bytes(mask))
    if n > 2 and is_prime(n):
        v = valuation(n - 1, 2)
        if k > v:
            return power_residues(n, v, units_only)
        if not units_only:
            return _admit(b"\x01" + power_residues(n, k, True)[1:])
        h = pow(_primitive_root(n), 1 << k, n)
        m = (n - 1) >> k
        mask = bytearray(n)
        x = 1
        if m % 2:
            for _ in range(m):
                mask[x] = 1
                x = x * h % n
            return _admit(bytes(mask))
        # -1 = h^(m/2) is a member, so the members are +-h^i for i < m/2:
        # each is stored at its representative in [1, n/2], then mirrored.
        half = n // 2
        for _ in range(m >> 1):
            mask[x if x <= half else n - x] = 1
            x = x * h % n
        mask[half + 1 :] = mask[half:0:-1]
        return _admit(bytes(mask))
    factors = factorize(n).factors
    if len(factors) > 1:
        masks = (
            int.from_bytes(power_residues(q, k, units_only) * (n // q), "big")
            for q in (p**e for p, e in factors)
        )
        return _admit(reduce(and_, masks).to_bytes(n, "big"))
    prev = power_residues(n, k - 1, units_only)
    mask = bytearray(n)
    for x in compress(range(n), prev):
        mask[x * x % n] = 1
    return _admit(bytes(mask))


_held = 0  # bytes of the masks built since the cache was last empty
_held_lock = threading.Lock()


def _admit(mask):
    # A miss passes each mask it builds here after the masks it reads, so
    # the cache never keeps a mask built before it was last emptied.
    global _held
    with _held_lock:
        if not _power_image.cache_info().currsize:
            _held = 0
        elif _held + len(mask) > MASK_BUDGET:
            _power_image.cache_clear()
            _held = 0
        _held += len(mask)
    return mask


@lru_cache(maxsize=4096)
def _primitive_root(p):
    """The least generator of the units mod an odd prime p."""
    cofactors = [(p - 1) // r for r in factorize(p - 1).primes()]
    return next(
        g for g in range(2, p) if all(pow(g, c, p) != 1 for c in cofactors)
    )


# The cache object itself: `_admit` reads it here, so a wrapper bound over
# `power_residues` keeps the budget working; perfbench/spans.py reads it too.
_power_image = power_residues


def residue_set(n, k, units_only):
    """The 2^k-th power residues mod n as a sorted ResidueClassSet."""
    mask = power_residues(n, k, units_only)
    return ResidueClassSet(n, k, units_only, tuple(compress(range(n), mask)))


def symbol_prime_definition(a, p, k):
    """(a|p)_{2^k} straight from the definition: +1 iff x^(2^k) = a mod p
    is solvable, decided by exhaustive enumeration.

    This is the brute-force oracle every faster path is tested against.  A
    p that is not prime is refused with `InvalidInput` before any mask is
    read; the routes call the unchecked body.
    """
    if not is_prime(p):
        raise InvalidInput(f"p = {digits(p)} is not prime")
    return _symbol_prime_definition(a, p, k)


def _symbol_prime_definition(a, p, k):
    mask = power_residues(p, k, True)
    if a % p == 0:
        raise NotCoprime(f"p = {digits(p)} divides a = {digits(a)}")
    return 1 if mask[a % p] else -1


def symbol_prime_checked(a, p, k):
    """(a|p)_{2^k} by the Euler-type criterion, with the level-(k-1)
    precondition verified; the one Euler route of the package.

    With v = nu_2(p-1), one power r = a^((p-1)/2^min(k, v)) decides both:
    r = 1 gives +1 and r = -1 with k <= v gives -1, since every lower level
    is then +1; anything else is a violation, reported at the lowest level
    where the symbol is -1.  Levels above v equal level v.

    A p that is not prime is refused first, with `InvalidInput`, by one
    primality test.  The routes pass only the primes of a `Factorization`,
    each tested once when it was built, to the unchecked body, so no query
    pays that test.  In the body the answer comes first: at k >= 1 and
    p >= 2, nu_2(p-1), that one power and two compares answer every
    well-posed query, about 0.1 us over the power itself (2-vCPU Xeon,
    Python 3.11.7).  An r of 1 or -1 shows p does not divide a, so only a
    query they leave unanswered meets the argument checks, in their order
    (p not dividing a, k = 0 answered +1, k >= 1), and then the search for
    the violated level.
    """
    if not is_prime(p):
        raise InvalidInput(f"p = {digits(p)} is not prime")
    return _symbol_prime_checked(a, p, k)


def _symbol_prime_checked(a, p, k):
    if k > 0:
        v = ((p - 1) & (1 - p)).bit_length() - 1  # nu_2(p - 1)
        r = pow(a, (p - 1) >> (k if k < v else v), p)
        if r == 1:
            return 1
        if r == p - 1 and k <= v:
            return -1
    if a % p == 0:
        raise NotCoprime(f"p = {digits(p)} divides a = {digits(a)}")
    if k == 0:
        return 1
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {digits(k)}")
    # Here k >= 1, and the power above answered neither +1 nor -1, so at a
    # prime p some level below k is -1.
    level = next(j for j in range(1, k) if pow(a, (p - 1) >> j, p) != 1)
    raise PreconditionViolated(
        f"(a|{digits(p)}) at level 2^{level} is -1", prime=p, level=level
    )


def _composite_at(n_fact):
    """`symbol_composite` at one n, as a function evaluate(a, k) of a unit
    a mod n, 0 <= a < n, and k >= 1, which the caller has checked: n's odd
    part and n1 are read off `n_fact` once, not per query."""
    factors, n = n_fact
    odd = n // (n & -n)
    n1 = 1
    for p, e in factors:
        if p & 3 == 1:
            n1 *= p**e

    def evaluate(a, k):
        if k == 1:
            return jacobi(a, odd)
        if k == 2:
            s = math.isqrt(a)
            if s * s == a:
                return jacobi(s, n1)
        result = 1
        for p, e in factors:
            # Checked at even multiplicity too: the precondition must hold
            # there for the composite symbol to be well defined.
            sign = _symbol_prime_checked(a, p, k)
            if e & 1:
                result *= sign
        return result

    return evaluate


def symbol_composite(a, n_fact: Factorization, k):
    """(a|n)_{2^k} as the product over the prime factors of n with
    multiplicity, preconditions verified per prime and level.

    Level 1 has no precondition at a unit, and there the product of the
    Euler criteria at the odd primes is the Jacobi symbol of n's odd part
    (the factor 2 gives +1), so it is read by reciprocity with no power.
    Level 2 of an integer square, a mod n = s^2, is the Jacobi symbol
    (s|n1), n1 the product of the p^e of n with p = 1 mod 4: at such p,
    (s^2)^((p-1)/4) = s^((p-1)/2) = (s|p), and at p = 2 and p = 3 mod 4
    level 2 equals a lower level, where a square is +1.  A unit square
    meets every precondition, so no refusal is skipped.  Every other query
    evaluates the Euler criterion at each prime.

    `symbol_composite.at(n_fact)` is the evaluation after these checks,
    built once per n: the factor oracle keeps one per modulus."""
    n = n_fact.value
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"gcd({digits(a)}, {digits(n)}) > 1")
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {digits(k)}")
    return _composite_at(n_fact)(a % n, k)


symbol_composite.at = _composite_at


def symbol_definition(a, n_fact: Factorization, k):
    """(a|n)_{2^k} as the product over the prime factors of n with
    multiplicity, each prime-level symbol by exhaustive solvability search;
    the independent cross-check of `symbol_composite`.  After the gcd check
    k < 1 is refused once, before any mask is read (n = 1 too); then each
    prime in turn whose level-(k-1) symbol is -1 raises PreconditionViolated
    naming the lowest level at which a is not a 2^level-th power residue."""
    if math.gcd(a, n_fact.value) != 1:
        raise NotCoprime(f"gcd({digits(a)}, {digits(n_fact.value)}) > 1")
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {digits(k)}")
    result = 1
    for p, e in n_fact.factors:
        # Checked at even multiplicity too, as symbol_composite does.  Level
        # 0 of a unit is +1, so the search for the failing level starts at 1.
        if _symbol_prime_definition(a, p, k - 1) != 1:
            level = next(j for j in range(1, k) if _symbol_prime_definition(a, p, j) != 1)
            raise PreconditionViolated(
                f"(a|{digits(p)}) at level 2^{level} is -1", prime=p, level=level
            )
        if e % 2 == 1:
            result *= _symbol_prime_definition(a, p, k)
    return result
