"""The rational 2^k-th power residue symbol.

Two prime-level evaluation routes are provided: exhaustive solvability
search (the brute-force reference) and the Euler-type power criterion.  The
composite symbol is the product over prime factors with multiplicity.

The residue sets behind the definition route are cached byte masks, built
by the shape of n: a CRT product of the parts' masks at composite n, one
walk of the subgroup of 2^k-th powers at an odd prime, shared by every level
above nu_2(p-1) and by both kinds, and squaring level by level elsewhere (see
`power_residues`).  The cache is bounded by bytes, not by entries: once the
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

from .arithmetic import Factorization, factorize, valuation
from .errors import (
    InvalidInput,
    NotCoprime,
    PreconditionViolated,
    SearchSpaceTooLarge,
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
    - n with two or more prime-power parts q: by the CRT, a is in the set
      exactly when a mod q is in the set mod q for every q, so the mask is
      the bytewise AND of each part's mask tiled n/q times.  Only (n, k)
      and the parts' entries are cached, no lower level at n.
    - an odd prime n, k >= 1: every unit is g^i for a primitive root g
      (searched once per prime), so the image of the units is the cyclic
      subgroup generated by h = g^(2^k), of order (n-1)/2^k, walked that
      many steps from 1.  With v = nu_2(n-1) the subgroup stops shrinking
      at level v, so every k > v returns the level-v mask itself, and the
      all-residues mask is the units mask with byte 0 set, not a second
      walk.
    - k = 0, n = 1, n = 2 and prime powers: level 0 is every residue, or
      the units found by zeroing the multiples of each prime factor of n;
      each higher level squares the members of the level below.
    """
    if n < 1:
        raise InvalidInput(f"n must be >= 1, got {n}")
    if k < 0:
        raise InvalidInput(f"k must be >= 0, got {k}")
    if n > ENUMERATION_LIMIT:
        raise SearchSpaceTooLarge(f"n = {n} exceeds enumeration limit")
    if k > n.bit_length():
        # The image stops shrinking once 2^k exceeds n.
        return power_residues(n, n.bit_length(), units_only)
    if k == 0:
        mask = bytearray(b"\x01") * n
        if units_only:
            for p in factorize(n).primes():
                mask[::p] = bytes(len(range(0, n, p)))
        return _admit(bytes(mask))
    factors = factorize(n).factors
    if len(factors) > 1:
        masks = (
            int.from_bytes(power_residues(q, k, units_only) * (n // q), "big")
            for q in (p**e for p, e in factors)
        )
        return _admit(reduce(and_, masks).to_bytes(n, "big"))
    if n > 2 and factors[0][1] == 1:
        v = valuation(n - 1, 2)
        if k > v:
            return power_residues(n, v, units_only)
        if not units_only:
            return _admit(b"\x01" + power_residues(n, k, True)[1:])
        h = pow(_primitive_root(n), 1 << k, n)
        mask = bytearray(n)
        x = 1
        for _ in range((n - 1) >> k):
            mask[x] = 1
            x = x * h % n
        return _admit(bytes(mask))
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

    This is the brute-force oracle every faster path is tested against.
    """
    mask = power_residues(p, k, True)
    if a % p == 0:
        raise NotCoprime(f"p = {p} divides a = {a}")
    return 1 if mask[a % p] else -1


def require_admissible(a, p, k):
    """Raise PreconditionViolated unless (a|p)_{2^(k-1)} = +1, decided by
    enumeration; the error names the lowest level at which a is not a
    2^level-th power residue mod p.  A k < 1 is refused before any mask."""
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if symbol_prime_definition(a, p, k - 1) != 1:
        # Level 0 is -1 only for a non-unit a of a composite p.
        level = next(j for j in range(k) if symbol_prime_definition(a, p, j) != 1)
        raise PreconditionViolated(
            f"(a|{p}) at level 2^{level} is -1", prime=p, level=level
        )


def symbol_prime_checked(a, p, k):
    """(a|p)_{2^k} by the Euler-type criterion, with the level-(k-1)
    precondition verified; the one Euler route of the package.

    With v = nu_2(p-1), one power r = a^((p-1)/2^min(k, v)) decides both:
    r = 1 gives +1 and r = -1 with k <= v gives -1, since every lower level
    is then +1; anything else is a violation, reported at the lowest level
    where the symbol is -1.  Levels above v equal level v.

    p must be prime, and every oracle passes only the primes of its
    factorized modulus.  No primality test runs here, since it would cost
    every query: a composite p can get an answer that means nothing, and
    only one that shows no such level is refused with `InvalidInput`.
    """
    if p < 1:
        raise InvalidInput(f"p must be >= 1, got {p}")
    if a % p == 0:
        raise NotCoprime(f"p = {p} divides a = {a}")
    if k == 0:
        return 1
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    v = valuation(p - 1, 2)
    r = pow(a, (p - 1) >> min(k, v), p)
    if r == 1:
        return 1
    if r == p - 1 and k <= v:
        return -1
    level = next((j for j in range(1, k) if pow(a, (p - 1) >> j, p) != 1), None)
    if level is None:
        raise InvalidInput(f"p = {p} is not prime")
    raise PreconditionViolated(
        f"(a|{p}) at level 2^{level} is -1", prime=p, level=level
    )


def symbol_composite(a, n_fact: Factorization, k):
    """(a|n)_{2^k} as the product over the prime factors of n with
    multiplicity, preconditions verified per prime and level."""
    n = n_fact.value
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"gcd({a}, {n}) > 1")
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    result = 1
    for p, e in n_fact.factors:
        if e % 2 == 1:
            result *= symbol_prime_checked(a, p, k)
        else:
            # Even multiplicity contributes +1, but the precondition must
            # still hold for the composite symbol to be well defined.
            symbol_prime_checked(a, p, k)
    return result


def symbol_definition(a, n_fact: Factorization, k):
    """(a|n)_{2^k} as the product over the prime factors of n with
    multiplicity, each prime-level symbol by exhaustive solvability search;
    the independent cross-check of `symbol_composite`."""
    if math.gcd(a, n_fact.value) != 1:
        raise NotCoprime(f"gcd({a}, {n_fact.value}) > 1")
    result = 1
    for p, e in n_fact.factors:
        # Checked at even multiplicity too, as symbol_composite does.
        require_admissible(a, p, k)
        if e % 2 == 1:
            result *= symbol_prime_definition(a, p, k)
    return result
