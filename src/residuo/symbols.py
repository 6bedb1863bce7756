"""The rational 2^k-th power residue symbol.

Three prime-level evaluation routes are provided: exhaustive solvability
search (the brute-force reference), the Euler-type power criterion, and a
clamp to the stabilization level.  The composite symbol is the product over
prime factors with multiplicity.

Symbols take values in {+1, -1}, represented as plain ints.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from .arithmetic import Factorization, factorize, jacobi, valuation
from .errors import (
    InvalidInput,
    NotCoprime,
    PreconditionViolated,
    SearchSpaceTooLarge,
)

ENUMERATION_LIMIT = 10**6


@dataclass(frozen=True)
class ResidueClassSet:
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


@lru_cache(maxsize=16384)
def power_residues(n, k, units_only):
    """Membership mask of the 2^k-th power residues mod n, over the units
    only or over all residues: `bytes` of length n, so `mask[a % n]` is 1
    exactly when a is in the set.  Enumerated once per (n, k, units_only)
    and cached; the input checks run only on a miss, since a raised error
    is never cached.

    Level 0 is every residue, or the units found by zeroing the multiples of
    each prime factor of n.  Level 1 squares only x <= n/2, since level 0 is
    closed under x -> n - x and (n - x)^2 = x^2; each higher level squares
    the members of the level below (each squaring shrinks or keeps the set).
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
        return bytes(mask)
    prev = power_residues(n, k - 1, units_only)
    mask = bytearray(n)
    for x in compress(range(n // 2 + 1 if k == 1 else n), prev):
        mask[x * x % n] = 1
    return bytes(mask)


# perfbench/spans.py reads the cache statistics under this name.
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
    2^level-th power residue mod p."""
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
    """
    if a % p == 0:
        raise NotCoprime(f"p = {p} divides a = {a}")
    if k == 0 or p == 2:
        return 1
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    v = valuation(p - 1, 2)
    r = pow(a, (p - 1) >> min(k, v), p)
    if r == 1:
        return 1
    if r == p - 1 and k <= v:
        return -1
    level = next(j for j in range(1, k) if pow(a, (p - 1) >> j, p) != 1)
    raise PreconditionViolated(
        f"(a|{p}) at level 2^{level} is -1", prime=p, level=level
    )


def symbol_composite(a, n_fact: Factorization, k):
    """(a|n)_{2^k} as the product over the prime factors of n with
    multiplicity, preconditions verified per prime and level."""
    n = n_fact.value
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"gcd({a}, {n}) > 1")
    result = 1
    for p, e in n_fact.factors:
        if e % 2 == 1:
            result *= symbol_prime_checked(a, p, k)
        else:
            # Even multiplicity contributes +1, but the precondition must
            # still hold for the composite symbol to be well defined.
            symbol_prime_checked(a, p, k)
    return result


def symbol_stabilized(a, p, k):
    """(a|p)_{2^k} with k clamped to the stabilization level nu_2(p-1);
    the clamp does not change the value for any k."""
    if a % p == 0:
        raise NotCoprime(f"p = {p} divides a = {a}")
    if p == 2:
        return 1
    return symbol_prime_definition(a, p, min(k, valuation(p - 1, 2)))


def symbol_power_shortcut(a, p, k):
    """(a^(2^(k-1))|p)_{2^k} without exponentiating a: equals the quadratic
    symbol (a|p)_2 when k <= nu_2(p-1) and +1 otherwise."""
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if a % p == 0:
        raise NotCoprime(f"p = {p} divides a = {a}")
    if p == 2:
        return 1
    if k <= valuation(p - 1, 2):
        return jacobi(a % p, p)
    return 1
