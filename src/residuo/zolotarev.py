"""Permutation-sign characterizations of the 2^k-th power residue symbol.

The symbol at a prime equals the sign of multiplication-by-a restricted to
the level-(k-1) unit residue set; at a semiprime the restriction set is
chosen by a case split on N mod 2^k.  For moduli with three or more prime
factors the characterization fails, and a search for the smallest
counterexample is included.
"""

import math
from itertools import compress
from typing import NamedTuple

from .arithmetic import Factorization, factorize, valuation
from .errors import (
    InvalidInput,
    NotAdmissibleModulus,
    NotAPermutation,
    NotClosedUnderAction,
    NotCoprime,
    digits,
)
from .symbols import ResidueClassSet, power_residues, symbol_definition


class PermutationTable(NamedTuple):
    """A permutation of a listed residue set: position i maps
    domain[i] -> image[i]; domain is sorted ascending."""

    domain: tuple
    image: tuple


def permutation_sign(perm: PermutationTable):
    """+1 for even permutations, -1 for odd, via cycle decomposition:
    sign = (-1)^(|domain| - #cycles)."""
    domain, image = perm.domain, perm.image
    n = len(domain)
    if len(image) != n:
        raise NotAPermutation("domain and image differ in length")
    pos = {x: i for i, x in enumerate(domain)}
    try:
        nxt = [pos[y] for y in image]
    except KeyError as exc:
        value = digits(exc.args[0])
        raise NotAPermutation(f"image value {value} not in domain") from None
    visited = bytearray(n)
    cycles = 0
    for i in range(n):
        if visited[i]:
            continue
        cycles += 1
        j = i
        while not visited[j]:
            visited[j] = 1
            j = nxt[j]
        if j != i:
            raise NotAPermutation("image repeats a value")
    return -1 if (n - cycles) & 1 else 1


def multiplication_permutation(a, rset: ResidueClassSet):
    """The table x -> a*x mod n over rset.members, n = rset.modulus."""
    n = rset.modulus
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"gcd({digits(a)}, {digits(n)}) > 1")
    members = rset.members
    mset = frozenset(members)
    image = []
    for x in members:
        y = a * x % n
        if y not in mset:
            raise NotClosedUnderAction(
                f"{digits(a)}*{x} = {y} mod {n} leaves the set"
                " (violated symbol precondition?)"
            )
        image.append(y)
    return PermutationTable(members, tuple(image))


def restricted_sign(a, n, k, units_only):
    """Sign of x -> a*x mod n on the 2^k-th power residues mod n (over the
    units only or over all residues); raises NotCoprime when a is not a
    unit and NotClosedUnderAction when a does not preserve that set.

    The set is a power image, so it holds 1 and is closed under products:
    a unit a maps it onto itself exactly when a is a member, which is
    checked once on the cached mask before the walk."""
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"gcd({digits(a)}, {digits(n)}) > 1")
    members = power_residues(n, k, units_only)
    a %= n
    if not members[a]:
        raise NotClosedUnderAction(
            f"multiplication by {a} leaves the set mod {n}"
        )
    # Each cycle is walked by clearing its points in `left`, a working copy
    # of the mask, and the next cycle starts at the first point still set.
    left = bytearray(members)
    find = left.find
    cycles = 0
    start = find(1)
    while start >= 0:
        cycles += 1
        left[start] = 0
        x = a * start % n
        while x != start:
            left[x] = 0
            x = a * x % n
        start = find(1, start + 1)
    return -1 if (members.count(1) - cycles) & 1 else 1


def zolotarev_symbol(a, n_fact: Factorization, k):
    """(a|n)_{2^k} for a unit a and n prime or a distinct-odd-prime
    semiprime, from its factorization, prime-valid since it was built: the
    zolotarev_prime sign, or at n = pq the zolotarev_semiprime one; no
    primality test runs here.  After the shape and gcd checks, k < 1 is
    refused before any mask is read.  Admissibility is decided once, by
    `restricted_sign`'s test of a against the level-(k-1) mask it walks
    (by the CRT, a member exactly when that symbol is +1 at every prime);
    on a miss `symbol_definition` raises the PreconditionViolated naming
    the first failing prime and level.  So a direct call above
    `ENUMERATION_LIMIT` is refused by size first."""
    n = n_fact.value
    if n_fact.factors != ((n, 1),) and n_fact.odd_semiprime() is None:
        raise NotAdmissibleModulus(
            f"n = {digits(n)} is neither prime nor a distinct-odd-prime semiprime"
        )
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"gcd({digits(a)}, {digits(n)}) > 1")
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {digits(k)}")
    # n = pq = 1 mod 2^k exactly when nu_2(n - 1) >= k.
    units_only = len(n_fact.factors) == 1 or valuation(n - 1, 2) < k
    try:
        return restricted_sign(a, n, k - 1, units_only)
    except NotClosedUnderAction:
        symbol_definition(a, n_fact, k)
        raise


def zolotarev_prime(a, p, k):
    """(a|p)_{2^k} as the sign of multiplication-by-a restricted to the
    level-(k-1) unit residue set mod p; a p that `Factorization` finds not
    prime is refused with NotAdmissibleModulus."""
    if p < 1:
        raise InvalidInput(f"p must be >= 1, got {digits(p)}")
    try:
        fact = Factorization(((p, 1),))
    except InvalidInput:
        raise NotAdmissibleModulus(f"p = {digits(p)} is not prime") from None
    return zolotarev_symbol(a, fact, k)


def zolotarev_semiprime(m, p, q, k):
    """(m|pq)_{2^k} as a restricted permutation sign: over the full
    level-(k-1) residue set when N = 1 mod 2^k, over the unit subgroup
    otherwise."""
    try:
        fact = Factorization(((min(p, q), 1), (max(p, q), 1)))
    except InvalidInput:
        fact = None
    if fact is None or 2 in (p, q):
        raise NotAdmissibleModulus(
            f"need distinct odd primes, got p = {digits(p)}, q = {digits(q)}"
        )
    return zolotarev_symbol(m, fact, k)


def find_tripleprime_counterexample(limit):
    """Smallest (n, m) in lexicographic order with n = pqr <= limit,
    p = 3 mod 4, q, r = 1 mod 4 distinct primes, m a unit square mod n,
    by the CRT (m|p)_2 = (m|q)_2 = (m|r)_2 = +1, with (m|n)_4 = -1 by the
    definition route, yet both restricted permutation signs (unit subgroup
    and full square set) are +1.

    Odd n are walked upward and the first hit ends the search; returns
    None when no such pair exists up to the limit.
    """
    for n in range(3, limit + 1, 2):
        fact = factorize(n)
        if sorted((r % 4, e) for r, e in fact.factors) != [(1, 1), (1, 1), (3, 1)]:
            continue
        for m in compress(range(2, n), power_residues(n, 1, True)[2:]):
            if symbol_definition(m, fact, 2) != -1:
                continue
            if (
                restricted_sign(m, n, 1, True) == 1
                and restricted_sign(m, n, 1, False) == 1
            ):
                return n, m
    return None
