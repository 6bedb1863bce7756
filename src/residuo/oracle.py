"""The CRS(k) oracle abstraction: something that answers 2^k-th power
residue symbol queries (m|n)_{2^k}, with call accounting.

Every route shares one contract, kept by `CrsOracle.crs_query`: k >= 1,
n >= 2 and gcd(m, n) = 1 are checked before a query is counted, n is
factorized once per oracle and cached (the public `factorization(n)`,
which the reductions also read to refuse a modulus outside their promise
without spending a query), and a query whose level-(k-1)
symbol is -1 at some prime of n raises `PreconditionViolated` with
`prime` set to that prime of n and `level` (<= k-1) to the lowest level
at which m is not a 2^level-th power residue mod `prime`.

The routes differ only in how a well-posed query is evaluated: the factor
oracle (the Euler criterion, `symbol_prime_checked`, at each prime of n;
the reference), the
definition oracle (exhaustive solvability search per prime; the
independent cross-check), and the Zolotarev oracle (permutation signs for
prime and semiprime moduli; the third route).
"""

import math
import threading
from collections import Counter

from .arithmetic import Factorization, factorize, is_prime
from .errors import (
    InvalidInput,
    NotAdmissibleModulus,
    NotCoprime,
    SearchSpaceTooLarge,
)
from .symbols import require_admissible, symbol_composite, symbol_prime_definition
from .zolotarev import zolotarev_prime, zolotarev_semiprime


class OracleStats:
    """Query accounting: calls per level k, from which the total and the
    largest k seen are read."""

    def __init__(self, calls_by_k=()):
        self.calls_by_k = Counter(calls_by_k)

    @property
    def calls_total(self):
        return sum(self.calls_by_k.values())

    @property
    def max_k_seen(self):
        return max(self.calls_by_k, default=0)

    def record(self, k):
        self.calls_by_k[k] += 1

    def snapshot(self):
        return OracleStats(self.calls_by_k)

    def since(self, earlier):
        """Stats for the queries issued after `earlier` was snapshot."""
        return OracleStats(self.calls_by_k - earlier.calls_by_k)

    def to_json(self):
        return {
            "calls_total": self.calls_total,
            "calls_by_k": {str(k): v for k, v in sorted(self.calls_by_k.items())},
            "max_k_seen": self.max_k_seen,
        }


class CrsOracle:
    """Validates queries, keeps stats and the factorization cache, and
    delegates evaluation to the route's `_evaluate(m, n, k)`.

    `known` factorizations seed the cache; each is checked to be a prime
    factorization.
    """

    def __init__(self, known=None):
        self.stats = OracleStats()
        self._lock = threading.Lock()
        self._cache = {}
        for fact in known or ():
            _verify_factorization(fact)
            self._cache[fact.value] = fact

    def crs_query(self, m, n, k):
        if k < 1:
            raise InvalidInput(f"k must be >= 1, got {k}")
        if n < 2:
            raise InvalidInput(f"n must be >= 2, got {n}")
        if math.gcd(m, n) != 1:
            raise NotCoprime(f"gcd({m}, {n}) > 1")
        with self._lock:
            self.stats.record(k)
        return self._evaluate(m % n, n, k)

    def reset_stats(self):
        with self._lock:
            self.stats = OracleStats()

    def factorization(self, n):
        """The cached prime factorization of n; computing it counts no
        query."""
        fact = self._cache.get(n)
        if fact is None:
            fact = self._cache[n] = factorize(n)
        return fact

    def _evaluate(self, m, n, k):
        raise NotImplementedError


def _verify_factorization(fact: Factorization):
    primes = fact.primes()
    if primes != sorted(set(primes)) or not all(is_prime(p) for p in primes):
        raise InvalidInput("factor list must be strictly increasing primes")
    if any(e < 1 for _, e in fact.factors):
        raise InvalidInput("exponents must be positive")


class FactorOracle(CrsOracle):
    """The composite symbol via the Euler criterion, preconditions checked
    per prime and level."""

    def _evaluate(self, m, n, k):
        return symbol_composite(m, self.factorization(n), k)


class DefinitionOracle(CrsOracle):
    """Every prime-level symbol by exhaustive solvability search; exists
    purely as an independent cross-check of the Euler route."""

    def _evaluate(self, m, n, k):
        result = 1
        for p, e in self.factorization(n).factors:
            # Checked at even multiplicity too, as symbol_composite does.
            require_admissible(m, p, k)
            if e % 2 == 1:
                result *= symbol_prime_definition(m, p, k)
        return result


class ZolotarevOracle(CrsOracle):
    """Restricted permutation signs; supports prime and distinct-odd-prime
    semiprime moduli up to the enumeration limit."""

    LIMIT = 10**5

    def factorization(self, n):
        # The limit comes first, so no n beyond it is ever factorized, not
        # even by a reduction's promise check.
        if n > self.LIMIT:
            raise SearchSpaceTooLarge(f"n = {n} exceeds enumeration limit")
        return super().factorization(n)

    def _evaluate(self, m, n, k):
        fact = self.factorization(n)
        if fact.factors == ((n, 1),):
            return zolotarev_prime(m, n, k)
        pq = fact.odd_semiprime()
        if pq is None:
            raise NotAdmissibleModulus(
                f"n = {n} is neither prime nor a distinct-odd-prime semiprime"
            )
        return zolotarev_semiprime(m, *pq, k)


# perfbench/worker.py and perfbench/spans.py build their oracles by these
# names.
make_factor_oracle = FactorOracle
make_definition_oracle = DefinitionOracle
make_zolotarev_oracle = ZolotarevOracle
