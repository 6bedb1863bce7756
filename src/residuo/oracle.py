"""The CRS(k) oracle abstraction: something that answers 2^k-th power
residue symbol queries (m|n)_{2^k}, with call accounting.

Every route shares one contract, kept by `CrsOracle.crs_query`: k >= 1,
n >= 2 and gcd(m, n) = 1 are checked before a query is counted, n is
factorized once per oracle and cached (the public `factorization(n)`,
which the reductions also read to refuse a modulus outside their promise
without spending a query; the last `FACTORIZATIONS_KEPT` computed ones are
kept), and a query whose level-(k-1)
symbol is -1 at some prime of n raises `PreconditionViolated` with
`prime` set to that prime of n and `level` (<= k-1) to the lowest level
at which m is not a 2^level-th power residue mod `prime`.

The routes differ only in how a well-posed query is evaluated, each one
function `route(m, fact, k)` of m mod n, n's factorization and k: the
factor oracle's `symbol_composite` (the Euler criterion at each prime; the
reference), the definition oracle's `symbol_definition` (exhaustive
solvability search per prime; the cross-check), and the Zolotarev oracle's
`zolotarev_symbol` (permutation signs at prime and semiprime n).
"""

import math
import threading
from collections import Counter

from .arithmetic import Factorization, factorize, is_prime
from .errors import InvalidInput, NotCoprime, SearchSpaceTooLarge
from .symbols import ENUMERATION_LIMIT, symbol_composite, symbol_definition
from .zolotarev import zolotarev_symbol

FACTORIZATIONS_KEPT = 4096


class OracleStats:
    """Query accounting: calls per level k, from which the total and the
    largest k seen are read.  Equality, hash and repr go by the counts, so
    a result that carries its stats compares and prints by value."""

    def __init__(self, calls_by_k=()):
        self.calls_by_k = Counter(calls_by_k)

    def __eq__(self, other):
        if not isinstance(other, OracleStats):
            return NotImplemented
        return self.calls_by_k == other.calls_by_k

    def __hash__(self):
        return hash(frozenset((+self.calls_by_k).items()))

    def __repr__(self):
        return f"OracleStats({dict(sorted(self.calls_by_k.items()))})"

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
    delegates evaluation to the subclass's `route(m % n, fact, k)`.

    `known` factorizations are checked to be prime factorizations and kept
    for the oracle's life.  Computed ones are kept up to
    `FACTORIZATIONS_KEPT`, the oldest dropped first, so a stream of fresh
    moduli holds bounded memory while no known one is ever factorized.
    """

    def __init__(self, known=None):
        self.stats = OracleStats()
        self._lock = threading.Lock()
        self._cache = {}
        self._known = {}
        for fact in known or ():
            _verify_factorization(fact)
            self._known[fact.value] = fact

    def crs_query(self, m, n, k):
        if k < 1:
            raise InvalidInput(f"k must be >= 1, got {k}")
        if n < 2:
            raise InvalidInput(f"n must be >= 2, got {n}")
        if math.gcd(m, n) != 1:
            raise NotCoprime(f"gcd({m}, {n}) > 1")
        with self._lock:
            self.stats.record(k)
        return self.route(m % n, self.factorization(n), k)

    def factorization(self, n):
        """The cached prime factorization of n; computing it counts no
        query."""
        fact = self._cache.get(n) or self._known.get(n)
        if fact is None:
            fact = factorize(n)
            with self._lock:
                if len(self._cache) >= FACTORIZATIONS_KEPT:
                    del self._cache[next(iter(self._cache))]
                self._cache[n] = fact
        return fact


def _verify_factorization(fact: Factorization):
    primes = fact.primes()
    if primes != sorted(set(primes)) or not all(is_prime(p) for p in primes):
        raise InvalidInput("factor list must be strictly increasing primes")
    if any(e < 1 for _, e in fact.factors):
        raise InvalidInput("exponents must be positive")


class FactorOracle(CrsOracle):
    """The composite symbol via the Euler criterion, preconditions checked
    per prime and level."""

    route = staticmethod(symbol_composite)


class DefinitionOracle(CrsOracle):
    """Every prime-level symbol by exhaustive solvability search; exists
    purely as an independent cross-check of the Euler route."""

    route = staticmethod(symbol_definition)


class ZolotarevOracle(CrsOracle):
    """Restricted permutation signs; supports prime and distinct-odd-prime
    semiprime moduli up to `ENUMERATION_LIMIT`, the bound on every mask
    the route reads."""

    route = staticmethod(zolotarev_symbol)

    def factorization(self, n):
        # The limit comes first, so no n beyond it is ever factorized, not
        # even by a reduction's promise check.
        if n > ENUMERATION_LIMIT:
            raise SearchSpaceTooLarge(f"n = {n} exceeds enumeration limit")
        return super().factorization(n)


# perfbench/worker.py and perfbench/spans.py build their oracles by these
# names.
make_factor_oracle = FactorOracle
make_definition_oracle = DefinitionOracle
make_zolotarev_oracle = ZolotarevOracle
