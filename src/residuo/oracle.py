"""The CRS(k) oracle abstraction: something that answers 2^k-th power
residue symbol queries (m|n)_{2^k}, with call accounting.

Every route shares one contract, kept by `CrsOracle.crs_query`: k >= 1,
n >= 2 and gcd(m, n) = 1 are checked before a query is counted, n is
factorized once per oracle and cached beside the route's evaluator at n
(the public `factorization(n)`, which the reductions also read to refuse a
modulus outside their promise without spending a query; the last
`FACTORIZATIONS_KEPT` computed entries are kept, and a `known=` one,
prime-valid since it was built, is never factorized), and a query whose
level-(k-1) symbol is -1 at some prime of n raises `PreconditionViolated`
with `prime` set to that prime of n and `level` (<= k-1) to the lowest
level at which m is not a 2^level-th power residue mod `prime`.

The routes differ only in how a well-posed query is evaluated, each one
function `route(m, fact, k)` of m mod n, n's factorization and k: the
factor oracle's `symbol_composite` (the reference: the Jacobi symbol of n's
odd part at level 1, and at level 2 of an integer square m = s^2 the Jacobi
symbol (s|n1), n1 the part of n at the primes 1 mod 4, since there
m^((p-1)/4) = s^((p-1)/2) and elsewhere level 2 of a square is +1; the
Euler criterion at each prime otherwise), the definition oracle's
`symbol_definition` (exhaustive solvability search per prime; the
cross-check), and the Zolotarev oracle's `zolotarev_symbol` (permutation
signs at prime and semiprime n).

A query whose entry is cached reads it with one dict lookup, and its
count costs one lock acquire and release around one `Counter` update; the
factor route's evaluator then reads n's odd part and n1 from the entry, not
from the factor list, and takes no second gcd.  On a 53-bit odd semiprime
whose primes are 1 mod 4, a factor-oracle query takes about 1.1 us at
level 1 and 1.2 us at level 2 for Lemma L4's a^2 with a small, against
about 5 us for a square that is no integer square, of which the two Euler
powers are about 3.5 us; the count is about 0.3 us of each (2-vCPU Xeon,
Python 3.11.7).
"""

import math
import threading
from collections import Counter

from .arithmetic import Factorization, factorize
from .errors import InvalidInput, NotCoprime, SearchSpaceTooLarge, digits
from .symbols import ENUMERATION_LIMIT, symbol_composite, symbol_definition
from .zolotarev import zolotarev_symbol

FACTORIZATIONS_KEPT = 4096

# The routes whose evaluator at n is built by the route's own `at(fact)`,
# keyed by the function itself: a route swapped in, even one that wraps
# these, is called per query as it is.
_BUILT_ONCE = {symbol_composite: symbol_composite.at}


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
    """Validates queries, keeps stats and one cache entry per modulus, and
    delegates evaluation to the subclass's `route(m % n, fact, k)`.

    An entry holds n's factorization and the route's evaluate(m, k) at n,
    built once from it: for the factor route `symbol_composite.at(fact)`,
    which reads n's parts once, and for any other route, swapped or
    subclassed ones too, a call of `route(m, fact, k)`.  `known` entries
    must be `Factorization`s, prime-valid since they were built; they are
    kept for the oracle's life, keyed by their `value`, and their evaluator
    is built on first use.  Computed ones are kept up to
    `FACTORIZATIONS_KEPT`, the oldest dropped first, so a stream of fresh
    moduli holds bounded memory while no known one is ever factorized.
    """

    def __init__(self, known=None):
        self.stats = OracleStats()
        self._lock = threading.Lock()
        self._cache = {}
        self._known = {}
        for fact in known or ():
            if not isinstance(fact, Factorization):
                raise InvalidInput(
                    f"known= takes Factorization entries, got {type(fact).__name__}"
                )
            self._known[fact.value] = (fact, None)

    def crs_query(self, m, n, k):
        if k < 1:
            raise InvalidInput(f"k must be >= 1, got {digits(k)}")
        if n < 2:
            raise InvalidInput(f"n must be >= 2, got {digits(n)}")
        if math.gcd(m, n) != 1:
            raise NotCoprime(f"gcd({digits(m)}, {digits(n)}) > 1")
        # Counted before n's factorization is read, so a query whose n
        # fails to factorize still counts.
        self._lock.acquire()
        try:
            self.stats.calls_by_k[k] += 1
        finally:
            self._lock.release()
        return (self._cache.get(n) or self._entry(n))[1](m % n, k)

    def factorization(self, n):
        """The cached prime factorization of n; computing it counts no
        query."""
        return (self._cache.get(n) or self._entry(n))[0]

    def _entry(self, n):
        # n's (factorization, evaluator) on a miss of the computed cache.
        known = self._known.get(n)
        if known and known[1]:
            return known
        fact = known[0] if known else factorize(n)
        route = self.route
        at = _BUILT_ONCE.get(route)
        entry = (fact, at(fact) if at else lambda m, k: route(m, fact, k))
        if known:
            self._known[n] = entry
            return entry
        with self._lock:
            if len(self._cache) >= FACTORIZATIONS_KEPT:
                del self._cache[next(iter(self._cache))]
            self._cache[n] = entry
        return entry


class FactorOracle(CrsOracle):
    """The composite symbol via the Euler criterion, preconditions checked
    per prime and level; level 1 is the Jacobi symbol of n's odd part, the
    same value by reciprocity."""

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

    def _entry(self, n):
        # The limit comes first, so no n beyond it is ever factorized, not
        # even by a reduction's promise check.
        if n > ENUMERATION_LIMIT:
            raise SearchSpaceTooLarge(f"n = {digits(n)} exceeds enumeration limit")
        return super()._entry(n)


# perfbench/worker.py and perfbench/spans.py build their oracles by these
# names.
make_factor_oracle = FactorOracle
make_definition_oracle = DefinitionOracle
make_zolotarev_oracle = ZolotarevOracle
