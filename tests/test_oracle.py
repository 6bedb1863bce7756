import functools
import json
import math
import sys
import threading
from collections import Counter

import pytest

import residuo.arithmetic
import residuo.symbols
import residuo.zolotarev
from residuo.arithmetic import Factorization, factorize, is_prime, jacobi
from residuo.errors import (
    FactorizationTimeout,
    InvalidInput,
    NotAdmissibleModulus,
    NotCoprime,
    PreconditionViolated,
    ResiduoError,
    SearchSpaceTooLarge,
)
from residuo import oracle as oracle_module
from residuo.oracle import (
    FACTORIZATIONS_KEPT,
    DefinitionOracle,
    FactorOracle,
    OracleStats,
    ZolotarevOracle,
)
from residuo.symbols import (
    symbol_composite,
    symbol_definition,
    symbol_prime_checked,
    symbol_prime_definition,
)
from residuo.zolotarev import zolotarev_symbol

ALL_FACTORIES = (FactorOracle, DefinitionOracle, ZolotarevOracle)
# The ids keep the names these parametrized tests have always run under.
FACTORY_IDS = ("make_factor_oracle", "make_definition_oracle", "make_zolotarev_oracle")


@pytest.mark.parametrize("factory", ALL_FACTORIES, ids=FACTORY_IDS)
class TestSharedContract:
    def test_examples(self, factory):
        oracle = factory()
        assert oracle.crs_query(3, 65, 1) == -1
        assert oracle.crs_query(1, 77, 2) == 1
        assert oracle.crs_query(4, 15, 2) == -1

    def test_not_coprime(self, factory):
        with pytest.raises(NotCoprime):
            factory().crs_query(5, 65, 1)

    @pytest.mark.parametrize("m, n, k", [(2, 13, 2), (2, 39, 2), (2, 9, 2)])
    def test_inadmissible_query_rejected(self, factory, m, n, k):
        # 2 is a quadratic nonresidue mod 3 and mod 13, so each (2|n)_4 is
        # ill-posed; the Zolotarev route rejects the prime power 9 by shape.
        if factory is ZolotarevOracle and n == 9:
            with pytest.raises(NotAdmissibleModulus):
                factory().crs_query(m, n, k)
            return
        with pytest.raises(PreconditionViolated) as info:
            factory().crs_query(m, n, k)
        prime, level = info.value.prime, info.value.level
        assert n % prime == 0
        assert 1 <= level <= k - 1
        assert symbol_prime_definition(m, prime, level) == -1

    def test_lowest_failing_level(self, factory):
        # 2 is a quadratic nonresidue mod 13, so (2|13)_8 fails at level 1.
        with pytest.raises(PreconditionViolated) as info:
            factory().crs_query(2, 13, 3)
        assert (info.value.prime, info.value.level) == (13, 1)

    def test_k1_is_jacobi(self, factory):
        oracle = factory()
        for n in (15, 21, 35, 97):
            for m in range(1, n):
                if math.gcd(m, n) == 1:
                    assert oracle.crs_query(m, n, 1) == jacobi(m, n)


class TestFactorOracle:
    def test_examples(self):
        oracle = FactorOracle()
        assert oracle.crs_query(4, 39, 2) == -1
        assert oracle.crs_query(10, 39, 1) == 1

    def test_known_factorization_used(self):
        fact = Factorization(((5, 1), (13, 1)))
        oracle = FactorOracle(known=[fact])
        assert oracle.factorization(65) is fact
        assert oracle.crs_query(4, 65, 2) == 1

    def test_factorization_counts_no_query(self):
        oracle = FactorOracle()
        assert oracle.factorization(63).factors == ((3, 2), (7, 1))
        assert oracle.factorization(63) is oracle.factorization(63)
        assert oracle.stats.calls_total == 0

    def test_bogus_known_factorization_rejected(self):
        with pytest.raises(InvalidInput):
            FactorOracle(known=[Factorization(((4, 1), (9, 1)))])

    @pytest.mark.parametrize("entry", [((5, 1), (13, 1)), [(5, 1)], 65, None])
    def test_known_entry_that_is_no_factorization_rejected(self, entry):
        with pytest.raises(InvalidInput, match="Factorization entries"):
            FactorOracle(known=[entry])

    def test_refusal_names_the_size_of_a_modulus_too_long_to_print(self):
        # Python refuses to print an int of more than 4300 digits, so the
        # refusal names 7^10000's size rather than its 8451 digits.
        with pytest.raises(NotCoprime, match=r"gcd\(0, <28074-bit integer>\)"):
            FactorOracle().crs_query(0, 7**10000, 1)

    def test_level_1_at_even_n(self):
        # Level 1 reads the Jacobi symbol of n's odd part, 35 here, since
        # the Jacobi symbol itself refuses an even modulus.
        assert FactorOracle().crs_query(3, 70, 1) == jacobi(3, 35) == 1
        assert FactorOracle().crs_query(3, 56, 1) == jacobi(3, 7) == -1


def _counting_factorize(monkeypatch):
    # Every n the oracle module factorizes, in order.
    seen = []
    real = oracle_module.factorize

    def counting(n):
        seen.append(n)
        return real(n)

    monkeypatch.setattr(oracle_module, "factorize", counting)
    return seen


class TestFactorizationCache:
    def test_computed_entries_capped_oldest_first(self, monkeypatch):
        seen = _counting_factorize(monkeypatch)
        oracle = FactorOracle()
        moduli = range(2, FACTORIZATIONS_KEPT + 3)
        for n in moduli:
            oracle.factorization(n)
        assert seen == list(moduli)
        # One modulus past the cap pushed out the first one only.
        oracle.factorization(3)
        assert len(seen) == len(moduli)
        oracle.factorization(2)
        assert seen[-1] == 2 and len(seen) == len(moduli) + 1

    def test_known_never_dropped(self, monkeypatch):
        # An 1886-bit modulus the oracle could never factorize itself.
        p, q = 2**1279 - 1, 2**607 - 1
        fact = Factorization(((q, 1), (p, 1)))
        oracle = FactorOracle(known=[fact])
        seen = _counting_factorize(monkeypatch)
        for n in range(2, 2 * FACTORIZATIONS_KEPT):
            oracle.factorization(n)
        assert oracle.factorization(p * q) is fact
        assert p * q not in seen
        assert oracle.crs_query(4, p * q, 1) == 1


class TestEvaluatorCache:
    # Each oracle keeps one entry per modulus: its factorization and the
    # route's evaluator at it, built once.

    def test_computed_entries_capped_and_evicted_modulus_answers_as_before(self):
        oracle = FactorOracle()
        answers = [oracle.crs_query(4, 39, 2), oracle.crs_query(10, 39, 1)]
        assert answers == [-1, 1]
        for n in range(40, 40 + FACTORIZATIONS_KEPT):
            oracle.factorization(n)
        assert len(oracle._cache) <= FACTORIZATIONS_KEPT
        assert 39 not in oracle._cache
        assert [oracle.crs_query(4, 39, 2), oracle.crs_query(10, 39, 1)] == answers
        assert len(oracle._cache) <= FACTORIZATIONS_KEPT

    def test_known_modulus_never_factorized_and_evaluator_built_on_first_use(
        self, monkeypatch
    ):
        def refuse(n):
            raise AssertionError(f"factorized {n}")

        built = []
        at = oracle_module._BUILT_ONCE[symbol_composite]

        def counting_at(fact):
            built.append(fact.value)
            return at(fact)

        monkeypatch.setattr(oracle_module, "factorize", refuse)
        monkeypatch.setitem(oracle_module._BUILT_ONCE, symbol_composite, counting_at)
        fact = Factorization(((5, 1), (13, 1)))
        oracle = FactorOracle(known=[fact])
        assert built == []
        for _ in range(3):
            assert oracle.crs_query(4, 65, 2) == 1
            assert oracle.crs_query(2, 65, 1) == jacobi(2, 65)
        assert oracle.factorization(65) is fact
        assert built == [65]
        assert oracle.stats.calls_total == 6

    def test_subclass_with_only_a_route_answers_every_query_through_it(self):
        routed = []

        def counted(m, fact, k):
            routed.append((m, fact.value, k))
            return symbol_composite(m, fact, k)

        # A wrapper that looks like symbol_composite is still called as is.
        wrapped = functools.wraps(symbol_composite)(counted)

        for route in (counted, wrapped):

            class RouteOnly(oracle_module.CrsOracle):
                pass

            RouteOnly.route = staticmethod(route)
            routed.clear()
            oracle, reference = RouteOnly(), FactorOracle()
            queries = [(m, n, k) for n in (39, 65, 1105) for m in (2, 4, 9, n + 16)
                       for k in (1, 2, 3) if math.gcd(m, n) == 1]
            for m, n, k in queries:
                assert _outcome(oracle.crs_query, m, n, k) == _outcome(
                    reference.crs_query, m, n, k
                )
            assert routed == [(m % n, n, k) for m, n, k in queries]
            assert oracle.stats.calls_total == len(queries)

    def test_query_whose_modulus_fails_to_factorize_still_counts(self, monkeypatch):
        def fail(n):
            raise FactorizationTimeout(f"no split of {n}")

        oracle = FactorOracle()
        monkeypatch.setattr(oracle_module, "factorize", fail)
        with pytest.raises(FactorizationTimeout):
            oracle.crs_query(2, 15, 1)
        assert oracle.stats.calls_by_k == {1: 1}
        assert 15 not in oracle._cache
        monkeypatch.undo()
        assert oracle.crs_query(2, 15, 1) == 1
        assert oracle.stats.calls_by_k == {1: 2}

    def test_threads_building_one_entry_count_every_query(self):
        # All eight start on a modulus no entry holds yet.
        oracle = FactorOracle()
        start = threading.Barrier(8)
        answers = [[] for _ in range(8)]

        def worker(out):
            start.wait()
            for _ in range(200):
                out.append(oracle.crs_query(4, 1105, 2))

        threads = [threading.Thread(target=worker, args=(out,)) for out in answers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert oracle.stats.calls_total == 1600
        expected = symbol_composite(4, factorize(1105), 2)
        assert [len(out) for out in answers] == [200] * 8
        assert {a for out in answers for a in out} == {expected}
        assert list(oracle._cache) == [1105]


class TestZolotarevOracle:
    def test_prime_power_rejected(self):
        with pytest.raises(NotAdmissibleModulus):
            ZolotarevOracle().crs_query(2, 9, 1)

    def test_too_large(self, monkeypatch):
        # 10^6 + 3 is prime, the first past the enumeration limit, and is
        # refused before anything is factorized.
        def refuse(n):
            raise AssertionError(f"factorized {n}")

        monkeypatch.setattr(oracle_module, "factorize", refuse)
        with pytest.raises(SearchSpaceTooLarge):
            ZolotarevOracle().crs_query(2, 10**6 + 3, 1)
        # 11 is no square mod 1009, but a direct call at 1009 * 1013 is
        # refused by size first too: its mask at n is past the limit.
        fact = Factorization(((1009, 1), (1013, 1)))
        expected = (SearchSpaceTooLarge, "n = 1022117 exceeds enumeration limit")
        assert _refusal(zolotarev_symbol, 11, fact, 2) == expected
        assert _refusal(ZolotarevOracle().crs_query, 11, fact.value, 2) == expected

    @pytest.mark.parametrize("n", [100_003, 786_433, 503_491])
    def test_answers_up_to_the_enumeration_limit(self, n):
        # Two primes, 786,433 = 3 * 2^18 + 1 with many levels, and the
        # semiprime 499 * 1009, all past 10^5: admissible and inadmissible
        # queries get the factor route's answer or refusal.
        zolotarev, factor = ZolotarevOracle(), FactorOracle()
        for k in (1, 2, 3):
            for x in (2, 3, 5):
                for m in (x, pow(x, 1 << (k - 1), n)):
                    expected = _outcome(factor.crs_query, m, n, k)
                    assert _outcome(zolotarev.crs_query, m, n, k) == expected, (m, k)


class TestZolotarevPath:
    # Below the oracle, n's factorization is already known: the route
    # neither tests primality again nor enumerates a level it does not use.

    def test_no_primality_test_below_the_oracle(self, monkeypatch):
        oracle = ZolotarevOracle()
        for n in (1009, 39):
            oracle.crs_query(1, n, 1)

        def refuse(n):
            raise AssertionError(f"is_prime({n}) below the oracle")

        monkeypatch.setattr(residuo.zolotarev, "is_prime", refuse, raising=False)
        monkeypatch.setattr(residuo.arithmetic, "is_prime", refuse)
        assert oracle.crs_query(4, 1009, 2) == symbol_prime_definition(4, 1009, 2)
        assert oracle.crs_query(4, 39, 2) == -1
        assert oracle.crs_query(10, 39, 1) == 1

    def test_admissible_queries_skip_level_0(self, monkeypatch):
        real = residuo.symbols.power_residues
        keys = []

        def recording(n, k, units_only):
            keys.append((n, k, units_only))
            return real(n, k, units_only)

        for module in (residuo.symbols, residuo.zolotarev):
            monkeypatch.setattr(module, "power_residues", recording)
        oracle = ZolotarevOracle()
        p = 1009
        for k in (3, 4):
            for x in (2, 3, 5):
                a = pow(x, 1 << (k - 1), p)
                assert oracle.crs_query(a, p, k) == symbol_prime_definition(a, p, k)
        assert keys
        assert all(level >= 1 for n, level, _ in keys if n == p)
        # Admissibility is decided by the level-(k-1) mask the sign walks,
        # so a warm answered query reads that mask and no other.  10403 =
        # 101 * 103 is not 1 mod 8, so at k = 3 the set is the units'; 65
        # is 1 mod 4, so at k = 2 it is the full one.
        for n, k, units_only in ((10403, 3, True), (65, 2, False), (p, 3, True)):
            a = pow(2, 1 << (k - 1), n)
            expected = oracle.crs_query(a, n, k)
            keys.clear()
            assert oracle.crs_query(a, n, k) == expected
            assert keys == [(n, k - 1, units_only)], (n, k)


def _outcome(route, *args):
    # The answer, or the error's type with its prime and level.
    try:
        return route(*args)
    except ResiduoError as exc:
        return type(exc), getattr(exc, "prime", None), getattr(exc, "level", None)


def _refusal(route, *args):
    # The error's type and message.
    with pytest.raises(ResiduoError) as info:
        route(*args)
    return type(info.value), str(info.value)


def _zolotarev_shape(n):
    return is_prime(n) or factorize(n).odd_semiprime() is not None


class TestOneContract:
    # Every unit m of every n below 150 at k <= 4, admissible or not: the
    # three routes give the same answer, or fail with the same error type,
    # prime and level.  The Zolotarev route takes only primes and
    # distinct-odd-prime semiprimes and refuses every other n by shape.
    CASES = [
        (m, n, k)
        for n in range(2, 150)
        for k in range(1, 5)
        for m in range(1, n)
        if math.gcd(m, n) == 1
    ]

    def check(self, factor, definition, zolotarev):
        seen = set()
        for m, n, k in self.CASES:
            expected = factor(m, n, k)
            seen.add(expected if expected in (1, -1) else expected[0])
            assert definition(m, n, k) == expected, (m, n, k)
            got = zolotarev(m, n, k)
            if _zolotarev_shape(n):
                assert got == expected, (m, n, k)
            else:
                assert got == (NotAdmissibleModulus, None, None), (m, n, k)
        assert seen == {1, -1, PreconditionViolated}

    def test_oracles_agree(self):
        oracles = [cls() for cls in ALL_FACTORIES]
        self.check(
            *(
                lambda m, n, k, oracle=oracle: _outcome(oracle.crs_query, m, n, k)
                for oracle in oracles
            )
        )

    def test_routes_agree(self):
        self.check(
            *(
                lambda m, n, k, route=route: _outcome(route, m, factorize(n), k)
                for route in (symbol_composite, symbol_definition, zolotarev_symbol)
            )
        )

    def test_levels_below_1_refused(self, monkeypatch):
        # At k in {-1, 0} every route names the caller's k before it reads
        # a mask; the Zolotarev route refuses other shapes first, and the
        # oracles refuse before they count a query.
        def no_mask(n, k, units_only):
            raise AssertionError(f"mask ({n}, {k}, {units_only}) read")

        for module in (residuo.symbols, residuo.zolotarev):
            monkeypatch.setattr(module, "power_residues", no_mask)
        oracles = [cls() for cls in ALL_FACTORIES]
        # n = 1 has no prime for a per-prime check to run at.
        cases = [(1, 1, Factorization(()))] + [
            (m, n, factorize(n)) for m, n in sorted({(m, n) for m, n, _ in self.CASES})
        ]
        for m, n, fact in cases:
            for k in (-1, 0):
                bad_k = (InvalidInput, f"k must be >= 1, got {k}")
                assert _refusal(symbol_composite, m, fact, k) == bad_k, (m, n, k)
                assert _refusal(symbol_definition, m, fact, k) == bad_k, (m, n, k)
                got = _refusal(zolotarev_symbol, m, fact, k)
                if _zolotarev_shape(n):
                    assert got == bad_k, (m, n, k)
                else:
                    assert got[0] is NotAdmissibleModulus, (m, n, k)
                for oracle in oracles:
                    assert _refusal(oracle.crs_query, m, n, k) == bad_k, (m, n, k)
        assert all(oracle.stats.calls_total == 0 for oracle in oracles)


def test_every_route_refuses_a_non_unit_first():
    # 26 is a quadratic nonresidue mod 3 and a multiple of 13.
    for route in (symbol_composite, symbol_definition, zolotarev_symbol):
        with pytest.raises(NotCoprime):
            route(26, factorize(39), 2)


def _error(route, *args):
    # The error's type, message, prime and level, or None for an answer.
    try:
        route(*args)
    except ResiduoError as exc:
        return type(exc), str(exc), getattr(exc, "prime", None), getattr(exc, "level", None)
    return None


def test_factor_route_refuses_as_its_first_refusing_prime():
    # Each refusal of the factor route, over TestOneContract's cases, is
    # that of symbol_prime_checked at the first prime of n that refuses,
    # message included.
    refused = 0
    for m, n, k in TestOneContract.CASES:
        fact = factorize(n)
        got = _error(symbol_composite, m, fact, k)
        if got is None:
            continue
        per_prime = (_error(symbol_prime_checked, m, p, k) for p in fact.primes())
        assert got == next(filter(None, per_prime)), (m, n, k)
        refused += 1
    assert refused == 13417


class TestStats:
    def test_counts_and_profile(self):
        oracle = FactorOracle()
        oracle.crs_query(2, 15, 1)
        oracle.crs_query(4, 15, 2)
        oracle.crs_query(4, 15, 2)
        stats = oracle.stats
        assert stats.calls_total == 3
        assert stats.calls_by_k == {1: 1, 2: 2}
        assert stats.max_k_seen == 2
        assert stats.calls_total == sum(stats.calls_by_k.values())

    def test_failed_validation_not_counted(self):
        oracle = FactorOracle()
        with pytest.raises(NotCoprime):
            oracle.crs_query(5, 15, 1)
        assert oracle.stats.calls_total == 0

    def test_since_snapshot(self):
        oracle = FactorOracle()
        oracle.crs_query(2, 15, 1)
        before = oracle.stats.snapshot()
        oracle.crs_query(4, 15, 2)
        delta = oracle.stats.since(before)
        assert delta.calls_total == 1
        assert delta.calls_by_k == {2: 1}
        assert delta.max_k_seen == 2

    def test_value_semantics(self):
        stats = OracleStats({1: 1, 2: 2})
        assert stats == OracleStats({2: 2, 1: 1}) == OracleStats({1: 1, 2: 2, 3: 0})
        assert hash(stats) == hash(OracleStats({1: 1, 2: 2, 3: 0}))
        assert stats != OracleStats({1: 1}) and stats != {1: 1, 2: 2}
        assert repr(stats) == "OracleStats({1: 1, 2: 2})"

    def test_json(self):
        stats = OracleStats({1: 1, 2: 2})
        assert json.loads(json.dumps(stats.to_json())) == {
            "calls_total": 3,
            "calls_by_k": {"1": 1, "2": 2},
            "max_k_seen": 2,
        }

    def test_concurrent_counting(self):
        oracle = FactorOracle()

        def worker():
            for _ in range(200):
                oracle.crs_query(2, 15, 1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert oracle.stats.calls_total == 1600

    def test_counting_lock_keeps_both_counts(self):
        # The first read of a count waits up to 50 ms for another thread to
        # write one.  Under the lock no other thread can, and both counts
        # land; without it the second thread's count is overwritten.
        entered, written = threading.Event(), threading.Event()

        class StallingCounter(Counter):
            def __getitem__(self, k):
                count = super().__getitem__(k)
                if not entered.is_set():
                    entered.set()
                    written.wait(0.05)
                return count

            def __setitem__(self, k, count):
                super().__setitem__(k, count)
                written.set()

        oracle = FactorOracle()
        oracle.stats.calls_by_k = StallingCounter()
        first = threading.Thread(target=oracle.crs_query, args=(2, 15, 1))
        first.start()
        assert entered.wait(5)
        oracle.crs_query(2, 15, 1)
        first.join(5)
        assert not first.is_alive()
        assert oracle.stats.calls_total == 2


class TestThreeWayAgreement:
    def test_small_sweep(self):
        from residuo.selftest import sweep_oracle_agreement

        report = sweep_oracle_agreement(300, 3)
        assert report.passed, report.failures
        assert report.cases == 24326

    def test_bound_past_sieve_refused_before_factorizing(self, monkeypatch):
        # The primes are listed first, so a bound past the sieve's 2^22
        # ceiling is refused before any modulus is factorized.
        import residuo.selftest
        from residuo.selftest import sweep_oracle_agreement

        def refuse(n):
            raise AssertionError(f"factorized {n}")

        monkeypatch.setattr(residuo.selftest, "factorize", refuse)
        monkeypatch.setattr(oracle_module, "factorize", refuse)
        with pytest.raises(SearchSpaceTooLarge):
            sweep_oracle_agreement(2**22 + 1, 1)
