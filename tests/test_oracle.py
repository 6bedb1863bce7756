import json
import math
import threading

import pytest

from residuo.arithmetic import Factorization, jacobi
from residuo.errors import (
    InvalidInput,
    NotAdmissibleModulus,
    NotCoprime,
    PreconditionViolated,
    SearchSpaceTooLarge,
)
from residuo.oracle import (
    DefinitionOracle,
    FactorOracle,
    OracleStats,
    ZolotarevOracle,
)
from residuo.symbols import symbol_prime_definition

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


class TestZolotarevOracle:
    def test_prime_power_rejected(self):
        with pytest.raises(NotAdmissibleModulus):
            ZolotarevOracle().crs_query(2, 9, 1)

    def test_too_large(self):
        with pytest.raises(SearchSpaceTooLarge):
            ZolotarevOracle().crs_query(2, 10**5 + 3, 1)


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

    def test_reset_is_explicit(self):
        oracle = FactorOracle()
        oracle.crs_query(2, 15, 1)
        oracle.crs_query(2, 15, 1)
        assert oracle.stats.calls_total == 2
        oracle.reset_stats()
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


class TestThreeWayAgreement:
    def test_small_sweep(self):
        from residuo.selftest import sweep_oracle_agreement

        report = sweep_oracle_agreement(300, 3)
        assert report.passed, report.failures
        assert report.cases > 0
