import json
import math
import tracemalloc

import pytest

from residuo.arithmetic import factorize, is_prime, jacobi, valuation
from residuo.errors import (
    InvalidInput,
    NotCoprime,
    SearchExhausted,
    SearchSpaceTooLarge,
)
from residuo.oracle import DefinitionOracle, FactorOracle, ZolotarevOracle
from residuo.reductions import (
    candidate_prime_set,
    lemma_l4_check,
    qrp_bruteforce,
    qrp_decide,
    qrp_decide_c2,
    qrp_decide_permutation,
    recover_low_bits,
    semiprime_valuations,
    two_squares_fermat,
    two_squares_oracle,
    valuation_relation,
    wedeniwski_bound,
)

MERSENNE_61_89 = (2**61 - 1) * (2**89 - 1)


class TestWedeniwskiBound:
    def test_examples(self):
        assert wedeniwski_bound(65) == pytest.approx(2.4037, abs=1e-3)
        assert wedeniwski_bound(20) == pytest.approx(0.10, abs=0.02)
        # Literal formula with natural log; documented to disagree with the
        # least-nonresidue values at small N, hence the candidate floor.
        assert wedeniwski_bound(10**6) == pytest.approx(177.726, abs=1e-2)

    def test_rejects_small(self):
        with pytest.raises(InvalidInput):
            wedeniwski_bound(2)


class TestCandidatePrimeSet:
    def test_examples(self):
        # The floor of 50 decides up to N = 6011; above it the bound does.
        below_50 = [p for p in range(50) if is_prime(p)]
        assert candidate_prime_set(2) == candidate_prime_set(65) == below_50
        assert candidate_prime_set(6011) == below_50
        assert candidate_prime_set(10**4)[-1] == 59
        assert candidate_prime_set(10**6)[-1] == 173

    def test_strictly_below_bound(self):
        primes = candidate_prime_set(10**6)
        bound = wedeniwski_bound(10**6)
        assert all(p < bound for p in primes)
        assert primes == sorted(primes)


class TestTwoSquaresFermat:
    def test_examples(self):
        verdict = two_squares_fermat(factorize(65))
        assert verdict.solvable and verdict.witness == (1, 8)
        verdict = two_squares_fermat(factorize(21))
        assert not verdict.solvable and verdict.certificate == 3
        verdict = two_squares_fermat(factorize(9))
        assert verdict.solvable and verdict.witness == (0, 3)

    def test_witness_squares_sum(self):
        for n in range(1, 500):
            verdict = two_squares_fermat(factorize(n))
            if verdict.solvable:
                x, y = verdict.witness
                assert x * x + y * y == n

    def test_json(self):
        data = two_squares_fermat(factorize(21)).to_json()
        assert json.loads(json.dumps(data))["certificate"] == "3"


class TestTwoSquaresOracle:
    def test_examples(self):
        oracle = FactorOracle()
        assert not two_squares_oracle(11021, oracle).solvable
        assert two_squares_oracle(11009, oracle).solvable
        assert two_squares_oracle(4, oracle).solvable

    def test_agrees_with_fermat_small(self):
        oracle = FactorOracle()
        for n in range(1, 700):
            assert (
                two_squares_oracle(n, oracle).solvable
                == two_squares_fermat(factorize(n)).solvable
            ), n

    def test_trial_division_certificate(self):
        verdict = two_squares_oracle(21, FactorOracle())
        assert not verdict.solvable and verdict.certificate == 3

    def test_probabilistic_seeded_reproducible(self):
        oracle = FactorOracle()
        runs = [
            two_squares_oracle(
                11021, oracle, mode="probabilistic", trials=20, seed=5
            ).solvable
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_probabilistic_default_seed_is_zero(self):
        # One trial at 11021 = 103 * 107 certifies unsolvability for about
        # half the draws, so an unseeded default would disagree here.
        oracle = FactorOracle()
        seeded = two_squares_oracle(
            11021, oracle, mode="probabilistic", trials=1, seed=0
        )
        runs = [
            two_squares_oracle(11021, oracle, mode="probabilistic", trials=1)
            for _ in range(20)
        ]
        assert runs == [seeded] * 20

    def test_past_the_sieve_ceiling(self):
        # About 2,500 bits: the candidate bound passes 2^22, and the sieve
        # is refused before it is allocated.
        n = (1 << 2500) + 1
        assert wedeniwski_bound(n) > 2**22
        tracemalloc.start()
        try:
            with pytest.raises(SearchSpaceTooLarge):
                two_squares_oracle(n, FactorOracle())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_bad_mode(self):
        with pytest.raises(InvalidInput):
            two_squares_oracle(65, FactorOracle(), mode="psychic")

    def test_probabilistic_needs_a_trial(self):
        oracle = FactorOracle()
        with pytest.raises(InvalidInput):
            two_squares_oracle(11021, oracle, mode="probabilistic", trials=0)
        assert oracle.stats.calls_total == 0


class TestSemiprimeValuations:
    def test_examples(self):
        oracle = DefinitionOracle()
        res = semiprime_valuations(39, oracle)
        assert (res.v_small, res.v_large, res.m) == (1, 2, 3)
        assert (res.p_bits, res.q_bits) == (3, 5)
        res = semiprime_valuations(65, oracle)
        assert (res.v_small, res.v_large) == (2, 2)
        assert res.p_bits == res.q_bits == 5
        res = semiprime_valuations(15, oracle)
        assert (res.v_small, res.v_large) == (1, 2)

    def test_matches_true_valuations(self):
        oracle = DefinitionOracle()
        primes = [p for p in range(3, 120) if factorize(p).factors == ((p, 1),)]
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                n = p * q
                if n >= 1000:
                    continue
                res = semiprime_valuations(n, oracle)
                expected = sorted((valuation(p - 1, 2), valuation(q - 1, 2)))
                assert [res.v_small, res.v_large] == expected, n
                modulus = 1 << res.m
                assert {res.p_bits, res.q_bits} == {p % modulus, q % modulus}, n

    def test_query_budget(self):
        # All loops finish after O(log N) runs; per-run query bound.
        oracle = FactorOracle()
        for n, q in ((39, 13), (561 // 11, 17), (1457, 47)):
            res = semiprime_valuations(n, oracle, trial_cap=128)
            budget = valuation(n - 1, 2) + valuation(q - 1, 2) + 128 + 2
            assert res.stats.calls_total <= budget

    @pytest.mark.parametrize("trial_cap", [2**64, 10**30])
    def test_trial_cap_past_sys_maxsize(self, trial_cap):
        res = semiprime_valuations(39, FactorOracle(), trial_cap=trial_cap)
        assert res == semiprime_valuations(39, FactorOracle())

    def test_rejects_even(self):
        with pytest.raises(InvalidInput):
            semiprime_valuations(38, FactorOracle())

    def test_trial_cap_exhaustion(self):
        # jacobi(2, 15) = +1, so one trial finds no nonresidue.
        with pytest.raises(SearchExhausted):
            semiprime_valuations(15, FactorOracle(), trial_cap=1)

    @pytest.mark.parametrize("trial_cap", [0, -1, -(2**64)])
    def test_trial_cap_below_one_finds_nothing(self, trial_cap):
        oracle = FactorOracle()
        with pytest.raises(SearchExhausted):
            semiprime_valuations(39, oracle, trial_cap=trial_cap)
        assert oracle.stats.calls_total == 0

    @pytest.mark.parametrize("n", [13, 9, 25, 10007, 105, 27, 45, 3125, 1155])
    def test_rejects_prime_and_square(self, n):
        oracle = FactorOracle()
        with pytest.raises(InvalidInput):
            semiprime_valuations(n, oracle)
        assert oracle.stats.calls_total == 0

    def test_zolotarev_limit_before_any_query(self):
        # Two Mersenne primes: rho would spend its whole budget on this N.
        oracle = ZolotarevOracle()
        with pytest.raises(SearchSpaceTooLarge):
            semiprime_valuations(MERSENNE_61_89, oracle)
        assert oracle.stats.calls_total == 0


class TestRecoverLowBits:
    def test_examples(self):
        assert recover_low_bits(39, 1, 2) == (3, 5)
        assert recover_low_bits(65, 2, 2) == (5, 5)
        with pytest.raises(InvalidInput):
            recover_low_bits(39, 0, 0)

    def test_order_and_parity_checks(self):
        with pytest.raises(InvalidInput):
            recover_low_bits(39, 2, 1)
        with pytest.raises(InvalidInput):
            recover_low_bits(40, 1, 2)

    @pytest.mark.parametrize("n, v_small, v_large", [(-3, 1, 1), (-7, 1, 2)])
    def test_negative_n_refused(self, n, v_small, v_large):
        # No odd N < 3 has two factors whose low bits could be recovered.
        with pytest.raises(InvalidInput, match="odd and >= 3"):
            recover_low_bits(n, v_small, v_large)

    def test_v_large_bounded_by_bit_length(self):
        # nu_2(q-1) < log2 N for every factor q of N, and 2^v_large would
        # otherwise size the answer.
        assert recover_low_bits(39, 1, 5) == (7, 33)
        with pytest.raises(InvalidInput):
            recover_low_bits(39, 1, 6)

    def test_product_congruence(self):
        for v_small in range(1, 4):
            for v_large in range(v_small, 5):
                n = 39 if (v_small, v_large) != (1, 1) else 35
                p_bits, q_bits = recover_low_bits(n, v_small, v_large)
                if v_small < v_large:
                    modulus = 1 << (v_large + 1)
                    assert p_bits * q_bits % modulus == n % modulus


class TestQrp:
    def test_examples(self):
        oracle = FactorOracle()
        assert not qrp_decide(39, 2, oracle).is_residue
        assert qrp_decide(39, 10, oracle).is_residue
        assert qrp_decide(39, 1, oracle).is_residue

    def test_c2_examples(self):
        oracle = FactorOracle()
        assert not qrp_decide_c2(39, 2, oracle).is_residue
        assert qrp_decide_c2(39, 10, oracle).is_residue
        assert qrp_decide_c2(39, 1, oracle).is_residue

    def test_permutation_examples(self):
        assert not qrp_decide_permutation(39, 2).is_residue
        assert qrp_decide_permutation(39, 10).is_residue
        assert qrp_decide_permutation(39, 1).is_residue

    def test_bruteforce_confirms_examples(self):
        assert not qrp_bruteforce(39, 2).is_residue
        assert qrp_bruteforce(39, 10).is_residue

    def test_jacobi_guard(self):
        with pytest.raises(InvalidInput):
            qrp_decide(39, 7, FactorOracle())

    def test_permutation_limit_before_factorizing(self):
        with pytest.raises(SearchSpaceTooLarge):
            qrp_decide_permutation(3 * MERSENNE_61_89, 1)

    def test_permutation_jacobi_before_limit(self):
        # 1,000,007 = 29 * 34,483 is past the enumeration limit, but C3 is
        # C2 on a Zolotarev oracle: the free Jacobi symbol (5|N) = -1 is
        # refused before the limit is read.
        with pytest.raises(InvalidInput, match="Jacobi"):
            qrp_decide_permutation(1_000_007, 5)

    def test_c2_requires_3_mod_4(self):
        with pytest.raises(InvalidInput):
            qrp_decide_c2(65, 2, FactorOracle())
        with pytest.raises(InvalidInput):
            qrp_decide_permutation(65, 2)

    def test_methods_agree_small(self):
        oracle = FactorOracle()
        for n, p, q in ((39, 3, 13), (55, 5, 11), (111, 3, 37)):
            assert valuation(p - 1, 2) != valuation(q - 1, 2)
            for a in range(1, n):
                if jacobi(a, n) != 1:
                    continue
                truth = qrp_bruteforce(n, a).is_residue
                assert qrp_decide(n, a, oracle).is_residue is truth
                if n % 4 == 3:
                    assert qrp_decide_c2(n, a, oracle).is_residue is truth
                    assert qrp_decide_permutation(n, a).is_residue is truth


def _odd_semiprime_by_search(n):
    # (p, q) with n = p*q, p < q odd primes, found by trial division alone.
    for p in range(3, math.isqrt(n) + 1, 2):
        if n % p == 0:
            q = n // p
            return (p, q) if p < q and is_prime(q) else None
    return None


class TestQrpPromise:
    def test_refuses_exactly_outside_promise(self):
        oracle, zolotarev = FactorOracle(), ZolotarevOracle()
        for n in range(3, 600, 2):
            pq = _odd_semiprime_by_search(n)
            t4_ok = pq is not None and valuation(pq[0] - 1, 2) != valuation(
                pq[1] - 1, 2
            )
            routes = [(lambda a: qrp_decide(n, a, oracle), t4_ok)]
            if n % 4 == 3:
                routes.append((lambda a: qrp_decide_c2(n, a, oracle), pq is not None))
                # C3 is the Zolotarev route at level 2, so it meets C2 there.
                routes.append((lambda a: qrp_decide_c2(n, a, zolotarev), pq is not None))
                routes.append((lambda a: qrp_decide_permutation(n, a), pq is not None))
            for a in range(1, n):
                if jacobi(a, n) != 1:
                    continue
                truth = qrp_bruteforce(n, a).is_residue
                for decide, admissible in routes:
                    if admissible:
                        assert decide(a).is_residue is truth, (n, a)
                    else:
                        with pytest.raises(InvalidInput):
                            decide(a)

    def test_refusal_spends_no_query(self):
        oracle = FactorOracle()
        # 21 = 3*7 has nu_2(2) = nu_2(6); 63 = 3^2*7 is no semiprime.
        for decide, n, a in ((qrp_decide, 21, 5), (qrp_decide_c2, 63, 2)):
            with pytest.raises(InvalidInput):
                decide(n, a, oracle)
        assert oracle.stats.calls_total == 0


class TestValuationRelation:
    def test_examples(self):
        rel = valuation_relation(2, 3, 13)
        assert (rel.v_p, rel.v_q, rel.v_N) == (1, 2, 1)
        assert rel.relation == "strict_equal_case"
        rel = valuation_relation(2, 5, 13)
        assert (rel.v_p, rel.v_q, rel.v_N) == (2, 2, 6)
        assert rel.relation == "less_than_case"
        rel = valuation_relation(3, 7, 13)
        assert (rel.v_p, rel.v_q, rel.v_N) == (1, 1, 2)

    def test_rejects_equal_primes(self):
        with pytest.raises(InvalidInput):
            valuation_relation(2, 7, 7)


class TestLemmaL4:
    def test_examples(self):
        oracle = FactorOracle()
        assert lemma_l4_check(65, 2, oracle)
        assert lemma_l4_check(97, 1, oracle)
        assert not lemma_l4_check(11021, 2, oracle)

    def test_not_coprime(self):
        oracle = FactorOracle()
        with pytest.raises(NotCoprime):
            lemma_l4_check(65, 5, oracle)
        assert oracle.stats.calls_total == 0

    @pytest.mark.parametrize("n, a", [(0, 1), (0, -1), (0, 5), (1, 3), (-7, 2)])
    def test_modulus_below_2(self, n, a):
        with pytest.raises(InvalidInput):
            lemma_l4_check(n, a, FactorOracle())

    def test_necessity_small(self):
        oracle = FactorOracle()
        for n in range(2, 300):
            if not two_squares_fermat(factorize(n)).solvable:
                continue
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    assert lemma_l4_check(n, a, oracle), (n, a)


class TestVerdictJson:
    def test_valuation_result_roundtrip(self):
        res = semiprime_valuations(39, FactorOracle())
        data = json.loads(json.dumps(res.to_json()))
        assert data["v_small"] == 1 and data["p_bits"] == "3"
        assert data["oracle_stats"]["calls_total"] == res.stats.calls_total

    def test_qrp_roundtrip(self):
        data = qrp_decide(39, 10, FactorOracle()).to_json()
        assert json.loads(json.dumps(data)) == {
            "is_residue": True,
            "method": "theorem_t4",
        }
