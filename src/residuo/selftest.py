"""Property sweeps cross-validating the fast symbol routes, the Zolotarev
characterizations and the three reductions against brute-force oracles at
desk scale.

Each sweep returns a SuiteReport; a sweep passes when its failure list is
empty.  Failure entries record the minimal failing instance (sweeps iterate
in ascending order).
"""

import heapq
from itertools import chain, compress
from math import gcd

from .arithmetic import factorize, jacobi, primes_upto, valuation
from .errors import InvalidInput
from .oracle import DefinitionOracle, FactorOracle, ZolotarevOracle
from .reductions import (
    lemma_l4_check,
    qrp_bruteforce,
    qrp_decide,
    qrp_decide_c2,
    qrp_decide_permutation,
    semiprime_valuations,
    two_squares_fermat,
    two_squares_oracle,
    valuation_relation,
)
from .symbols import (
    power_residues,
    residue_set,
    symbol_composite,
    symbol_prime_checked,
    symbol_prime_definition,
)
from .zolotarev import (
    find_tripleprime_counterexample,
    multiplication_permutation,
    permutation_sign,
    zolotarev_prime,
    zolotarev_semiprime,
)

_MAX_RECORDED_FAILURES = 10


class SuiteReport:
    def __init__(self, name):
        self.name = name
        self.cases = 0
        self.failures = []
        self.detail = {}

    @property
    def passed(self):
        return not self.failures

    def check(self, ok, instance):
        self.cases += 1
        if not ok and len(self.failures) < _MAX_RECORDED_FAILURES:
            self.failures.append(instance)

    def to_json(self):
        return {
            "name": self.name,
            "cases": self.cases,
            "passed": self.passed,
            "failures": self.failures,
            "detail": self.detail,
        }


def _admissible_queries(n, max_k):
    """(m, k) for k = 1..max_k, then m ascending, over the units m mod n
    whose level-(k-1) symbol is +1 at every prime of n: the members of the
    level-(k-1) unit power residues mod n, by the CRT."""
    for k in range(1, max_k + 1):
        for m in compress(range(n), power_residues(n, k - 1, True)):
            yield m, k


def _sweep_prime_route(name, route, primes, max_k):
    report = SuiteReport(name)
    for p in primes:
        for a, k in _admissible_queries(p, max_k):
            ok = route(a, p, k) == symbol_prime_definition(a, p, k)
            report.check(ok, f"a={a} p={p} k={k}")
    return report


def sweep_euler(prime_bound, max_k):
    """Euler criterion (`symbol_prime_checked`) vs exhaustive definition on
    all admissible (a, p, k)."""
    primes = primes_upto(prime_bound)
    return _sweep_prime_route("euler", symbol_prime_checked, primes, max_k)


def sweep_stabilization(prime_bound, max_k):
    """Unit residue sets stabilize at level v = nu_2(p-1): every level from
    v on is the image {x^(2^v) mod p : 1 <= x < p}, computed here without
    the residue-set cache."""
    report = SuiteReport("stabilization")
    for p in primes_upto(prime_bound)[1:]:
        v = valuation(p - 1, 2)
        stable = tuple(sorted({pow(x, 1 << v, p) for x in range(1, p)}))
        for k in range(v, max_k + 1):
            report.check(
                residue_set(p, k, True).members == stable, f"p={p} k={k}"
            )
    return report


def sweep_t3(prime_bound, max_k):
    """Prime Zolotarev: permutation sign vs exhaustive definition, odd p."""
    primes = primes_upto(prime_bound)[1:]
    return _sweep_prime_route("t3", zolotarev_prime, primes, max_k)


def sweep_t5(max_k, prime_bound=None, product_bound=None):
    """Semiprime Zolotarev vs the composite symbol, over odd prime pairs
    p < q with q <= prime_bound and/or pq <= product_bound."""
    report = SuiteReport("t5")
    if product_bound is None:
        product_bound = (prime_bound or 0) ** 2
    for n, p, q, fact in _odd_semiprimes(product_bound + 1):
        if prime_bound is not None and q > prime_bound:
            continue
        for m, k in _admissible_queries(n, max_k):
            report.check(
                zolotarev_semiprime(m, p, q, k) == symbol_composite(m, fact, k),
                f"m={m} p={p} q={q} k={k}",
            )
    return report


def sweep_classical_zolotarev(n_bound):
    """Jacobi symbol vs the sign of x -> mx on the full residue list."""
    report = SuiteReport("jacobi")
    for n in range(3, n_bound + 1, 2):
        full = residue_set(n, 0, False)
        for m in range(1, n):
            if jacobi(m, n) == 0:
                continue
            sign = permutation_sign(multiplication_permutation(m, full))
            report.check(jacobi(m, n) == sign, f"m={m} n={n}")
    return report


def sweep_counterexample(limit):
    """Three-prime counterexample search; verifies the postcondition of
    whatever the search returns."""
    report = SuiteReport("counterexample")
    found = find_tripleprime_counterexample(limit)
    report.detail["found"] = None if found is None else [str(x) for x in found]
    if found is not None:
        n, m = found
        fact = factorize(n)
        sym = symbol_composite(m, fact, 2)
        units = residue_set(n, 1, True)
        full = residue_set(n, 1, False)
        sign_u = permutation_sign(multiplication_permutation(m, units))
        sign_f = permutation_sign(multiplication_permutation(m, full))
        report.check(
            sym == -1 and sign_u == 1 and sign_f == 1, f"n={n} m={m}"
        )
    return report


def sweep_valuation_lemma(prime_bound):
    """Valuation relation between p-1, q-1 and pq-1, and the strict
    inequality for base 2 when the factor valuations coincide."""
    report = SuiteReport("l2")
    primes = [p for p in primes_upto(prime_bound) if p != 2]
    for b in (2, 3, 5, 7):
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                rel = valuation_relation(b, p, q)
                lo = min(rel.v_p, rel.v_q)
                if rel.relation == "strict_equal_case":
                    ok = lo == rel.v_N
                else:
                    ok = lo <= rel.v_N and (b != 2 or lo < rel.v_N)
                report.check(ok, f"b={b} p={p} q={q}")
    return report


def _odd_semiprimes(n_bound):
    """(n, p, q, n's factorization) for each n = pq < n_bound, p < q odd
    primes, n ascending, yielded as the sweep reaches n: each n is
    factorized only then, so the bound costs the sweep time, not memory."""
    return (
        (n, *pq, fact)
        for n in range(3, n_bound, 2)
        if (pq := (fact := factorize(n)).odd_semiprime())
    )


def sweep_valuation_algorithm(n_bound):
    """The five-step valuation algorithm, on the definition oracle, vs the
    true factor valuations, including the recovered low bits."""
    report = SuiteReport("a1")
    oracle = DefinitionOracle()
    for n, p, q, _ in _odd_semiprimes(n_bound):
        result = semiprime_valuations(n, oracle)
        expected = sorted((valuation(p - 1, 2), valuation(q - 1, 2)))
        modulus = 1 << result.m
        bits_ok = {result.p_bits, result.q_bits} == {p % modulus, q % modulus}
        report.check(
            [result.v_small, result.v_large] == expected and bits_ok,
            f"N={n} p={p} q={q} got=({result.v_small},{result.v_large},"
            f"{result.p_bits},{result.q_bits})",
        )
    return report


def sweep_qrp(n_bound):
    """Single-query residuosity decisions vs the exhaustive square test."""
    report = SuiteReport("qrp")
    oracle = FactorOracle()
    for n, p, q, _ in _odd_semiprimes(n_bound):
        if valuation(p - 1, 2) == valuation(q - 1, 2):
            continue
        for a in range(1, n):
            if jacobi(a, n) != 1:
                continue
            truth = qrp_bruteforce(n, a).is_residue
            ok = qrp_decide(n, a, oracle).is_residue is truth
            if ok and n % 4 == 3:
                ok = (
                    qrp_decide_c2(n, a, oracle).is_residue is truth
                    and qrp_decide_permutation(n, a).is_residue is truth
                )
            report.check(ok, f"N={n} a={a}")
    return report


def sweep_two_squares(n_bound, extra=()):
    """Oracle-based two-squares decision vs the Fermat parity criterion."""
    report = SuiteReport("two_squares")
    oracle = FactorOracle()
    for n in chain(range(1, n_bound), (x for x in extra if x >= n_bound)):
        verdict = two_squares_oracle(n, oracle)
        truth = two_squares_fermat(factorize(n))
        report.check(verdict.solvable == truth.solvable, f"N={n}")
    return report


def sweep_lemma_l4(n_bound):
    """The two-query equality holds for every unit when N is a sum of two
    squares."""
    report = SuiteReport("l4")
    oracle = FactorOracle()
    for n in range(2, n_bound):
        if not two_squares_fermat(factorize(n)).solvable:
            continue
        for a in range(1, n):
            if gcd(a, n) != 1:
                continue
            report.check(lemma_l4_check(n, a, oracle), f"N={n} a={a}")
    return report


def sweep_oracle_agreement(n_bound, max_k):
    """Factor, definition and Zolotarev oracles agree on every admissible
    query with a prime or distinct-odd-prime semiprime modulus."""
    report = SuiteReport("agreement")
    fac = FactorOracle()
    dfn = DefinitionOracle()
    zol = ZolotarevOracle()
    # The primes first: a bound past the sieve's ceiling is refused before
    # any modulus is factorized.
    primes = primes_upto(n_bound)
    semiprimes = (n for n, *_ in _odd_semiprimes(n_bound + 1))
    for n in heapq.merge(primes, semiprimes):
        for m, k in _admissible_queries(n, max_k):
            a = fac.crs_query(m, n, k)
            b = dfn.crs_query(m, n, k)
            c = zol.crs_query(m, n, k)
            report.check(a == b == c, f"m={m} n={n} k={k}")
    return report


def sweep_probabilistic_two_squares():
    """Seeded probabilistic two-squares runs (20 trials each, seeds 1..100)
    on the unsolvable N = 11021 = 103 * 107 must return unsolvable in at
    least 99 of the 100 runs."""
    report = SuiteReport("probabilistic")
    oracle = FactorOracle()
    n, seeds = 11021, range(1, 101)
    hits = 0
    for seed in seeds:
        verdict = two_squares_oracle(
            n, oracle, mode="probabilistic", trials=20, seed=seed
        )
        if not verdict.solvable:
            hits += 1
    report.detail["unsolvable_runs"] = hits
    report.detail["total_runs"] = len(seeds)
    report.check(hits >= 99, f"N={n} unsolvable in {hits} runs")
    return report


SUITES = {
    "euler": sweep_euler,
    "stabilization": sweep_stabilization,
    "t3": sweep_t3,
    "t5": lambda max_n, max_k: sweep_t5(max_k, product_bound=max_n),
    "jacobi": lambda max_n, _: sweep_classical_zolotarev(max_n),
    "counterexample": lambda max_n, _: sweep_counterexample(max_n),
    "l2": lambda max_n, _: sweep_valuation_lemma(max_n),
    "a1": lambda max_n, _: sweep_valuation_algorithm(max_n),
    "qrp": lambda max_n, _: sweep_qrp(max_n),
    "two_squares": lambda max_n, _: sweep_two_squares(max_n),
    "l4": lambda max_n, _: sweep_lemma_l4(max_n),
    "agreement": sweep_oracle_agreement,
    "probabilistic": lambda max_n, _: (
        sweep_probabilistic_two_squares()
        if max_n > 0
        else SuiteReport("probabilistic")
    ),
}
ALL_SUITES = tuple(SUITES)


def run_suites(names, max_n, max_k):
    """CLI entry: run the named sweeps with shared size bounds."""
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise InvalidInput(f"unknown suites: {', '.join(unknown)}")
    return [SUITES[name](max_n, max_k) for name in names]
