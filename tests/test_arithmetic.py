import copy
import math
import pickle
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from residuo import arithmetic
from residuo.arithmetic import (
    Factorization,
    factorize,
    is_prime,
    jacobi,
    primes_upto,
    trial_division,
    valuation,
)
from residuo.errors import (
    FactorizationTimeout,
    InvalidInput,
    InvalidModulus,
    SearchSpaceTooLarge,
    UndefinedValuation,
)


class TestValuation:
    def test_examples(self):
        assert valuation(64, 2) == 6
        assert valuation(38, 2) == 1
        assert valuation(12, 2) == 2

    def test_zero_rejected(self):
        with pytest.raises(UndefinedValuation):
            valuation(0, 2)

    @pytest.mark.parametrize("b", [2, 3, 5, 7])
    def test_divides_exactly(self, b):
        for n in range(1, 3000):
            k = valuation(n, b)
            assert n % b**k == 0 and n % b ** (k + 1) != 0


class TestJacobi:
    def test_examples(self):
        assert jacobi(3, 65) == -1
        assert jacobi(1, 9999) == 1
        assert jacobi(2, 11021) == -1

    def test_even_modulus_rejected(self):
        with pytest.raises(InvalidModulus):
            jacobi(3, 10)

    def test_zero_on_shared_factor(self):
        assert jacobi(6, 9) == 0
        assert jacobi(5, 15) == 0

    def test_congruence_invariance(self):
        for n in range(3, 200, 2):
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    assert jacobi(a + 3 * n, n) == jacobi(a, n)

    def test_multiplicativity(self):
        for n in range(3, 100, 2):
            units = [a for a in range(1, n) if math.gcd(a, n) == 1]
            for a in units[:20]:
                for b in units[:20]:
                    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


# OEIS A014233: psi_t, the least odd composite that is a strong pseudoprime
# to the first t prime bases, each with the least t that has it.
PSI = [
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
]


class TestIsPrime:
    def test_examples(self):
        assert is_prime(13)
        assert not is_prime(1)
        assert not is_prime(11021)

    def test_against_sieve(self):
        limit = 10000
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        for n in range(limit + 1):
            assert is_prime(n) == bool(sieve[n])

    def test_large_prime(self):
        # 2^89 - 1 is a Mersenne prime, above the deterministic threshold.
        assert is_prime(2**89 - 1)
        assert not is_prime((2**89 - 1) * (2**61 - 1))

    @pytest.mark.parametrize("psi, t", PSI)
    def test_refuses_strong_pseudoprimes(self, psi, t):
        # psi passes the first t bases, so the base count chosen at psi
        # itself must reach past them.
        n = psi - 1
        r = valuation(n, 2)
        assert not any(
            arithmetic._miller_rabin_witness(a, psi, n >> r, r)
            for a in arithmetic._MR_BASES[:t]
        )
        assert not is_prime(psi)

    def test_matches_sympy_below_2e5(self):
        sympy = pytest.importorskip("sympy")
        for n in range(2 * 10**5):
            assert is_prime(n) == sympy.isprime(n), n

    @given(st.integers(0, 2**80))
    def test_matches_sympy_to_2_80(self, n):
        sympy = pytest.importorskip("sympy")
        assert is_prime(n) == sympy.isprime(n)
        assert is_prime(sympy.nextprime(n))


# Two 32-bit safe primes, (p - 1)/2 prime, and a prime with a smooth p - 1.
SAFE_P, SAFE_Q = 4294965887, 4294967087
DEEP_P = 3 * 2**30 + 1
# Two 32-bit primes whose p - 1 has one prime above 2^11, in stage 2's
# range up to 2^14.
STAGE2_P = 2 * 53 * 1237 * 16381 + 1
STAGE2_R = 2 * 3 * 79 * 277 * 16369 + 1
# A 32-bit prime whose p - 1 has one prime above stage 2's bound, below
# 2^16, and a 16-bit prime whose p - 1 has one prime above stage 1's bound,
# below 2^12.
ABOVE_B2_P = 2 * 47 * 349 * 65521 + 1
ABOVE_B1_P = 4 * 3 * 4093 + 1
# Each stage-2 table's lower bound: the p - 1 split's and the curves'.
TABLE_BOUNDS = (1 << arithmetic._PM1_BITS, arithmetic._ECM_B1)


class TestFactorize:
    def test_fixed_primes(self):
        for p in (SAFE_P, SAFE_Q):
            assert is_prime(p) and is_prime((p - 1) // 2)
        assert is_prime(DEEP_P)
        for p, q in (
            (STAGE2_P, 16381),
            (STAGE2_R, 16369),
            (ABOVE_B2_P, 65521),
            (ABOVE_B1_P, 4093),
        ):
            assert is_prime(p) and is_prime(q)
            # q divides the order of 2 mod p, so stage 1 cannot reach it.
            assert pow(2, (p - 1) // q, p) != 1

    def test_examples(self):
        assert factorize(65).factors == ((5, 1), (13, 1))
        assert factorize(195).factors == ((3, 1), (5, 1), (13, 1))
        assert factorize(11009).factors == ((101, 1), (109, 1))

    def test_reconstructs(self):
        for n in range(1, 5000):
            fact = factorize(n)
            assert fact.value == n
            primes = fact.primes()
            assert primes == sorted(primes)
            assert all(is_prime(p) for p in primes)

    def test_rho_path(self):
        n = 1000003 * 1000033
        assert factorize(n).factors == ((1000003, 1), (1000033, 1))

    def test_rejects_zero(self):
        with pytest.raises(InvalidInput):
            factorize(0)

    def test_rho_timeout(self, monkeypatch):
        # Both factors are safe primes, so the order of 2 has a prime factor
        # near 2^31 at each and both p - 1 stages leave the split to rho,
        # with the curves held off. The refusal names the cofactor's size
        # and the cap, not its digits.
        monkeypatch.setattr(arithmetic, "_ECM_CURVES", 0)
        monkeypatch.setattr(arithmetic, "_RHO_ITERATION_CAP", 1000)
        n = SAFE_P * SAFE_Q
        with pytest.raises(FactorizationTimeout) as info:
            factorize(n)
        message = str(info.value)
        assert "64-bit cofactor" in message and "cap of 1,000" in message
        assert str(n) not in message

    def test_pm1_runs_before_rho(self, monkeypatch):
        # 3 * 2^30 + 1 is prime and its p - 1 is smooth; no curve and no
        # rho iteration is left to spend.
        monkeypatch.setattr(arithmetic, "_ECM_CURVES", 0)
        monkeypatch.setattr(arithmetic, "_RHO_ITERATION_CAP", 1)
        assert factorize(DEEP_P * SAFE_Q).factors == ((DEEP_P, 1), (SAFE_Q, 1))

    def test_pm1_stage2_runs_before_rho(self, monkeypatch):
        # The order of 2 mod STAGE2_P has its one prime above 2^11 in stage
        # 2's range, and mod SAFE_Q a prime near 2^31: stage 2 splits n.
        monkeypatch.setattr(arithmetic, "_ECM_CURVES", 0)
        monkeypatch.setattr(arithmetic, "_RHO_ITERATION_CAP", 1)
        n = STAGE2_P * SAFE_Q
        assert factorize(n).factors == ((STAGE2_P, 1), (SAFE_Q, 1))

    def test_curves_split_what_pm1_leaves(self, monkeypatch):
        # Neither p - 1 stage splits n (test_rho_timeout); the curves do,
        # with no rho iteration left to spend.
        monkeypatch.setattr(arithmetic, "_RHO_ITERATION_CAP", 1)
        assert factorize(SAFE_P * SAFE_Q).factors == ((SAFE_P, 1), (SAFE_Q, 1))

    def test_curve_stage2_splits(self, monkeypatch):
        # The first curve that splits SAFE_P * SAFE_Q, sigma = 19, does so
        # in stage 2: stage 1 alone finds nothing.
        n = SAFE_P * SAFE_Q
        assert [arithmetic._ecm_curve(n, s) for s in range(6, 20)] == [None] * 13 + [SAFE_Q]
        monkeypatch.setattr(arithmetic, "_ecm_stage2", lambda *args: None)
        assert arithmetic._ecm_curve(n, 19) is None

    def test_curves_on_a_prime_cube(self):
        # A curve can meet the identity mod p, p^2 or p^3 at once: each
        # answer is a proper divisor or None, never an exception.
        p = 131101
        n = p**3
        assert is_prime(p) and n.bit_length() == 52
        assert arithmetic._ecm_split(n) in (None, p, p * p)
        for sigma in range(6, 6 + arithmetic._ECM_CURVES):
            assert arithmetic._ecm_curve(n, sigma) in (None, p, p * p)
        assert factorize(n).factors == ((p, 3),)

    def test_curve_setup_not_invertible(self):
        # At sigma = 6 the setup inverts 16 u^3 v^4 with u = 31, v = 24:
        # a shared prime splits n, and a gcd of n skips the curve.
        assert arithmetic._ecm_curve(31 * SAFE_P, 6) == 31
        assert arithmetic._ecm_curve(3 * 31, 6) is None
        assert arithmetic._ecm_curve(3 * 31 * SAFE_P, 6) == 3 * 31

    @given(st.integers(4, 10**6), st.integers(6, 100))
    def test_curve_returns_a_proper_divisor_or_none(self, m, sigma):
        # Small odd composites with small primes, where curves collapse mod
        # some or every prime at once.
        n = 2 * m + 1
        if is_prime(n):
            n *= 3
        g = arithmetic._ecm_curve(n, sigma)
        assert g is None or (1 < g < n and n % g == 0)

    def test_pm1_stage2_whole_n_falls_to_rho(self):
        # Stage 2 reaches order 1 at both primes, so its gcd is n.
        for q in (16381, 16369):
            assert 1 << arithmetic._PM1_BITS < q <= arithmetic._PM1_B2
        n = STAGE2_P * STAGE2_R
        assert arithmetic._pm1_split(n) is None
        assert factorize(n).factors == ((STAGE2_P, 1), (STAGE2_R, 1))

    def test_pm1_stage2_only_from_50_bits(self):
        # 131267 and 262643 are safe primes of 18 and 19 bits: the order of
        # 2 mod each has a prime factor above 2^16, out of both stages'
        # reach, so only STAGE2_P can be split off, and only by stage 2.
        below, at = STAGE2_P * 131267, STAGE2_P * 262643
        assert below.bit_length() == 49 and at.bit_length() == 50
        assert arithmetic._pm1_split(below) is None
        assert arithmetic._pm1_split(at) == STAGE2_P
        assert factorize(below).factors == ((131267, 1), (STAGE2_P, 1))

    def test_pm1_stage2_stops_at_its_bound(self, monkeypatch):
        # The order of 2 mod ABOVE_B2_P has its one prime above 2^14, past
        # stage 2's bound, so p - 1 leaves n whole and the curves split it,
        # with no rho iteration left to spend.
        n = ABOVE_B2_P * SAFE_Q
        assert n.bit_length() >= arithmetic._PM1_STAGE2_BITS
        assert arithmetic._pm1_split(n) is None
        monkeypatch.setattr(arithmetic, "_RHO_ITERATION_CAP", 1)
        assert factorize(n).factors == ((ABOVE_B2_P, 1), (SAFE_Q, 1))

    def test_pm1_stage1_stops_at_its_bound(self):
        # The order of 2 mod ABOVE_B1_P has its one prime above 2^11, past
        # stage 1's bound, and n is too small for stage 2.
        n = ABOVE_B1_P * SAFE_P
        assert n.bit_length() < arithmetic._PM1_STAGE2_BITS
        assert arithmetic._pm1_split(n) is None
        assert factorize(n).factors == ((ABOVE_B1_P, 1), (SAFE_P, 1))

    def test_pm1_stage2_table(self):
        # Each prime q in (bound, top], top the larger of the two stage-2
        # bounds, is kD - j or kD + j for one marked pair (k, j), and each
        # marked pair names at least one such prime. The last giant step is
        # the one that reaches top, so no k past both bounds is built.
        step = arithmetic._PM1_STEP
        top = max(arithmetic._PM1_B2, arithmetic._ECM_B2)
        for bound in TABLE_BOUNDS:
            stage2_primes = {q for q in primes_upto(top) if q > bound}
            k0, k1, js, masks = arithmetic._pm1_stage2_table(bound)
            assert k1 == (top + step // 2) // step
            covered = set()
            for j, mask in zip(js, masks):
                assert len(mask) == k1 - k0 + 1
                for k in range(k0, k1 + 1):
                    pair = {k * step - j, k * step + j} & stage2_primes
                    assert bool(mask[k - k0]) == bool(pair)
                    covered |= pair
            assert covered == stage2_primes

    def test_pm1_stage2_table_is_small(self):
        arithmetic._small_prime_mask()
        for bound in TABLE_BOUNDS:
            arithmetic._pm1_stage2_table.cache_clear()
            tracemalloc.start()
            try:
                arithmetic._pm1_stage2_table(bound)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert kept < 2**13 and peak < 2**16


def _odd_d_trial_division(n, bound):
    # The literal reference: try d = 2, then every odd d, stopping at
    # d*d > n; a cofactor 1 < n <= bound left over is prime.
    found = []
    d = 2
    limit = min(bound, math.isqrt(n))
    while d <= limit:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            found.append((d, e))
            limit = min(bound, math.isqrt(n))
        d += 1 if d == 2 else 2
    if 1 < n <= bound:
        found.append((n, 1))
        n = 1
    return found, n


class TestOddSemiprime:
    def test_examples(self):
        assert factorize(39).odd_semiprime() == (3, 13)
        assert Factorization(()).odd_semiprime() is None
        for n in (2, 6, 9, 13, 45, 105):
            assert factorize(n).odd_semiprime() is None

    def test_hand_built_needs_two_odd_increasing_primes(self):
        # A repeated or decreasing prime is refused when built, so p < q
        # holds and the shape itself asks only for an odd p.
        for factors in (((7, 1), (7, 1)), ((7, 1), (5, 1))):
            with pytest.raises(InvalidInput):
                Factorization(factors)
        assert Factorization(((2, 1), (3, 1))).odd_semiprime() is None
        assert Factorization(((5, 1), (7, 1))).odd_semiprime() == (5, 7)

    def test_matches_definition(self):
        for n in range(1, 5000):
            expected = [
                (p, n // p)
                for p in range(3, math.isqrt(n) + 1, 2)
                if n % p == 0 and p < n // p and is_prime(p) and is_prime(n // p)
            ]
            assert factorize(n).odd_semiprime() == (
                expected[0] if expected else None
            ), n


SMALL_PRIMES = [p for p in range(2, 200) if is_prime(p)]


class TestFactorizationBuiltByHand:
    @pytest.mark.parametrize(
        "factors, message",
        [
            (((15, 1),), "strictly increasing primes"),
            (((5, 1), (3, 1)), "strictly increasing primes"),
            (((3, 0), (5, 1)), "exponents must be positive"),
            (((7, 1), (7, 1)), "strictly increasing primes"),
            (((4, 1), (9, 1)), "strictly increasing primes"),
            (((1, 1),), "strictly increasing primes"),
            (((5, -1),), "exponents must be positive"),
            (((5, 1.0),), "exponents must be positive"),
            (((5.0, 1),), "strictly increasing primes"),
            (((5, 1, 1),), "strictly increasing primes"),
            ([[5, 1]], "strictly increasing primes"),
            ((5,), "strictly increasing primes"),
            (15, "strictly increasing primes"),
            (None, "strictly increasing primes"),
        ],
    )
    def test_malformed_refused_when_built(self, factors, message):
        with pytest.raises(InvalidInput, match=message):
            Factorization(factors)
        with pytest.raises(InvalidInput, match=message):
            Factorization(factors=factors)

    def test_value_is_a_stored_field(self):
        fact = Factorization([(3, 2), (5, 1)])
        assert Factorization._fields == ("factors", "value")
        assert fact == Factorization(((3, 2), (5, 1))) == factorize(45)
        assert fact.factors == ((3, 2), (5, 1)) and fact.value == 45
        assert Factorization(()).value == 1 == factorize(1).value

    @given(
        st.lists(
            st.tuples(st.sampled_from(SMALL_PRIMES), st.integers(1, 4)),
            max_size=5,
            unique_by=lambda pair: pair[0],
        )
    )
    def test_round_trips_stay_checked(self, pairs):
        fs = tuple(sorted(pairs))
        fact = Factorization(fs)
        assert fact == factorize(fact.value)
        copies = [copy.copy(fact), copy.deepcopy(fact), fact._make(fact)]
        copies += [pickle.loads(pickle.dumps(fact, proto)) for proto in range(6)]
        assert all(type(c) is Factorization and c == fact for c in copies)
        # _replace recomputes value from the new factors, and refuses a
        # malformed list as the constructor does.
        if fs:
            smaller = fact._replace(factors=fs[:-1])
            assert smaller == factorize(fact.value // fs[-1][0] ** fs[-1][1])
            with pytest.raises(InvalidInput):
                fact._replace(factors=fs + fs[:1])
        assert fact._replace(value=fact.value + 2) == fact
        with pytest.raises(InvalidInput):
            fact._make((((15, 1),), 15))

    def test_no_copy_skips_the_check(self):
        forged = tuple.__new__(Factorization, (((15, 1),), 15))
        for rebuild in (
            copy.copy,
            copy.deepcopy,
            lambda f: f._replace(),
            lambda f: pickle.loads(pickle.dumps(f)),
            lambda f: pickle.loads(pickle.dumps(f, 0)),
        ):
            with pytest.raises(InvalidInput):
                rebuild(forged)


class TestTrialDivision:
    def test_examples(self):
        assert trial_division(65, 10) == ([(5, 1)], 13)
        assert trial_division(11021, 50) == ([], 11021)
        assert trial_division(8, 2) == ([(2, 3)], 1)
        assert trial_division(2 * 9973, 10**4) == ([(2, 1), (9973, 1)], 1)
        assert trial_division(2 * 10007, 10**4) == ([(2, 1)], 10007)

    def test_reconstructs_and_strips(self):
        for n in range(1, 2000):
            for bound in (2, 10, 50):
                found, cofactor = trial_division(n, bound)
                product = cofactor
                for p, e in found:
                    product *= p**e
                assert product == n
                assert all(cofactor % d for d in range(2, bound + 1))

    @pytest.mark.parametrize("bound", [1, 2, 3, 97, 10**4, 10**5])
    def test_matches_odd_d(self, bound):
        for n in range(1, 20000):
            assert trial_division(n, bound) == _odd_d_trial_division(n, bound)

    def test_past_the_sieve(self):
        n = 10007 * 1000003
        assert trial_division(n, 10**7) == ([(10007, 1), (1000003, 1)], 1)
        for n, bound in [
            (65537 * 1000003, 10**7),
            (65537**2 * 65539, 10**5),
            (65521 * 65537 * 70001, 70000),
            (3**5 * 65537 * 1000003, 65536),
        ]:
            assert trial_division(n, bound) == _odd_d_trial_division(n, bound)

    def test_caches_stay_bounded(self):
        primes_upto(2**16 + 500)
        trial_division(65537 * 1000003, 10**7)
        assert len(arithmetic._small_prime_mask()) == 2**16
        # One primorial per bit length of the covered bound, 0 to 16.
        assert arithmetic._primorial.cache_info().currsize <= 17


class TestPrimesUpto:
    def test_small_bounds(self):
        reference = [p for p in range(3000) if is_prime(p)]
        for b in range(-2, 3000):
            assert primes_upto(b) == [p for p in reference if p <= b]

    @pytest.mark.parametrize("b", [2**16 - 1, 2**16, 2**16 + 500])
    def test_around_sieve_limit(self, b):
        assert primes_upto(b) == [p for p in range(b + 1) if is_prime(p)]

    @pytest.mark.parametrize("b", [2**22 + 1, 10**30])
    def test_ceiling_refused_before_allocating(self, b):
        tracemalloc.start()
        try:
            with pytest.raises(SearchSpaceTooLarge):
                primes_upto(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_at_ceiling(self):
        primes = primes_upto(2**22)
        assert len(primes) == 295947 and primes[-1] == 4194301
