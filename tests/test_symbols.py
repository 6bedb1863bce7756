import json
import math

import pytest

from residuo.arithmetic import factorize, is_prime, jacobi, valuation
from residuo.errors import (
    InvalidInput,
    NotCoprime,
    PreconditionViolated,
    SearchSpaceTooLarge,
)
from residuo.symbols import (
    require_admissible,
    residue_set,
    symbol_composite,
    symbol_power_shortcut,
    symbol_prime_checked,
    symbol_prime_definition,
    symbol_stabilized,
)

PRIMES_200 = [p for p in range(2, 200) if is_prime(p)]


class TestDefinition:
    def test_examples(self):
        assert symbol_prime_definition(4, 13, 2) == -1
        assert symbol_prime_definition(7, 11, 0) == 1
        assert symbol_prime_definition(9, 2, 5) == 1

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            symbol_prime_definition(26, 13, 2)

    def test_too_large(self):
        with pytest.raises(SearchSpaceTooLarge):
            symbol_prime_definition(2, 10**6 + 3, 2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: symbol_prime_definition(3, 7, -1),
            lambda: symbol_stabilized(3, 7, -1),
            lambda: require_admissible(3, 7, 0),
            lambda: symbol_prime_definition(3, 0, 1),
        ],
        ids=["definition", "stabilized", "admissible", "zero-modulus"],
    )
    def test_bad_level_or_modulus(self, call):
        with pytest.raises(InvalidInput):
            call()

    def test_k1_is_legendre(self):
        for p in PRIMES_200:
            if p == 2:
                continue
            for a in range(1, p):
                assert symbol_prime_definition(a, p, 1) == jacobi(a, p)


class TestChecked:
    def test_examples(self):
        assert symbol_prime_checked(4, 13, 2) == -1
        assert symbol_prime_checked(3, 13, 2) == 1
        assert symbol_prime_checked(1, 97, 3) == 1

    def test_violation_detected(self):
        # 2 is a quadratic nonresidue mod 13 and mod 3, so level 2 is
        # ill-posed at both; the Euler power at 3 is -1, which alone does not
        # tell a violation from a -1 symbol.
        for p in (13, 3):
            with pytest.raises(PreconditionViolated) as info:
                symbol_prime_checked(2, p, 2)
            assert (info.value.prime, info.value.level) == (p, 1)

    def test_matches_definition(self):
        for p in PRIMES_200:
            for k in range(1, 9):
                for a in range(1, p):
                    failing = [
                        j for j in range(1, k)
                        if symbol_prime_definition(a, p, j) == -1
                    ]
                    if not failing:
                        expected = symbol_prime_definition(a, p, k)
                        assert symbol_prime_checked(a, p, k) == expected
                        continue
                    with pytest.raises(PreconditionViolated) as info:
                        symbol_prime_checked(a, p, k)
                    assert (info.value.prime, info.value.level) == (p, failing[0])


class TestComposite:
    def test_examples(self):
        assert symbol_composite(4, factorize(15), 2) == -1
        assert symbol_composite(4, factorize(65), 2) == 1

    def test_k1_is_jacobi(self):
        for n in range(3, 1000, 2):
            fact = factorize(n)
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    assert symbol_composite(a, fact, 1) == jacobi(a, n)

    def test_violation_names_prime_and_level(self):
        with pytest.raises(PreconditionViolated) as info:
            symbol_composite(2, factorize(39), 2)
        assert info.value.prime in (3, 13)
        assert info.value.level == 1

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            symbol_composite(5, factorize(15), 1)

    def test_multiplicativity(self):
        for n in range(3, 200, 2):
            fact = factorize(n)
            primes = fact.primes()
            for k in range(1, 4):
                good = [
                    a
                    for a in range(1, n)
                    if math.gcd(a, n) == 1
                    and all(
                        symbol_prime_definition(a, p, k - 1) == 1 for p in primes
                    )
                ]
                for a in good[:10]:
                    for b in good[:10]:
                        assert symbol_composite(a * b % n, fact, k) == (
                            symbol_composite(a, fact, k)
                            * symbol_composite(b, fact, k)
                        )

    def test_congruence_invariance(self):
        fact = factorize(91)
        for a in range(1, 91):
            if math.gcd(a, 91) == 1:
                assert symbol_composite(a + 91, fact, 1) == symbol_composite(
                    a, fact, 1
                )


class TestStabilized:
    def test_examples(self):
        assert symbol_stabilized(4, 13, 99) == -1
        assert symbol_stabilized(10, 13, 0) == 1
        assert symbol_stabilized(2, 13, 3) == symbol_prime_definition(2, 13, 2)

    def test_clamp_is_exact(self):
        for p in [3, 5, 7, 13, 17, 41, 97]:
            m = valuation(p - 1, 2)
            for a in range(1, p):
                for k in range(0, m + 4):
                    assert symbol_stabilized(a, p, k) == symbol_prime_definition(
                        a, p, k
                    )


class TestPowerShortcut:
    def test_examples(self):
        assert symbol_power_shortcut(2, 13, 2) == -1
        assert symbol_power_shortcut(2, 13, 3) == 1
        assert symbol_power_shortcut(2, 3, 2) == 1

    def test_matches_definition(self):
        for p in PRIMES_200:
            if p >= 300 or p == 2:
                continue
            for k in range(1, 6):
                for a in range(1, p):
                    lifted = pow(a, 1 << (k - 1), p)
                    assert symbol_power_shortcut(a, p, k) == symbol_prime_definition(
                        lifted, p, k
                    )


class TestResidueSet:
    def test_examples(self):
        assert residue_set(15, 1, True).members == (1, 4)
        assert residue_set(13, 2, True).members == (1, 3, 9)
        assert residue_set(5, 0, True).members == (1, 2, 3, 4)

    def test_full_set_is_power_image(self):
        for n in (9, 15, 21):
            for k in range(0, 3):
                expected = sorted({pow(x, 1 << k, n) for x in range(n)})
                assert list(residue_set(n, k, False).members) == expected

    def test_units_form_subgroup(self):
        for n in range(2, 60):
            for k in range(0, 4):
                members = residue_set(n, k, True).members
                assert 1 in members
                mset = set(members)
                assert all(math.gcd(x, n) == 1 for x in members)
                for x in members:
                    for y in members:
                        assert x * y % n in mset

    def test_stabilization(self):
        for p in PRIMES_200:
            if p == 2 or p >= 500:
                continue
            m = valuation(p - 1, 2)
            stable = residue_set(p, m, True).members
            for k in range(m, 7):
                assert residue_set(p, k, True).members == stable

    def test_json_shape(self):
        data = residue_set(15, 1, True).to_json()
        assert json.loads(json.dumps(data)) == {
            "modulus": "15",
            "k": 1,
            "units_only": True,
            "members": ["1", "4"],
        }

    def test_clamped_above_bit_length(self):
        # Enumerated directly, so the clamp inside residue_set is checked.
        for n in range(1, 1000):
            for units in (True, False):
                xs = [x for x in range(n) if not units or math.gcd(x, n) == 1]
                for k in range(n.bit_length() + 1, n.bit_length() + 4):
                    expected = tuple(sorted({pow(x, 1 << k, n) for x in xs}))
                    assert residue_set(n, k, units).members == expected

    def test_matches_direct_enumeration(self):
        # The unit sieve, the half-range level 1 and the clamp against every
        # x^(2^k) mod n, squared point by point with no set in between.
        for n in range(1, 1500):
            for units in (True, False):
                powers = [x for x in range(n) if not units or math.gcd(x, n) == 1]
                for k in range(13):
                    expected = tuple(sorted(set(powers)))
                    assert residue_set(n, k, units).members == expected, (n, k, units)
                    powers = [x * x % n for x in powers]

    def test_too_large(self):
        with pytest.raises(SearchSpaceTooLarge):
            residue_set(10**6 + 1, 1, True)
