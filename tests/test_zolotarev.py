import itertools
import math
import random

import pytest

from residuo.arithmetic import is_prime
from residuo.errors import (
    InvalidInput,
    NotAdmissibleModulus,
    NotAPermutation,
    NotClosedUnderAction,
    NotCoprime,
    PreconditionViolated,
)
from residuo.symbols import residue_set, symbol_prime_definition
from residuo.zolotarev import (
    PermutationTable,
    find_tripleprime_counterexample,
    multiplication_permutation,
    permutation_sign,
    product_permutation_sign,
    restricted_sign,
    zolotarev_prime,
    zolotarev_semiprime,
)


class TestPermutationSign:
    def test_identity(self):
        perm = PermutationTable((2, 5, 9), (2, 5, 9))
        assert permutation_sign(perm) == 1

    def test_transposition(self):
        assert permutation_sign(PermutationTable((1, 4), (4, 1))) == -1

    def test_three_cycle(self):
        assert permutation_sign(PermutationTable((1, 2, 3), (2, 3, 1))) == 1

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutation):
            permutation_sign(PermutationTable((1, 2, 3), (1, 1, 2)))
        with pytest.raises(NotAPermutation):
            permutation_sign(PermutationTable((1, 2), (1, 5)))

    def test_matches_transposition_count(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(1, 9)
            domain = tuple(range(n))
            image = list(domain)
            rng.shuffle(image)
            # Independent sign: parity of inversions.
            inversions = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if image[i] > image[j]
            )
            expected = -1 if inversions % 2 else 1
            assert permutation_sign(PermutationTable(domain, tuple(image))) == expected


class TestMultiplicationPermutation:
    def test_examples(self):
        table = multiplication_permutation(4, residue_set(15, 1, True))
        assert table.domain == (1, 4) and table.image == (4, 1)
        full = residue_set(65, 1, False)
        table = multiplication_permutation(4, full)
        assert table.image[table.domain.index(0)] == 0

    def test_identity(self):
        rset = residue_set(13, 1, True)
        table = multiplication_permutation(1, rset)
        assert table.domain == table.image

    def test_not_invariant(self):
        # 2 is not a square mod 15, so it maps squares outside the set.
        with pytest.raises(NotClosedUnderAction):
            multiplication_permutation(2, residue_set(15, 1, True))

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            multiplication_permutation(3, residue_set(15, 1, True))


class TestRestrictedSign:
    def test_matches_permutation_sign(self):
        # The mask walk against the literal permutation the theorem names,
        # for every unit a: restricted_sign refuses exactly the a whose
        # table leaves the set.
        for n in range(1, 200):
            units = [a for a in range(n) if math.gcd(a, n) == 1]
            for k in range(4):
                for units_only in (True, False):
                    rset = residue_set(n, k, units_only)
                    for a in units:
                        try:
                            table = multiplication_permutation(a, rset)
                        except NotClosedUnderAction:
                            with pytest.raises(NotClosedUnderAction):
                                restricted_sign(a, n, k, units_only)
                            continue
                        assert restricted_sign(a, n, k, units_only) == permutation_sign(
                            table
                        ), (a, n, k, units_only)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            restricted_sign(3, 15, 0, False)
        with pytest.raises(NotCoprime):
            restricted_sign(0, 7, 0, False)

    def test_not_invariant(self):
        with pytest.raises(NotClosedUnderAction):
            restricted_sign(2, 15, 1, True)


class TestZolotarevPrime:
    def test_examples(self):
        assert zolotarev_prime(4, 13, 2) == -1
        assert zolotarev_prime(1, 97, 3) == 1
        assert zolotarev_prime(3, 13, 2) == 1

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            zolotarev_prime(2, 13, 2)

    def test_non_unit_of_composite_modulus(self):
        # The modulus is refused before a is looked at, and 1 is no prime.
        for a, p in ((2, 4), (0, 9), (1, 1)):
            with pytest.raises(NotAdmissibleModulus):
                zolotarev_prime(a, p, 1)

    def test_composite_modulus_refused(self):
        # (3|4)_2 = +1 and (2|9)_2 = +1, where a sign would read -1.
        for n in range(4, 400):
            if is_prime(n):
                continue
            for k in range(1, 4):
                for a in range(1, n):
                    if math.gcd(a, n) == 1:
                        with pytest.raises(NotAdmissibleModulus):
                            zolotarev_prime(a, n, k)

    def test_above_stabilization_is_plus_one(self):
        # For k > nu_2(p-1) an admissible a gives an even permutation.
        for p in (3, 5, 7, 11, 13):
            import residuo.arithmetic as arith

            m = arith.valuation(p - 1, 2)
            for k in range(m + 1, m + 4):
                for a in range(1, p):
                    if symbol_prime_definition(a, p, k - 1) == 1:
                        assert zolotarev_prime(a, p, k) == 1


class TestZolotarevSemiprime:
    def test_examples(self):
        assert zolotarev_semiprime(4, 3, 5, 2) == -1
        assert zolotarev_semiprime(4, 5, 13, 2) == 1
        assert zolotarev_semiprime(1, 7, 11, 3) == 1

    def test_bad_modulus(self):
        with pytest.raises(NotAdmissibleModulus):
            zolotarev_semiprime(3, 5, 5, 2)
        with pytest.raises(NotAdmissibleModulus):
            zolotarev_semiprime(3, 2, 7, 2)
        with pytest.raises(NotAdmissibleModulus):
            zolotarev_semiprime(2, 9, 5, 2)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            zolotarev_semiprime(5, 3, 5, 1)

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            zolotarev_semiprime(2, 3, 13, 2)


class TestProductPermutationSign:
    def test_examples(self):
        assert product_permutation_sign([-1, 1], [2, 4]) == 1
        assert product_permutation_sign([-1, -1], [3, 5]) == 1
        assert product_permutation_sign([-1], [17]) == -1

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            product_permutation_sign([1, -1], [2])

    def test_against_explicit_product(self):
        # Componentwise permutation of a cartesian product vs the formula.
        rng = random.Random(13)
        for _ in range(30):
            sizes = [rng.randrange(1, 7), rng.randrange(1, 7)]
            perms = []
            for size in sizes:
                perm = list(range(size))
                rng.shuffle(perm)
                perms.append(perm)
            signs = [
                permutation_sign(
                    PermutationTable(tuple(range(len(p))), tuple(p))
                )
                for p in perms
            ]
            domain = sorted(itertools.product(range(sizes[0]), range(sizes[1])))
            image = [(perms[0][x], perms[1][y]) for x, y in domain]
            explicit = permutation_sign(PermutationTable(tuple(domain), tuple(image)))
            assert product_permutation_sign(signs, sizes) == explicit


class TestCounterexample:
    def test_found_at_200(self):
        assert find_tripleprime_counterexample(200) == (195, 79)

    def test_not_found_at_100(self):
        assert find_tripleprime_counterexample(100) is None

    def test_postcondition(self):
        n, m = find_tripleprime_counterexample(200)
        from residuo.arithmetic import factorize
        from residuo.symbols import symbol_composite

        assert symbol_composite(m, factorize(n), 2) == -1
        units = residue_set(n, 1, True)
        sign = permutation_sign(multiplication_permutation(m, units))
        assert sign == 1
        assert symbol_composite(m, factorize(n), 2) != sign
