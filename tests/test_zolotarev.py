import math
import random

import pytest

from residuo.arithmetic import factorize, is_prime, valuation
from residuo.errors import (
    NotAdmissibleModulus,
    NotAPermutation,
    NotClosedUnderAction,
    NotCoprime,
    PreconditionViolated,
)
from residuo.oracle import ZolotarevOracle
from residuo.symbols import residue_set, symbol_prime_definition
from residuo.zolotarev import (
    PermutationTable,
    find_tripleprime_counterexample,
    multiplication_permutation,
    permutation_sign,
    restricted_sign,
    zolotarev_prime,
    zolotarev_semiprime,
    zolotarev_symbol,
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


def _layer_sign(a, p, f, j):
    """(|H|, sign of x -> a*x on H) for H the level-j units mod p^f, or
    None when a is not in H.

    For any finite group H holding a, the orbits of x -> a*x are the cosets
    of <a>, |H|/ord(a) cycles of length ord(a), so the sign is -1 exactly
    when nu_2(ord a) = nu_2(|H|) >= 1.  With s = nu_2(|H|), b = a^(|H|>>s)
    has order 2^nu_2(ord a), counted as the squarings that take b to 1.

    Mod an odd p^f, H is the cyclic subgroup of order
    phi(p^f) >> min(j, nu_2(p-1)), and a is in it exactly when a^|H| = 1.
    Mod 2^f, H is {1} at f = 1 and every odd residue at j = 0; otherwise it
    is the residues = 1 mod 2^min(j+2, f), of order 2^max(f-2-j, 0)."""
    q = p**f
    if p > 2:
        size = (p - 1) * p ** (f - 1) >> min(j, valuation(p - 1, 2))
        if pow(a, size, q) != 1:
            return None
    elif f == 1:
        size = 1
    elif j == 0:
        size = 1 << (f - 1)
    else:
        if a % (1 << min(j + 2, f)) != 1:
            return None
        size = 1 << max(f - 2 - j, 0)
    s = valuation(size, 2)
    b, squarings = pow(a, size >> s, q), 0
    while b != 1:
        b, squarings = b * b % q, squarings + 1
    return size, -1 if s and squarings == s else 1


def _structural_sign(a, n, k, units_only):
    """The sign of x -> a*x mod n on its 2^k-th power residues, read off the
    group structure with no enumeration; None when the unit a does not
    preserve that set.

    Mod p^e the units kind is the level-k units.  The all-residues kind is
    the disjoint layers {0}, a fixed point, and p^w * H_k(p^(e-w)) for each
    w = v*2^k < e, v >= 0, on which a acts as a mod p^(e-w): the layer signs
    multiply and the layer sizes add up.  By the CRT the set mod n is the
    product X of the parts X_i, acted on componentwise, so each part's sign
    counts |X|/|X_i| times."""
    parts = []
    for p, e in factorize(n).factors:
        layers = [] if units_only else [(1, 1)]
        for w in range(0, 1 if units_only else e, 1 << k):
            layer = _layer_sign(a, p, e - w, k)
            if layer is None:
                return None
            layers.append(layer)
        parts.append((sum(m for m, _ in layers), math.prod(s for _, s in layers)))
    size = math.prod(m for m, _ in parts)
    return math.prod(sign ** (size // m) for m, sign in parts)


class TestStructuralSign:
    # An independent reading of the sign the mask walk computes, at every
    # modulus: prime powers and powers of 2 included.

    def test_matches_restricted_sign(self):
        seen = set()
        for n in range(1, 300):
            units = [a for a in range(n) if math.gcd(a, n) == 1]
            for k in range(4):
                for units_only in (True, False):
                    for a in units:
                        expected = _structural_sign(a, n, k, units_only)
                        seen.add(expected)
                        if expected is None:
                            with pytest.raises(NotClosedUnderAction):
                                restricted_sign(a, n, k, units_only)
                        else:
                            got = restricted_sign(a, n, k, units_only)
                            assert got == expected, (a, n, k, units_only)
        assert seen == {1, -1, None}

    @pytest.mark.parametrize("n", [100_003, 786_433, 503_491])
    def test_zolotarev_oracle_past_1e5(self, n):
        # The oracle's (m|n)_{2^k} is the sign at level k-1, over the units
        # at a prime or when n != 1 mod 2^k, over all residues otherwise.
        oracle = ZolotarevOracle()
        signs = set()
        for k in (1, 2, 3):
            units_only = is_prime(n) or valuation(n - 1, 2) < k
            for x in (2, 3, 5):
                m = pow(x, 1 << (k - 1), n)
                expected = _structural_sign(m, n, k - 1, units_only)
                assert oracle.crs_query(m, n, k) == expected, (m, k)
                signs.add(expected)
        assert signs == {1, -1}


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

    def test_square_factorization_refused_as_by_the_oracle(self):
        # 49 is no distinct-prime semiprime; read by hand as 7 * 7 it is
        # refused when built (TestFactorizationBuiltByHand).
        with pytest.raises(NotAdmissibleModulus):
            zolotarev_symbol(2, factorize(49), 1)
        with pytest.raises(NotAdmissibleModulus):
            ZolotarevOracle().crs_query(2, 49, 1)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            zolotarev_semiprime(5, 3, 5, 1)

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            zolotarev_semiprime(2, 3, 13, 2)


class TestCounterexample:
    def test_found_at_200(self):
        assert find_tripleprime_counterexample(200) == (195, 79)

    def test_not_found_at_100(self):
        assert find_tripleprime_counterexample(100) is None

    def test_limit_past_any_sieve(self):
        # The search walks odd n upward and stops at its first hit, so a
        # limit far past the sieve ceiling answers as fast as 200 does.
        assert find_tripleprime_counterexample(10**9) == (195, 79)

    def test_postcondition(self):
        n, m = find_tripleprime_counterexample(200)
        from residuo.arithmetic import factorize
        from residuo.symbols import symbol_composite

        assert symbol_composite(m, factorize(n), 2) == -1
        units = residue_set(n, 1, True)
        sign = permutation_sign(multiplication_permutation(m, units))
        assert sign == 1
        assert symbol_composite(m, factorize(n), 2) != sign
