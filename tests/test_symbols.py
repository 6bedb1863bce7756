import functools
import gc
import hashlib
import json
import math
import random
import time
import tracemalloc
from collections import deque
from itertools import compress, repeat

import pytest
from hypothesis import given, settings, strategies as st

import residuo.symbols
from residuo.arithmetic import Factorization, factorize, is_prime, jacobi, valuation
from residuo.errors import (
    InvalidInput,
    NotAdmissibleModulus,
    NotCoprime,
    PreconditionViolated,
    SearchSpaceTooLarge,
)
from residuo.oracle import DefinitionOracle, FactorOracle, ZolotarevOracle
from residuo.symbols import (
    ENUMERATION_LIMIT,
    MASK_BUDGET,
    power_residues,
    residue_set,
    symbol_composite,
    symbol_definition,
    symbol_prime_checked,
    symbol_prime_definition,
)
from residuo.zolotarev import zolotarev_prime, zolotarev_semiprime

PRIMES_200 = [p for p in range(2, 200) if is_prime(p)]


def stabilized(a, p, k):
    # Stabilization: every level above nu_2(p-1) equals level nu_2(p-1).
    return symbol_prime_definition(a, p, min(k, valuation(p - 1, 2)))


def lifted(a, p, k):
    # The power shortcut's left side, (a^(2^(k-1))|p)_{2^k}.
    return symbol_prime_definition(pow(a, 1 << (k - 1), p), p, k)


def power_shortcut(a, p, k):
    # The power shortcut's right side: (a|p)_2 up to level nu_2(p-1), else +1.
    return jacobi(a, p) if k <= valuation(p - 1, 2) else 1


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
            lambda: symbol_definition(3, factorize(7), 0),
            lambda: symbol_prime_definition(3, 0, 1),
            lambda: symbol_prime_checked(3, 2, -1),
        ],
        ids=["definition", "admissible", "zero-modulus", "checked-at-2"],
    )
    def test_bad_level_or_modulus(self, call):
        with pytest.raises(InvalidInput):
            call()

    def test_refusal_reads_no_level_0_mask(self, monkeypatch):
        # Level 0 of a unit is +1, so naming the failing level of 2 at 3
        # builds no level-0 mask of p bytes.
        keys = []
        build = residuo.symbols.power_residues

        def recording(*key):
            keys.append(key)
            return build(*key)

        monkeypatch.setattr(residuo.symbols, "power_residues", recording)
        with pytest.raises(PreconditionViolated) as info:
            symbol_definition(2, factorize(39), 3)
        assert (info.value.prime, info.value.level) == (3, 1)
        assert keys and (3, 0, True) not in keys

    def test_k1_is_legendre(self):
        for p in PRIMES_200:
            if p == 2:
                continue
            for a in range(1, p):
                assert symbol_prime_definition(a, p, 1) == jacobi(a, p)


@pytest.mark.parametrize("p", [0, -7])
@pytest.mark.parametrize("symbol", [symbol_prime_checked, zolotarev_prime])
def test_nonpositive_prime_rejected(symbol, p):
    with pytest.raises(InvalidInput):
        symbol(3, p, 1)


# The wrappers' level-0 message is the route's own, naming the caller's k.
LEVEL_0 = "^k must be >= 1, got 0$"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: symbol_prime_checked(26, 13, 2), NotCoprime, None),
        (lambda: zolotarev_prime(26, 13, 2), NotCoprime, None),
        (lambda: zolotarev_prime(3, 13, 0), InvalidInput, LEVEL_0),
        (lambda: zolotarev_semiprime(4, 3, 5, 0), InvalidInput, LEVEL_0),
        (lambda: zolotarev_prime(26, 13, 0), NotCoprime, None),
        (lambda: zolotarev_semiprime(2, 9, 5, 0), NotAdmissibleModulus, None),
        (lambda: symbol_prime_checked(3, 13, -1), InvalidInput, None),
        (lambda: symbol_prime_checked(2, 15, 1), InvalidInput, None),
        (lambda: symbol_prime_checked(-7, 9, 1), InvalidInput, None),
    ],
    ids=[
        "checked-not-coprime",
        "zolotarev-not-coprime",
        "zolotarev-level-0",
        "semiprime-level-0",
        "zolotarev-not-coprime-before-level",
        "semiprime-modulus-before-level",
        "checked-negative-level",
        "checked-composite-15",
        "checked-composite-9",
    ],
)
def test_prime_level_argument_checks(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize(
    "symbol, levels",
    [
        (symbol_prime_checked, range(9)),
        (stabilized, range(9)),
        (lifted, range(1, 9)),
    ],
    ids=["checked", "stabilized", "shortcut"],
)
def test_every_odd_a_is_a_power_residue_mod_2(symbol, levels):
    for a in (1, 3, 5, 7, 99, -3):
        for k in levels:
            assert symbol(a, 2, k) == 1


class TestPrimeModulusRequired:
    # Both public prime-level names test p once and refuse a composite; the
    # routes call their unchecked bodies with the primes of a Factorization.
    NAMES = [symbol_prime_checked, symbol_prime_definition]

    @pytest.mark.parametrize("symbol", NAMES, ids=["checked", "definition"])
    def test_every_odd_composite_below_400_refused(self, symbol):
        # At 21 the Euler power of 8 is 8^10 = 1 mod 21, which read as +1
        # where the Jacobi symbol (8|21) is -1.
        for n in range(9, 400, 2):
            if is_prime(n):
                continue
            refusal = (InvalidInput, f"p = {n} is not prime")
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    for k in (1, 2):
                        assert _outcome(symbol, a, n, k) == refusal, (a, n, k)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        p=st.sampled_from(PRIMES_200 + [257, 7681, 65537]),
        a=st.integers(-(10**6), 10**6),
        k=st.integers(-2, 8),
    )
    def test_public_and_private_bodies_agree_on_primes(self, p, a, k):
        for public, body in (
            (symbol_prime_checked, residuo.symbols._symbol_prime_checked),
            (symbol_prime_definition, residuo.symbols._symbol_prime_definition),
        ):
            assert _outcome(public, a, p, k) == _outcome(body, a, p, k)


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

    def test_k1_is_the_euler_product(self):
        # Level 1 is read by reciprocity, so it is tied here to the Euler
        # criterion at each prime of odd multiplicity, at every n <= 600:
        # even n, prime powers and square factors included.
        for n in range(1, 601):
            fact = factorize(n)
            odd = [p for p, e in fact.factors if e % 2]
            for a in range(n):
                if math.gcd(a, n) == 1:
                    expected = math.prod(symbol_prime_checked(a, p, 1) for p in odd)
                    assert symbol_composite(a, fact, 1) == expected, (a, n)

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


def _outcome(route, *args):
    # The answer, or the error's type and message.
    try:
        return route(*args)
    except (NotCoprime, PreconditionViolated, InvalidInput) as exc:
        return type(exc), str(exc)


def _euler_product(a, fact, k):
    # The Euler criterion at each prime, with multiplicity: the reference
    # for the level-2 square path.
    result = 1
    for p, e in fact.factors:
        sign = symbol_prime_checked(a, p, k)
        if e & 1:
            result *= sign
    return result


def _random_prime(rng, bits, residue):
    # A prime of `bits` bits that is `residue` mod 4.
    while True:
        p = rng.getrandbits(bits) | 1 << (bits - 1)
        p += (residue - p) % 4
        if is_prime(p):
            return p


class TestSquareAtLevel2:
    # Level 2 of a = s^2 mod n is read as (s|n1), n1 the part of n at the
    # primes 1 mod 4; it must equal the per-prime Euler product and the
    # definition route, refusals included.

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        n=st.one_of(
            st.integers(2, 3000),
            st.sampled_from([2, 4, 8, 64, 9, 27, 25, 125, 49, 13**2, 5 * 13 * 17]),
            st.tuples(
                st.sampled_from([2, 3, 5, 7, 13, 17]), st.integers(1, 5)
            ).map(lambda pe: pe[0] ** pe[1]),
        ),
        s=st.integers(0, 200),
        shift=st.integers(-3, 3),
    )
    def test_matches_per_prime_and_definition(self, n, s, shift):
        # a >= n and negative a are reduced to the same square mod n.
        fact = factorize(n)
        a = s * s + shift * n
        expected = _outcome(_euler_product, a, fact, 2)
        if isinstance(expected, tuple):
            assert expected[0] is NotCoprime
            expected = (NotCoprime, f"gcd({a}, {n}) > 1")
        assert _outcome(symbol_composite, a, fact, 2) == expected
        assert _outcome(symbol_definition, a, fact, 2) == expected

    @pytest.mark.parametrize("bits", [64, 128, 256])
    @pytest.mark.parametrize("residues", [(1, 1), (1, 3), (3, 3)])
    def test_matches_pow_on_large_semiprimes(self, bits, residues):
        # n = pq of 128-512 bits, built with known primes: the answer is
        # the Euler criterion read with pow at each prime, (p-1)/4 at
        # p = 1 mod 4 and (p-1)/2 at p = 3 mod 4.
        rng = random.Random(bits * 10 + residues[1])
        p = _random_prime(rng, bits, residues[0])
        q = _random_prime(rng, bits, residues[1])
        p, q = sorted((p, q))
        fact = Factorization(((p, 1), (q, 1)))
        n = fact.value
        for _ in range(20):
            s = rng.randrange(2, 1 << rng.choice([16, bits - 1]))
            expected = 1
            for r in (p, q):
                x = pow(s * s, (r - 1) >> (2 if r % 4 == 1 else 1), r)
                assert x in (1, r - 1)
                expected *= 1 if x == 1 else -1
            for a in (s * s, s * s + n, s * s - 2 * n):
                assert symbol_composite(a, fact, 2) == expected
                assert _euler_product(a, fact, 2) == expected

    def test_not_coprime_refused_first(self):
        # s shares a prime with n: the gcd check refuses first, naming a
        # and n as the definition route does.
        for a, n in [(9, 15), (25, 65), (13**2, 13 * 17), (4, 12), (9 + 21, 21)]:
            fact = factorize(n)
            message = f"gcd({a}, {n}) > 1"
            assert _outcome(symbol_composite, a, fact, 2) == (NotCoprime, message)
            assert _outcome(symbol_definition, a, fact, 2) == (NotCoprime, message)
            with pytest.raises(NotCoprime):
                _euler_product(a, fact, 2)


class TestStabilized:
    def test_examples(self):
        assert symbol_prime_definition(4, 13, 99) == stabilized(4, 13, 99) == -1
        assert symbol_prime_definition(10, 13, 0) == stabilized(10, 13, 0) == 1
        assert symbol_prime_definition(2, 13, 3) == symbol_prime_definition(2, 13, 2)

    def test_clamp_is_exact(self):
        for p in [3, 5, 7, 13, 17, 41, 97]:
            m = valuation(p - 1, 2)
            for a in range(1, p):
                for k in range(0, m + 4):
                    assert symbol_prime_definition(a, p, k) == stabilized(a, p, k)


class TestPowerShortcut:
    def test_examples(self):
        assert lifted(2, 13, 2) == power_shortcut(2, 13, 2) == -1
        assert lifted(2, 13, 3) == power_shortcut(2, 13, 3) == 1
        assert lifted(2, 3, 2) == power_shortcut(2, 3, 2) == 1

    def test_matches_definition(self):
        for p in PRIMES_200[1:]:
            for k in range(1, 6):
                for a in range(1, p):
                    assert lifted(a, p, k) == power_shortcut(a, p, k)


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


def _mask_shape(n):
    """The shape of n's factorization: p, pq, pqr, p^2*q or 2^e*q, else None."""
    factors = factorize(n).factors
    exps = [e for _, e in factors]
    if factors[0][0] == 2 and exps[1:] == [1]:
        return "2^e*q"
    return {
        (1,): "p",
        (1, 1): "pq",
        (1, 1, 1): "pqr",
        (1, 2): "p^2*q",
        (2, 1): "p^2*q",
    }.get(tuple(exps))


class TestResidueMasksAtScale:
    def test_matches_power_image(self):
        # Six seeded moduli of each shape, five in [10^4, 10^5) (the
        # fresh-moduli workload's range) and one in [10^5, 10^6), against
        # the image of x -> x^(2^k) over every x (or every unit x).  Level k
        # squares the members of level k - 1, since x^(2^k) = (x^(2^(k-1)))^2;
        # the maps run the loops in C, each `deque(..., maxlen=0)` drains one.
        rng = random.Random(8)
        moduli = []
        for top in [5] * 5 + [6]:
            todo = {"p", "pq", "pqr", "p^2*q", "2^e*q"}
            while todo:
                n = int(10 ** rng.uniform(top - 1, top))
                shape = _mask_shape(n)
                if shape in todo:
                    todo.remove(shape)
                    moduli.append(n)
        for n in moduli:
            for units in (True, False):
                xs = range(n)
                if units:
                    xs = compress(xs, map((1).__eq__, map(math.gcd, xs, repeat(n))))
                for k in range(6):
                    image = bytearray(n)
                    deque(map(image.__setitem__, xs, repeat(1)), maxlen=0)
                    assert power_residues(n, k, units) == image, (n, k, units)
                    xs = map(pow, compress(range(n), image), repeat(2), repeat(n))

    def test_semiprime_miss_caches_no_lower_level(self):
        p, q, k = 499, 1999, 3
        power_residues.cache_clear()
        power_residues(p * q, k, True)
        # (pq, 3), and at each prime its level-3 key beside the level-1 mask
        # that key shares, since nu_2(p - 1) = nu_2(q - 1) = 1 < 3.
        assert power_residues.cache_info().currsize == 5
        hits = power_residues.cache_info().hits
        power_residues(p, k, True)
        power_residues(q, k, True)
        assert power_residues.cache_info().hits == hits + 2

    def test_every_mask_digest(self):
        # Every mask for n < 3000, k <= 6 and both kinds, hashed in that
        # order, so a change of construction cannot change a single byte.
        digest = hashlib.sha256()
        for n in range(1, 3000):
            for k in range(7):
                for units in (True, False):
                    digest.update(power_residues(n, k, units))
        assert digest.hexdigest() == (
            "b1c005867a49fadb77919990b21b8b6bc4e0ff52744763b1700f763a3af92a40"
        )

    def test_odd_prime_builds_each_subgroup_once(self):
        # Levels above nu_2(p - 1) are the level-nu_2(p - 1) mask itself, and
        # the all-residues mask is the units mask with 0 added.
        for p in filter(is_prime, range(3, 3000)):
            v = valuation(p - 1, 2)
            for k in range(1, 9):
                for units in (True, False):
                    mask = power_residues(p, k, units)
                    assert mask is power_residues(p, min(k, v), units), (p, k)
                units_mask = power_residues(p, k, True)
                assert power_residues(p, k, False) == b"\x01" + units_mask[1:]


def _unit_power_images(p, top):
    """The byte masks of {x^(2^k) mod p : 0 < x < p} for k = 0..top, each
    level the squares of the members of the level below."""
    xs = range(1, p)
    for _ in range(top + 1):
        image = bytearray(p)
        deque(map(image.__setitem__, xs, repeat(1)), maxlen=0)
        yield bytes(image)
        xs = map(pow, compress(range(p), image), repeat(2), repeat(p))


# nu_2(p - 1) = 8, 12, 13, 16 and 18.
DEEP_PRIMES = (257, 12289, 40961, 65537, 786433)


class TestOddPrimeWalk:
    # Where -1 is a 2^k-th power (k < nu_2(p - 1)) only half the subgroup
    # is walked and the mask is mirrored; at k = nu_2(p - 1) the whole
    # subgroup, of odd order, is walked.

    def test_every_level_is_the_power_image(self):
        for p in [*filter(is_prime, range(3, 3000)), *DEEP_PRIMES]:
            v = valuation(p - 1, 2)
            for k, image in enumerate(_unit_power_images(p, v + 1)):
                assert power_residues(p, k, True) == image, (p, k)
                assert power_residues(p, k, False) == b"\x01" + image[1:], (p, k)

    def test_no_factorization_of_the_prime(self, monkeypatch):
        # An odd prime is told by is_prime, so a miss at k >= 1 factorizes
        # only p - 1, for its primitive root, and one at k = 0 nothing; a
        # composite is still factorized.
        primes, asked = (3, 5, 17, 97, *DEEP_PRIMES[:-1]), []

        def guarded(n):
            if n in primes:
                raise AssertionError(f"factorize({n}) at an odd prime")
            asked.append(n)
            return factorize(n)

        monkeypatch.setattr(residuo.symbols, "factorize", guarded)
        power_residues.cache_clear()
        for p in primes:
            for k in range(valuation(p - 1, 2) + 2):
                for units in (True, False):
                    assert power_residues(p, k, units)[1] == 1
        assert power_residues(15, 1, True)[4] == 1
        assert 15 in asked

    def test_cold_walk_memory_and_time(self):
        # Mask and bytes copy at once, 2n bytes; the mirror's slice copy
        # (n/2) is freed before the copy.  The full walk took about 26 ms
        # on a 2-vCPU Xeon; the bound below is that four times over, for
        # slow hosts, and the time measured is in the message.
        p = 786433
        residuo.symbols._primitive_root(p)
        power_residues.cache_clear()
        tracemalloc.start()
        try:
            power_residues(p, 1, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * p, peak
        times = []
        for _ in range(3):
            power_residues.cache_clear()
            start = time.perf_counter()
            power_residues(p, 1, True)
            times.append(time.perf_counter() - start)
        best_ms = min(times) * 1000
        assert best_ms < 4 * 26, f"cold walk at {p}: {best_ms:.1f} ms"


def _held_bytes():
    # Bytes of the distinct masks the cache holds, read from the cache's own
    # dict, the one keyed by argument tuples; a mask under two keys counts
    # once.
    cache = next(
        d
        for d in gc.get_referents(power_residues)
        if isinstance(d, dict) and all(type(key) is tuple for key in d)
    )
    return sum(len(mask) for mask in {id(m): m for m in cache.values()}.values())


class TestMaskBudget:
    def test_fresh_moduli_stream_stays_within_budget(self):
        # 200 moduli in [10^4, 10^5), as the fresh-moduli workload draws
        # them: together they build far more than the budget, so the cache
        # empties, yet never holds more than the budget after a call.
        rng = random.Random(16)
        power_residues.cache_clear()
        emptied, size = False, 0
        for i in range(200):
            n = rng.randrange(10**4, 10**5)
            for units in (True, False):
                power_residues(n, 1 + i % 4, units)
                assert _held_bytes() <= MASK_BUDGET, n
                emptied |= power_residues.cache_info().currsize < size
                size = power_residues.cache_info().currsize
        assert emptied

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.integers(1, 2 * 10**5),
                    st.sampled_from([ENUMERATION_LIMIT, 999983, 999999]),
                ),
                st.integers(0, 8),
                st.booleans(),
            ),
            max_size=12,
        )
    )
    def test_any_sequence_stays_within_budget(self, calls):
        # The budget is two masks at the enumeration limit.
        for n, k, units in calls:
            power_residues(n, k, units)
            assert _held_bytes() <= 2 * ENUMERATION_LIMIT, (n, k, units)

    def test_desk_scale_sweep_never_empties(self):
        # The desk-sweep workload's shape: in each band of 40 below 2000,
        # two primes and two odd semiprimes, queried at k = 1..4 on all
        # three oracles.  Every miss stays cached, so the misses equal the
        # distinct keys.
        moduli = []
        for lo in range(40, 2000, 40):
            band = range(lo + 1, lo + 40, 2)
            moduli += [n for n in band if is_prime(n)][:2]
            moduli += [n for n in band if factorize(n).odd_semiprime()][:2]
        oracles = (FactorOracle(), DefinitionOracle(), ZolotarevOracle())
        power_residues.cache_clear()
        for n in moduli:
            for k in range(1, 5):
                for oracle in oracles:
                    assert oracle.crs_query(1, n, k) == 1
        info = power_residues.cache_info()
        assert info.misses == info.currsize > 0
        assert _held_bytes() < MASK_BUDGET // 2

    def test_outside_clear_zeroes_the_count(self):
        # Three quarters of the budget twice over, with an outside clear
        # between: a count left at the first batch would empty the cache
        # during the second.
        batch = 15
        width = MASK_BUDGET * 3 // 4 // batch
        power_residues.cache_clear()
        for i in range(batch):
            power_residues(width + i, 0, False)
        power_residues.cache_clear()
        for i in range(batch):
            power_residues(width + batch + i, 0, False)
        info = power_residues.cache_info()
        assert info.misses == info.currsize == batch

    def test_wrapper_bound_over_the_name(self, monkeypatch):
        # A functools.wraps wrapper over residuo.symbols.power_residues, as
        # a tracer of misses binds one: misses, residue_set and an emptying
        # of the budget still reach the cache itself.
        real, keys = power_residues, []

        @functools.wraps(real)
        def recording(n, k, units_only):
            keys.append((n, k, units_only))
            return real(n, k, units_only)

        monkeypatch.setattr(residuo.symbols, "power_residues", recording)
        real.cache_clear()
        assert recording(10007, 1, True)[4] == 1
        assert residue_set(15, 1, True).members == (1, 4)
        # Three limit-sized masks pass the budget of two, so the cache
        # empties on the way.
        size = real.cache_info().currsize
        for n in range(ENUMERATION_LIMIT - 2, ENUMERATION_LIMIT + 1):
            recording(n, 0, False)
        assert real.cache_info().currsize < size + 3
        assert _held_bytes() <= MASK_BUDGET
        assert {(10007, 1, True), (15, 1, True)} <= set(keys)

    def test_mask_at_the_limit(self):
        # 10^6 = 2^6 * 5^6: the units' squares mod n, against the image of
        # x -> x^2 over every unit x.
        n = ENUMERATION_LIMIT
        power_residues.cache_clear()
        mask = power_residues(n, 1, True)
        xs = range(n)
        units = compress(xs, map((1).__eq__, map(math.gcd, xs, repeat(n))))
        squares = map(pow, units, repeat(2), repeat(n))
        image = bytearray(n)
        deque(map(image.__setitem__, squares, repeat(1)), maxlen=0)
        assert mask == image
        hits = power_residues.cache_info().hits
        assert power_residues(n, 1, True) is mask
        assert power_residues.cache_info().hits == hits + 1
        assert len(mask) <= _held_bytes() <= MASK_BUDGET
