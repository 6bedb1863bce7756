"""Every public callable that takes integers returns or raises a
ResiduoError, whatever the integers: 0, negatives and values around 2^64
included.  Only the sizes are kept small, so that no example runs long:
sieve, enumeration and trial-count sizes stay at most 10^4, moduli handed
to the reductions below 2^40, and numbers to factorize at most 2^64.  The
three-prime counterexample search takes any limit, since it stops at its
first hit.
The examples are derandomized: every run draws the same ones, so the suite
does not flake, and a failure replays as it was seen."""

from types import ModuleType

import pytest
from hypothesis import given, settings, strategies as st

import residuo
import residuo.symbols
from residuo import (
    DefinitionOracle,
    FactorOracle,
    PermutationTable,
    ZolotarevOracle,
)
from residuo.errors import (
    InvalidInput,
    InvalidModulus,
    NotAdmissibleModulus,
    NotAPermutation,
    NotClosedUnderAction,
    NotCoprime,
    ResiduoError,
    SearchSpaceTooLarge,
    digits,
)


def edgy(*wide):
    # Half the draws are -1, 0, 1, 2 or a small composite, where most edge
    # cases sit, so that two edge values often meet in one call; the rest
    # come from `wide`.
    return st.one_of(st.sampled_from([-1, 0, 1, 2, 4, 9, 15]), st.one_of(*wide))


SMALL = st.integers(-300, 300)
NEAR_2_64 = st.integers(2**64 - 300, 2**64 + 300)
ANY = edgy(SMALL, NEAR_2_64, NEAR_2_64.map(lambda x: -x), st.integers())
FACTORABLE = edgy(SMALL, NEAR_2_64, st.integers(max_value=2**64))
SIZE = edgy(st.integers(-10, 300), st.integers(max_value=10**4))
MODULUS = edgy(st.integers(-10, 3000), st.integers(max_value=2**40 - 1))
ORACLE = st.sampled_from([FactorOracle, DefinitionOracle, ZolotarevOracle]).map(
    lambda cls: cls()
)
FLAG = st.booleans()
INTS = st.lists(ANY, max_size=6)

# name -> (call, strategies of its arguments).  Structured arguments are
# built from integers inside the call, so that building them is checked too.
CALLS = {
    "candidate_prime_set": (residuo.candidate_prime_set, (MODULUS,)),
    "factorize": (residuo.factorize, (FACTORABLE,)),
    "find_tripleprime_counterexample": (
        residuo.find_tripleprime_counterexample,
        (ANY,),
    ),
    "is_prime": (residuo.is_prime, (ANY,)),
    "jacobi": (residuo.jacobi, (ANY, ANY)),
    "lemma_l4_check": (residuo.lemma_l4_check, (MODULUS, ANY, ORACLE)),
    "multiplication_permutation": (
        lambda a, m, k, units: residuo.multiplication_permutation(
            a, residuo.residue_set(m, k, units)
        ),
        (ANY, SIZE, ANY, FLAG),
    ),
    "permutation_sign": (
        lambda domain, image: residuo.permutation_sign(
            PermutationTable(tuple(domain), tuple(image))
        ),
        (INTS, INTS),
    ),
    "power_residues": (residuo.power_residues, (SIZE, ANY, FLAG)),
    "primes_upto": (residuo.primes_upto, (SIZE,)),
    "qrp_decide": (residuo.qrp_decide, (MODULUS, ANY, ORACLE)),
    "qrp_decide_c2": (residuo.qrp_decide_c2, (MODULUS, ANY, ORACLE)),
    "qrp_decide_permutation": (residuo.qrp_decide_permutation, (SIZE, ANY)),
    "recover_low_bits": (residuo.recover_low_bits, (MODULUS, ANY, ANY)),
    "residue_set": (residuo.residue_set, (SIZE, ANY, FLAG)),
    "restricted_sign": (residuo.restricted_sign, (ANY, SIZE, ANY, FLAG)),
    "semiprime_valuations": (residuo.semiprime_valuations, (MODULUS, ORACLE, ANY)),
    "symbol_composite": (
        lambda a, n, k: residuo.symbol_composite(a, residuo.factorize(n), k),
        (ANY, FACTORABLE, ANY),
    ),
    "symbol_definition": (
        lambda a, n, k: residuo.symbol_definition(a, residuo.factorize(n), k),
        (ANY, FACTORABLE, ANY),
    ),
    "symbol_prime_checked": (residuo.symbol_prime_checked, (ANY, ANY, ANY)),
    "symbol_prime_definition": (residuo.symbol_prime_definition, (ANY, SIZE, ANY)),
    "trial_division": (residuo.trial_division, (ANY, SIZE)),
    "two_squares_fermat": (
        lambda n: residuo.two_squares_fermat(residuo.factorize(n)),
        (MODULUS,),
    ),
    "two_squares_oracle": (
        lambda n, oracle, mode, trials, seed: residuo.two_squares_oracle(
            n, oracle, mode=mode, trials=trials, seed=seed
        ),
        (
            MODULUS,
            ORACLE,
            st.sampled_from(["deterministic", "probabilistic", "psychic"]),
            SIZE,
            ANY,
        ),
    ),
    "valuation": (residuo.valuation, (ANY, ANY)),
    "valuation_relation": (residuo.valuation_relation, (ANY, ANY, ANY)),
    "wedeniwski_bound": (residuo.wedeniwski_bound, (ANY,)),
    "zolotarev_prime": (residuo.zolotarev_prime, (ANY, SIZE, ANY)),
    "zolotarev_semiprime": (
        residuo.zolotarev_semiprime,
        (ANY, st.integers(max_value=100), st.integers(max_value=100), ANY),
    ),
    "zolotarev_symbol": (
        lambda a, n, k: residuo.zolotarev_symbol(a, residuo.factorize(n), k),
        (ANY, FACTORABLE, ANY),
    ),
    "crs_query": (
        lambda oracle, m, n, k: oracle.crs_query(m, n, k),
        (ORACLE, ANY, MODULUS, ANY),
    ),
    "factorization": (
        lambda oracle, n: oracle.factorization(n),
        (ORACLE, FACTORABLE),
    ),
}


def test_every_public_function_is_covered():
    # Classes are value types, errors and the oracles, whose two public
    # methods close the table.
    functions = {
        name
        for name in residuo.__all__
        if callable(getattr(residuo, name))
        and not isinstance(getattr(residuo, name), type)
    }
    assert functions | {"crs_query", "factorization"} == set(CALLS)


def test_star_import_binds_no_module():
    # `from residuo import *` must not rebind a caller's `oracle` or
    # `symbols` with a submodule.
    modules = [
        name
        for name in residuo.__all__
        if isinstance(getattr(residuo, name), ModuleType)
    ]
    assert modules == []


# Hand-built factor lists of int pairs, exponents at most 10^4: half are
# prime-valid, so that they reach the routes, and half are any int pairs.
PRIMES = st.sampled_from([2, 3, 5, 7, 13, 17, 2**61 - 1, 2**64 - 59])
FACTOR_LISTS = st.one_of(
    st.lists(
        st.tuples(PRIMES, st.integers(1, 10**4)),
        max_size=3,
        unique_by=lambda pair: pair[0],
    ).map(sorted),
    st.lists(st.tuples(ANY, edgy(st.integers(max_value=10**4))), max_size=4),
)


def _query_known(factors, a, k):
    # Each oracle in turn, as k varies, seeded with the factorization.
    fact = residuo.Factorization(factors)
    oracle = (FactorOracle, DefinitionOracle, ZolotarevOracle)[k % 3](known=[fact])
    return oracle.crs_query(a, fact.value, k)


# name -> call of a hand-built factor list and the integers it is queried at.
HAND_BUILT = {
    "Factorization": lambda factors, a, k: residuo.Factorization(factors),
    "known": lambda factors, a, k: FactorOracle(known=[factors]),
    "known_crs_query": _query_known,
    "symbol_composite": lambda factors, a, k: residuo.symbol_composite(
        a, residuo.Factorization(factors), k
    ),
    "symbol_definition": lambda factors, a, k: residuo.symbol_definition(
        a, residuo.Factorization(factors), k
    ),
    "zolotarev_symbol": lambda factors, a, k: residuo.zolotarev_symbol(
        a, residuo.Factorization(factors), k
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(factors=FACTOR_LISTS, a=ANY, k=edgy(st.integers(-10, 10)))
def test_hand_built_factorization_returns_or_raises_residuo_error(
    name, factors, a, k
):
    try:
        HAND_BUILT[name](factors, a, k)
    except ResiduoError:
        pass


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_returns_or_raises_residuo_error(name, data):
    call, strategies = CALLS[name]
    args = data.draw(st.tuples(*strategies))
    try:
        call(*args)
    except ResiduoError:
        pass


# An int Python refuses to print (past 4300 digits): 7^10000 has 8451.
BIG = 7**10000

# name -> (call, the refusal it must raise).  Each passes BIG, or a value
# built from it, to one refusal whose message names that value, so the
# message must name its size instead.  Refusals that would first run a
# power or a primality test at that size are left out.
BIG_REFUSALS = {
    "valuation_base": (lambda: residuo.valuation(5, -BIG), InvalidInput),
    "jacobi_even_n": (lambda: residuo.jacobi(1, 2 * BIG), InvalidModulus),
    "primes_upto": (lambda: residuo.primes_upto(BIG), SearchSpaceTooLarge),
    "trial_division": (lambda: residuo.trial_division(-BIG, 10), InvalidInput),
    "factorize": (lambda: residuo.factorize(-BIG), InvalidInput),
    "residue_set_n": (lambda: residuo.residue_set(-2 * BIG, 1, True), InvalidInput),
    "power_residues_k": (lambda: residuo.power_residues(5, -BIG, True), InvalidInput),
    "symbol_prime_definition_a": (
        lambda: residuo.symbol_prime_definition(5 * BIG, 5, 1),
        NotCoprime,
    ),
    "symbol_prime_checked_p": (
        lambda: residuo.symbol_prime_checked(1, -BIG, 1),
        InvalidInput,
    ),
    "symbol_prime_checked_a": (
        lambda: residuo.symbol_prime_checked(3 * BIG, 3, 1),
        NotCoprime,
    ),
    "symbol_prime_checked_k": (
        lambda: residuo.symbol_prime_checked(2, 5, -BIG),
        InvalidInput,
    ),
    "symbol_composite_a": (
        lambda: residuo.symbol_composite(3 * BIG, residuo.factorize(3), 2),
        NotCoprime,
    ),
    "symbol_composite_k": (
        lambda: residuo.symbol_composite(1, residuo.factorize(3), -BIG),
        InvalidInput,
    ),
    "symbol_definition_a": (
        lambda: residuo.symbol_definition(3 * BIG, residuo.factorize(3), 1),
        NotCoprime,
    ),
    # symbol_definition's own k >= 1 admissibility requirement, kept under
    # the case id it had while a separate require_admissible checked it.
    "require_admissible_k": (
        lambda: residuo.symbol_definition(1, residuo.factorize(5), -BIG),
        InvalidInput,
    ),
    "crs_query_k": (lambda: FactorOracle().crs_query(1, 3, -BIG), InvalidInput),
    "crs_query_n": (lambda: FactorOracle().crs_query(1, -BIG, 1), InvalidInput),
    "crs_query_m": (lambda: FactorOracle().crs_query(3 * BIG, 3, 1), NotCoprime),
    "wedeniwski_bound": (lambda: residuo.wedeniwski_bound(-BIG), InvalidInput),
    "two_squares_oracle_n": (
        lambda: residuo.two_squares_oracle(-BIG, FactorOracle()),
        InvalidInput,
    ),
    "two_squares_oracle_trials": (
        lambda: residuo.two_squares_oracle(5, FactorOracle(), "probabilistic", -BIG),
        InvalidInput,
    ),
    "recover_low_bits_n": (lambda: residuo.recover_low_bits(-BIG, 1, 1), InvalidInput),
    "recover_low_bits_v_small": (
        lambda: residuo.recover_low_bits(15, -BIG, 1),
        InvalidInput,
    ),
    "recover_low_bits_v_large": (
        lambda: residuo.recover_low_bits(15, 1, BIG),
        InvalidInput,
    ),
    "qrp_decide_even_n": (
        lambda: residuo.qrp_decide(2 * BIG, 1, FactorOracle()),
        InvalidInput,
    ),
    "qrp_decide_jacobi": (
        # (7|15) = -1.
        lambda: residuo.qrp_decide(15, 15 * BIG + 7, FactorOracle()),
        InvalidInput,
    ),
    "qrp_decide_not_semiprime": (
        # 3^10000 has 4772 digits, and its factorization is known.
        lambda: residuo.qrp_decide(
            3**10000, 1, FactorOracle(known=[residuo.Factorization(((3, 10000),))])
        ),
        InvalidInput,
    ),
    "qrp_decide_c2_n": (
        lambda: residuo.qrp_decide_c2(BIG, 1, FactorOracle()),
        InvalidInput,
    ),
    "permutation_sign_image": (
        lambda: residuo.permutation_sign(PermutationTable((1, 2), (1, BIG))),
        NotAPermutation,
    ),
    "multiplication_permutation_a": (
        lambda: residuo.multiplication_permutation(
            3 * BIG, residuo.residue_set(3, 1, True)
        ),
        NotCoprime,
    ),
    "multiplication_permutation_closure": (
        # 3 is no square mod 7.
        lambda: residuo.multiplication_permutation(
            7 * BIG + 3, residuo.residue_set(7, 1, True)
        ),
        NotClosedUnderAction,
    ),
    "restricted_sign_a": (
        lambda: residuo.restricted_sign(3 * BIG, 3, 1, True),
        NotCoprime,
    ),
    "zolotarev_symbol_a": (
        lambda: residuo.zolotarev_symbol(3 * BIG, residuo.factorize(3), 1),
        NotCoprime,
    ),
    "zolotarev_symbol_k": (
        lambda: residuo.zolotarev_symbol(1, residuo.factorize(5), -BIG),
        InvalidInput,
    ),
    "zolotarev_prime_p": (lambda: residuo.zolotarev_prime(1, -BIG, 1), InvalidInput),
    "zolotarev_prime_composite": (
        lambda: residuo.zolotarev_prime(1, BIG, 1),
        NotAdmissibleModulus,
    ),
    "zolotarev_semiprime_p": (
        lambda: residuo.zolotarev_semiprime(1, BIG, 5, 1),
        NotAdmissibleModulus,
    ),
}


@pytest.mark.parametrize("name", sorted(BIG_REFUSALS))
def test_refusal_names_the_size_of_an_int_too_long_to_print(name):
    call, error = BIG_REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert "-bit integer>" in str(info.value)


def test_a_size_keeps_its_sign():
    # "n must be >= 1, got ..." must not read as a large positive n.
    assert digits(BIG) == "<28074-bit integer>"
    assert digits(-BIG) == "-<28074-bit integer>"
    assert digits(-12) == "-12"
