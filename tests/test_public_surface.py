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
from residuo import (
    DefinitionOracle,
    FactorOracle,
    PermutationTable,
    ZolotarevOracle,
)
from residuo.errors import ResiduoError


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
