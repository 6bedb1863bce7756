"""Rational 2^k-th power residue symbols, generalized Zolotarev permutation
signs, and oracle reductions (two-squares solvability, semiprime factor
low bits, quadratic residuosity)."""

__version__ = "0.1.0"

from .arithmetic import (
    Factorization,
    factorize,
    is_prime,
    jacobi,
    primes_upto,
    trial_division,
    valuation,
)
from .errors import ResiduoError
from .oracle import (
    CrsOracle,
    DefinitionOracle,
    FactorOracle,
    OracleStats,
    ZolotarevOracle,
)
from .reductions import (
    QrpVerdict,
    TwoSquaresVerdict,
    ValuationResult,
    candidate_prime_set,
    lemma_l4_check,
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
from .symbols import (
    ResidueClassSet,
    power_residues,
    residue_set,
    symbol_composite,
    symbol_definition,
    symbol_prime_checked,
    symbol_prime_definition,
)
from .zolotarev import (
    PermutationTable,
    find_tripleprime_counterexample,
    multiplication_permutation,
    permutation_sign,
    product_permutation_sign,
    restricted_sign,
    zolotarev_prime,
    zolotarev_semiprime,
    zolotarev_symbol,
)

__all__ = [name for name in dir() if not name.startswith("_")]
