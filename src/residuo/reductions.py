"""Oracle reductions: sum-of-two-squares solvability, 2-adic valuations and
low bits of semiprime factors, and quadratic residuosity, each phrased as a
handful of CRS(k) queries against an injected oracle.

The semiprime reductions hold only for N = pq with p, q distinct odd
primes, and Theorem T4 also needs nu_2(p-1) != nu_2(q-1).  Each reduction
refuses an N outside its promise with `InvalidInput` before its first
query.  What costs nothing is refused first, before N is factorized: N < 3,
even N, and for QRP an a whose Jacobi symbol (a|N) is not +1.  The rest of
the shape is read from `oracle.factorization(N)`, which counts no query,
and decides only whether to refuse; every answer still comes from oracle
queries, C3's from a Zolotarev oracle it builds itself.

Also the supporting utilities: the (ERH-conditional) least-nonresidue bound,
trial-division preprocessing, and the valuation relation between the factors
and the modulus.
"""

import math
import random
from itertools import count
from typing import NamedTuple

from .arithmetic import jacobi, primes_upto, trial_division, valuation
from .errors import InvalidInput, SearchExhausted
from .oracle import ZolotarevOracle
from .symbols import power_residues

CANDIDATE_FLOOR = 50
DEFAULT_TRIAL_CAP = 128


class TwoSquaresVerdict(NamedTuple):
    """Whether N = X^2 + Y^2 is solvable, with an optional witness pair in
    the solvable case or a certifying prime (= 3 mod 4 at odd exponent) in
    the unsolvable factorization path."""

    solvable: bool
    method: str
    certificate: int = None
    witness: tuple = None

    def to_json(self):
        return {
            "solvable": self.solvable,
            "method": self.method,
            "certificate": None if self.certificate is None else str(self.certificate),
            "witness": None if self.witness is None else [str(x) for x in self.witness],
        }


class ValuationResult(NamedTuple):
    """Output of the valuation algorithm on N = pq: the two 2-adic
    valuations of p-1 and q-1 and both factors mod 2^m, m = v_large + 1."""

    v_small: int
    v_large: int
    m: int
    p_bits: int
    q_bits: int
    stats: object = None

    def to_json(self):
        return {
            "v_small": self.v_small,
            "v_large": self.v_large,
            "m": self.m,
            "p_bits": str(self.p_bits),
            "q_bits": str(self.q_bits),
            "oracle_stats": None if self.stats is None else self.stats.to_json(),
        }


class QrpVerdict(NamedTuple):
    is_residue: bool
    method: str

    def to_json(self):
        return {"is_residue": self.is_residue, "method": self.method}


class ValuationRelation(NamedTuple):
    """The valuations of p-1, q-1 and pq-1 at base b, classified by which
    clause of the valuation lemma applies."""

    v_p: int
    v_q: int
    v_N: int
    relation: str


def wedeniwski_bound(N):
    """ERH bound on the least quadratic nonresidue:
    1.5*(ln N)^2 - 8.8*ln N + 13, natural logarithm, double precision."""
    if N < 3:
        raise InvalidInput(f"N must be >= 3, got {N}")
    log_n = math.log(N)
    return 1.5 * log_n * log_n - 8.8 * log_n + 13


def candidate_prime_set(N):
    """All primes strictly below max(wedeniwski_bound(N), 50), ascending.

    The floor of 50 keeps the set usable at desk scale, where the literal
    bound dips below the least nonresidue; it decides only up to N = 6011,
    where the bound is under 50, so the set grows with N alone.
    """
    bound = max(wedeniwski_bound(N) if N >= 3 else 0.0, CANDIDATE_FLOOR)
    return primes_upto(math.ceil(bound) - 1)


def _two_squares_witness(N):
    # Smallest X with N - X^2 a perfect square; None if N too large to scan.
    if N > 10**12:
        return None
    x = 0
    while x * x * 2 <= N:
        y2 = N - x * x
        y = math.isqrt(y2)
        if y * y == y2:
            return (x, y)
        x += 1
    return None


def two_squares_fermat(n_fact):
    """Ground-truth verdict from the factorization: solvable iff every
    prime = 3 mod 4 occurs to an even power."""
    for p, e in n_fact.factors:
        if p % 4 == 3 and e % 2 == 1:
            return TwoSquaresVerdict(False, "fermat_factorization", certificate=p)
    witness = _two_squares_witness(n_fact.value)
    return TwoSquaresVerdict(True, "fermat_factorization", witness=witness)


def two_squares_oracle(
    N, oracle, mode="deterministic", trials=DEFAULT_TRIAL_CAP, seed=0
):
    """Decide solvability of N = X^2 + Y^2 with CRS queries only.

    Preprocessing trial-divides N by every candidate prime; a factor
    = 3 mod 4 found at odd multiplicity settles the question immediately.
    On the remaining cofactor the criterion (a|N')_2 = (a^2|N')_4 is tested
    for every candidate prime (deterministic) or for `trials` random units
    drawn from `seed`, 0 by default (probabilistic); any inequality
    certifies unsolvability.
    """
    if N < 1:
        raise InvalidInput(f"N must be >= 1, got {N}")
    if mode not in ("deterministic", "probabilistic"):
        raise InvalidInput(f"unknown mode {mode!r}")
    if mode == "probabilistic" and trials < 1:
        raise InvalidInput(f"probabilistic mode needs trials >= 1, got {trials}")
    method = "oracle_" + mode
    candidates = candidate_prime_set(N)
    found, rest = trial_division(N, max(candidates, default=1))
    for p, e in found:
        if p % 4 == 3 and e % 2 == 1:
            return TwoSquaresVerdict(False, method, certificate=p)
    if rest == 1:
        return TwoSquaresVerdict(True, method)
    if mode == "deterministic":
        test_values = candidates
    else:
        test_values = _coprime_draws(rest, trials, _seeded_draws(seed, 1, rest))
    for a in test_values:
        if not lemma_l4_check(rest, a, oracle):
            return TwoSquaresVerdict(False, method)
    return TwoSquaresVerdict(True, method)


def _coprime_draws(N, size, draws):
    # The first `size` of `draws` coprime to N.  range, unlike islice,
    # takes any int: none below 1, and sizes past sys.maxsize.
    coprime = (a for a in draws if math.gcd(a, N) == 1)
    return (a for _, a in zip(range(size), coprime))


def _seeded_draws(seed, lo, hi):
    # Endless randrange(lo, hi) draws from a generator seeded with `seed`.
    rng = random.Random(seed)
    return iter(lambda: rng.randrange(lo, hi), None)


def _first_level(x, N, levels, oracle):
    # The first level i in `levels` with (x^(2^(i-1))|N)_{2^i} = +1, or None.
    return next(
        (i for i in levels if oracle.crs_query(pow(x, 1 << (i - 1), N), N, i) == 1),
        None,
    )


def semiprime_valuations(N, oracle, trial_cap=DEFAULT_TRIAL_CAP):
    """Compute {nu_2(p-1), nu_2(q-1)} for an odd semiprime N = pq with
    CRS queries only, then recover both factors mod 2^(v_large + 1).

    Step 1: v = nu_2(N-1).  Step 2: find a with (a|N)_2 = -1 among the
    first `trial_cap` integers from 2 up that are coprime to N.  Step 3: scan
    s_i = (a^(2^(i-1))|N)_{2^i} for i = 1..v; the first +1 at position j
    means both valuations equal j-1.  Otherwise v_small = v and Steps 4/5
    locate v_large with a second witness b.

    Any N that is not a product of two distinct odd primes is refused with
    `InvalidInput` before any query: N < 3 and even N at once, the rest as
    read from `oracle.factorization(N)`.
    """
    _odd_semiprime(N, oracle.factorization)
    start = oracle.stats.snapshot()
    v = valuation(N - 1, 2)
    for a in _coprime_draws(N, trial_cap, count(2)):
        if jacobi(a, N) == -1:
            break
    else:
        raise SearchExhausted(
            f"no quadratic nonresidue found within {trial_cap} trials"
        )
    j = _first_level(a, N, range(1, v + 1), oracle)
    if j is not None:
        v_small = v_large = j - 1
    else:
        v_small = v
        for b in _coprime_draws(N, trial_cap, count(2)):
            if oracle.crs_query(pow(b, 1 << v, N), N, v + 1) == -1:
                break
        else:
            raise SearchExhausted(
                f"no level-{v + 1} witness found within {trial_cap} trials"
            )
        j = _first_level(b, N, range(v + 2, N.bit_length() + 3), oracle)
        if j is None:
            raise SearchExhausted("valuation scan exceeded log N levels")
        v_large = j - 1
    p_bits, q_bits = recover_low_bits(N, v_small, v_large)
    return ValuationResult(
        v_small,
        v_large,
        v_large + 1,
        p_bits,
        q_bits,
        stats=oracle.stats.since(start),
    )


def recover_low_bits(N, v_small, v_large):
    """Low bits of the factors of odd N = pq from the two valuations:
    the factor with the larger valuation is 1 + 2^v_large mod 2^m for
    m = v_large + 1, and the other follows from N by inversion mod 2^m."""
    _require_odd(N)
    if v_small > v_large or v_small < 1:
        raise InvalidInput(
            f"need 1 <= v_small <= v_large, got {v_small}, {v_large}"
        )
    if v_large >= N.bit_length():
        # nu_2(q-1) < log2 q <= log2 N for every factor q of N.
        raise InvalidInput(f"v_large = {v_large} is too large for N = {N}")
    m = v_large + 1
    modulus = 1 << m
    q_bits = (1 + (1 << v_large)) % modulus
    if v_small == v_large:
        return q_bits, q_bits
    p_bits = N * pow(q_bits, -1, modulus) % modulus
    return p_bits, q_bits


def qrp_decide(N, a, oracle):
    """Squareness of a mod N (semiprime with distinct factor valuations)
    by one CRS query at level nu_2(N-1) + 1.  N < 3, even N and a Jacobi
    symbol (a|N) != +1 are refused before N is factorized; Theorem T4's
    promise is then checked on `oracle.factorization(N)` before the query."""
    p, q = _check_qrp_input(N, a, oracle.factorization)
    if valuation(p - 1, 2) == valuation(q - 1, 2):
        raise InvalidInput(
            f"Theorem T4 needs the factors of N = {N} to have distinct "
            "2-adic valuations of p-1 and q-1"
        )
    v = valuation(N - 1, 2)
    s = oracle.crs_query(pow(a, 1 << v, N), N, v + 1)
    return QrpVerdict(s == 1, "theorem_t4")


def qrp_decide_c2(N, a, oracle):
    """Squareness of a mod N for N = 3 mod 4 by one CRS query at level 2."""
    if N % 4 != 3:
        raise InvalidInput(f"N must be 3 mod 4, got {N}")
    _check_qrp_input(N, a, oracle.factorization)
    s = oracle.crs_query(a * a % N, N, 2)
    return QrpVerdict(s == 1, "corollary_c2")


def qrp_decide_permutation(N, a):
    """Squareness of a mod N (N = 3 mod 4) as Corollary C2 asked of a fresh
    `ZolotarevOracle`: (a^2|N)_4, the sign of a^2 on the unit squares mod N,
    with C2's refusals and the oracle's enumeration limit."""
    return QrpVerdict(qrp_decide_c2(N, a, ZolotarevOracle()).is_residue, "corollary_c3")


def qrp_bruteforce(N, a):
    """Exhaustive squareness test; the independent check for the suite."""
    return QrpVerdict(power_residues(N, 1, True)[a % N] == 1, "bruteforce")


def _require_odd(N):
    if N < 3 or N % 2 == 0:
        raise InvalidInput(f"N must be odd and >= 3, got {N}")


def _odd_semiprime(N, factorization):
    # (p, q) from `factorization(N)`, or the refusal every semiprime
    # reduction gives outside its promise; an N that is even or below 3 is
    # refused before anything is factorized.
    _require_odd(N)
    pq = factorization(N).odd_semiprime()
    if pq is None:
        raise InvalidInput(f"N must be an odd semiprime, got {N}")
    return pq


def _check_qrp_input(N, a, factorization):
    # The Jacobi symbol costs next to nothing, so it is read before N is
    # factorized.
    _require_odd(N)
    if jacobi(a % N, N) != 1:
        raise InvalidInput(f"Jacobi symbol ({a}|{N}) must be +1")
    return _odd_semiprime(N, factorization)


def valuation_relation(b, p, q):
    """Valuations of p-1, q-1 and pq-1 at base b, classified: with
    v = min(v_p, v_q), relation is strict_equal_case when v_p != v_q
    (then v = v_N) and less_than_case when v_p = v_q (then v <= v_N)."""
    if p == q:
        raise InvalidInput("p and q must be distinct")
    v_p = valuation(p - 1, b)
    v_q = valuation(q - 1, b)
    v_n = valuation(p * q - 1, b)
    relation = "strict_equal_case" if v_p != v_q else "less_than_case"
    return ValuationRelation(v_p, v_q, v_n, relation)


def lemma_l4_check(N, a, oracle):
    """True iff (a|N)_2 = (a^2|N)_4; a necessary condition for N being a
    sum of two squares."""
    return oracle.crs_query(a, N, 1) == oracle.crs_query(a * a, N, 2)
