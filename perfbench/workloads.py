"""Seeded workload inputs and their expected answers.

Nothing here imports residuo.  The generator picks every factor itself, so
each expected answer comes from arithmetic the code under test does not
share: Euler powers at known primes, Legendre symbols at known primes,
Fermat's two-squares criterion, valuations read off p - 1, and direct
enumeration for residue sets.

Every workload draws from its own `random.Random(f"{name}:{seed}")`, so the
same seed gives the same inputs on every machine and Python build.
"""

import math
import random
from dataclasses import dataclass

# Miller-Rabin with these bases is exact below 3.18e23, far above 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

SELFTEST_SUITES = (
    "euler", "stabilization", "t3", "t5", "jacobi", "counterexample", "l2",
    "a1", "qrp", "two_squares", "l4", "agreement", "probabilistic",
)


@dataclass(frozen=True)
class Inputs:
    """Op inputs and expected answers, split into batches.

    Each batch runs in one fresh process.  With `cycle` set, one process
    repeats its batch until the run ends; otherwise every batch gets a new
    process and the batches are taken in turn.
    """

    batches: list
    expected: list
    cycle: bool


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    tail: int
    trace_ops: int
    in_process: bool = True


def is_prime(n):
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def nu2(n):
    """2-adic valuation of n > 0."""
    return (n & -n).bit_length() - 1


def prime_factors(n):
    """Prime factors of a desk-scale n with multiplicity, ascending."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def random_prime(rng, bits):
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(n):
            return n


def prime_with_valuation(rng, bits, v):
    """A `bits`-bit prime p with nu_2(p - 1) = v, or None after 64 tries."""
    lo, hi = 1 << (bits - 1 - v), 1 << (bits - v)
    for _ in range(64):
        p = 1 + ((rng.randrange(lo, hi) | 1) << v)
        if is_prime(p):
            return p
    return None


def random_semiprime(rng, bits):
    """Distinct primes p < q whose product has about `bits` bits."""
    while True:
        p, q = random_prime(rng, bits // 2), random_prime(rng, bits - bits // 2)
        if p != q:
            return min(p, q), max(p, q)


def deep_semiprime(rng, bits):
    """Primes p, q with distinct valuations nu_2(p-1), nu_2(q-1), each
    between 6 and the factor's bit length minus 6."""
    small, large = bits // 2, bits - bits // 2
    while True:
        vp, vq = rng.sample(range(6, small - 5), 2)
        p = prime_with_valuation(rng, small, vp)
        q = prime_with_valuation(rng, large, vq)
        if p and q:
            return p, q


def admissible_modulus(rng, lo, hi, primes=None):
    """An odd n in [lo, hi) that is a prime or a product of two distinct
    odd primes, with its prime factors; `primes` = 1 or 2 fixes which."""
    while True:
        n = rng.randrange(lo, hi) | 1
        f = prime_factors(n)
        if n < hi and len(set(f)) == len(f) == (primes or len(f)) and len(f) <= 2:
            return n, f


def admissible_query(rng, n, k):
    """A uniformly random m whose level-(k-1) symbol is +1 at every prime
    of n: the 2^(k-1)-th power of a random unit."""
    while True:
        x = rng.randrange(1, n)
        if math.gcd(x, n) == 1:
            return pow(x, 1 << (k - 1), n)


def symbol(m, primes, k):
    """(m|n)_{2^k} for squarefree n with the given primes, by the Euler
    power at each prime; m must be admissible."""
    s = 1
    for p in primes:
        r = pow(m, (p - 1) // math.gcd(1 << k, p - 1), p)
        if r not in (1, p - 1):
            raise ValueError(f"query ({m}|{p}) at level {k} is not admissible")
        s *= 1 if r == 1 else -1
    return s


def jacobi_plus_one(rng, p, q, residue):
    """A seeded a with (a|p) = (a|q) = +1 if `residue`, both -1 if not."""
    target = (1, 1) if residue else (p - 1, q - 1)
    while True:
        a = rng.randrange(2, p * q - 1)
        if (pow(a, (p - 1) // 2, p), pow(a, (q - 1) // 2, q)) == target:
            return a


def low_bits(p, q):
    """Expected (v_small, v_large, p_bits, q_bits): q_bits belongs to the
    factor with the larger valuation, both taken mod 2^(v_large + 1)."""
    if nu2(p - 1) > nu2(q - 1):
        p, q = q, p
    mod = 1 << (nu2(q - 1) + 1)
    return [nu2(p - 1), nu2(q - 1), p % mod, q % mod]


def _desk_sweep(seed):
    rng = random.Random(f"desk-sweep:{seed}")
    # Two primes and two semiprimes in each band of 40 up to the
    # criterion-11 bound, so every seed spreads its work over the same
    # sizes and shapes.
    moduli = []
    for lo in range(40, 2000, 40):
        for shape in (1, 1, 2, 2):
            while True:
                n, f = admissible_modulus(rng, lo, lo + 40, shape)
                if n not in (m for m, _ in moduli):
                    break
            moduli.append((n, f))
    # Modulus by modulus, as criterion 11 sweeps: the queries of one n run
    # back to back on its hot tables.
    items, expected = [], []
    for n, primes in sorted(moduli):
        for k in range(1, 5):
            for _ in range(10):
                m = admissible_query(rng, n, k)
                s = symbol(m, primes, k)
                items.append([m, n, k])
                expected.append([s, s, s])
    return Inputs([items], [expected], cycle=True)


FRESH_BATCH = 48


def _fresh_moduli(seed):
    rng = random.Random(f"fresh-moduli:{seed}")
    lo, width = 10**4, (10**5 - 10**4) // FRESH_BATCH
    batches, expected = [], []
    for b in range(16):
        # One modulus per band of the decade, primes and semiprimes in turn,
        # so each process holds about the same total of enumerated members
        # whatever the seed.
        rows = []
        for j in range(FRESH_BATCH):
            band = lo + j * width
            n, primes = admissible_modulus(rng, band, band + width, 1 + j % 2)
            k = 1 + (j + b) % 4
            m = admissible_query(rng, n, k)
            s = symbol(m, primes, k)
            rows.append(([m, n, k], [s, s, s]))
        rng.shuffle(rows)
        batches.append([r[0] for r in rows])
        expected.append([r[1] for r in rows])
    return Inputs(batches, expected, cycle=False)


def _semiprime_reductions(seed):
    rng = random.Random(f"semiprime-reductions:{seed}")
    items, expected = [], []
    # Enough N that a run rarely meets one twice: a few slow factorizations
    # would otherwise set the tail.
    for i in range(1500):
        bits = 40 + (i // 2) % 25
        p, q = (random_semiprime if i % 2 == 0 else deep_semiprime)(rng, bits)
        n = p * q
        residue = rng.random() < 0.5
        a = jacobi_plus_one(rng, p, q, residue)
        items.append([n, a, "val"])
        expected.append(low_bits(p, q))
        if nu2(p - 1) != nu2(q - 1):
            items.append([n, a, "t4"])
            expected.append(residue)
        if n % 4 == 3:
            items.append([n, a, "c2"])
            expected.append(residue)
        items.append([n, a, "ts"])
        expected.append(p % 4 == 1 and q % 4 == 1)
    return Inputs([items], [expected], cycle=True)


CLI_KINDS = ("symbol", "subgroup", "two-squares", "semiprime-bits", "qrp", "selftest")


def _cli_command(rng, kind, r):
    """One CLI command (the argv after `-m residuo.cli`) and the fields its
    result must contain."""
    if kind == "symbol":
        method = ("euler", "factor", "definition", "zolotarev")[r % 4]
        n, primes = admissible_modulus(rng, 40, 2000, 1 if method == "euler" else None)
        k = rng.randrange(1, 5)
        m = admissible_query(rng, n, k)
        argv = ["symbol", "--a", m, "--n", n, "--k", k, "--method", method]
        return argv, {"symbol": symbol(m, primes, k)}
    if kind == "subgroup":
        n, k, units = rng.randrange(2, 400), rng.randrange(0, 5), rng.random() < 0.5
        members = sorted({pow(x, 1 << k, n) for x in range(n) if not units or math.gcd(x, n) == 1})
        argv = ["subgroup", "--n", n, "--k", k] + (["--units"] if units else [])
        return argv, {"modulus": str(n), "k": k, "units_only": units,
                      "members": [str(x) for x in members]}
    if kind == "two-squares":
        p, q = random_semiprime(rng, rng.randrange(40, 57))
        return ["two-squares", "--n", p * q], {"solvable": p % 4 == 1 and q % 4 == 1}
    if kind == "semiprime-bits":
        p, q = (random_semiprime if r % 2 else deep_semiprime)(rng, rng.randrange(40, 57))
        vs, vl, pb, qb = low_bits(p, q)
        return ["semiprime-bits", "--n", p * q], {
            "v_small": vs, "v_large": vl, "m": vl + 1, "p_bits": str(pb), "q_bits": str(qb)}
    if kind == "qrp":
        method = ("t4", "c2", "c3")[r % 3]
        while True:
            if method == "t4":
                p, q = deep_semiprime(rng, rng.randrange(40, 57))
            elif method == "c2":
                p, q = random_semiprime(rng, rng.randrange(40, 57))
            else:
                # The permutation route enumerates the squares mod N.
                p, q = random_semiprime(rng, rng.randrange(8, 13))
            if method == "t4" or p * q % 4 == 3:
                break
        residue = rng.random() < 0.5
        a = jacobi_plus_one(rng, p, q, residue)
        return ["qrp", "--n", p * q, "--a", a, "--method", method], {"is_residue": residue}
    suites = rng.sample(SELFTEST_SUITES, 2)
    argv = ["selftest", "--max-n", rng.randrange(30, 81), "--max-k", rng.randrange(2, 4),
            "--suites", ",".join(suites)]
    return argv, {"suites": [{"name": s, "passed": True} for s in suites]}


def _cli_cold(seed):
    rng = random.Random(f"cli-cold:{seed}")
    items, expected = [], []
    # Kinds rotate, so any prefix of the list runs an even mix.
    for i in range(120):
        argv, want = _cli_command(rng, CLI_KINDS[i % len(CLI_KINDS)], i // len(CLI_KINDS))
        items.append([str(x) for x in argv] + ["--record"])
        expected.append(want)
    return Inputs([items], [expected], cycle=True)


def matches(actual, expected):
    """True when `actual` holds every field of `expected`: dicts match on
    the expected keys, lists element by element, anything else by ==."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and matches(actual[k], v) for k, v in expected.items())
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(matches(a, e) for a, e in zip(actual, expected)))
    return type(actual) is type(expected) and actual == expected


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-sweep", _desk_sweep, tail=99, trace_ops=24000),
        Workload("fresh-moduli", _fresh_moduli, tail=90, trace_ops=FRESH_BATCH),
        Workload("semiprime-reductions", _semiprime_reductions, tail=99, trace_ops=200),
        Workload("cli-cold", _cli_cold, tail=90, trace_ops=36, in_process=False),
    )
}
