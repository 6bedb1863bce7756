"""Command-line front door.

Subcommands: symbol, subgroup, two-squares, semiprime-bits, qrp, selftest.
Results are printed as JSON on stdout (the result object by default, the
full run record with --record); diagnostics go to stderr.  Exit codes:
0 success, 1 error, 2 precondition violation.

The default seed comes from the RESIDUO_SEED environment variable; the
--seed flag overrides it.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from .arithmetic import is_prime
from .errors import InvalidInput, PreconditionViolated, ResiduoError
from .oracle import DefinitionOracle, FactorOracle, ZolotarevOracle
from .reductions import (
    qrp_decide,
    qrp_decide_c2,
    qrp_decide_permutation,
    semiprime_valuations,
    two_squares_oracle,
)
from .selftest import ALL_SUITES, run_suites
from .symbols import residue_set
from . import __version__

SEED_ENV_VAR = "RESIDUO_SEED"

_ORACLES = {
    "factor": FactorOracle,
    "definition": DefinitionOracle,
    "zolotarev": ZolotarevOracle,
}


@dataclass
class RunRecord:
    command: str
    inputs: dict
    result: object
    seed: int = None
    oracle_stats: object = None
    elapsed_ms: int = 0

    def to_json(self):
        return {
            "command": self.command,
            "inputs": self.inputs,
            "result": self.result,
            "seed": self.seed,
            "oracle_stats": None
            if self.oracle_stats is None
            else self.oracle_stats.to_json(),
            "elapsed_ms": self.elapsed_ms,
        }


def _effective_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InvalidInput(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _cmd_symbol(args):
    # Euler is the factor oracle, whose Euler criterion at a prime modulus
    # is exactly `symbol_prime_checked`.
    if args.method == "euler" and not is_prime(args.n):
        raise InvalidInput("--method euler requires a prime modulus")
    oracle = _ORACLES["factor" if args.method == "euler" else args.method]()
    return {"symbol": oracle.crs_query(args.a, args.n, args.k)}, oracle


def _cmd_subgroup(args):
    return residue_set(args.n, args.k, args.units).to_json(), None


def _cmd_two_squares(args):
    oracle = _ORACLES[args.oracle]()
    verdict = two_squares_oracle(
        args.n,
        oracle,
        mode=args.mode,
        trials=args.trials,
        floor=args.floor,
        seed=_effective_seed(args),
    )
    return verdict.to_json(), oracle


def _cmd_semiprime_bits(args):
    oracle = _ORACLES[args.oracle]()
    result = semiprime_valuations(
        args.n,
        oracle,
        search=args.search,
        trial_cap=args.trial_cap,
        seed=_effective_seed(args),
    )
    return result.to_json(), oracle


def _cmd_qrp(args):
    oracle = None
    if args.method == "t4":
        oracle = _ORACLES[args.oracle]()
        verdict = qrp_decide(args.n, args.a, oracle)
    elif args.method == "c2":
        oracle = _ORACLES[args.oracle]()
        verdict = qrp_decide_c2(args.n, args.a, oracle)
    else:
        verdict = qrp_decide_permutation(args.n, args.a)
    return verdict.to_json(), oracle


def _cmd_selftest(args):
    names = args.suites.split(",") if args.suites else list(ALL_SUITES)
    reports = run_suites(names, args.max_n, args.max_k)
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        line = f"{report.name}: {status} ({report.cases} cases)"
        if report.failures:
            line += f", first failure: {report.failures[0]}"
        print(line, file=sys.stderr)
    result = {"suites": [r.to_json() for r in reports]}
    if any(not r.passed for r in reports):
        raise _SelftestFailure(result)
    return result, None


class _SelftestFailure(ResiduoError):
    def __init__(self, result):
        super().__init__("one or more selftest suites failed")
        self.result = result


def _natural(text):
    # argparse names a ValueError by the converter's __name__; say it plainly.
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"invalid nonnegative integer value: {text!r}"
        )
    return value


class _Parser(argparse.ArgumentParser):
    # A usage error is bad input: exit 1 with `error: ...`, not argparse's 2,
    # which this CLI reserves for a precondition violation.
    def error(self, message):
        raise InvalidInput(message)


def build_parser():
    parser = _Parser(
        prog="residuo",
        description="Rational 2^k-th power residue symbols, Zolotarev "
        "permutation signs, and CRS-oracle reductions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--record", action="store_true", help="print the full run record")
        return p

    p = add("symbol", _cmd_symbol, help="evaluate (a|n)_{2^k}")
    p.add_argument("--a", type=_natural, required=True)
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--k", type=_natural, required=True)
    p.add_argument(
        "--method",
        choices=("euler", "definition", "factor", "zolotarev"),
        default="factor",
    )

    p = add("subgroup", _cmd_subgroup, help="enumerate 2^k-th power residues mod n")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--k", type=_natural, required=True)
    p.add_argument("--units", action="store_true")

    p = add("two-squares", _cmd_two_squares, help="decide N = X^2 + Y^2 via CRS queries")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument(
        "--mode", choices=("deterministic", "probabilistic"), default="deterministic"
    )
    p.add_argument("--trials", type=_natural, default=128)
    p.add_argument("--floor", type=_natural, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--oracle", choices=tuple(_ORACLES), default="factor")

    p = add(
        "semiprime-bits",
        _cmd_semiprime_bits,
        help="2-adic valuations and low bits of the factors of a semiprime",
    )
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument(
        "--search",
        choices=("deterministic_enum", "seeded_random"),
        default="deterministic_enum",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trial-cap", type=_natural, default=128)
    p.add_argument("--oracle", choices=tuple(_ORACLES), default="factor")

    p = add("qrp", _cmd_qrp, help="decide quadratic residuosity mod a semiprime")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--a", type=_natural, required=True)
    p.add_argument("--method", choices=("t4", "c2", "c3"), default="t4")
    p.add_argument("--oracle", choices=tuple(_ORACLES), default="factor")

    p = add("selftest", _cmd_selftest, help="run the cross-validation sweeps")
    p.add_argument("--max-n", type=_natural, default=200)
    p.add_argument("--max-k", type=_natural, default=4)
    p.add_argument("--suites", default=None, help="comma-separated suite names")

    return parser


def _emit(args, result, oracle, started):
    record = RunRecord(
        command=args.command,
        inputs={
            key: str(value) if isinstance(value, int) else value
            for key, value in vars(args).items()
            if key not in ("func", "command", "record") and value is not None
        },
        result=result,
        seed=_effective_seed(args) if hasattr(args, "seed") else None,
        oracle_stats=None if oracle is None else oracle.stats,
        elapsed_ms=int((time.monotonic() - started) * 1000),
    )
    payload = record.to_json() if args.record else result
    sys.stdout.write(json.dumps(payload) + "\n")


def main(argv=None):
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        result, oracle = args.func(args)
    except PreconditionViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _SelftestFailure as exc:
        _emit(args, exc.result, None, started)
        return 1
    except ResiduoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args, result, oracle, started)
    return 0


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
