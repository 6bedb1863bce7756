"""Exception hierarchy shared by all residuo modules, and `digits`, which
prints an integer of any size in their messages."""


class ResiduoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(ResiduoError):
    """An argument is outside the documented domain of the operation."""


class InvalidModulus(InvalidInput):
    """Modulus is too small or has the wrong parity."""


class UndefinedValuation(InvalidInput):
    """b-adic valuation requested for 0."""


class NotCoprime(ResiduoError):
    """Arguments share a nontrivial common factor."""


class SearchSpaceTooLarge(ResiduoError):
    """Exhaustive enumeration was requested beyond the desk-scale limit."""


class PreconditionViolated(ResiduoError):
    """A symbol was queried at level k although the level-(k-1) symbol is -1.

    Carries the offending prime and level when known.
    """

    def __init__(self, message, prime=None, level=None):
        super().__init__(message)
        self.prime = prime
        self.level = level


class FactorizationTimeout(ResiduoError):
    """Factorization gave up on a cofactor: both p - 1 stages found no split,
    and Brent's rho then passed its iteration cap (10^7 for one n) or tried
    every constant without a split."""


class NotAPermutation(ResiduoError):
    """Image is not a rearrangement of the domain."""


class NotClosedUnderAction(ResiduoError):
    """Multiplication by a maps the set outside itself."""


class NotAdmissibleModulus(ResiduoError):
    """Modulus is not of the shape the operation supports."""


class SearchExhausted(ResiduoError):
    """A randomized or enumerative search hit its trial cap."""


def digits(n):
    """n in decimal for an error message, or its sign and size where Python
    refuses to print that many digits (past 4300 by default)."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"
