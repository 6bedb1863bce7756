"""Exception hierarchy shared by all residuo modules."""


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
    """The rho splitting loop exceeded its iteration cap."""


class NotAPermutation(ResiduoError):
    """Image is not a rearrangement of the domain."""


class NotClosedUnderAction(ResiduoError):
    """Multiplication by a maps the set outside itself."""


class NotAdmissibleModulus(ResiduoError):
    """Modulus is not of the shape the operation supports."""


class SearchExhausted(ResiduoError):
    """A randomized or enumerative search hit its trial cap."""
