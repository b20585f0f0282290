"""Exception types shared across the toolkit."""


class QuandleError(Exception):
    """Base class for all toolkit errors."""


class BudgetExceeded(QuandleError):
    """A search or enumeration exceeded its budget, size cap or element cap."""


class AxiomError(QuandleError):
    """A table failed a quandle axiom.

    ``witness`` holds the lexicographically smallest offending tuple. The
    distributivity check runs at a generating set only, and its first
    failure is still the smallest over all points.
    """

    def __init__(self, message, witness):
        super().__init__(f"{message} (witness {witness})")
        self.witness = witness


class NotLeftQuasigroup(AxiomError):
    pass


class NotLeftDistributive(AxiomError):
    pass


class NotIdempotent(AxiomError):
    pass


class NotClosedUnderConjugation(QuandleError):
    pass


class NotAutomorphism(QuandleError):
    pass


class SubgroupNotFixed(QuandleError):
    pass


class NotLatin(QuandleError):
    pass


class NotConnected(QuandleError):
    pass


class InvalidCocycle(QuandleError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotUniform(QuandleError):
    pass


class NotCompatible(QuandleError):
    pass


class NotHomomorphism(QuandleError):
    pass


class NotSurjective(QuandleError):
    pass


class MalformedCode(QuandleError, ValueError):
    pass


class InconsistentSigns(QuandleError, ValueError):
    pass
