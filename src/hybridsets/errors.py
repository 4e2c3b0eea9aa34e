"""Exception types shared across the package."""


class HybridError(Exception):
    """Base class for all errors raised by this package."""


class UniverseMismatchError(HybridError):
    """Two hybrid sets over different universes were combined."""


class MultiplicityOverflowError(HybridError, ArithmeticError):
    """A multiplicity or exponent left the signed 64-bit range."""


class NotReducibleError(HybridError):
    """A graph hybrid set read back as a function is a relation instead."""


class ValuationError(HybridError):
    """A symbolic parameter had no value in the supplied valuation."""


class UnimodularError(HybridError):
    """An integer matrix expected to have determinant +-1 does not."""


class RefinementError(HybridError):
    """A refinement does not line up with the partition it should refine."""


class NonEvaluableError(HybridError):
    """Evaluation produced a residue that is not a function value."""


class OpacityError(HybridError):
    """A scalar value was required from an atom declared without a body."""


class ContractError(HybridError):
    """An operation was called outside its declared contract."""


class ParseError(ContractError):
    """Source text could not be parsed.  Carries line and column.  Text
    outside the grammar is a contract breach of the call that reads it."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        places = (("line", line), ("col", column))
        where = ", ".join(f"{label} {n}" for label, n in places if n is not None)
        if where:
            message = f"{where}: {message}"
        super().__init__(message)
