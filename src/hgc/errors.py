"""Exception types shared across the package.

Every argument outside its range, a matrix shape as much as a
calculator input, raises the one :class:`DomainError`.
"""


class DomainError(ValueError):
    """An argument lies outside its stated domain.

    Raised for a matrix size or shape out of range (a sample of fewer
    than one row or column, a block that is not n x k with 1 <= k <= n,
    a truncation m outside 1..k) and for a tail-bound calculator's input
    outside the domain of its formula.
    """


class DegeneracyError(ArithmeticError):
    """Gram-Schmidt hit a numerically dependent column.

    This has probability zero for Gaussian input, so it signals input
    misuse or numerical collapse rather than a value to propagate.
    """

    def __init__(self, column: int, residual: float, threshold: float):
        self.column = column
        self.residual = residual
        self.threshold = threshold
        super().__init__(
            f"column {column} (1-based) is numerically dependent on its "
            f"predecessors: residual norm {residual:.3e} below threshold "
            f"{threshold:.3e}"
        )

    def __reduce__(self):
        # Rebuild from the constructor's arguments, so that the error
        # crosses a process boundary (a pool worker's trial) intact.
        return type(self), (self.column, self.residual, self.threshold)


class ConfigError(ValueError):
    """An experiment configuration violates its invariants."""


class NumericalError(RuntimeError):
    """A trial failed numerically; carries the trial index."""

    def __init__(self, trial: int, cause: Exception):
        self.trial = trial
        self.cause = cause
        super().__init__(f"trial {trial}: {cause}")

    def __reduce__(self):
        return type(self), (self.trial, self.cause)
