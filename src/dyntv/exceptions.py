"""Exception types shared across the package."""


class SolverError(RuntimeError):
    """Raised when the outer iteration must abort (non-finite iterate, empty basis).

    Carries the iteration history accumulated so far in ``history`` so callers
    can flush partial diagnostics: ``mm_gks_solve`` attaches its records to
    every SolverError raised in its loop, this module's subclass included.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history if history is not None else []


class SingularSystemError(SolverError):
    """Raised when the regularized system is singular, or GCV undefined or overflowing on its grid.

    This signals a violated null-space condition: the forward operator and
    the regularization operator share a nontrivial null space (restricted to
    the current search space), so the penalized least-squares problem has no
    unique solution for any regularization parameter.  It is a SolverError,
    so a solve that meets it aborts with its history like any other failure.
    """


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configurations."""
