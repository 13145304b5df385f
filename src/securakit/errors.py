"""Exception hierarchy shared by all analysis modules.

Two families matter for callers (and map onto CLI exit codes):

* :class:`ValidationError` — the inputs are wrong: malformed documents,
  out-of-range parameters, or models whose structure cannot support the
  requested analysis.  These are detectable before any numerics run.
* :class:`NumericalError` — the inputs were accepted but the computation
  cannot produce a finite, converged answer.
"""

from __future__ import annotations


class SecurakitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SecurakitError):
    """Input rejected before any analysis ran (CLI exit code 1)."""


class DomainError(ValidationError):
    """A numeric argument is outside its documented domain."""


class StructureError(ValidationError):
    """A model's structure cannot support the requested analysis.

    Examples: a reducible chain passed to the steady-state solver, an
    unreachable failure set in an MTTF computation, degenerate failure
    data with zero spread.
    """


class SchemaError(ValidationError):
    """A model document violates the schema.

    Carries ``diagnostics``, a list of ``(path, message)`` pairs with one
    entry per violation, where ``path`` points at the offending key
    (e.g. ``parameters.mu_dr``).
    """

    def __init__(self, diagnostics: list[tuple[str, str]]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(f"{p}: {m}" if p else m for p, m in self.diagnostics))

    def __reduce__(self):  # pickled by its diagnostics, as a worker process sends it
        return type(self), (self.diagnostics,)


class NumericalError(SecurakitError):
    """Computation failed to produce a finite, converged answer (exit code 2)."""


class SingularityError(NumericalError):
    """The requested quantity is infinite at the evaluation point."""


class ConvergenceError(NumericalError):
    """An iteration or simulation exceeded its configured cap."""


class SingularSystemError(NumericalError):
    """A linear system that should be regular could not be solved."""


class UsageError(SecurakitError):
    """Command line could not be interpreted (CLI exit code 3)."""
