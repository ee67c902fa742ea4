"""Exception types shared across the toolkit.

SolverError marks the failures of a valid problem: a solve that does not
converge, a non-finite value, a lost diffeomorphism, a resonance. The CLI
maps exactly these to exit 3; every other ParatorusError raised by a solve is
an internal invariant violation (exit 4), and ConfigError is exit 2.
"""


class ParatorusError(Exception):
    """Base class for all toolkit errors."""

    report = None  # the partial SolveReport when raised inside a Picard solve


class SolverError(ParatorusError):
    """Base class of the errors that a valid problem can meet during a solve."""


class GridMismatchError(ParatorusError):
    """Two fields that must share a TorusGrid do not."""


class SerializationError(ParatorusError):
    """Malformed or symmetry-violating serialized field data."""


class NonzeroMeanError(SolverError):
    """A small-divisor inverse was applied to a field with non-negligible mean."""


class ResonantModeError(SolverError):
    """A retained mode k has k.omega (or the angle analogue) at machine zero."""

    def __init__(self, mode, value):
        self.mode = mode
        self.value = value
        super().__init__(f"resonant mode k={mode}: divisor {value:.3e}")


class NonContractiveError(SolverError):
    """A Neumann-style para-inversion failed to contract."""


class SingularAverageError(NonContractiveError):
    """The mean of a para-product symbol is singular, so no preconditioner exists."""


class DiffeomorphismLostError(SolverError):
    """1 + u' lost positivity: Id + u is no longer a circle diffeomorphism."""


class DegenerateEmbeddingError(SolverError):
    """The Gram matrix of a torus embedding is singular at some collocation point."""


class MaxIterExceededError(SolverError):
    """A fixed-point solve hit its iteration cap before meeting tolerance."""


class NonFiniteError(SolverError):
    """A NaN or an infinity entered a solver's input or appeared during a solve."""


class EnergyDriftError(SolverError):
    """RK4 verification orbit drifted in energy beyond the accepted step-size budget."""


class ConfigError(ParatorusError):
    """Invalid experiment configuration."""
