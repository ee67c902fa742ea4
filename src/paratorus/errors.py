"""Exception types shared across the toolkit."""


class ParatorusError(Exception):
    """Base class for all toolkit errors."""

    report = None  # the partial SolveReport when raised inside a Picard solve


class GridMismatchError(ParatorusError):
    """Two fields that must share a TorusGrid do not."""


class SerializationError(ParatorusError):
    """Malformed or symmetry-violating serialized field data."""


class NonzeroMeanError(ParatorusError):
    """A small-divisor inverse was applied to a field with non-negligible mean."""


class ResonantModeError(ParatorusError):
    """A retained mode k has k.omega (or the angle analogue) at machine zero."""

    def __init__(self, mode, value):
        self.mode = mode
        self.value = value
        super().__init__(f"resonant mode k={mode}: divisor {value:.3e}")


class NonContractiveError(ParatorusError):
    """A Neumann-style para-inversion failed to contract."""


class SingularAverageError(NonContractiveError):
    """The mean of a para-product symbol is singular, so no preconditioner exists."""


class DiffeomorphismLostError(ParatorusError):
    """1 + u' lost positivity: Id + u is no longer a circle diffeomorphism."""


class DegenerateEmbeddingError(ParatorusError):
    """The Gram matrix of a torus embedding is singular at some collocation point."""


class MaxIterExceededError(ParatorusError):
    """A fixed-point solve hit its iteration cap before meeting tolerance."""


class NonFiniteError(ParatorusError):
    """A NaN or an infinity entered a solver's input or appeared during a solve."""


class EnergyDriftError(ParatorusError):
    """RK4 verification orbit drifted in energy beyond the accepted step-size budget."""


class ConfigError(ParatorusError):
    """Invalid experiment configuration."""
