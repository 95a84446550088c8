"""Exception types shared across the toolkit."""


class ThreeWaveError(Exception):
    """Base class for all toolkit errors."""


class SymbolTableMismatch(ThreeWaveError):
    """Two values built over different symbol tables were combined."""


class NotDivisible(ThreeWaveError):
    """Exact polynomial division failed; carries the remainder witness."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class DenominatorVanishes(ThreeWaveError):
    """A substitution produced an identically-zero denominator."""


class PoleTooHigh(ThreeWaveError):
    """A vector-field component has a pole of order >= 2 along the boundary,
    or a pole along a divisor other than the boundary."""

    def __init__(self, message, component=None, witness=None):
        super().__init__(message)
        self.component = component
        self.witness = witness


class AnalysisFailed(ThreeWaveError, ValueError):
    """An analysis cannot be carried out on this system: a verdict about the
    field (no pole balance, a non-polynomial atlas), not about how it was asked."""


class VerificationFailed(ThreeWaveError):
    """An exact re-check of a computed result failed. Deliberately not a
    ValueError, so that no caller that handles bad input swallows it."""


class PositiveDimensional(ThreeWaveError):
    """The singular locus on the boundary divisor is not a finite set of points."""


class UnresolvedSpectrum(ThreeWaveError):
    """The characteristic polynomial does not split over the Gaussian-rational
    parameter field, so an exact eigenvalue tuple cannot be produced."""


class StepUnderflow(ThreeWaveError):
    """The adaptive integrator cannot make progress: the step size collapsed
    and no chart of the atlas keeps the state finite, or the step budget ran
    out. ``trajectory`` holds what was integrated up to there."""

    def __init__(self, message, trajectory):
        super().__init__(message)
        self.trajectory = trajectory


class FitAmbiguous(ThreeWaveError):
    """No chart's boundary coordinate locates a pole on the trajectory segment."""
