"""Exception types shared across the package."""


class OverlapLabError(Exception):
    """Base class for all overlap-lab errors."""


class GridTooSmall(OverlapLabError):
    """Operation needs more levels than the grid has."""


class NotSymmetric(OverlapLabError):
    """Matrix fails the symmetry precondition."""


class NoConvergence(OverlapLabError):
    """Eigensolver did not converge within the sweep limit."""


class BadZeta(OverlapLabError):
    """Weight-process exponent outside (0, 1)."""


class TooManyAtoms(OverlapLabError):
    """Requested measure exceeds the atom-count guard."""


class BadWeights(OverlapLabError):
    """Weights are not positive or do not sum to one."""


class OffGridOverlap(OverlapLabError):
    """An inner product matches no grid level (malformed measure)."""


class AcceptanceTooLow(OverlapLabError):
    """One observable's conditioning event has too little mass to estimate."""


class TooLarge(OverlapLabError):
    """Enumeration size exceeds the exact-oracle guard."""


class EventNull(OverlapLabError):
    """Conditioning event has zero mass under the measure."""


class EventMassTooSmall(OverlapLabError):
    """Estimated event mass is statistically indistinguishable from zero."""


class NullConditioning(OverlapLabError):
    """A conditioning event (criterion's, or gg's) has vanishing probability."""


class ParseError(OverlapLabError):
    """Config file could not be parsed."""


class ValidationError(OverlapLabError):
    """Config parsed but failed validation; carries every problem found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
