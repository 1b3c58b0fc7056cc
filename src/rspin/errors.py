"""Exception hierarchy shared by all rspin modules."""


class RSpinError(Exception):
    """Base class for all errors raised by this package."""


class EmptyModuliError(RSpinError):
    """The moduli space is empty: r does not divide 2 - 2g."""


class StableRangeError(RSpinError):
    """Genus is below the range in which the stable answers are valid."""


class EpsParityError(RSpinError):
    """Arf invariant supplied for odd r, or missing for even r."""


class MuUndefinedError(RSpinError):
    """The class mu only exists when r is even."""


class TrivialTorsionError(RSpinError):
    """Requested a torsion generator but the torsion subgroup is trivial."""


class NonGeneratingError(RSpinError):
    """A purported generating set only spans a proper subgroup."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InternalConsistencyError(RSpinError):
    """Two independent computations of the same quantity disagree."""


class ParseError(RSpinError):
    """A class expression failed to parse."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position
