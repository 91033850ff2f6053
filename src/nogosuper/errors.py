"""Exception hierarchy shared by all modules."""


class NogoError(Exception):
    """Base class for every error raised by this package."""


class EmptySet(NogoError):
    pass


class DimensionMismatch(NogoError):
    pass


class NonFiniteEntry(NogoError):
    pass


class LinearlyDependentInput(NogoError):
    """The requested construction needs linearly independent states."""


class NullVector(NogoError):
    """Vector norm below the normalization threshold."""


class NullSuperposition(NogoError):
    """The unnormalized superposition cancelled to (numerical) zero."""


class InvalidParams(NogoError):
    pass


class DependentOutputs(NogoError):
    """The chosen phases landed on the degeneracy locus; the demo is impossible there."""
