"""Exception types shared across the package."""


class DegenerateBasisError(ValueError):
    """The partial dressed basis is undefined (coupling block is zero)."""


class UndefinedAngleError(ValueError):
    """Dipole angle is undefined because one decay channel is dark."""


class JumpRankError(ValueError):
    """A jump operator is not rank one: a jump would not reset the atom to
    a fixed state."""


class PropagationError(RuntimeError):
    """Density-matrix propagation produced an invalid state."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} (at t = {time:g})")
        self.time = time


class NonUniqueSteadyStateError(ValueError):
    """Liouvillian null space has dimension > 1: the model is (numerically)
    reducible, which is bad input, as a singular matrix is to numpy."""

    def __init__(self, dimension: int):
        super().__init__(
            f"steady state is not unique: null space has dimension {dimension}"
        )
        self.dimension = dimension


class ScenarioError(ValueError):
    """A scenario entry or parameter failed validation; `field` names the
    offending entry and `message` says what is wrong with it."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message
