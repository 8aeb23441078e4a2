"""Driven three-level atoms: master equations for the four standard
configurations, partial dressed-state maps that make the two-laser and
single-laser members of each family exactly equivalent, and the observables
(photon statistics, emission spectra, quantum-jump trajectories) that
exhibit the equivalence.
"""

__version__ = "0.1.0"

from .systems import Config, LindbladModel, SystemParams, build_model
from .equivalence import (
    EquivalenceMap,
    EquivalenceReport,
    basis_unitary,
    dipole_angle,
    dressed_block,
    map_rates,
    map_system,
    verify_equivalence,
)
from .dynamics import (
    liouvillian,
    propagate_series,
    steady_state,
)
from .observables import (
    BrightDarkStats,
    JumpRecord,
    McRun,
    SampledFunction,
    bright_dark_stats,
    emission_spectrum,
    g2,
    interjump_gaps,
    mc_trajectories,
    populations,
    waiting_time,
)
from .errors import (
    DegenerateBasisError,
    JumpRankError,
    NonUniqueSteadyStateError,
    PropagationError,
    ScenarioError,
    UndefinedAngleError,
)

__all__ = [
    "__version__",
    "Config", "SystemParams", "LindbladModel", "build_model",
    "EquivalenceMap", "EquivalenceReport", "dressed_block",
    "basis_unitary", "map_rates", "dipole_angle", "map_system",
    "verify_equivalence",
    "liouvillian", "propagate_series",
    "steady_state",
    "SampledFunction", "JumpRecord", "McRun", "BrightDarkStats",
    "g2", "waiting_time", "emission_spectrum", "populations",
    "mc_trajectories", "interjump_gaps", "bright_dark_stats",
    "DegenerateBasisError", "UndefinedAngleError", "PropagationError",
    "NonUniqueSteadyStateError", "ScenarioError", "JumpRankError",
]
