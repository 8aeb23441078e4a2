"""Every threshold the package judges against, and the default grids.

A scenario may override the ``DEFAULT_TOLERANCES`` its task reads (see
``cli._TASKS``).  The constants below them are the fixed thresholds of the
library's own checks; no other module writes a threshold as a literal.
Roundoff tests scale with the size of their operand (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed.).
"""

DEFAULT_TOLERANCES = {
    # max Frobenius distance between rotated and directly propagated states
    "equivalence": 1e-8,
    # pointwise distance for g2 / waiting-time curves of mapped pairs
    "photon_statistics": 1e-8,
    # relative sup-norm distance for incoherent spectra of mapped pairs
    "spectrum_rel": 1e-6,
    # trace drift of any propagated density matrix
    "trace": 1e-9,
}

DEFAULT_TIME_GRID = (0.0, 20.0, 201)     # units of 1/Gamma_ref
DEFAULT_OMEGA_GRID = (-10.0, 10.0, 2001)  # units of Gamma_ref

ROUNDOFF = 1e-12           # relative roundoff of an identity exact in theory
SNAP = 4 * 2.0 ** -52      # cos(phi) within 4 ulp of 0 or +-1 is exactly that
NULL_CUT = 1e-10           # a relative zero: singular value, |L rho_ss| / |L|
TRACE_FLOOR = 1e-8         # a null vector with less trace is no steady state
STEP_SHARE = 4.0           # ulps of the grid end by which steps sharing one
                           # exponential may differ (linspace: at most 2)
TRACE_DRIFT = 1e-6         # a propagated state that drifts more has failed
DENSITY_SLACK = 1e-9       # Hermiticity, trace and eigenvalues of a given rho
EIG_SCREEN = 1e-13         # closed-form 3x3 smallest eigenvalue: error of r
                           # per unit 1 + |q|/p, and of the value per unit
                           # |q| + 2p (measured: 2.3 and 6.8 ulps)
UNITARITY = 1e-10          # |U U^+ - 1| of a basis change
CHANNEL_FLOOR = 1e-14      # a smaller share of the largest rate is no channel
EMISSION_EXCESS = 1e-6     # a waiting-time density may integrate to 1 + this
NEWTON_STEP = 1e-13        # last jump-time step per min(t_final, 1/|H_eff|)
SURVIVAL_FLOOR = 2.0 ** -53  # the smallest threshold 1 - u a trajectory draws
SPECTRUM_FLOOR = 1e-14     # mapped spectra peaking lower differ by roundoff
TINY = 1e-300              # keeps a denominator off zero where 0/0 may occur
