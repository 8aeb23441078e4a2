"""Central table of default numerical tolerances and grid choices.

Scenario files may override any of the four tolerances per run (an unknown
key is rejected); each one is the threshold of a check the CLI reports, so
every reported check carries an explicit tolerance.  Spectra are exact
resolvents evaluated on the omega grid and jump times are exact roots of
the no-jump survival, so no quadrature or step-size settings appear here.
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
