"""Every numerical tolerance of ptlind, stated once.  Each note says what the entry bounds,
the scale it multiplies ("absolute": none) and the function that applies it.  No other
module holds a tolerance literal, and ``cli.TOLERANCES`` echoes four of the entries."""

HERMITIAN_REL = 1e-12  # |a - a^dag|_F, times max(1, |a|_F): operators.is_hermitian
SECTOR_REL = 1e-12  # largest cross-sector |entry| c, times max(1, c, kept |entry|): liouville._kept
DISSIPATOR_TRACE_REL = 1e-9  # |Tr D + N^2|, times N^2: perturbation.population_matrix
ENERGY_DEGENERACY_REL = 1e-9  # energy and gap differences, times max(1, |H|_F): degeneracy_report
TAU_REL = 1e-8  # distance to a line, times max(1, max |lambda|): classify_cross's default
CLUSTER_REL = 1e-8  # eigenvalue gaps, times max(1, max |lambda|): eig_biortho's clusters
DEFECTIVE_OVERLAP = 1e-14  # |<u, v>| of unit vectors, absolute: eig_biortho
ZERO_MODE_REL = 1e-9  # the two smallest |lambda|, times max(1, |L|_F): spectral._zero_index
VANISHING_TRACE = 1e-300  # the zero mode's |trace|, absolute: spectral._zero_mode
UNITARITY_REL = 1e-12  # |a^dag a - 1|_F and |b^dag b - 1|_F, times N: parity_from_pair
INVOLUTION_REL = 1e-12  # the map's |P^2 - 1|_F, times N^2: parity_from_pair
RHO0_TRACE = 1e-9  # |Tr rho0 - 1|, absolute: observable_decay
STEP_DRIFT = 1e-10  # max |vec(I)^T U - vec(I)^T|, absolute: observable_decay
FIT_FLOOR = 1e-10  # the least |deviation| fitted, absolute: observable_decay
PROBE_FREQUENCY = 1e-12  # the least |Im lambda| probed, absolute: coherence_probe_state
PROBE_POSITIVITY = 1e-12  # -(least eigenvalue of the probe), absolute: coherence_probe_state
PT_RESIDUAL = 1e-12  # check_pt's pt_residual: reported only, applied by no command
HERMITICITY_RESIDUAL = 1e-13  # hermiticity_residual: reported only, applied by no command
