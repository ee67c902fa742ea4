"""Spectral para-differential calculus on the torus with two conjugacy solvers."""

from .errors import (
    ConfigError,
    DegenerateEmbeddingError,
    DiffeomorphismLostError,
    EnergyDriftError,
    GridMismatchError,
    MaxIterExceededError,
    NonContractiveError,
    NonFiniteError,
    NonzeroMeanError,
    ParatorusError,
    ResonantModeError,
    SerializationError,
    SingularAverageError,
    SolverError,
)
from .spectral import (
    MatrixField,
    SpectralField,
    TorusGrid,
    VectorField,
    analyze,
    compose_warped,
    field_from_json,
    field_to_json,
    synthesize,
)
from .dyadic import (
    DyadicCutoff,
    make_cutoff,
    partition_residual,
    zygmund_norm,
)
from .paraprod import (
    ParaOpHandle,
    cm_remainder,
    meyer_apply,
    para_compose,
    para_invert,
    para_invert_matrix,
    para_product,
    pl_remainder,
    telescope_remainders,
)
from .smalldiv import (
    FrequencyVector,
    RotationAngle,
    certify_diophantine,
    certify_rotation_angle,
    delta_alpha,
    delta_alpha_inverse,
    omega_directional_inverse,
    remove_mean,
)
from .circle import (
    CircleProblem,
    CircleSolution,
    certify,
    compose_f,
    g_map,
    residual,
    rotation_number,
    solve,
)
from .hamtorus import (
    HamiltonianData,
    KamSolution,
    TorusEmbedding,
    assemble_rhs,
    b_matrices,
    counterterm_check,
    error_fields,
    flow_oracle,
    frame,
    hamiltonian_vector_field,
    isotropic_correction,
    isotropy_from_residual,
    jacobian_A,
    lack_of_isotropy,
    linear_para_homological_solve,
    neumann_certificate,
    residual_torus,
    solve_torus,
    torsion_S,
)

__version__ = "0.1.0"
