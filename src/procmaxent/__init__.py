"""Maximum-entropy estimation of quantum channels from incomplete
process measurements, via the Choi-Jamiolkowski process entropy."""

from .channels import (
    ChoiState,
    CptpReport,
    QubitAffineMap,
    apply_from_choi,
    bloch_affine_map,
    choi_from_apply,
    choi_from_kraus,
    is_cptp,
    kraus_from_choi,
    maximally_entangled_state,
    process_entropy,
    random_channel,
)
from .errors import (
    BoundaryCaseError,
    ConvergenceError,
    DependentConstraintsError,
    DimensionError,
    InfeasibleError,
    InvariantError,
    NotAChannelError,
    OracleFailureError,
    ProcMaxEntError,
)
from .linalg import (
    bloch_to_density,
    density_to_bloch,
    expectation,
    hermitian_basis,
    matrix_exp,
    matrix_log,
    partial_trace,
    von_neumann_entropy,
)
from .observations import (
    Constraint,
    ObservationLevel,
    ProcessMeasurementSpec,
    reduce_ancilla_assisted,
    reduce_ancilla_free,
    sample_shots,
    simulate_means,
    tp_constraints,
)
from .oracles import (
    OracleResult,
    oracle_O1_mixed,
    oracle_O1_pure,
    oracle_O1_transcendental,
    oracle_O3,
    oracle_O4,
)
from .solver import (
    MaxEntSolution,
    PriorChannel,
    SolverOptions,
    boundary_resolve,
    dual_eval,
    dual_hessian,
    solve_biased,
    solve_maxent,
    solve_state_maxent,
)

__version__ = "0.1.0"
