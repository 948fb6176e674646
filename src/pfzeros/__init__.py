"""pfzeros: complex partition-function zeroes of Ising models through
simulated quantum measurement protocols."""

from .circuits import (
    Circuit,
    Gate,
    GadgetParams,
    QubitRole,
    ResourceCounts,
    compile_general,
    compile_kicked,
    gadget_params_coupling,
    kick_field_for_ky,
    kicked_log_factor,
    ky_for_kick_field,
    resource_counts,
)
from .correlations import (
    PROBE_SIGNS,
    CorrelationEstimate,
    KickedSetup,
    corr_cross_row,
    corr_norm_ratio,
    corr_same_row,
)
from .errors import CapExceededError, ConvergenceError, IllConditionedError, PfzError
from .evaluators import (
    DosEvaluator,
    KickedCalibration,
    KickedProbabilityEvaluator,
    calibrate_kicked_relation,
)
from .model import (
    Bond,
    FieldTerm,
    IsingModel,
    build_chain,
    build_cylinder,
    from_edge_list,
    model_from_json,
    with_bond_delta,
    with_field_delta,
)
from .noise import (
    DetectabilityReport,
    NoisyGrid,
    detectability,
    error_stats,
    noisy_scan,
)
from .oracle import (
    DensityOfStates,
    LogComplex,
    brute_force_Z,
    brute_force_Z_with_scale,
    correlation,
    density_of_states,
    transfer_matrix_Z,
)
from .statevector import (
    OverlapResult,
    measurement_basis,
    run_effective,
    run_full,
    run_streamed,
    sample_shots,
)
from .zeros import (
    GridSpec,
    MinimumCandidate,
    ScanGrid,
    ZeroEstimate,
    discs_disjoint,
    find_minima,
    inclusion_radii,
    map_roots,
    polynomial_coefficients,
    polynomial_roots,
    refine_newton,
    rescale_from_x,
    roots_of_polynomial,
    scan,
    unit_circle_distance,
)

__version__ = "0.1.0"
