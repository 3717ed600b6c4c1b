"""Message-passing block-Jacobi decomposition solvers for graph- and
hypergraph-structured programs, with partition-explicit rate analysis."""

from .topology import (
    Graph,
    Hypergraph,
    HyperPartition,
    TreePartition,
    generate_partition,
    generate_topology,
    minimal_external_cover,
    validate_hyper_partition,
    validate_tree_partition,
)
from .objective import (
    CtaProblem,
    GossipMatrix,
    QuadraticLocal,
    QuadraticObjective,
    SmoothObjective,
    build_atc,
    build_cta,
    build_laplacian_qp,
    build_random_qp,
    build_tanh_nn,
    global_solve_oracle,
    metropolis_weights,
    problem_from_json,
    problem_to_json,
)
from .messages import MessageSet, QuadraticMessage, SurrogateSpec
from .solvers import (
    RunTrace,
    SolverConfig,
    baseline,
    delayed_block_jacobi,
    h_mp_jacobi,
    h_mp_jacobi_split,
    minsum_splitting,
    mp_jacobi,
    mp_jacobi_surrogate,
    pairwise_to_hyper,
    select_stepsize,
    tree_solve,
)
from .splitting import (
    SplitMap,
    SplitQuadraticView,
    apply_split,
    build_split_surrogate,
    split_surrogate_components,
    validate_split_partition,
)
from .rate_analysis import (
    RateInputs,
    RateReport,
    compute_A,
    estimate_constants,
    grid_partition_optimizer,
    rate_terms,
    ring_partition_optimizer,
    spectral_rate_oracle,
)
from .verify import (
    CheckReport,
    check_descent_lemmas,
    check_equivalence_prop31,
    check_gradient,
    check_split_consistency,
    check_surrogate_regularity,
)

__version__ = "0.1.0"
