"""Regionalized location obfuscation.

Partition a discrete location domain into protection sets that each
guarantee a minimum adversary estimation error, release locations
through an exponential matrix calibrated per set, and evaluate the
result against a Bayesian adversary.
"""

from .adversary import (
    MetricsReport,
    bayes_attack,
    compute_metrics,
    conditional_error,
    load_metrics,
    optimal_attack,
    posterior,
    quality_loss,
    save_metrics,
)
from .domain import (
    DomainFormatError,
    InfeasibleParamsError,
    LocationDomain,
    PrivacyParams,
    assign_personal_eps,
    diameter,
    load_domain,
    min_mean_distance,
    min_mean_distance_within,
    prior_mass,
    satisfies_error_bound,
    save_domain,
    synth_domain,
)
from .experiment import (
    SweepConfig,
    aggregate_cells,
    parse_sweep_config,
    run_sweep,
    run_wtd,
)
from .hilbert import (
    ROTATIONS,
    HilbertOrdering,
    all_rotations,
    default_order,
    hilbert_cell,
    hilbert_rank,
    order_domain,
    rotate_cell,
)
from .mechanism import (
    ObfuscationMatrix,
    build_matrix,
    build_matrix_constant,
    load_matrix_rows,
    sample_pseudo,
    save_matrix,
    worker_travel_distance,
)
from .partition import (
    Partition,
    Pls,
    best_hilbert_partition,
    load_partition,
    partition_on_ordering,
    require_feasible,
    save_partition,
    weighted_avg_diameter,
)
from .qkmeans import QkConfig, assign_round, eps_weight, qk_partition, seed_centers

__version__ = "0.1.0"
