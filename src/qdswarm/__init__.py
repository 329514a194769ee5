"""qdswarm: quality-diversity evolution and fault recovery for robot swarms.

A deterministic 2D kinematic swarm simulator, evolvable recurrent network
controllers, five swarm task fitness functions, four archive descriptor
families (hand-coded, feature-statistics, policy-profile, and
environment-index), MAP-Elites style evolution, per-robot fault injection,
and the statistics used to quantify fault recovery.
"""

from .archive import (
    Archive,
    Elite,
    generate_cvt_centroids,
    load_archive,
    nearest_centroid,
    save_archive,
)
from .descriptors import describe, geometric_median
from .environment import (
    NORMAL_ENV,
    EnvironmentSpec,
    env_from_index,
    env_index,
    generate_environment,
)
from .evolve import EvolutionConfig, EvolveResult, evolve
from .genome import (
    Genome,
    MutationParams,
    genome_from_text,
    genome_to_text,
    mutate,
    polynomial_mutation,
    random_genome,
)
from .recovery import (
    RecoveryRecord,
    evaluate_archive,
    fault_recovery_records,
    project_archive,
    sample_combined_fault,
    spirit_distance,
)
from .sim import (
    FaultType,
    PlacementError,
    TrialLog,
    differential_drive_step,
    run_trial,
    run_trials,
)
from .stats import (
    SignatureResult,
    StatResult,
    cliffs_delta,
    kde_grid_2d,
    linear_fit,
    signature,
    wilcoxon_rank_sum,
)
from .tasks import (
    TaskKind,
    fitness,
    fitness_aggregation,
    fitness_border_patrolling,
    fitness_dispersion,
    fitness_flocking,
    fitness_patrolling,
)

__version__ = "0.1.0"
