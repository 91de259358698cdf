"""Semi-supervised clustering from O(alpha * n) randomly sampled pairwise
similarities, via power iteration of the non-backtracking operator on the
sampled similarity graph, plus the matching error-bound recursions and a
density-evolution oracle."""

from .graph import (
    MessageState,
    WeightedGraph,
    apply_nb,
    apply_nb_transpose,
    build_graph,
    center_weights,
    dense_nb_matrix,
    nb_multiply,
    nb_multiply_t,
    pool,
)
from .model import (
    Gaussian,
    LabeledDataset,
    Mixture,
    ModelSpec,
    PointMass,
    Uniform,
    dataset_from_truth,
    draw_er_pairs,
    draw_labels,
    draw_revealed_set,
    draw_similarities,
    gaussian_blobs,
    make_instance,
    parse_distribution,
    split_seed,
)
from .binary import DEFAULT_KMAX, accuracy, init_messages, power_iterate, run_binary
from .multiclass import (
    DeflationError,
    DeflationStack,
    EmptyClusterWarning,
    MulticlassResult,
    apply_deflated,
    apply_deflated_t,
    init_messages_class,
    kmeans,
    match_labels,
    run_multiclass,
)
from .theory import (
    AffineWeight,
    BoundCheck,
    DensityEvolutionResult,
    FunctionWeight,
    OptimalWeight,
    TheoryReport,
    WeightStats,
    centered_weight,
    check_error_bounds,
    chernoff_recursion,
    density_evolution,
    identity_weight,
    mgf_envelope_sequences,
    optimal_weight,
    snr_recursion,
    sufficient_alpha,
    tau_optimal,
    theory_report,
    weight_stats,
)
from .label_prop import (
    ConvergenceWarning,
    label_propagation,
    propagate_scores,
    sparsify_knn,
)
from .ingest import (
    SubsampleResult,
    calibrate_sigma,
    load_mnist_subset,
    pair_similarity,
    read_csv_vectors,
    read_idx,
    read_idx_labels,
    subsample_and_weight,
)

__version__ = "0.1.0"
