"""Random Laplacian ensembles, rank-one SDP certificates, and phase sweeps."""

__version__ = "0.1.0"

from .eig import (
    DEFAULT_TOL,
    Spectrum,
    SymmetricMatrix,
    eigendecompose,
    eigenvalue_k,
    eigenvalues_selected,
    spectral_norm,
)
from .ensembles import (
    EnsembleParams,
    EnsembleProfile,
    GraphSample,
    RngStream,
    SyncInstance,
    derive_stream,
    ensemble_profile,
    sample_er,
    sample_sbm,
    sample_wigner,
    sample_z2sync_er,
    sample_z2sync_gaussian,
)
from .laplacians import (
    DegreeSplit,
    centered_laplacian,
    degree_split,
    graph_laplacian,
    laplacian_of,
    partition_gap_matrix,
    signed_adjacency,
    sync_laplacian,
)
from .certificates import (
    CertificateReport,
    RatioReport,
    RecoveryVerdict,
    certify_rank_one,
    certify_sbm,
    certify_z2sync,
    connectivity_spectral,
    connectivity_unionfind,
    dual_diagonal,
    flip_oracle_sbm,
    flip_oracle_z2,
    norm_bound_check,
    sbm_sufficient_condition,
    spectral_diag_ratio,
)
from .sdp import (
    DualCheck,
    FactorPoint,
    SolveReport,
    bm_solve,
    round_rank_one,
    verify_optimal,
)
from .tails import (
    ThresholdQuery,
    bernoulli_diff_tail,
    bernoulli_diff_tail_mc,
    bernstein_bound,
    build_variance_sets,
    chernoff_degree_bound,
    greedy_half_cut,
    threshold_margin,
)
from .sweeps import (
    PhaseCell,
    SweepConfig,
    SweepResult,
    run_sweep,
    write_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
