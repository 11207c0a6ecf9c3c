"""Random Laplacian ensembles, rank-one SDP certificates, and phase sweeps."""

__version__ = "0.1.0"

from .eig import (
    Spectrum,
    SymmetricMatrix,
    eigendecompose,
    eigenvalue_k,
    eigenvalues_selected,
    lanczos,
    largest_eigenvalue,
    proves_max_below,
    spectral_norm,
)
from .ensembles import (
    EnsembleProfile,
    GraphSample,
    RngStream,
    SyncInstance,
    centered_er_profile,
    derive_stream,
    sample_er,
    sample_sbm,
    sample_wigner,
    sample_z2sync_er,
    sample_z2sync_gaussian,
)
from .laplacians import (
    centered_gap_diagonal,
    centered_laplacian,
    centered_partition_gap,
    graph_laplacian,
    laplacian_of,
    negated_laplacian,
    signed_adjacency,
)
from .certificates import (
    CertificateReport,
    RatioReport,
    certify_rank_one,
    certify_sbm,
    certify_z2sync,
    connectivity_spectral,
    connectivity_unionfind,
    dual_diagonal,
    flip_oracle_sbm,
    flip_oracle_z2,
    norm_bound_check,
    rank_one_side,
    sbm_sufficient_condition,
    spectral_diag_ratio,
)
from .sdp import (
    SolveReport,
    bm_solve,
    round_rank_one,
)
from .tails import (
    bernoulli_diff_tail,
    bernoulli_diff_tail_mc,
    chernoff_degree_bound,
    sigma_star,
    threshold_margin,
)
from .sweeps import (
    SweepConfig,
    SweepResult,
    run_sweep,
    write_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
