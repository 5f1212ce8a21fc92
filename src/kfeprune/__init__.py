"""Curvature-aware pruning and bottleneck compression for small networks."""

from .accounting import count_flops, count_params, reduction_percent
from .checkpoint import load_network, save_network
from .config import RunConfig, parse_config
from .criteria import (
    ImportanceEntry,
    ImportanceTable,
    PruneMask,
    c_obd_scores,
    c_obs_scores,
    eigendamage_scores,
    kron_obd_scores,
    kron_obs_scores_and_update,
    obd_scores,
    obs_scores,
    select_mask,
)
from .data import Dataset, load_idx, read_idx, synth_dataset
from .errors import (
    DimensionError,
    FormatError,
    KfepruneError,
    NumericError,
    SingularityError,
    SizeError,
    StateError,
    TrainingDivergenceError,
    ValidationError,
)
from .kfac import (
    EigenFactors,
    KronFactors,
    damp,
    eigenbasis,
    estimate_factors,
    inv_psd,
    offdiag_ratio,
)
from .layers import (
    BottleneckConvLayer,
    BottleneckDenseLayer,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    ReluLayer,
)
from .network import Network, build_cnn, build_mlp, cross_entropy, softmax
from .oracle import (
    exact_fisher,
    exact_multi_prune,
    exact_single_prune,
    finite_diff_grad,
    finite_diff_hessian,
)
from .reparam import (
    DepthwiseFactors,
    absorb_depthwise,
    depthwise_decompose,
    eigenprune,
    merge_bases,
    to_kfe,
)
from .training import evaluate, train, zero_masks

__version__ = "0.1.0"
