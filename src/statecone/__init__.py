"""Entropy, Bregman divergences and information quantities on the state
spaces of finite Euclidean Jordan algebras, with randomized checkers for
monotonicity, sufficiency, statistical locality, additivity and the
separoid axioms, plus a small CHSH nonlocality demo."""

__version__ = "0.1.0"

from .algebras import (
    Algebra,
    AlgebraMismatchError,
    DomainError,
    JordanElement,
    SimpleFactor,
    SpectralDecomposition,
    classical,
    complex_hermitian,
    direct_sum,
    inner_product,
    jordan_product,
    quaternion_hermitian,
    real_hermitian,
    spectral_decompose,
    spin_factor,
    trace,
    unit,
)
from .states import (
    Affinity,
    CompositeLayout,
    Measurement,
    State,
    channel_catalog,
    marginal,
    measure,
    random_channel,
    random_state,
    tensor,
)
from .entropy import (
    EntropyReport,
    decomposition_entropy,
    fine_grained_entropy_bound,
    shannon_entropy,
    spectral_entropy,
)
from .bregman import (
    BregmanGenerator,
    PropertyVerdict,
    affine_plus_entropy,
    bregman_divergence,
    check_bregman_identity,
    check_identity,
    check_locality_theorem,
    check_monotonicity,
    check_statistical_locality,
    check_sufficiency,
    explore_additivity_conjecture,
    information_divergence,
    neg_entropy,
    trace_power,
)
from .multipartite import (
    CmiReport,
    PartitionedState,
    check_additivity,
    check_data_processing,
    check_marginal_identity,
    check_separoid,
    conditional_mutual_information,
    mutual_information,
)
from .boxes import (
    NoSignalingBox,
    QuantumStrategy,
    box_from_quantum,
    chsh_value,
    maximize_quantum_chsh,
    pr_box,
)
