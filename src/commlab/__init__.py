"""commlab: executable checks for commutator norm inequalities and
range-kernel orthogonality of derivations on dense complex matrices."""

from commlab.core import (
    HypothesisError,
    InputError,
    NumericError,
    OperatorFlags,
    ShapeError,
    cartesian_decomposition,
    classify,
    commutator,
    hermitian_eig,
    hs_norm,
    matrix_abs_sqrt,
    numerical_radius,
    op_norm,
    self_commutator,
)
from commlab.instances import (
    Instance,
    Recipe,
    SpectralBounds,
    derive_seed,
    equality_example,
    instance_from_json,
    instance_to_json,
    make_instance,
    random_unitary,
)
from commlab.catalog import (
    CATALOG,
    CatalogEntry,
    InequalityReport,
    SweepConfig,
    SweepReport,
    evaluate,
    get_entry,
    sweep,
    validate_hypotheses,
)
from commlab.derivations import (
    FPReport,
    KernelElement,
    SylvesterOperator,
    check_fp_pair,
    check_reduction,
    kernel_basis,
    lift_derivation,
    min_distance_hs,
    orthogonality_probe_opnorm,
)
from commlab.search import SearchState, maximize_ratio, perturb

__version__ = "0.1.0"
