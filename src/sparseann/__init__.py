"""Sparse-input neural networks with quantile-threshold penalty selection."""

from .activations import ActivationSpec, act_deriv, act_value
from .errors import (
    ConfigError,
    DataError,
    DegenerateParameterError,
    NumericalError,
    SparseAnnError,
)
from .network import (
    Dataset,
    NetworkShape,
    Theta,
    forward,
    link_apply,
    loss_and_grad,
)
from .objective import penalty_l1
from .qut import (
    QutConfig,
    QutResult,
    compute_qut,
    lambda0_classification,
    lambda0_regression,
    sample_null_classification,
    sample_null_regression,
)
from .simulate import (
    SimConfig,
    SimReport,
    gen_absdiff,
    gen_linear,
    metrics,
    run_sweep,
)
from .solver import (
    FitResult,
    SolverConfig,
    estimated_support,
    fit,
    init_theta,
    lambda_schedule,
)

__version__ = "0.1.0"
