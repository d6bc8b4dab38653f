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
    predict_class,
)
from .objective import (
    hessian_at_null,
    loss_cross_entropy,
    loss_sqrt_l2,
    objective_value,
    penalty_l1,
    prox_l1,
)
from .qut import (
    QutConfig,
    QutResult,
    compute_qut,
    lambda0,
    lambda0_classification,
    lambda0_oracle,
    lambda0_regression,
    sample_null_classification,
    sample_null_regression,
)
from .simulate import (
    SimConfig,
    SimReport,
    exact_absdiff_network,
    exact_linear_network,
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
