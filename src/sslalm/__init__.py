"""Single-loop stochastic Lagrangian methods for nonsmooth equality-constrained
problems, with embeddable proximal SGD / SGDM / ADAM steps and a diagnostics
suite for penalty values, stationarity residuals, and tracker errors."""

from .core import (
    NoiseModel,
    NonFiniteError,
    OracleError,
    ProblemInstance,
    StochasticProblemInstance,
    as_stochastic,
    eval_constraint_jacobian,
    eval_constraints,
    eval_objective,
    perturbed_instance,
)
from .diagnostics import (
    MetricsRecord,
    estimate_regularity,
    exact_penalty_margin,
    kkt_residual,
    lyapunov_adam,
    lyapunov_momentum,
    u_adam,
    u_momentum,
)
from .geometry import (
    Ball,
    BlockProduct,
    Box,
    FeasibleSet,
    NonnegativeOrthant,
    WholeSpace,
    normal_cone_distance,
    prox_preconditioned,
)
from .lagrangian import (
    LagrangianState,
    RunResult,
    SolverConfig,
    StepSchedule,
    dual_step_ialm,
    dual_step_regu,
    init_state,
    iterate,
    regu,
    run,
    track_correction,
)
from .methods import (
    EmbeddedMethodState,
    MethodConfig,
    init_method_state,
    method_displacement_bound,
    method_step,
    step_prox_adam,
    step_prox_sgd,
    step_prox_sgdm,
)
from .problems import (
    OracleSolution,
    ProblemRecipe,
    RECIPES,
    l1_affine_oracle,
    make_affine_l1,
    make_exactness_1d,
    make_recipe,
    make_slack_l1_net,
    make_stochastic_affine,
)

__version__ = "0.1.0"
