"""Single-loop stochastic Lagrangian methods for nonsmooth equality-constrained
problems, with embeddable proximal SGD / SGDM / ADAM steps and a diagnostics
suite for penalty values, stationarity residuals, and tracker errors.

The package namespace holds what a caller needs to write a problem, run the
solver and check the result; everything else is imported from its module
(``sslalm.core``, ``sslalm.geometry``, ``sslalm.methods``,
``sslalm.lagrangian``, ``sslalm.diagnostics``, ``sslalm.problems``,
``sslalm.cli``)."""

from .core import (
    NoiseModel,
    NonFiniteError,
    OracleError,
    ProblemInstance,
    StochasticProblemInstance,
)
from .diagnostics import MetricsRecord, estimate_regularity, exact_penalty_margin, kkt_residual
from .geometry import Ball, Box, FeasibleSet, NonnegativeOrthant, WholeSpace
from .lagrangian import RunResult, SolverConfig, StepSchedule, run
from .methods import MethodConfig, step_prox_adam, step_prox_sgdm
from .problems import (
    ProblemRecipe,
    make_affine_l1,
    make_exactness_1d,
    make_recipe,
    make_slack_l1_net,
    make_stochastic_affine,
)

__version__ = "0.1.0"
