"""Numerical laboratory for stochastic recursive optimal control.

Simulates controlled forward-backward stochastic systems, solves the
generalized value PDE by a monotone finite-difference scheme, integrates
the adjoint process triple, and verifies the first-order jet inclusions
between the value function and the adjoint ratio along optimal paths.
"""

from .adjoint import (
    AdjointTriple,
    MaxConditionReport,
    check_maximum_condition,
    hamiltonian,
    solve_adjoint,
    solve_pk,
    solve_q,
)
from .backward import (
    BackwardSolution,
    CostReport,
    RegressionError,
    backward_perturbation_probe,
    solve_backward,
)
from .forward import (
    NonFiniteStateError,
    PathBatch,
    PerturbationReport,
    TimeGrid,
    generate_increments,
    perturbation_moment_probe,
    simulate_forward,
)
from .hjb import (
    CFLError,
    ValueGrid,
    ViscosityCheckReport,
    cfl_max_dt,
    cfl_time_grid,
    regularity_probe,
    solve_hjb_fd,
    viscosity_check,
)
from .jets import (
    ConnectionReport,
    JetEstimate,
    JetSet,
    estimate_jets_1d,
    verify_connection,
)
from .oracles import (
    example31_adjoint,
    example31_constant_policy_y0,
    example31_jets,
    example31_value,
)
from .problem import (
    ConfigError,
    ControlBoxError,
    DomainError,
    ExpressionSyntaxError,
    ProblemError,
    ProblemSpec,
    builtin_names,
    builtin_problem,
    parse_problem,
)

__version__ = "0.1.0"
