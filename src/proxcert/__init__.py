"""Composite convex solvers with verifiable residual and KKT certificates.

Accelerated proximal gradient methods with backtracking for objectives whose
gradient is only locally Lipschitz, plus a first-order proximal augmented
Lagrangian method for conic constraints.  Every successful solve returns an
explicitly recomputable optimality witness.
"""

from .apg import (
    ApgParams,
    ApgState,
    ApgTrace,
    Certificate,
    TerminatingResult,
    TraceRow,
    apg_iteration,
    apg_run,
    apg_terminating,
    certified_prox_step,
    initial_state,
    residual_certificate,
    solve_alpha,
    trial_step,
)
from .model import (
    AffineConstraint,
    CallableConstraint,
    CallableSmooth,
    CompositeProblem,
    ConeBlock,
    ConeSpec,
    ConicProblem,
    ConstraintMap,
    InvariantViolation,
    LineSearchFailure,
    NonFiniteOracleOutput,
    OracleCounters,
    ProxTerm,
    SmoothOracle,
    SolveTimeout,
    instrument_composite,
    value_and_gradient,
)
from .outer import (
    KktReport,
    OuterParams,
    OuterTrace,
    OuterTraceRow,
    PpaResult,
    ProxAlResult,
    SubproblemOracle,
    build_al_subproblem,
    kkt_report,
    ppa_unconstrained,
    prox_al,
)
from .proxcone import (
    BoxTerm,
    L1Term,
    NonnegativeTerm,
    SquaredL2Term,
    ZeroTerm,
    dist_polar,
    normal_cone_gap,
    project_dual,
    project_polar,
    project_second_order,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
