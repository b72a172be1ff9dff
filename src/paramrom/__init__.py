"""Reduced order models of two-parameter linear systems.

Pipeline: assemble a problem in split form, generate snapshot lines with
a shift-invert Arnoldi sweep (one factorization per line), compress the
snapshot tensor with a greedy rank-one decomposition, spline the mode
profiles, and evaluate or invert the resulting model anywhere in the
parameter box.
"""

from .chebyshev import (ChebyshevOperator, ChebyshevSeries, CompanionPencil,
                        chebyshev_fit)
from .errors import (AnchorOffGridError, NoConvergenceError,
                     NodeNotMemberError, OutOfRangeError, ParamRomError,
                     SingularMatrixError, SingularShiftError,
                     ZeroReferenceError)
from .estimate import (EstimationRun, add_noise, estimate_parameters,
                       refine_estimate)
from .hopgd import (NodeSet, SeparatedModel, SnapshotTensor, decompose,
                    eval_at_node, full_grid_nodes, load_model, node_residual,
                    save_model, sparse_cross_nodes)
from .krylov import ShiftedKrylov, SnapshotLine, default_sigma, snapshot_sweep
from .linalg import (CubicSpline, LUFactorization, factorization_count,
                     sparse_from_triplets, triangular_solve_count)
from .problems import (ParamFunction, SplitProblem, advection_diffusion_1d,
                       assemble, direct_reference_solve, helmholtz_2d,
                       load_problem, save_problem)
from .rom import (InterpolatedModel, classify_error, error_grid,
                  interpolate_model, relative_error, write_error_grid_csv)

__version__ = "0.1.0"

__all__ = [
    "AnchorOffGridError", "ChebyshevOperator", "ChebyshevSeries",
    "CompanionPencil", "CubicSpline", "EstimationRun", "InterpolatedModel",
    "LUFactorization", "NoConvergenceError", "NodeSet", "NodeNotMemberError",
    "OutOfRangeError", "ParamFunction", "ParamRomError", "SeparatedModel",
    "ShiftedKrylov", "SingularMatrixError", "SingularShiftError",
    "SnapshotLine", "SnapshotTensor", "SplitProblem", "ZeroReferenceError",
    "add_noise", "advection_diffusion_1d", "assemble", "chebyshev_fit",
    "classify_error", "decompose", "default_sigma", "direct_reference_solve",
    "error_grid", "estimate_parameters", "eval_at_node",
    "factorization_count", "full_grid_nodes", "helmholtz_2d",
    "interpolate_model", "load_model", "load_problem", "node_residual",
    "refine_estimate", "relative_error", "save_model", "save_problem",
    "snapshot_sweep", "sparse_cross_nodes", "sparse_from_triplets",
    "triangular_solve_count", "write_error_grid_csv",
]
