"""Solvers for Max-Cut and Max k-Lin with noisy oracle advice."""

from .advice import (
    LabelAdvice,
    SubsetAdvice,
    empirical_correlation,
    gen_label_advice,
    gen_subset_advice,
    subset_to_label,
)
from .enumeration import INNER_SOLVERS, enumerate_solve, projected_runs
from .errors import (
    AdviceCspError,
    BudgetError,
    ConstructionError,
    InputError,
    InternalError,
    ParseError,
)
from .instances import (
    GraphInstance,
    KLinInstance,
    PlantedInstance,
    QpMatrix,
    cut_value,
    evaluate,
    graph_to_klin,
    plant_bipartite_regular,
    plant_klin,
    quadratic_identity_value,
    satisfied_mask,
    to_quadratic_matrix,
)
from .lp import LinearProgram, LpOutcome, solve_lp
from .max3lin import (
    Max3LinResult,
    ReducedInstance,
    build_psi,
    classify_constraints,
    solve_max3lin_with_advice,
)
from .maxcut import (
    MaxCutParams,
    MaxCutResult,
    compute_deltas,
    solve_maxcut_with_advice,
    split_vertices,
)
from .qp_advice import (
    advice_objective,
    greedy_round,
    maximize_concave,
    solve_2lin_with_advice,
    solve_qp_with_advice,
)
from .reduce4lin import FourLinLift, lift_assignment, project_assignment, three_to_four_lin
from .twolin_sdp import TwoLinConfig, UnitEmbedding, homogenize, solve_2lin

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
