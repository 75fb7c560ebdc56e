"""Proactive content delivery under cyclic demand.

Plan-ahead downloads that move predictable peak traffic into quiet slots,
demand shaping within per-user entropy budgets, and the rating vectors that
realize a shaped demand through proportional choice.
"""

__version__ = "0.1.0"

from .costs import CostDomainError, CostModel
from .demand import (
    DemandProfile,
    ItemCatalog,
    Violation,
    entropy,
    sample_outcomes,
    validate_profile,
    zipf_profile,
)
from .evaluate import (
    EvalConfig,
    EvalResult,
    ProactiveAllocation,
    UnsupportedEngineError,
    cost_gradient_p,
    cost_gradient_x,
    cost_hess_vec,
    expected_cycle_cost,
    nonproactive_cost,
)
from .proactive import (
    ActiveSets,
    CostReductionReport,
    PolicyAResult,
    ScalingCurve,
    SolveResult,
    active_sets,
    marginal_cost_ratio,
    policy_a,
    reduction_bounds,
    scaling_curve,
    solve_proactive,
)
from .recommend import (
    RatingResult,
    RatingVector,
    solve_rating,
    verify_mapping,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario, save_scenario
from .shaping import (
    BoundaryReport,
    EBCRegion,
    ShapeResult,
    ShapingDescentError,
    ShapingTrace,
    boundary_check,
    ebc_regions,
    fully_flexible_optimum,
    shape_demand,
)

__all__ = [name for name in dir() if not name.startswith("_")]
