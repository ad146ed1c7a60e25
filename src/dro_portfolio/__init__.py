"""Distributionally robust growth-optimal portfolios.

A concave separable utility is outer-approximated by error-certified
tangent planes, turning each rebalance of the worst-case Kelly problem
over a polyhedral probability family into one linear program.
"""

from .ambiguity import (
    InfeasibleAmbiguityError,
    PolyhedralAmbiguitySet,
    contains,
    from_gamma,
)
from .backtest import (
    AccountPath,
    BacktestConfig,
    BacktestError,
    PerformanceReport,
    account_step,
    benchmark_buy_and_hold,
    metrics,
    run,
)
from .data import (
    OrderingError,
    ParseError,
    PriceSeries,
    ReturnMatrix,
    ScenarioSet,
    append_risk_free,
    build_scenario_set,
    compute_returns,
    interpolate_missing,
    load_prices,
)
from .partition import (
    BracketError,
    ErrorBudget,
    HyperplaneFamily,
    NumericalError,
    Partition,
    build_family,
    build_hyperplanes,
    build_partition,
    certify_error,
    crossing_point,
    next_point_general,
    next_point_log,
    removal_experiment,
    tangency_residual,
    tangent_error,
)
from .robust_lp import (
    AssemblyError,
    DecisionLayout,
    LpSolution,
    RobustLpModel,
    SolutionStatusError,
    TradingConstraintSet,
    assemble,
    extract_weights,
    solve,
)
from .oracle import (
    ComplexityError,
    concavity_probe,
    duality_gap,
    exact_small_solve,
    survival_probe,
)
from .utility import SeparableUtility, UtilityDomainError

__version__ = "0.1.0"
