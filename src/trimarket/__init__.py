"""Self-scheduling for a virtual power plant trading electricity, RECs and CERs.

The pieces compose in one direction: build a ``VppConfig`` plus
``MarketData``, validate them into a model, assemble the QP, solve it,
then recover the dispatch plan and named shadow prices.  ``run_scenario``
does the whole chain in one call; the ``trimarket`` command line wraps it
with file formats and charts.
"""

__version__ = "0.1.0"

from .model import (
    DispatchPlan,
    EssParams,
    InventoryParams,
    MarketData,
    ModelWarning,
    PolicyParams,
    QpProblem,
    TgParams,
    TradeCaps,
    ValidatedModel,
    ValidationError,
    VppConfig,
    assemble_qp,
    default_config,
    plan_to_vector,
    quota_cap,
    recover_plan,
    validate_config,
    variable_layout,
)
from .qp import (
    SolverSettings,
    Solution,
    diagnose_infeasibility,
    kkt_residuals,
    solve_qp,
)
from .analysis import (
    AffineReport,
    CaseTable,
    NamedDuals,
    PropertyReport,
    affine_sensitivity,
    classify_cer_trading,
    classify_rec_trading,
    check_no_simultaneous_flow,
    core_reports,
    envelope_check,
    named_duals,
    rps_priority_check,
    solve_for_param,
)
from .scenarios import (
    InfeasibleError,
    InventoryMatrixResult,
    RevenueBreakdown,
    ScenarioResult,
    SolveFailure,
    SweepResult,
    SynthSpec,
    inventory_matrix,
    parameter_sweep,
    run_scenario,
    synth_data,
)
from .config_io import (
    ConfigError,
    load_config,
    load_market_csv,
    parse_config_text,
    save_config,
    save_market_csv,
)

__all__ = [
    "__version__",
    "DispatchPlan", "EssParams", "InventoryParams", "MarketData", "ModelWarning",
    "PolicyParams", "QpProblem", "TgParams", "TradeCaps", "ValidatedModel",
    "ValidationError", "VppConfig", "assemble_qp", "default_config",
    "plan_to_vector", "quota_cap", "recover_plan", "validate_config", "variable_layout",
    "SolverSettings", "Solution", "diagnose_infeasibility", "kkt_residuals", "solve_qp",
    "AffineReport", "CaseTable", "NamedDuals", "PropertyReport",
    "affine_sensitivity", "classify_cer_trading", "classify_rec_trading",
    "check_no_simultaneous_flow", "core_reports", "envelope_check", "named_duals",
    "rps_priority_check", "solve_for_param",
    "InfeasibleError", "InventoryMatrixResult", "RevenueBreakdown", "ScenarioResult",
    "SolveFailure", "SweepResult", "SynthSpec", "inventory_matrix",
    "parameter_sweep", "run_scenario", "synth_data",
    "ConfigError", "load_config", "load_market_csv", "parse_config_text",
    "save_config", "save_market_csv",
]
