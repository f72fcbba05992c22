"""Competitive and noncompetitive (Nash) equilibria of thin risk-sharing
markets with exponential-utility traders and jointly Gaussian payoffs."""

from .analysis import (
    ComparisonReport,
    IncompletenessReport,
    compare,
    incompleteness_effect,
    risk_neutral_limit_du,
)
from .best_response import (
    BestResponseResult,
    OneSidedResult,
    best_response,
    one_sided_equilibrium,
    response_value,
)
from .competitive import EquilibriumOutcome, competitive_equilibrium
from .errors import ConsistencyError, InvalidModelError, ScenarioError
from .model import (
    ExposureProfile,
    MarketModel,
    TraderProfile,
    ValidationResult,
    certainty_equivalent,
    derive_exposures,
    validate_model,
)
from .nash import (
    KIND_BILATERAL,
    KIND_EXTREME,
    KIND_GENERAL,
    KIND_TRIVIAL,
    KIND_UNSUPPORTED,
    NashSolution,
    solve,
)
from .scenario import load_scenario, save_scenario, scenario_from_dict, scenario_to_dict

__version__ = "0.1.0"

__all__ = [
    "BestResponseResult",
    "ComparisonReport",
    "ConsistencyError",
    "EquilibriumOutcome",
    "ExposureProfile",
    "IncompletenessReport",
    "InvalidModelError",
    "KIND_BILATERAL",
    "KIND_EXTREME",
    "KIND_GENERAL",
    "KIND_TRIVIAL",
    "KIND_UNSUPPORTED",
    "MarketModel",
    "NashSolution",
    "OneSidedResult",
    "ScenarioError",
    "TraderProfile",
    "ValidationResult",
    "best_response",
    "certainty_equivalent",
    "compare",
    "competitive_equilibrium",
    "derive_exposures",
    "incompleteness_effect",
    "load_scenario",
    "one_sided_equilibrium",
    "response_value",
    "risk_neutral_limit_du",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "solve",
    "validate_model",
]
