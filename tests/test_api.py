"""The package exports its user-facing API only; the solver steps and the
verifier stay in `thinmarket.nash`, the oracles in `thinmarket.oracles`."""

import importlib
import types

import pytest

import thinmarket

MODULE_LEVEL = {
    "thinmarket.nash": (
        "GeneralSystem",
        "phi",
        "check_extreme_condition",
        "fixed_point_deviation",
        "nash_residuals",
        "solve_bilateral",
        "solve_extreme",
        "solve_general",
    ),
    "thinmarket.oracles": (
        "IterationTrace",
        "McConfig",
        "McEstimate",
        "grid_best_response_share",
        "iterate_best_responses",
        "mc_certainty_equivalent",
    ),
    "thinmarket.best_response": ("response_value_at_share",),
}


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(thinmarket).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(thinmarket.__all__) == sorted(public)


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in MODULE_LEVEL.items() for name in names]
)
def test_module_level_names_import_from_their_modules(module, name):
    assert name not in thinmarket.__all__
    assert hasattr(importlib.import_module(module), name)
