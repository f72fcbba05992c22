"""Scenario files and report documents.

Scenarios and reports are JSON with a fixed, canonical field order and full
decimal precision, so parse -> serialize round-trips are value-identical and
identical inputs produce byte-identical reports.  Non-finite numbers never
appear as bare numerals: an infinite elasticity is the quoted token "inf".
"""

from __future__ import annotations

import json
import math
from typing import Any, Sequence

from .errors import ScenarioError
from .model import MarketModel

SCHEMA_VERSION = "1"
INF_TOKEN = "inf"


def _number(value, field: str, message: str = "must be a number") -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(field, message)
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(field, "is too large for a float")


def _require(mapping: dict, field: str, kind, path: str):
    if field not in mapping:
        raise ScenarioError(f"{path}{field}", "missing")
    value = mapping[field]
    if kind is float:
        return _number(value, f"{path}{field}")
    if not isinstance(value, kind):
        raise ScenarioError(f"{path}{field}", f"must be of type {kind.__name__}")
    return value


def _number_list(values, field: str) -> list[float]:
    if not isinstance(values, list) or not values:
        raise ScenarioError(field, "must be a non-empty array of numbers")
    return [_number(v, field, "must contain numbers only") for v in values]


def scenario_from_dict(data: Any) -> MarketModel:
    if not isinstance(data, dict):
        raise ScenarioError("(root)", "scenario must be a JSON object")
    version = _require(data, "schema_version", str, "")
    if version != SCHEMA_VERSION:
        raise ScenarioError("schema_version", f"unrecognized version {version!r}")

    raw_cov = _require(data, "securities_cov", list, "")
    rows = [_number_list(row, f"securities_cov[{i}]") for i, row in enumerate(raw_cov)]
    width = len(rows[0]) if rows else 0
    if not rows or any(len(r) != width for r in rows):
        raise ScenarioError("securities_cov", "matrix rows are ragged")
    if len(rows) != width:
        raise ScenarioError("securities_cov", "matrix must be square")

    raw_traders = _require(data, "traders", list, "")
    if len(raw_traders) < 1:
        raise ScenarioError("traders", "must be a non-empty array")
    deltas, cov_rows, means, variances = [], [], [], []
    for i, item in enumerate(raw_traders):
        if not isinstance(item, dict):
            raise ScenarioError(f"traders[{i}]", "must be an object")
        path = f"traders[{i}]."
        deltas.append(_require(item, "delta", float, path))
        cov_es = _number_list(_require(item, "cov_es", list, path), f"{path}cov_es")
        if len(cov_es) != width:
            raise ScenarioError(
                f"{path}cov_es", f"length {len(cov_es)} does not match matrix size {width}"
            )
        cov_rows.append(cov_es)
        means.append(_number(item.get("endowment_mean", 0.0), f"{path}endowment_mean"))
        variances.append(_number(item.get("endowment_var", 0.0), f"{path}endowment_var"))

    total = data.get("total_endowment_var")
    if total is not None:
        total = _number(total, "total_endowment_var")
    try:
        return MarketModel(
            securities_cov=rows,
            total_endowment_var=total,
            deltas=deltas,
            cov_matrix_rows=cov_rows,
            endowment_means=means,
            endowment_vars=variances,
        )
    except ValueError as exc:
        raise ScenarioError("(model)", str(exc))


def load_scenario(path) -> MarketModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        # malformed JSON, bytes that are not UTF-8, or nesting deeper than
        # the decoder's recursion limit
        except (ValueError, RecursionError) as exc:
            raise ScenarioError("(json)", f"not valid JSON: {exc}") from None
    return scenario_from_dict(data)


def scenario_to_dict(model: MarketModel) -> dict:
    columns = (model.deltas, model.cov_matrix_rows, model.endowment_means, model.endowment_vars)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "securities_cov": model.securities_cov.tolist(),
        "traders": [
            {"delta": delta, "cov_es": cov_es, "endowment_mean": mean, "endowment_var": var}
            for delta, cov_es, mean, var in zip(*(column.tolist() for column in columns))
        ],
    }
    if model.total_endowment_var is not None:
        doc["total_endowment_var"] = float(model.total_endowment_var)
    return doc


def save_scenario(model: MarketModel, path) -> None:
    write_report(scenario_to_dict(model), path)


def elasticity_token(theta: float):
    return INF_TOKEN if math.isinf(theta) else theta


def build_report(
    model: MarketModel,
    violations: Sequence[str],
    exposures=None,
    competitive=None,
    nash=None,
    comparison=None,
    incompleteness=None,
) -> dict:
    """Assemble the full analysis document from the model's violations (none
    for a valid model) and the stages that ran; blocks for stages that did not
    run are simply absent."""
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario_to_dict(model),
        "validation": {"ok": not violations, "violations": list(violations)},
    }
    if exposures is not None:
        doc["exposures"] = {
            "a": exposures.a.tolist(),
            "a_total": exposures.a_total.tolist(),
            "beta": None if exposures.beta is None else exposures.beta.tolist(),
            "lambda": exposures.lam.tolist(),
            "delta_total": float(exposures.delta_total),
            "aggregate_market_variance": float(exposures.aggregate_market_variance),
            "is_trivial": bool(exposures.is_trivial),
            "autarky_utilities": exposures.u.tolist(),
        }
    if competitive is not None:
        doc["competitive"] = _outcome_block(competitive, exposures)
    if nash is not None:
        block: dict[str, Any] = {"kind": nash.kind}
        if nash.thetas is not None:
            block["elasticities"] = [elasticity_token(t) for t in nash.thetas.tolist()]
            block["theta_total"] = elasticity_token(float(nash.thetas.sum()))
            block["k_shares"] = nash.k_shares.tolist()
        if nash.outcome is not None:
            block.update(_outcome_block(nash.outcome, exposures))
        if nash.residuals is not None:
            block["residuals"] = nash.residuals.tolist()
        if nash.detail is not None:
            block["detail"] = nash.detail
        doc["nash"] = block
    if comparison is not None:
        block = {
            "du": comparison.du.tolist(),
            "inefficiency": float(comparison.inefficiency),
            "premium_competitive": competitive.premium.tolist(),
            "premium_nash": nash.outcome.premium.tolist(),
            "payoff_gain_competitive": competitive.payoff_gain.tolist(),
            "payoff_gain_nash": nash.outcome.payoff_gain.tolist(),
        }
        if comparison.L is not None:
            block["L"] = float(comparison.L)
        doc["comparison"] = block
    if incompleteness is not None:
        doc["incompleteness"] = {
            "du": comparison.du.tolist(),
            "du_complete": incompleteness.du_complete.tolist(),
            "du_gap": incompleteness.du_gap.tolist(),
            "aggregate_gap": float(incompleteness.aggregate_gap),
            "competitive_sq_gain": incompleteness.competitive_sq_gain.tolist(),
            "competitive_sq_gain_complete": incompleteness.competitive_sq_gain_complete.tolist(),
            "competitive_sq_gain_gap": incompleteness.competitive_sq_gain_gap.tolist(),
        }
    return doc


def _outcome_block(outcome, exposures) -> dict:
    return {
        "prices": outcome.prices.tolist(),
        "allocations": outcome.allocations.tolist(),
        "post_beta": outcome.post_beta.tolist(),
        "beta_defined": not exposures.is_trivial,
        "utilities": outcome.utilities.tolist(),
        "premium": outcome.premium.tolist(),
    }


def document_json(doc: dict) -> str:
    """Deterministic rendering: insertion-ordered keys, two-space indent,
    shortest round-trip float repr, trailing newline."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_report(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document_json(doc))
