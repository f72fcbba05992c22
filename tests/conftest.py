"""Shared instance generators.

Targeted-beta construction: a_i = beta_i a_I + w_i with the noise w_i
C-orthogonal to a_I and summing to zero across traders, so the requested betas
are exact while the hedge portfolios stay generic.
"""

from dataclasses import replace

import numpy as np
import pytest

from thinmarket import MarketModel, TraderProfile, derive_exposures
from thinmarket.nash import GeneralSystem


def spd_matrix(rng, k):
    a = rng.normal(size=(k, k))
    return a @ a.T + (0.4 + 0.1 * k) * np.eye(k)


def model_from_betas(
    rng,
    betas,
    deltas,
    n_securities=1,
    market_variance=None,
    noise=0.5,
    with_total_var=False,
):
    betas = np.asarray(betas, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    assert abs(betas.sum() - 1.0) < 1e-9, "betas must sum to one"
    n = betas.size
    if market_variance is None:
        market_variance = float(rng.uniform(0.3, 3.0))

    if n_securities == 1:
        cov = np.array([[1.0]])
        a_total = np.array([np.sqrt(market_variance)])
        w = np.zeros((n, 1))
    else:
        cov = spd_matrix(rng, n_securities)
        raw = rng.normal(size=n_securities)
        a_total = raw / np.sqrt(raw @ cov @ raw) * np.sqrt(market_variance)
        w = rng.normal(size=(n, n_securities)) * noise
        cov_at = cov @ a_total
        w -= np.outer(w @ cov_at / market_variance, a_total)
        w -= w.mean(axis=0)

    a = betas[:, None] * a_total + w
    total = None
    eps_var = 0.0
    unspanned = 0.0
    if with_total_var:
        # jointly consistent construction: E_i = <a_i, S> + beta_i Z + eps_i
        # with Z independent of S and the eps_i summing to zero, so that
        # Var(E_I) = total and Cov(E_i, E_I) = beta_i * total exactly
        unspanned = market_variance * float(rng.uniform(0.1, 1.5))
        total = market_variance + unspanned
        eps_var = float(rng.uniform(0.0, 1.0)) * (1.0 - 1.0 / n)
    traders = []
    for i in range(n):
        cov_es = cov @ a[i]
        own = float(a[i] @ cov_es)
        if with_total_var:
            endow_var = own + betas[i] ** 2 * unspanned + eps_var
        else:
            endow_var = own * (1.0 + float(rng.uniform(0.0, 1.0)))
        traders.append(
            TraderProfile(
                delta=float(deltas[i]),
                cov_endowment_securities=cov_es,
                endowment_mean=float(rng.normal()),
                endowment_var=endow_var,
            )
        )
    return MarketModel(securities_cov=cov, traders=tuple(traders), total_endowment_var=total)


def point_model(model, g):
    """Grid point g of a model from MarketModel.stacked, as one market built
    from the stacked columns' row g."""
    return replace(
        model,
        deltas=model.deltas[g],
        cov_matrix_rows=model.cov_matrix_rows[g],
        endowment_means=model.endowment_means[g],
        endowment_vars=model.endowment_vars[g],
    )


def follower_system(deltas, betas):
    """A GeneralSystem whose followers have the given risk tolerances and
    betas (each beta in (-1, 1]), in order: its leader, a first trader with
    beta 2, takes no part in follower_thetas."""
    return GeneralSystem(np.r_[1.0, deltas], np.r_[2.0, betas])


def constrained_betas(rng, n, low=-1.8, high=0.9):
    """Random betas summing to one with at most one exceeding one."""
    rest = rng.uniform(low, high, size=n - 1)
    betas = np.concatenate([[1.0 - rest.sum()], rest])
    rng.shuffle(betas)
    return betas


def unconstrained_betas(rng, n, low=-2.5, high=2.0):
    """Random betas summing to one, any number may exceed one."""
    rest = rng.uniform(low, high, size=n - 1)
    betas = np.concatenate([[1.0 - rest.sum()], rest])
    rng.shuffle(betas)
    return betas


def random_deltas(rng, n):
    return rng.uniform(0.2, 5.0, size=n)


def bilateral_model(rng, margin=0.05, n_securities=1, **kwargs):
    """Two traders inside the non-extreme region with the given margin."""
    deltas = random_deltas(rng, 2)
    lam0 = deltas[0] / deltas.sum()
    beta0 = rng.uniform(-lam0 + margin, 2.0 - lam0 - margin)
    return model_from_betas(
        rng, [beta0, 1.0 - beta0], deltas, n_securities=n_securities, **kwargs
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def two_trader_exposures():
    """The worked single-security instance: a = (1.5, -0.5), deltas (1, 1)."""
    model = MarketModel(
        securities_cov=np.array([[1.0]]),
        traders=(
            TraderProfile(1.0, np.array([1.5]), endowment_mean=1.0, endowment_var=3.0),
            TraderProfile(1.0, np.array([-0.5]), endowment_mean=0.0, endowment_var=1.0),
        ),
    )
    return derive_exposures(model)
