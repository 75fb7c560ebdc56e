"""Shared fixtures: the two-user pilot instance, cost models, engine configs."""

import numpy as np
import pytest

from procache import CostModel, DemandProfile, EvalConfig, ItemCatalog, parse_scenario
from procache.experiments import OUTAGE_CAPACITY, two_user_scenario_dict


def two_user_pair(p_peak=0.9):
    """(catalog, profile) of the two-user study at the given peak activity."""
    scn = parse_scenario(two_user_scenario_dict(p_peak, "quadratic"))
    return scn.catalog, scn.profile


@pytest.fixture
def two_user():
    """Two users, three items, a quiet slot before a 0.9-activity peak."""
    return two_user_pair(0.9)


@pytest.fixture
def quad():
    return CostModel.quadratic()


@pytest.fixture
def outage():
    return CostModel.outage(OUTAGE_CAPACITY)


@pytest.fixture
def enum_cfg():
    return EvalConfig(engine="enumerate")


@pytest.fixture
def analytic_cfg():
    return EvalConfig(engine="analytic_quadratic")


@pytest.fixture
def mc_cfg():
    def make(samples, seed=0):
        return EvalConfig(engine="monte_carlo", samples=samples, seed=seed)

    return make


@pytest.fixture
def tiny():
    """One user, one size-3 item, an idle slot before a 0.9 request peak."""
    catalog = ItemCatalog([3.0])
    probs = np.zeros((1, 2, 1))
    probs[0, 1, 0] = 0.9
    return catalog, DemandProfile(probs)


def random_instance(rng):
    """Small random instance; the leftover Dirichlet column is the silence."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    t = int(rng.integers(1, 4))
    sizes = rng.uniform(0.5, 3.0, size=m)
    raw = rng.uniform(0.0, 1.0, size=(n, t, m + 1))
    raw /= raw.sum(axis=2, keepdims=True)
    return ItemCatalog(sizes), DemandProfile(raw[:, :, 1:])


def cost_for(kind, num_users, num_slots, sizes):
    """Cost of the given kind with its capacity clear of every base load."""
    if kind == "quadratic":
        return CostModel.quadratic()
    if kind == "outage":
        return CostModel.outage(1.2 * num_users * float(np.max(sizes)) * num_slots + 2.0)
    return CostModel.polynomial([0.0, 0.3, 0.1, 0.05])
