"""Reference code the tests check the package against; the package does not use it."""

from dataclasses import dataclass

import numpy as np

from procache import ProactiveAllocation, RatingVector, sample_outcomes
from procache.evaluate import slot_marginal_stats
from procache.shaping import _strictly_inside


@dataclass(frozen=True)
class RequestOutcome:
    """Realized choices for one slot: per user an item in 1..M or 0 for silent."""

    choices: np.ndarray

    def __init__(self, choices):
        arr = np.array(choices, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("choices must be a 1-d user vector")
        if arr.size and (arr.min() < 0):
            raise ValueError("choice codes are 0 (silent) or 1..M")
        arr.setflags(write=False)
        object.__setattr__(self, "choices", arr)


def sample_outcome(profile, slot: int, seed: int, index: int = 0) -> RequestOutcome:
    """The ``index``-th outcome of the slot's stream (see ``sample_outcomes``)."""
    return RequestOutcome(sample_outcomes(profile, slot, seed, index + 1)[:, index])


def slot_load(outcome: RequestOutcome, alloc: ProactiveAllocation, slot: int) -> float:
    """Realized load of one slot under the given requests and allocation."""
    n_users, n_slots, _ = alloc.x.shape
    t = slot % n_slots
    choices = outcome.choices
    if choices.shape[0] != n_users:
        raise ValueError(f"outcome covers {choices.shape[0]} users, allocation {n_users}")
    load = float(alloc.x[:, (t + 1) % n_slots, :].sum())
    req = choices > 0
    for n in np.nonzero(req)[0]:
        m = int(choices[n]) - 1
        load += float(alloc.sizes[m] - alloc.x[n, t, m])
    return load


@dataclass(frozen=True)
class ConditionalProfile:
    """Item preference of one user in one slot given that a request happens."""

    pi: np.ndarray

    def __init__(self, pi):
        arr = np.array(pi, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("conditional profile must be a nonempty vector")
        if np.any(arr < -1e-12) or abs(float(arr.sum()) - 1.0) > 1e-9:
            raise ValueError(f"conditional profile must be a distribution, got sum {arr.sum():.12g}")
        arr.setflags(write=False)
        object.__setattr__(self, "pi", arr)


def conditional(profile, user: int, slot: int) -> ConditionalProfile:
    """The preference of ``user`` in ``slot`` (indices wrap), given a request."""
    t = slot % profile.num_slots
    active = 1.0 - float(profile.silence[user, t])
    if active <= 0.0:
        raise ValueError("conditional profile undefined for an always-silent slot")
    return ConditionalProfile(np.asarray(profile.probs[user, t], dtype=float) / active)


def verify_mapping(v, silence: float) -> np.ndarray:
    """Request probabilities induced by displayed ratings (round-trip check)."""
    arr = RatingVector(v).v
    activity = 1.0 - float(silence)
    if activity <= 0.0:
        return np.zeros_like(arr)
    total = float(arr.sum())
    if total <= 0.0:
        raise ValueError("an active user needs at least one positive rating")
    return activity * arr / total


def marginal_cost_ratio(profile, catalog, cost, cfg) -> np.ndarray:
    """Per-slot ratio E[C'(L_t)] / E[C'(L_{t-1})] at zero allocation.

    A slot whose ratio exceeds 1 is a load peak relative to its predecessor.
    """
    a, _, _, _ = slot_marginal_stats(
        profile, np.zeros_like(profile.probs), catalog.sizes, cost, cfg
    )
    return a / np.roll(a, 1)


def region_contains(region, p, tol: float = 1e-9) -> bool:
    """``p`` lies in the entropy-ball region (to ``tol``)."""
    p = np.asarray(p, dtype=float)
    return (
        bool(np.all(p >= -tol))
        and abs(float(p.sum()) - region.activity) <= max(tol, 1e-12)
        and float(np.linalg.norm(p - region.center)) <= region.radius + tol
    )


def strictly_inside_slice(region) -> bool:
    """True when the region's ball cannot touch a nonnegativity face of the slice."""
    return bool(_strictly_inside(region.center, np.asarray(region.radius)))
