"""Scenario files: a complete experiment input as strict JSON.

A scenario pins the item catalog, the cyclic demand profile (explicit rows
or a generator), the cost family, the evaluation engine, the shaping
budgets, and the seed.  Parsing is strict: unknown keys anywhere are
rejected by name, and cross-field consistency (dimensions, engine versus
cost family) is checked at load time so a bad file fails before any compute.

Schema (all floats unless noted)::

    {
      "sizes": [3, 2, 4]                    # or {"kind": "uniform",
                                            #     "count": 50, "low": 10, "high": 30}
      "slots": 2,                           # optional with explicit profiles
      "profiles": [ [[..M..] per slot] per user ],
      "generator": {"kind": "zipf", "users": 2, "power": 4,
                    "activity": [0.1, 0.9]},   # alternative to "profiles"
      "cost": {"kind": "quadratic"}         # or {"kind": "outage", "mu": 9.8}
                                            # or {"kind": "polynomial", "coeffs": [..]}
      "eval": {"engine": "enumerate", "samples": 0},
      "alpha": 0.2,                         # scalar or per-user list
      "seed": 7
    }

The scenario hash is the sha256 of the canonical (sorted-key) JSON of the
input, so reports can state exactly what they were computed from.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .costs import CostModel
from .demand import DemandProfile, ItemCatalog, zipf_profile
from .evaluate import EvalConfig, UnsupportedEngineError
from .rng import substream

_SIZE_STREAM = (997, 991)  # namespace ids for catalog draws
# Largest array a scenario may ask for, in cells: users x slots x items for
# the profile and allocation, samples x users x slots for Monte Carlo draws.
# A solve holds several such arrays at once, 80 MB each at this limit.
CELL_LIMIT = 10_000_000


class ScenarioError(ValueError):
    """Malformed scenario file; the message names the offending key."""


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"unknown key {key!r} in {where}")


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioError(f"missing key {key!r} in {where}")
    return obj[key]


def _block(data: dict, key: str, default=None) -> dict:
    """The JSON object under ``key``; ``default`` when absent, required when that is None."""
    spec = _need(data, key, "scenario") if default is None else data.get(key, default)
    if not isinstance(spec, dict):
        raise ScenarioError(f"{key!r} must be an object, got {spec!r}")
    return spec


def _has_bool(value) -> bool:
    if isinstance(value, bool):
        return True
    return isinstance(value, list) and any(_has_bool(v) for v in value)


def _numbers(value, key: str) -> np.ndarray:
    """``value`` (a number or nested lists of numbers) as a finite float array."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:   # ragged nesting
        raise ScenarioError(f"{key} must be numbers: {exc}") from exc
    if arr.dtype.kind not in "iuf" or _has_bool(value):   # numpy reads [0.1, true] as floats
        raise ScenarioError(f"{key} must be numbers, got {value!r}")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{key} must be finite")
    return arr


def _number(value, key: str) -> float:
    arr = _numbers(value, key)
    if arr.ndim:
        raise ScenarioError(f"{key} must be a single number")
    return float(arr)


def _integer(value, key: str, minimum: int) -> int:
    """An integral number of at least ``minimum``; bools and fractions are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    if isinstance(value, (float, np.floating)) and not float(value).is_integer():
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ScenarioError(f"{key} must be at least {minimum}, got {value!r}")
    return int(value)


def check_cells(key: str, *dims: int) -> None:
    """Refuse, naming ``key``, input whose arrays would exceed :data:`CELL_LIMIT` cells."""
    cells = int(np.prod(dims, dtype=object))
    if cells > CELL_LIMIT:
        shape = " x ".join(map(str, dims))
        raise ScenarioError(
            f"{key} asks for {shape} = {cells:.3g} cells; the limit is {CELL_LIMIT:g}"
        )


def _refuse_constant(token: str):
    raise ScenarioError(f"not valid JSON: {token} is not a strict JSON number")


@dataclass(frozen=True)
class Scenario:
    catalog: ItemCatalog
    profile: DemandProfile
    cost: CostModel
    cfg: EvalConfig
    alpha: np.ndarray
    seed: int
    source: dict

    @property
    def hash(self) -> str:
        return scenario_hash(self.source)

    def with_users(self, num_users: int) -> "Scenario":
        """The same generator scenario grown or shrunk to ``num_users`` users."""
        if "generator" not in self.source:
            raise ScenarioError("scaling needs a scenario with a 'generator' block")
        data = copy.deepcopy(self.source)
        data["generator"]["users"] = int(num_users)
        return parse_scenario(data)


def scenario_hash(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def parse_scenario(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    _require_keys(
        data,
        {"sizes", "slots", "profiles", "generator", "cost", "eval", "alpha", "seed"},
        "scenario",
    )
    seed = _integer(data.get("seed", 0), "'seed'", 0)

    sizes_spec = _need(data, "sizes", "scenario")
    if isinstance(sizes_spec, dict):
        _require_keys(sizes_spec, {"kind", "count", "low", "high"}, "sizes")
        if _need(sizes_spec, "kind", "sizes") != "uniform":
            raise ScenarioError(f"unknown sizes kind {sizes_spec['kind']!r}")
        count = _integer(_need(sizes_spec, "count", "sizes"), "'count' in sizes", 1)
        check_cells("'count' in sizes", count)
        low = _number(_need(sizes_spec, "low", "sizes"), "'low' in sizes")
        high = _number(_need(sizes_spec, "high", "sizes"), "'high' in sizes")
        if not 0.0 < low <= high:
            raise ScenarioError(f"sizes need 0 < 'low' <= 'high', got low={low}, high={high}")
        sizes = substream(seed, *_SIZE_STREAM).uniform(low, high, size=count)
    else:
        sizes = _numbers(sizes_spec, "'sizes'")
    try:
        catalog = ItemCatalog(sizes)
    except ValueError as exc:
        raise ScenarioError(f"invalid 'sizes': {exc}") from exc

    has_profiles = "profiles" in data
    has_generator = "generator" in data
    if has_profiles == has_generator:
        raise ScenarioError("scenario needs exactly one of 'profiles' or 'generator'")

    if has_profiles:
        probs = _numbers(data["profiles"], "'profiles'")
        if probs.ndim != 3:
            raise ScenarioError("'profiles' must be users x slots x items")
        if probs.shape[2] != catalog.num_items:
            raise ScenarioError(
                f"profiles cover {probs.shape[2]} items, catalog has {catalog.num_items}"
            )
        if "slots" in data and _integer(data["slots"], "'slots'", 1) != probs.shape[1]:
            raise ScenarioError(
                f"'slots' is {data['slots']} but profiles have {probs.shape[1]} slots"
            )
        check_cells("'profiles'", *probs.shape)
        try:
            profile = DemandProfile(probs)
        except ValueError as exc:
            raise ScenarioError(f"invalid profiles: {exc}") from exc
    else:
        gen_spec = _block(data, "generator")
        _require_keys(gen_spec, {"kind", "users", "power", "activity"}, "generator")
        if _need(gen_spec, "kind", "generator") != "zipf":
            raise ScenarioError(f"unknown generator kind {gen_spec['kind']!r}")
        users = _integer(_need(gen_spec, "users", "generator"), "'users' in generator", 1)
        power = _number(_need(gen_spec, "power", "generator"), "'power' in generator")
        activity = np.atleast_1d(
            _numbers(_need(gen_spec, "activity", "generator"), "'activity' in generator")
        )
        if "slots" in data and _integer(data["slots"], "'slots'", 1) != activity.size:
            raise ScenarioError(
                f"'slots' is {data['slots']} but generator lists {activity.size} activities"
            )
        check_cells("'users' in generator", users, activity.size, catalog.num_items)
        try:
            with np.errstate(over="raise", invalid="raise"):   # rank^-power can overflow
                rows = np.stack([zipf_profile(catalog.num_items, power, a) for a in activity])
            profile = DemandProfile(np.broadcast_to(rows, (users,) + rows.shape).copy())
        except (ValueError, FloatingPointError) as exc:
            raise ScenarioError(f"invalid generator: {exc}") from exc

    cost_spec = _block(data, "cost")
    _require_keys(cost_spec, {"kind", "mu", "coeffs"}, "cost")
    kind = _need(cost_spec, "kind", "cost")
    try:
        if kind == "quadratic":
            _require_keys(cost_spec, {"kind"}, "cost")
            cost = CostModel.quadratic()
        elif kind == "outage":
            _require_keys(cost_spec, {"kind", "mu"}, "cost")
            cost = CostModel.outage(_number(_need(cost_spec, "mu", "cost"), "'mu' in cost"))
        elif kind == "polynomial":
            _require_keys(cost_spec, {"kind", "coeffs"}, "cost")
            cost = CostModel.polynomial(
                _numbers(_need(cost_spec, "coeffs", "cost"), "'coeffs' in cost")
            )
        else:
            raise ScenarioError(f"unknown cost kind {kind!r}")
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"invalid cost: {exc}") from exc

    eval_spec = _block(data, "eval", {})
    _require_keys(eval_spec, {"engine", "samples"}, "eval")
    engine = eval_spec.get("engine", "enumerate")
    if not isinstance(engine, str):
        raise ScenarioError(f"'engine' in eval must be a string, got {engine!r}")
    try:
        cfg = EvalConfig(
            engine=engine,
            samples=_integer(eval_spec.get("samples", 0), "'samples' in eval", 0),
            seed=seed,
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid eval config: {exc}") from exc
    if cfg.kernels.sampled:
        check_cells("'samples' in eval", cfg.samples, profile.num_users, profile.num_slots)

    try:
        cfg.kernels.check(profile, cost)
    except UnsupportedEngineError as exc:
        raise ScenarioError(f"engine mismatch: {exc}") from exc

    alpha_spec = _numbers(data.get("alpha", 0.2), "'alpha'")
    try:
        alpha = np.broadcast_to(alpha_spec, (profile.num_users,)).copy()
    except ValueError as exc:
        raise ScenarioError(
            f"'alpha' lists {alpha_spec.size} budgets for {profile.num_users} users"
        ) from exc
    if np.any(alpha < 0):
        raise ScenarioError("alpha must be nonnegative")

    return Scenario(
        catalog=catalog,
        profile=profile,
        cost=cost,
        cfg=cfg,
        alpha=alpha,
        seed=seed,
        source=data,
    )


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            data = json.load(fh, parse_constant=_refuse_constant)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from exc
    return parse_scenario(data)


def save_scenario(data: dict, path) -> None:
    parse_scenario(data)  # refuse to write a file this module cannot read back
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
