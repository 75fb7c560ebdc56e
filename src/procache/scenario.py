"""Scenario files: a complete experiment input as strict JSON.

A scenario pins the item catalog, the cyclic demand profile (explicit rows
or a generator), the cost family, the evaluation engine, the shaping
budgets, and the seed.  Parsing is strict: unknown keys anywhere are
rejected by name, and cross-field consistency (dimensions, engine versus
cost family, a polynomial cost that overflows a float at the heaviest slot
load, a cost that is 0 or subnormal at the smallest item) is checked at load
time so a bad file fails before any compute.

Schema (all floats unless noted)::

    {
      "sizes": [3, 2, 4]                    # or {"kind": "uniform",
                                            #     "count": 50, "low": 10, "high": 30}
      "slots": 2,                           # optional with explicit profiles
      "profiles": [ [[..M..] per slot] per user class ],
      "counts": [3, 1],                     # optional with profiles: users per
                                            # row, integers in [1, 2**53]
      "generator": {"kind": "zipf", "users": 2, "power": 4,
                    "activity": [0.1, 0.9]},   # alternative to "profiles":
                                               # one class of "users" users
      "cost": {"kind": "quadratic"}         # or {"kind": "outage", "mu": 9.8}
                                            # or {"kind": "polynomial", "coeffs": [..]}
      "eval": {"engine": "enumerate", "samples": 0},
      "alpha": 0.2,                         # scalar or per-user list
      "seed": 7
    }

A profile row stands for ``counts`` identical users (one by default).  A
per-user ``alpha`` list holds one budget per user, in row order; a class
whose users' budgets differ is split into users of their own.  The
:class:`Scenario` holds the profile in the form its engine solves on: the
classes for an engine with :attr:`~procache.evaluate.Engine.classes`,
:meth:`~procache.demand.DemandProfile.expanded` (one row per user)
otherwise.  :data:`CELL_LIMIT` bounds classes x slots x items for the class
form and users x slots x items for the expansion.

The scenario hash is the sha256 of the canonical (sorted-key) JSON of the
input, so reports can state exactly what they were computed from.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from .costs import CostModel
from .demand import MAX_COUNT, DemandProfile, ItemCatalog, zipf_profile
from .evaluate import EvalConfig, UnsupportedEngineError
from .rng import MAX_SEED, substream

_SIZE_STREAM = (997, 991)  # namespace ids for catalog draws
# Largest array a scenario may ask for, in cells: rows x slots x items for
# the profile and allocation (classes for an engine that solves on them,
# users otherwise), samples x users x slots for Monte Carlo draws.
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


def _integer(value, key: str, minimum: int, maximum: int | None = None) -> int:
    """An integral number in [``minimum``, ``maximum``]; bools and fractions are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    if isinstance(value, (float, np.floating)) and not float(value).is_integer():
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ScenarioError(f"{key} must be at least {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ScenarioError(f"{key} must be at most {maximum}, got {value!r}")
    return int(value)


def check_seed(value, key: str) -> int:
    """A seed, an integer in [0, :data:`~procache.rng.MAX_SEED`]; refused naming ``key``."""
    return _integer(value, key, 0, MAX_SEED)


def check_cells(key: str, *dims: int) -> None:
    """Refuse, naming ``key``, input whose arrays would exceed :data:`CELL_LIMIT` cells."""
    cells = int(np.prod(dims, dtype=object))
    if cells > CELL_LIMIT:
        shape = " x ".join(map(str, dims))
        raise ScenarioError(
            f"{key} asks for {shape} = {cells:.3g} cells; the limit is {CELL_LIMIT:g}"
        )


def _counts(value, num_rows: int) -> np.ndarray:
    """The 'counts' list: one integer in [1, 2**53] per profile row."""
    if not isinstance(value, list) or len(value) != num_rows:
        size = len(value) if isinstance(value, list) else "no list"
        raise ScenarioError(f"'counts' must list one user count per profile row "
                            f"({num_rows}), got {size}")
    return np.array([_integer(v, "'counts'", 1, MAX_COUNT) for v in value], dtype=np.int64)


def _users_key(source: dict) -> str:
    """The input that sets the user count, as a cell-limit error names it."""
    return "'users' in generator" if "generator" in source else "'counts'"


def _split_by_alpha(profile: DemandProfile, alpha: np.ndarray):
    """Class rows and per-row budgets from one budget per user: a class whose
    users' budgets differ becomes users of their own."""
    counts = profile.counts
    starts = np.cumsum(counts) - counts
    varies = np.minimum.reduceat(alpha, starts) != np.maximum.reduceat(alpha, starts)
    if not varies.any():
        return profile, alpha[starts]
    reps = np.where(varies, counts, 1)
    counts = np.repeat(np.where(varies, 1, counts), reps)
    rows = DemandProfile(np.repeat(profile.probs, reps, axis=0),
                         np.repeat(profile.silence, reps, axis=0), counts)
    return rows, alpha[np.cumsum(counts) - counts]


def _engine_form(classes: DemandProfile, class_alpha: np.ndarray, cfg: EvalConfig,
                 users_key: str, samples_key: str):
    """The profile and budgets in the form ``cfg``'s engine solves on, checked
    against :data:`CELL_LIMIT`."""
    profile, alpha = classes, class_alpha
    if not (cfg.kernels.classes or classes.per_user):
        check_cells(users_key, classes.num_users, classes.num_slots, classes.num_items)
        profile, alpha = classes.expanded(), np.repeat(class_alpha, classes.counts)
    if cfg.kernels.sampled:
        check_cells(samples_key, cfg.samples, profile.num_users, profile.num_slots)
    return profile, alpha


def _check_float_range(catalog: ItemCatalog, num_users: int, cost: CostModel) -> None:
    """Refuse, naming the keys, a polynomial cost that leaves the float range at
    the heaviest load a plan can put in a slot, ``N (max S + sum S)``: every
    user's largest item plus a prefetch of the whole catalog.  ``L * L`` is
    checked too, since the moments square loads.  Outage costs are left out:
    their trials past ``mu`` raise :class:`~procache.costs.CostDomainError`."""
    if cost.kind == "outage":
        return
    with np.errstate(over="ignore", invalid="ignore"):
        load = float(num_users) * (catalog.sizes.max() + catalog.sizes.sum())
        values = (load * load, cost.cost(load), cost.marginal(load), cost.second(load))
    if not np.all(np.isfinite(values)):
        keys = "'sizes'" + (" and 'coeffs' in cost" if cost.kind == "polynomial" else "")
        raise ScenarioError(f"{keys} overflow a float: at the heaviest slot load a plan can "
                            f"make, N (max S + sum S) = {load:.3g}, the cost is not finite")


def _check_least_cost(catalog: ItemCatalog, cost: CostModel) -> None:
    """Refuse, naming the keys, a cost that is 0 or subnormal at the smallest
    item size: a plan's cost and the solver's stops would then read no
    difference, so a solve ends at once, or stalls, on an unresolved cost.
    Only C is read: C'' can underflow on a valid scenario (outage, mu =
    1e300).  An item at or past an outage capacity is left to the solve,
    which names that load."""
    least = catalog.min_size
    if least >= cost.domain_limit:
        return
    with np.errstate(under="ignore", over="ignore"):   # an overflow is refused later, by load
        value = cost.cost(least)
    if not value >= np.finfo(float).tiny:
        keys = "'sizes'" + {"outage": " and 'mu' in cost",
                            "polynomial": " and 'coeffs' in cost"}.get(cost.kind, "")
        raise ScenarioError(f"{keys} underflow a float: the cost of the smallest item, "
                            f"C({least:.3g}) = {value:.3g}, is zero or subnormal")


def _refuse_constant(token: str):
    raise ScenarioError(f"not valid JSON: {token} is not a strict JSON number")


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario.  ``profile`` and ``alpha`` (one budget per row) are
    in the form ``cfg``'s engine solves on; ``classes`` and ``class_alpha``
    are the class form they come from."""

    catalog: ItemCatalog
    profile: DemandProfile
    cost: CostModel
    cfg: EvalConfig
    alpha: np.ndarray
    seed: int
    source: dict
    classes: DemandProfile
    class_alpha: np.ndarray

    @property
    def hash(self) -> str:
        return scenario_hash(self.source)

    def with_eval(self, engine=None, samples=None, seed=None) -> "Scenario":
        """The scenario under the command line's ``--engine``, ``--samples`` and
        ``--seed`` overrides; ``None`` keeps a field.

        The profile and budgets are rebuilt in the form the new engine solves
        on.  A sample count past :data:`CELL_LIMIT` is refused naming
        ``--samples``.  Overrides that change no field return the scenario
        itself, so its profile, and the draws kept on it, are not rebuilt.
        """
        changes = {"engine": engine, "samples": samples, "seed": seed}
        cfg = replace(self.cfg, **{key: v for key, v in changes.items() if v is not None})
        if cfg == self.cfg:
            return self
        profile, alpha = _engine_form(self.classes, self.class_alpha, cfg,
                                      _users_key(self.source), "--samples")
        return replace(self, cfg=cfg, profile=profile, alpha=alpha)

    def check_per_user(self) -> None:
        """Refuse, past :data:`CELL_LIMIT`, a plan :meth:`per_user` would expand."""
        check_cells(_users_key(self.source), self.profile.num_users, *self.profile.probs.shape[1:])

    def per_user(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` (one per row of ``profile``) repeated once per user of its
        class, refused past :data:`CELL_LIMIT` (:meth:`check_per_user`)."""
        if self.profile.per_user:
            return rows
        self.check_per_user()
        return np.repeat(rows, self.profile.counts, axis=0)

    def with_users(self, num_users: int) -> "Scenario":
        """The same generator scenario grown or shrunk to ``num_users`` users.

        The point is derived, not re-parsed: it keeps the catalog, cost,
        evaluation config (a :meth:`with_eval` override included), seed and
        the generator's class row, and only the checks that depend on the
        user count run again (:func:`_at_users`, shared with
        :func:`parse_scenario`), so it equals the parse of the source with
        ``users`` edited.  The source is copied, not edited.
        """
        if "generator" not in self.source:
            raise ScenarioError("scaling needs a scenario with a 'generator' block")
        users = int(num_users)
        data = dict(self.source, generator=dict(self.source["generator"], users=users))
        return _at_users(data, self.catalog, self.classes, self.cost, self.cfg, self.seed, users)


def scenario_hash(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def parse_scenario(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    _require_keys(
        data,
        {"sizes", "slots", "profiles", "counts", "generator", "cost", "eval", "alpha", "seed"},
        "scenario",
    )
    seed = check_seed(data.get("seed", 0), "'seed'")

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

    users = None
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
        counts = _counts(data["counts"], probs.shape[0]) if "counts" in data else None
        try:
            profile = DemandProfile(probs, counts=counts)
        except ValueError as exc:
            raise ScenarioError(f"invalid profiles: {exc}") from exc
    else:
        if "counts" in data:
            raise ScenarioError("'counts' goes with 'profiles'; a generator sets 'users'")
        gen_spec = _block(data, "generator")
        _require_keys(gen_spec, {"kind", "users", "power", "activity"}, "generator")
        if _need(gen_spec, "kind", "generator") != "zipf":
            raise ScenarioError(f"unknown generator kind {gen_spec['kind']!r}")
        users = _need(gen_spec, "users", "generator")
        power = _number(_need(gen_spec, "power", "generator"), "'power' in generator")
        activity = np.atleast_1d(
            _numbers(_need(gen_spec, "activity", "generator"), "'activity' in generator")
        )
        if "slots" in data and _integer(data["slots"], "'slots'", 1) != activity.size:
            raise ScenarioError(
                f"'slots' is {data['slots']} but generator lists {activity.size} activities"
            )
        try:
            with np.errstate(over="raise", invalid="raise"):   # rank^-power can overflow
                rows = np.stack([zipf_profile(catalog.num_items, power, a) for a in activity])
            profile = DemandProfile(rows[None])
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
    _check_least_cost(catalog, cost)

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

    return _at_users(data, catalog, profile, cost, cfg, seed, users)


def _at_users(data: dict, catalog: ItemCatalog, profile: DemandProfile, cost: CostModel,
              cfg: EvalConfig, seed: int, users=None) -> Scenario:
    """The part of a parse that depends on the user count: a generator's
    ``users`` bound, the float-range check, the budgets, the cell limits,
    the engine's form and its guard.  :func:`parse_scenario` ends here, and
    :meth:`Scenario.with_users` runs only this.  With ``users`` given,
    ``profile``'s first row (every row of a generator's classes is the
    same) becomes one class of that many users; its probabilities and
    silence are kept as they are, so a renormalized row is not redone."""
    if users is not None:
        users = _integer(users, "'users' in generator", 1, MAX_COUNT)
        profile = DemandProfile(profile.probs[:1], profile.silence[:1], counts=[users])
    _check_float_range(catalog, profile.num_users, cost)

    alpha_spec = _numbers(data.get("alpha", 0.2), "'alpha'")
    if alpha_spec.ndim == 0 or alpha_spec.shape == (1,):
        class_alpha = np.full(profile.num_classes, float(alpha_spec.reshape(-1)[0]))
    elif alpha_spec.shape == (profile.num_users,):
        profile, class_alpha = _split_by_alpha(profile, alpha_spec)
    else:
        raise ScenarioError(
            f"'alpha' lists {alpha_spec.size} budgets for {profile.num_users} users"
        )
    if np.any(class_alpha < 0):
        raise ScenarioError("alpha must be nonnegative")
    users_key = _users_key(data)
    check_cells(users_key, *profile.probs.shape)
    engine_profile, alpha = _engine_form(profile, class_alpha, cfg, users_key,
                                         "'samples' in eval")

    try:
        cfg.kernels.check(engine_profile, cost)
    except UnsupportedEngineError as exc:
        raise ScenarioError(f"engine mismatch: {exc}") from exc

    return Scenario(
        catalog=catalog,
        profile=engine_profile,
        cost=cost,
        cfg=cfg,
        alpha=alpha,
        seed=seed,
        source=data,
        classes=profile,
        class_alpha=class_alpha,
    )


def read_json(path):
    """A JSON file's value; malformed JSON or a ``NaN`` or infinity token raises ScenarioError."""
    with open(path) as fh:
        try:
            return json.load(fh, parse_constant=_refuse_constant)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from exc


def load_scenario(path) -> Scenario:
    return parse_scenario(read_json(path))


def parse_rating_inputs(shaped, ratings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``recommend``'s inputs: the shaped ``profiles`` (N, T, M) and ``silence``
    (N, T), and the intrinsic rating ``rows`` (N, M), every entry in [0, 1] and each
    (user, slot) profile summing with its silence to 1."""
    if not (isinstance(shaped, dict) and isinstance(ratings, dict)):
        raise ScenarioError("the profile and ratings files must each hold a JSON object")
    probs, silence, rows = (
        _numbers(_need(doc, key, where), repr(key))
        for doc, key, where in ((shaped, "profiles", "profile file"),
                                (shaped, "silence", "profile file"),
                                (ratings, "rows", "ratings file")))
    if probs.ndim != 3:
        raise ScenarioError(f"'profiles' must nest users, slots and items; got {probs.shape}")
    for key, arr, want, what in (("silence", silence, probs.shape[:2], "users x slots"),
                                 ("rows", rows, probs.shape[::2], "rating rows, one per user")):
        if arr.shape != want:
            raise ScenarioError(f"{key!r} must hold {what}, {want}; got {arr.shape}")
    for key, arr in (("profiles", probs), ("silence", silence), ("rows", rows)):
        if not np.all((arr >= -1e-12) & (arr <= 1.0 + 1e-12)):
            raise ScenarioError(f"{key!r} entries must lie in [0, 1]")
    off = np.argwhere(np.abs(probs.sum(-1) - (1.0 - silence)) > 1e-9)
    if off.size:
        n, t = map(int, off[0])
        raise ScenarioError(f"'profiles' and 'silence' of user {n}, slot {t} must sum to 1 "
                            f"(to 1e-9), got {probs[n, t].sum() + silence[n, t]:.12g}")
    return probs, silence, rows


def save_scenario(data: dict, path) -> None:
    parse_scenario(data)  # refuse to write a file this module cannot read back
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
