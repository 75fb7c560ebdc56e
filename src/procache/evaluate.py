"""Cycle-cost evaluation and gradients under proactive downloads.

With allocation ``x[n, t, m]`` (portion of item m delivered to user n ahead
of slot t, bounded by the item size), the load of slot ``t`` is

    Y_t = sum_n (S(m_n) - x[n, t, m_n]) * [n requests m_n in t]
        + sum_{n, m} x[n, t+1, m]

where the second term is the proactive traffic sent during ``t`` and indices
wrap modulo T.  The cycle objective is the slot average of ``E[C(Y_t)]``.

Three interchangeable engines evaluate the expectations.  Each is one
:class:`Engine` record, a guard and four kernels (value, marginal costs,
probability gradient and the curvature kernel behind
:func:`cost_hess_vec`), and
:attr:`EvalConfig.kernels` is the one place the engine name is looked up.
The kernels work on :class:`Tables`, all slots batched in the profile's own
(N, T, M) layout; a one-slot slice is the batch of one.

* ``enumerate``: exact product-form enumeration, feasible while
  ``(M+1)^N <= 1e7`` per slot.  Each user's axis holds only the choices it
  makes with positive probability, so a slot's joint outcome grid spans its
  reachable support, at most (M+1)^N outcomes.  Slots whose users have equal
  numbers of such choices share one grid of shape (B, outcomes), user 0 the
  slowest axis, with at most 1e7 outcomes per batch.  The value, ``E[C'(Y)]``
  and the per-(user, item) ``E[I C'(Y)]`` all come from that grid: the last
  is the axis-n marginal of ``P C'(Y)``, since ``P(c) = prod_n w[n, c_n]``.
  The curvature kernel takes the same marginals of ``P C''(Y) dY``.  The
  probability gradient builds one grid per user, that user's every
  choice against the other users' support.
* ``analytic_quadratic``: closed-form first/second moments, valid only for
  polynomial costs of degree <= 2, where ``C''`` is constant;
* ``monte_carlo``: seeded counter-based sampling with reported standard
  errors; estimates are reproducible bit-for-bit for a given seed.  The
  (T, N, K) outcome array is drawn once per (profile, seed, samples) by
  :meth:`DemandProfile.draws` and kept on the profile, so every value,
  gradient and curvature call reads the same draws instead of drawing
  again, and one batched kernel evaluates all slots at once.

Expectations are only ever taken over reachable outcomes: enumeration leaves
out zero-probability choices and masks outcome probabilities that underflow
to 0 before the cost function sees them, so an
outage-capacity model raises exactly when an outcome with positive
probability overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .costs import CostDomainError, CostModel
from .demand import DemandProfile, ItemCatalog

_ENUM_LIMIT = 10_000_000


class UnsupportedEngineError(ValueError):
    """Engine cannot evaluate the requested quantity for this configuration."""


@dataclass(frozen=True)
class EvalConfig:
    """How expectations are evaluated."""

    engine: str = "enumerate"
    samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if self.kernels.sampled and self.samples < 1:
            raise ValueError(f"{self.engine} engine needs samples >= 1")

    @property
    def kernels(self) -> "Engine":
        """The engine's guard and kernels."""
        return _ENGINES[self.engine]


@dataclass(frozen=True)
class ProactiveAllocation:
    """Per-user, per-slot, per-item proactive download amounts in [0, S(m)]."""

    x: np.ndarray
    sizes: np.ndarray

    def __init__(self, x, catalog: ItemCatalog):
        arr = np.array(x, dtype=float)
        if arr.ndim != 3:
            raise ValueError(f"allocation must be (users, slots, items); got {arr.shape}")
        if arr.shape[2] != catalog.num_items:
            raise ValueError(
                f"allocation covers {arr.shape[2]} items, catalog has {catalog.num_items}"
            )
        hi = catalog.sizes[None, None, :]
        if np.any(arr < -1e-12) or np.any(arr > hi + 1e-12):
            raise ValueError("allocation outside [0, item size]")
        arr = np.clip(arr, 0.0, hi)
        arr.setflags(write=False)
        object.__setattr__(self, "x", arr)
        object.__setattr__(self, "sizes", catalog.sizes)

    @classmethod
    def zeros(cls, num_users: int, num_slots: int, catalog: ItemCatalog):
        return cls(np.zeros((num_users, num_slots, catalog.num_items)), catalog)


@dataclass(frozen=True)
class EvalResult:
    """Cycle cost with per-slot breakdown; stderr is 0 for exact engines."""

    value: float
    stderr: float
    slot_values: np.ndarray
    slot_stderrs: np.ndarray


def _as_x(profile: DemandProfile, allocation) -> np.ndarray:
    if allocation is None:
        return np.zeros(profile.probs.shape)
    if isinstance(allocation, ProactiveAllocation):
        return allocation.x
    return np.asarray(allocation, dtype=float)


def _sizes_of(allocation, catalog) -> np.ndarray:
    if isinstance(allocation, ProactiveAllocation):
        return allocation.sizes
    if catalog is None:
        raise ValueError("need a catalog when the allocation is a bare array")
    return catalog.sizes


class Tables(NamedTuple):
    """Kernel inputs for a batch of slots, in the profile's (N, T, M) layout.

    ``v`` is the load a request adds to its slot (S - x; a silent user adds
    0), ``const`` (T,) the load every outcome of the slot carries, and
    ``draws`` the Monte Carlo outcome codes (T, N, K), ``None`` for the
    exact engines.
    """

    probs: np.ndarray
    silence: np.ndarray
    v: np.ndarray
    const: np.ndarray
    draws: np.ndarray | None

    def slot(self, t: int) -> "Tables":
        """The one-slot batch of slot ``t`` (indices wrap)."""
        t %= len(self.const)
        s = slice(t, t + 1)
        draws = None if self.draws is None else self.draws[s]
        return Tables(self.probs[:, s], self.silence[:, s], self.v[:, s], self.const[s], draws)


def cycle_tables(
    profile: DemandProfile, x: np.ndarray, sizes: np.ndarray, cfg: EvalConfig
) -> Tables:
    """Every slot's kernel inputs at allocation ``x``: slot t carries the
    prefetch volume sent during it, ``x[:, t+1].sum()``."""
    n_slots = profile.num_slots
    const = np.array([x[:, (t + 1) % n_slots, :].sum() for t in range(n_slots)])
    draws = profile.draws(cfg.seed, cfg.samples) if cfg.kernels.sampled else None
    return Tables(profile.probs, profile.silence, sizes[None, None, :] - x, const, draws)


def _weights(tables: Tables) -> np.ndarray:
    """Every slot's choice probabilities (T, N, M+1), silent column first."""
    return np.concatenate([tables.silence[:, :, None], tables.probs], axis=2).transpose(1, 0, 2)


def _values(tables: Tables) -> np.ndarray:
    """Every slot's load values (T, N, M+1), the silent column 0."""
    n_users, n_slots, m_items = tables.v.shape
    val = np.zeros((n_slots, n_users, m_items + 1))
    val[:, :, 1:] = tables.v.transpose(1, 0, 2)
    return val


# ---------------------------------------------------------------------------
# enumeration


def _batches(w: np.ndarray, *vals: np.ndarray, full: int | None = None):
    """Slot batches to enumerate, each over the choices its users can make.

    A user's grid axis holds only its choices of positive probability (all
    of them for user ``full``), so a grid follows the reachable support
    rather than (M+1)^N.  Slots share a batch when every user has the same
    number of such choices, and a batch holds at most ``_ENUM_LIMIT``
    outcomes.  Yields the slot indices ``s``, the per-user weight tables and,
    for each of ``vals``, its per-user value tables (lists of (B, K_n)), and
    the column order ``cols`` (B, N, M+1) that puts the enumerated columns
    first, ``None`` when that is all of them.
    """
    live = w > 0.0
    if full is not None:
        live[:, full] = True
    groups = {}
    for t, widths in enumerate(live.sum(axis=2).tolist()):
        groups.setdefault(tuple(widths), []).append(t)
    for widths, slots in groups.items():
        step = max(1, _ENUM_LIMIT // int(np.prod(widths)))
        for lo in range(0, len(slots), step):
            s = np.array(slots[lo:lo + step])
            tabs, cols = [w[s]] + [val[s] for val in vals], None
            if not live[s].all():
                cols = np.argsort(~live[s], axis=2, kind="stable")
                tabs = [np.take_along_axis(tab, cols, 2) for tab in tabs]
            yield (s, *[[tab[:, n, :k] for n, k in enumerate(widths)] for tab in tabs], cols)


def _grid(tables: list, op, start: np.ndarray) -> np.ndarray:
    """Combine per-user tables (B, K_n) over every joint outcome: (B, prod K_n).

    ``start`` (B,) seeds the combination.  User 0 is the slowest axis.  Users
    join from the last one down, each as a new slow axis, so numpy's inner
    loop runs over the large grid rather than over one user's choices.
    """
    grid = start[:, None]
    for table in tables[::-1]:
        grid = op(table[:, :, None], grid[:, None, :]).reshape(len(grid), -1)
    return grid


def _axis_sums(grid: np.ndarray, widths: list, width: int) -> np.ndarray:
    """Sum a (B, prod K_n) outcome grid over all users but one: (N, B, width).

    Entries past a user's K_n are 0.  Summing off the fastest user at each
    step leaves the grid of the users before it, so the N marginals cost
    about one pass over the grid.
    """
    out = np.zeros((len(widths), len(grid), width))
    for n in range(len(widths) - 1, -1, -1):
        grid = grid.reshape(len(grid), -1, widths[n])      # (B, K_0...K_{n-1}, K_n)
        out[n, :, :widths[n]] = np.ones(grid.shape[1]) @ grid
        grid = grid @ np.ones(widths[n])
    return out


def _on_live(fn, loads, live):
    """``fn`` of the live loads, 0 elsewhere: unreachable outcomes never reach the cost."""
    if live is None or live.all():
        return fn(loads)
    out = np.zeros_like(loads)
    out[live] = fn(loads[live])
    return out


def _joint(ws: list, vs: list, const: np.ndarray):
    """Loads and probabilities of every joint outcome of a slot batch, plus the
    mask of outcomes with positive probability (``None`` when all of them have)."""
    probs = _grid(ws, np.multiply, np.ones(len(const)))
    live = None if probs.min() > 0.0 else probs > 0.0
    return _grid(vs, np.add, const), probs, live


# The enumeration kernels work on (T, N, M+1) weight and value tables, silent
# column first.  A grid holds only positive weights, but their products can
# underflow to 0, so the cost still sees only outcomes of positive probability.


def _enum_check(profile: DemandProfile, cost: CostModel) -> None:
    # (M+1)^N overflows a float past N ~ 308 / log10(M+1): compare logarithms
    digits = profile.num_users * np.log10(profile.num_items + 1)
    if digits > np.log10(_ENUM_LIMIT):
        raise UnsupportedEngineError(
            f"enumeration would visit 10^{digits:.3g} outcomes per slot "
            f"(limit {_ENUM_LIMIT:g}); use monte_carlo"
        )


def _enum_expected_cost(tables: Tables, cost: CostModel):
    const = tables.const
    out = np.empty(len(const))
    for s, ws, vs, _ in _batches(_weights(tables), _values(tables)):
        loads, probs, live = _joint(ws, vs, const[s])
        out[s] = np.einsum("tk,tk->t", probs, _on_live(cost.cost, loads, live))
    return out, np.zeros(len(const))


def _enum_marginals(tables: Tables, weight, dtables: Tables | None = None):
    """``(a, b)`` with ``a = E[W]`` and ``b[n] = E[I_n(m) W]``, ``W = weight(Y)``
    times ``dY`` when ``dtables`` give a load direction.  ``b[n]`` is the
    axis-n marginal of ``P W`` over the joint grid, since
    ``P(c) = prod_n w[n, c_n]``; items of zero weight get 0."""
    w = _weights(tables)
    n_slots, n_users, width = w.shape
    vals = [_values(tables)] + ([] if dtables is None else [_values(dtables)])
    a = np.empty(n_slots)
    b = np.empty((n_users, n_slots, width - 1))
    for s, ws, vs, *dvs, cols in _batches(w, *vals):
        loads, probs, live = _joint(ws, vs, tables.const[s])
        probs *= _on_live(weight, loads, live)
        if dtables is not None:
            probs *= _grid(dvs[0], np.add, dtables.const[s])
        sums = _axis_sums(probs, [t.shape[1] for t in ws], width)
        a[s] = sums[0].sum(axis=1)
        if cols is not None:   # back to column order
            np.put_along_axis(sums, cols.transpose(1, 0, 2), sums.copy(), axis=2)
        b[:, s] = sums[:, :, 1:]
    return a, b


def _enum_marginal_stats(tables: Tables, cost: CostModel):
    a, b = _enum_marginals(tables, cost.marginal)
    return a, b, np.zeros_like(a), np.broadcast_to(0.0, b.shape)


def _enum_hess_vec(tables: Tables, dtables: Tables, cost: CostModel):
    return _enum_marginals(tables, cost.second, dtables)


def _enum_gradient_p(tables: Tables, cost: CostModel) -> np.ndarray:
    """For each user n, the loads grid takes all of n's choices as its slowest
    axis over the other users' reachable outcomes, whose probabilities
    ``P_-n`` weight every row alike, so one matrix product gives the
    conditional expectation of every choice.  An entry is ``+inf`` when an
    outcome with ``P_-n > 0`` leaves the cost's domain; a silent one that
    does raises :class:`CostDomainError`.
    """
    w, val, const = _weights(tables), _values(tables), tables.const
    n_slots, n_users, width = w.shape
    grad = np.empty((n_users, n_slots, width - 1))
    for n in range(n_users):
        for s, ws, vs, _ in _batches(w, val, full=n):
            del ws[n]
            probs = _grid(ws, np.multiply, np.ones(len(s)))                        # (B, K)
            loads = _grid([vs.pop(n)] + vs, np.add, const[s]).reshape(len(s), width, -1)
            ok = cost.in_domain(loads)
            cond = (_on_live(cost.cost, loads, ok) @ probs[:, :, None])[:, :, 0]
            bad = ~ok & (probs > 0.0)[:, None, :]
            out = bad.any(axis=2)
            if out[:, 0].any():   # the silent baseline itself overflows
                raise CostDomainError(float(loads[bad].max()), cost.domain_limit)
            grad[n, s] = np.where(out[:, 1:], np.inf, cond[:, 1:] - cond[:, :1])
    return grad


# ---------------------------------------------------------------------------
# closed-form moments


def _analytic_check(profile: DemandProfile, cost: CostModel) -> None:
    if cost.kind == "outage" or cost.degree > 2:
        raise UnsupportedEngineError(
            "analytic_quadratic handles polynomial costs of degree <= 2 only"
        )


def _moments(tables: Tables, cost: CostModel):
    """Cost coefficients, every user's mean load (N, T) and E[Y] (T,)."""
    mean_u = np.einsum("ntm,ntm->nt", tables.probs, tables.v)
    return cost.poly_coeffs(), mean_u, tables.const + mean_u.sum(axis=0)


def _analytic_expected_cost(tables: Tables, cost: CostModel):
    (c0, c1, c2), mean_u, ey = _moments(tables, cost)
    m2_u = np.einsum("ntm,ntm->nt", tables.probs, tables.v * tables.v)
    vary = (m2_u - mean_u**2).sum(axis=0)
    return c0 + c1 * ey + c2 * (vary + ey * ey), np.zeros(len(ey))


def _analytic_marginal_stats(tables: Tables, cost: CostModel):
    """``C'`` is affine, so ``E[I_n(m) C'(Y)] = p C'(v + E[Y] - E[X_n])``."""
    (_, c1, c2), mean_u, ey = _moments(tables, cost)
    b = tables.probs * (c1 + 2.0 * c2 * ((ey - mean_u)[:, :, None] + tables.v))
    return c1 + 2.0 * c2 * ey, b, np.zeros(len(ey)), np.broadcast_to(0.0, b.shape)


def _analytic_hess_vec(tables: Tables, dtables: Tables, cost: CostModel):
    """``C''`` is the constant ``2 c2``, so ``da = 2 c2 dE[Y]`` and
    ``db = 2 c2 p (dE[Y] - dE[X_n] + dv)``."""
    c2 = 2.0 * cost.poly_coeffs()[2]
    _, dmean_u, dey = _moments(dtables, cost)
    return c2 * dey, c2 * tables.probs * ((dey - dmean_u)[:, :, None] + dtables.v)


def _analytic_gradient_p(tables: Tables, cost: CostModel) -> np.ndarray:
    """``E[C(v + Z)] - E[C(Z)]`` with Z the other users' load: ``v (c1 + c2 (v + 2 E[Z]))``."""
    (_, c1, c2), mean_u, ey = _moments(tables, cost)
    return tables.v * (c1 + c2 * (tables.v + 2.0 * (ey - mean_u)[:, :, None]))


# ---------------------------------------------------------------------------
# Monte Carlo: the kernels read the outcome codes ``tables.draws`` (T, N, K)


def _mc_loads(val: np.ndarray, const: np.ndarray, choices: np.ndarray) -> np.ndarray:
    """Sampled slot loads (T, K); users are added one at a time, in user order."""
    n_slots, n_users, k = choices.shape
    rows = np.arange(n_slots)[:, None]
    y = np.empty((n_slots, k))
    y[:] = const[:, None]
    for n in range(n_users):
        y += val[rows, n, choices[:, n]]
    return y


def _mean_se(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row means of a (T, K) sample array and their standard errors."""
    k = v.shape[1]
    se = v.std(axis=1, ddof=1) / np.sqrt(k) if k > 1 else np.zeros(v.shape[0])
    return v.mean(axis=1), se


def _mc_expected_cost(tables: Tables, cost: CostModel):
    return _mean_se(cost.cost(_mc_loads(_values(tables), tables.const, tables.draws)))


def _mc_bin_means(choices: np.ndarray, width: int, d: np.ndarray) -> np.ndarray:
    """Per-(user, slot, item) sample mean of ``d`` (T, K) over the draws where
    that user requests that item, i.e. the estimate of ``E[I_n(m) d]`` (N, T, M)."""
    n_slots, n_users, k = choices.shape
    cells = np.arange(n_users)[None, :, None] * n_slots + np.arange(n_slots)[:, None, None]
    bins = (cells * width + choices).ravel()          # one bin per (n, t, choice)
    weights = np.broadcast_to(d[:, None, :], choices.shape).ravel()
    total = np.bincount(bins, weights=weights, minlength=n_users * n_slots * width)
    return total.reshape(n_users, n_slots, width)[:, :, 1:] / k


def _mc_marginal_stats(tables: Tables, cost: CostModel):
    choices, width = tables.draws, tables.v.shape[2] + 1
    k = choices.shape[2]
    d = cost.marginal(_mc_loads(_values(tables), tables.const, choices))
    a, a_se = _mean_se(d)
    b = _mc_bin_means(choices, width, d)
    if k > 1:
        var = np.maximum(_mc_bin_means(choices, width, d * d) - b**2, 0.0)
        b_se = np.sqrt(var / (k - 1))
    else:
        b_se = np.zeros_like(b)
    return a, b, a_se, b_se


def _mc_hess_vec(tables: Tables, dtables: Tables, cost: CostModel):
    choices = tables.draws
    d = cost.second(_mc_loads(_values(tables), tables.const, choices))
    d *= _mc_loads(_values(dtables), dtables.const, choices)
    return d.mean(axis=1), _mc_bin_means(choices, tables.v.shape[2] + 1, d)


def _mc_gradient_p(tables: Tables, cost: CostModel):
    raise UnsupportedEngineError(
        "this quantity needs an exact engine (enumerate or analytic_quadratic)"
    )


@dataclass(frozen=True)
class Engine:
    """One engine: a guard and four kernels on :class:`Tables`.

    ``check(profile, cost)`` raises :class:`UnsupportedEngineError` on an
    instance the engine cannot handle.  Each kernel takes ``(tables, cost)``:

    * ``expected_cost``: per-slot ``E[C(Y)]`` and its standard error, (T,) each;
    * ``marginal_stats``: ``(a, b, a_se, b_se)`` with ``a = E[C'(Y)]`` (T,)
      and ``b = E[I_n(m) C'(Y)]`` (N, T, M), ``I_n(m)`` the event that user
      n requests item m;
    * ``gradient_p``: ``E_-n[C(Y) | n -> m] - E_-n[C(Y) | n silent]`` (N, T, M).

    ``hess_vec(tables, dtables, cost)`` is the curvature kernel: ``(da, db)``
    with ``da = E[C''(Y) dY]`` (T,) and ``db = E[I_n(m) C''(Y) dY]``
    (N, T, M), where ``dtables`` carry a load direction the way ``tables``
    carry the loads (see :func:`cost_hess_vec`).  The outcome distribution
    does not depend on the allocation, so these are the exact derivatives of
    ``marginal_stats``' ``(a, b)`` along that direction.

    ``sampled`` engines read the profile's memoised draws.  The exact
    engines' errors are zeros; ``b_se`` is a read-only broadcast, so the
    hot ``cost_gradient_x`` path allocates no (N, T, M) array for it.
    """

    check: Callable
    expected_cost: Callable
    marginal_stats: Callable
    gradient_p: Callable
    hess_vec: Callable
    sampled: bool = False


_ENGINES = {
    "enumerate": Engine(
        _enum_check, _enum_expected_cost, _enum_marginal_stats, _enum_gradient_p, _enum_hess_vec
    ),
    "analytic_quadratic": Engine(
        _analytic_check, _analytic_expected_cost, _analytic_marginal_stats, _analytic_gradient_p,
        _analytic_hess_vec,
    ),
    "monte_carlo": Engine(
        lambda profile, cost: None, _mc_expected_cost, _mc_marginal_stats, _mc_gradient_p,
        _mc_hess_vec, sampled=True,
    ),
}
ENGINES = tuple(_ENGINES)


# ---------------------------------------------------------------------------
# cycle-level evaluation


def _checked_tables(profile, allocation, cost, cfg, catalog) -> Tables:
    x = _as_x(profile, allocation)
    sizes = _sizes_of(allocation, catalog)
    cfg.kernels.check(profile, cost)
    return cycle_tables(profile, x, sizes, cfg)


def slot_marginal_stats(
    profile: DemandProfile, x: np.ndarray, sizes: np.ndarray, cost: CostModel, cfg: EvalConfig
):
    """Every slot's ``(a, b, a_se, b_se)`` at allocation ``x`` (see :class:`Engine`)."""
    return cfg.kernels.marginal_stats(cycle_tables(profile, x, sizes, cfg), cost)


def expected_cycle_cost(
    profile: DemandProfile,
    allocation,
    cost: CostModel,
    cfg: EvalConfig,
    catalog: ItemCatalog | None = None,
) -> EvalResult:
    """Slot-averaged expected cost of the cycle under ``allocation``."""
    tables = _checked_tables(profile, allocation, cost, cfg, catalog)
    slot_vals, slot_errs = cfg.kernels.expected_cost(tables, cost)
    value = float(slot_vals.mean())
    stderr = float(np.sqrt(np.sum(slot_errs**2)) / profile.num_slots)
    return EvalResult(value, stderr, slot_vals, slot_errs)


def nonproactive_cost(
    profile: DemandProfile, catalog: ItemCatalog, cost: CostModel, cfg: EvalConfig
) -> EvalResult:
    """Cycle cost with no proactive downloads at all."""
    return expected_cycle_cost(profile, None, cost, cfg, catalog=catalog)


def cost_gradient_x(
    profile: DemandProfile,
    allocation,
    cost: CostModel,
    cfg: EvalConfig,
    catalog: ItemCatalog | None = None,
) -> np.ndarray:
    """Gradient of the cycle cost in the allocation, shape (N, T, M).

    Raising x[n, t, m] adds traffic to slot t-1 and removes the reactive
    remainder from slot t, so the coordinate derivative is
    ``(E[C'(Y_{t-1})] - E[I_{n,t}(m) C'(Y_t)]) / T``.  The Monte Carlo
    engine applies the same pathwise rule sample by sample.
    """
    tables = _checked_tables(profile, allocation, cost, cfg, catalog)
    a, b, _, _ = cfg.kernels.marginal_stats(tables, cost)
    return (np.roll(a, 1)[None, :, None] - b) / profile.num_slots


def cost_hess_vec(
    profile: DemandProfile,
    allocation,
    d: np.ndarray,
    cost: CostModel,
    cfg: EvalConfig,
    catalog: ItemCatalog | None = None,
) -> np.ndarray:
    """Hessian of the cycle cost in the allocation times the direction ``d``, (N, T, M).

    Moving the allocation along ``d`` changes the load of slot t by
    ``dY_t = sum_{n, m} d[n, t+1, m] - sum_n d[n, t, m_n]``, the second sum
    over the users requesting some ``m_n``.  The derivative of
    :func:`cost_gradient_x` along ``d`` is therefore
    ``(E[C''(Y_{t-1}) dY_{t-1}] - E[I_{n,t}(m) C''(Y_t) dY_t]) / T``, exact on
    every engine because the outcome distribution does not depend on the
    allocation.  The direction's tables are :func:`cycle_tables` at
    allocation ``d`` with zero item sizes: ``v = -d`` and ``const`` its
    prefetch volume.
    """
    tables = _checked_tables(profile, allocation, cost, cfg, catalog)
    dtables = cycle_tables(profile, np.asarray(d, dtype=float), np.zeros(profile.num_items), cfg)
    da, db = cfg.kernels.hess_vec(tables, dtables, cost)
    return (np.roll(da, 1)[None, :, None] - db) / profile.num_slots


def cost_gradient_p(
    profile: DemandProfile,
    allocation,
    cost: CostModel,
    cfg: EvalConfig,
    catalog: ItemCatalog | None = None,
) -> np.ndarray:
    """Gradient of the cycle cost in the request probabilities, shape (N, T, M).

    The derivative against p[n, t, m] (trading probability mass against the
    silent state) is ``(E_-n[C(Y_t) | n -> m] - E_-n[C(Y_t) | n silent]) / T``
    and needs conditional expectations, so only exact engines qualify.

    A coordinate comes back ``+inf`` when the conditional expectation
    diverges, i.e. requesting item m would overload a bounded-capacity cost
    with positive probability.  That can only happen where p[n, t, m] is
    currently zero (otherwise the cycle cost itself would be infinite), and
    it tells the caller that no mass may move onto that item.
    """
    tables = _checked_tables(profile, allocation, cost, cfg, catalog)
    return cfg.kernels.gradient_p(tables, cost) / profile.num_slots
