"""Cycle-cost evaluation and gradients under proactive downloads.

With allocation ``x[n, t, m]`` (portion of item m delivered to user n ahead
of slot t, bounded by the item size), the load of slot ``t`` is

    Y_t = sum_n (S(m_n) - x[n, t, m_n]) * [n requests m_n in t]
        + sum_{n, m} x[n, t+1, m]

where the second term is the proactive traffic sent during ``t`` and indices
wrap modulo T.  The cycle objective is the slot average of ``E[C(Y_t)]``.

Three interchangeable engines evaluate the expectations:

* ``enumerate``: exact product-form enumeration, feasible while
  ``(M+1)^N <= 1e7`` per slot.  Each user's axis holds only the choices it
  makes with positive probability, so a slot's joint outcome grid spans its
  reachable support, at most (M+1)^N outcomes.  Slots whose users have equal
  numbers of such choices share one grid of shape (B, outcomes), user 0 the
  slowest axis, with at most 1e7 outcomes per batch.  The value, ``E[C'(Y)]``
  and the per-(user, item) ``E[I C'(Y)]`` all come from that grid: the last
  is the axis-n marginal of ``P C'(Y)``, since ``P(c) = prod_n w[n, c_n]``.
  The probability gradient builds one grid per user, that user's every
  choice against the other users' support.
* ``analytic_quadratic``: closed-form first/second moments, valid only for
  polynomial costs of degree <= 2;
* ``monte_carlo``: seeded counter-based sampling with reported standard
  errors; estimates are reproducible bit-for-bit for a given seed.  The
  (T, N, K) outcome array is drawn once per (profile, seed, samples) by
  :meth:`DemandProfile.draws` and kept on the profile, so every value and
  gradient call reads the same draws instead of drawing again, and one
  batched kernel evaluates all slots at once.

Expectations are only ever taken over reachable outcomes: enumeration leaves
out zero-probability choices and masks outcome probabilities that underflow
to 0 before the cost function sees them, so an
outage-capacity model raises exactly when an outcome with positive
probability overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostDomainError, CostModel
from .demand import DemandProfile, ItemCatalog, RequestOutcome

ENGINES = ("enumerate", "analytic_quadratic", "monte_carlo")
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
        if self.engine == "monte_carlo" and self.samples < 1:
            raise ValueError("monte_carlo engine needs samples >= 1")


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


def check_engine(cfg: EvalConfig, profile: DemandProfile, cost: CostModel,
                 exact_only: bool = False) -> None:
    """Reject engine/instance pairings the engine cannot handle."""
    if cfg.engine == "enumerate":
        outcomes = float(profile.num_items + 1) ** profile.num_users
        if outcomes > _ENUM_LIMIT:
            raise UnsupportedEngineError(
                f"enumeration would visit {outcomes:.3g} outcomes per slot "
                f"(limit {_ENUM_LIMIT:g}); use monte_carlo"
            )
    elif cfg.engine == "analytic_quadratic":
        if cost.kind == "outage" or cost.degree > 2:
            raise UnsupportedEngineError(
                "analytic_quadratic handles polynomial costs of degree <= 2 only"
            )
    elif exact_only:
        raise UnsupportedEngineError(
            "this quantity needs an exact engine (enumerate or analytic_quadratic)"
        )


# ---------------------------------------------------------------------------
# table-level oracles
#
# A slot is fully described by the choice probabilities w (N, M+1), the value
# table val (N, M+1) with the silent column first, and a deterministic
# additive term.  The engines below answer expectation queries for arbitrary
# tables, which lets policy evaluation reuse them with modified values.


class SlotTables:
    """One slot's choice probabilities, load values, and additive constant."""

    def __init__(self, w: np.ndarray, val: np.ndarray, const: float):
        self.w = w
        self.val = val
        self.const = float(const)

    @classmethod
    def from_state(cls, profile: DemandProfile, x: np.ndarray, sizes: np.ndarray, t: int):
        n_slots = profile.num_slots
        w = np.concatenate([profile.silence[:, t][:, None], profile.probs[:, t, :]], axis=1)
        val = np.concatenate(
            [np.zeros((profile.num_users, 1)), sizes[None, :] - x[:, t, :]], axis=1
        )
        return cls(w, val, float(x[:, (t + 1) % n_slots, :].sum()))

    def with_values(self, val: np.ndarray, const: float | None = None) -> "SlotTables":
        return SlotTables(self.w, val, self.const if const is None else const)


def _batches(w: np.ndarray, val: np.ndarray, full: int | None = None):
    """Slot batches to enumerate, each over the choices its users can make.

    A user's grid axis holds only its choices of positive probability (all
    of them for user ``full``), so a grid follows the reachable support
    rather than (M+1)^N.  Slots share a batch when every user has the same
    number of such choices, and a batch holds at most ``_ENUM_LIMIT``
    outcomes.  Yields the slot indices ``s``, the per-user weight and value
    tables (lists of (B, K_n)), and the column order ``cols`` (B, N, M+1)
    that puts the enumerated columns first, ``None`` when that is all of them.
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
            ws, vs, cols = w[s], val[s], None
            if not live[s].all():
                cols = np.argsort(~live[s], axis=2, kind="stable")
                ws, vs = np.take_along_axis(ws, cols, 2), np.take_along_axis(vs, cols, 2)
            yield (s, [ws[:, n, :k] for n, k in enumerate(widths)],
                   [vs[:, n, :k] for n, k in enumerate(widths)], cols)


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


# Enumeration kernels on slot-batched tables: w and val (T, N, M+1) with the
# silent column first, const (T,).  Each slot batch is one joint grid over
# its users' reachable choices; a single slot is the batch of one.  A grid
# holds only positive weights, but their products can underflow to 0, so the
# cost still sees only outcomes of positive probability.


def _enum_expected_cost(w, val, const, cost: CostModel) -> np.ndarray:
    """Per-slot E[C(Y)], shape (T,)."""
    out = np.empty(len(const))
    for s, ws, vs, _ in _batches(w, val):
        loads, probs, live = _joint(ws, vs, const[s])
        out[s] = np.einsum("tk,tk->t", probs, _on_live(cost.cost, loads, live))
    return out


def _enum_marginal_stats(w, val, const, cost: CostModel):
    """Per-slot ``a = E[C'(Y)]`` (T,) and ``b = E[I_n(m) C'(Y)]`` (N, T, M).

    ``P(c) = prod_n w[n, c_n]``, so ``b[n]`` is the axis-n marginal of
    ``P C'(Y)`` over the joint grid; items of zero weight get 0.
    """
    n_slots, n_users, width = w.shape
    a = np.empty(n_slots)
    b = np.empty((n_users, n_slots, width - 1))
    for s, ws, vs, cols in _batches(w, val):
        loads, probs, live = _joint(ws, vs, const[s])
        probs *= _on_live(cost.marginal, loads, live)
        sums = _axis_sums(probs, [t.shape[1] for t in ws], width)
        a[s] = sums[0].sum(axis=1)
        if cols is not None:   # back to column order
            np.put_along_axis(sums, cols.transpose(1, 0, 2), sums.copy(), axis=2)
        b[:, s] = sums[:, :, 1:]
    return a, b


def _enum_gradient_p(w, val, const, cost: CostModel) -> np.ndarray:
    """``E_-n[C(Y) | n -> m] - E_-n[C(Y) | n silent]`` per (n, t, m): (N, T, M).

    For each user n, the loads grid takes all of n's choices as its slowest
    axis over the other users' reachable outcomes, whose probabilities
    ``P_-n`` weight every row alike, so one matrix product gives the
    conditional expectation of every choice.  An entry is ``+inf`` when an
    outcome with ``P_-n > 0`` leaves the cost's domain; a silent one that
    does raises :class:`CostDomainError`.
    """
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


def _cycle_weights(profile: DemandProfile) -> np.ndarray:
    """Every slot's choice probabilities (T, N, M+1), silent column first."""
    return np.concatenate([profile.silence[:, :, None], profile.probs], axis=2).transpose(1, 0, 2)


def _batch_of_one(tables: SlotTables):
    return tables.w[None], tables.val[None], np.array([tables.const])


def _cycle_tables(x: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every slot's value table (T, N, M+1), silent column first, and constant (T,)."""
    n_users, n_slots, m_items = x.shape
    val = np.zeros((n_slots, n_users, m_items + 1))
    val[:, :, 1:] = (sizes[None, None, :] - x).transpose(1, 0, 2)
    const = np.array([x[:, (t + 1) % n_slots, :].sum() for t in range(n_slots)])
    return val, const


# Monte Carlo kernels on slot-batched tables: val (T, N, M+1), const (T,) and
# outcome codes (T, N, K).  A single slot is the batch of one.


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


def _mc_expected_cost(val, const, choices, cost: CostModel):
    """Per-slot (E[C(Y)], stderr), each of shape (T,)."""
    return _mean_se(cost.cost(_mc_loads(val, const, choices)))


def _mc_marginal_stats(val, const, choices, cost: CostModel):
    """Per-slot ``(a, b, a_se, b_se)`` with ``a`` (T,) and ``b`` (N, T, M)."""
    n_slots, n_users, k = choices.shape
    width = val.shape[2]
    d = cost.marginal(_mc_loads(val, const, choices))
    a, a_se = _mean_se(d)
    cells = np.arange(n_users)[None, :, None] * n_slots + np.arange(n_slots)[:, None, None]
    bins = (cells * width + choices).ravel()          # one bin per (n, t, choice)
    weights = np.broadcast_to(d[:, None, :], choices.shape).ravel()

    def sums(wts):
        total = np.bincount(bins, weights=wts, minlength=n_users * n_slots * width)
        return total.reshape(n_users, n_slots, width)[:, :, 1:]

    s1 = sums(weights)
    b = s1 / k
    if k > 1:
        var = np.maximum(sums(weights * weights) / k - (s1 / k) ** 2, 0.0)
        b_se = np.sqrt(var / (k - 1))
    else:
        b_se = np.zeros_like(b)
    return a, b, a_se, b_se


def _poly3(cost: CostModel) -> tuple[float, float, float]:
    c = cost.poly_coeffs() + (0.0, 0.0)
    return c[0], c[1], c[2]


def tables_expected_cost(
    tables: SlotTables, cost: CostModel, cfg: EvalConfig, choices: np.ndarray | None = None
) -> tuple[float, float]:
    """(E[C(Y)], stderr) for one slot described by ``tables``."""
    if cfg.engine == "analytic_quadratic":
        c0, c1, c2 = _poly3(cost)
        mean_u = np.einsum("nc,nc->n", tables.w, tables.val)
        m2_u = np.einsum("nc,nc->n", tables.w, tables.val**2)
        ey = tables.const + mean_u.sum()
        vary = float((m2_u - mean_u**2).sum())
        return c0 + c1 * ey + c2 * (vary + ey * ey), 0.0
    if cfg.engine == "enumerate":
        return float(_enum_expected_cost(*_batch_of_one(tables), cost)[0]), 0.0
    mean, se = _mc_expected_cost(tables.val[None], np.array([tables.const]), choices[None], cost)
    return float(mean[0]), float(se[0])


def tables_marginal_stats(
    tables: SlotTables, cost: CostModel, cfg: EvalConfig, choices: np.ndarray | None = None
):
    """E[C'(Y)] and the per-(user, item) joint E[I C'(Y)] with standard errors.

    Returns ``(a, b, a_se, b_se)`` where ``a`` is scalar and ``b`` has shape
    (N, M).
    """
    w, val, const = tables.w, tables.val, tables.const

    if cfg.engine == "analytic_quadratic":
        _, c1, c2 = _poly3(cost)
        mean_u = np.einsum("nc,nc->n", w, val)
        total = const + mean_u.sum()
        a = c1 + 2.0 * c2 * total
        cond = const + val[:, 1:] + (mean_u.sum() - mean_u)[:, None]
        b = w[:, 1:] * (c1 + 2.0 * c2 * cond)
        return float(a), b, 0.0, np.zeros_like(b)

    if cfg.engine == "enumerate":
        a, b = _enum_marginal_stats(*_batch_of_one(tables), cost)
        return float(a[0]), b[:, 0], 0.0, np.zeros_like(b[:, 0])

    a, b, a_se, b_se = _mc_marginal_stats(val[None], np.array([const]), choices[None], cost)
    return float(a[0]), b[:, 0], float(a_se[0]), b_se[:, 0]


def slot_marginal_stats(
    profile: DemandProfile, x: np.ndarray, sizes: np.ndarray, cost: CostModel, cfg: EvalConfig
):
    """:func:`tables_marginal_stats` for every slot of the cycle at allocation ``x``.

    Returns ``(a, b, a_se, b_se)`` with ``a`` of shape (T,) and ``b`` of
    shape (N, T, M).  The Monte Carlo and enumeration engines evaluate all
    slots in one batched kernel, over the profile's memoised draws or over
    one joint outcome grid per slot batch.
    """
    if cfg.engine == "monte_carlo":
        val, const = _cycle_tables(x, sizes)
        return _mc_marginal_stats(val, const, profile.draws(cfg.seed, cfg.samples), cost)
    if cfg.engine == "enumerate":
        val, const = _cycle_tables(x, sizes)
        a, b = _enum_marginal_stats(_cycle_weights(profile), val, const, cost)
        return a, b, np.zeros_like(a), np.zeros_like(b)
    n_users, n_slots, m_items = x.shape
    a = np.empty(n_slots)
    a_se = np.empty(n_slots)
    b = np.empty((n_users, n_slots, m_items))
    b_se = np.empty((n_users, n_slots, m_items))
    for t in range(n_slots):
        tables = SlotTables.from_state(profile, x, sizes, t)
        a[t], b[:, t, :], a_se[t], b_se[:, t, :] = tables_marginal_stats(tables, cost, cfg)
    return a, b, a_se, b_se


def slot_tables_at(
    profile: DemandProfile, allocation, t: int, catalog: ItemCatalog | None = None
) -> SlotTables:
    """Public table constructor for policy-style evaluations."""
    x = _as_x(profile, allocation)
    return SlotTables.from_state(profile, x, _sizes_of(allocation, catalog), t)


# ---------------------------------------------------------------------------
# cycle-level evaluation


def expected_cycle_cost(
    profile: DemandProfile,
    allocation,
    cost: CostModel,
    cfg: EvalConfig,
    catalog: ItemCatalog | None = None,
) -> EvalResult:
    """Slot-averaged expected cost of the cycle under ``allocation``."""
    x = _as_x(profile, allocation)
    sizes = _sizes_of(allocation, catalog)
    check_engine(cfg, profile, cost)
    n_slots = profile.num_slots

    if cfg.engine == "analytic_quadratic":
        c0, c1, c2 = _poly3(cost)
        v = sizes[None, None, :] - x
        const = np.roll(x.sum(axis=(0, 2)), -1)
        mean_u = np.einsum("ntm,ntm->nt", profile.probs, v)
        m2_u = np.einsum("ntm,ntm->nt", profile.probs, v * v)
        ey = const + mean_u.sum(axis=0)
        vary = (m2_u - mean_u**2).sum(axis=0)
        slot_vals = c0 + c1 * ey + c2 * (vary + ey * ey)
        slot_errs = np.zeros(n_slots)
    elif cfg.engine == "monte_carlo":
        val, const = _cycle_tables(x, sizes)
        slot_vals, slot_errs = _mc_expected_cost(
            val, const, profile.draws(cfg.seed, cfg.samples), cost
        )
    else:
        val, const = _cycle_tables(x, sizes)
        slot_vals = _enum_expected_cost(_cycle_weights(profile), val, const, cost)
        slot_errs = np.zeros(n_slots)

    value = float(slot_vals.mean())
    stderr = float(np.sqrt(np.sum(slot_errs**2)) / n_slots)
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
    x = _as_x(profile, allocation)
    sizes = _sizes_of(allocation, catalog)
    check_engine(cfg, profile, cost)
    n_slots = profile.num_slots

    if cfg.engine == "analytic_quadratic":
        _, c1, c2 = _poly3(cost)
        v = sizes[None, None, :] - x
        const = np.roll(x.sum(axis=(0, 2)), -1)
        mean_u = np.einsum("ntm,ntm->nt", profile.probs, v)
        ey = const + mean_u.sum(axis=0)
        a = c1 + 2.0 * c2 * ey                                    # (T,)
        others = (const + mean_u.sum(axis=0))[None, :] - mean_u   # (N, T)
        b = profile.probs * (c1 + 2.0 * c2 * (others[:, :, None] + v))
        return (np.roll(a, 1)[None, :, None] - b) / n_slots

    a, b, _, _ = slot_marginal_stats(profile, x, sizes, cost, cfg)
    return (np.roll(a, 1)[None, :, None] - b) / n_slots


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
    x = _as_x(profile, allocation)
    sizes = _sizes_of(allocation, catalog)
    check_engine(cfg, profile, cost, exact_only=True)
    n_slots = profile.num_slots

    if cfg.engine == "analytic_quadratic":
        _, c1, c2 = _poly3(cost)
        v = sizes[None, None, :] - x
        const = np.roll(x.sum(axis=(0, 2)), -1)
        mean_u = np.einsum("ntm,ntm->nt", profile.probs, v)
        ea = (const + mean_u.sum(axis=0))[None, :] - mean_u       # (N, T)
        diff = v * (c1 + c2 * (v + 2.0 * ea[:, :, None]))
        return diff / n_slots

    val, const = _cycle_tables(x, sizes)
    return _enum_gradient_p(_cycle_weights(profile), val, const, cost) / n_slots
