"""Cycle-cost evaluation and gradients under proactive downloads.

With allocation ``x[n, t, m]`` (portion of item m delivered to user n ahead
of slot t, bounded by the item size), the load of slot ``t`` is

    Y_t = sum_n (S(m_n) - x[n, t, m_n]) * [n requests m_n in t]
        + sum_{n, m} x[n, t+1, m]

where the second term is the proactive traffic sent during ``t`` and indices
wrap modulo T.  The cycle objective is the slot average of ``E[C(Y_t)]``.

Three interchangeable engines evaluate the expectations:

* ``enumerate``: exact product-form enumeration, feasible while
  ``(M+1)^N <= 1e7`` per slot;
* ``analytic_quadratic``: closed-form first/second moments, valid only for
  polynomial costs of degree <= 2;
* ``monte_carlo``: seeded counter-based sampling with reported standard
  errors; estimates are reproducible bit-for-bit for a given seed.  The
  (T, N, K) outcome array is drawn once per (profile, seed, samples) by
  :meth:`DemandProfile.draws` and kept on the profile, so every value and
  gradient call reads the same draws instead of drawing again, and one
  batched kernel evaluates all slots at once.

Expectations are only ever taken over reachable outcomes: enumeration drops
zero-probability combinations before the cost function sees them, so an
outage-capacity model raises exactly when an outcome with positive
probability overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostModel
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


def _enum_joint(w: np.ndarray, val: np.ndarray):
    """Support of sum_n val[n, c_n] with joint probabilities; zero-prob rows dropped."""
    vals = np.zeros(1)
    probs = np.ones(1)
    for n in range(w.shape[0]):
        vals = (vals[:, None] + val[n][None, :]).ravel()
        probs = (probs[:, None] * w[n][None, :]).ravel()
        keep = probs > 0.0
        if not np.all(keep):
            vals, probs = vals[keep], probs[keep]
    return vals, probs


def _enum_excluding(w: np.ndarray, val: np.ndarray, skip: int):
    keep_rows = [n for n in range(w.shape[0]) if n != skip]
    if not keep_rows:
        return np.zeros(1), np.ones(1)
    return _enum_joint(w[keep_rows], val[keep_rows])


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
        vals, probs = _enum_joint(tables.w, tables.val)
        return float(probs @ cost.cost(vals + tables.const)), 0.0
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
    n_users = w.shape[0]
    m_items = w.shape[1] - 1

    if cfg.engine == "analytic_quadratic":
        _, c1, c2 = _poly3(cost)
        mean_u = np.einsum("nc,nc->n", w, val)
        total = const + mean_u.sum()
        a = c1 + 2.0 * c2 * total
        cond = const + val[:, 1:] + (mean_u.sum() - mean_u)[:, None]
        b = w[:, 1:] * (c1 + 2.0 * c2 * cond)
        return float(a), b, 0.0, np.zeros_like(b)

    if cfg.engine == "enumerate":
        vals, probs = _enum_joint(w, val)
        a = float(probs @ cost.marginal(vals + const))
        b = np.zeros((n_users, m_items))
        for n in range(n_users):
            live = w[n, 1:] > 0.0   # never-requested items stay 0, outside C' domain or not
            if not np.any(live):
                continue
            vz, pz = _enum_excluding(w, val, n)
            shifted = vz[None, :] + const + val[n, 1:][live][:, None]   # (M_live, K)
            b[n, live] = w[n, 1:][live] * (cost.marginal(shifted) @ pz)
        return a, b, 0.0, np.zeros((n_users, m_items))

    a, b, a_se, b_se = _mc_marginal_stats(val[None], np.array([const]), choices[None], cost)
    return float(a[0]), b[:, 0], float(a_se[0]), b_se[:, 0]


def slot_marginal_stats(
    profile: DemandProfile, x: np.ndarray, sizes: np.ndarray, cost: CostModel, cfg: EvalConfig
):
    """:func:`tables_marginal_stats` for every slot of the cycle at allocation ``x``.

    Returns ``(a, b, a_se, b_se)`` with ``a`` of shape (T,) and ``b`` of
    shape (N, T, M).  The Monte Carlo engine evaluates all slots in one
    batched kernel over the profile's memoised draws.
    """
    if cfg.engine == "monte_carlo":
        val, const = _cycle_tables(x, sizes)
        return _mc_marginal_stats(val, const, profile.draws(cfg.seed, cfg.samples), cost)
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
        slot_vals = np.empty(n_slots)
        slot_errs = np.zeros(n_slots)
        for t in range(n_slots):
            tables = SlotTables.from_state(profile, x, sizes, t)
            slot_vals[t], slot_errs[t] = tables_expected_cost(tables, cost, cfg)

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
    n_users, n_slots, m_items = profile.probs.shape

    if cfg.engine == "analytic_quadratic":
        _, c1, c2 = _poly3(cost)
        v = sizes[None, None, :] - x
        const = np.roll(x.sum(axis=(0, 2)), -1)
        mean_u = np.einsum("ntm,ntm->nt", profile.probs, v)
        ea = (const + mean_u.sum(axis=0))[None, :] - mean_u       # (N, T)
        diff = v * (c1 + c2 * (v + 2.0 * ea[:, :, None]))
        return diff / n_slots

    grad = np.empty((n_users, n_slots, m_items))
    for t in range(n_slots):
        tables = SlotTables.from_state(profile, x, sizes, t)
        w, val, const = tables.w, tables.val, tables.const
        for n in range(n_users):
            vz, pz = _enum_excluding(w, val, n)
            base = float(pz @ cost.cost(vz + const))
            shifted = vz[None, :] + const + val[n, 1:][:, None]
            ok = cost.in_domain(shifted)
            cvals = np.zeros_like(shifted)
            cvals[ok] = cost.cost(shifted[ok])
            grad[n, t] = np.where(ok.all(axis=1), cvals @ pz - base, np.inf)
    return grad / n_slots
