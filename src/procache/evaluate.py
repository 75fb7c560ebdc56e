"""Cycle-cost evaluation and gradients under proactive downloads.

With allocation ``x[n, t, m]`` (portion of item m delivered to user n ahead
of slot t, bounded by the item size), the load of slot ``t`` is

    Y_t = sum_n (S(m_n) - x[n, t, m_n]) * [n requests m_n in t]
        + sum_{n, m} x[n, t+1, m]

where the second term is the proactive traffic sent during ``t`` and indices
wrap modulo T.  The cycle objective is the slot average of ``E[C(Y_t)]``.

Three interchangeable engines evaluate the expectations.  Each is one
:class:`Engine` record: a guard, the state it builds at an allocation, and
the kernels that read that state (value, marginal costs, probability
gradient, and the curvature operator behind :func:`hess_operator`).
:attr:`EvalConfig.kernels` is the one place the engine name is looked up.
The kernels work on :class:`Tables`, all slots batched in the profile's own
(K, T, M) layout; a one-slot slice is the batch of one.

A row of the profile is a class of ``counts[k]`` identical users
(:class:`~procache.demand.DemandProfile`).  The problem does not change when
two identical users swap places and it is convex, so averaging an optimum
over those swaps gives a symmetric one: solving for one (T, M) block per
class is exact.  Only ``analytic_quadratic`` solves on classes
(:attr:`Engine.classes`).  Its kernels weight every sum over rows by the
counts, and the cycle-level gradients and Hessian product scale each row by
its count, which makes them the exact derivatives of the cost as a function
of the class rows (the sum over each class's copies).  The other engines
work per user and refuse a count above 1; they take
:meth:`~procache.demand.DemandProfile.expanded`.  Where every count is 1 no
weight is applied, so per-user arithmetic is unchanged bit for bit.

A :class:`Point` is one allocation ready for evaluation.  It builds its
tables once, on first use, and the engine's state at ``x`` once, so a
solver that asks for the value, the gradient and many Hessian products at
one iterate pays for them once.  The cycle-level functions take a point
or a bare (N, T, M) array, which needs ``catalog=`` (``None`` is the zero
allocation) and becomes a point for the one call.  The one Hessian product
is :func:`hess_operator`, built on a set of free coordinates: a Newton-CG
iteration builds one on its free set and takes all its products from it.

* ``enumerate``: exact product-form enumeration, feasible while
  ``(M+1)^N <= 1e7`` per slot.  Each user's axis holds only the choices it
  makes with positive probability, so a slot's joint outcome grid spans its
  reachable support, at most (M+1)^N outcomes.  Slots whose users have equal
  numbers of such choices share one grid of shape (B, outcomes), user 0 the
  slowest axis, with at most 1e7 outcomes per batch.  The value, ``E[C'(Y)]``
  and the per-(user, item) ``E[I C'(Y)]`` all come from that grid: the last
  is the axis-n marginal of ``P C'(Y)``, since ``P(c) = prod_n w[n, c_n]``.
  The curvature kernel takes the same marginals of ``P C''(Y) dY``.  The
  batches, their probability grids and the ones vector the marginal sums
  multiply by are kept on the profile
  (:class:`_Outcomes`); a point builds each batch's loads grid on first use
  and keeps it, so its value, gradient and products read one grid.  Grids
  are kept only while the cycle's reachable support, summed over batches,
  is at most 1e7 cells, the bound one batch obeys; past it each call builds
  its own.  A trial that overflows an outage capacity raises from its loads
  grid, in the cost's domain check.  The probability gradient builds one
  grid per user, that user's every choice against the other users' support,
  and values it with the cost as it is.  Only a grid with a load outside the
  cost's domain builds the in-domain mask: its choices that overflow at
  positive probability get ``+inf``, and an overflowing silent choice raises.
* ``analytic_quadratic``: closed-form first/second moments, valid only for
  polynomial costs of degree <= 2, where ``C''`` is constant.  Like the
  other engines it reads the cost only through ``C``, ``C'`` and ``C''``:
  ``E[C(Y)] = C(E[Y]) + C'' Var[Y] / 2``, and ``C'`` is affine;
* ``monte_carlo``: seeded counter-based sampling with reported standard
  errors; estimates are reproducible bit-for-bit for a given seed.  The
  draws are made once per (profile, seed, samples) and kept on the profile
  only as their flat sample index ``(t N + n)(M+1) + code`` (T, N, K) into
  a (T, N, M+1) table of per-choice values
  (:meth:`DemandProfile.draw_index`).  The kernels read only that index: a
  load adds up one gather per user from the value table, in user order,
  and every per-(user, item) mean is one ``bincount`` per slot over it.  The
  state is the sampled loads, so every kernel reads the same draws and
  loads, all slots at once.  The curvature operator groups each slot's
  samples by the free coordinates their draws hit (their hit pattern),
  once per free set, and a product works per pattern, not per draw
  (:func:`_mc_hess_op`).  Standard
  errors of the marginal statistics are computed only when asked for
  (:attr:`Engine.marginal_errors`).  It has no probability gradient.

Expectations are only ever taken over reachable outcomes: enumeration leaves
out zero-probability choices and masks outcome probabilities that underflow
to 0 before the cost function sees them, so an
outage-capacity model raises exactly when an outcome with positive
probability overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .costs import CostDomainError, CostModel
from .demand import DemandProfile, ItemCatalog

_ENUM_LIMIT = 10_000_000
_INT64_MAX = int(np.iinfo(np.int64).max)


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
class EvalResult:
    """Cycle cost with per-slot breakdown; stderr is 0 for exact engines."""

    value: float
    stderr: float
    slot_values: np.ndarray
    slot_stderrs: np.ndarray


class Tables(NamedTuple):
    """Kernel inputs for a batch of slots, in the profile's (N, T, M) layout.

    ``v`` is the load a request adds to its slot (S - x; a silent user adds
    0), ``const`` (T,) the load every outcome of the slot carries,
    ``outcomes`` the engine's outcome structure (:attr:`Engine.outcomes`):
    the Monte Carlo draws' flat sample index (T, N, K) into a (T, N, M+1)
    table of per-choice values, or the enumeration's :class:`_Outcomes`;
    and ``counts`` the class sizes as float weights (K,), ``None`` when
    every row is one user.  Built by :func:`cycle_tables` and kept by a
    :class:`Point`; other modules evaluate through the cycle-level functions.
    """

    probs: np.ndarray
    v: np.ndarray
    const: np.ndarray
    outcomes: object
    counts: np.ndarray | None


def weigh_classes(arr: np.ndarray, counts: np.ndarray | None) -> np.ndarray:
    """``arr`` with row ``k`` (its first axis) scaled by ``counts[k]``; ``arr``
    itself when ``counts`` is ``None`` (every row one user)."""
    if counts is None:
        return arr
    return arr * counts.reshape((-1,) + (1,) * (arr.ndim - 1))


def prefetch_volume(x: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """The proactive traffic of allocation (or direction) ``x`` per slot, (T,):
    slot t carries what is sent during it, ``x[:, t+1].sum()`` (indices wrap),
    each row counted once per user of its class."""
    x = weigh_classes(x, counts)
    n_slots = x.shape[1]
    return np.array([x[:, (t + 1) % n_slots, :].sum() for t in range(n_slots)])


def cycle_tables(
    profile: DemandProfile, x: np.ndarray, sizes: np.ndarray, cfg: EvalConfig
) -> Tables:
    """Every slot's kernel inputs at allocation ``x``, ``const`` its
    :func:`prefetch_volume`."""
    counts = profile.weights
    return Tables(profile.probs, sizes[None, None, :] - x, prefetch_volume(x, counts),
                  cfg.kernels.outcomes(profile, cfg), counts)


class Point:
    """Allocation ``x`` ready for evaluation under ``(profile, cost, cfg)``.

    The engine guard runs once, here; ``x`` must have the profile's shape
    and ``sizes`` one entry per item (``x`` is not checked against them).  The
    :class:`Tables` are built on first use and the engine's state at ``x``
    (:attr:`Engine.state`) once, and every value, gradient and Hessian
    product at the point reads them.  ``x`` is made read-only: an in-place
    write would leave that state stale.
    """

    def __init__(self, profile: DemandProfile, x, sizes: np.ndarray, cost: CostModel,
                 cfg: EvalConfig):
        cfg.kernels.check(profile, cost)
        self.x = np.asarray(x, dtype=float)
        if self.x.shape != profile.probs.shape or np.shape(sizes) != profile.probs.shape[2:]:
            raise ValueError(f"allocation {self.x.shape} and sizes {np.shape(sizes)} do not fit "
                             f"the profile {profile.probs.shape}")
        self.x.setflags(write=False)
        self.profile, self.sizes, self.cost, self.cfg = profile, sizes, cost, cfg

    @cached_property
    def tables(self) -> Tables:
        return cycle_tables(self.profile, self.x, self.sizes, self.cfg)

    @cached_property
    def state(self):
        return self.cfg.kernels.state(self.tables, self.cost)


def _values(v: np.ndarray, direction: bool = False) -> np.ndarray:
    """Every slot's load values (T, N, M+1), the silent column 0: ``v`` (N, T,
    M), or ``0 - v`` for a ``direction``, whose prefetch removes load."""
    n_users, n_slots, m_items = v.shape
    val = np.zeros((n_slots, n_users, m_items + 1))
    if direction:
        np.subtract(0.0, v.transpose(1, 0, 2), out=val[:, :, 1:])
    else:
        val[:, :, 1:] = v.transpose(1, 0, 2)
    return val


# ---------------------------------------------------------------------------
# enumeration


def _batches(w: np.ndarray, full: int | None = None):
    """Slot batches to enumerate, each over the choices its users can make.

    A user's grid axis holds only its choices of positive probability (all
    of them for user ``full``), so a grid follows the reachable support
    rather than (M+1)^N.  Slots share a batch when every user has the same
    number of such choices, and a batch holds at most ``_ENUM_LIMIT``
    outcomes.  Yields the slot indices ``s``, the users' numbers of choices
    ``widths`` and the column order ``cols`` (B, N, M+1) that puts the
    enumerated columns first, ``None`` when that is all of them.
    """
    return _batching(w)(full)


def _batching(w: np.ndarray):
    """:func:`_batches` of ``w`` for any ``full``, as ``batches(full)``:
    the live mask, each (slot, user)'s number of live choices and the
    column order are computed once, for a caller that batches per user.
    User ``full``'s row of the order is the identity, all its choices live."""
    live = w > 0.0
    rows = live.sum(axis=2).tolist()
    short = ~live.all(axis=2)                # (T, N): a choice of zero weight
    order = np.argsort(~live, axis=2, kind="stable") if short.any() else None
    width = w.shape[2]

    def cols_of(s, full):
        cut = short[s]
        if full is not None:
            cut[:, full] = False
        if not cut.any():
            return None
        cols = order[s]
        if full is not None:
            cols[:, full] = np.arange(width)
        return cols

    def batches(full=None):
        groups = {}
        for t, widths in enumerate(rows):
            if full is not None:
                widths = widths[:full] + [width] + widths[full + 1:]
            groups.setdefault(tuple(widths), []).append(t)
        for widths, slots in groups.items():
            step = max(1, _ENUM_LIMIT // math.prod(widths))
            for lo in range(0, len(slots), step):
                s = np.array(slots[lo:lo + step])
                yield s, widths, None if order is None else cols_of(s, full)
    return batches


def _cut(tab: np.ndarray, s: np.ndarray, widths: tuple, cols) -> list:
    """A (T, N, M+1) table's per-user tables (B, K_n) on a batch's slots."""
    tab = tab[s] if cols is None else np.take_along_axis(tab[s], cols, 2)
    return [tab[:, n, :k] for n, k in enumerate(widths)]


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


def _ones_for(widths_each) -> np.ndarray:
    """A read-only ones vector long enough for every sum :func:`_axis_sums`
    takes on grids of the users' numbers of choices in ``widths_each``.  Each
    summed axis is some ``K_n`` or ``K_0 ... K_{n-1}``, so the vector is at
    most one row of the largest grid; a leading slice serves a shorter axis."""
    ones = np.ones(max(max(max(widths), int(np.prod(widths[:-1]))) for widths in widths_each))
    ones.setflags(write=False)
    return ones


def _axis_sums(grid: np.ndarray, widths: tuple, width: int, ones=None) -> np.ndarray:
    """Sum a (B, prod K_n) outcome grid over all users but one: (N, B, width).

    Entries past a user's K_n are 0.  Summing off the fastest user at each
    step leaves the grid of the users before it, so the N marginals cost
    about one pass over the grid.  Each sum is a product with a leading
    slice of ``ones``, the batches' vector kept in :class:`_Outcomes`
    (:func:`_ones_for`), or one built for the call when it is ``None``.
    """
    if ones is None:
        ones = _ones_for([widths])
    out = np.zeros((len(widths), len(grid), width))
    for n in range(len(widths) - 1, -1, -1):
        grid = grid.reshape(len(grid), -1, widths[n])      # (B, K_0...K_{n-1}, K_n)
        out[n, :, :widths[n]] = ones[:grid.shape[1]] @ grid
        grid = grid @ ones[:widths[n]]
    return out


def _on_live(fn, loads, live):
    """``fn`` of the live loads, 0 elsewhere: unreachable outcomes never reach the cost."""
    if live is None or live.all():
        return fn(loads)
    out = np.zeros_like(loads)
    out[live] = fn(loads[live])
    return out


def _chances(ws: list, rows: int) -> tuple:
    """A batch's read-only probability grid and the mask of its outcomes of
    positive probability, ``None`` when all of them have.  A grid holds only
    positive weights, but their products can underflow to 0, so the cost
    still sees only outcomes of positive probability."""
    probs = _grid(ws, np.multiply, np.ones(rows))
    probs.setflags(write=False)
    return probs, None if probs.min() > 0.0 else probs > 0.0


class _Outcomes(NamedTuple):
    """A profile's weight table ``w`` (T, N, M+1), silent column first, its
    :func:`_batches` ``(s, widths, cols, ws)`` with per-user weight tables
    ``ws``, the read-only ``ones`` vector whose leading slices
    :func:`_axis_sums` multiplies every batch's grids by (:func:`_ones_for`),
    and the batches' :func:`_chances`.  ``ones`` is kept with the batches,
    so it is freed with the profile.  The chances are kept (here and by
    each point's :class:`_EnumState`) only while the cycle's reachable
    support, summed over batches, is at most ``_ENUM_LIMIT`` cells: past
    that ``grids`` is ``None`` and every call builds its own."""

    w: np.ndarray
    batches: list
    ones: np.ndarray
    grids: list | None

    @classmethod
    def of(cls, profile: DemandProfile) -> "_Outcomes":
        w = np.concatenate([profile.silence[:, :, None], profile.probs], axis=2).transpose(1, 0, 2)
        batches = [(s, widths, cols, _cut(w, s, widths, cols)) for s, widths, cols in _batches(w)]
        cells = sum(len(s) * int(np.prod(widths)) for s, widths, *_ in batches)
        grids = None if cells > _ENUM_LIMIT else [_chances(b[3], len(b[0])) for b in batches]
        return cls(w, batches, _ones_for(b[1] for b in batches), grids)

    def chances(self, i: int) -> tuple:
        """Batch ``i``'s probability grid and live mask, kept or built for the call."""
        if self.grids is None:
            return _chances(self.batches[i][3], len(self.batches[i][0]))
        return self.grids[i]


def _exact_errors(tables: Tables, state, cost: CostModel, b: np.ndarray):
    """An exact engine's ``(a_se, b_se)``: zeros, ``b_se`` a read-only broadcast."""
    return np.zeros(len(tables.const)), np.broadcast_to(0.0, b.shape)


def _per_user_check(profile: DemandProfile, engine: str) -> None:
    if not profile.per_user:
        raise UnsupportedEngineError(
            f"the {engine} engine evaluates one row per user, and this profile has a class "
            f"of {int(profile.counts.max())} users; pass profile.expanded()"
        )


def _enum_check(profile: DemandProfile, cost: CostModel) -> None:
    _per_user_check(profile, "enumerate")
    # (M+1)^N overflows a float past N ~ 308 / log10(M+1): compare logarithms
    digits = profile.num_users * np.log10(profile.num_items + 1)
    if digits > np.log10(_ENUM_LIMIT):
        raise UnsupportedEngineError(
            f"enumeration would visit 10^{digits:.3g} outcomes per slot "
            f"(limit {_ENUM_LIMIT:g}); use monte_carlo"
        )


class _EnumState:
    """A point's value table ``val`` (T, N, M+1), silent column first, and each
    batch's loads grid, built on first use and kept read-only within the
    budget.  An overflowing trial raises from its grid's domain check."""

    def __init__(self, tables: Tables, cost: CostModel):
        self.tables, self.val = tables, _values(tables.v)
        self.kept = {}

    def loads(self, i: int) -> np.ndarray:
        grid = self.kept.get(i)
        if grid is None:
            grid = self.build(i)
            if self.tables.outcomes.grids is not None:
                grid.setflags(write=False)
                self.kept[i] = grid
        return grid

    def build(self, i: int) -> np.ndarray:
        s, widths, cols, _ = self.tables.outcomes.batches[i]
        return _grid(_cut(self.val, s, widths, cols), np.add, self.tables.const[s])


def _enum_expected_cost(tables: Tables, state: _EnumState, cost: CostModel):
    out = np.empty(len(tables.const))
    for i, (s, *_) in enumerate(tables.outcomes.batches):
        loads = state.loads(i)
        probs, live = tables.outcomes.chances(i)
        out[s] = np.einsum("tk,tk->t", probs, _on_live(cost.cost, loads, live))
    return out, np.zeros(len(tables.const))


def _enum_heaviest(tables: Tables, state: _EnumState) -> float:
    """The heaviest reachable load: a slot's constant plus each user's heaviest
    choice of positive probability, at the worst slot.  No grid is read, so
    it costs the same whether or not the point keeps its grids."""
    reachable = np.where(tables.outcomes.w > 0.0, state.val, -np.inf)
    return float((tables.const + reachable.max(axis=2).sum(axis=1)).max())


def _enum_marginals(tables: Tables, state: _EnumState, weight, d=None, dconst=None):
    """``(a, b)`` with ``a = E[W]`` and ``b[n] = E[I_n(m) W]``, ``W = weight(Y)``
    times ``dY`` when ``(d, dconst)`` give a direction (see :class:`Engine`).
    ``b[n]`` is the axis-n marginal of ``P W`` over the joint grid, since
    ``P(c) = prod_n w[n, c_n]``; items of zero weight get 0.  ``P W`` is
    built in the new grid ``weight(Y)``, never in a kept one.  Along a
    direction ``b`` is written over ``d``, whose loads are read first."""
    outcomes = tables.outcomes
    n_slots, n_users, width = outcomes.w.shape
    dval = None if d is None else _values(d, direction=True)
    a = np.empty(n_slots)
    b = np.empty((n_users, n_slots, width - 1)) if d is None else d
    for i, (s, widths, cols, _) in enumerate(outcomes.batches):
        probs, live = outcomes.chances(i)
        grid = _on_live(weight, state.loads(i), live)
        grid *= probs
        del probs, live   # past the budget, this call's grids go before the next is built
        if d is not None:
            grid *= _grid(_cut(dval, s, widths, cols), np.add, dconst[s])
        sums = _axis_sums(grid, widths, width, outcomes.ones)
        del grid
        a[s] = sums[0].sum(axis=1)
        if cols is not None:   # back to column order
            np.put_along_axis(sums, cols.transpose(1, 0, 2), sums.copy(), axis=2)
        b[:, s] = sums[:, :, 1:]
    return a, b


def _enum_marginal_stats(tables: Tables, state, cost: CostModel):
    return _enum_marginals(tables, state, cost.marginal)


def _enum_hess_vec(tables: Tables, state, d, dconst, cost: CostModel):
    return _enum_marginals(tables, state, cost.second, d, dconst)


def _enum_gradient_p(tables: Tables, state, cost: CostModel) -> np.ndarray:
    """For each user n, the loads grid takes all of n's choices as its slowest
    axis over the other users' reachable outcomes, whose probabilities
    ``P_-n`` weight every row alike, so one matrix product gives the
    conditional expectation of every choice.

    A grid is valued with ``cost.cost`` as it is.  Only a grid that leaves
    the cost's domain takes :func:`_masked_differences`, where an entry is
    ``+inf`` when an outcome with ``P_-n > 0`` leaves the domain and a
    silent one that does raises :class:`CostDomainError`.
    """
    w, val, const = tables.outcomes.w, state.val, tables.const
    n_slots, n_users, width = w.shape
    grad = np.empty((n_users, n_slots, width - 1))
    batches = _batching(w)
    for n in range(n_users):
        for s, widths, cols in batches(n):
            ws, vs = _cut(w, s, widths, cols), _cut(val, s, widths, cols)
            del ws[n]
            probs = _grid(ws, np.multiply, np.ones(len(s)))                        # (B, K)
            loads = _grid([vs.pop(n)] + vs, np.add, const[s]).reshape(len(s), width, -1)
            try:
                values = cost.cost(loads)
            except CostDomainError:
                grad[n, s] = _masked_differences(loads, probs, cost)
                continue
            cond = (values @ probs[:, :, None])[:, :, 0]
            grad[n, s] = cond[:, 1:] - cond[:, :1]
    return grad


def _masked_differences(loads: np.ndarray, probs: np.ndarray, cost: CostModel) -> np.ndarray:
    """:func:`_enum_gradient_p`'s differences on a loads grid (B, M+1, K)
    that leaves the cost's domain: only its in-domain loads reach the cost,
    a choice with an outcome past the domain at ``P_-n > 0`` gets ``+inf``,
    and a silent choice with one raises :class:`CostDomainError` at the
    heaviest such load."""
    ok = cost.in_domain(loads)
    cond = (_on_live(cost.cost, loads, ok) @ probs[:, :, None])[:, :, 0]
    bad = ~ok & (probs > 0.0)[:, None, :]
    out = bad.any(axis=2)
    if out[:, 0].any():   # the silent baseline itself overflows
        raise CostDomainError(float(loads[bad].max()), cost.domain_limit)
    return np.where(out[:, 1:], np.inf, cond[:, 1:] - cond[:, :1])


# ---------------------------------------------------------------------------
# closed-form moments


def _analytic_check(profile: DemandProfile, cost: CostModel) -> None:
    if cost.kind == "outage" or cost.degree > 2:
        raise UnsupportedEngineError(
            "analytic_quadratic handles polynomial costs of degree <= 2 only"
        )


def _analytic_state(tables: Tables, cost: CostModel):
    """Every class's per-user mean load (K, T), E[Y] (T,) and the constant ``C''``."""
    mean_u = np.einsum("ntm,ntm->nt", tables.probs, tables.v)
    ey = tables.const + weigh_classes(mean_u, tables.counts).sum(axis=0)
    return mean_u, ey, cost.second(0.0)


def _analytic_expected_cost(tables: Tables, state, cost: CostModel):
    """``C''`` is constant, so ``E[C(Y)] = C(E[Y]) + C'' Var[Y] / 2``."""
    mean_u, ey, curv = state
    m2_u = np.einsum("ntm,ntm,ntm->nt", tables.probs, tables.v, tables.v)
    vary = weigh_classes(m2_u - mean_u**2, tables.counts).sum(axis=0)
    return cost.cost(ey) + 0.5 * curv * vary, np.zeros(len(ey))


def _analytic_marginal_stats(tables: Tables, state, cost: CostModel):
    """``C'`` is affine, so ``E[I_n(m) C'(Y)] = p (v C'' + C'(E[Y] - E[X_n]))``,
    built in one buffer."""
    mean_u, ey, curv = state
    b = tables.v * curv
    b += cost.marginal(ey - mean_u)[:, :, None]
    b *= tables.probs
    return cost.marginal(ey), b


def _analytic_hess_vec(tables: Tables, state, d, dconst, cost: CostModel):
    """``C''`` is the state's constant ``state[2]`` and a request's load moves
    by ``-d``, so ``da = C'' dE[Y]`` and ``db = C'' p (dE[Y] + E[d_n] - d)``,
    built over ``d``."""
    dmean_u = np.einsum("ntm,ntm->nt", tables.probs, d)
    dey = dconst - weigh_classes(dmean_u, tables.counts).sum(axis=0)
    db = np.subtract((dey + dmean_u)[:, :, None], d, out=d)
    db *= tables.probs
    db *= state[2]
    return state[2] * dey, db


def _analytic_gradient_p(tables: Tables, state, cost: CostModel) -> np.ndarray:
    """``E[C(v + Z)] - E[C(Z)]`` with Z the other users' load: ``v (C'(E[Z]) + C'' v / 2)``."""
    mean_u, ey, curv = state
    return tables.v * (cost.marginal(ey - mean_u)[:, :, None] + 0.5 * curv * tables.v)


# ---------------------------------------------------------------------------
# Monte Carlo: the kernels read the draws' flat sample index ``tables.outcomes``
# (T, N, K), built once with the draws, and the sampled loads it gives at the
# point, the state (T, K).  A gather through the index reads every sample's
# value out of a (T, N, M+1) value table; a bincount over it sums into one bin
# per (slot, user, choice).


def _mc_loads(val: np.ndarray, const: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Sampled slot loads (T, K) from the value table ``val`` (T, N, M+1);
    users are gathered one at a time into one (T, K) buffer and added in
    user order."""
    y = np.empty((index.shape[0], index.shape[2]))
    y[:] = const[:, None]
    gathered = np.empty_like(y)
    for n in range(index.shape[1]):
        # the index is in range, and "clip" lets take write into its buffer unbuffered
        val.take(index[:, n], out=gathered, mode="clip")
        y += gathered
    return y


def _mean_se(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row means of a (T, K) sample array and their standard errors."""
    k = v.shape[1]
    se = v.std(axis=1, ddof=1) / np.sqrt(k) if k > 1 else np.zeros(v.shape[0])
    return v.mean(axis=1), se


def _mc_state(tables: Tables, cost: CostModel) -> np.ndarray:
    return _mc_loads(_values(tables.v), tables.const, tables.outcomes)


def _mc_expected_cost(tables: Tables, loads, cost: CostModel):
    return _mean_se(cost.cost(loads))


def _mc_bin_means(tables: Tables, d: np.ndarray) -> np.ndarray:
    """Per-(user, slot, item) sample mean of ``d`` (T, K) over the draws where
    that user requests that item, i.e. the estimate of ``E[I_n(m) d]`` (N, T,
    M), as a new C-ordered array.  One ``bincount`` per slot over its (N, K)
    block of the index, renumbered into the slot's own bins in a reused
    buffer, with ``d[t]`` repeated per user into another: no (T, N, K) copy
    of ``d``, and each bin adds the same draws in the same order."""
    index, (n_users, n_slots, m_items) = tables.outcomes, tables.v.shape
    bins = n_users * (m_items + 1)   # one slot's (user, choice) bins
    total = np.empty((n_slots, bins))
    weights = np.empty(index.shape[1:])
    local = np.empty(index.shape[1:], dtype=index.dtype)
    for t in range(n_slots):
        weights[:] = d[t]
        np.subtract(index[t], t * bins, out=local)
        total[t] = np.bincount(local.ravel(), weights=weights.ravel(), minlength=bins)
    means = total.reshape(n_slots, n_users, m_items + 1)[:, :, 1:].transpose(1, 0, 2)
    return np.divide(means, d.shape[1], out=np.empty(tables.v.shape))


def _mc_marginal_stats(tables: Tables, loads, cost: CostModel):
    d = cost.marginal(loads)
    return d.mean(axis=1), _mc_bin_means(tables, d)


def _mc_marginal_errors(tables: Tables, loads, cost: CostModel, b: np.ndarray):
    k = loads.shape[1]
    d = cost.marginal(loads)
    if k == 1:
        return np.zeros(len(d)), np.zeros_like(b)
    var = np.maximum(_mc_bin_means(tables, d * d) - b**2, 0.0)
    return _mean_se(d)[1], np.sqrt(var / (k - 1))


def _dense(keys: np.ndarray):
    """Flat integer ``keys`` renumbered 0, 1, ... in sorted order: ``(ids,
    first)``, ``first`` the position of each distinct key's first occurrence."""
    _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
    return ids, first


def _mc_hess_op(tables: Tables, loads, cost: CostModel, free):
    """Works per hit pattern, not per draw.  A direction zero off ``free``
    moves a sample's load in slot t by the volume sent in t minus the
    direction's entries at the free coordinates the sample's draws hit
    there, so samples with the same slot and the same hits move alike.

    Built once, from one gather of the draw index per chunk of users: each
    sample's pattern key, in mixed radix over the users' 1-based ranks of
    their hit among their free coordinates in that slot (0 for none), the
    slot the most significant digit, then the users from the last to the
    first.  Users join the key in chunks whose radix product stays within
    2**31, so a chunk's digits gather from an int32 table, and the key is
    renumbered densely (:func:`_dense`) before a chunk would take it past
    int64, so the grouping is exact, with no hashing, and the pattern ids
    keep that order however the users are chunked.  Each pattern keeps its
    slot, its members (the free coordinates its first sample hits, in user
    order) and its samples' sum of ``C''(Y)``.  A product takes the volume
    sent per slot with one ``bincount`` over the free coordinates' sending
    slots, each pattern's ``dY`` (that volume minus its members' entries),
    and bins ``C'' dY`` back per slot and per member: its work grows with
    the patterns and their members, not with the draws."""
    index, shape = tables.outcomes, tables.v.shape
    n_slots, n_users, k = index.shape
    n, t, m = np.unravel_index(free, shape)
    # each free coordinate's 1-based rank among its user's in its slot, in free's order
    cell = t * n_users + n
    order = cell.argsort(kind="stable")
    counts = np.bincount(cell, minlength=n_slots * n_users)
    rank = np.empty(free.size, dtype=np.int64)
    rank[order] = np.arange(1, free.size + 1) - (np.cumsum(counts) - counts)[cell[order]]
    radix = counts.reshape(n_slots, n_users).max(axis=0) + 1
    users = np.flatnonzero(radix > 1)
    # a chunk's radix product stays within 2**31, so its digits fit in int32,
    # and times at most T K dense ids within int64
    limit = min(2**31, _INT64_MAX // (n_slots * k))
    place, cuts, spans = np.zeros(n_users, np.int64), [0], [1]
    for u, r in enumerate(radix.tolist()):
        if spans[-1] * r > limit:
            cuts.append(u)
            spans.append(1)
        place[u] = spans[-1]
        spans[-1] *= r
    digit = np.zeros((n_slots, n_users, shape[2] + 1), dtype=np.int32)
    digit[t, n, m + 1] = rank * place[n]
    key, count = np.arange(n_slots)[:, None], n_slots    # (T, K) from the first chunk on
    # the last chunk's users first: the key orders (slot, hits) from the last user to the first
    for lo, hi, span in reversed(list(zip(cuts, cuts[1:] + [n_users], spans))):
        if count * span > _INT64_MAX:
            key, first = _dense(key.ravel())
            key, count = key.reshape(n_slots, k), first.size
        # the chunk's scan of the draws, (T, hi - lo, K)
        key = key * span + digit.ravel().take(index[:, lo:hi]).sum(axis=1, dtype=np.int64)
        count *= span
    pattern, first = _dense(key.ravel())
    slot = first // k
    curv = np.bincount(pattern, weights=cost.second(loads).ravel(), minlength=first.size)
    position = np.full((n_slots, n_users, shape[2] + 1), -1)   # each bin's place in free
    position[t, n, m + 1] = np.arange(free.size)
    # each pattern's draws by its users with a free coordinate, (P, U)
    hits = np.add.outer(slot * (n_users * k) + first % k, users * k)
    hits = position.ravel().take(index.ravel().take(hits), out=hits, mode="clip").ravel()
    member = np.flatnonzero(hits >= 0)
    owner, member = member // max(users.size, 1), hits[member]
    send = (t - 1) % n_slots

    def product(v, dconst=None):
        if dconst is None:
            dconst = np.bincount(send, weights=v, minlength=n_slots)
        # an empty free set or no member leaves an integer bincount: curv and
        # the division make them float
        dy = (dconst.take(slot) - np.bincount(owner, weights=v.take(member),
                                              minlength=first.size)) * curv
        return (np.bincount(slot, weights=dy, minlength=n_slots) / k,
                np.bincount(member, weights=dy.take(owner), minlength=free.size) / k)
    return product


def _scattered(kernel):
    """An exact engine's ``hess_op`` over its whole-array ``kernel(tables,
    state, d, dconst, cost)``, which builds ``db`` over ``d``: the direction
    is scattered into one zeroed buffer and ``db`` gathered back on ``free``."""
    def build(tables: Tables, state, cost: CostModel, free):
        scatter = np.empty(tables.v.shape)

        def product(v, dconst=None):
            scatter.fill(0.0)
            scatter.flat[free] = v
            if dconst is None:
                dconst = prefetch_volume(scatter, tables.counts)
            da, db = kernel(tables, state, scatter, dconst, cost)
            return da, db.ravel()[free]
        return product
    return build


@dataclass(frozen=True)
class Engine:
    """One engine: a guard, outcomes, a state and five kernels on :class:`Tables`.

    ``check(profile, cost)`` raises :class:`UnsupportedEngineError` on an
    instance the engine cannot handle.  ``outcomes(profile, cfg)`` is what
    it builds from the profile alone, kept on it
    (:meth:`~procache.demand.DemandProfile.memo`): :class:`_Outcomes` for
    ``enumerate``, the draws' sample index for ``monte_carlo``.
    ``state(tables, cost)`` is what the engine computes at the allocation,
    built once per :class:`Point`: the value table and loads grids
    (:class:`_EnumState`) for ``enumerate``; every row's mean load (K, T),
    ``E[Y]`` (T,) and the constant ``C''`` for ``analytic_quadratic``; the
    sampled loads ``Y`` (T, K) for ``monte_carlo``.  Each kernel takes
    ``(tables, state, cost)``:

    * ``expected_cost``: per-slot ``E[C(Y)]`` and its standard error, (T,) each;
    * ``marginal_stats``: ``(a, b)`` with ``a = E[C'(Y)]`` (T,) and
      ``b = E[I_n(m) C'(Y)]`` (N, T, M), ``I_n(m)`` the event that user n
      requests item m;
    * ``marginal_errors(tables, state, cost, b)``: the standard errors
      ``(a_se, b_se)`` of those, given ``marginal_stats``' ``b``;
    * ``gradient_p``: ``E_-n[C(Y) | n -> m] - E_-n[C(Y) | n silent]`` (N, T, M);
      ``None`` on ``monte_carlo``, which has no conditional expectations.

    ``hess_op(tables, state, cost, free)`` builds the curvature operator on
    ``free`` (distinct flat coordinates into (N, T, M)): ``product(v,
    dconst=None)`` gives ``(da, db)``, ``da = E[C''(Y) dY]`` (T,) and ``db =
    E[I_n(m) C''(Y) dY]`` on ``free``, for a direction ``d`` whose entries
    there are ``v`` and zero elsewhere.  ``dconst`` (T,) is ``d``'s
    :func:`prefetch_volume`, taken from it when not given (a one-slot slice
    of the tables needs it given): ``dY_t = dconst[t] - sum_n d[n, t, m_n]``.
    The outcome distribution does not depend on the allocation, so these
    are the exact derivatives of ``marginal_stats``' ``(a, b)`` along ``d``.

    ``heaviest(tables, state)`` is the heaviest load the value can read at
    the point: reachable on ``enumerate``, sampled on ``monte_carlo``, and
    ``None`` on ``analytic_quadratic``, whose costs have no capacity.  An
    overflowing trial's :class:`CostDomainError` carries the heaviest load
    of the first grid (or of the samples) past the capacity.

    Rows are classes of ``tables.counts`` identical users.  An engine with
    ``classes`` weights every sum over rows by the counts, so its ``a`` and
    ``da`` are the slot's whole statistics and its per-row ``b``, ``db`` and
    ``gradient_p`` those of one user of the class; the other engines'
    ``check`` refuses a count above 1.

    ``sampled`` engines read the draws through the sample index the profile
    keeps.  The exact engines' errors are zeros, ``b_se`` a read-only
    broadcast; only :func:`~procache.proactive.active_sets` asks for them,
    so the hot ``cost_gradient_x`` path computes no errors.
    ``b`` and ``db`` are new arrays, which the cycle-level functions turn
    into the gradient and the product in place.
    """

    check: Callable
    state: Callable
    expected_cost: Callable
    marginal_stats: Callable
    marginal_errors: Callable
    gradient_p: Callable | None
    hess_op: Callable
    heaviest: Callable | None = None
    outcomes: Callable = lambda profile, cfg: None
    sampled: bool = False
    classes: bool = False


_ENGINES = {
    "enumerate": Engine(
        _enum_check, _EnumState, _enum_expected_cost, _enum_marginal_stats, _exact_errors,
        _enum_gradient_p, _scattered(_enum_hess_vec), heaviest=_enum_heaviest,
        outcomes=lambda profile, cfg: profile.memo("enumerate", lambda: _Outcomes.of(profile)),
    ),
    "analytic_quadratic": Engine(
        _analytic_check, _analytic_state, _analytic_expected_cost, _analytic_marginal_stats,
        _exact_errors, _analytic_gradient_p, _scattered(_analytic_hess_vec), classes=True,
    ),
    "monte_carlo": Engine(
        lambda profile, cost: _per_user_check(profile, "monte_carlo"), _mc_state,
        _mc_expected_cost, _mc_marginal_stats, _mc_marginal_errors, None, _mc_hess_op,
        heaviest=lambda tables, loads: float(loads.max()),
        outcomes=lambda profile, cfg: profile.draw_index(cfg.seed, cfg.samples), sampled=True,
    ),
}
ENGINES = tuple(_ENGINES)


# ---------------------------------------------------------------------------
# cycle-level evaluation


def _checked_point(profile, allocation, cost, cfg, catalog) -> Point:
    """``allocation`` as a :class:`Point` under ``(profile, cost, cfg)``."""
    if isinstance(allocation, Point):
        if allocation.profile is not profile or (allocation.cost, allocation.cfg) != (cost, cfg):
            raise ValueError("point was built for another profile, cost or config")
        return allocation
    if catalog is None:
        raise ValueError("need a catalog when the allocation is a bare array")
    x = np.zeros(profile.probs.shape) if allocation is None else allocation
    # a view: making the point's x read-only leaves the caller's array writable
    return Point(profile, np.asarray(x, dtype=float).view(), catalog.sizes, cost, cfg)


def _combine(a: np.ndarray, b: np.ndarray, tables: Tables) -> np.ndarray:
    """``(roll(a, 1) - b) / T`` in ``b``'s own buffer, for slot t-1's ``a``, each
    row then scaled by its class size: the sum over the class's copies."""
    np.subtract(np.concatenate((a[-1:], a[:-1]))[None, :, None], b, out=b)
    b /= len(tables.const)
    if tables.counts is not None:
        b *= tables.counts[:, None, None]
    return b


def expected_cycle_cost(
    profile: DemandProfile,
    allocation,
    cost: CostModel,
    cfg: EvalConfig,
    catalog: ItemCatalog | None = None,
) -> EvalResult:
    """Slot-averaged expected cost of the cycle under ``allocation``."""
    point = _checked_point(profile, allocation, cost, cfg, catalog)
    slot_vals, slot_errs = cfg.kernels.expected_cost(point.tables, point.state, cost)
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
    engine applies the same pathwise rule sample by sample.  On a profile of
    classes, row k moves all ``counts[k]`` users of its class together, so
    its entry is that derivative times the count.
    """
    point = _checked_point(profile, allocation, cost, cfg, catalog)
    a, b = cfg.kernels.marginal_stats(point.tables, point.state, cost)
    return _combine(a, b, point.tables)


def hess_operator(
    profile: DemandProfile,
    allocation,
    cost: CostModel,
    cfg: EvalConfig,
    free: np.ndarray,
    catalog: ItemCatalog | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """The Hessian of the cycle cost in the allocation on the coordinates
    ``free`` (distinct flat indices into (N, T, M)), as a product ``hv(v)``
    that takes and returns new vectors shaped like ``free``: ``v`` holds the
    entries there of a direction ``d`` that is zero elsewhere.

    Moving the allocation along ``d`` changes the load of slot t by
    ``dY_t = sum_{n, m} d[n, t+1, m] - sum_n d[n, t, m_n]``, the second sum
    over the users requesting some ``m_n``.  The derivative of
    :func:`cost_gradient_x` along ``d`` is therefore
    ``(E[C''(Y_{t-1}) dY_{t-1}] - E[I_{n,t}(m) C''(Y_t) dY_t]) / T``, exact on
    every engine because the outcome distribution does not depend on the
    allocation.  On a profile of classes ``d``'s row k moves every user of
    class k, and the product's row is scaled by the count, as in
    :func:`cost_gradient_x`.  What every product shares is built once,
    here: the point's tables and state, a buffer for ``da`` on ``free``'s
    previous slots, and on Monte Carlo the samples grouped by the free
    coordinates they hit, with each group's sum of ``C''(Y)``.  The
    operator keeps the point alive.
    """
    point = _checked_point(profile, allocation, cost, cfg, catalog)
    tables = point.tables
    product = cfg.kernels.hess_op(tables, point.state, cost, free)
    rows, slots, _ = np.unravel_index(free, tables.v.shape)
    prev = (slots - 1) % len(tables.const)
    scale = None if tables.counts is None else tables.counts[rows]
    shifted = np.empty(free.shape)

    def hv(v):
        if np.shape(v) != free.shape:
            raise ValueError(f"product vector {np.shape(v)} on a free set of {free.shape}")
        # _combine on the free coordinates: (da[t-1] - db) / T, times the count;
        # prev is in range, and "clip" lets take write into its buffer unbuffered
        da, db = product(v)
        np.subtract(da.take(prev, out=shifted, mode="clip"), db, out=db)
        db /= len(tables.const)
        if scale is not None:
            db *= scale
        return db
    return hv


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
    and needs conditional expectations, so only exact engines qualify.  On
    a profile of classes row k moves the probabilities of every user of class
    k, so it is that derivative times the count.

    A coordinate comes back ``+inf`` when the conditional expectation
    diverges, i.e. requesting item m would overload a bounded-capacity cost
    with positive probability.  That can only happen where p[n, t, m] is
    currently zero (otherwise the cycle cost itself would be infinite), and
    it tells the caller that no mass may move onto that item.
    """
    point = _checked_point(profile, allocation, cost, cfg, catalog)
    if cfg.kernels.gradient_p is None:
        raise UnsupportedEngineError(
            "this quantity needs an exact engine (enumerate or analytic_quadratic)")
    grad = cfg.kernels.gradient_p(point.tables, point.state, cost)
    return weigh_classes(grad / profile.num_slots, point.tables.counts)
