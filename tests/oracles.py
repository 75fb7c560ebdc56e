"""Reference code the tests check the package against; the package does not use it."""

from dataclasses import dataclass

import numpy as np

from procache import DemandProfile, RatingVector, parse_scenario, sample_outcomes
from procache.evaluate import (cost_gradient_x, cycle_tables, expected_cycle_cost, hess_operator,
                               weigh_classes)
from procache.experiments import SCALING_SCENARIO


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


def sample_index(codes: np.ndarray, num_items: int) -> np.ndarray:
    """Flat positions ``(t N + n)(M+1) + code`` of outcome codes (T, N, K) in a
    (T, N, M+1) array of per-choice values, silent column first."""
    n_slots, n_users, _ = codes.shape
    cells = np.arange(n_slots * n_users, dtype=np.int64).reshape(n_slots, n_users, 1)
    return cells * (num_items + 1) + codes


def sample_outcome(profile, slot: int, seed: int, index: int = 0) -> RequestOutcome:
    """The ``index``-th outcome of the slot's stream (see ``sample_outcomes``)."""
    return RequestOutcome(sample_outcomes(profile, slot, seed, index + 1)[:, index])


def slot_load(outcome: RequestOutcome, x: np.ndarray, sizes: np.ndarray, slot: int) -> float:
    """Realized load of one slot under the given requests and allocation ``x``."""
    n_users, n_slots, _ = x.shape
    t = slot % n_slots
    choices = outcome.choices
    if choices.shape[0] != n_users:
        raise ValueError(f"outcome covers {choices.shape[0]} users, allocation {n_users}")
    load = float(x[:, (t + 1) % n_slots, :].sum())
    req = choices > 0
    for n in np.nonzero(req)[0]:
        m = int(choices[n]) - 1
        load += float(sizes[m] - x[n, t, m])
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


def slot_marginal_stats(profile, x, sizes, cost, cfg):
    """Every slot's ``(a, b)`` at allocation ``x`` (see ``evaluate.Engine``)."""
    tables = cycle_tables(profile, x, sizes, cfg)
    return cfg.kernels.marginal_stats(tables, cfg.kernels.state(tables, cost), cost)


def marginal_cost_ratio(profile, catalog, cost, cfg) -> np.ndarray:
    """Per-slot ratio E[C'(L_t)] / E[C'(L_{t-1})] at zero allocation.

    A slot whose ratio exceeds 1 is a load peak relative to its predecessor.
    """
    a, _ = slot_marginal_stats(
        profile, np.zeros_like(profile.probs), catalog.sizes, cost, cfg
    )
    return a / np.roll(a, 1)


def cell_radius(probs_row, silence: float, alpha: float) -> float:
    """Entropy-ball radius of one (user, slot) cell, ``activity * alpha * H(pi)``,
    with H summed over the positive entries of ``pi = probs_row / activity`` alone."""
    activity = 1.0 - float(silence)
    if activity <= 0.0 or alpha <= 0.0:
        return 0.0
    pi = np.asarray(probs_row, dtype=float) / activity
    pos = pi[pi > 0.0]
    if pos.size <= 1:
        return 0.0   # a point mass, even one that rounds off 1
    return activity * float(alpha) * max(0.0, float(-np.sum(pos * np.log(pos))))


def region_contains(regions, n: int, t: int, p, tol: float = 1e-9) -> bool:
    """``p`` lies in the entropy-ball region of row ``n``, slot ``t`` (to ``tol``)."""
    p = np.asarray(p, dtype=float)
    return (
        bool(np.all(p >= -tol))
        and abs(float(p.sum()) - regions.activity[n, t]) <= max(tol, 1e-12)
        and float(np.linalg.norm(p - regions.center[n, t])) <= regions.radius[n, t] + tol
    )


BOUNDARY_TOL = 1e-3   # largest scaled boundary residual a shaped optimum may show


def _strictly_inside(regions) -> np.ndarray:
    """Per cell: the ball cannot touch a nonnegativity face of the slice.

    Within the sum slice, the most negative any coordinate can get is
    ``center_m - radius * sqrt(1 - 1/M)``; positivity of that lower
    envelope for every m keeps the ball strictly interior.
    """
    center, radius = regions.center, regions.radius
    m = center.shape[-1]
    reach = radius * np.sqrt(1.0 - 1.0 / m)
    return (m == 1) | (radius == 0.0) | np.all(center - reach[..., None] > 0.0, axis=-1)


def strictly_inside_slice(regions, n: int, t: int) -> bool:
    """The ball of row ``n``, slot ``t`` cannot touch a nonnegativity face of the slice."""
    return bool(_strictly_inside(regions)[n, t])


@dataclass(frozen=True)
class BoundaryReport:
    """Distance of each shaped profile from its region boundary."""

    raw_residual: np.ndarray        # (N, T) | |p - center| - radius |
    scaled_residual: np.ndarray     # (N, T) residual in conditional units
    hypothesis_ok: np.ndarray       # (N, T) ball strictly inside the slice
    passed: bool                    # all hypothesis-satisfying cells within BOUNDARY_TOL


def boundary_check(profile, regions) -> BoundaryReport:
    """Measure how far each shaped profile sits from its ball boundary.

    At a shaped optimum whose ball lies strictly inside the nonnegativity
    faces, the profile must land on the boundary; cells where the ball
    touches a face are flagged and their residuals are informational only.
    Both residuals are 0 where the radius is 0.
    """
    live = regions.radius > 0.0
    moved = np.linalg.norm(profile.probs - regions.center, axis=-1)
    raw = np.where(live, np.abs(moved - regions.radius), 0.0)
    scaled = np.divide(raw, regions.activity, out=np.zeros_like(raw), where=live)
    hyp = _strictly_inside(regions) & live
    passed = bool(np.all(scaled[hyp] <= BOUNDARY_TOL)) if hyp.any() else True
    return BoundaryReport(raw_residual=raw, scaled_residual=scaled, hypothesis_ok=hyp,
                          passed=passed)


def active_users(sets, t: int, m: int) -> tuple[int, ...]:
    """Rows of ``sets`` active for item ``m`` in slot ``t``."""
    return tuple(int(n) for n in np.nonzero(sets.member[:, t, m])[0])


def smallest_item(catalog) -> tuple[int, bool]:
    """Index of the smallest item (lowest index wins ties) and a tie flag."""
    m_star = int(np.argmin(catalog.sizes))
    tied = int(np.sum(catalog.sizes == catalog.sizes[m_star])) > 1
    return m_star, tied


def fully_flexible_optimum(catalog, silence: np.ndarray):
    """Best shaped profile when preferences are unconstrained, and a tie flag.

    With total freedom, each user's whole activity goes onto one smallest
    item (a point mass), since that minimizes every load moment
    simultaneously.  Ties across equally small items are broken toward the
    lowest item index; the returned flag reports whether a tie occurred.
    """
    q = np.asarray(silence, dtype=float)
    if q.ndim != 2:
        raise ValueError("silence must be (users, slots)")
    m_star, tied = smallest_item(catalog)
    probs = np.zeros(q.shape + (catalog.num_items,))
    probs[:, :, m_star] = 1.0 - q
    return DemandProfile(probs, q), tied


def policy_vertex(profile, catalog, cost, cfg, sets, t: int) -> float:
    """x_hat[t] in closed form under a degree-2 cost: the vertex of the
    parabola through the cycle cost at three full allocations in which slot
    t's active pairs prefetch 0, S/2 and S (S the smallest item size),
    clipped to [0, S]."""
    d = catalog.min_size / 2.0

    def cycle(u):
        x = np.zeros(profile.probs.shape)
        x[:, t][sets.member[:, t]] = u
        return expected_cycle_cost(profile, x, cost, cfg, catalog=catalog).value

    f0, f1, f2 = cycle(0.0), cycle(d), cycle(2.0 * d)
    return min(max(d - d * (f2 - f0) / (2.0 * (f2 - 2.0 * f1 + f0)), 0.0), 2.0 * d)


# ---------------------------------------------------------------------------
# each cost method's own formula, and the analytic kernels on the polynomial
# coefficients (c0, c1, c2), as they were written before the families had one
# derivative body and the analytic engine read the cost through C, C', C''


def _plain_horner(arr, coeffs):
    out = np.zeros_like(arr)
    for c in reversed(coeffs):
        out = out * arr + c
    return out


def cost_formula(cost, load, order: int):
    """C, C' or C'' (``order`` 0, 1, 2) of ``cost`` at ``load``, no domain check."""
    arr = np.asarray(load, dtype=float)
    if cost.kind == "quadratic":
        out = (arr * arr, 2.0 * arr, np.full_like(arr, 2.0))[order]
    elif cost.kind == "outage":
        gap = cost.mu - arr
        out = (arr / gap, cost.mu / (gap * gap), 2.0 * cost.mu / (gap * (gap * gap)))[order]
    else:
        out = _plain_horner(arr, [(1, j, j * (j - 1))[order] * c
                                  for j, c in enumerate(cost.coeffs)][order:])
    return float(out) if np.ndim(load) == 0 else out


def _coeff_moments(tables):
    mean_u = np.einsum("ntm,ntm->nt", tables.probs, tables.v)
    return mean_u, tables.const + weigh_classes(mean_u, tables.counts).sum(axis=0)


def coeff_expected_cost(tables, cost) -> np.ndarray:
    """Every slot's E[C(Y)] (T,): ``c0 + c1 E[Y] + c2 (Var[Y] + E[Y]^2)``."""
    c0, c1, c2 = cost.coeffs
    mean_u, ey = _coeff_moments(tables)
    m2_u = np.einsum("ntm,ntm,ntm->nt", tables.probs, tables.v, tables.v)
    vary = weigh_classes(m2_u - mean_u**2, tables.counts).sum(axis=0)
    return c0 + c1 * ey + c2 * (vary + ey * ey)


def coeff_marginal_stats(tables, cost):
    """E[C'(Y)] (T,) and E[I_n(m) C'(Y)] (K, T, M) = ``p (c1 + 2 c2 (v + E[Y] - E[X_n]))``."""
    _, c1, c2 = cost.coeffs
    mean_u, ey = _coeff_moments(tables)
    b = np.add((ey - mean_u)[:, :, None], tables.v)
    b *= 2.0 * c2
    b += c1
    b *= tables.probs
    return c1 + 2.0 * c2 * ey, b


def hess_vec(profile, allocation, d, cost, cfg, catalog=None) -> np.ndarray:
    """The cycle cost's Hessian times the whole direction ``d`` (N, T, M):
    :func:`~procache.evaluate.hess_operator` with every coordinate free."""
    hv = hess_operator(profile, allocation, cost, cfg, np.arange(np.size(d)), catalog)
    return hv(np.ravel(d)).reshape(np.shape(d))


def kernel_hess_vec(engine, tables, state, cost, d, dconst=None):
    """An engine's curvature kernel ``(da, db)`` along the whole direction ``d``."""
    da, db = engine.hess_op(tables, state, cost, np.arange(d.size))(d.ravel(), dconst)
    return da, db.reshape(d.shape)


def coeff_hess_vec(tables, d, dconst, cost):
    """The curvature kernel's (da, db) along ``d``, with ``C'' = 2 c2``."""
    c2 = 2.0 * cost.coeffs[2]
    dmean_u = np.einsum("ntm,ntm->nt", tables.probs, d)
    dey = dconst - weigh_classes(dmean_u, tables.counts).sum(axis=0)
    db = (dey + dmean_u)[:, :, None] - d
    db *= tables.probs
    db *= c2
    return c2 * dey, db


def coeff_gradient_p(tables, cost) -> np.ndarray:
    """E[C(v + Z)] - E[C(Z)] = ``v (c1 + c2 (v + 2 E[Z]))``, Z the other users' load."""
    _, c1, c2 = cost.coeffs
    mean_u, ey = _coeff_moments(tables)
    return tables.v * (c1 + c2 * (tables.v + 2.0 * (ey - mean_u)[:, :, None]))


def box_gap(x, g, lower, upper) -> float:
    """Frank-Wolfe gap g.(x - v) of the box [lower, upper], v the box vertex
    that minimizes g.v: lower where g > 0, upper elsewhere."""
    return float(np.sum(g * (x - np.where(g > 0.0, lower, upper))))


def solve_gap(profile, catalog, cost, cfg, solved) -> float:
    """:func:`box_gap` of a solve's plan over [0, S(m)], from a fresh gradient."""
    g = cost_gradient_x(profile, solved.allocation, cost, cfg, catalog=catalog)
    return box_gap(solved.allocation.x, g, 0.0, catalog.sizes)


def shuffled_zipf(num_users: int, seed: int):
    """The Zipf family at ``num_users`` users, one row per user, each user's
    item columns permuted in turn by one ``numpy.random.default_rng(seed)``:
    ``(scenario, profile)``, the scenario giving the family's catalog, cost
    and analytic engine.  Unlike the family's one class, it reaches the
    per-user path."""
    scn = parse_scenario(SCALING_SCENARIO).with_users(num_users)
    profile = scn.profile.expanded()
    probs = np.array(profile.probs)
    rng = np.random.default_rng(seed)
    for row in probs:
        row[:] = row[:, rng.permutation(row.shape[1])]
    return scn, profile.with_probs(probs)


def cyclic_outage_scenario() -> dict:
    """Six identical users, Zipf rows on four items of sizes linspace(1, 2) at
    activities (0.2, 0.95, 0.6), outage capacity 1.05 * 6 * 2, alpha 0.2."""
    sizes = np.linspace(1.0, 2.0, 4)
    w = np.arange(1, 5, dtype=float) ** -1.0
    rows = np.stack([a * w / w.sum() for a in (0.2, 0.95, 0.6)])
    return {"sizes": sizes.tolist(), "profiles": np.broadcast_to(rows, (6, 3, 4)).tolist(),
            "cost": {"kind": "outage", "mu": 1.05 * 6 * 2.0}, "eval": {"engine": "enumerate"},
            "alpha": 0.2}
