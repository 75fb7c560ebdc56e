"""Engines: frozen exact values, cross-engine agreement, gradients, guards."""

import itertools
import tracemalloc

import numpy as np
import pytest

from procache import (
    CostModel,
    DemandProfile,
    EvalConfig,
    ItemCatalog,
    ProactiveAllocation,
    UnsupportedEngineError,
    cost_gradient_p,
    cost_gradient_x,
    cost_hess_vec,
    expected_cycle_cost,
    nonproactive_cost,
)
from procache.costs import CostDomainError
from procache.evaluate import ENGINES, cycle_tables, slot_marginal_stats
from procache.rng import substream

from conftest import random_instance
from oracles import RequestOutcome, slot_load

NONPROACTIVE_QUAD = 19.560000000000006
NONPROACTIVE_QUAD_SLOTS = (2.4000000000000004, 36.720000000000013)
NONPROACTIVE_OUTAGE = 0.9743144277989013
NONPROACTIVE_OUTAGE_SLOTS = (0.1132663334250355, 1.8353625221727672)


def test_nonproactive_quadratic_frozen(two_user, quad, enum_cfg):
    catalog, prof = two_user
    res = nonproactive_cost(prof, catalog, quad, enum_cfg)
    assert res.value == pytest.approx(NONPROACTIVE_QUAD, abs=1e-12)
    assert np.allclose(res.slot_values, NONPROACTIVE_QUAD_SLOTS, atol=1e-10)
    assert res.stderr == 0.0
    assert res.value == pytest.approx(float(res.slot_values.mean()))


def test_nonproactive_outage_frozen(two_user, outage, enum_cfg):
    catalog, prof = two_user
    res = nonproactive_cost(prof, catalog, outage, enum_cfg)
    assert res.value == pytest.approx(NONPROACTIVE_OUTAGE, abs=1e-12)
    assert np.allclose(res.slot_values, NONPROACTIVE_OUTAGE_SLOTS, atol=1e-10)


def test_engines_agree_on_quadratic(two_user, quad, enum_cfg, analytic_cfg, mc_cfg):
    catalog, prof = two_user
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 0.4, size=prof.probs.shape) * catalog.sizes[None, None, :]
    alloc = ProactiveAllocation(x, catalog)
    exact = expected_cycle_cost(prof, alloc, quad, enum_cfg)
    closed = expected_cycle_cost(prof, alloc, quad, analytic_cfg)
    assert closed.value == pytest.approx(exact.value, abs=1e-12)
    assert np.allclose(closed.slot_values, exact.slot_values, atol=1e-12)

    est = expected_cycle_cost(prof, alloc, quad, mc_cfg(20000))
    assert est.stderr > 0.0
    assert abs(est.value - exact.value) <= 4.0 * est.stderr
    again = expected_cycle_cost(prof, alloc, quad, mc_cfg(20000))
    assert again.value == est.value and again.stderr == est.stderr  # bit-for-bit


def test_monte_carlo_tracks_outage_too(two_user, outage, enum_cfg, mc_cfg):
    catalog, prof = two_user
    exact = nonproactive_cost(prof, catalog, outage, enum_cfg)
    est = nonproactive_cost(prof, catalog, outage, mc_cfg(20000, seed=11))
    assert abs(est.value - exact.value) <= 4.0 * est.stderr


def test_allocation_bounds_checked(two_user):
    catalog, prof = two_user
    shape = prof.probs.shape
    with pytest.raises(ValueError, match="outside"):
        ProactiveAllocation(np.full(shape, 10.0), catalog)
    dusted = ProactiveAllocation(np.full(shape, -1e-13), catalog)
    assert np.all(dusted.x == 0.0)
    zeros = ProactiveAllocation.zeros(2, 2, catalog)
    assert zeros.x.shape == shape
    with pytest.raises(ValueError, match="catalog has"):
        ProactiveAllocation(np.zeros((2, 2, 5)), catalog)


def test_eval_config_validation():
    with pytest.raises(ValueError, match="unknown engine"):
        EvalConfig(engine="magic")
    with pytest.raises(ValueError, match="samples"):
        EvalConfig(engine="monte_carlo", samples=0)
    assert EvalConfig().engine == "enumerate"


def test_enumeration_size_guard(quad):
    prof = DemandProfile(np.full((12, 1, 3), 0.2))  # 4^12 outcomes per slot
    with pytest.raises(UnsupportedEngineError, match="monte_carlo"):
        EvalConfig(engine="enumerate").kernels.check(prof, quad)
    prof = DemandProfile(np.full((1000, 1, 2), 0.2))  # 3^1000 overflows a float
    with pytest.raises(UnsupportedEngineError, match="10\\^477 outcomes"):
        EvalConfig(engine="enumerate").kernels.check(prof, quad)


def test_analytic_rejects_outage_and_cubics(two_user, outage, analytic_cfg):
    _, prof = two_user
    with pytest.raises(UnsupportedEngineError, match="degree"):
        analytic_cfg.kernels.check(prof, outage)
    with pytest.raises(UnsupportedEngineError, match="degree"):
        analytic_cfg.kernels.check(prof, CostModel.polynomial([0.0, 1.0, 1.0, 1.0]))


def test_probability_gradient_needs_exact_engine(two_user, quad, mc_cfg):
    catalog, prof = two_user
    with pytest.raises(UnsupportedEngineError, match="exact"):
        cost_gradient_p(prof, None, quad, mc_cfg(100), catalog=catalog)


def test_bare_allocation_needs_catalog(two_user, quad, enum_cfg):
    _, prof = two_user
    with pytest.raises(ValueError, match="catalog"):
        expected_cycle_cost(prof, np.zeros(prof.probs.shape), quad, enum_cfg)


def test_slot_load_hand_check(two_user):
    catalog, prof = two_user  # sizes (3, 2, 4)
    x = np.zeros((2, 2, 3))
    x[0, 1, 0] = 1.0
    x[1, 0, 2] = 0.5
    alloc = ProactiveAllocation(x, catalog)
    both = RequestOutcome([1, 3])  # user 0 takes item 1, user 1 takes item 3
    # slot 1: (3 - 1) + (4 - 0) reactive, plus 0.5 prefetched for slot 0
    assert slot_load(both, alloc, 1) == pytest.approx(6.5)
    silent = RequestOutcome([0, 0])
    assert slot_load(silent, alloc, 0) == pytest.approx(float(x[:, 1, :].sum()))
    with pytest.raises(ValueError, match="users"):
        slot_load(RequestOutcome([1]), alloc, 0)


def _fd_cost(prof, x, catalog, cost, cfg, coord, h):
    xp = x.copy()
    xp[coord] += h
    xm = x.copy()
    xm[coord] -= h
    fp = expected_cycle_cost(prof, xp, cost, cfg, catalog=catalog).value
    fm = expected_cycle_cost(prof, xm, cost, cfg, catalog=catalog).value
    return (fp - fm) / (2.0 * h)


def test_allocation_gradient_matches_fd(two_user, quad, outage, enum_cfg):
    catalog, prof = two_user
    rng = np.random.default_rng(11)
    x = rng.uniform(0.05, 0.15, size=prof.probs.shape)
    coords = [(0, 1, 0), (1, 0, 2), (1, 1, 1)]
    for cost in (quad, outage):
        g = cost_gradient_x(prof, x, cost, enum_cfg, catalog=catalog)
        for coord in coords:
            fd = _fd_cost(prof, x, catalog, cost, enum_cfg, coord, h=1e-6)
            assert g[coord] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_allocation_gradient_analytic_engine(two_user, quad, enum_cfg, analytic_cfg):
    catalog, prof = two_user
    rng = np.random.default_rng(13)
    x = rng.uniform(0.1, 0.5, size=prof.probs.shape)
    g_enum = cost_gradient_x(prof, x, quad, enum_cfg, catalog=catalog)
    g_closed = cost_gradient_x(prof, x, quad, analytic_cfg, catalog=catalog)
    assert np.allclose(g_enum, g_closed, atol=1e-11)


def test_probability_gradient_analytic_engine(analytic_cfg, enum_cfg):
    for catalog, prof, x, cost in _grid_cases("quadratic"):
        g_enum = cost_gradient_p(prof, x, cost, enum_cfg, catalog=catalog)
        g_closed = cost_gradient_p(prof, x, cost, analytic_cfg, catalog=catalog)
        np.testing.assert_allclose(g_closed, g_enum, rtol=1e-12, atol=1e-12 * np.abs(g_enum).max())


def test_allocation_gradient_monte_carlo_near_exact(two_user, quad, enum_cfg, mc_cfg):
    catalog, prof = two_user
    x = np.full(prof.probs.shape, 0.2)
    g_enum = cost_gradient_x(prof, x, quad, enum_cfg, catalog=catalog)
    g_mc = cost_gradient_x(prof, x, quad, mc_cfg(40000, seed=21), catalog=catalog)
    assert np.max(np.abs(g_mc - g_enum)) < 0.15  # loose: stochastic estimate
    again = cost_gradient_x(prof, x, quad, mc_cfg(40000, seed=21), catalog=catalog)
    assert np.array_equal(g_mc, again)


def test_probability_gradient_matches_fd(two_user, quad, enum_cfg):
    catalog, prof = two_user
    g = cost_gradient_p(prof, None, quad, enum_cfg, catalog=catalog)
    h = 1e-7
    for coord in [(0, 1, 0), (1, 1, 2), (0, 0, 1)]:
        pp = prof.probs.copy()
        pp[coord] += h
        pm = prof.probs.copy()
        pm[coord] -= h
        fp = expected_cycle_cost(DemandProfile(pp), None, quad, enum_cfg, catalog=catalog).value
        fm = expected_cycle_cost(DemandProfile(pm), None, quad, enum_cfg, catalog=catalog).value
        assert g[coord] == pytest.approx((fp - fm) / (2.0 * h), rel=1e-5, abs=1e-7)


def test_zero_probability_items_never_reach_the_cost():
    # the second item alone would overflow the capacity, but nobody asks for it
    catalog = ItemCatalog([1.0, 50.0])
    probs = np.zeros((1, 2, 2))
    probs[0, 1, 0] = 0.9
    prof = DemandProfile(probs)
    cost = CostModel.outage(4.0)
    cfg = EvalConfig(engine="enumerate")

    res = nonproactive_cost(prof, catalog, cost, cfg)
    assert np.isfinite(res.value)

    gx = cost_gradient_x(prof, None, cost, cfg, catalog=catalog)
    assert np.all(np.isfinite(gx))

    gp = cost_gradient_p(prof, None, cost, cfg, catalog=catalog)
    assert gp[0, 1, 1] == np.inf  # requesting the huge item would overload
    assert gp[0, 0, 1] == np.inf
    assert np.isfinite(gp[0, 1, 0]) and np.isfinite(gp[0, 0, 0])


def test_reachable_overload_still_raises(two_user, enum_cfg):
    from procache import CostDomainError

    catalog, prof = two_user
    tight = CostModel.outage(5.0)  # both users at the peak already exceed this
    with pytest.raises(CostDomainError):
        nonproactive_cost(prof, catalog, tight, enum_cfg)


# ---------------------------------------------------------------------------
# Monte Carlo: draws made once, all slots in one batched kernel


def _loop_mc_stats(val, const, choices, cost):
    """Reference: one slot's sampled loads built user by user, b by per-user bincounts.

    ``val`` (N, M+1) holds each choice's load, silent column first."""
    n_users, k = choices.shape
    y = np.full(k, const)
    for n in range(n_users):
        y += val[n][choices[n]]
    c = cost.cost(y)
    d = cost.marginal(y)
    m_width = val.shape[1]
    b = np.empty((n_users, m_width - 1))
    for n in range(n_users):
        b[n] = np.bincount(choices[n], weights=d, minlength=m_width)[1:] / k
    se = float(c.std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0
    return float(c.mean()), se, float(d.mean()), b


@pytest.mark.parametrize("kind", ["quadratic", "outage"])
def test_batched_monte_carlo_equals_per_slot_oracle(kind):
    rng = np.random.default_rng(2024)
    for case in range(16):
        catalog, prof = random_instance(rng)
        n_users, n_slots, m_items = prof.probs.shape
        if kind == "quadratic":
            cost = CostModel.quadratic()
        else:   # clear of every load an allocation inside the box can cause
            cost = CostModel.outage(2.0 * n_users * (m_items + 1) * float(catalog.sizes.max()))
        cfg = EvalConfig(engine="monte_carlo", samples=(1, 2, 37, 300)[case % 4], seed=case)
        x = rng.uniform(0.0, 1.0, size=prof.probs.shape) * catalog.sizes[None, None, :]

        res = expected_cycle_cost(prof, x, cost, cfg, catalog=catalog)
        grad = cost_gradient_x(prof, x, cost, cfg, catalog=catalog)
        a, b, _, _ = slot_marginal_stats(prof, x, catalog.sizes, cost, cfg)
        draws = prof.draws(cfg.seed, cfg.samples)
        for t in range(n_slots):
            val = np.concatenate([np.zeros((n_users, 1)), catalog.sizes - x[:, t]], axis=1)
            const = float(x[:, (t + 1) % n_slots].sum())
            ref_value, ref_se, ref_a, ref_b = _loop_mc_stats(val, const, draws[t], cost)
            assert (res.slot_values[t], res.slot_stderrs[t]) == (ref_value, ref_se)
            assert a[t] == ref_a
            assert np.array_equal(b[:, t, :], ref_b)
        assert np.array_equal(grad, (np.roll(a, 1)[None, :, None] - b) / n_slots)
        assert grad.flags.c_contiguous   # norms of a transposed view sum in another order


def test_memoised_draws_equal_fresh_substreams():
    rng = np.random.default_rng(8)
    for _ in range(6):
        _, prof = random_instance(rng)
        seed, count = int(rng.integers(0, 1000)), int(rng.integers(1, 200))
        draws = prof.draws(seed, count)
        assert draws.shape == (prof.num_slots, prof.num_users, count)
        assert not draws.flags.writeable
        assert prof.draws(seed, count) is draws
        for t in range(prof.num_slots):
            for n in range(prof.num_users):
                u = substream(seed, n, t).random(count)
                idx = np.searchsorted(np.cumsum(prof.probs[n, t]), u, side="right")
                fresh = np.where(idx < prof.num_items, idx + 1, 0)
                assert np.array_equal(draws[t, n], fresh)


def test_monte_carlo_draws_once_per_slot_and_user(two_user, quad, mc_cfg, monkeypatch):
    import procache.demand
    from procache import solve_proactive

    streams = []
    monkeypatch.setattr(
        procache.demand, "substream", lambda *key: streams.append(key) or substream(*key)
    )
    catalog, prof = two_user
    cfg = mc_cfg(200, seed=4)
    nonproactive_cost(prof, catalog, quad, cfg)
    solved = solve_proactive(prof, catalog, quad, cfg)
    assert solved.iterations > 1
    assert sorted(streams) == sorted((4, n, t) for n in range(2) for t in range(2))


def test_monte_carlo_overflowing_load_still_raises(two_user, mc_cfg):
    catalog, prof = two_user
    tight = CostModel.outage(5.0)   # both users requesting at the peak overflow it
    with pytest.raises(CostDomainError):
        nonproactive_cost(prof, catalog, tight, mc_cfg(500))
    with pytest.raises(CostDomainError):
        cost_gradient_x(prof, None, tight, mc_cfg(500), catalog=catalog)


# ---------------------------------------------------------------------------
# Enumeration: one joint outcome grid per slot batch


def _brute_force(prof, x, sizes, cost):
    """Value, grad_x and grad_p by visiting every joint outcome one at a time."""
    n_users, n_slots, m_items = prof.probs.shape
    value = np.zeros(n_slots)
    a = np.zeros(n_slots)
    b = np.zeros((n_users, n_slots, m_items))
    cond = np.zeros((n_users, n_slots, m_items + 1))   # E_-n[C(Y) | n -> c], c = 0 silent
    over = np.zeros((n_users, n_slots, m_items + 1), dtype=bool)
    for t in range(n_slots):
        w = np.concatenate([prof.silence[:, t, None], prof.probs[:, t]], axis=1)
        ahead = float(x[:, (t + 1) % n_slots].sum())
        for c in itertools.product(range(m_items + 1), repeat=n_users):
            load = ahead + sum(sizes[k - 1] - x[n, t, k - 1] for n, k in enumerate(c) if k)
            p = [w[n, k] for n, k in enumerate(c)]
            if np.prod(p) > 0.0:
                value[t] += np.prod(p) * cost.cost(load)
                a[t] += np.prod(p) * cost.marginal(load)
                for n, k in enumerate(c):
                    if k:
                        b[n, t, k - 1] += np.prod(p) * cost.marginal(load)
            for n, k in enumerate(c):
                p_other = np.prod(p[:n] + p[n + 1:])
                if p_other > 0.0 and cost.in_domain(load):
                    cond[n, t, k] += p_other * cost.cost(load)
                elif p_other > 0.0:
                    over[n, t, k] = True
    grad_x = (np.roll(a, 1)[None, :, None] - b) / n_slots
    grad_p = np.where(over[:, :, 1:], np.inf, cond[:, :, 1:] - cond[:, :, :1]) / n_slots
    return value, grad_x, grad_p


def _grid_cases(kind):
    """Seeded instances with zero-probability items, a silent user-slot and N = 1."""
    rng = np.random.default_rng(77)
    for case in range(12):
        n_users = 1 if case % 4 == 0 else int(rng.integers(2, 5))
        m_items, n_slots = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sizes = rng.uniform(0.5, 3.0, size=m_items)
        raw = rng.uniform(0.0, 1.0, size=(n_users, n_slots, m_items + 1))
        raw[:, :, 1:][rng.random((n_users, n_slots, m_items)) < 0.3] = 0.0
        raw[0, 0, 1:] = 0.0                          # user 0 stays silent in slot 0
        raw /= raw.sum(axis=2, keepdims=True)
        prof = DemandProfile(raw[:, :, 1:])
        x = rng.uniform(0.0, 1.0, size=prof.probs.shape) * sizes[None, None, :]
        if kind == "quadratic":
            cost = CostModel.quadratic()
        else:   # clear of every reachable load; a never-requested item may overflow it
            reactive = np.where(prof.probs > 0.0, sizes - x, 0.0).max(axis=2).sum(axis=0)
            ahead = np.roll(x.sum(axis=(0, 2)), -1)
            cost = CostModel.outage(1.2 * float((reactive + ahead).max()) + 0.1)
        yield ItemCatalog(sizes), prof, x, cost


@pytest.mark.parametrize("kind", ["quadratic", "outage"])
def test_enumeration_grid_matches_brute_force(kind):
    cfg = EvalConfig(engine="enumerate")
    faces = 0
    for catalog, prof, x, cost in _grid_cases(kind):
        value, grad_x, grad_p = _brute_force(prof, x, catalog.sizes, cost)
        res = expected_cycle_cost(prof, x, cost, cfg, catalog=catalog)
        np.testing.assert_allclose(res.slot_values, value, rtol=1e-12)
        gx = cost_gradient_x(prof, x, cost, cfg, catalog=catalog)
        np.testing.assert_allclose(gx, grad_x, rtol=1e-12, atol=1e-12 * np.abs(grad_x).max())
        gp = cost_gradient_p(prof, x, cost, cfg, catalog=catalog)
        assert np.array_equal(np.isinf(gp), np.isinf(grad_p))
        finite = np.isfinite(grad_p)
        scale = np.abs(grad_p[finite]).max(initial=0.0)
        np.testing.assert_allclose(gp[finite], grad_p[finite], rtol=1e-12, atol=1e-12 * scale)
        faces += int(np.isinf(grad_p).sum())
    assert (faces > 0) == (kind == "outage")   # the +inf faces are exercised


@pytest.mark.parametrize("engine", ENGINES)
def test_kernels_on_one_slot_slices_equal_the_full_batch(engine):
    kinds = ("quadratic",) if engine == "analytic_quadratic" else ("quadratic", "outage")
    for kind in kinds:
        for case, (catalog, prof, x, cost) in enumerate(_grid_cases(kind)):
            cfg = EvalConfig(engine=engine, samples=(1, 2, 37, 300)[case % 4], seed=case)
            kernels = cfg.kernels
            tables = cycle_tables(prof, x, catalog.sizes, cfg)
            value, se = kernels.expected_cost(tables, cost)
            a, b, a_se, b_se = kernels.marginal_stats(tables, cost)
            exact = not kernels.sampled
            grad_p = kernels.gradient_p(tables, cost) if exact else None
            dtables = cycle_tables(prof, x[::-1, ::-1], np.zeros(prof.num_items), cfg)
            da, db = kernels.hess_vec(tables, dtables, cost)
            if exact:
                assert not se.any() and not a_se.any() and not b_se.any()
            for t in range(prof.num_slots):
                one = tables.slot(t)
                value_t, se_t = kernels.expected_cost(one, cost)
                assert (value_t[0], se_t[0]) == (value[t], se[t])
                a_t, b_t, a_se_t, b_se_t = kernels.marginal_stats(one, cost)
                assert (a_t[0], a_se_t[0]) == (a[t], a_se[t])
                assert np.array_equal(b_t[:, 0], b[:, t]) and np.array_equal(b_se_t[:, 0], b_se[:, t])
                if exact:
                    assert np.array_equal(kernels.gradient_p(one, cost)[:, 0], grad_p[:, t])
                da_t, db_t = kernels.hess_vec(one, dtables.slot(t), cost)
                assert da_t[0] == da[t] and np.array_equal(db_t[:, 0], db[:, t])

            # the cycle-level functions are the full batch
            res = expected_cycle_cost(prof, x, cost, cfg, catalog=catalog)
            assert np.array_equal(res.slot_values, value) and np.array_equal(res.slot_stderrs, se)
            gx = cost_gradient_x(prof, x, cost, cfg, catalog=catalog)
            assert np.array_equal(gx, (np.roll(a, 1)[None, :, None] - b) / prof.num_slots)
            if exact:
                gp = cost_gradient_p(prof, x, cost, cfg, catalog=catalog)
                assert np.array_equal(gp, grad_p / prof.num_slots)


# ---------------------------------------------------------------------------
# Curvature: the Hessian-vector kernel against differences of the gradient


def _curvature_cases(engine):
    kinds = ("quadratic",) if engine == "analytic_quadratic" else ("quadratic", "cubic", "outage")
    for kind in kinds:
        rng = np.random.default_rng(5)
        for case, (catalog, prof, x, cost) in enumerate(_grid_cases(kind)):
            if kind == "cubic":
                cost = CostModel.polynomial([0.0, 0.3, 0.1, 0.05])
            cfg = EvalConfig(engine=engine, samples=(1, 2, 37, 300)[case % 4], seed=case)
            d = rng.uniform(-1.0, 1.0, size=x.shape) * catalog.sizes
            yield catalog, prof, x, d, cost, cfg


@pytest.mark.parametrize("engine", ENGINES)
def test_hess_vec_is_the_derivative_of_the_gradient(engine):
    # Richardson-extrapolated central differences: O(h^4) truncation, so the
    # outage cost's higher derivatives stay below the rounding of the gradient
    h = 1e-3
    for catalog, prof, x, d, cost, cfg in _curvature_cases(engine):
        def diff(step):
            up = cost_gradient_x(prof, x + step * d, cost, cfg, catalog=catalog)
            down = cost_gradient_x(prof, x - step * d, cost, cfg, catalog=catalog)
            return (up - down) / (2.0 * step)

        fd = (4.0 * diff(h / 2) - diff(h)) / 3.0
        hv = cost_hess_vec(prof, x, d, cost, cfg, catalog=catalog)
        assert np.abs(hv - fd).max() <= 1e-9 * np.abs(fd).max()


def test_analytic_hess_vec_equals_enumeration():
    for (catalog, prof, x, d, cost, cfg), (*_, ref_cfg) in zip(
        _curvature_cases("analytic_quadratic"), _curvature_cases("enumerate")
    ):
        got = cost_hess_vec(prof, x, d, cost, cfg, catalog=catalog)
        ref = cost_hess_vec(prof, x, d, cost, ref_cfg, catalog=catalog)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_allocation_gradient_enumerates_each_slot_once(monkeypatch):
    catalog = ItemCatalog([1.0, 1.5, 2.0])
    prof = DemandProfile(np.full((5, 3, 3), 0.2))
    cost = CostModel.outage(40.0)
    points = []
    marginal = CostModel.marginal
    monkeypatch.setattr(
        CostModel, "marginal", lambda self, load: points.append(np.size(load)) or marginal(self, load)
    )
    cost_gradient_x(prof, None, cost, EvalConfig(), catalog=catalog)
    assert 0 < sum(points) <= prof.num_slots * 4**5


def test_enumeration_follows_the_reachable_support():
    # 4 users, 30 items, 3 items each per slot: 4^4 reachable outcomes per
    # slot out of 31^4, so the grids (a few KB) must not span all 31^4 (7 MB)
    rng = np.random.default_rng(5)
    probs = np.zeros((4, 3, 30))
    for n in range(4):
        for t in range(3):
            probs[n, t, rng.choice(30, 3, replace=False)] = 0.25
    prof = DemandProfile(probs)
    catalog = ItemCatalog(rng.uniform(0.5, 2.0, size=30))
    cost = CostModel.outage(40.0)
    for grad in (expected_cycle_cost, cost_gradient_x, cost_gradient_p):
        tracemalloc.start()
        grad(prof, None, cost, EvalConfig(), catalog=catalog)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1_000_000, (grad.__name__, peak)


def test_underflowing_outcome_probability_never_reaches_the_cost():
    # two users asking for the big item would overflow, but 1e-200 * 1e-200 is 0.0
    catalog = ItemCatalog([1.0, 50.0])
    probs = np.zeros((3, 1, 2))
    probs[:, 0] = [0.5, 1e-200]
    prof = DemandProfile(probs)
    cost = CostModel.outage(60.0)
    cfg = EvalConfig(engine="enumerate")
    assert np.isfinite(nonproactive_cost(prof, catalog, cost, cfg).value)
    assert np.all(np.isfinite(cost_gradient_x(prof, None, cost, cfg, catalog=catalog)))
    gp = cost_gradient_p(prof, None, cost, cfg, catalog=catalog)
    assert np.all(np.isfinite(gp[:, :, 0]))
    assert np.all(gp[:, :, 1] == np.inf)   # one other user on it has probability 1e-200
