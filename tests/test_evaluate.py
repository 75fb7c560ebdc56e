"""Engines: frozen exact values, cross-engine agreement, gradients, guards."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from procache import (
    CostModel,
    DemandProfile,
    EvalConfig,
    ItemCatalog,
    UnsupportedEngineError,
    cost_gradient_p,
    cost_gradient_x,
    expected_cycle_cost,
    nonproactive_cost,
    solve_proactive,
)
from procache import evaluate, parse_scenario
from procache.costs import CostDomainError
from procache.demand import draw_sample_index
from procache.evaluate import ENGINES, Point, cycle_tables, hess_operator, prefetch_volume
from procache.experiments import SCALING_SCENARIO
from procache.rng import stream_key, substream
from procache.shaping import shape_demand

from conftest import random_instance
from oracles import (RequestOutcome, hess_vec, kernel_hess_vec, sample_index, slot_load,
                     slot_marginal_stats)

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
    exact = expected_cycle_cost(prof, x, quad, enum_cfg, catalog=catalog)
    closed = expected_cycle_cost(prof, x, quad, analytic_cfg, catalog=catalog)
    assert closed.value == pytest.approx(exact.value, abs=1e-12)
    assert np.allclose(closed.slot_values, exact.slot_values, atol=1e-12)

    est = expected_cycle_cost(prof, x, quad, mc_cfg(20000), catalog=catalog)
    assert est.stderr > 0.0
    assert abs(est.value - exact.value) <= 4.0 * est.stderr
    again = expected_cycle_cost(prof, x, quad, mc_cfg(20000), catalog=catalog)
    assert again.value == est.value and again.stderr == est.stderr  # bit-for-bit


def test_monte_carlo_tracks_outage_too(two_user, outage, enum_cfg, mc_cfg):
    catalog, prof = two_user
    exact = nonproactive_cost(prof, catalog, outage, enum_cfg)
    est = nonproactive_cost(prof, catalog, outage, mc_cfg(20000, seed=11))
    assert abs(est.value - exact.value) <= 4.0 * est.stderr


def test_a_point_refuses_an_allocation_of_another_shape(two_user, quad, enum_cfg):
    # unchecked, a wrong item count fails deep inside numpy broadcasting or broadcasts silently
    catalog, prof = two_user
    for shape in ((2, 2, 5), (2, 2, 1), (1, 2, 3), (2, 3)):
        both = f"{re.escape(str(shape))}.*{re.escape(str(prof.probs.shape))}"
        with pytest.raises(ValueError, match=both):
            Point(prof, np.zeros(shape), catalog.sizes, quad, enum_cfg)
        with pytest.raises(ValueError, match=both):
            expected_cycle_cost(prof, np.zeros(shape), quad, enum_cfg, catalog=catalog)
    assert Point(prof, np.zeros((2, 2, 3)), catalog.sizes, quad, enum_cfg).x.shape == (2, 2, 3)
    # so does a catalog of another item count
    for sizes in ([3.0], [3.0, 2.0, 4.0, 1.0]):
        with pytest.raises(ValueError, match=re.escape(f"sizes ({len(sizes)},)")):
            expected_cycle_cost(prof, None, quad, enum_cfg, catalog=ItemCatalog(sizes))
        with pytest.raises(ValueError, match=re.escape(f"sizes ({len(sizes)},)")):
            solve_proactive(prof, ItemCatalog(sizes), quad, enum_cfg)


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
    both = RequestOutcome([1, 3])  # user 0 takes item 1, user 1 takes item 3
    # slot 1: (3 - 1) + (4 - 0) reactive, plus 0.5 prefetched for slot 0
    assert slot_load(both, x, catalog.sizes, 1) == pytest.approx(6.5)
    silent = RequestOutcome([0, 0])
    assert slot_load(silent, x, catalog.sizes, 0) == pytest.approx(float(x[:, 1, :].sum()))
    with pytest.raises(ValueError, match="users"):
        slot_load(RequestOutcome([1]), x, catalog.sizes, 0)


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

    ``val`` (N, M+1) holds each choice's load, silent column first.  Returns
    the loads too, and the errors ``(a_se, b_se)`` of ``(a, b)``."""
    n_users, k = choices.shape
    y = np.full(k, const)
    for n in range(n_users):
        y += val[n][choices[n]]
    c = cost.cost(y)
    d = cost.marginal(y)
    m_width = val.shape[1]
    b = np.empty((n_users, m_width - 1))
    b_se = np.zeros((n_users, m_width - 1))
    for n in range(n_users):
        b[n] = np.bincount(choices[n], weights=d, minlength=m_width)[1:] / k
        if k > 1:
            sq = np.bincount(choices[n], weights=d * d, minlength=m_width)[1:] / k
            b_se[n] = np.sqrt(np.maximum(sq - b[n] ** 2, 0.0) / (k - 1))
    se = float(c.std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0
    a_se = float(d.std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0
    return y, (float(c.mean()), se, float(d.mean()), b, a_se, b_se)


def _loop_mc_hess_vec(y, dval, dconst, choices, cost):
    """Reference: one slot's ``(da, db)`` along a direction whose choice loads
    are ``dval`` (N, M+1), silent column first, user by user."""
    n_users, k = choices.shape
    dy = np.full(k, dconst)
    for n in range(n_users):
        dy += dval[n][choices[n]]
    dy *= cost.second(y)
    m_width = dval.shape[1]
    db = np.empty((n_users, m_width - 1))
    for n in range(n_users):
        db[n] = np.bincount(choices[n], weights=dy, minlength=m_width)[1:] / k
    return float(dy.mean()), db


# The Monte Carlo curvature operator sums per hit pattern (the samples of a
# slot whose draws hit the same free coordinates), the per-user loop oracle
# per sample, so their last bits differ.  Both are held to an exactly rounded
# reference instead, within a bound on the operator's rounding error:
#   * a pattern's dY is the volume sent in its slot, a sum of at most S
#     entries (S = 1 when it is given), minus at most N member entries;
#   * its C''(Y) sum and the sum over a slot's patterns (or over the patterns
#     holding one coordinate) together add each sample's term at most K + 1
#     times, since the patterns split the slot's K samples;
#   * one product, the division by K and the combination into the product
#     (da[t-1] - db) / T round once each.
# A chain of n roundings is off by at most n u / (1 - n u) times the sum of
# the absolute values of its terms (u = 2^-53), and the reference, with every
# dY and every sum rounded exactly, by at most 4 u of the same sum.  So
# |product - reference| <= (K + N + S + 10) u * sum_k |C''(Y_k)| (sum |sent|
# + sum_n |d[n, t, m_n]|) / K, the sum over the samples of the slot (the
# requesting ones for db); the loop oracle's chain (N additions into dY,
# then K into the mean or bin) meets it as well.  A product that left out or
# double-counted one sample would miss it by about 1/K of that sum.
UNIT_ROUNDOFF = 2.0 ** -53


def _mc_exact_product(prof, x, sizes, d, cost, cfg, dconst=None):
    """Exactly rounded ``(da, db)`` of the Monte Carlo curvature kernel along
    ``d`` (N, T, M), each dY and each sum by ``math.fsum``, with the sums of
    absolute terms ``(abs_da, abs_db)`` and the rounding bound ``slack``
    that scales them (see above).  The volume sent in slot t is ``dconst[t]``
    when given, else the entries ``d[:, t+1]``."""
    draws = prof.draws(cfg.seed, cfg.samples)
    n_users, n_slots, m_items = d.shape
    k = cfg.samples
    da, abs_da = np.empty(n_slots), np.empty(n_slots)
    db, abs_db = np.zeros(d.shape), np.zeros(d.shape)
    most_sent = 1
    for t in range(n_slots):
        val = np.concatenate([np.zeros((n_users, 1)), sizes - x[:, t]], axis=1)
        y, _ = _loop_mc_stats(val, float(x[:, (t + 1) % n_slots].sum()), draws[t], cost)
        curv = cost.second(y)
        if dconst is None:
            sent = d[:, (t + 1) % n_slots].ravel().tolist()
            most_sent = max(most_sent, len(sent))
        else:
            sent = [float(dconst[t])]
        terms, abs_terms = np.empty(k), np.empty(k)
        for s in range(k):
            parts = sent + [-d[n, t, c - 1] for n, c in enumerate(draws[t, :, s]) if c > 0]
            terms[s] = curv[s] * math.fsum(parts)
            abs_terms[s] = abs(curv[s]) * math.fsum(np.abs(parts))
        da[t], abs_da[t] = math.fsum(terms) / k, math.fsum(abs_terms) / k
        for n in range(n_users):
            for m in range(m_items):
                asked = draws[t, n] == m + 1
                db[n, t, m] = math.fsum(terms[asked]) / k
                abs_db[n, t, m] = math.fsum(abs_terms[asked]) / k
    slack = (k + n_users + most_sent + 10) * UNIT_ROUNDOFF
    return da, db, abs_da, abs_db, slack


def _mc_exact_hess(prof, x, sizes, d, cost, cfg):
    """The exactly rounded Hessian product along ``d`` (N, T, M), combined as
    :func:`hess_operator` combines, and the bound on a product's distance
    from it, per coordinate."""
    da, db, abs_da, abs_db, slack = _mc_exact_product(prof, x, sizes, d, cost, cfg)
    n_slots = d.shape[1]
    ref = (np.roll(da, 1)[None, :, None] - db) / n_slots
    return ref, slack * (np.roll(abs_da, 1)[None, :, None] + abs_db) / n_slots


def _within(got, ref, bound):
    return bool(np.all(np.abs(got - ref) <= bound))


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
        # a direction of either sign, from its own stream so the instances stay put
        d = np.random.default_rng(case).normal(size=prof.probs.shape) * catalog.sizes

        res = expected_cycle_cost(prof, x, cost, cfg, catalog=catalog)
        grad = cost_gradient_x(prof, x, cost, cfg, catalog=catalog)
        a, b = slot_marginal_stats(prof, x, catalog.sizes, cost, cfg)
        tables = cycle_tables(prof, x, catalog.sizes, cfg)
        state = cfg.kernels.state(tables, cost)
        a_se, b_se = cfg.kernels.marginal_errors(tables, state, cost, b)
        dconst = prefetch_volume(d)
        da, db = kernel_hess_vec(cfg.kernels, tables, state, cost, d, dconst)
        draws = prof.draws(cfg.seed, cfg.samples)
        exact_da, exact_db, abs_da, abs_db, slack = _mc_exact_product(
            prof, x, catalog.sizes, d, cost, cfg, dconst)
        for t in range(n_slots):
            val = np.concatenate([np.zeros((n_users, 1)), catalog.sizes - x[:, t]], axis=1)
            const = float(x[:, (t + 1) % n_slots].sum())
            y, ref = _loop_mc_stats(val, const, draws[t], cost)
            ref_value, ref_se, ref_a, ref_b, ref_a_se, ref_b_se = ref
            assert (res.slot_values[t], res.slot_stderrs[t]) == (ref_value, ref_se)
            assert a[t] == ref_a
            assert np.array_equal(b[:, t, :], ref_b)
            assert a_se[t] == ref_a_se
            assert np.array_equal(b_se[:, t, :], ref_b_se)
            dval = np.concatenate([np.zeros((n_users, 1)), 0.0 - d[:, t]], axis=1)
            ref_da, ref_db = _loop_mc_hess_vec(y, dval, dconst[t], draws[t], cost)
            # the curvature product sums per hit pattern: held, as the loop
            # oracle is, to the exactly rounded sums within the bound above
            for got_da, got_db in ((da[t], db[:, t, :]), (ref_da, ref_db)):
                assert _within(got_da, exact_da[t], slack * abs_da[t])
                assert _within(got_db, exact_db[:, t, :], slack * abs_db[:, t, :])
        assert np.array_equal(grad, (np.roll(a, 1)[None, :, None] - b) / n_slots)
        assert grad.flags.c_contiguous   # norms of a transposed view sum in another order
        assert db.flags.c_contiguous


def _loop_mc_product(prof, x, sizes, d, cost, cfg):
    """Reference: the Monte Carlo Hessian product (N, T, M) slot by slot from
    the per-user loop oracles, combined as :func:`hess_operator` combines."""
    n_users, n_slots, _ = prof.probs.shape
    draws, dconst = prof.draws(cfg.seed, cfg.samples), prefetch_volume(d)
    da, db = np.empty(n_slots), np.empty(d.shape)
    for t in range(n_slots):
        val = np.concatenate([np.zeros((n_users, 1)), sizes - x[:, t]], axis=1)
        y, _ = _loop_mc_stats(val, float(x[:, (t + 1) % n_slots].sum()), draws[t], cost)
        dval = np.concatenate([np.zeros((n_users, 1)), 0.0 - d[:, t]], axis=1)
        da[t], db[:, t] = _loop_mc_hess_vec(y, dval, dconst[t], draws[t], cost)
    return (np.roll(da, 1)[None, :, None] - db) / n_slots


@pytest.mark.parametrize("engine, kind", [(e, k) for e in ENGINES for k in ("quadratic", "outage")
                                           if (e, k) != ("analytic_quadratic", "outage")])
def test_an_operator_on_a_free_set_equals_the_full_product_there(engine, kind):
    # on random free sets, on one that no draw hits and on every coordinate,
    # the operator's product is the whole product's entries on the free set,
    # bit for bit, for a direction zero elsewhere; on Monte Carlo, which sums
    # per hit pattern, it, the whole product and the per-user loop oracle
    # are each within the rounding bound of the exactly rounded product
    rng = np.random.default_rng(23)
    sampled, unhit = engine == "monte_carlo", 0
    for case in range(36):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)), int(rng.integers(1, 6)))
        if engine == "enumerate":   # keep the outcome grid small
            shape = (min(shape[0], 3),) + shape[1:]
        sizes = rng.uniform(0.5, 3.0, size=shape[2])
        raw = rng.uniform(0.0, 1.0, size=shape[:2] + (shape[2] + 1,))
        raw[:, :, 1:][rng.random(shape) < 0.3] = 0.0    # items nobody requests
        raw /= raw.sum(axis=2, keepdims=True)
        prof = DemandProfile(raw[:, :, 1:])
        if kind == "quadratic":
            cost = CostModel.quadratic()
        else:   # clear of every load an allocation inside the box can cause
            cost = CostModel.outage(2.0 * shape[0] * (shape[2] + 1) * float(sizes.max()))
        cfg = EvalConfig(engine=engine, samples=(1, 2, 37, 300)[case % 4], seed=case)
        x = rng.uniform(0.0, 1.0, size=shape) * sizes
        d = np.random.default_rng(case).normal(size=shape) * sizes
        point = Point(prof, x, sizes, cost, cfg)
        frees = [np.sort(rng.choice(x.size, size=int(rng.integers(1, x.size + 1)), replace=False)),
                 np.arange(x.size)]
        if sampled:
            draws = prof.draws(cfg.seed, cfg.samples)
            t, n, _ = np.indices(draws.shape)
            hit = np.zeros(shape[:2] + (shape[2] + 1,), dtype=bool)
            hit[n, t, draws] = True
            hit = hit[:, :, 1:]   # the silent choice is no coordinate
            if not hit.all():
                frees.append(np.flatnonzero(~hit))
                unhit += 1
        for free in frees:
            masked = np.zeros(shape)
            masked.flat[free] = d.flat[free]
            got = evaluate.hess_operator(prof, point, cost, cfg, free)(d.ravel()[free])
            full = hess_vec(prof, point, masked, cost, cfg)
            assert got.dtype == float and got.shape == free.shape
            if not sampled:
                assert np.array_equal(got, full.ravel()[free])
                continue
            ref, bound = _mc_exact_hess(prof, x, sizes, masked, cost, cfg)
            assert _within(got, ref.ravel()[free], bound.ravel()[free])
            assert _within(full, ref, bound)
            assert _within(_loop_mc_product(prof, x, sizes, masked, cost, cfg), ref, bound)
    assert unhit >= 10 or not sampled


def _mc_case(rng, shape, samples, seed, kind="quadratic", silent=None):
    """A random per-user Monte Carlo instance of ``shape`` (N, T, M): its
    profile, sizes, cost, config and a plan inside the box.  ``silent``
    fixes every user's silence, else it is drawn with the items."""
    sizes = rng.uniform(0.5, 3.0, size=shape[2])
    raw = rng.uniform(0.0, 1.0, size=shape[:2] + (shape[2] + 1,))
    if silent is not None:
        raw[:, :, 1:] *= (1.0 - silent) / raw[:, :, 1:].sum(axis=2, keepdims=True)
        raw[:, :, 0] = silent
    raw /= raw.sum(axis=2, keepdims=True)
    if kind == "quadratic":
        cost = CostModel.quadratic()
    else:   # clear of every load an allocation inside the box can cause
        cost = CostModel.outage(2.0 * shape[0] * (shape[2] + 1) * float(sizes.max()))
    cfg = EvalConfig(engine="monte_carlo", samples=samples, seed=seed)
    x = rng.uniform(0.0, 1.0, size=shape) * sizes
    return DemandProfile(raw[:, :, 1:]), sizes, cost, cfg, x


@pytest.mark.parametrize("kind", ["quadratic", "outage"])
def test_monte_carlo_products_are_symmetric(kind):
    # the sampled Hessian is sum over samples of C''(Y) g g^T / (K T), g the
    # sample's load change per coordinate, so u.Hv = v.Hu up to rounding:
    # each product within its bound of the exactly rounded one (see
    # _mc_exact_product) and each dot product of F terms within (F + 2) u
    rng = np.random.default_rng(31)
    for case in range(16):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)), int(rng.integers(1, 6)))
        prof, sizes, cost, cfg, x = _mc_case(rng, shape, (1, 2, 37, 300)[case % 4], case, kind)
        free = np.sort(rng.choice(x.size, size=int(rng.integers(1, x.size + 1)), replace=False))
        hv = hess_operator(prof, x, cost, cfg, free, catalog=ItemCatalog(sizes))
        u, v = rng.normal(size=(2, free.size)) * sizes[np.unravel_index(free, shape)[2]]
        hu, hvv = hv(u), hv(v)
        allowed = (free.size + 2) * UNIT_ROUNDOFF * (np.abs(u) @ np.abs(hvv) + np.abs(v) @ np.abs(hu))
        for a, b in ((u, v), (v, u)):
            d = np.zeros(shape)
            d.flat[free] = b
            _, bound = _mc_exact_hess(prof, x, sizes, d, cost, cfg)
            allowed += np.abs(a) @ bound.ravel()[free]
        assert abs(u @ hvv - v @ hu) <= allowed


def test_monte_carlo_pattern_keys_are_renumbered_past_int64(monkeypatch):
    # 40 users, every coordinate free: each user's radix is M+1 = 4 and 4^40
    # passes int64, so the key is renumbered densely between user chunks.
    # With every coordinate free a sample's pattern is its slot's choice
    # vector, so the patterns must be exactly the distinct choice vectors
    # (most samples repeat one: each user asks for its first item at 0.97)
    rng = np.random.default_rng(40)
    shape = (40, 2, 3)
    prof, sizes, cost, cfg, x = _mc_case(rng, shape, 50, 3)
    probs = np.full(shape, 0.01)
    probs[:, :, 0] = 0.97
    prof = DemandProfile(probs)
    counted, dense = [], evaluate._dense
    monkeypatch.setattr(evaluate, "_dense", lambda keys: counted.append(dense(keys)) or counted[-1])
    d = np.random.default_rng(1).normal(size=shape) * sizes
    got = hess_operator(prof, x, cost, cfg, np.arange(x.size), catalog=ItemCatalog(sizes))(d.ravel())
    assert len(counted) >= 2   # renumbered at least once before the last
    draws = prof.draws(cfg.seed, cfg.samples)
    distinct = [np.unique(draws[t].T, axis=0, return_inverse=True) for t in range(shape[1])]
    patterns = sum(len(rows) for rows, _ in distinct)
    assert counted[-1][1].size == patterns < shape[1] * cfg.samples
    vectors = np.concatenate([inverse.ravel() + sum(len(r) for r, _ in distinct[:t])
                              for t, (_, inverse) in enumerate(distinct)])
    # the same grouping: each pattern id goes with one choice vector
    assert len(np.unique(np.stack([counted[-1][0], vectors]), axis=1)[0]) == patterns
    ref, bound = _mc_exact_hess(prof, x, sizes, d, cost, cfg)
    assert _within(got.reshape(shape), ref, bound)


@pytest.mark.parametrize("engine", ["enumerate", "monte_carlo"])
def test_the_heaviest_load_is_where_the_capacity_starts_to_overflow(engine):
    # an outage capacity just above an allocation's heaviest load values it,
    # and one just below raises naming a load no heavier than it; on
    # enumerate it is the largest load of the point's grids (items of zero
    # probability included, so that some user has one)
    rng = np.random.default_rng(12)
    cfg = EvalConfig(engine=engine, samples=50 if engine == "monte_carlo" else 0)
    for _ in range(20):
        catalog, prof = random_instance(rng)
        probs = prof.probs.copy()
        probs[0, 0, 0] = 0.0
        prof = DemandProfile(probs)
        x = rng.uniform(0.0, 1.0, size=probs.shape) * catalog.sizes
        point = Point(prof, x, catalog.sizes, CostModel.quadratic(), cfg)
        heaviest = cfg.kernels.heaviest(point.tables, point.state)
        if engine == "enumerate":
            grids = [point.state.loads(i) for i in range(len(point.tables.outcomes.batches))]
            assert heaviest == pytest.approx(max(g.max() for g in grids), rel=1e-14)
        above = CostModel.outage(heaviest * (1.0 + 1e-12))
        assert np.isfinite(expected_cycle_cost(prof, x, above, cfg, catalog=catalog).value)
        with pytest.raises(CostDomainError) as err:
            expected_cycle_cost(prof, x, CostModel.outage(heaviest * (1.0 - 1e-12)), cfg,
                                catalog=catalog)
        assert err.value.load <= heaviest * (1.0 + 1e-14)


@pytest.mark.parametrize("users, slots, items, samples",
                         [(1, 1, 1, 1), (3, 2, 4, 1), (7, 3, 5, 17), (10, 8, 50, 300)])
def test_monte_carlo_bin_means_equal_the_broadcast_bincount(users, slots, items, samples):
    # the per-slot bincount against one bincount over the whole index with d
    # broadcast to (T, N, K) as its weights: the same bytes, on a random
    # index and on a drawn one, with weights of both signs
    rng = np.random.default_rng(users * 1000 + samples)
    codes = rng.integers(0, items + 1, size=(slots, users, samples))
    cells = np.arange(slots * users).reshape(slots, users, 1)
    probs = rng.dirichlet(np.ones(items + 1), size=(users, slots))[:, :, 1:]
    for index in (cells * (items + 1) + codes, draw_sample_index(probs, 3, samples)):
        d = rng.normal(size=(slots, samples))
        tables = evaluate.Tables(probs, np.zeros(probs.shape), None, index, None)
        got = evaluate._mc_bin_means(tables, d)
        weights = np.broadcast_to(d[:, None, :], index.shape).ravel()
        total = np.bincount(index.ravel(), weights=weights,
                            minlength=slots * users * (items + 1))
        want = total.reshape(slots, users, items + 1)[:, :, 1:].transpose(1, 0, 2) / samples
        assert got.flags.c_contiguous and got.shape == (users, slots, items)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("kind", ["quadratic", "outage"])
def test_monte_carlo_operator_edges(kind):
    # a free set that no draw hits (items nobody asks for), the empty free
    # set, and one sample per slot, each on random instances
    rng = np.random.default_rng(77)
    for case in range(12):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)), int(rng.integers(2, 6)))
        samples = (1, 37, 300)[case % 3]
        prof, sizes, cost, cfg, x = _mc_case(rng, shape, samples, case, kind)
        probs = np.array(prof.probs)
        probs[:, :, 0] = 0.0   # item 0 is never drawn
        prof = DemandProfile(probs)
        catalog = ItemCatalog(sizes)
        d = np.random.default_rng(case).normal(size=shape) * sizes
        unhit = np.flatnonzero(np.broadcast_to(np.arange(shape[2]) == 0, shape))
        frees = [unhit, np.arange(0), np.arange(x.size)]
        if samples == 1:
            frees.append(np.sort(rng.choice(x.size, size=int(rng.integers(1, x.size + 1)),
                                            replace=False)))
        for free in frees:
            got = hess_operator(prof, x, cost, cfg, free, catalog=catalog)(d.ravel()[free])
            assert got.dtype == float and got.shape == free.shape
            masked = np.zeros(shape)
            masked.flat[free] = d.flat[free]
            ref, bound = _mc_exact_hess(prof, x, sizes, masked, cost, cfg)
            assert _within(got, ref.ravel()[free], bound.ravel()[free])
            if free is unhit:   # no member: db is exactly 0
                point = Point(prof, x, sizes, cost, cfg)
                _, db = cfg.kernels.hess_op(point.tables, point.state, cost, free)(d.ravel()[free])
                assert db.dtype == float and not db.any()


def test_memoised_draws_equal_fresh_substreams():
    rng = np.random.default_rng(8)
    for _ in range(6):
        _, prof = random_instance(rng)
        seed, count = int(rng.integers(0, 1000)), int(rng.integers(1, 200))
        draws, index = prof.draws(seed, count), prof.draw_index(seed, count)
        assert draws.shape == (prof.num_slots, prof.num_users, count)
        again = prof.draws(seed, count)
        assert not (draws.flags.writeable or again.flags.writeable)
        assert np.array_equal(again, draws)
        assert prof.draw_index(seed, count) is index   # the kept index, drawn once
        for t in range(prof.num_slots):
            for n in range(prof.num_users):
                u = substream(seed, n, t).random(count)
                idx = np.searchsorted(np.cumsum(prof.probs[n, t]), u, side="right")
                fresh = np.where(idx < prof.num_items, idx + 1, 0)
                assert np.array_equal(draws[t, n], fresh)


def test_stream_keys_are_what_numpy_reads_from_the_key_list():
    # ids (n, t) fold into key1 on both sides of 2**63, where numpy reads the list as float64
    sides = set()
    for seed in (0, 7, 2**52):
        for n, t in itertools.product(range(10), range(3)):
            key1 = ((n + 1) * 0x9E3779B97F4A7C15 + t + 1) % 2**64
            sides.add(key1 >= 2**63)
            expected = np.random.Philox(key=[seed, key1]).state["state"]["key"]
            got = stream_key(seed, n, t)
            assert got.dtype == np.uint64 and np.array_equal(got, expected), (seed, n, t)
    assert sides == {False, True}


def test_monte_carlo_draws_once_per_slot_and_user(two_user, outage, mc_cfg, monkeypatch):
    # under the outage cost the solve takes several Newton iterations (the
    # quadratic one ends in one), so it values many plans on the same draws
    import procache.demand

    streams = []
    monkeypatch.setattr(
        procache.demand, "stream_key", lambda *key: streams.append(key) or stream_key(*key)
    )
    catalog, prof = two_user
    cfg = mc_cfg(200, seed=4)
    nonproactive_cost(prof, catalog, outage, cfg)
    solved = solve_proactive(prof, catalog, outage, cfg)
    assert solved.iterations > 1
    assert sorted(streams) == sorted((4, n, t) for n in range(2) for t in range(2))


def test_the_sample_index_is_built_once_with_the_draws(two_user, outage, mc_cfg, monkeypatch):
    # solved under the outage cost, which takes several Newton iterations
    import procache.demand

    built = []
    monkeypatch.setattr(procache.demand, "draw_sample_index",
                        lambda *args: built.append(args) or draw_sample_index(*args))
    catalog, prof = two_user
    for seed, count in ((4, 200), (4, 37), (5, 200)):
        cfg = mc_cfg(count, seed=seed)
        index = prof.draw_index(seed, count)
        assert not index.flags.writeable
        assert index.shape == (prof.num_slots, prof.num_users, count)
        assert np.array_equal(index, sample_index(prof.draws(seed, count), prof.num_items))
        for _ in range(2):
            prof.draws(seed, count)
            assert prof.draw_index(seed, count) is index
        assert solve_proactive(prof, catalog, outage, cfg).iterations > 1
        point = Point(prof, np.zeros(prof.probs.shape), catalog.sizes, outage, cfg)
        assert point.tables.outcomes is index
    assert len(built) == 3
    # the index lives on its profile: an equal profile builds its own
    twin = DemandProfile(prof.probs)
    assert twin.draw_index(4, 200) is not prof.draw_index(4, 200)
    assert np.array_equal(twin.draw_index(4, 200), prof.draw_index(4, 200))
    assert len(built) == 4


def test_a_profile_keeps_only_the_draws_index():
    # the codes are read back from the index, so the profile holds one array per draw
    prof = DemandProfile(np.full((20, 4, 5), 0.1))
    prof.draw_index(0, 1)   # numpy's first sampling call keeps caches of its own
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = prof.draw_index(3, 2000)
        kept = tracemalloc.get_traced_memory()[0] - before
        codes = prof.draws(3, 2000)
        del codes
        again = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert index.nbytes <= kept < 1.1 * index.nbytes, kept / index.nbytes
    assert again < 1.1 * index.nbytes, again / index.nbytes   # reading the codes keeps nothing


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
    """Value, grad_x, grad_p and each slot's heaviest reachable load (T,), by
    visiting every joint outcome one at a time."""
    n_users, n_slots, m_items = prof.probs.shape
    value = np.zeros(n_slots)
    heaviest = np.full(n_slots, -np.inf)
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
                heaviest[t] = max(heaviest[t], load)
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
    return value, grad_x, grad_p, heaviest


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
        value, grad_x, grad_p, _ = _brute_force(prof, x, catalog.sizes, cost)
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
            state = kernels.state(tables, cost)
            value, se = kernels.expected_cost(tables, state, cost)
            a, b = kernels.marginal_stats(tables, state, cost)
            a_se, b_se = kernels.marginal_errors(tables, state, cost, b)
            exact = not kernels.sampled
            assert exact == (kernels.gradient_p is not None)
            grad_p = kernels.gradient_p(tables, state, cost) if exact else None
            d = x[::-1, ::-1]
            dconst = prefetch_volume(d)
            da, db = kernel_hess_vec(kernels, tables, state, cost, d, dconst)
            if exact:
                assert not se.any() and not a_se.any() and not b_se.any()
            for t in range(prof.num_slots):
                s = slice(t, t + 1)
                # the slice's own outcome structure: the sample index of its draws, or
                # the batches and grids of its one-slot profile, as the tables build theirs
                if kernels.sampled:
                    outcomes = sample_index(prof.draws(cfg.seed, cfg.samples)[s], prof.num_items)
                else:
                    outcomes = kernels.outcomes(DemandProfile(prof.probs[:, s], prof.silence[:, s]),
                                                cfg)
                one = tables._replace(probs=tables.probs[:, s], v=tables.v[:, s],
                                      const=tables.const[s], outcomes=outcomes)
                one_state = kernels.state(one, cost)
                value_t, se_t = kernels.expected_cost(one, one_state, cost)
                assert (value_t[0], se_t[0]) == (value[t], se[t])
                a_t, b_t = kernels.marginal_stats(one, one_state, cost)
                a_se_t, b_se_t = kernels.marginal_errors(one, one_state, cost, b_t)
                assert (a_t[0], a_se_t[0]) == (a[t], a_se[t])
                assert np.array_equal(b_t[:, 0], b[:, t]) and np.array_equal(b_se_t[:, 0], b_se[:, t])
                if exact:
                    assert np.array_equal(kernels.gradient_p(one, one_state, cost)[:, 0],
                                          grad_p[:, t])
                da_t, db_t = kernel_hess_vec(kernels, one, one_state, cost, d[:, t:t + 1],
                                             dconst[t:t + 1])
                assert da_t[0] == da[t] and np.array_equal(db_t[:, 0], db[:, t])

            # the cycle-level functions are the full batch
            res = expected_cycle_cost(prof, x, cost, cfg, catalog=catalog)
            assert np.array_equal(res.slot_values, value) and np.array_equal(res.slot_stderrs, se)
            gx = cost_gradient_x(prof, x, cost, cfg, catalog=catalog)
            assert np.array_equal(gx, (np.roll(a, 1)[None, :, None] - b) / prof.num_slots)
            if exact:
                gp = cost_gradient_p(prof, x, cost, cfg, catalog=catalog)
                assert np.array_equal(gp, grad_p / prof.num_slots)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_point_builds_its_engine_state_once(engine, two_user, quad, monkeypatch):
    # the value, the gradient, two Hessian products and (on the exact engines)
    # the probability gradient at one Point all read the state it built once:
    # enumerate and monte_carlo tabulate the plan's loads, analytic_quadratic
    # takes the constant C''
    catalog, prof = two_user
    x = 0.3 * np.broadcast_to(catalog.sizes, prof.probs.shape)
    cfg = EvalConfig(engine=engine, samples=50, seed=3)
    builds = []
    if engine == "analytic_quadratic":
        second = CostModel.second

        def counted(self, load):
            builds.append(load)
            return second(self, load)

        monkeypatch.setattr(CostModel, "second", counted)
    else:
        values = evaluate._values

        def counted(v, direction=False):
            if not direction:
                builds.append(v)
            return values(v, direction)

        monkeypatch.setattr(evaluate, "_values", counted)
    point = Point(prof, x, catalog.sizes, quad, cfg)
    expected_cycle_cost(prof, point, quad, cfg)
    cost_gradient_x(prof, point, quad, cfg)
    for d in (x, x[::-1]):
        hess_vec(prof, point, d, quad, cfg)
    if cfg.kernels.gradient_p is not None:
        cost_gradient_p(prof, point, quad, cfg)
    assert len(builds) == 1
    if engine != "analytic_quadratic":
        assert np.array_equal(builds[0], catalog.sizes - x)


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
        hv = hess_vec(prof, x, d, cost, cfg, catalog=catalog)
        assert np.abs(hv - fd).max() <= 1e-9 * np.abs(fd).max()


def test_analytic_hess_vec_equals_enumeration():
    for (catalog, prof, x, d, cost, cfg), (*_, ref_cfg) in zip(
        _curvature_cases("analytic_quadratic"), _curvature_cases("enumerate")
    ):
        got = hess_vec(prof, x, d, cost, cfg, catalog=catalog)
        ref = hess_vec(prof, x, d, cost, ref_cfg, catalog=catalog)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_an_analytic_product_holds_one_plan_sized_array():
    # every coordinate free on the per-user plan: the operator's own buffers
    # take the direction, db and da[prev], so a product holds only the result
    scn = parse_scenario(SCALING_SCENARIO).with_users(200)
    prof, cost, cfg = scn.profile.expanded(), scn.cost, scn.cfg   # the full-N path
    point = Point(prof, np.zeros(prof.probs.shape), scn.catalog.sizes, cost, cfg)
    v = np.random.default_rng(4).uniform(-1.0, 1.0, size=prof.probs.size)
    hv = hess_operator(prof, point, cost, cfg, np.arange(v.size))   # builds the point's tables
    ref = hv(v)
    tracemalloc.start()
    try:
        got = hv(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, ref)
    assert peak < 1.01 * prof.probs.nbytes, peak / prof.probs.nbytes


@pytest.mark.parametrize("engine", ENGINES)
def test_a_product_refuses_a_vector_not_shaped_like_its_free_set(engine, two_user, quad):
    # unchecked, the scatter cycles or truncates a wrong-length vector
    catalog, prof = two_user
    cfg = EvalConfig(engine=engine, samples=50, seed=3)
    free = np.array([0, 2, 5, 7, 11])
    hv = hess_operator(prof, None, quad, cfg, free, catalog=catalog)
    for shape in ((1,), (2,), (4,), (6,), (8,), (5, 1), ()):
        with pytest.raises(ValueError, match=f"{re.escape(str(shape))}.*{re.escape('(5,)')}"):
            hv(np.ones(shape))
    assert hv(np.ones(5)).shape == (5,)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_point_evaluates_like_its_bare_allocation(engine):
    for catalog, prof, x, d, cost, cfg in _curvature_cases(engine):
        point = Point(prof, x.copy(), catalog.sizes, cost, cfg)
        for _ in range(2):   # the second round reads the memoised state
            res = expected_cycle_cost(prof, point, cost, cfg)
            ref = expected_cycle_cost(prof, x, cost, cfg, catalog=catalog)
            assert (res.value, res.stderr) == (ref.value, ref.stderr)
            assert np.array_equal(res.slot_values, ref.slot_values)
            assert np.array_equal(res.slot_stderrs, ref.slot_stderrs)
            assert np.array_equal(cost_gradient_x(prof, point, cost, cfg),
                                  cost_gradient_x(prof, x, cost, cfg, catalog=catalog))
            assert np.array_equal(hess_vec(prof, point, d, cost, cfg),
                                  hess_vec(prof, x, d, cost, cfg, catalog=catalog))
        assert x.flags.writeable    # a bare allocation is viewed, not frozen
        with pytest.raises(ValueError):
            point.x[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="another profile"):
            expected_cycle_cost(prof, point, cost, EvalConfig(engine=engine, samples=5, seed=99))


def _masked_gradient_p(prof, x, sizes, cost):
    """The enumeration's probability gradient with every grid on the masked
    path: only in-domain loads reach the cost, a choice with an outcome past
    the domain at ``P_-n > 0`` is ``+inf``, and a silent one raises at the
    batch's heaviest such load."""
    w = np.concatenate([prof.silence[:, :, None], prof.probs], axis=2).transpose(1, 0, 2)
    val, const = evaluate._values(sizes - x), prefetch_volume(x)
    n_slots, n_users, width = w.shape
    grad = np.empty((n_users, n_slots, width - 1))
    batches = evaluate._batching(w)
    for n in range(n_users):
        for s, widths, cols in batches(full=n):
            ws, vs = evaluate._cut(w, s, widths, cols), evaluate._cut(val, s, widths, cols)
            del ws[n]
            probs = evaluate._grid(ws, np.multiply, np.ones(len(s)))
            loads = evaluate._grid([vs.pop(n)] + vs, np.add, const[s]).reshape(len(s), width, -1)
            ok = (loads >= -1e-9) & (loads < cost.mu)
            values = np.zeros_like(loads)
            values[ok] = cost.cost(loads[ok])
            cond = (values @ probs[:, :, None])[:, :, 0]
            bad = ~ok & (probs > 0.0)[:, None, :]
            out = bad.any(axis=2)
            if out[:, 0].any():
                raise CostDomainError(float(loads[bad].max()), cost.mu)
            grad[n, s] = np.where(out[:, 1:], np.inf, cond[:, 1:] - cond[:, :1])
    return grad / n_slots


def test_probability_gradient_masks_only_grids_that_leave_the_domain(monkeypatch):
    # three capacities per case: past every load any grid holds, the case's
    # own (clear of reachable loads, not of every choice), and half of that
    masks = _counting(monkeypatch, CostModel, "in_domain")
    cfg = EvalConfig(engine="enumerate")
    seen = set()
    for catalog, prof, x, cost in _grid_cases("outage"):
        heaviest = ((catalog.sizes - x).max(axis=2).sum(axis=0)
                    + np.roll(x.sum(axis=(0, 2)), -1)).max()
        for mu in (2.0 * heaviest, cost.mu, 0.5 * cost.mu):
            at = CostModel.outage(mu)
            try:
                want = _masked_gradient_p(prof, x, catalog.sizes, at)
            except CostDomainError as exc:
                with pytest.raises(CostDomainError) as err:
                    cost_gradient_p(prof, x, at, cfg, catalog=catalog)
                assert (err.value.load, err.value.limit) == (exc.load, exc.limit)
                seen.add("baseline raises")
                continue
            masks.clear()
            got = cost_gradient_p(prof, x, at, cfg, catalog=catalog)
            assert np.array_equal(np.isinf(got), np.isinf(want))
            assert got.tobytes() == want.tobytes()
            if np.isinf(want).any():
                seen.add("faces")
            elif mu == 2.0 * heaviest:
                assert masks == []   # no grid left the domain: no mask was built
                seen.add("in domain")
    assert seen == {"in domain", "faces", "baseline raises"}

    # no grid of the cyclic instance leaves its domain, over a whole shaping run
    catalog, prof, cost = _cyclic_outage()
    masks.clear()
    shaped = shape_demand(prof, catalog, cost, cfg, 0.2)
    assert len(shaped.trace) > 1 and masks == []


def test_an_overflowing_trial_raises_a_slots_heaviest_reachable_load():
    cfg = EvalConfig(engine="enumerate")
    for catalog, prof, x, cost in _grid_cases("outage"):
        heaviest = _brute_force(prof, x, catalog.sizes, cost)[3]
        tight = CostModel.outage(0.5 * cost.mu)   # below the heaviest reachable load
        with pytest.raises(CostDomainError) as err:
            expected_cycle_cost(prof, x, tight, cfg, catalog=catalog)
        # a slot's heaviest reachable load, past the limit; the oracle adds it up in
        # another order, so it may differ in the last bits
        load, limit = err.value.load, err.value.limit
        assert limit == tight.mu and load >= limit
        assert np.isclose(heaviest, load, rtol=1e-14, atol=0.0).any(), (load, heaviest)
    # x past an item's size makes a load negative, which the grid's check reports first
    x = np.zeros((2, 2, 2))
    x[0, 1, 0] = 5.0
    prof = DemandProfile(np.full((2, 2, 2), 0.25))
    with pytest.raises(CostDomainError) as err:
        expected_cycle_cost(prof, x, CostModel.outage(3.0), cfg, catalog=ItemCatalog([1.0, 2.0]))
    assert (err.value.load, err.value.limit) == (-4.0, 3.0)


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


# ---------------------------------------------------------------------------
# Kept grids: probabilities once per profile, loads once per point


def _cyclic_outage():
    """6 users, 3 slots, 4 items under an outage cost just above the heaviest
    outcome's load of 12, with a busy middle slot.  User 0 never asks
    for item 4 in slot 2, so slots 0 and 1 (15625 outcomes each) share one
    batch and slot 2 (12500) has its own."""
    rng = np.random.default_rng(24)
    probs = rng.dirichlet(np.ones(4), size=(6, 3)) * np.array([0.2, 0.95, 0.6])[:, None]
    probs[0, 2, 3] = 0.0
    catalog = ItemCatalog(np.linspace(1.0, 2.0, 4))
    return catalog, DemandProfile(probs), CostModel.outage(14.0)


def _counting(monkeypatch, owner, name):
    """Patch ``owner.name`` to record its last argument each time it returns;
    the list of records (a call that raises records nothing)."""
    calls, fn = [], getattr(owner, name)

    def counted(*args):
        out = fn(*args)
        calls.append(args[-1])
        return out

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_solve_builds_each_probability_grid_once_per_profile(monkeypatch):
    catalog, prof, cost = _cyclic_outage()
    built = _counting(monkeypatch, evaluate, "_chances")   # records the batch's slot count
    solved = solve_proactive(prof, catalog, cost, EvalConfig())
    assert solved.iterations > 1
    outcomes = solved.allocation.tables.outcomes
    assert [len(s) for s, *_ in outcomes.batches] == [2, 1] and outcomes.grids is not None
    assert built == [2, 1]
    solve_proactive(prof, catalog, cost, EvalConfig(), x0=solved.allocation.x)
    assert built == [2, 1]   # a second solve on the profile builds none
    solve_proactive(DemandProfile(prof.probs), catalog, cost, EvalConfig())
    assert built == [2, 1, 2, 1]   # an equal profile builds its own


def test_a_point_builds_each_loads_grid_once(monkeypatch):
    catalog, prof, cost = _cyclic_outage()
    cfg = EvalConfig()
    built = _counting(monkeypatch, evaluate._EnumState, "build")   # records the batch
    x = 0.01 * np.broadcast_to(catalog.sizes, prof.probs.shape)
    d = np.random.default_rng(3).uniform(-1.0, 1.0, size=x.shape)
    free = np.flatnonzero(d > 0.0)
    point = Point(prof, x, catalog.sizes, cost, cfg)
    value = expected_cycle_cost(prof, point, cost, cfg).value
    cost_gradient_x(prof, point, cost, cfg)
    for v in (d, x, d[::-1]):
        hess_vec(prof, point, v, cost, cfg)
    product = hess_operator(prof, point, cost, cfg, free)
    for v in (d.ravel()[free], x.ravel()[free]):
        product(v)
    cost_gradient_p(prof, point, cost, cfg)
    assert expected_cycle_cost(prof, point, cost, cfg).value == value
    assert built == [0, 1]
    kept = point.state.kept
    assert sorted(kept) == [0, 1] and not any(grid.flags.writeable for grid in kept.values())
    for probs, live in point.tables.outcomes.grids:
        assert not probs.flags.writeable and live is None


def test_past_the_budget_nothing_is_kept_and_the_bits_stay(monkeypatch):
    catalog, prof, cost = _cyclic_outage()
    cfg = EvalConfig()
    x = 0.01 * np.broadcast_to(catalog.sizes, prof.probs.shape)
    d = np.random.default_rng(3).uniform(-1.0, 1.0, size=x.shape)
    free = np.flatnonzero(d > 0.0)

    def run(profile):
        point = Point(profile, x, catalog.sizes, cost, cfg)
        found = []
        for _ in range(2):
            found += [expected_cycle_cost(profile, point, cost, cfg).slot_values,
                      cost_gradient_x(profile, point, cost, cfg),
                      hess_vec(profile, point, d, cost, cfg),
                      hess_operator(profile, point, cost, cfg, free)(d.ravel()[free]),
                      cost_gradient_p(profile, point, cost, cfg)]
        solved = solve_proactive(profile, catalog, cost, cfg)
        return point, found + [solved.allocation.x, solved.objective_trace]

    _, ref = run(prof)
    # each batch (2 x 15625 and 12500 outcomes) still fits the limit, so the
    # batches stay the same, but the cycle's 43750 outcomes do not
    monkeypatch.setattr(evaluate, "_ENUM_LIMIT", 40_000)
    built = _counting(monkeypatch, evaluate, "_chances")
    point, got = run(DemandProfile(prof.probs))
    outcomes = point.tables.outcomes
    assert [len(s) for s, *_ in outcomes.batches] == [2, 1]
    assert outcomes.grids is None and point.state.kept == {}
    assert len(built) > 10 * len(outcomes.batches)   # every call built its own
    assert len(got) == len(ref) and all(np.array_equal(a, b) for a, b in zip(got, ref))


def _underflow_cases():
    """Every user asks for the big item at probability 1e-200, so an outcome
    where two of them do has probability 0.0: the live-mask path.  Under the
    outage cost that outcome would overflow mu = 60."""
    rng = np.random.default_rng(11)
    catalog = ItemCatalog([1.0, 50.0])
    probs = np.zeros((3, 2, 2))
    probs[:, :, 0], probs[:, :, 1] = 0.5, 1e-200
    x = rng.uniform(0.0, 0.5, size=probs.shape)
    for cost in (CostModel.quadratic(), CostModel.polynomial([0.0, 0.3, 0.1, 0.05]),
                 CostModel.outage(60.0)):
        d = rng.uniform(-1.0, 1.0, size=probs.shape)
        yield catalog, DemandProfile(probs), x, d, cost, EvalConfig()


def _rebuilt_marginals(prof, x, sizes, weight, d=None):
    """The enumeration's ``(a, b)`` with every grid built for the call and
    multiplied in the order the kernels keep: ``P weight(Y)``, then ``dY``."""
    w = np.concatenate([prof.silence[:, :, None], prof.probs], axis=2).transpose(1, 0, 2)
    n_slots, n_users, width = w.shape
    tabs = [w, evaluate._values(sizes - x)] + ([] if d is None else [evaluate._values(d, True)])
    const = [prefetch_volume(x)] + ([] if d is None else [prefetch_volume(d)])
    a, b = np.empty(n_slots), np.empty((n_users, n_slots, width - 1))
    for s, widths, cols in evaluate._batching(w)():
        ws, *vs = [evaluate._cut(tab, s, widths, cols) for tab in tabs]
        probs = evaluate._grid(ws, np.multiply, np.ones(len(s)))
        loads = evaluate._grid(vs[0], np.add, const[0][s])
        probs *= evaluate._on_live(weight, loads, probs > 0.0)
        if d is not None:
            probs *= evaluate._grid(vs[1], np.add, const[1][s])
        sums = evaluate._axis_sums(probs, widths, width)
        a[s] = sums[0].sum(axis=1)
        if cols is not None:
            np.put_along_axis(sums, cols.transpose(1, 0, 2), sums.copy(), axis=2)
        b[:, s] = sums[:, :, 1:]
    return a, b


def test_kept_grids_give_the_bits_of_a_cold_profile():
    # cold: each quantity on a new profile and a bare array, which build
    # every grid for that one call; warm: points on one profile, whose
    # outcome structure and loads grids later calls read
    rng = np.random.default_rng(24)
    paths = set()
    for catalog, prof, x, d, cost, cfg in (*_curvature_cases("enumerate"), *_underflow_cases()):
        free = np.sort(rng.choice(x.size, max(1, x.size // 2), replace=False))
        quantities = (
            lambda p, at, **kw: expected_cycle_cost(p, at, cost, cfg, **kw).slot_values,
            lambda p, at, **kw: cost_gradient_x(p, at, cost, cfg, **kw),
            lambda p, at, **kw: hess_vec(p, at, d, cost, cfg, **kw),
            lambda p, at, **kw: hess_operator(p, at, cost, cfg, free, **kw)(d.ravel()[free]),
            lambda p, at, **kw: cost_gradient_p(p, at, cost, cfg, **kw),
        )
        cold = [q(DemandProfile(prof.probs, prof.silence), x, catalog=catalog) for q in quantities]
        for _ in range(2):   # the second point finds the profile's structure built
            point = Point(prof, x, catalog.sizes, cost, cfg)
            for _ in range(2):   # the second round reads the point's kept loads grids
                for q, ref in zip(quantities, cold):
                    assert np.array_equal(q(prof, point), ref)
            outcomes = point.tables.outcomes
            assert outcomes.grids is not None
            assert len(point.state.kept) == len(outcomes.batches)
            for got, ref in ((cfg.kernels.marginal_stats(point.tables, point.state, cost),
                              _rebuilt_marginals(prof, x, catalog.sizes, cost.marginal)),
                             (kernel_hess_vec(cfg.kernels, point.tables, point.state, cost, d),
                              _rebuilt_marginals(prof, x, catalog.sizes, cost.second, d))):
                assert all(np.array_equal(g, r) for g, r in zip(got, ref))
        if any(cols is not None for _, _, cols, _ in outcomes.batches):
            paths.add("column order")
        if any(live is not None for _, live in outcomes.grids):
            paths.add("live mask")
    assert paths == {"column order", "live mask"}
