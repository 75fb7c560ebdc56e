"""Projections, the linear minimization over ball-slice sets, box descent."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procache.optim import (
    _INVPHI,
    box_projected_descent,
    golden_section_min,
    linear_min_over_ball_slice,
    project_ball_slice,
    project_simplex_slice,
)


def feasible_point(rng, center, radius, total):
    """A point of the ball/slice/orthant set, built without any projector.

    The segment from an on-slice center to a random simplex point stays on
    the slice and in the orthant; capping its length keeps it in the ball.
    """
    z0 = rng.dirichlet(np.ones(center.size)) * total
    lam = min(1.0, radius / max(float(np.linalg.norm(z0 - center)), 1e-12))
    return center + lam * (z0 - center)


def _dykstra_ball_slice(v, center, radius, total, tol=1e-13, max_rounds=2000):
    """Test oracle: projection onto the ball/slice/orthant set by Dykstra's
    alternating projections (Boyle & Dykstra 1986), the solver the exact
    path kernel replaced."""
    x = np.asarray(v, dtype=float).copy()
    inc_ball = np.zeros_like(x)
    inc_slice = np.zeros_like(x)
    prev = None
    for _ in range(max_rounds):
        z = x + inc_ball
        dist = float(np.linalg.norm(z - center))
        y = z.copy() if dist <= radius or dist == 0.0 else center + (z - center) * (radius / dist)
        inc_ball = z - y
        x = project_simplex_slice(y + inc_slice, total)
        inc_slice = y + inc_slice - x
        if prev is not None and float(np.linalg.norm(x - prev)) <= tol:
            break
        prev = x
    return x


def _oracle_linear_min(g, center, radius, total, tol=1e-10, max_iters=20000):
    """Test oracle: the projected-gradient linear step over one row, with
    the diverging-item face, the on-slice center shift and the closed-form
    vertex and sphere cases of the solver the exact kernel replaced."""
    g = np.asarray(g, dtype=float)
    if radius <= 0.0:
        return center.copy()
    fin = np.isfinite(g)
    p = np.zeros_like(center)
    c = center[fin]
    r_sq = radius**2 - float(center[~fin] @ center[~fin])
    gap = (total - float(c.sum())) / c.size
    r_sq -= c.size * gap * gap
    assert fin.any() and r_sq >= 0.0, "oracle instance is infeasible"
    c, radius, gf = c + gap, float(np.sqrt(r_sq)), g[fin]
    g_slice = gf - gf.mean()
    gn = float(np.linalg.norm(g_slice))
    if radius <= 0.0 or gn == 0.0:
        p[fin] = np.maximum(c, 0.0)
        return p
    vertex = np.zeros_like(c)
    vertex[int(np.argmin(gf))] = total
    sphere = c - (radius / gn) * g_slice
    if float(np.linalg.norm(vertex - c)) <= radius:
        p[fin] = vertex
    elif float(sphere.min()) >= 0.0:
        p[fin] = sphere
    else:
        x = c.copy()
        for _ in range(max_iters):
            x_next = _dykstra_ball_slice(x - (radius / gn) * gf, c, radius, total)
            done = float(np.linalg.norm(x_next - x)) <= tol
            x = x_next
            if done:
                break
        p[fin] = x
    return p


def _random_rows(rng, count, m):
    """Seeded linear-step rows: plain, exact ties, +inf masks, zero radius
    and off-slice centers, each feasible by construction."""
    g = rng.normal(size=(count, m))
    center = np.empty((count, m))
    radius = np.empty(count)
    total = rng.uniform(0.3, 1.5, size=count)
    for i in range(count):
        kind = i % 5
        c = rng.dirichlet(np.full(m, 0.7)) * total[i]
        if rng.random() < 0.3:
            c[rng.integers(m)] = 0.0            # a coordinate already on its face
            c *= total[i] / c.sum()
        if kind == 1:                           # exact ties, often at the minimum
            g[i] = rng.integers(-2, 3, size=m).astype(float)
        if kind == 3:                           # off the sum slice, either side
            c = c * rng.uniform(0.7, 1.3)
        center[i] = c
        base = float(np.linalg.norm(project_simplex_slice(c, total[i]) - c))
        radius[i] = base + rng.uniform(0.02, 0.8) * total[i]
        if kind == 2:                           # diverging items, mass cleared in budget
            mask = rng.random(m) < 0.4
            mask[rng.integers(m)] = False
            g[i, mask] = np.inf
            gap = (total[i] - c[~mask].sum()) / (~mask).sum()
            radius[i] = float(np.sqrt(c[mask] @ c[mask] + (~mask).sum() * gap**2))
            radius[i] += rng.uniform(0.0, 0.5) * total[i]
        if kind == 4:
            radius[i] = 0.0
    return g, center, radius, total


def test_golden_section_interior_min():
    x = golden_section_min(lambda u: (u - 1.3) ** 2, 0.0, 3.0)
    assert x == pytest.approx(1.3, abs=1e-6)


def test_golden_section_boundary_min():
    assert golden_section_min(lambda u: u * u, 1.0, 2.0) == pytest.approx(1.0, abs=1e-6)


def test_golden_section_stops_below_the_float_spacing():
    # tol = 1e-8 is below the spacing of floats near 1e8 (1.5e-8), so the
    # bracket can never get that narrow; the search stops once it can no
    # longer shrink, at the float spacing of the answer
    x = golden_section_min(lambda u: (u - 0.9e8) ** 2, 0.0, 1e8)
    assert abs(x - 0.9e8) <= 4 * np.spacing(0.9e8)


def test_golden_section_unchanged_where_tol_is_reachable():
    def plain(fn, a, b, tol):
        c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
        fc, fd = fn(c), fn(d)
        while (b - a) > tol:
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = fn(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = fn(d)
        return 0.5 * (a + b)

    rng = np.random.default_rng(11)
    for _ in range(200):
        lo, width = rng.uniform(-10.0, 10.0), rng.uniform(0.0, 20.0)
        target, tol = lo + rng.uniform(0.0, width), 10.0 ** rng.uniform(-12, -2)
        fn = lambda u, t=target: abs(u - t) ** 1.5  # noqa: E731
        assert golden_section_min(fn, lo, lo + width, tol) == plain(fn, lo, lo + width, tol)


@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=8),
    st.floats(0.1, 3.0),
)
@settings(max_examples=80, deadline=None)
def test_simplex_slice_projection_feasible_idempotent(vals, total):
    v = np.asarray(vals)
    p = project_simplex_slice(v, total)
    assert p.min() >= -1e-12
    assert p.sum() == pytest.approx(total, abs=1e-9)
    assert np.allclose(project_simplex_slice(p, total), p, atol=1e-9)


def test_simplex_slice_projection_is_closest_point():
    rng = np.random.default_rng(1)
    v = rng.normal(size=6)
    p = project_simplex_slice(v, 1.0)
    for _ in range(200):
        z = rng.dirichlet(np.ones(6))
        assert np.linalg.norm(v - p) <= np.linalg.norm(v - z) + 1e-10


def test_ball_slice_projection_feasible_and_closest():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        total = float(rng.uniform(0.3, 2.0))
        center = rng.dirichlet(np.ones(d)) * total
        radius = float(rng.uniform(0.05, 0.8) * total)
        v = center + rng.normal(size=d) * radius * 2.0
        proj = project_ball_slice(v, center, radius, total)
        assert proj.min() >= -1e-10
        assert proj.sum() == pytest.approx(total, abs=1e-9)
        assert np.linalg.norm(proj - center) <= radius + 1e-9
        for _ in range(40):
            z = feasible_point(rng, center, radius, total)
            # both the distance test and the variational inequality
            assert np.linalg.norm(v - proj) <= np.linalg.norm(v - z) + 1e-8
            assert float((v - proj) @ (z - proj)) <= 1e-6 * (1.0 + np.linalg.norm(v - proj))


def test_ball_slice_projection_fixed_point():
    center = np.array([0.5, 0.3, 0.2])
    inside = np.array([0.45, 0.33, 0.22])
    out = project_ball_slice(inside, center, 0.2, 1.0)
    assert np.allclose(out, inside, atol=1e-10)


def test_linear_min_beats_random_feasible_sweep():
    rng = np.random.default_rng(2)
    for _ in range(15):
        d = int(rng.integers(2, 6))
        total = float(rng.uniform(0.5, 1.5))
        center = rng.dirichlet(np.ones(d) * 2.0) * total
        radius = float(rng.uniform(0.05, 0.6) * total)
        g = rng.normal(size=d)
        x = linear_min_over_ball_slice(g, center, radius, total)
        assert x.min() >= -1e-9
        assert x.sum() == pytest.approx(total, abs=1e-8)
        assert np.linalg.norm(x - center) <= radius + 1e-8
        best = float(g @ x)
        for _ in range(400):
            z = feasible_point(rng, center, radius, total)
            assert best <= float(g @ z) + 1e-6


def test_linear_min_interior_ball_moves_along_gradient():
    # ball strictly inside the slice interior: the optimum is the center
    # pushed a full radius against the in-slice gradient component
    center = np.array([0.4, 0.3, 0.3])
    g = np.array([1.0, 0.0, -1.0])
    r = 0.05
    x = linear_min_over_ball_slice(g, center, r, 1.0)
    gp = g - g.mean()
    assert np.allclose(x, center - r * gp / np.linalg.norm(gp), atol=1e-9)


def test_linear_min_huge_ball_picks_cheapest_vertex():
    center = np.full(4, 0.25)
    g = np.array([3.0, 1.0, 2.0, 5.0])
    x = linear_min_over_ball_slice(g, center, 10.0, 1.0)
    assert np.allclose(x, [0.0, 1.0, 0.0, 0.0], atol=1e-9)


def test_linear_min_off_slice_center_still_feasible():
    center = np.array([0.2, 0.2, 0.2])  # sums to 0.6, slice wants 0.9
    g = np.array([0.0, 1.0, 2.0])
    x = linear_min_over_ball_slice(g, center, 0.4, 0.9)
    assert x.sum() == pytest.approx(0.9, abs=1e-9)
    assert np.linalg.norm(x - center) <= 0.4 + 1e-8
    assert x.min() >= -1e-9


def test_linear_min_unreachable_slice_raises():
    center = np.array([0.2, 0.2, 0.2])
    with pytest.raises(ValueError, match="sum slice"):
        linear_min_over_ball_slice(np.ones(3), center, 0.05, 2.0)


def test_linear_min_zero_radius_returns_center():
    center = np.array([0.5, 0.1, 0.4])
    out = linear_min_over_ball_slice(np.array([5.0, -2.0, 1.0]), center, 0.0, 1.0)
    assert np.allclose(out, center)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
def test_linear_min_matches_the_dykstra_oracle(m):
    # 5 x 64 = 320 seeded rows; the exact step is never worse than the
    # iterative solver it replaced, and meets every constraint to 1e-12
    rng = np.random.default_rng(100 + m)
    g, center, radius, total = _random_rows(rng, 64, m)
    out = linear_min_over_ball_slice(g, center, radius, total)
    assert out.shape == center.shape
    for i in range(len(g)):
        p, fin = out[i], np.isfinite(g[i])
        if radius[i] == 0.0:
            assert np.array_equal(p, center[i])
            continue
        ref = _oracle_linear_min(g[i], center[i], radius[i], total[i])
        obj, ref_obj = float(g[i, fin] @ p[fin]), float(g[i, fin] @ ref[fin])
        assert obj <= ref_obj + 1e-12 * (1.0 + abs(ref_obj))
        assert np.all(p[~fin] == 0.0)
        assert p.min() >= -1e-12
        assert abs(float(p.sum()) - total[i]) <= 1e-12
        assert float(np.linalg.norm(p - center[i])) <= radius[i] + 1e-12


def test_linear_min_batched_equals_per_row():
    rng = np.random.default_rng(7)
    g, center, radius, total = _random_rows(rng, 40, 5)
    batched = linear_min_over_ball_slice(
        g.reshape(4, 10, 5), center.reshape(4, 10, 5), radius.reshape(4, 10),
        total.reshape(4, 10),
    ).reshape(40, 5)
    for i in range(40):
        row = linear_min_over_ball_slice(g[i], center[i], radius[i], total[i])
        assert np.array_equal(batched[i], row)


def test_linear_min_tied_minima_land_on_the_cheapest_face():
    # items 0 and 1 tie for the least gradient; the vertex (0.9, 0, 0) lies
    # outside the ball, but the face point nearest the center is inside,
    # so it is optimal, with the whole activity kept
    center = np.array([0.3, 0.3, 0.3])
    g = np.array([0.0, 0.0, 1.0])
    assert np.linalg.norm(np.array([0.9, 0.0, 0.0]) - center) > 0.5
    x = linear_min_over_ball_slice(g, center, 0.5, 0.9)
    assert np.allclose(x, [0.45, 0.45, 0.0], atol=1e-15)
    assert x[2] == 0.0
    assert x.sum() == pytest.approx(0.9, abs=1e-15)
    # a tighter ball stops short of the face, on its boundary
    y = linear_min_over_ball_slice(g, center, 0.2, 0.9)
    assert np.linalg.norm(y - center) == pytest.approx(0.2, abs=1e-12)
    assert y[0] == y[1] and y.sum() == pytest.approx(0.9, abs=1e-15)
    ref = _oracle_linear_min(g, center, 0.2, 0.9)
    assert float(g @ y) <= float(g @ ref) + 1e-12


def test_ball_slice_projection_matches_the_dykstra_oracle():
    rng = np.random.default_rng(3)
    for _ in range(60):
        d = int(rng.integers(2, 7))
        total = float(rng.uniform(0.3, 2.0))
        center = rng.dirichlet(np.ones(d)) * total
        radius = float(rng.uniform(0.05, 0.8) * total)
        v = center + rng.normal(size=d) * radius * 2.0
        proj = project_ball_slice(v, center, radius, total)
        ref = _dykstra_ball_slice(v, center, radius, total)
        assert np.allclose(proj, ref, atol=1e-9)
        assert np.linalg.norm(v - proj) <= np.linalg.norm(v - ref) + 1e-12


def test_box_descent_clamps_active_bounds():
    target = np.array([-1.0, 0.5, 2.0])
    res = box_projected_descent(
        lambda x: float(((x - target) ** 2).sum()),
        lambda x: 2.0 * (x - target),
        np.full(3, 0.5),
        np.zeros(3),
        np.ones(3),
    )
    assert res.converged
    assert np.allclose(res.x, [0.0, 0.5, 1.0], atol=1e-7)
    assert res.grad_norm <= 1e-8
    assert np.all(np.diff(res.trace) <= 1e-12)  # descent never loses ground


def test_box_descent_nonquadratic_interior_min():
    opt = np.array([0.3, 0.7])

    def value(x):
        return float((x[0] - 0.3) ** 4 + (x[1] - 0.7) ** 2)

    def grad(x):
        return np.array([4.0 * (x[0] - 0.3) ** 3, 2.0 * (x[1] - 0.7)])

    # the quartic axis is flat near its optimum (the gradient dies cubically),
    # so ask for a looser stationarity level and a wider berth on x
    res = box_projected_descent(
        value, grad, np.array([0.9, 0.1]), np.zeros(2), np.ones(2), tol=1e-6
    )
    assert res.converged
    assert np.allclose(res.x, opt, atol=1e-2)
    assert res.value <= value(np.array([0.9, 0.1]))


def test_box_descent_starts_at_solution():
    res = box_projected_descent(
        lambda x: float((x**2).sum()),
        lambda x: 2.0 * x,
        np.zeros(4),
        np.zeros(4),
        np.ones(4),
    )
    assert res.converged
    assert res.iterations <= 1
    assert np.allclose(res.x, 0.0)



def test_box_descent_stall_reports_a_python_bool():
    # a flat objective with a nonzero gradient: no step can decrease it
    res = box_projected_descent(
        lambda x: 0.0, lambda x: np.ones(3), np.full(3, 0.5), np.zeros(3), np.ones(3)
    )
    assert res.iterations == 0 and res.grad_norm > 1e-8   # left through the stall branch
    assert type(res.converged) is bool
    assert res.converged is False
