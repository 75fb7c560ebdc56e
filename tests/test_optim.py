"""Projections, the linear minimization over ball-slice sets, box descent."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procache.optim import (
    box_projected_descent,
    golden_section_min,
    linear_min_over_ball_slice,
    project_ball,
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


def test_golden_section_interior_min():
    x = golden_section_min(lambda u: (u - 1.3) ** 2, 0.0, 3.0)
    assert x == pytest.approx(1.3, abs=1e-6)


def test_golden_section_boundary_min():
    assert golden_section_min(lambda u: u * u, 1.0, 2.0) == pytest.approx(1.0, abs=1e-6)


def test_project_ball():
    c = np.zeros(3)
    assert np.allclose(project_ball(np.array([3.0, 0.0, 0.0]), c, 1.0), [1.0, 0.0, 0.0])
    inside = np.array([0.2, 0.1, 0.0])
    assert np.allclose(project_ball(inside, c, 1.0), inside)


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
