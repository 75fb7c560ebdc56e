"""Projections, the linear minimization over ball-slice sets, box descent."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procache import optim, shaping
from procache.experiments import SCALING_SCENARIO
from procache.optim import (
    box_projected_descent,
    increasing_root,
    linear_min_over_ball_slice,
    project_ball_slice,
    project_simplex_slice,
)
from procache.scenario import parse_scenario

from oracles import box_gap


def feasible_point(rng, center, radius, total):
    """A point of the ball/slice/orthant set, built without any projector.

    The segment from an on-slice center to a random simplex point stays on
    the slice and in the orthant; capping its length keeps it in the ball.
    """
    z0 = rng.dirichlet(np.ones(center.size)) * total
    lam = min(1.0, radius / max(float(np.linalg.norm(z0 - center)), 1e-12))
    return center + lam * (z0 - center)


def _dykstra_ball_slice(v, center, radius, total, tol=1e-13, max_rounds=20000):
    """Test oracle: projection onto the ball/slice/orthant set by Dykstra's
    alternating projections (Boyle & Dykstra 1986), the solver the exact
    path kernel replaced.  A round can leave the iterate in place while the
    increments still move (the iterate then leaves later), so the oracle
    stops only once the iterate and both increments settle, and raises at
    the round cap rather than return an unsettled point."""
    x = np.asarray(v, dtype=float).copy()
    inc_ball = np.zeros_like(x)
    inc_slice = np.zeros_like(x)
    for _ in range(max_rounds):
        z = x + inc_ball
        dist = float(np.linalg.norm(z - center))
        y = z.copy() if dist <= radius or dist == 0.0 else center + (z - center) * (radius / dist)
        ball = z - y
        x_next = project_simplex_slice(y + inc_slice, total)
        slice_ = y + inc_slice - x_next
        moved = max(float(np.linalg.norm(x_next - x)), float(np.linalg.norm(ball - inc_ball)),
                    float(np.linalg.norm(slice_ - inc_slice)))
        x, inc_ball, inc_slice = x_next, ball, slice_
        if moved <= tol:
            return x
    raise RuntimeError(f"Dykstra oracle did not settle in {max_rounds} rounds")


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


def _bisection_ball_path(c, d, total, r_sq, s_max):
    """Test oracle: the ball path by doubling and bisection, the kernel the
    piece-root search replaced.  The first trial is sqrt(r_sq) / |d|; s
    doubles while inside and bisects once a trial lands outside, until the
    midpoint equals an endpoint."""
    c0 = np.where(c > -np.inf, c, 0.0)

    def inside(s, rows):
        p = project_simplex_slice(c[rows] + s[:, None] * d[rows], total[rows])
        return np.sum((p - c0[rows]) ** 2, axis=-1) <= r_sq[rows]

    dn = np.sqrt(np.sum(d * d, axis=-1))
    rows = np.flatnonzero((dn > 0.0) & (r_sq > 0.0))
    lo, hi, s = np.zeros(len(c)), np.full(len(c), np.inf), np.zeros(len(c))
    s[rows] = np.minimum(np.sqrt(r_sq[rows]) / dn[rows], s_max)
    with np.errstate(over="ignore"):
        while rows.size:
            ok = inside(s[rows], rows)
            lo[rows[ok]] = s[rows[ok]]
            hi[rows[~ok]] = s[rows[~ok]]
            s = np.where(hi < np.inf, 0.5 * (lo + hi), np.minimum(2.0 * lo, s_max))
            rows = np.flatnonzero((lo < s) & (s < hi))
    return project_simplex_slice(c + lo[:, None] * d, total)


def _recorded_paths(monkeypatch):
    """Record every call of ``optim._ball_path``: its arguments and result."""
    calls, kernel = [], optim._ball_path

    def recorded(c, d, total, r_sq, s_max):
        out = kernel(c, d, total, r_sq, s_max)
        calls.append((c, d, total, r_sq, s_max, out))
        return out

    monkeypatch.setattr(optim, "_ball_path", recorded)
    return calls


def _counted_projections(monkeypatch):
    """Count ``project_simplex_slice`` calls made inside ``procache.optim``."""
    count = [0]
    project = optim.project_simplex_slice

    def counted(v, total):
        count[0] += 1
        return project(v, total)

    monkeypatch.setattr(optim, "project_simplex_slice", counted)
    return count


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


def _counted(fn):
    """``fn`` and the list of the points it was called at."""
    calls = []

    def wrapped(u):
        calls.append(u)
        return fn(u)

    return wrapped, calls


def test_increasing_root_interior_root():
    assert increasing_root(lambda u: u - 1.3, 3.0) == 1.3
    # the least float with a nonnegative slope: one below it is negative
    slope = lambda u: 2.0 * u - 0.7  # noqa: E731
    x = increasing_root(slope, 1.0)
    assert slope(x) >= 0.0 > slope(np.nextafter(x, 0.0))


def test_increasing_root_negative_up_to_hi_returns_hi():
    fn, calls = _counted(lambda u: u - 5.0)
    assert increasing_root(fn, 2.0) == 2.0
    assert calls == [0.0, 2.0]


def test_increasing_root_at_zero():
    fn, calls = _counted(lambda u: u + 1.0)
    assert increasing_root(fn, 2.0) == 0.0
    assert calls == [0.0]


def test_increasing_root_reads_an_infinite_tail_as_nonnegative():
    # past a capacity the slope is unbounded: +inf bounds the bracket from above
    fn = lambda u: -1.0 if u < 0.25 else np.inf  # noqa: E731
    assert increasing_root(fn, 1.0) == 0.25
    fn = lambda u: u - 0.5 if u < 0.75 else np.inf  # noqa: E731
    assert increasing_root(fn, 1.0) == 0.5


def test_increasing_root_ends_on_adjacent_floats():
    # the float spacing near 0.9e8 is 1.5e-8: the bracket closes on two
    # neighbouring floats there, whatever the slope's scale
    root = 0.9e8 + 0.3
    fn, calls = _counted(lambda u: u - root)
    assert increasing_root(fn, 1e8) == root
    assert len(calls) <= 2 + 64


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


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 20, 50])
def test_piece_root_search_matches_the_bisection_oracle(monkeypatch, m):
    # the 320 seeded rows of the Dykstra test (m <= 7) plus M = 20 and 50
    # batches: the same linear step as with the bisection kernel, feasible,
    # and every path row on its ball boundary
    g, center, radius, total = _random_rows(np.random.default_rng(100 + m), 64, m)
    paths = _recorded_paths(monkeypatch)
    out = linear_min_over_ball_slice(g, center, radius, total)
    monkeypatch.setattr(optim, "_ball_path", _bisection_ball_path)
    ref = linear_min_over_ball_slice(g, center, radius, total)
    assert paths and sum(len(call[0]) for call in paths) >= 16
    gap = np.linalg.norm(out - ref, axis=-1)
    assert np.all(gap <= 1e-12 * np.linalg.norm(ref, axis=-1))
    assert out.min() >= -1e-12
    assert np.all(np.abs(out.sum(axis=-1) - total) <= 1e-12)
    assert np.all(np.linalg.norm(out - center, axis=-1) <= radius + 1e-12)
    for c, d, _, r_sq, s_max, p in paths:
        assert s_max == np.inf      # so no path row ends on the cap
        moved = np.linalg.norm(p - np.where(c > -np.inf, c, 0.0), axis=-1)
        assert np.all(np.abs(moved - np.sqrt(r_sq)) <= 1e-12 * np.sqrt(r_sq))


def test_piece_root_search_stops_at_a_first_guess_on_its_root(monkeypatch):
    # the ball lies inside the face: the first trial sqrt(r_sq) / |d| is the
    # root, and the search ends after that one projection
    center, g, r = np.array([0.4, 0.3, 0.3]), np.array([1.0, 0.0, -1.0]), 0.05
    count = _counted_projections(monkeypatch)
    x = linear_min_over_ball_slice(g, center, r, 1.0)
    assert count[0] == 2                  # the face check, then one round
    gp = g - g.mean()
    assert np.allclose(x, center - r * gp / np.linalg.norm(gp), rtol=0.0, atol=1e-15)


def test_piece_root_search_lands_its_jump_inside(monkeypatch):
    # one jump from the first trial reaches the root of its piece; aimed
    # exactly at the root, it lands an ulp outside and needs more rounds
    c = np.array([[0.19, 0.38, 0.01, 0.41999999999999993]])
    d = np.array([[1.2, 1.1, -1.3, -1.0]])
    args = (c, d, np.ones(1), np.array([0.42**2]), np.inf)
    count = _counted_projections(monkeypatch)
    out = optim._ball_path(*args)
    assert count[0] == 2
    assert np.linalg.norm(out - c) == pytest.approx(0.42, rel=1e-14)
    assert np.linalg.norm(out - _bisection_ball_path(*args)) <= 1e-14


def test_piece_root_search_crosses_a_one_item_piece(monkeypatch):
    # the center lies off the simplex, so the path starts on a one-item piece
    # (A = 0, no root) inside the ball, and the root lies on a later piece
    center = np.array([1.5, -0.2, -0.3])
    v = center + np.array([1.0, 3.0, -4.0])
    calls = _recorded_paths(monkeypatch)
    supports = []
    project = optim.project_simplex_slice

    def spied(w, total):
        p = project(w, total)
        supports.append(int(np.count_nonzero(p)))
        return p

    monkeypatch.setattr(optim, "project_simplex_slice", spied)
    out = project_ball_slice(v, center, 0.7, 1.0)
    assert supports[0] == 1 and supports[-1] == 2
    ref = _bisection_ball_path(*calls[0][:5])[0]
    assert np.allclose(out, ref, rtol=0.0, atol=1e-15)
    assert np.linalg.norm(out - center) == pytest.approx(0.7, rel=1e-12)
    assert np.linalg.norm(v - out) < np.linalg.norm(v - np.array([1.0, 0.0, 0.0]))
    # uncapped, the search doubles across the one-item piece instead
    c, d, total, r_sq = calls[0][:4]
    far = optim._ball_path(c, d, total, r_sq, np.inf)
    assert np.allclose(far, _bisection_ball_path(c, d, total, r_sq, np.inf), rtol=0.0, atol=1e-15)
    assert np.linalg.norm(far - center) == pytest.approx(0.7, rel=1e-12)


def test_piece_root_search_jumps_back_to_an_earlier_piece_without_widening(monkeypatch):
    # the center has negative coordinates, so items enter the support along
    # the path: the first trial (support {0, 1, 2}) is outside, and so is the
    # root of its piece, which lies back on the piece of support {0, 1}.  That
    # second miss is on another piece, not a rounding stall, so the next step
    # is that piece's own root, not one widened past it into the ball
    center, r = np.array([1.9, -0.1, -0.3, -0.5]), np.sqrt(1.5)
    g, v = np.array([2.0, -1.0, -1.0, 0.0]), np.array([-0.1, 0.9, 0.7, -0.5])
    calls = _recorded_paths(monkeypatch)
    out = linear_min_over_ball_slice(g, center, r, 1.0)
    proj = project_ball_slice(v, center, r, 1.0)
    assert len(calls) == 2
    for (c, d, total, r_sq, s_max, got), want in zip(calls, (out, proj)):
        ref = _bisection_ball_path(c, d, total, r_sq, s_max)[0]
        assert np.array_equal(got[0], want)
        assert np.allclose(want, ref, rtol=0.0, atol=1e-14)
        assert np.linalg.norm(want - center) == pytest.approx(r, rel=1e-12)
    assert np.allclose(out, [0.85192593, 0.14807407, 0.0, 0.0], rtol=0.0, atol=1e-8)
    assert float(g @ out) == pytest.approx(1.55577779, abs=1e-8)


def test_piece_root_search_lets_items_leave_their_face(monkeypatch):
    # items 2 and 3 start at 0; d_2 lies above the support mean, so item 2
    # enters the support at once, while item 3 (below it) stays at exactly 0
    center, g = np.array([0.6, 0.4, 0.0, 0.0]), np.array([0.0, 0.5, -1.0, 1.0])
    out = linear_min_over_ball_slice(g, center, 0.3, 1.0)
    monkeypatch.setattr(optim, "_ball_path", _bisection_ball_path)
    ref = linear_min_over_ball_slice(g, center, 0.3, 1.0)
    assert out[2] > 0.0 and out[3] == 0.0
    assert np.allclose(out, ref, rtol=0.0, atol=1e-14)
    assert np.linalg.norm(out - center) == pytest.approx(0.3, rel=1e-12)


def test_piece_root_search_keeps_the_cap_of_a_ball_projection(monkeypatch):
    # v lies inside the ball: s is capped at 1 and the projection is v itself
    center, v = np.array([0.5, 0.3, 0.2]), np.array([0.45, 0.33, 0.22])
    count = _counted_projections(monkeypatch)
    assert np.allclose(project_ball_slice(v, center, 0.2, 1.0), v, rtol=0.0, atol=1e-15)
    assert count[0] == 1
    # a vertex inside the ball past the one-item collapse is P(v) as well
    count[0] = 0
    out = project_ball_slice(np.array([3.0, -1.0, -1.0]), center, 0.7, 1.0)
    assert np.array_equal(out, [1.0, 0.0, 0.0]) and count[0] == 1


def test_piece_root_search_takes_few_rounds_on_the_shaping_rows(monkeypatch):
    # analytic Zipf shaping, N = 50: the bisection took 59 projections per
    # step; a fallback to it would show here
    scn = parse_scenario(SCALING_SCENARIO).with_users(50)
    prof = scn.profile.expanded()   # one row per user, as the bisection saw them
    count = _counted_projections(monkeypatch)
    per_step = []
    step = shaping.linear_min_over_ball_slice

    def counted_step(*args):
        before = count[0]
        out = step(*args)
        per_step.append(count[0] - before)
        return out

    monkeypatch.setattr(shaping, "linear_min_over_ball_slice", counted_step)
    res = shaping.shape_demand(prof, scn.catalog, scn.cost, scn.cfg, 0.2)
    assert res.converged and per_step
    assert max(per_step) <= 8


@pytest.mark.parametrize("c, d, r", [
    # rounding holds the distance flat over thousands of ulps of s, so the
    # piece's correction alone keeps landing outside; steps must widen
    ([100.113, 0.312, 0.575], [-0.08666666666666667, -0.7566666666666666, 0.8433333333333334],
     1.4180229454419981e-08),
    # the measured distance takes two values across the last bracket, which
    # the piece roots would otherwise bisect for some 40 rounds
    ([1000.696, 0.233, 0.072], [0.8766666666666667, -0.3733333333333333, -0.5033333333333334],
     3.905099230492991e-11),
])
def test_piece_root_search_settles_where_rounding_flattens_the_distance(monkeypatch, c, d, r):
    c, d = np.array([c]), np.array([d])
    args = (c, d, c.sum(axis=-1), np.array([r * r]), np.inf)
    ref = _bisection_ball_path(*args)
    count = _counted_projections(monkeypatch)
    out = optim._ball_path(*args)
    assert count[0] <= 4
    assert np.sum((out - c) ** 2) <= r * r
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def test_piece_root_search_falls_back_to_p_of_c_below_rounding():
    # c lies on the slice, but P(c) rounds 1.2e-16 away from it, further than
    # the radius: no trial passes the distance test, and the search returns
    # P(c), as the bisection did, instead of running out of rounds
    c = np.array([[1.001, 0.252, 0.747]])
    args = (c, np.array([[1.0, -0.5, -0.5]]), np.array([2.0]), np.array([6e-17**2]), np.inf)
    p_c = project_simplex_slice(c, 2.0)
    assert not np.array_equal(p_c, c)
    out = optim._ball_path(*args)
    assert np.array_equal(out, p_c)
    assert np.array_equal(out, _bisection_ball_path(*args))


def test_a_path_search_that_cannot_settle_names_its_rows(monkeypatch):
    # a broken projection whose every trial lands outside the ball: the
    # search runs out of rounds (halving from s = 1e15 down to the bracket
    # tolerance takes about 100) and says so instead of returning
    monkeypatch.setattr(optim, "project_simplex_slice", lambda v, total: np.full_like(v, 1e20))
    c = np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]])
    d = np.array([[1.0, -0.5, -0.5], [-1.0, 0.0, 1.0]])
    with pytest.raises(RuntimeError, match=r"rows \[0, 1\]"):
        optim._ball_path(c, d, np.ones(2), np.full(2, 1e30), np.inf)


def _off_simplex_cases(rng, count):
    """Centers with negative coordinates and off-slice sums, each with a
    radius that reaches the nonnegative part of the slice."""
    for _ in range(count):
        d = int(rng.integers(2, 7))
        total = float(rng.uniform(0.3, 2.0))
        center = rng.dirichlet(np.ones(d)) * total + rng.normal(size=d) * 0.3 * total
        reach = float(np.linalg.norm(project_simplex_slice(center, total) - center))
        yield center, reach + float(rng.uniform(0.05, 0.8) * total), total


def test_ball_slice_projection_matches_the_dykstra_oracle():
    def check(v, center, radius, total):
        proj = project_ball_slice(v, center, radius, total)
        ref = _dykstra_ball_slice(v, center, radius, total)
        assert np.allclose(proj, ref, atol=1e-9)
        assert np.linalg.norm(v - proj) <= np.linalg.norm(v - ref) + 1e-12

    rng = np.random.default_rng(3)
    for _ in range(60):
        d = int(rng.integers(2, 7))
        total = float(rng.uniform(0.3, 2.0))
        center = rng.dirichlet(np.ones(d)) * total
        radius = float(rng.uniform(0.05, 0.8) * total)
        check(center + rng.normal(size=d) * radius * 2.0, center, radius, total)
    # the instance the oracle once stopped early on, then off-simplex centers
    center = np.array([1.5, -0.2, -0.3])
    check(center + np.array([1.0, 3.0, -4.0]), center, 0.7, 1.0)
    rng = np.random.default_rng(11)
    for center, radius, total in _off_simplex_cases(rng, 60):
        check(center + rng.normal(size=center.size) * radius * 2.0, center, radius, total)


def test_the_dykstra_oracle_settles_before_it_stops():
    # one round leaves the iterate at (1, 0, 0) while the increments still
    # move; the projection is (0.9287, 0.0713, 0), 0.016 closer to v
    center = np.array([1.5, -0.2, -0.3])
    v = center + np.array([1.0, 3.0, -4.0])
    ref = _dykstra_ball_slice(v, center, 0.7, 1.0)
    np.testing.assert_allclose(ref, [0.92869251, 0.07130749, 0.0], atol=1e-8)
    assert np.linalg.norm(v - ref) < np.linalg.norm(v - [1.0, 0.0, 0.0]) - 0.01
    with pytest.raises(RuntimeError, match="did not settle"):
        _dykstra_ball_slice(v, center, 0.7, 1.0, max_rounds=3)


def test_an_empty_region_raises():
    # the ball around an off-slice center reaches the slice only where some
    # coordinate is negative: no feasible point, so no answer either
    g, center = np.array([0.0, 1.0, 2.0]), np.array([0.9, 0.05, 0.05])
    with pytest.raises(ValueError, match="misses the nonnegative part"):
        linear_min_over_ball_slice(g, center, 0.3, 0.5)
    with pytest.raises(ValueError, match="misses the nonnegative part"):
        project_ball_slice(g, center, 0.3, 0.5)
    # batched: feasible rows do not hide the empty one
    centers = np.stack([[0.2, 0.2, 0.1], [0.1, 0.3, 0.1], center])
    with pytest.raises(ValueError, match="misses the nonnegative part"):
        project_ball_slice(np.stack([g, g, g]), centers, 0.3, 0.5)
    with pytest.raises(ValueError, match="misses the nonnegative part"):
        linear_min_over_ball_slice(np.stack([g, g, g]), centers, [0.3, 0.0, 0.3], 0.5)


def test_a_feasible_center_below_the_rounding_of_p_does_not_raise():
    # P(c) rounds 1.2e-16 away from the on-slice c, further than the radius
    c = np.array([1.001, 0.252, 0.747])
    assert np.linalg.norm(project_simplex_slice(c, 2.0) - c) > 1e-16
    for r in (1e-16, 6e-17):
        out = linear_min_over_ball_slice(np.array([1.0, 0.0, 2.0]), c, r, 2.0)
        assert np.abs(out - c).max() <= 1e-15
        out = project_ball_slice(c + np.array([1.0, -0.5, -0.5]), c, r, 2.0)
        assert np.abs(out - c).max() <= 1e-15


def reduced(hess):
    """``hess_fn(x, free)`` from a dense Hessian ``hess(x)``: its (free, free)
    block as a product on ``free``."""
    def hess_fn(x, free):
        h = hess(x)[np.ix_(free, free)]
        return lambda v: h @ v
    return hess_fn


# a coupled SPD Hessian for the face step's box QPs, box [0, 1]
FACE_H = np.array([[4.0, 1.0, 0.5, 0.0, 0.2], [1.0, 3.0, 0.4, 0.3, 0.0],
                   [0.5, 0.4, 2.0, 0.1, 0.3], [0.0, 0.3, 0.1, 2.5, 0.6],
                   [0.2, 0.0, 0.3, 0.6, 3.5]])


def _face_step_on_box(monkeypatch, x, newton):
    """``_face_step`` at ``x`` in [0, 1]^k on ``FACE_H``'s leading block, with
    ``b`` chosen so that the first CG pass lands on ``newton``; the step, the
    number of CG passes, and ``b``."""
    k = x.size
    h = FACE_H[:k, :k]
    b = h @ newton
    passes, cg = [], optim._cg

    def counted(*args):
        passes.append(1)
        return cg(*args)

    def land(p):
        z = x + p
        return (z < 0.0) | (z > 1.0), lambda: np.clip(z, 0.0, 1.0) - x

    monkeypatch.setattr(optim, "_cg", counted)
    p = optim._face_step(lambda v: h @ v, b, 1e-14, land)
    return p, len(passes), b


def test_a_face_step_above_the_gate_fixes_the_crossers_pinned_on_a_bound(monkeypatch):
    # two of three coordinates cross (the gate is half): coordinate 0 sits at
    # 0 and steps out, so the arc holds it there, and coordinate 1 crosses 1
    # from inside.  Only coordinate 0 is fixed; the rest solve the system
    # without it, and since the interior crosser still crosses alone (half of
    # what that pass solved), no third pass runs
    x = np.array([0.0, 0.5, 0.5])
    p, passes, b = _face_step_on_box(monkeypatch, x, np.array([-0.3, 0.8, 0.1]))
    assert passes == 2
    assert p[0] == 0.0
    assert np.allclose(p[1:], np.linalg.solve(FACE_H[1:3, 1:3], b[1:]), rtol=1e-12, atol=0.0)
    assert x[1] + p[1] > 1.0


def test_a_face_step_above_the_gate_with_only_interior_crossers_keeps_one_pass(monkeypatch):
    # one of two coordinates crosses, from inside: nothing is pinned, so the
    # arc search clips the first pass's step
    newton = np.array([0.8, 0.1])
    p, passes, _ = _face_step_on_box(monkeypatch, np.array([0.5, 0.5]), newton)
    assert passes == 1
    assert np.allclose(p, newton, rtol=1e-12, atol=0.0)


def test_a_face_step_below_the_gate_fixes_every_crosser(monkeypatch):
    # two of five cross, one pinned at 0 and one from inside: both are fixed
    # at the bound they cross, with their moves 0 and 0.5, and the other
    # three solve the system with those moves on its right-hand side
    x = np.array([0.0, 0.5, 0.5, 0.5, 0.5])
    p, passes, b = _face_step_on_box(monkeypatch, x, np.array([-0.3, 0.8, 0.1, -0.1, 0.2]))
    assert passes == 2
    assert (p[0], p[1]) == (0.0, 0.5)
    want = np.linalg.solve(FACE_H[2:, 2:], b[2:] - FACE_H[2:, :2] @ p[:2])
    assert np.allclose(p[2:], want, rtol=1e-12, atol=0.0)
    assert np.all((x[2:] + p[2:] > 0.0) & (x[2:] + p[2:] < 1.0))


def test_box_descent_clamps_active_bounds():
    target = np.array([-1.0, 0.5, 2.0])
    res = box_projected_descent(
        lambda x: float(((x - target) ** 2).sum()),
        lambda x: 2.0 * (x - target),
        reduced(lambda x: 2.0 * np.eye(3)),
        np.full(3, 0.5),
        np.zeros(3),
        np.ones(3),
    )
    assert (res.stop, res.converged) == ("tol", True)
    assert np.allclose(res.x, [0.0, 0.5, 1.0], atol=1e-7)
    # the gap is the box's at the returned x, and certifies the default tol
    assert res.gap == pytest.approx(box_gap(res.x, 2.0 * (res.x - target), 0.0, 1.0), rel=1e-12)
    assert res.gap <= 1e-8 * res.value
    assert np.all(np.diff(res.trace) <= 1e-12)  # descent never loses ground


def test_box_descent_nonquadratic_interior_min():
    opt = np.array([0.3, 0.7])

    def value(x):
        return float((x[0] - 0.3) ** 4 + (x[1] - 0.7) ** 2)

    def grad(x):
        return np.array([4.0 * (x[0] - 0.3) ** 3, 2.0 * (x[1] - 0.7)])

    @reduced
    def hess(x):
        return np.diag([12.0 * (x[0] - 0.3) ** 2, 2.0])

    # the quartic axis is flat near its optimum (the gradient dies cubically),
    # so ask for a looser stationarity level and a wider berth on x
    res = box_projected_descent(
        value, grad, hess, np.array([0.9, 0.1]), np.zeros(2), np.ones(2), tol=1e-6
    )
    assert res.converged
    assert np.allclose(res.x, opt, atol=1e-2)
    assert res.value <= value(np.array([0.9, 0.1]))


def test_box_descent_starts_at_solution():
    res = box_projected_descent(
        lambda x: float((x**2).sum()),
        lambda x: 2.0 * x,
        lambda x, v: 2.0 * v,
        np.zeros(4),
        np.zeros(4),
        np.ones(4),
    )
    assert res.converged
    assert res.iterations <= 1
    assert np.allclose(res.x, 0.0)



def test_box_descent_recovers_when_the_box_turns_the_newton_step_uphill():
    # coupled quadratic: the full Newton step clips to a move that raises f
    # (g.(P(x0 + p) - x0) = +0.24), yet shorter stretches of the arc descend
    h = np.array([[1.0, 0.9], [0.9, 1.0]])
    x0 = np.array([0.01, 0.5])
    c = np.array([1.0, 0.5]) - h @ x0           # gradient (1, 0.5) at x0
    res = box_projected_descent(
        lambda x: float(0.5 * x @ h @ x + c @ x),
        lambda x: h @ x + c,
        reduced(lambda x: h),
        x0, np.zeros(2), np.ones(2),
    )
    assert res.stop == "tol" and res.converged
    assert np.allclose(res.x, [0.0, 0.009], atol=1e-9)   # x2 = -c2, x1 held at 0
    assert np.all(np.diff(res.trace) < 0.0)


def test_box_descent_step_that_rounds_back_to_x_ends_flat():
    # the whole Newton step is below the rounding of x: no trial can leave x,
    # so no representable decrease is left, and that is a converged stop
    res = box_projected_descent(
        lambda x: 1e-17 * x.sum(), lambda x: np.full(1, 1e-17), reduced(lambda x: np.zeros((1, 1))),
        np.ones(1), 0.0, 2.0, tol=0.0,
    )
    assert (res.stop, res.converged, res.iterations) == ("rounding", True, 0)


def test_box_descent_stall_reports_a_python_bool():
    # a flat objective with a nonzero gradient: no step can decrease it
    res = box_projected_descent(
        lambda x: 0.0, lambda x: np.ones(3), reduced(lambda x: np.zeros((3, 3))),
        np.full(3, 0.5), np.zeros(3), np.ones(3),
    )
    # left through the stall branch, with the gap it could not close
    assert (res.iterations, res.stop, res.gap) == (0, "stalled", 1.5)
    assert type(res.converged) is bool
    assert res.converged is False


@pytest.mark.parametrize("c, x0", [
    (np.array([-1.0, 0.4, 0.3, -2.5]), np.array([0.9, 0.2, 1e-6, 0.5])),
    (np.array([1.0, 0.4, 0.3, 2.5]), np.full(4, 1e-6)),
], ids=["free", "all-binding"])
def test_box_descent_asks_for_one_operator_per_iteration_on_its_free_set(c, x0):
    # a coupled quadratic: each iteration with a nonempty free set (the
    # coordinates the binding rule leaves off their bounds, recomputed here
    # from the iterate and its gradient) asks once, for that set.  The first
    # start's iterates reach a bound; from the second every coordinate binds,
    # and that iteration asks for none
    h = np.array([[2.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.3, 0.0],
                  [0.0, 0.3, 1.5, 0.2], [0.0, 0.0, 0.2, 1.0]])
    iterates, calls = [], []

    def grad(x):
        iterates.append(x.copy())
        return h @ x + c

    def hess_fn(x, free):
        calls.append((x.copy(), free.copy()))
        return reduced(lambda x: h)(x, free)

    res = box_projected_descent(lambda x: float(0.5 * x @ h @ x + c @ x), grad, hess_fn,
                                x0, np.zeros(4), np.ones(4), tol=1e-12)
    assert res.converged
    # the iterations are every accepted iterate but the one the stop read
    started = iterates if res.stop != "tol" else iterates[:-1]
    assert len(started) == res.iterations
    want = []
    for x in started:
        g = h @ x + c
        pg = float(np.linalg.norm(x - np.clip(x - g, 0.0, 1.0)))
        eps = min(pg, 1e-3)
        free = np.flatnonzero(~(((x <= eps) & (g > 0.0)) | ((x >= 1.0 - eps) & (g < 0.0))))
        if free.size:
            want.append((x, free))
    if c[0] < 0.0:
        assert len(want) == res.iterations >= 2
        assert any(f.size < 4 for _, f in want)   # some iteration holds a coordinate
    else:
        assert (res.iterations, len(want)) == (1, 0)
    assert len(calls) == len(want)
    for (x, free), (x_want, free_want) in zip(calls, want):
        assert np.array_equal(x, x_want) and np.array_equal(free, free_want)
