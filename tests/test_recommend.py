"""Rating vectors, the proportional-choice mapping, and its inverse solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procache import RatingResult, RatingVector, solve_rating

from oracles import verify_mapping


def solve_rating_descent(target_probs, silence, intrinsic, tol=1e-12, max_iters=100000):
    """Reference solver: projected gradient on the rating vector itself.

    Minimizes |v - r|^2 by gradient steps in v followed by projection onto
    the feasible ray { s * pi^ : 0 < s <= 1 / max(pi^) }: an independent
    cross-check of :func:`solve_rating`; quadratic objective and convex
    feasible set make the fixed-step iteration a contraction.
    """
    tiny = 1e-12
    p = np.asarray(target_probs, dtype=float)
    r = RatingVector(intrinsic).v
    activity = 1.0 - float(silence)
    if activity <= tiny:
        return RatingResult(RatingVector(r), 1.0, False, True)
    pi = p / activity
    s_cap = 1.0 / float(pi.max())
    norm2 = float(pi @ pi)

    def project(v):
        s = float(pi @ v) / norm2
        s = min(max(s, tiny * s_cap), s_cap)
        return s * pi, s

    v, s = project(r.copy())
    for _ in range(max_iters):
        v_next, s = project(v - 0.5 * (v - r))
        if float(np.linalg.norm(v_next - v)) <= tol:
            v = v_next
            break
        v = v_next
    return RatingResult(RatingVector(v), s, s >= s_cap, False)


def test_rating_vector_validation():
    v = RatingVector([0.5, 1.0, 0.0])
    assert v.v.tolist() == [0.5, 1.0, 0.0]
    with pytest.raises(ValueError):
        RatingVector([1.2, 0.5])
    with pytest.raises(ValueError):
        RatingVector([-0.1, 0.5])
    with pytest.raises(ValueError):
        RatingVector([])
    with pytest.raises(ValueError):
        RatingVector([[0.5, 0.5]])
    assert RatingVector([-1e-14, 0.5]).v[0] == 0.0  # numerical dust clipped


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_ratings_and_targets_are_refused(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        RatingVector([bad, 0.5])
    with pytest.raises(ValueError):
        solve_rating(np.array([bad, 0.4]), 0.1, [0.5, 0.5])
    with pytest.raises(ValueError):
        solve_rating(np.array([0.5, 0.4]), bad, [0.5, 0.5])


def test_mapping_is_proportional():
    probs = verify_mapping([0.6, 0.3, 0.1], silence=0.2)
    assert probs.sum() == pytest.approx(0.8)
    assert np.allclose(probs, 0.8 * np.array([0.6, 0.3, 0.1]))


def test_mapping_edge_cases():
    assert np.all(verify_mapping([0.4, 0.4], silence=1.0) == 0.0)  # silent user
    with pytest.raises(ValueError, match="positive rating"):
        verify_mapping([0.0, 0.0], silence=0.2)


def test_solve_rating_round_trips(two_user):
    _, prof = two_user
    intrinsic = [0.8, 0.1, 0.1]
    target = np.asarray(prof.probs[0, 1])
    res = solve_rating(target, float(prof.silence[0, 1]), intrinsic)
    assert not res.unconstrained
    induced = verify_mapping(res.ratings.v, float(prof.silence[0, 1]))
    assert np.allclose(induced, target, atol=1e-12)
    # closest point on the feasible ray: scale is the normalized inner product
    pi = target / 0.9
    assert res.scale == pytest.approx(float(pi @ intrinsic) / float(pi @ pi))


def test_solve_rating_clamps_at_unit_rating():
    pi = np.array([0.9, 0.1])
    res = solve_rating(0.8 * pi, 0.2, [1.0, 1.0])
    assert res.clamped
    assert res.ratings.v.max() == pytest.approx(1.0)
    assert np.allclose(verify_mapping(res.ratings.v, 0.2), 0.8 * pi, atol=1e-12)


def test_solve_rating_silent_slot_is_unconstrained():
    res = solve_rating(np.zeros(3), 1.0, [0.2, 0.9, 0.4])
    assert res.unconstrained
    assert np.allclose(res.ratings.v, [0.2, 0.9, 0.4])


def test_solve_rating_orthogonal_intrinsic_stays_positive():
    res = solve_rating(np.array([0.9, 0.0]), 0.1, [0.0, 1.0])
    assert res.scale > 0.0
    assert np.allclose(verify_mapping(res.ratings.v, 0.1), [0.9, 0.0], atol=1e-12)


def test_solve_rating_input_errors():
    with pytest.raises(ValueError, match="item dimension"):
        solve_rating(np.array([0.5, 0.4]), 0.1, [0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        solve_rating(np.array([-0.2, 1.1]), 0.1, [0.5, 0.5])
    with pytest.raises(ValueError, match="sum to"):
        solve_rating(np.array([0.5, 0.1]), 0.1, [0.5, 0.5])


def test_descent_solver_agrees_with_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(25):
        m = int(rng.integers(1, 6))
        silence = float(rng.uniform(0.0, 0.9))
        pi = rng.dirichlet(np.ones(m))
        target = (1.0 - silence) * pi
        intrinsic = rng.uniform(0.0, 1.0, size=m)
        if intrinsic.max() == 0.0:
            intrinsic[0] = 0.5
        closed = solve_rating(target, silence, intrinsic)
        iterative = solve_rating_descent(target, silence, intrinsic)
        assert np.allclose(closed.ratings.v, iterative.ratings.v, atol=1e-6)
        assert closed.clamped == iterative.clamped


@given(st.integers(2, 6), st.floats(0.0, 0.8), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_solved_ratings_are_the_closest_feasible_point(m, silence, seed):
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(m))
    target = (1.0 - silence) * pi
    intrinsic = rng.uniform(0.01, 1.0, size=m)
    res = solve_rating(target, silence, intrinsic)
    best = float(np.linalg.norm(res.ratings.v - intrinsic))
    s_cap = 1.0 / float(pi.max())
    for s in np.linspace(1e-6, s_cap, 25):
        assert best <= float(np.linalg.norm(s * pi - intrinsic)) + 1e-9
