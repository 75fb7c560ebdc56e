"""Small numeric building blocks: line search, projections, box descent.

Everything here is deterministic; the only state is the caller's iterate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(fn, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Argmin of a unimodal function on [lo, hi] to absolute tolerance ``tol``.

    ``fn`` may return ``inf`` on part of the interval (domain overflow); the
    bracketing comparisons handle that as long as the finite region is an
    interval, which unimodality guarantees.
    """
    a, b = float(lo), float(hi)
    if b < a:
        raise ValueError("empty interval")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
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


def project_simplex_slice(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum p = total}."""
    if total < 0:
        raise ValueError("slice total must be nonnegative")
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cum = np.cumsum(u) - total
    ranks = np.arange(1, v.size + 1)
    cond = u - cum / ranks > 0
    rho = int(np.nonzero(cond)[0][-1]) + 1 if np.any(cond) else 1
    theta = cum[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def project_ball(v: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the closed ball of the given center/radius."""
    d = v - center
    norm = float(np.linalg.norm(d))
    if norm <= radius or norm == 0.0:
        return v.copy()
    return center + d * (radius / norm)


def project_ball_slice(
    v: np.ndarray,
    center: np.ndarray,
    radius: float,
    total: float,
    tol: float = 1e-13,
    max_rounds: int = 2000,
) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum p = total, |p - center| <= radius}.

    Alternating projections between the ball and the simplex slice with
    Dykstra's correction terms, which converge to the exact projection onto
    the intersection (naive alternation only finds *some* feasible point,
    which silently corrupts any fixed-point iteration built on top).  The
    last half-step is the simplex slice, so the sum and sign constraints
    hold exactly and the ball constraint to within the round tolerance.
    """
    x = np.asarray(v, dtype=float).copy()
    inc_ball = np.zeros_like(x)
    inc_slice = np.zeros_like(x)
    prev = None
    for _ in range(max_rounds):
        y = project_ball(x + inc_ball, center, radius)
        inc_ball = x + inc_ball - y
        x = project_simplex_slice(y + inc_slice, total)
        inc_slice = y + inc_slice - x
        if prev is not None and float(np.linalg.norm(x - prev)) <= tol:
            break
        prev = x
    return x


@dataclass(frozen=True)
class BoxDescentResult:
    x: np.ndarray
    value: float
    converged: bool
    iterations: int
    grad_norm: float
    trace: np.ndarray  # objective value per accepted iterate, starting at x0


def box_projected_descent(
    value_fn,
    grad_fn,
    x0: np.ndarray,
    lower,
    upper,
    tol: float = 1e-8,
    max_iters: int = 5000,
) -> BoxDescentResult:
    """Projected gradient descent on a box with spectral steps and backtracking.

    ``value_fn`` may return ``inf`` for iterates outside the objective's
    domain; such trials are rejected by the line search.  Descent is monotone
    by construction.  Convergence is declared when the projected gradient
    norm drops to ``tol``.
    """
    lower = np.broadcast_to(np.asarray(lower, dtype=float), x0.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), x0.shape)

    def clip(z):
        return np.minimum(np.maximum(z, lower), upper)

    x = clip(np.asarray(x0, dtype=float))
    fx = value_fn(x)
    if not np.isfinite(fx):
        raise ValueError("descent must start inside the objective domain")
    g = grad_fn(x)
    trace = [fx]

    # curvature probe along the first feasible descent direction
    step = 1.0
    d = clip(x - g) - x
    dn = float(np.linalg.norm(d))
    if dn > 0:
        for _ in range(40):
            probe = value_fn(x + d)
            if np.isfinite(probe):
                break
            d *= 0.5
            dn *= 0.5
        else:
            d = np.zeros_like(x)
            dn = 0.0
        if dn > 0:
            gy = grad_fn(x + d)
            curv = float(np.linalg.norm(gy - g)) / dn
            if curv > 1e-12:
                step = 1.0 / curv

    pg_norm = float(np.linalg.norm(x - clip(x - g)))
    it = 0
    while pg_norm > tol and it < max_iters:
        accepted = False
        t = step
        for _ in range(80):
            trial = clip(x - t * g)
            move = trial - x
            decrease = float(np.dot(g.ravel(), move.ravel()))
            if decrease >= 0.0:
                break
            f_trial = value_fn(trial)
            if np.isfinite(f_trial) and f_trial <= fx + 1e-4 * decrease:
                # once 1e-4 * decrease underflows against |fx|, an equal value
                # passes the Armijo test: that is no descent, so stop here
                accepted = f_trial < fx
                break
            t *= 0.5
        if not accepted:
            break
        g_new = grad_fn(trial)
        s = move
        y = g_new - g
        sy = float(np.dot(s.ravel(), y.ravel()))
        if sy > 1e-16:
            step = float(np.dot(s.ravel(), s.ravel())) / sy
            step = min(max(step, 1e-12), 1e12)
        else:
            step = t
        x, fx, g = trial, f_trial, g_new
        trace.append(fx)
        pg_norm = float(np.linalg.norm(x - clip(x - g)))
        it += 1
    stalled = pg_norm > tol and it < max_iters  # line search found no decrease

    converged = pg_norm <= tol
    if stalled and not converged:
        # No representable objective decrease remains: the best improvement a
        # step can deliver is about step * pg^2 (the spectral step tracks the
        # inverse curvature), and once that underflows the floating-point
        # resolution of |f| the Armijo test can never certify progress.
        # Treat that as converged instead of warning about a gap the
        # arithmetic cannot close.
        available = step * pg_norm**2
        converged = available <= 16.0 * np.finfo(float).eps * (1.0 + abs(fx))
    return BoxDescentResult(x, float(fx), bool(converged), it, pg_norm, np.array(trace))


def linear_min_over_ball_slice(
    g: np.ndarray,
    center: np.ndarray,
    radius: float,
    total: float,
    tol: float = 1e-10,
    max_iters: int = 20000,
) -> np.ndarray:
    """Minimize <g, p> over {p >= 0, sum p = total, |p - center| <= radius}.

    A center off the sum slice is first replaced by its on-slice equivalent:
    restricted to the slice, distance from the original center decomposes as
    distance from the projected center plus a fixed offset, which shrinks the
    effective radius.  Two closed-form cases are then exact: the best simplex
    vertex when it lies inside the ball, and the sphere point
    center - radius * ghat (ghat the normalized slice component of g) when it
    stays nonnegative.  Otherwise a projected gradient iteration with the
    Dykstra oracle of :func:`project_ball_slice` finds the point where the
    sphere meets the active sign constraints.  The ball-and-slice
    intersection must contain a nonnegative point.  The returned point
    satisfies the sum and nonnegativity constraints exactly and the ball
    constraint to 1e-9.
    """
    center = np.asarray(center, dtype=float)
    gap = (total - float(center.sum())) / center.size
    if gap != 0.0:
        r_sq = radius * radius - center.size * gap * gap
        if r_sq < 0.0:
            raise ValueError("ball does not reach the sum slice")
        center = center + gap
        radius = float(np.sqrt(r_sq))
    if radius <= 0.0:
        return np.maximum(center, 0.0)
    g = np.asarray(g, dtype=float)
    g_slice = g - g.mean()
    gn = float(np.linalg.norm(g_slice))
    if gn == 0.0:
        return center.copy()

    vertex = np.zeros_like(center)
    vertex[int(np.argmin(g))] = total
    if float(np.linalg.norm(vertex - center)) <= radius:
        return vertex

    sphere = center - (radius / gn) * g_slice
    if float(sphere.min()) >= 0.0:
        return sphere

    step = radius / gn
    p = center.copy()
    for _ in range(max_iters):
        p_next = project_ball_slice(p - step * g, center, radius, total)
        if float(np.linalg.norm(p_next - p)) <= tol:
            p = p_next
            break
        p = p_next
    return p
