"""Small numeric building blocks: line search, projections, box Newton descent.

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
    interval, which unimodality guarantees.  Once no float lies strictly
    between ``a`` and ``b``, every probe is an endpoint and the loop has at
    most four states, so four such rounds that leave the bracket open would
    cycle forever: a ``tol`` below the float spacing stops there.
    """
    a, b = float(lo), float(hi)
    if b < a:
        raise ValueError("empty interval")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    stuck = 0   # rounds run on a bracket that can no longer shrink
    while (b - a) > tol and stuck < 4:
        stuck += not (a < 0.5 * (a + b) < b)
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def project_simplex_slice(v: np.ndarray, total) -> np.ndarray:
    """Euclidean projection of each row of ``v`` onto {p >= 0, sum p = total}.

    ``v`` is (..., M) and ``total`` a scalar or (...) array.  ``-inf``
    entries drop out of the slice: they come back as exact zeros.
    """
    v = np.asarray(v, dtype=float)
    total = np.asarray(total, dtype=float)
    if np.any(total < 0):
        raise ValueError("slice total must be nonnegative")
    u = np.flip(np.sort(v, axis=-1), axis=-1)
    cum = np.cumsum(u, axis=-1) - total[..., None]
    ranks = np.arange(1, v.shape[-1] + 1)
    with np.errstate(invalid="ignore"):   # -inf tails give nan, never a rank
        cond = u - cum / ranks > 0
    rho = v.shape[-1] - np.argmax(cond[..., ::-1], axis=-1)
    rho = np.where(cond.any(axis=-1), rho, 1)
    theta = np.take_along_axis(cum, rho[..., None] - 1, axis=-1) / rho[..., None]
    return np.maximum(v - theta, 0.0)


def _per_row(x, shape) -> np.ndarray:
    return np.broadcast_to(np.asarray(x, dtype=float), shape).reshape(-1)


def _ball_path(c: np.ndarray, d: np.ndarray, total, r_sq, s_max: float) -> np.ndarray:
    """Rowwise P(c + s d) for the largest s <= s_max with |P(c + s d) - c|^2 <= r_sq.

    P is :func:`project_simplex_slice`; ``c`` and ``d`` are (R, M), each row
    of ``d`` sums to 0 and is 0 where ``c`` is ``-inf`` (items held at
    zero).  The distance never decreases in s.  The first trial is the
    bound sqrt(r_sq) / |d|, inside whenever P(c) = c since P is
    nonexpansive; s then doubles while inside and bisects once a trial
    lands outside, until the midpoint equals an endpoint.  Rows with
    ``d = 0`` or ``r_sq = 0`` return P(c).
    """
    c0 = np.where(c > -np.inf, c, 0.0)

    def inside(s, rows):
        p = project_simplex_slice(c[rows] + s[:, None] * d[rows], total[rows])
        return np.sum((p - c0[rows]) ** 2, axis=-1) <= r_sq[rows]

    dn = np.sqrt(np.sum(d * d, axis=-1))
    rows = np.flatnonzero((dn > 0.0) & (r_sq > 0.0))
    lo, hi, s = np.zeros(len(c)), np.full(len(c), np.inf), np.zeros(len(c))
    s[rows] = np.minimum(np.sqrt(r_sq[rows]) / dn[rows], s_max)
    with np.errstate(over="ignore"):    # s overflowing to inf ends the doubling
        while rows.size:
            ok = inside(s[rows], rows)
            lo[rows[ok]] = s[rows[ok]]
            hi[rows[~ok]] = s[rows[~ok]]
            s = np.where(hi < np.inf, 0.5 * (lo + hi), np.minimum(2.0 * lo, s_max))
            rows = np.flatnonzero((lo < s) & (s < hi))
    return project_simplex_slice(c + lo[:, None] * d, total)


def project_ball_slice(v: np.ndarray, center: np.ndarray, radius, total) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum p = total, |p - center| <= radius}.

    By KKT the projection is P(center + s (v - center)) for the largest s in
    [0, 1] that keeps it in the ball, P the simplex-slice projection; rows
    of (..., M) arrays are projected independently.
    """
    c = np.asarray(center, dtype=float)
    d = np.asarray(v, dtype=float) - c
    lead, m = c.shape[:-1], c.shape[-1]
    r = _per_row(radius, lead)
    out = _ball_path(c.reshape(-1, m), (d - d.mean(axis=-1, keepdims=True)).reshape(-1, m),
                     _per_row(total, lead), r * r, 1.0)
    return out.reshape(c.shape)


@dataclass(frozen=True)
class BoxDescentResult:
    x: np.ndarray
    value: float
    converged: bool
    iterations: int
    grad_norm: float
    trace: np.ndarray  # objective value per accepted iterate, starting at x0
    stop: str          # "tol", "stalled" (no decrease found) or "cap" (max_iters)


def _cg(hv, b: np.ndarray, rtol: float) -> np.ndarray:
    """Conjugate gradient from 0 on ``H p = b`` until ``|b - H p| <= rtol |b|``.

    ``hv`` is the product with ``H``.  On zero or negative curvature the
    iterate so far is returned, or ``b`` itself on the first step, so the
    result is always a descent direction for the model ``p.H.p / 2 - b.p``.
    """
    p = np.zeros_like(b)
    r = b.copy()
    d = b.copy()
    rr = float(np.dot(r, r))
    stop = rtol * rtol * rr
    for k in range(b.size):
        hd = hv(d)
        curv = float(np.dot(d, hd))
        if curv <= 0.0:
            return p if k else b
        alpha = rr / curv
        p += alpha * d
        r -= alpha * hd
        rr_new = float(np.dot(r, r))
        if rr_new <= stop:
            break
        d *= rr_new / rr
        d += r
        rr = rr_new
    return p


def projected_gradient_norm(x: np.ndarray, g: np.ndarray, lower, upper) -> float:
    """|x - P(x - g)|, P the projection onto the box [lower, upper]: 0 at a stationary point."""
    return float(np.linalg.norm(x - np.minimum(np.maximum(x - g, lower), upper)))


def _arc_search(value_fn, clip, x, fx, g, step):
    """Armijo search along the projection arc ``P(x + t step)``, halving ``t`` from 1.

    Returns ``(trial, f_trial)`` or ``None``, and whether the search ended
    flat: when the whole step predicts a decrease ``g.(trial - x)`` below
    the floating-point resolution of ``f``, or a trial passes the Armijo
    test without falling.  A trial that predicts no decrease is halved, not
    given up on: a projected Newton step can point uphill at ``t = 1`` and
    still descend along a shorter stretch of its arc.  Halving down to an
    unresolvable decrease without passing the test is a failure, not flat.
    """
    resolution = 16.0 * np.finfo(float).eps * (1.0 + abs(fx))
    t = 1.0
    for k in range(60):
        trial = clip(x + t * step)
        decrease = float(np.vdot(g, trial - x))
        if decrease < 0.0:
            if -decrease <= resolution:
                return None, k == 0
            f_trial = value_fn(trial)
            if np.isfinite(f_trial) and f_trial <= fx + 1e-4 * decrease:
                # once 1e-4 * decrease underflows against |fx|, an equal value
                # passes the Armijo test: that is no descent either
                return ((trial, f_trial), False) if f_trial < fx else (None, True)
        t *= 0.5
    return None, False


def box_projected_descent(
    value_fn,
    grad_fn,
    hess_fn,
    x0: np.ndarray,
    lower,
    upper,
    tol: float = 1e-8,
    max_iters: int = 5000,
    scale: float | None = None,
) -> BoxDescentResult:
    """Projected Newton-CG on a box (Bertsekas 1982; CG on the free variables as in TRON).

    ``hess_fn(x, v)`` is the Hessian at ``x`` times ``v``.  Each iteration
    holds the epsilon-binding coordinates (within ``eps = min(pg, 1e-3 *
    widest box side)`` of a bound that the gradient pushes against) on a
    projected gradient step, solves the Newton system on the others by
    conjugate gradient to the forcing term ``min(1e-3, pg / pg0)``, and runs
    an Armijo search along the projection arc ``P(x + t d)``.  When that
    search fails (the box can turn a Newton step uphill, since the Hessian
    couples bound and free coordinates), the iteration searches along the
    projected gradient arc instead.  ``value_fn`` may return ``inf``
    outside the objective's domain; the searches reject such trials.
    Descent is monotone.

    The run stops with ``"tol"`` once the projected gradient norm ``pg`` is
    at most ``tol * scale``, ``scale`` defaulting to ``pg`` at ``x0``; with
    ``"stalled"`` when no step is accepted, which counts as converged when
    the last search ended flat (the decrease left is below the objective's
    floating-point resolution); and with ``"cap"`` after ``max_iters``
    iterations.
    """
    lower = np.broadcast_to(np.asarray(lower, dtype=float), np.shape(x0))
    upper = np.broadcast_to(np.asarray(upper, dtype=float), np.shape(x0))

    def clip(z):
        return np.minimum(np.maximum(z, lower), upper)

    x = clip(np.asarray(x0, dtype=float))
    fx = value_fn(x)
    if not np.isfinite(fx):
        raise ValueError("descent must start inside the objective domain")
    g = grad_fn(x)
    trace = [fx]
    width = float(np.max(upper - lower, initial=0.0))
    pg = pg0 = projected_gradient_norm(x, g, lower, upper)
    stop_at = tol * (pg0 if scale is None else scale)
    scatter = np.zeros(x.shape)   # one full-size buffer for every Hessian product

    it, flat = 0, False
    while pg > stop_at and it < max_iters:
        eps = min(pg, 1e-3 * width)
        binding = ((x <= lower + eps) & (g > 0.0)) | ((x >= upper - eps) & (g < 0.0))
        free = np.flatnonzero(~binding)
        step = -g
        if free.size:
            scatter[...] = 0.0

            def hv(v):
                scatter.flat[free] = v
                return hess_fn(x, scatter).ravel()[free]

            step.flat[free] = _cg(hv, step.ravel()[free], min(1e-3, pg / pg0))

        found, flat = _arc_search(value_fn, clip, x, fx, g, step)
        if found is None and not flat and free.size:
            found, flat = _arc_search(value_fn, clip, x, fx, g, -g)
        if found is None:
            break
        x, fx = found
        g = grad_fn(x)
        trace.append(fx)
        pg = projected_gradient_norm(x, g, lower, upper)
        it += 1
    stop = "tol" if pg <= stop_at else "stalled" if it < max_iters else "cap"
    converged = stop == "tol" or (stop == "stalled" and flat)
    return BoxDescentResult(x, float(fx), bool(converged), it, pg, np.array(trace), stop)


def linear_min_over_ball_slice(g: np.ndarray, center: np.ndarray, radius, total) -> np.ndarray:
    """Minimize <g, p> over {p >= 0, sum p = total, |p - center| <= radius}, rowwise.

    ``g`` and ``center`` are (..., M); ``radius`` and ``total`` are scalars
    or (...) arrays.  Rows with zero radius return their center.  Non-finite
    gradient entries mark items no mass may move onto: they stay at exactly
    0 and their center mass shrinks the radius.  The center is then shifted
    onto the sum slice, and the fixed offset shrinks the radius further.

    If the projection of the center onto the cheapest face (the items of
    least gradient) lies in the ball, it is optimal.  Otherwise, by KKT, the
    minimizer is P(c - s g) for the largest s that keeps it in the ball, P
    the simplex-slice projection (:func:`_ball_path`).
    """
    g = np.asarray(g, dtype=float)
    center = np.asarray(center, dtype=float)
    if g.shape != center.shape:
        raise ValueError("gradient and center dimension mismatch")
    shape, m_items = center.shape, center.shape[-1]
    g, center = g.reshape(-1, m_items), center.reshape(-1, m_items)
    radius, total = _per_row(radius, shape[:-1]), _per_row(total, shape[:-1])

    out = center.copy()
    live = radius > 0.0
    g, c, total = g[live], center[live], total[live]
    fin = np.isfinite(g)
    m = fin.sum(axis=-1)
    r_sq = radius[live] ** 2 - np.sum(np.where(fin, 0.0, c) ** 2, axis=-1)
    if np.any((m < m_items) & ((r_sq < 0.0) | (m == 0))):
        raise ValueError("region cannot avoid the diverging items")
    c = np.where(fin, c, 0.0)
    gap = (total - c.sum(axis=-1)) / m
    r_sq = r_sq - m * gap * gap
    if np.any(r_sq < 0.0):
        raise ValueError("ball does not reach the sum slice")
    c = np.where(fin, c + gap[:, None], -np.inf)
    mean = np.sum(np.where(fin, g, 0.0), axis=-1, keepdims=True) / m[:, None]
    gs = np.where(fin, g - mean, 0.0)

    cheapest = np.where(fin, gs, np.inf).min(axis=-1, keepdims=True)
    step = project_simplex_slice(np.where(fin & (gs == cheapest), c, -np.inf), total)
    path = np.sum((step - np.where(fin, c, 0.0)) ** 2, axis=-1) > r_sq
    step[path] = _ball_path(c[path], -gs[path], total[path], r_sq[path], np.inf)
    out[live] = step
    return out.reshape(shape)
