"""Small numeric building blocks: a scalar root search, projections, box Newton descent.

Everything here is deterministic; the only state is the caller's iterate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

# rounding of a computed value, or of a difference, relative to the magnitudes involved
RESOLUTION = 16.0 * np.finfo(float).eps
# most CG passes per Newton step, and the share of crossings past which only the
# crossers pinned on their bound are fixed (_face_step)
FACE_PASSES = 3
FACE_CROSSED = 0.5
# after an overflowing full step, the share of the way to the domain limit tried next
TO_LIMIT = 0.99


def increasing_root(fn, hi: float) -> float:
    """Least x in [0, hi] with ``fn(x) >= 0`` for a nondecreasing ``fn``, or
    ``hi`` when ``fn(hi) < 0``.

    Bisection until no float lies strictly between the bracket ends, so the
    float format bounds the loop and the root is exact to the last bit.
    ``fn`` may return ``+inf`` (an unbounded slope past a capacity).
    """
    lo, hi = 0.0, float(hi)
    if fn(lo) >= 0.0:
        return lo
    if fn(hi) < 0.0:
        return hi
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        if fn(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


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
    zero).  The distance never decreases in s, and it is piecewise
    quadratic (Condat 2016; the homotopy of a parametric QP, Best 1996):
    while the support S of P(c + s d) is fixed, P(c + s d)_S = c_S + s d_S -
    theta_a - s mu with mu = mean_S d and theta_a = (sum_S c - total) / |S|,
    so the squared distance is A s^2 + B with A = sum_S (d - mu)^2.

    Each round projects every live row once at its trial s, reads S, and
    jumps to that piece's root, with B taken from the distance just
    measured and the target pulled in by ``2 M eps`` of r_sq so the jump
    lands inside rather than an ulp outside; the root is capped at s_max,
    and a piece with A = 0, or one that never re-enters the ball, has none.
    A bracket of the largest trial inside and the least outside guards the
    jumps: a root outside it falls back to the midpoint, or to doubling
    while nothing outside is known.  A jump that lands outside on its own
    piece missed by rounding alone, which can hold the measured distance
    flat across many ulps of s: each such miss in a row steps down twice as
    far as the last (a miss on another piece takes that piece's root as
    is).  A row stops at a trial inside the ball whose support repeats
    after a jump, or whose piece root is not above it, or whose support is
    the face of largest d (where P(c + s d) stops moving); or once its
    bracket is narrower than ``4 eps total / |d|``, since P is nonexpansive
    and no s left in it moves P by more than ``4 eps total``.  The returned
    point is a trial that passed the distance test, or P(c) when none did
    (as with bisection).  The first trial is sqrt(r_sq) / |d|, inside
    whenever P(c) = c.  Rows with ``d = 0`` or ``r_sq = 0`` return P(c).  A
    row still searching after 64 + M rounds raises ``RuntimeError`` naming
    it.

    P(c) is the point of the nonnegative slice closest to c, so when it lies
    outside the ball the region is empty, and the search raises
    ``ValueError``.  P(c) of a feasible c can round a little away from it, so
    the distance may pass the radius by ``4 M eps`` times ``|c|_1 + total``
    (the rounding of P's threshold).
    """
    c0 = np.where(c > -np.inf, c, 0.0)
    n_rows, m = c.shape
    dn = np.sqrt(np.sum(d * d, axis=-1))
    rows = np.flatnonzero((dn > 0.0) & (r_sq > 0.0))
    lo, hi, s = np.zeros(n_rows), np.full(n_rows, np.inf), np.zeros(n_rows)
    s[rows] = np.minimum(np.sqrt(r_sq[rows]) / dn[rows], s_max)
    eps = np.finfo(float).eps
    aim, tight = 2.0 * m * eps, 4.0 * eps * total / np.where(dn > 0.0, dn, 1.0)
    top = d == d.max(axis=-1, keepdims=True)     # the face where P(c + s d) stops moving
    back = np.zeros(n_rows)                      # jumps in a row that missed their own piece
    support = np.zeros(c.shape, dtype=bool)      # of each row's last trial
    jumped = np.zeros(n_rows, dtype=bool)        # the trial is that support's root
    found = np.zeros(n_rows, dtype=bool)         # some trial was inside: out holds P at lo
    out = np.empty(c.shape)
    # a piece with A = 0, or one that stays outside, gives an inf or nan root
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(64 + m):
            if not rows.size:
                break
            dr, sr = d[rows], s[rows]
            p = project_simplex_slice(c[rows] + sr[:, None] * dr, total[rows])
            x = p - c0[rows]
            excess = np.einsum("ij,ij->i", x, x) - r_sq[rows]
            ok = excess <= 0.0
            lo[rows[ok]], hi[rows[~ok]] = sr[ok], sr[~ok]
            out[rows[ok]] = p[ok]
            found[rows[ok]] = True
            on = p > 0.0
            same = jumped[rows] & np.all(on == support[rows], axis=-1)
            mu = np.einsum("ij,ij->i", dr, on) / on.sum(axis=-1)
            x = (dr - mu[:, None]) * on
            a = np.einsum("ij,ij->i", x, x)
            # A sr^2 + B = r_sq + excess on the piece through sr
            root = np.minimum(np.sqrt(sr * sr - (excess + aim * r_sq[rows]) / a), s_max)
            # a jump outside on its own piece missed its root by rounding alone,
            # which can hold the distance flat over many ulps of s: each such
            # miss in a row steps down twice as far as the last
            back[rows] = np.where(same & ~ok, back[rows] + 1.0, 0.0)
            b = back[rows]
            root = np.where(b > 0.0, sr - (sr - root) * 2.0 ** b, root)
            l, h = lo[rows], hi[rows]
            jump = (l < root) & (root < h)
            fallback = np.where(h < np.inf, 0.5 * (l + h), np.minimum(2.0 * l, s_max))
            nxt = np.where(jump, root, fallback)
            # P is nonexpansive: no point left in the bracket moves it by more
            # than (h - l) |d|, so a bracket that narrow leaves nothing to find
            stuck = ~((l < nxt) & (nxt < h)) | (h - l <= tight[rows])
            last = np.all(on == top[rows], axis=-1)
            on_root = same | last | ~(root > sr + 4.0 * np.spacing(sr))
            done = stuck | (ok & on_root)
            support[rows], jumped[rows], s[rows] = on, jump, nxt
            rows = rows[~done]
    if rows.size:
        raise RuntimeError(f"ball path search did not settle on rows {rows.tolist()}")
    if not found.all():
        miss = ~found
        p = project_simplex_slice(c[miss], total[miss])
        x = p - c0[miss]
        slack = 4.0 * m * eps * (np.abs(c0[miss]).sum(axis=-1) + total[miss])
        if np.any(np.sqrt(np.einsum("ij,ij->i", x, x)) - np.sqrt(r_sq[miss]) > slack):
            raise ValueError("ball misses the nonnegative part of the sum slice")
        out[miss] = p
    return out


def project_ball_slice(v: np.ndarray, center: np.ndarray, radius, total) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum p = total, |p - center| <= radius}.

    By KKT the projection is P(center + s (v - center)) for the largest s in
    [0, 1] that keeps it in the ball, P the simplex-slice projection; rows
    of (..., M) arrays are projected independently.  A row whose set is
    empty (its ball misses the nonnegative part of the slice) raises
    ``ValueError``.
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
    converged: bool    # stop is "tol" or "rounding"
    iterations: int
    gap: float         # Frank-Wolfe gap at x: an upper bound on value - min
    trace: np.ndarray  # objective value per accepted iterate, starting at x0
    stop: str          # "tol", "rounding", "stalled" or "cap"; see box_projected_descent


def _cg(hv, b: np.ndarray, rtol: float) -> np.ndarray:
    """Conjugate gradient from 0 on ``H p = b`` until ``|b - H p| <= rtol |b|``.

    ``hv`` is the product with ``H``, a new vector; the descent passes the
    Hessian on its free coordinates.  On zero or negative curvature the
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


def _face_step(hv, b: np.ndarray, rtol: float, land) -> np.ndarray:
    """CG step ``p`` on ``H p = b`` (``b = -g``), re-solved on the face it lands on.

    ``land(p)`` gives, for a step on the free set, where ``x + p`` leaves the
    box there, and a function for the move ``P(x + p) - x`` there.  Each
    coordinate that leaves is fixed at the bound it crosses, with that move
    ``delta``, and CG runs again from 0 on the rest with right-hand side
    ``b - H delta`` (TRON's subspace step; Lin & Moré 1999), through
    products of vectors that are zero off them.  At most ``FACE_PASSES``
    run.  When ``FACE_CROSSED`` or more of the coordinates the last pass
    solved cross, only the crossers whose move is exactly 0 are fixed:
    they sit on the bound they step out of, and the arc ``P(x + t p)``
    holds them there for every ``t > 0``.  The rest, interior crossers
    included, are solved again; with no such crosser the passes end, and
    the arc search clips the last step.  In the cyclic outage test
    instance's cold solve, the third step moved 6 coordinates at 0 outward
    and 6 interior ones past a bound; clipped whole, its arc search valued
    13 trials.  With the pinned ones fixed, no search of that solve values
    more than 2, and the three benchmark Monte Carlo solves take 4 Newton
    iterations each, not 6, 6 and 8.
    """
    p = _cg(hv, b, rtol)
    keep = slice(None)   # the coordinates the last pass solved
    for _ in range(FACE_PASSES - 1):
        out, move = land(p)
        out = out[keep]
        crossed = int(np.count_nonzero(out))
        if not crossed:
            break
        solved = np.arange(b.size)[keep]
        delta = move()
        if crossed >= FACE_CROSSED * out.size:
            out &= delta[solved] == 0.0   # only the crossers the arc pins on their bound
            if not out.any():
                break
        fixed, keep = solved[out], solved[~out]
        p[fixed] = delta[fixed]
        v = p.copy()
        v[keep] = 0.0      # every fixed move so far
        rhs = b[keep] - hv(v)[keep]
        v[:] = 0.0         # and from here on 0 off keep

        def sub(u):
            v[keep] = u
            return hv(v)[keep]

        p[keep] = _cg(sub, rhs, rtol)
    return p


def _arc_search(value_fn, clip, x, fx, g, step, work, to_limit=None):
    """Armijo search along the projection arc ``P(x + t step)``, halving ``t`` from 1.

    Returns ``(trial, f_trial)`` or ``None``, and whether the search ended
    flat: when the whole step rounds back to ``x`` or predicts a decrease
    ``g.(trial - x)`` below ``16 eps |fx|``, the resolution of ``f`` at any
    scale, or a trial passes the Armijo test without falling.  A trial that
    predicts no decrease is halved, not given up on: a projected Newton step
    can point uphill at ``t = 1`` and still descend along a shorter stretch
    of its arc.  Halving down to an unresolvable decrease, or back to ``x``,
    without passing the test is a failure, not flat.
    Each trial is a new array, clipped in place; ``work`` holds ``trial - x``.

    When the full trial's value is ``inf`` (past the objective's domain) and
    ``to_limit(x, trial)`` gives the share ``s`` of the way from ``x`` to it
    at which the domain's limit is reached, the next trial is at ``t = TO_LIMIT
    s`` (a fraction to the boundary, as interior-point methods take it;
    Wachter & Biegler 2006), and halving goes on from there.  A share outside
    (0, 1) is ignored.  A search whose full trial is finite makes the same
    trials without ``to_limit``.  Halving alone crawls toward a barrier such
    as the outage cost's: on the cyclic outage test instance (6 users, mu =
    1.05 N max size) its cold solve took 30 values, 19 of them overflowing
    trials.  Measured ``TO_LIMIT`` there, and over the 20 solves of the
    same instance cut to N = 3..6 users at mu / (N max size) in {1.01,
    1.02, 1.05, 1.1, 1.2}:

    ========  ==========================  ==============  =================
    TO_LIMIT  cold solve: its. / values /  grid: its. /    grid: stops not
              overflowing trials           values          ``"tol"``
    ========  ==========================  ==============  =================
    halving    7 / 30 / 19                141 / 349       2
    0.5       14 / 28 / 11                178 / 307       1
    0.9       11 / 16 / 4                 124 / 188       1
    0.95       9 / 13 / 3                 121 / 181       0
    0.99       9 / 12 / 2                 131 / 191       0
    0.995     12 / 15 / 2                 131 / 193       1
    0.999      6 / 11 / 2                 135 / 197       2
    ========  ==========================  ==============  =================

    Of the constants whose grid solves all end ``"tol"``, 0.99 makes the
    fewest values in the cold solve.  Before :func:`_face_step` fixed only
    pinned crossers above its gate, 0.99 also made the fewest values in the
    instance's ``shape`` (32, against 35 to 37 at 0.9, 0.95 and 0.995).
    """
    resolution = RESOLUTION * abs(fx)
    t = 1.0
    for k in range(60):
        trial = np.multiply(step, t)
        trial += x
        clip(trial)
        decrease = float(np.vdot(g, np.subtract(trial, x, out=work)))
        # a trial equal to x decreases nothing, at this t or any shorter one
        if decrease < 0.0 or not work.any():
            if -decrease <= resolution:
                return None, k == 0
            f_trial = value_fn(trial)
            if np.isfinite(f_trial) and f_trial <= fx + 1e-4 * decrease:
                # once 1e-4 * decrease underflows against |fx|, an equal value
                # passes the Armijo test: that is no descent either
                return ((trial, f_trial), False) if f_trial < fx else (None, True)
            if k == 0 and to_limit is not None and f_trial == np.inf:
                share = TO_LIMIT * to_limit(x, trial)
                if 0.0 < share < 1.0:
                    t = share
                    continue
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
    to_limit=None,
) -> BoxDescentResult:
    """Projected Newton-CG on a box (Bertsekas 1982; CG on the free variables as in TRON).

    ``hess_fn(x, free)`` returns the Hessian at ``x`` on the coordinates
    ``free`` (a sorted array of flat indices into ``x``) as a product
    ``hv(v)``, which takes and returns vectors on ``free``: the reduced
    Hessian of TRON (Lin & Moré 1999).  The descent calls it once per
    iteration whose free set is nonempty, and drops the operator after CG,
    before the search, so whatever it holds at ``x`` is freed with it.  One
    work buffer holds the temporaries of the arc search, the face step's
    ``x + p``, the stop and ``pg``.  ``lower`` and ``upper`` are scalars or
    arrays that broadcast against ``x0`` (a per-item size vector, say) and
    stay that compact, so no box-sized array is built.  With ``pg`` the
    projected gradient norm ``|x - P(x - g)|``, each iteration holds the
    epsilon-binding coordinates (within ``eps = min(pg, 1e-3 * widest box
    side)`` of a bound that the gradient pushes against) on a projected
    gradient step, solves the Newton system on the others by conjugate
    gradient to the forcing term ``min(1e-3, pg / pg0)``, and runs
    an Armijo search along the projection arc ``P(x + t d)``, with ``d``
    re-solved on the face it lands on (:func:`_face_step`, through the same
    operator): a pass whose crossers are fewer than ``FACE_CROSSED`` of its
    coordinates fixes them all, and one with more fixes only those pinned
    on their bound (a move of exactly 0).  When that search fails (the box
    can turn a Newton step uphill, since the Hessian couples bound and free
    coordinates), the iteration searches along the projected gradient arc
    instead.
    ``value_fn`` may return ``inf`` outside the objective's domain; the
    searches reject such trials.  ``to_limit(x, trial)``, if given, is
    called only on a search's full trial when its value is ``inf``, right
    after that value: it returns the share of the way from ``x`` to that
    trial at which the domain's limit is reached, and the
    search tries ``TO_LIMIT`` (0.99) of it next (:func:`_arc_search`), so a
    step that overflows is cut once to just inside the domain, not halved
    down to it.  A search that ends flat (below) is
    followed by the full trial ``P(x + d)``, taken when its value is at most
    ``RESOLUTION * |value|`` above the iterate's and its gap is lower: one
    value and one gradient.  Descent is monotone up to that resolution.

    The stop reads the box's Frank-Wolfe gap (Jaggi 2013) ``gap = sum max(g,
    0) (x - lower) + max(-g, 0) (upper - x)``; for a convex objective
    ``value - gap`` bounds its minimum from below.  The run stops with
    ``"tol"`` once ``gap <= tol * |value|``, at any scale and from any start.
    That relative stop needs a least value away from 0, as a cycle cost's
    is (positive): near a least value of 0 the gap shrinks no faster than
    ``value``, so such a run ends on ``"rounding"`` once it has descended
    to the last bits.  It stops with ``"rounding"`` when a search ends flat
    (the decrease left is below the objective's floating-point resolution)
    and the certified step is refused;
    with ``"stalled"`` when one finds no decrease above that; and with
    ``"cap"`` after ``max_iters`` iterations.  ``converged`` is ``"tol"`` or
    ``"rounding"``.  The bounds must be finite.
    """
    x = np.asarray(x0, dtype=float)
    del x0   # the start is freed once the first accepted step moves x off it
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if np.broadcast_shapes(x.shape, lower.shape, upper.shape) != x.shape:
        raise ValueError(f"box bounds {lower.shape} and {upper.shape} do not fit x {x.shape}")

    def clip(z):
        """``z`` moved into the box in place."""
        np.maximum(z, lower, out=z)
        return np.minimum(z, upper, out=z)

    if np.any((x < lower) | (x > upper)):
        x = clip(x.copy())   # a start inside the box stays the caller's array, and so its memo
    fx = value_fn(x)
    if not np.isfinite(fx):
        raise ValueError("descent must start inside the objective domain")
    g = grad_fn(x)
    trace = [fx]
    width = float(np.max(upper - lower, initial=0.0))
    scatter = np.empty(x.shape)   # the one work buffer: trial - x, x + p, pg, gap
    step = np.empty(x.shape)
    it, pg0 = 0, None

    def land(p):
        """For a step ``p`` on the free set: where ``x + p`` leaves the box
        there, and a function for the move ``P(x + p) - x`` (work buffer)."""
        step.flat[free] = p
        np.add(x, step, out=scatter)
        out = scatter < lower
        out |= scatter > upper
        return out.ravel()[free], lambda: np.subtract(clip(scatter), x, out=scatter).ravel()[free]

    def gap_at(x, g):
        """The Frank-Wolfe gap at ``x``, in the work buffers; each term is nonnegative."""
        return float(np.vdot(np.maximum(g, 0.0, out=step), np.subtract(x, lower, out=scatter))
                     - np.vdot(np.minimum(g, 0.0, out=step), np.subtract(upper, x, out=scatter)))

    while True:
        # the projected gradient norm |x - P(x - g)| in the work buffer
        clip(np.subtract(x, g, out=scatter))
        pg = float(np.linalg.norm(np.subtract(x, scatter, out=scatter)))
        pg0 = pg if pg0 is None else pg0
        gap = gap_at(x, g)
        stop = "tol" if gap <= tol * abs(fx) else "cap" if it == max_iters else None
        if stop:
            break
        eps = min(pg, 1e-3 * width)
        binding = ((x <= lower + eps) & (g > 0.0)) | ((x >= upper - eps) & (g < 0.0))
        free = np.flatnonzero(~binding)
        np.negative(g, out=step)
        if free.size:
            hv = hess_fn(x, free)
            step.flat[free] = _face_step(hv, step.ravel()[free],
                                         min(1e-3, pg / pg0) if pg0 else 1e-3, land)
            del hv   # it may hold the iterate's own evaluation state: free it before the search

        found, flat = _arc_search(value_fn, clip, x, fx, g, step, scatter, to_limit)
        if found is None and not flat and free.size:
            found, flat = _arc_search(value_fn, clip, x, fx, g, np.negative(g, out=step), scatter,
                                      to_limit)
        g_next = None
        if found is None and flat:   # the certified flat step
            trial = clip(np.add(x, step))
            f_trial = value_fn(trial)
            if f_trial <= fx + RESOLUTION * abs(fx):
                g_next = grad_fn(trial)
                if gap_at(trial, g_next) < gap:
                    found = trial, f_trial
        if found is None:
            stop = "rounding" if flat else "stalled"
            break
        x, fx = found
        g = grad_fn(x) if g_next is None else g_next
        trace.append(fx)
        it += 1
    converged = stop in ("tol", "rounding")
    return BoxDescentResult(x, float(fx), converged, it, gap, np.array(trace), stop)


def linear_min_over_ball_slice(g: np.ndarray, center: np.ndarray, radius, total) -> np.ndarray:
    """Minimize <g, p> over {p >= 0, sum p = total, |p - center| <= radius}, rowwise.

    ``g`` and ``center`` are (..., M); ``radius`` and ``total`` are scalars
    or (...) arrays.  Rows with zero radius return their center.  Non-finite
    gradient entries mark items no mass may move onto: they stay at exactly
    0 and their center mass shrinks the radius.  The center is then shifted
    onto the sum slice, and the fixed offset shrinks the radius further.

    A row whose region is empty (the ball does not reach the slice, or
    reaches it only outside the nonnegative orthant) raises ``ValueError``.

    If the projection of the center onto the cheapest face (the items of
    least gradient) lies in the ball, it is optimal.  Otherwise, by KKT, the
    minimizer is P(c - s g) for the largest s that keeps it in the ball, P
    the simplex-slice projection; :func:`_ball_path` finds that s exactly,
    piece by piece of the projection's support, in a few batched rounds.
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
    # each row scaled by a power of two to |gs| < 1: the minimizer ignores a
    # positive scale, the scaling is exact, and _ball_path's squares stay finite
    gs = np.ldexp(gs, -np.frexp(np.abs(gs).max(axis=-1, keepdims=True))[1])

    cheapest = np.where(fin, gs, np.inf).min(axis=-1, keepdims=True)
    step = project_simplex_slice(np.where(fin & (gs == cheapest), c, -np.inf), total)
    path = np.sum((step - np.where(fin, c, 0.0)) ** 2, axis=-1) > r_sq
    step[path] = _ball_path(c[path], -gs[path], total[path], r_sq[path], np.inf)
    out[live] = step
    return out.reshape(shape)
