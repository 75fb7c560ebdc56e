"""Rating vectors that realize a shaped demand profile.

Users pick items in proportion to displayed ratings: with ratings v in
[0, 1]^M and slot activity 1 - q, the induced request probabilities are

    p(m) = (1 - q) * v_m / sum_j v_j

(the linear-fractional mapping).  Given a target profile p^ and intrinsic
ratings r, the closest realizing ratings minimize |v - r| subject to the
mapping constraint.  Because the constraint fixes v up to a positive scale
of the conditional preference pi^ = p^ / (1 - q), the problem collapses to
a one-dimensional least squares in that scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TINY = 1e-12


@dataclass(frozen=True)
class RatingVector:
    """Displayed per-item ratings, each in [0, 1]."""

    v: np.ndarray

    def __init__(self, v):
        arr = np.array(v, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("ratings must form a nonempty vector")
        if not np.all((arr >= -_TINY) & (arr <= 1.0 + _TINY)):
            raise ValueError("ratings must lie in [0, 1]")
        arr = np.clip(arr, 0.0, 1.0)
        arr.setflags(write=False)
        object.__setattr__(self, "v", arr)


@dataclass(frozen=True)
class RatingResult:
    ratings: RatingVector
    scale: float
    clamped: bool        # the unconstrained scale exceeded the [0,1] cap
    unconstrained: bool  # silent slot: any ratings work, r returned as-is


def solve_rating(target_probs, silence: float, intrinsic) -> RatingResult:
    """Ratings closest to ``intrinsic`` that induce ``target_probs``.

    The feasible set is { s * pi^ : 0 < s <= 1 / max(pi^) }; projecting the
    intrinsic ratings onto it gives s* = <pi^, r> / |pi^|^2, clamped to the
    cap.  If the slot is silent (activity 0) the mapping puts no constraint
    on v, so the intrinsic ratings are already optimal.
    """
    p = np.asarray(target_probs, dtype=float)
    r = RatingVector(intrinsic).v
    if p.shape != r.shape:
        raise ValueError("target profile and ratings must share the item dimension")
    if not -_TINY <= float(silence) <= 1.0 + _TINY:
        raise ValueError(f"silence must lie in [0, 1], got {silence!r}")
    activity = 1.0 - float(silence)
    if activity <= _TINY:
        return RatingResult(RatingVector(r), 1.0, False, True)
    if not np.all(p >= -_TINY):
        raise ValueError("target probabilities must be nonnegative")
    if not abs(float(p.sum()) - activity) <= 1e-9:
        raise ValueError(
            f"target probabilities sum to {p.sum():.12g}, activity is {activity:.12g}"
        )

    pi = p / activity
    s_cap = 1.0 / float(pi.max())
    s_star = float(pi @ r) / float(pi @ pi)
    clamped = s_star > s_cap
    s = min(s_star, s_cap)
    if s <= 0.0:
        # intrinsic ratings orthogonal to the preference; any positive scale
        # realizes the profile, so stay infinitesimally above zero
        s = _TINY * s_cap
    return RatingResult(RatingVector(s * pi), float(s), clamped, False)
