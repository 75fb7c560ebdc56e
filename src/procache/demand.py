"""Item catalog and cyclic per-user request probabilities.

The demand model is one period of a cycle with ``T`` slots.  In slot ``t``
user ``n`` requests item ``m`` with probability ``probs[n, t, m]`` and stays
silent with probability ``silence[n, t] = 1 - sum_m probs[n, t, m]``; at most
one request per user per slot.  Slot indices wrap modulo ``T`` everywhere.

A profile's rows are user classes: row ``k`` stands for ``counts[k]``
identical users (one each by default), and :meth:`DemandProfile.expanded`
repeats every row once per user.

Probability rows must satisfy nonnegativity and ``sum_m p + q = 1`` to within
1e-12.  Rows off by at most 1e-9 are renormalized with a warning; anything
worse is rejected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import substream

_EXACT_TOL = 1e-12
_RENORM_TOL = 1e-9
MAX_COUNT = 2**53  # class sizes stay exact as float weights

SILENT = 0  # outcome code for "no request"


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ItemCatalog:
    """Finite item catalog with positive per-item sizes.

    Items are addressed 1..M in outcome codes (0 means silent) but size
    arrays are indexed 0..M-1 as usual.
    """

    sizes: np.ndarray

    def __init__(self, sizes):
        arr = _frozen_array(sizes)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("catalog needs a nonempty 1-d size vector")
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise ValueError("item sizes must be positive and finite")
        object.__setattr__(self, "sizes", arr)

    @property
    def num_items(self) -> int:
        return int(self.sizes.size)

    @property
    def min_size(self) -> float:
        return float(self.sizes.min())


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate_profile`."""

    kind: str
    index: tuple
    magnitude: float

    def __str__(self) -> str:
        return f"{self.kind} at {self.index}: off by {self.magnitude:.3g}"


def validate_profile(probs, silence=None, tol: float = _EXACT_TOL) -> list[Violation]:
    """Check probability invariants and return violations as data.

    ``probs`` may be shaped (M,), (T, M), or (N, T, M).  When ``silence`` is
    omitted it is taken as ``1 - sum_m probs``, so only nonnegativity and the
    unit-sum cap are checked.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim == 1:
        p = p[None, None, :]
    elif p.ndim == 2:
        p = p[None, :, :]
    elif p.ndim != 3:
        raise ValueError(f"probs must have 1, 2, or 3 dims, got {p.ndim}")
    n_users, n_slots, _ = p.shape
    if silence is None:
        q = 1.0 - p.sum(axis=2)
    else:
        q = np.broadcast_to(np.asarray(silence, dtype=float), (n_users, n_slots))

    out: list[Violation] = []
    neg = p < -tol
    for idx in np.argwhere(neg):
        out.append(Violation("negative probability", tuple(int(i) for i in idx), float(-p[tuple(idx)])))
    neg_q = q < -tol
    for idx in np.argwhere(neg_q):
        out.append(Violation("negative silence", tuple(int(i) for i in idx), float(-q[tuple(idx)])))
    gap = np.abs(p.sum(axis=2) + q - 1.0)
    for idx in np.argwhere(gap > tol):
        out.append(Violation("sum mismatch", tuple(int(i) for i in idx), float(gap[tuple(idx)])))
    return out


@dataclass(frozen=True)
class DemandProfile:
    """Cyclic request probabilities of user classes: probs (K, T, M), silence
    (K, T), and counts (K,), the number of identical users each row stands for."""

    probs: np.ndarray
    silence: np.ndarray
    counts: np.ndarray

    def __init__(self, probs, silence=None, counts=None):
        p = np.array(probs, dtype=float)
        if p.ndim != 3:
            raise ValueError(f"probs must be (users, slots, items); got {p.shape}")
        if p.shape[1] < 1 or p.shape[2] < 1:
            raise ValueError(f"need at least one slot and one item; got {p.shape}")
        row_sums = p.sum(axis=2)
        if silence is None:
            q = 1.0 - row_sums
        else:
            q = np.broadcast_to(np.asarray(silence, dtype=float), p.shape[:2]).copy()
        for name, arr in (("probs", p), ("silence", q)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"demand profile {name} must be finite")
        c = _class_counts(counts, p.shape[0])

        worst = 0.0
        if p.size:
            worst = max(worst, float(-min(p.min(), 0.0)), float(-min(q.min(), 0.0)))
        gap = float(np.max(np.abs(row_sums + q - 1.0))) if p.size else 0.0
        worst = max(worst, gap)
        if worst > _RENORM_TOL:
            bad = validate_profile(p, None if silence is None else q, tol=_RENORM_TOL)
            raise ValueError(
                f"invalid demand profile ({len(bad)} violations, worst {worst:.3g}): "
                + "; ".join(str(v) for v in bad[:3])
            )
        if worst > _EXACT_TOL:
            warnings.warn(
                f"demand profile off by {worst:.3g}; renormalizing", stacklevel=2
            )
            p = np.clip(p, 0.0, None)
            q = np.clip(q, 0.0, 1.0)
            kept = p.sum(axis=2)   # clipping moved the row sums: scale what is left
            p *= np.divide(1.0 - q, kept, out=np.zeros(kept.shape), where=kept > 0.0)[..., None]

        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "silence", q)
        object.__setattr__(self, "counts", c)
        weights = None
        if np.any(c > 1):
            weights = c.astype(float)
            weights.setflags(write=False)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_memo", {})

    @property
    def num_users(self) -> int:
        """Users in all classes: ``counts.sum()``."""
        if self.per_user:
            return len(self.counts)
        return int(self.counts.sum(dtype=object))   # a Python int: no int64 overflow

    @property
    def num_classes(self) -> int:
        return int(self.probs.shape[0])

    @property
    def per_user(self) -> bool:
        """Every class holds one user: the rows are the users."""
        return self._weights is None

    @property
    def weights(self) -> np.ndarray | None:
        """The class sizes as float weights (K,), ``None`` when every class holds one user."""
        return self._weights

    @property
    def num_slots(self) -> int:
        return int(self.probs.shape[1])

    @property
    def num_items(self) -> int:
        return int(self.probs.shape[2])

    def with_probs(self, probs) -> "DemandProfile":
        """Same silence pattern and class sizes, new request probabilities."""
        return DemandProfile(probs, self.silence, self.counts)

    def expanded(self) -> "DemandProfile":
        """The one-row-per-user profile: each class row repeated once per user, in order.

        A profile whose classes each hold one user is its own expansion.
        """
        if self.per_user:
            return self
        return DemandProfile(np.repeat(self.probs, self.counts, axis=0),
                             np.repeat(self.silence, self.counts, axis=0))

    def draws(self, seed: int, count: int) -> np.ndarray:
        """Read-only outcome codes of ``count`` samples per (slot, user), (T, N,
        count): a new array read back exactly from :meth:`draw_index`, the
        index modulo M+1."""
        codes = self.draw_index(seed, count) % (self.num_items + 1)
        codes.setflags(write=False)
        return codes

    def draw_index(self, seed: int, count: int) -> np.ndarray:
        """The read-only :func:`sample_index` of ``count`` samples per (slot,
        user), (T, N, count).

        Sample ``i`` of user ``n`` in slot ``t`` comes from stream
        ``(seed, n, t)`` and depends only on ``(seed, n, t, i)``, so the same
        draws come back regardless of how many samples any caller requests.
        The index is drawn on first use and kept on the profile, the one
        array of the draws it keeps.  The streams are per user, so a profile
        with a class of several users raises ``ValueError``: draw from
        :meth:`expanded`.
        """
        if not self.per_user:
            raise ValueError("draws need one row per user; sample profile.expanded()")
        seed, count = int(seed), int(count)

        def draw():
            n_users, n_slots, n_items = self.probs.shape
            codes = np.empty((n_slots, n_users, count), dtype=np.int64)
            for t in range(n_slots):
                for n in range(n_users):
                    u = substream(seed, n, t).random(count)
                    idx = np.searchsorted(np.cumsum(self.probs[n, t]), u, side="right")
                    codes[t, n] = np.where(idx < n_items, idx + 1, SILENT)
            index = sample_index(codes, n_items)
            index.setflags(write=False)
            return index
        return self.memo((seed, count), draw)

    def memo(self, key, build: Callable):
        """``build()``, called on first use of ``key`` and kept on the profile:
        the draws' sample index, and an engine's outcome structure."""
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo[key] = build()
        return entry


def sample_index(codes: np.ndarray, num_items: int) -> np.ndarray:
    """Flat positions ``(t N + n)(M+1) + code`` of outcome codes (T, N, K) in a
    (T, N, M+1) array of per-choice values, silent column first: ``take`` on
    the raveled array reads every sample's value, and ``bincount`` sums
    weights into one bin per (slot, user, choice)."""
    n_slots, n_users, _ = codes.shape
    cells = np.arange(n_slots * n_users, dtype=np.int64).reshape(n_slots, n_users, 1)
    return cells * (num_items + 1) + codes


def _class_counts(counts, num_rows: int) -> np.ndarray:
    """``counts`` as a read-only int64 (K,) vector of integers in [1, MAX_COUNT]; ones if None."""
    if counts is None:
        c = np.ones(num_rows, dtype=np.int64)
    else:
        raw = np.asarray(counts)
        if raw.shape != (num_rows,):
            raise ValueError(f"counts must list one size per class ({num_rows}); got {raw.shape}")
        if raw.dtype.kind not in "iuf" or not np.all(np.isfinite(raw)):
            raise ValueError("counts must be integers")
        if raw.dtype.kind == "f" and not np.all(raw == np.floor(raw)):
            raise ValueError("counts must be integers")
        if raw.size and (raw.min() < 1 or raw.max() > MAX_COUNT):
            raise ValueError(f"counts must lie in [1, 2**53]; got {raw.min()} to {raw.max()}")
        c = raw.astype(np.int64)
    c.setflags(write=False)
    return c


def entropy(pi):
    """Shannon entropy (natural log, 0 log 0 = 0) along the last axis: a float for a
    vector, an (...) array for (..., M) rows.  Exactly 0 for at most one positive
    entry (a point mass, even one that rounds off 1), and never negative."""
    arr = np.atleast_1d(np.asarray(pi, dtype=float))
    pos = arr > 0.0
    safe = np.where(pos, arr, 1.0)   # log 1 = 0 stands in for 0 log 0
    h = -np.sum(safe * np.log(safe), axis=-1)
    h = np.where((np.count_nonzero(pos, axis=-1) > 1) & (h > 0.0), h, 0.0)
    return float(h) if arr.ndim == 1 else h


def zipf_profile(num_items: int, power: float, activity: float = 1.0) -> np.ndarray:
    """Request probabilities proportional to rank^-power, scaled to ``activity``.

    ``activity`` is the total request probability of the slot, i.e. one minus
    its silence.
    """
    if num_items < 1:
        raise ValueError("need at least one item")
    if not 0.0 <= activity <= 1.0:
        raise ValueError(f"activity must lie in [0, 1], got {activity}")
    ranks = np.arange(1, num_items + 1, dtype=float)
    weights = ranks ** (-float(power))
    return activity * weights / weights.sum()


def sample_outcomes(
    profile: DemandProfile, slot: int, seed: int, count: int
) -> np.ndarray:
    """Outcome codes of ``count`` samples for one slot; shape (N, count).

    The slot's rows of :meth:`DemandProfile.draws`, read back from the kept
    index alone, so repeated calls draw nothing new.
    """
    return profile.draw_index(seed, count)[slot % profile.num_slots] % (profile.num_items + 1)
