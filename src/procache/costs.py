"""Per-slot transmission cost families.

A cost model maps a nonnegative slot load to a scalar cost and must be
smooth, strictly increasing, and strictly convex on its domain.  Three
families are provided:

* ``quadratic``: C(L) = L^2
* ``outage``: C(L) = L / (mu - L) on [0, mu); loads at or above mu raise
  :class:`CostDomainError` rather than being clipped
* ``polynomial``: nonnegative coefficients, degree at least 2

Each constructor's checks prove both properties: with mu > 0, or with
nonnegative coefficients, degree at least 2 and a positive leading one,
C' > 0 and C'' > 0 on (0, limit).  Each family's C, C' and C'' are one body,
``CostModel._derivative``, and every evaluation engine reads a cost through
``cost``, ``marginal`` and ``second`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class CostDomainError(ValueError):
    """Load outside the cost model's domain (e.g. at or beyond outage capacity)."""

    def __init__(self, load: float, limit: float):
        self.load = float(load)
        self.limit = float(limit)
        super().__init__(f"load {self.load:.6g} outside cost domain [0, {self.limit:.6g})")


@dataclass(frozen=True)
class CostModel:
    """One cost family instance.  Use the classmethod constructors."""

    kind: str
    mu: float = 0.0
    coeffs: tuple[float, ...] = field(default=())

    @classmethod
    def quadratic(cls) -> "CostModel":
        return cls(kind="quadratic", coeffs=(0.0, 0.0, 1.0))

    @classmethod
    def outage(cls, mu: float) -> "CostModel":
        if not mu > 0:
            raise ValueError(f"outage capacity must be positive, got {mu}")
        return cls(kind="outage", mu=float(mu))

    @classmethod
    def polynomial(cls, coeffs) -> "CostModel":
        """Polynomial cost with coefficients in ascending degree order."""
        c = tuple(float(v) for v in coeffs)
        if len(c) < 3:
            raise ValueError("polynomial cost needs degree >= 2")
        if any(v < 0 for v in c):
            raise ValueError("polynomial cost coefficients must be nonnegative")
        if c[-1] == 0.0:
            raise ValueError("leading polynomial coefficient must be positive")
        return cls(kind="polynomial", coeffs=c)

    @property
    def degree(self) -> int:
        if self.kind == "outage":
            raise ValueError("degree undefined for outage cost")
        return len(self.coeffs) - 1

    @property
    def domain_limit(self) -> float:
        return self.mu if self.kind == "outage" else np.inf

    def cost(self, load):
        """C(load); vectorized, raises CostDomainError outside the domain."""
        return self._derivative(load, 0)

    def marginal(self, load):
        """C'(load); vectorized, same domain rules as :meth:`cost`."""
        return self._derivative(load, 1)

    def second(self, load):
        """C''(load); vectorized, same domain rules as :meth:`cost`."""
        return self._derivative(load, 2)

    def _derivative(self, load, order: int):
        """The ``order``-th derivative of C at ``load``, order 0 to 2: one body per family."""
        arr = np.asarray(load, dtype=float)
        self._check_domain(arr)
        if self.kind == "quadratic":   # the fast path; Horner is slower per call
            out = arr * arr if order == 0 else 2.0 * arr if order == 1 else np.full_like(arr, 2.0)
        elif self.kind == "outage":
            out = np.subtract(self.mu, arr, out=np.empty_like(arr))   # one buffer, no temporary
            if order == 0:
                np.divide(arr, out, out=out)
            else:   # k! mu / (mu - L)^(k+1) as (root / (mu - L))^(k+1), root^(k+1) = k! mu,
                    # so no step leaves the float range unless the result does
                root = math.sqrt(self.mu) if order == 1 else float(np.cbrt(2.0) * np.cbrt(self.mu))
                np.divide(root, out, out=out)
                out *= out if order == 1 else out * out
        else:   # d^k/dL^k c_j L^j = j!/(j-k)! c_j L^(j-k)
            deriv = [math.perm(j, order) * c for j, c in enumerate(self.coeffs)]
            out = self._horner(arr, deriv[order:])
        return float(out) if arr.ndim == 0 else out

    def in_domain(self, load):
        """Boolean mask of loads where the cost is finite; tiny negatives pass."""
        arr = np.asarray(load, dtype=float)
        ok = arr >= -1e-9
        if self.kind == "outage":
            ok = ok & (arr < self.mu)
        return bool(ok) if np.ndim(load) == 0 else ok

    def _check_domain(self, arr: np.ndarray) -> None:
        if arr.size and arr.min() < -1e-9:
            raise CostDomainError(arr.min(), self.domain_limit)
        if self.kind == "outage" and arr.size and arr.max() >= self.mu:
            raise CostDomainError(arr.max(), self.mu)

    @staticmethod
    def _horner(arr: np.ndarray, coeffs) -> np.ndarray:
        out = np.zeros_like(arr)
        for c in reversed(coeffs):
            np.multiply(out, arr, out=out)   # one buffer, no temporaries
            out += c
        return out
