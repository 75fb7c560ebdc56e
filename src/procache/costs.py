"""Per-slot transmission cost families.

A cost model maps a nonnegative slot load to a scalar cost and must be
smooth, strictly increasing, and strictly convex on its domain.  Three
families are provided:

* ``quadratic``: C(L) = L^2
* ``outage``: C(L) = L / (mu - L) on [0, mu); loads at or above mu raise
  :class:`CostDomainError` rather than being clipped
* ``polynomial``: nonnegative coefficients, degree at least 2

Monotonicity and strict convexity are probed numerically on a grid at
construction time, so a family extension that fails either property is
rejected immediately instead of corrupting downstream optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_PROBE_POINTS = 1000


class CostDomainError(ValueError):
    """Load outside the cost model's domain (e.g. at or beyond outage capacity)."""

    def __init__(self, load: float, limit: float):
        self.load = float(load)
        self.limit = float(limit)
        super().__init__(
            f"load {self.load:.6g} outside cost domain [0, {self.limit:.6g})"
        )


@dataclass(frozen=True)
class CostModel:
    """One cost family instance.  Use the classmethod constructors."""

    kind: str
    mu: float = 0.0
    coeffs: tuple[float, ...] = field(default=())

    @classmethod
    def quadratic(cls) -> "CostModel":
        return cls(kind="quadratic")

    @classmethod
    def outage(cls, mu: float) -> "CostModel":
        if not mu > 0:
            raise ValueError(f"outage capacity must be positive, got {mu}")
        model = cls(kind="outage", mu=float(mu))
        model._probe()
        return model

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
        model = cls(kind="polynomial", coeffs=c)
        model._probe()
        return model

    @property
    def degree(self) -> int:
        if self.kind == "quadratic":
            return 2
        if self.kind == "polynomial":
            return len(self.coeffs) - 1
        raise ValueError(f"degree undefined for {self.kind} cost")

    @property
    def domain_limit(self) -> float:
        return self.mu if self.kind == "outage" else np.inf

    def poly_coeffs(self) -> tuple[float, ...]:
        """(c0, c1, c2, ...) when the family is a polynomial, else error."""
        if self.kind == "quadratic":
            return (0.0, 0.0, 1.0)
        if self.kind == "polynomial":
            return self.coeffs
        raise ValueError(f"{self.kind} cost has no polynomial coefficients")

    def cost(self, load):
        """C(load); vectorized, raises CostDomainError outside the domain."""
        arr = np.asarray(load, dtype=float)
        self._check_domain(arr)
        if self.kind == "quadratic":
            out = arr * arr
        elif self.kind == "outage":
            out = np.subtract(self.mu, arr, out=np.empty_like(arr))   # one buffer, no temporary
            np.divide(arr, out, out=out)
        else:
            out = self._horner(arr, self.coeffs)
        return float(out) if np.ndim(load) == 0 else out

    def marginal(self, load):
        """C'(load); vectorized, same domain rules as :meth:`cost`."""
        arr = np.asarray(load, dtype=float)
        self._check_domain(arr)
        if self.kind == "quadratic":
            out = 2.0 * arr
        elif self.kind == "outage":
            out = np.subtract(self.mu, arr, out=np.empty_like(arr))
            out *= out
            np.divide(self.mu, out, out=out)
        else:
            deriv = tuple(j * c for j, c in enumerate(self.coeffs))[1:]
            out = self._horner(arr, deriv)
        return float(out) if np.ndim(load) == 0 else out

    def second(self, load):
        """C''(load); vectorized, same domain rules as :meth:`cost`."""
        arr = np.asarray(load, dtype=float)
        self._check_domain(arr)
        if self.kind == "quadratic":
            out = np.full_like(arr, 2.0)
        elif self.kind == "outage":
            out = np.subtract(self.mu, arr, out=np.empty_like(arr))
            out *= out * out
            np.divide(2.0 * self.mu, out, out=out)
        else:
            deriv = tuple(j * (j - 1) * c for j, c in enumerate(self.coeffs))[2:]
            out = self._horner(arr, deriv)
        return float(out) if np.ndim(load) == 0 else out

    def in_domain(self, load):
        """Boolean mask of loads where the cost is finite; tiny negatives pass."""
        arr = np.asarray(load, dtype=float)
        ok = arr >= -1e-9
        if self.kind == "outage":
            ok = ok & (arr < self.mu)
        return bool(ok) if np.ndim(load) == 0 else ok

    def _check_domain(self, arr: np.ndarray) -> None:
        if arr.size and float(np.min(arr)) < -1e-9:
            raise CostDomainError(float(np.min(arr)), self.domain_limit)
        if self.kind == "outage" and arr.size and float(np.max(arr)) >= self.mu:
            raise CostDomainError(float(np.max(arr)), self.mu)

    @staticmethod
    def _horner(arr: np.ndarray, coeffs) -> np.ndarray:
        out = np.zeros_like(arr)
        for c in reversed(coeffs):
            np.multiply(out, arr, out=out)   # one buffer, no temporaries
            out += c
        return out

    def _probe(self, probe_max: float = 100.0) -> None:
        # interior grid: C'(0) = 0 is legal (pure quadratic), so skip the origin
        hi = min(probe_max, self.domain_limit * (1.0 - 1e-6))
        grid = np.linspace(hi / _PROBE_POINTS, hi, _PROBE_POINTS)
        d1 = self.marginal(grid)
        if np.any(d1 <= 0):
            raise ValueError(f"{self.kind} cost is not strictly increasing")
        h = grid[1] - grid[0]
        d2 = np.diff(d1) / h
        if np.any(d2 <= 0):
            raise ValueError(f"{self.kind} cost is not strictly convex")
