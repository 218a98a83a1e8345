"""Error types shared across the package."""

from __future__ import annotations

__all__ = [
    "QuadratureConvergenceError",
    "EigenvalueLookupError",
    "CacheError",
    "ResolutionError",
]


class QuadratureConvergenceError(RuntimeError):
    """Panel quadrature did not reach tolerance within max_panels.

    Carries the offending (n, l) pairs and the partial values accumulated so
    far, so callers can report which modes failed.
    """

    def __init__(self, pairs, partial):
        self.pairs = list(pairs)
        self.partial = dict(partial)
        shown = ", ".join(f"({n},{l})" for n, l in self.pairs[:8])
        more = "" if len(self.pairs) <= 8 else f" and {len(self.pairs) - 8} more"
        super().__init__(
            f"eigenvalue quadrature did not converge within max_panels for {shown}{more}"
        )


class EigenvalueLookupError(KeyError):
    """Requested (n, l) is not stored in the eigenvalue table (no extrapolation)."""

    def __init__(self, n, l):
        self.n, self.l = n, l
        super().__init__(f"eigenvalue for (n={n}, l={l}) not in table")

    def __str__(self):  # KeyError quotes its payload; keep the message readable
        return f"eigenvalue for (n={self.n}, l={self.l}) not in table"


class CacheError(RuntimeError):
    """Cache file is corrupt or was produced by a different configuration."""


class ResolutionError(ValueError):
    """A quadrature rule or the integral it gives leaves the double range."""
