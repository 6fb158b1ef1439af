"""Penalty specifications for the IRWLS updates.

Three estimation flavors share one update shape: the unpenalized ML
solve, the ridge solve with a positive lambda on the Gram diagonal, and
the Liu-type solve which additionally moves the right-hand side by
``-d`` times an anchor vector (the ridge estimate of the same block).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Penalty"]


@dataclass(frozen=True)
class Penalty:
    """One penalty configuration for a single coefficient block.

    Every coordinate, the intercept included, is penalized. For a
    coefficient vector b the penalty term of the maximized objective is
    ``-lam/2 * b'b`` (ridge) plus ``-d * b'anchor`` (Liu-type), so the
    Liu-type normal equations are ``(gram + lam*I) b = rhs - d*anchor``.
    """

    kind: str  # "ml" | "ridge" | "liu"
    lam: float = 0.0
    d: float = 0.0
    anchor: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("ml", "ridge", "liu"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.kind in ("ridge", "liu") and not self.lam > 0.0:
            raise ValueError("ridge/liu penalties need lam > 0")

    @staticmethod
    def ml() -> "Penalty":
        return Penalty(kind="ml")

    @staticmethod
    def ridge(lam: float) -> "Penalty":
        return Penalty(kind="ridge", lam=float(lam))

    @staticmethod
    def liu_type(lam: float, d: float,
                 anchor: np.ndarray | None = None) -> "Penalty":
        """Liu-type penalty; ``anchor=None`` means self-anchored.

        A self-anchored penalty takes the ridge solve of the system
        being updated as its anchor (resolved inside the update), which
        is the estimator whose variance the tuning MSE describes.
        """
        if anchor is not None:
            anchor = np.asarray(anchor, dtype=float)
        return Penalty(kind="liu", lam=float(lam), d=float(d), anchor=anchor)

    def with_anchor(self, anchor: np.ndarray) -> "Penalty":
        return Penalty(kind=self.kind, lam=self.lam, d=self.d,
                       anchor=np.asarray(anchor, dtype=float))

    def _concrete_anchor(self) -> np.ndarray:
        if self.anchor is None:
            raise ValueError("self-anchored penalty: resolve the anchor "
                             "(ridge solve of the target system) first")
        return self.anchor

    def value(self, coef: np.ndarray) -> float:
        """Penalty contribution to the objective being maximized."""
        if self.kind == "ml":
            return 0.0
        val = -0.5 * self.lam * float(np.sum(coef * coef))
        if self.kind == "liu":
            val -= self.d * float(np.sum(coef * self._concrete_anchor()))
        return val

    def gradient(self, coef: np.ndarray) -> np.ndarray:
        """Penalty contribution to the objective gradient."""
        if self.kind == "ml":
            return np.zeros_like(coef)
        grad = -self.lam * coef
        if self.kind == "liu":
            grad = grad - self.d * self._concrete_anchor()
        return grad
