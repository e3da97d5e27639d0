"""Linear equality constraint machinery for constrained adaptive filters.

A constraint set ``C^T w = z`` (C of shape L x K, full column rank, K < L)
induces the orthogonal projector onto the null space of C^T,

    P = I - C (C^T C)^{-1} C^T,

and the minimum-norm feasible point

    f = C (C^T C)^{-1} z.

Every constrained update in this package is of the form
``w <- P (candidate) + f``, which keeps the iterate exactly feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class RankDeficiencyError(ValueError):
    """Constraint matrix does not have full column rank.

    Attributes
    ----------
    deficiency : int
        Number of dependent (redundant) columns detected.
    """

    def __init__(self, message: str, deficiency: int):
        super().__init__(message)
        self.deficiency = deficiency


@dataclass(frozen=True)
class ConstraintSet:
    """Constraint directions C, values z, projector P and offset f.

    Immutable after construction.
    """

    C: np.ndarray  # (L, K)
    z: np.ndarray  # (K,)
    P: np.ndarray  # (L, L), symmetric idempotent, P C = 0
    f: np.ndarray  # (L,), C^T f = z

    @property
    def n_taps(self) -> int:
        return self.C.shape[0]

    def residual(self, w: np.ndarray) -> float:
        """Max-norm feasibility residual ||C^T w - z||_inf."""
        return float(np.max(np.abs(self.C.T @ w - self.z)))

    def project(self, w: np.ndarray) -> np.ndarray:
        """Feasibility map w -> P w + f (identity on feasible points)."""
        return self.P @ w + self.f


# Condition-number ceiling for C^T C; beyond this the normal equations are
# numerically rank deficient.
_MAX_CONDITION = 1e12


def build_constraint_set(C: np.ndarray, z: np.ndarray) -> ConstraintSet:
    """Build projector and feasible offset for the constraints C^T w = z.

    Parameters
    ----------
    C : ndarray, shape (L, K)
        Constraint directions, one column per constraint. Must have full
        column rank with K < L.
    z : ndarray, shape (K,)
        Constraint values.

    Returns
    -------
    ConstraintSet

    Raises
    ------
    ValueError
        If K >= L or shapes disagree.
    RankDeficiencyError
        If C has dependent columns (condition number above 1e12).
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if C.ndim != 2:
        raise ValueError(f"constraint matrix must be 2-D, got ndim={C.ndim}")
    L, K = C.shape
    if K >= L:
        raise ValueError(
            f"need fewer constraints than taps: K={K} >= L={L}"
        )
    if z.shape != (K,):
        raise ValueError(f"constraint values must have shape ({K},), got {z.shape}")

    # Rank-revealing factorization instead of inverting C^T C directly.
    u, s, vt = np.linalg.svd(C, full_matrices=False)
    rank = int(np.sum(s > s[0] * (1.0 / _MAX_CONDITION))) if s[0] > 0 else 0
    if rank < K:
        raise RankDeficiencyError(
            f"constraint matrix is rank deficient: {K - rank} of {K} "
            f"columns are dependent",
            deficiency=K - rank,
        )

    # P = I - U U^T with U an orthonormal basis of range(C);
    # f = C (C^T C)^{-1} z = U diag(1/s) V z.
    P = np.eye(L) - u @ u.T
    f = u @ ((vt @ z) / s)
    P = 0.5 * (P + P.T)
    return ConstraintSet(C=C.copy(), z=z.copy(), P=P, f=f)


def linear_phase_constraints(L: int) -> ConstraintSet:
    """Constraints forcing a symmetric impulse response w_i = w_{L-1-i}.

    For even L the constraint matrix stacks I_{L/2} above -J_{L/2}
    (J the reversal matrix); for odd L a zero row separates the two
    blocks and the middle tap is unconstrained. z = 0, hence f = 0.
    """
    if L < 2:
        raise ValueError(f"filter length must be at least 2, got L={L}")
    half = L // 2
    J = np.eye(half)[::-1]
    if L % 2 == 0:
        C = np.vstack([np.eye(half), -J])
    else:
        C = np.vstack([np.eye(half), np.zeros((1, half)), -J])
    return build_constraint_set(C, np.zeros(half))
