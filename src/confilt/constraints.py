"""Linear equality constraint machinery for constrained adaptive filters.

A constraint set ``C^T w = z`` (C of shape L x K, full column rank, K < L)
induces the orthogonal projector onto the null space of C^T,

    P = I - C (C^T C)^{-1} C^T,

and the minimum-norm feasible point

    f = C (C^T C)^{-1} z.

Every constrained update in this package is of the form
``w <- P (candidate) + f``. How feasible that keeps the iterate depends on
how P and f were formed:

- the linear-phase set (`linear_phase_constraints`) is built in closed
  form, C the first L // 2 columns of I - J, P = (I + J)/2 and f = 0,
  which floating point holds exactly: P w is
  exactly symmetric, so ``C^T w - z`` is exactly zero (linear-phase runs
  report ``max_residual=0``);
- a general C (`build_constraint_set`, used for the dc-gain constraint)
  takes P and f from an SVD, so ``C^T w - z`` is of the order of the
  machine epsilon rather than zero.
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

    def residual(self, w: np.ndarray) -> np.ndarray | float:
        """Max-norm feasibility residual ||C^T w - z||_inf of each weight
        vector along the last axis of `w` (a float for a single vector)."""
        return np.max(np.abs(np.matvec(self.C.T, w) - self.z), axis=-1)

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

    The constraint matrix is the first L // 2 columns of I - J_L (J the
    reversal matrix): column i is e_i - e_{L-1-i}, so for odd L the middle
    tap is unconstrained. z = 0, hence f = 0.

    P = (I + J_L)/2 is built directly, not by `build_constraint_set`: its
    entries 0, 1/2 and 1 (the middle tap of odd L) are exact, so P is
    exactly symmetric and idempotent, C^T P is exactly zero, and P w of a
    finite w is exactly symmetric, with residual exactly zero. An SVD of
    the same C gives P only to rounding (off by up to 4.4e-16).
    """
    if L < 2:
        raise ValueError(f"filter length must be at least 2, got L={L}")
    half = L // 2
    I, J = np.eye(L), np.eye(L)[::-1]
    P = 0.5 * (I + J)
    C = (I - J)[:, :half]
    return ConstraintSet(C=C, z=np.zeros(half), P=P, f=np.zeros(L))
