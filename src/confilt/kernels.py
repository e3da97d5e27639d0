"""Per-sample update steps for the constrained logarithmic-cost filter family.

These steps are the reference: the row engine in `simulation` performs
their floating-point operations in the same order and reproduces them bit
for bit, but calls none of them. The tests and perfbench call them. All
steps are pure: they take a :class:`FilterState` and return a new one; the
sparse steps return ``(FilterState, SparseStepAux)``.

The logarithmic-cost error kernel

    g(e) = alpha * e^3 / (1 + alpha * e^2)

behaves like a fourth-power cost for small errors (g ~ alpha e^3) and like
plain LMS for large ones (g -> e), trading fast initial convergence for a
low steady-state floor. At alpha = inf, g(e) = e exactly: each LMS member is
its log-kernel twin there, so `_step` and `_l1_step` are the family's two
update rules. Constrained variants project back with ``w <- P (.) + f``.

The sparse variants add a linearized l1-budget constraint s^T w = t on top
of the linear constraints; the reweighted flavor shrinks only inactive taps
by using an arctan surrogate for the l1 norm.

Importing this module loads no numpy: the sparse reference step `_l1_step`
imports it when it runs, and the other steps only apply operators to the
arrays they are given. So `cli` can check a config against `ALGORITHMS`
without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .constraints import ConstraintSet


class DivergenceError(RuntimeError):
    """A step produced a non-finite error or weight (adaptation diverged).

    Attributes
    ----------
    iteration : int
        Index of the first bad sample.
    """

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


class DegenerateDirectionError(RuntimeError):
    """The projected sign direction P s vanished; the l1 correction is
    undefined for this sample (constraint directions swallow the sign
    vector). Callers fall back to the corresponding non-sparse step.
    """

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class AlgorithmParams:
    """Hyper-parameters shared by the whole algorithm family.

    mu : step size (>= 0; 0 reduces every step to the feasibility map)
    alpha : logarithmic-cost design parameter (> 0; inf gives g(e) = e)
    t : l1 budget for the sparse variants; None means "resolve from the
        scenario's optimal solution" (done by the simulation layer)
    beta_slope : slope of the arctan reweighting (> 0)
    """

    mu: float
    alpha: float = 1.0
    t: float | None = None
    beta_slope: float = 10.0

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError(f"step size mu must be >= 0, got {self.mu}")
        if self.alpha <= 0:
            raise ValueError(f"design parameter alpha must be > 0, got {self.alpha}")
        if self.t is not None and self.t < 0:
            raise ValueError(f"l1 budget t must be >= 0, got {self.t}")
        if self.beta_slope <= 0:
            raise ValueError(f"beta_slope must be > 0, got {self.beta_slope}")


@dataclass(eq=False)
class FilterState:
    """Adaptive weight vector plus iteration counter."""

    w: np.ndarray
    n: int = 0


@dataclass(eq=False)
class SparseStepAux:
    """Internals of one sparse step, exposed for diagnostics and tests.

    s : sub-gradient / reweight direction used for the budget constraint
    Ps, q : the projected direction P s and q = P s / ||P s||^2; the step
        applies P - q (P s)^T to the input, which annihilates both C and
        the projected sign direction
    e_L1 : budget deviation driven to zero by the step
    f_L1 : budget correction added to the weight vector
    """

    s: np.ndarray
    Ps: np.ndarray
    q: np.ndarray
    e_L1: float
    f_L1: np.ndarray


def error_nonlinearity(e: float, alpha: float) -> float:
    """Logarithmic-cost kernel g(e) = alpha e^3 / (1 + alpha e^2).

    Odd, |g(e)| <= min(|e|, alpha |e|^3), and g(e) -> e as |e| grows. At
    alpha = inf, x = alpha e^2 is inf or NaN, so g(e) = e bit for bit.
    """
    x = alpha * e * e
    if not math.isfinite(x):
        # limit g(e) -> e for |e| -> inf, and every e at alpha = inf
        return e
    if x < 1.0 and abs(e) < 1e100:
        # e**3 first: dividing by 1 + x >= 1 cannot round above alpha |e|^3,
        # even when that bound is subnormal
        return alpha * e**3 / (1.0 + x)
    return e * (x / (1.0 + x))


def _error(state: FilterState, u: np.ndarray, d: float) -> float:
    if state.w.shape != u.shape:
        raise ValueError(f"weight/input shape mismatch: {state.w.shape} vs {u.shape}")
    # Python floats: 0 * inf at alpha = inf gives NaN without a numpy warning
    e = float(d) - float(state.w @ u)
    if not math.isfinite(e):
        raise DivergenceError(
            f"non-finite estimation error at iteration {state.n}", iteration=state.n
        )
    return e


def _step(
    state: FilterState, u: np.ndarray, d: float, params: AlgorithmParams, cs: ConstraintSet | None, alpha: float
) -> FilterState:
    """w <- w + mu g(e) u, then w <- P (.) + f when `cs` is given."""
    e = _error(state, u, d)
    w = state.w + (params.mu * error_nonlinearity(e, alpha)) * u
    if cs is not None:
        w = cs.P @ w + cs.f
    return FilterState(w=w, n=state.n + 1)


def lms_step(state: FilterState, u: np.ndarray, d: float, params: AlgorithmParams) -> FilterState:
    """Unconstrained LMS: w <- w + mu e u, lmls at alpha = inf."""
    return _step(state, u, d, params, None, math.inf)


def lmls_step(state: FilterState, u: np.ndarray, d: float, params: AlgorithmParams) -> FilterState:
    """Unconstrained logarithmic-cost step: w <- w + mu g(e) u."""
    return _step(state, u, d, params, None, params.alpha)


def clms_step(
    state: FilterState, u: np.ndarray, d: float, params: AlgorithmParams, cs: ConstraintSet
) -> FilterState:
    """Constrained LMS: w <- P (w + mu e u) + f, clmls at alpha = inf."""
    return _step(state, u, d, params, cs, math.inf)


def clmls_step(
    state: FilterState, u: np.ndarray, d: float, params: AlgorithmParams, cs: ConstraintSet
) -> FilterState:
    """Constrained logarithmic-cost step: w <- P (w + mu g(e) u) + f."""
    return _step(state, u, d, params, cs, params.alpha)


# Squared-norm threshold below which P s no longer defines a usable
# correction direction.
_DEGENERATE_PS2 = 1e-12


def _l1_step(
    state: FilterState,
    u: np.ndarray,
    d: float,
    params: AlgorithmParams,
    cs: ConstraintSet,
    alpha: float,
    reweighted: bool,
) -> tuple[FilterState, SparseStepAux]:
    import numpy as np

    e = _error(state, u, d)
    w, t = state.w, params.t
    if t is None:
        raise ValueError(
            "l1 budget t is unset; resolve it from the scenario before stepping"
        )

    if reweighted:
        beta = params.beta_slope
        s = (2.0 * beta / math.pi) * np.sign(w) / (beta * beta * w * w + 1.0)
        t_now = (2.0 / math.pi) * float(np.sum(np.arctan(beta * np.abs(w))))
    else:
        s = np.sign(w)
        t_now = float(s @ w)  # == ||w||_1

    Ps = cs.P @ s
    ps2 = float(Ps @ Ps)
    if ps2 < _DEGENERATE_PS2:
        raise DegenerateDirectionError(
            f"projected sign direction vanished at iteration {state.n} "
            f"(||P s||^2 = {ps2:.3e})",
            iteration=state.n,
        )
    q = Ps / ps2

    g = error_nonlinearity(e, alpha)
    e_l1 = t - t_now
    f_l1 = e_l1 * q

    Pu = cs.P @ u
    p_prime_u = Pu - q * float(Ps @ u)
    w_next = cs.P @ (w + (params.mu * g) * p_prime_u) + cs.f + f_l1

    aux = SparseStepAux(s=s, Ps=Ps, q=q, e_L1=e_l1, f_L1=f_l1)
    return FilterState(w=w_next, n=state.n + 1), aux


def l1_clmls_step(state, u, d, params: AlgorithmParams, cs: ConstraintSet):
    """Sparse constrained logarithmic-cost step with a hard l1 budget.

    Enforces C^T w = z and the linearized budget s^T w = t, with
    s = sign(w). Raises :class:`DegenerateDirectionError` when P s
    vanishes (e.g. all-zero weights).
    """
    return _l1_step(state, u, d, params, cs, params.alpha, reweighted=False)


def l1_wclmls_step(state, u, d, params: AlgorithmParams, cs: ConstraintSet):
    """Reweighted sparse constrained logarithmic-cost step.

    Uses s_j = (2 beta / pi) sign(w_j) / (beta^2 w_j^2 + 1) and drives the
    arctan budget (2/pi) sum_j arctan(beta |w_j|) toward t, so shrinkage
    concentrates on inactive taps.
    """
    return _l1_step(state, u, d, params, cs, params.alpha, reweighted=True)


def l1_clms_step(state, u, d, params: AlgorithmParams, cs: ConstraintSet):
    """Sparse constrained LMS baseline: l1-clmls at alpha = inf, g(e) = e."""
    return _l1_step(state, u, d, params, cs, math.inf, reweighted=False)


def l1_wclms_step(state, u, d, params: AlgorithmParams, cs: ConstraintSet):
    """Reweighted sparse constrained LMS baseline: l1-wclmls at alpha = inf."""
    return _l1_step(state, u, d, params, cs, math.inf, reweighted=True)


@dataclass(frozen=True)
class AlgorithmSpec:
    """Registry entry describing one algorithm's step function."""

    name: str
    step: object
    constrained: bool
    sparse: bool
    reweighted: bool
    log_kernel: bool


ALGORITHMS: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in [
        AlgorithmSpec("lms", lms_step, constrained=False, sparse=False, reweighted=False, log_kernel=False),
        AlgorithmSpec("lmls", lmls_step, constrained=False, sparse=False, reweighted=False, log_kernel=True),
        AlgorithmSpec("clms", clms_step, constrained=True, sparse=False, reweighted=False, log_kernel=False),
        AlgorithmSpec("clmls", clmls_step, constrained=True, sparse=False, reweighted=False, log_kernel=True),
        AlgorithmSpec("l1-clms", l1_clms_step, constrained=True, sparse=True, reweighted=False, log_kernel=False),
        AlgorithmSpec("l1-clmls", l1_clmls_step, constrained=True, sparse=True, reweighted=False, log_kernel=True),
        AlgorithmSpec("l1-wclms", l1_wclms_step, constrained=True, sparse=True, reweighted=True, log_kernel=False),
        AlgorithmSpec("l1-wclmls", l1_wclmls_step, constrained=True, sparse=True, reweighted=True, log_kernel=True),
    ]
}
