"""Mean-square performance prediction for the constrained logarithmic-cost filter.

The weight-deviation correlation Phi(n) = E[wt(n) wt(n)^T] (wt = optimal minus
current weights, confined to range(P)) follows the L x L recursion

    Phi(n+1) = Phi - mu h_G(n) (Phi M + M Phi) + mu^2 h_U(n) M,    M = P R P,

with msd(n) = trace(Phi(n)), emse(n) = trace(R Phi(n)); it is the symmetric
part of the L^2 x L^2 map

    vec(Phi) <- (I - 2 mu h_G kron(M, I)) vec(Phi) + mu^2 h_U vec(M),

which the test oracle `variance_transition` in tests/test_theory.py builds.
`transient_sweep` steps it in the eigenbasis of M = Q Lambda Q^T (one
`eigh` per sweep), where it is elementwise: Psi = Q^T Phi Q follows

    Psi_ij <- Psi_ij (1 - mu h_G (lambda_i + lambda_j)) + mu^2 h_U lambda_i [i = j],

with emse = <Q^T R Q, Psi>, msd = trace(Psi), and Phi = Q Psi Q^T rebuilt
once, at the end. A sweep steps every step size at once, one row each;
rows share no arithmetic (elementwise updates, and one small readout
product per row instead of one matrix product over all rows), so a row is
bit-identical to its step size run alone.

The moment functionals of g(e) = alpha e^3 / (1 + alpha e^2) for zero-mean
Gaussian e of variance sigma_e^2(n) = emse(n) + sigma_v^2 (Al-Naffouri &
Sayed, 2003),

    h_G = E[e g(e)] / E[e^2] = 1 - (1 - sqrt(pi) x erfcx(x)) / a,
    h_U = E[g^2(e)] = sigma_e^2 [(h_G - 3a)/(2a) + 5 h_G/2]      (Stein's identity),

depend on a = alpha sigma_e^2 = 1/(2 x^2) only. Both forms cancel for small a,
so `_kernel_moments` evaluates the pair by regime:

  a < 1e-3   moment series h_G = sum_k>=1 (-1)^(k+1) (2k+1)!! a^k and, termwise
             through the identity, h_U/sigma_e^2 = sum_k>=2 (-1)^k (k-1) (2k+1)!! a^k;
  a <= 0.5   continued fraction sqrt(pi) erfcx(x) = 1/(x + t1), t_k = (k/2)/(x + t_(k+1))
             at depth ceil(400 a) + 20; with D = (x + t1)(x + t2), sums of positive
             terms h_G = [x (t1 + t2) + t1 t2] / D, h_U/sigma_e^2 = t2 t3 (x t4 + 1/2) / D;
  a > 0.5    the closed forms above, with erfcx(x) = exp(x^2) erfc(x) from the
             math module (x < 1 here, so exp(x^2) < e).

Against 80-digit mpmath values on a = 1e-8 .. 1e6 (40 points per decade) the
relative error is at most 4.9e-16 for h_G and 2.3e-15 for h_U.

The steady-state closed form uses the small-error approximation
h_G ~ 3 alpha sigma_e^2, h_U ~ 15 alpha^2 sigma_e^6, which turns the
fixed-point condition into a quadratic in the excess error power:

    emse(inf) = (1 - 5 alpha mu b sv2 - sqrt(1 - 10 alpha mu b sv2)) / (5 alpha mu b),

with b = trace(M R M^+). The minus root is the physical one (it vanishes with
the noise). It is accurate for alpha sigma_e^2 << 1; the transient recursion
never uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet
from .kernels import AlgorithmParams, DivergenceError
from .simulation import SignalModel, optimal_constrained_wiener


@dataclass(frozen=True)
class GaussianErrorModel:
    """Zero-mean Gaussian error with variance sigma_e2, kernel parameter alpha."""

    sigma_e2: float
    alpha: float

    def __post_init__(self):
        if self.sigma_e2 < 0:
            raise ValueError(f"error variance must be >= 0, got {self.sigma_e2}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")


@dataclass(eq=False)
class TheoryTrace:
    """Predicted transient curves; weight_correlation is the final Phi."""

    msd: np.ndarray  # E||wt(n)||^2, n = 0..N
    emse: np.ndarray  # E||wt(n)||^2_R, n = 0..N
    weight_correlation: np.ndarray  # Phi(N), L x L
    # first iteration whose msd or emse was non-finite; None if none was
    diverged_at: int | None = None


@dataclass(frozen=True)
class SteadyStatePrediction:
    """Closed-form asymptotic values (NaN fields when the regime is invalid)."""

    emse: float
    msd: float
    beta_factor: float
    hG_ss: float
    hU_ss: float
    discriminant: float
    valid: bool


_SERIES_MAX = 1e-3  # below: moment series
_CF_MAX = 0.5  # up to here: continued fraction; above: erfcx closed form
_SQRT_PI = math.sqrt(math.pi)


def _kernel_moments(a: float) -> tuple[float, float]:
    """(h_G, h_U / sigma_e2) at a = alpha sigma_e2, without cancellation."""
    if a == 0.0:
        return 0.0, 0.0
    if a < _SERIES_MAX:
        # t = (2k+1)!! a^k shrinks by (2k+3) a per term, so the terms are
        # negligible long before the asymptotic series turns
        hg = hu = 0.0
        t, k, sign = 3.0 * a, 1, 1.0
        while True:
            hg += sign * t
            hu -= sign * (k - 1) * t
            if k > 1 and (k - 1) * t <= 1e-17 * hu:
                return hg, hu
            k += 1
            t *= (2 * k + 1) * a
            sign = -sign
    x = 1.0 / math.sqrt(2.0 * a)
    if a <= _CF_MAX:
        # sqrt(pi) erfcx(x) = 1/(x + t1), t_k = (k/2)/(x + t_{k+1})
        t = 0.0
        for k in range(math.ceil(400.0 * a) + 20, 4, -1):
            t = 0.5 * k / (x + t)
        t4 = 2.0 / (x + t)
        t3 = 1.5 / (x + t4)
        t2 = 1.0 / (x + t3)
        t1 = 0.5 / (x + t2)
        den = (x + t1) * (x + t2)
        return (x * (t1 + t2) + t1 * t2) / den, t2 * t3 * (x * t4 + 0.5) / den
    hg = 1.0 - (1.0 - _SQRT_PI * x * (math.exp(x * x) * math.erfc(x))) / a
    return hg, hg / (2.0 * a) + 2.5 * hg - 1.5


def h_G(model: GaussianErrorModel) -> float:
    """Gradient-correlation functional E[e g(e)] / E[e^2], in (0, 1).

    A function of a = alpha sigma_e2 alone (closed form in the module
    docstring): 3a for small a, 1 for large a; relative error <= 4.9e-16.
    """
    return _kernel_moments(model.alpha * model.sigma_e2)[0]


def h_U(model: GaussianErrorModel) -> float:
    """Squared-kernel power E[g^2(e)], in (0, sigma_e2).

    sigma_e2 [(h_G - 3a)/(2a) + 5 h_G/2] with a = alpha sigma_e2, by Stein's
    identity: 15 a^2 sigma_e2 for small a, sigma_e2 for large a; relative
    error <= 2.3e-15.
    """
    return model.sigma_e2 * _kernel_moments(model.alpha * model.sigma_e2)[1]


def transient_sweep(
    scenario: SignalModel,
    cs: ConstraintSet,
    params: AlgorithmParams,
    mus,
    w0: np.ndarray,
    N: int,
) -> list[TheoryTrace]:
    """Iterate the variance recursion from w(0) = w0 for N steps at each step
    size in `mus` (params.mu is not used), all at once in M's eigenbasis.

    The initial deviation is projected onto range(P), matching the
    feasible-start convention of the simulations. Each trace holds
    msd(n) = trace(Phi) and emse(n) = trace(R Phi) for n = 0..N and does not
    depend on the other step sizes. A row whose msd or emse turns non-finite
    at iteration n stops there: its trace records diverged_at = n, its
    curves are NaN from n on, and the other rows run on.
    """
    if N < 1:
        raise ValueError(f"need at least one iteration, got N={N}")
    mus = [float(mu) for mu in mus]
    if not mus:
        raise ValueError("need at least one step size")
    R = scenario.R
    w_o = optimal_constrained_wiener(scenario, cs)
    lam, Q = np.linalg.eigh(cs.P @ R @ cs.P)
    x0 = Q.T @ (cs.P @ (w_o - np.asarray(w0, dtype=float)))
    L, B = len(lam), len(mus)
    lam_sum = (lam[:, None] + lam).ravel()  # lambda_i + lambda_j
    lam_diag = np.diag(lam).ravel()
    # psi . read[:, 0] = <Q^T R Q, Psi> = emse, psi . read[:, 1] = trace(Psi) = msd
    read = np.stack([(Q.T @ R @ Q).ravel(), np.eye(L).ravel()], axis=1)

    psi = np.tile(np.outer(x0, x0).ravel(), (B, 1))  # row b: vec(Psi) at mus[b]
    psi_rows = psi[:, None, :]
    curves = np.empty((N + 1, B, 1, 2))  # [n, b, 0] = (emse, msd)
    gain, drive = np.zeros(B), np.zeros(B)  # mu h_G and mu^2 h_U sigma_e^2 per row
    gain_col, drive_col = gain[:, None], drive[:, None]
    decay, forced = np.empty_like(psi), np.empty_like(psi)
    diverged_at: list[int | None] = [None] * B
    active = list(range(B))
    alpha, sv2 = params.alpha, scenario.sigma_v2
    # divergence is detected through the readout; silence the transient
    # inf/nan arithmetic that precedes it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N + 1):
            # one small product per row, so a row's rounding is its own
            rows = np.matmul(psi_rows, read, out=curves[n]).tolist()
            for b in list(active):
                ((emse_n, msd_n),) = rows[b]
                if not (math.isfinite(emse_n) and math.isfinite(msd_n)):
                    # frozen from here: a unit decay and no drive
                    diverged_at[b] = n
                    active.remove(b)
                    gain[b] = drive[b] = 0.0
                    continue
                se2 = max(emse_n, 0.0) + sv2
                hg, hu = _kernel_moments(alpha * se2)
                gain[b] = mus[b] * hg
                drive[b] = mus[b] * mus[b] * hu * se2
            if n == N or not active:
                break
            # Psi <- Psi o (1 - mu h_G (lambda_i + lambda_j)) + mu^2 h_U sigma_e^2 Lambda
            np.subtract(1.0, np.multiply(gain_col, lam_sum, out=decay), out=decay)
            psi *= decay
            psi += np.multiply(drive_col, lam_diag, out=forced)

    traces = []
    for b in range(B):
        if diverged_at[b] is not None:
            curves[diverged_at[b]:, b] = np.nan
        phi = Q @ psi[b].reshape(L, L) @ Q.T
        traces.append(TheoryTrace(
            msd=curves[:, b, 0, 1].copy(),
            emse=curves[:, b, 0, 0].copy(),
            weight_correlation=0.5 * (phi + phi.T),
            diverged_at=diverged_at[b],
        ))
    return traces


def transient_predictor(
    scenario: SignalModel,
    cs: ConstraintSet,
    params: AlgorithmParams,
    w0: np.ndarray,
    N: int,
) -> TheoryTrace:
    """Iterate the variance recursion from w(0) = w0 for N steps at params.mu.

    The one-step-size case of `transient_sweep`; raises DivergenceError
    (with the iteration) where that would record diverged_at.
    """
    (trace,) = transient_sweep(scenario, cs, params, [params.mu], w0, N)
    if trace.diverged_at is not None:
        raise DivergenceError(
            f"theory recursion diverged at iteration {trace.diverged_at}",
            iteration=trace.diverged_at,
        )
    return trace


def steady_state_emse(
    scenario: SignalModel, cs: ConstraintSet, params: AlgorithmParams
) -> SteadyStatePrediction:
    """Closed-form steady-state excess MSE and MSD.

    beta_factor = vec(M)^T kron(M, I)^+ vec(R) = trace(M R M^+), M = P R P:
    the factored pseudo-inverse acts only on the deviation subspace
    range(P) where the weight error lives. A negative
    discriminant (step size too large for the asymptotic model) is
    reported via valid=False with NaN predictions.
    """
    R = scenario.R
    M = cs.P @ R @ cs.P
    Mp = np.linalg.pinv(M, hermitian=True)
    beta = float(np.trace(M @ R @ Mp))
    beta_msd = float(np.trace(M @ Mp))  # = rank(P R P) = L - K

    mu, alpha = params.mu, params.alpha
    sv2 = scenario.sigma_v2
    disc = 1.0 - 10.0 * alpha * mu * beta * sv2
    if disc < 0.0:
        nan = float("nan")
        return SteadyStatePrediction(
            emse=nan, msd=nan, beta_factor=beta, hG_ss=nan, hU_ss=nan,
            discriminant=disc, valid=False,
        )

    # minus root, in the cancellation-free form
    # (1 - b - sqrt(1 - 2b)) / (5 a mu beta) == 5 a mu beta sv2^2 / (1 - b + sqrt(1 - 2b))
    # with b = 5 a mu beta sv2; also covers mu = 0 (zeta = 0) smoothly
    b = 5.0 * alpha * mu * beta * sv2
    zeta = (5.0 * alpha * mu * beta * sv2 * sv2) / (1.0 - b + np.sqrt(disc))
    se2 = zeta + sv2
    hg_ss = 3.0 * alpha * se2
    hu_ss = 15.0 * alpha**2 * se2**3
    xi = 0.5 * mu * 5.0 * alpha * se2 * se2 * beta_msd
    return SteadyStatePrediction(
        emse=float(zeta), msd=float(xi), beta_factor=beta,
        hG_ss=float(hg_ss), hU_ss=float(hu_ss),
        discriminant=float(disc), valid=True,
    )
