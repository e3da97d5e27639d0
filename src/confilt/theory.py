"""Mean-square performance prediction for the constrained logarithmic-cost filter.

The weight-deviation correlation Phi(n) = E[wt(n) wt(n)^T] (wt = optimal minus
current weights, confined to range(P)) follows the L x L recursion

    Phi(n+1) = Phi - mu h_G(n) (Phi M + M Phi) + mu^2 h_U(n) M,    M = P R P,

with msd(n) = trace(Phi(n)), emse(n) = trace(R Phi(n)); it is the symmetric
part of the L^2 x L^2 map

    vec(Phi) <- (I - 2 mu h_G kron(M, I)) vec(Phi) + mu^2 h_U vec(M),

which the test oracle `variance_transition` in tests/test_theory.py builds.
`transient_sweep` is the one entry point: it steps every step size at once,
one row each, and one step size is the one-row sweep. It takes one of two
forms, chosen by the input alone.

White input, R exactly r I (`white_input_power`; `white_signal_model`
builds it so): M = r P, the initial deviation x0 = P(w_o - w0) lies in
range(P) and the drive is proportional to P, so Phi(n) = a_n x0 x0^T + c_n P
for every n, with a_0 = 1, c_0 = 0 and

    a <- a (1 - 2 mu h_G r),    c <- c (1 - 2 mu h_G r) + mu^2 h_U r,
    msd = a ||x0||^2 + c (L - K),    emse = r msd,

K being the number of constraints. Each row is a scalar loop in Python
floats: no eigendecomposition and no L x L state.

Any other R is stepped in the eigenbasis of M = Q Lambda Q^T (one `eigh`
per sweep), where the recursion is elementwise: Psi = Q^T Phi Q follows

    Psi_ij <- Psi_ij (1 - mu h_G (lambda_i + lambda_j)) + mu^2 h_U lambda_i [i = j],

with emse = <Q^T R Q, Psi> and msd = trace(Psi). The two forms agree to
rounding on white input.

In both, rows share no arithmetic (scalar loops; elementwise updates, and
a readout by ``np.vecmat``, one small product per row, instead of one
matrix product over all rows), so a row is bit-identical to its step size
run alone. A diverged row is data, not an error: it runs on in inf/NaN (a
non-finite state never turns finite again), and its trace records the
first non-finite readout as diverged_at.

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

with b = trace(M R M^+), and msd(inf) = emse(inf) (L - K) / b, L - K being
trace(M M^+) = rank(M). Both factors hold in closed form for every positive
definite R: with U an orthonormal basis of range(P) (P = U U^T), M = U A U^T
with A = U^T R U invertible, so M^+ = U A^-1 U^T and

    M R M^+ = U A (U^T R U) A^-1 U^T = U A U^T = M,
    b = trace(M) = trace(P R P) = trace(R P),    trace(M M^+) = trace(P) = L - K.

The minus root is the physical one (it vanishes with the noise). It is
accurate for alpha sigma_e^2 << 1; the transient recursion never uses it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet
from .kernels import AlgorithmParams
from .simulation import SignalModel, optimal_constrained_wiener, white_input_power


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
    """Predicted transient curves."""

    msd: np.ndarray  # E||wt(n)||^2, n = 0..N
    emse: np.ndarray  # E||wt(n)||^2_R, n = 0..N
    # first iteration whose msd or emse was non-finite; None if none was
    diverged_at: int | None = None


@dataclass(frozen=True)
class SteadyStatePrediction:
    """Closed-form asymptotic values (NaN fields when the regime is invalid)."""

    emse: float
    msd: float
    beta_factor: float
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
    size in `mus` (params.mu is not used): as two scalars per step size when
    R is exactly r I, else all at once in M's eigenbasis.

    The initial deviation is projected onto range(P), matching the
    feasible-start convention of the simulations. Each trace holds
    msd(n) = trace(Phi) and emse(n) = trace(R Phi) for n = 0..N and does not
    depend on the other step sizes. A row whose msd or emse turns non-finite
    at iteration n runs on in inf/NaN like the others: its trace records
    diverged_at = n and its curves are NaN from n on; nothing is raised.
    """
    if N < 1:
        raise ValueError(f"need at least one iteration, got N={N}")
    mus = [float(mu) for mu in mus]
    if not mus:
        raise ValueError("need at least one step size")
    R = scenario.R
    w_o = optimal_constrained_wiener(scenario, cs)
    dev = cs.P @ (w_o - np.asarray(w0, dtype=float))
    r = white_input_power(R)  # None or a Python float, whose arithmetic on a diverged row never warns
    # a diverged row runs on in inf/nan, which never turns finite again;
    # silence that arithmetic, the readout records where it began
    with np.errstate(over="ignore", invalid="ignore"):
        if r is not None:
            curves = _white_rows(r, cs, dev, params.alpha, scenario.sigma_v2, mus, N)
        else:
            curves = _eigen_rows(R, cs.P, dev, params.alpha, scenario.sigma_v2, mus, N)
        # [n, b]: row b has diverged at or before iteration n
        bad = np.logical_or.accumulate(~np.isfinite(curves).all(axis=2))
        curves[bad] = np.nan
        return [
            TheoryTrace(
                msd=curves[:, b, 1].copy(),
                emse=curves[:, b, 0].copy(),
                diverged_at=int(np.argmax(bad[:, b])) if bad[-1, b] else None,
            )
            for b in range(len(mus))
        ]


def _white_rows(r, cs, dev, alpha, sv2, mus, N):
    """Curves [n, b] = (emse, msd) for R = r I, where Phi(n) = a_n dev dev^T
    + c_n P: two scalars per row, no L x L state."""
    xx = float(dev @ dev)
    rank = float(cs.C.shape[0] - cs.C.shape[1])  # trace(P) = L - K
    curves = np.empty((N + 1, len(mus), 2))
    for b, mu in enumerate(mus):
        shrink, drive = 2.0 * mu * r, mu * mu * r
        a, c = 1.0, 0.0
        readouts = array("d")  # emse, msd of each step, unboxed
        for n in range(N + 1):
            msd = a * xx + c * rank
            emse = r * msd
            readouts.append(emse)
            readouts.append(msd)
            if n == N:
                break
            se2 = max(emse, 0.0) + sv2
            hg, hu = _kernel_moments(alpha * se2)
            # a <- a (1 - 2 mu h_G r), c <- c (1 - 2 mu h_G r) + mu^2 h_U r, h_U = hu se2
            decay = 1.0 - shrink * hg
            a *= decay
            c = c * decay + drive * hu * se2
        curves[:, b] = np.frombuffer(readouts).reshape(N + 1, 2)
    return curves


def _eigen_rows(R, P, dev, alpha, sv2, mus, N):
    """Curves [n, b] = (emse, msd), stepped elementwise in the eigenbasis of
    M = P R P."""
    lam, Q = np.linalg.eigh(P @ R @ P)
    x0 = Q.T @ dev
    L, B = len(lam), len(mus)
    lam_sum = (lam[:, None] + lam).ravel()  # lambda_i + lambda_j
    lam_diag = np.diag(lam).ravel()
    # psi . read[:, 0] = <Q^T R Q, Psi> = emse, psi . read[:, 1] = trace(Psi) = msd
    read = np.stack([(Q.T @ R @ Q).ravel(), np.eye(L).ravel()], axis=1)

    psi = np.tile(np.outer(x0, x0).ravel(), (B, 1))  # row b: vec(Psi) at mus[b]
    curves = np.empty((N + 1, B, 2))  # [n, b] = (emse, msd)
    gain, drive = np.zeros((B, 1)), np.zeros((B, 1))  # mu h_G and mu^2 h_U sigma_e^2 per row
    decay, forced = np.empty_like(psi), np.empty_like(psi)
    for n in range(N + 1):
        # one small product per row, so a row's rounding is its own
        rows = np.vecmat(psi, read, out=curves[n]).tolist()
        for b, (emse_n, _) in enumerate(rows):
            se2 = max(emse_n, 0.0) + sv2
            hg, hu = _kernel_moments(alpha * se2)
            gain[b, 0] = mus[b] * hg
            drive[b, 0] = mus[b] * mus[b] * hu * se2
        if n == N:
            break
        # Psi <- Psi o (1 - mu h_G (lambda_i + lambda_j)) + mu^2 h_U sigma_e^2 Lambda
        np.subtract(1.0, np.multiply(gain, lam_sum, out=decay), out=decay)
        psi *= decay
        psi += np.multiply(drive, lam_diag, out=forced)
    return curves


def steady_state_emse(
    scenario: SignalModel, cs: ConstraintSet, params: AlgorithmParams
) -> SteadyStatePrediction:
    """Closed-form steady-state excess MSE and MSD.

    beta_factor = vec(M)^T kron(M, I)^+ vec(R) = trace(M R M^+), M = P R P,
    which equals trace(R P) for every positive definite R (module
    docstring); its MSD counterpart trace(M M^+) is L - K, K the number of
    constraints. Neither needs a factorisation. For white input R = r I,
    beta is taken as r (L - K), exact where P's diagonal carries rounding
    (the dc-gain projector). A negative discriminant (step size too large
    for the asymptotic model) is reported via valid=False with NaN
    predictions.
    """
    R = scenario.R
    r = white_input_power(R)
    rank = float(cs.C.shape[0] - cs.C.shape[1])  # trace(M M^+) = L - K
    beta = r * rank if r is not None else float(np.trace(R @ cs.P))

    mu, alpha = params.mu, params.alpha
    sv2 = scenario.sigma_v2
    disc = 1.0 - 10.0 * alpha * mu * beta * sv2
    if disc < 0.0:
        nan = float("nan")
        return SteadyStatePrediction(
            emse=nan, msd=nan, beta_factor=beta, discriminant=disc, valid=False,
        )

    # minus root, in the cancellation-free form
    # (1 - b - sqrt(1 - 2b)) / (5 a mu beta) == 5 a mu beta sv2^2 / (1 - b + sqrt(1 - 2b))
    # with b = 5 a mu beta sv2; also covers mu = 0 (zeta = 0) smoothly
    b = 5.0 * alpha * mu * beta * sv2
    zeta = (5.0 * alpha * mu * beta * sv2 * sv2) / (1.0 - b + np.sqrt(disc))
    se2 = zeta + sv2
    xi = 0.5 * mu * 5.0 * alpha * se2 * se2 * rank
    return SteadyStatePrediction(
        emse=float(zeta), msd=float(xi), beta_factor=beta,
        discriminant=float(disc), valid=True,
    )
