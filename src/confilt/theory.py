"""Mean-square performance prediction for the constrained logarithmic-cost filter.

The weight-deviation correlation Phi(n) = E[wt(n) wt(n)^T] (wt = optimal minus
current weights, confined to range(P)) follows the L x L recursion

    Phi(n+1) = Phi - mu h_G(n) (Phi M + M Phi) + mu^2 h_U(n) M,    M = P R P,

with msd(n) = trace(Phi(n)), emse(n) = trace(R Phi(n)); the test oracle
`variance_transition` in tests/test_theory.py steps it in full.
`transient_sweep` is the one entry point: it steps every step size at once,
one row each, and one step size is the one-row sweep.

Only psi_i = (Q^T Phi Q)_ii is needed, M = Q Lambda Q^T. The initial
deviation x0 = P(w_o - w0) lies in range(P) and PM = MP = M, so Phi = P Phi P
at every step, and emse = trace(M Phi) = sum_i lambda_i psi_i, msd = sum_i psi_i.
There Psi steps to Psi - mu h_G (Psi Lambda + Lambda Psi) + mu^2 h_U Lambda,
whose diagonal reads only the diagonal, and h_G, h_U depend on emse alone,
so each psi_i steps on its own and no off-diagonal entry is ever needed:

    psi_i <- psi_i (1 - 2 mu h_G lambda_i) + mu^2 h_U lambda_i,    psi_i(0) = (Q^T x0)_i^2.

Only the L - K modes of range(P) are stepped, K the number of constraints.
M's other K eigenvectors span range(C), which x0 never enters: there
lambda_i = 0 and psi_i(0) = 0, so psi_i stays 0. On range(P), M acts as
U^T R U (P = U U^T), whose eigenvalues are at least lambda_min(R) > 0 by
interlacing, so the null modes are `eigh`'s first K; rounding leaves their
lambda_i at O(eps ||R||) and psi_i(0) at O((eps kappa(R))^2 ||x0||^2).

Any R but r I takes one `eigh` per sweep and one Python float per mode and
row. White input, R exactly r I (`white_input_power`; `white_signal_model`
builds it so), is the one-mode case: all L - K modes have lambda_i = r and
step alike, so psi = trace(Phi) = msd steps alone from psi(0) = ||x0||^2:

    psi <- psi (1 - 2 mu h_G r) + mu^2 h_U r (L - K),    emse = r psi:

one float per row and no eigendecomposition. One loop steps both forms;
each mode's drive carries its multiplicity, 1 or L - K.

Each row is a loop in Python floats that shares no arithmetic with the
others, so a row is bit-identical to its step size run alone. A diverged
row is data, not an error: it runs on in inf/NaN (a non-finite state never
turns finite again, and float arithmetic never warns), and its trace
records the first non-finite readout as diverged_at.

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
from operator import mul

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
    alpha: float,
    mus,
    w0: np.ndarray,
    N: int,
) -> list[TheoryTrace]:
    """Iterate the variance recursion (kernel parameter `alpha`) from w(0) = w0
    for N steps at each step size in `mus`, one float per mode of range(P)
    and step size: the L - K largest eigenvalues of M = P R P from one
    `eigh`, or, when R is exactly r I, the single mode r of multiplicity
    L - K and no `eigh`.

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
    w_o = optimal_constrained_wiener(scenario, cs)
    dev = cs.P @ (w_o - np.asarray(w0, dtype=float))
    # the loop steps Python floats, whose arithmetic on a diverged row
    # never warns; a non-finite state never turns finite again
    r = white_input_power(scenario.R)
    if r is not None:
        # one mode, lambda = r with multiplicity trace(P) = L - K
        lam, psi0 = [r], [float(dev @ dev)]
        weights = [(cs.C.shape[0] - cs.C.shape[1]) * r]
    else:
        # the K smallest eigenpairs are M's null modes, range(C)
        K = cs.C.shape[1]
        lam, Q = np.linalg.eigh(cs.P @ scenario.R @ cs.P)
        lam, psi0 = lam[K:].tolist(), ((Q[:, K:].T @ dev) ** 2).tolist()
        weights = lam
    curves = _eigen_rows(lam, weights, psi0, alpha, scenario.sigma_v2, mus, N)
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


def _eigen_rows(lam, weights, psi0, alpha, sv2, mus, N):
    """Curves [n, b] = (emse, msd) from the modes of range(P): eigenvalues
    `lam` of M, drive weights m_i lam_i (m_i the multiplicity of mode i) and
    psi0 = the deviation's energy in each mode, one float per mode and row."""
    curves = np.empty((N + 1, len(mus), 2))
    for b, mu in enumerate(mus):
        shrink = [2.0 * mu * li for li in lam]
        drive = [mu * mu * wi for wi in weights]
        psi = psi0
        readouts = array("d")  # emse, msd of each step, unboxed
        for n in range(N + 1):
            emse = sum(map(mul, lam, psi))
            readouts.append(emse)
            readouts.append(sum(psi))
            if n == N:
                break
            se2 = max(emse, 0.0) + sv2
            hg, hu = _kernel_moments(alpha * se2)
            # psi_i <- psi_i (1 - 2 mu h_G lambda_i) + mu^2 h_U m_i lambda_i, h_U = hu se2
            hu *= se2
            psi = [x * (1.0 - s * hg) + d * hu for x, s, d in zip(psi, shrink, drive)]
        curves[:, b] = np.frombuffer(readouts).reshape(N + 1, 2)
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
