"""Scenario construction, signal generation and the Monte-Carlo harness.

System-identification scenarios feed a tapped delay line over a scalar
Gaussian stream (optionally AR(1)-filtered) into the adaptive filter and
compare it against the constrained Wiener optimum. Ensemble runs average
normalized squared deviation and excess error power over independent trials.

One row engine runs every ensemble. A row is one (step size, trial) pair;
the engine steps all rows of a pass at once as a (trials, step sizes, L)
weight array, in blocks of `_BLOCK` steps. The weights of a block go to a
ring of `_BLOCK` + 1 rows, and at the end of each block the rows' deviation
curves, divergence, fallback counts and residual checks for its steps are
computed from the ring. The block's curves then go to a consumer, which in
a sweep adds them to the ensemble sums, so a pass holds each trial's input
stream and desired signal and one block of weights, inputs and curves,
whatever the horizon. Trial k draws its signals once, from its own
generator seeded base_seed + k, and every step size of a sweep reuses that
draw (common random numbers). A row whose error turns non-finite has
diverged: it is dropped from the averages and counted. Where it diverges
after its first block, the blocks before were already added; the sweep
then restores that step size's sums and re-runs its other rows of the pass
(`run_step_size_sweep`).

Each row performs the floating-point operations of the per-sample step
functions in `kernels`, which stay as the reference, in the same order.
That needs row-independent kernels: dot products are ``np.vecdot`` and
projections ``np.matvec``, numpy's per-row gufuncs, which make for each row
the same BLAS call as the per-sample ``w @ u`` and ``P @ w``, whereas one
matrix product over all rows (``W @ P.T``) blocks its sums differently and
makes a row depend on its neighbours. A row is therefore bit-identical to
the per-sample loop whatever else shares its pass or block, and ensembles
are reduced in trial order, so results are reproducible bit for bit for a
given (config, base_seed).

Every step writes the error, mu g(e) and the next weights, projected
straight into the ring, into buffers reused from step to step, and so does
a non-sparse step with w + mu g(e) u. The sparse variants' direction and
budget terms are plain expressions, written term for term as
`kernels._l1_step` writes them; on one core at exp3's defaults they kept
each sweep's time within the spread of their earlier buffered form
(`_run_rows`). A trial's input and desired signal carry a step-size axis of
length one, and a per-row scalar that scales the row's vectors a tap axis
of length one, so that each broadcasts over the rows and taps it meets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constraints import ConstraintSet
from .kernels import _DEGENERATE_PS2, ALGORITHMS, AlgorithmParams

DB_FLOOR = -400.0
_RATIO_FLOOR = 10.0 ** (DB_FLOOR / 10.0)

_SIGMA_U2 = 1.0  # variance of the white input stream
_SPARSITIES = (0.0, 0.5, 0.9)  # zeroed share of the taps in each third
_WINDOW_FRAC = 0.1  # final share of a curve averaged for its steady state


class EnsembleDivergedError(RuntimeError):
    """Every trial at some step size of a sweep diverged; `results` holds the
    sweep's results, None where every trial diverged."""

    def __init__(self, message: str, results: list[RunResult | None]):
        super().__init__(message)
        self.results = results

    def __reduce__(self):
        return type(self), (str(self), self.results)


@dataclass(frozen=True)
class SystemSchedule:
    """Piecewise-constant true system: systems[k] is active on
    [boundaries[k], boundaries[k+1]) with an implicit final boundary at
    the horizon. A fixed system w is the one-segment schedule
    SystemSchedule((w,), (0,))."""

    systems: tuple[np.ndarray, ...]
    boundaries: tuple[int, ...]  # start index of each segment; first is 0

    def __post_init__(self):
        if len(self.systems) != len(self.boundaries) or self.boundaries[0] != 0:
            raise ValueError("schedule needs one start index per segment, first at 0")


def _as_schedule(w_sys: np.ndarray | SystemSchedule) -> SystemSchedule:
    if isinstance(w_sys, SystemSchedule):
        return w_sys
    return SystemSchedule((np.asarray(w_sys),), (0,))


@dataclass(frozen=True)
class SignalModel:
    """Input statistics, observation noise and the true system.

    R is the covariance of the tap-input vector. w_sys is always a
    SystemSchedule: a fixed system given as an array becomes the one-segment
    schedule.
    """

    R: np.ndarray
    sigma_v2: float
    w_sys: SystemSchedule
    input_kind: str = "white"
    rho: float = 0.0

    def __post_init__(self):
        if self.sigma_v2 < 0:
            raise ValueError(f"noise variance must be >= 0, got {self.sigma_v2}")
        if self.input_kind not in ("white", "ar1"):
            raise ValueError(f"unknown input kind {self.input_kind!r}")
        object.__setattr__(self, "w_sys", _as_schedule(self.w_sys))

    @property
    def n_taps(self) -> int:
        return self.R.shape[0]


def white_signal_model(sigma_v2: float, w_sys: np.ndarray | SystemSchedule) -> SignalModel:
    """White Gaussian tap inputs with unit variance.

    R is exactly sigma_u^2 I, with no rounding off the diagonal, so that
    `white_input_power` recognises it. Two closed forms rely on that, each
    in place of a LAPACK call: the constrained optimum P w_sys + f of
    `_optimum` (instead of two `solve`s) and the one-mode variance
    recursion of `theory.transient_sweep` (instead of `eigh`). The factor
    beta of `theory.steady_state_emse` needs no LAPACK call for any input;
    for white input it is sigma_u^2 (L - K), exact even where P's diagonal
    carries rounding.
    """
    L = len(_as_schedule(w_sys).systems[0])
    return SignalModel(R=_SIGMA_U2 * np.eye(L), sigma_v2=sigma_v2, w_sys=w_sys)


def white_input_power(R: np.ndarray) -> float | None:
    """r when the input covariance R is exactly r I with r > 0, else None.

    An exact test, with no tolerance: only then do the white-input closed
    forms equal the general formulas (`white_signal_model`). r is a Python
    float.
    """
    r = float(R[0, 0])
    return r if r > 0.0 and np.array_equal(R, r * np.eye(len(R))) else None


def ar1_signal_model(rho: float, sigma_v2: float, w_sys: np.ndarray | SystemSchedule) -> SignalModel:
    """AR(1) stream with unit stationary variance; R_ij = rho^|i-j|."""
    if not -1 < rho < 1:
        raise ValueError(f"AR(1) coefficient must be in (-1, 1), got {rho}")
    idx = np.arange(len(_as_schedule(w_sys).systems[0]))
    R = rho ** np.abs(idx[:, None] - idx[None, :])
    return SignalModel(R=R, sigma_v2=sigma_v2, w_sys=w_sys, input_kind="ar1", rho=rho)


def linear_phase_system(L: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit-norm system with symmetric impulse response."""
    half = (L + 1) // 2
    g = rng.standard_normal(half)
    w = np.concatenate([g, g[: L // 2][::-1]])
    return w / np.linalg.norm(w)


def noise_var_from_snr(snr_db: float, model: SignalModel) -> float:
    """Observation-noise variance that puts the desired signal of `model`
    at `snr_db` (the model's own sigma_v2 is not read).

    The signal power is that of the first segment's system w, scaled to unit
    norm: w^T R w / w^T w. Every system the experiments draw has unit norm,
    so this is the power w^T R w of the noiseless desired signal up to
    rounding, and exactly 1 for white unit-variance input. A schedule's
    later segments may carry other powers; the SNR is that of its first.
    """
    w = model.w_sys.systems[0]
    return float(w @ (model.R @ w) / (w @ w)) / (10.0 ** (snr_db / 10.0))


def _optimum(R: np.ndarray, w_sys: np.ndarray, cs: ConstraintSet | None) -> np.ndarray:
    """The Wiener solution h = R^{-1} p, or with a constraint set the
    constrained one, w_o = h + R^{-1} C (C^T R^{-1} C)^{-1} (z - C^T h).

    p = R w_sys by construction of the desired signal, so h = w_sys for
    every R. For white R = r I, w_o = P w_sys + f (the correction in the R
    metric is then the orthogonal projection), with no linear solve."""
    h = np.array(w_sys, dtype=float)
    if cs is None:
        return h
    if white_input_power(R) is not None:
        w_o = cs.project(h)
    else:
        rinv_c = np.linalg.solve(R, cs.C)
        w_o = h + rinv_c @ np.linalg.solve(cs.C.T @ rinv_c, cs.z - cs.C.T @ h)
    if not np.all(np.isfinite(w_o)):
        raise np.linalg.LinAlgError("constrained Wiener solution is not finite")
    return w_o


def optimal_constrained_wiener(model: SignalModel, cs: ConstraintSet) -> np.ndarray:
    """Constrained Wiener solution w_o = h + R^{-1} C (C^T R^{-1} C)^{-1} (z - C^T h)
    of a fixed system, the one-segment case of `segment_optima`.

    h = R^{-1} p = w_sys is the unconstrained optimum; the correction restores
    feasibility in the R metric. Raises TypeError for a schedule of more
    than one segment, and numpy.linalg.LinAlgError when R or C^T R^{-1} C is
    singular.
    """
    if len(model.w_sys.systems) > 1:
        raise TypeError("scheduled systems: use segment_optima()")
    return _optimum(model.R, model.w_sys.systems[0], cs)


def segment_optima(model: SignalModel, cs: ConstraintSet | None) -> list[np.ndarray]:
    """Per-segment reference optima: the constrained Wiener solution when a
    constraint set is given, otherwise the unconstrained one (h = w_sys)."""
    return [_optimum(model.R, w_sys, cs) for w_sys in model.w_sys.systems]


def generate_signals(
    model: SignalModel, length: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Tap-input matrix U (length x L) and desired signal d.

    The delay line starts from rest (zeros before n = 0). Draw order is
    stream first, then noise, so signals are reproducible per generator.
    """
    if length < 1:
        raise ValueError(f"need at least one sample, got {length}")
    L = model.n_taps
    x = rng.standard_normal(length)
    if model.input_kind == "ar1":
        rho = model.rho
        start = rng.standard_normal()  # stationary initial state
        c = math.sqrt(1.0 - rho * rho)
        # y[n] = c x[n] + rho y[n-1] from y[-1] = start: the operations of
        # scipy.signal.lfilter in its order, so the same bits without scipy
        y, p = [], rho * start
        for cx in (c * x).tolist():
            y.append(cx + p)
            p = rho * y[-1]
        x = np.array(y)
    padded = np.concatenate([np.zeros(L - 1), x])
    U = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(padded, L)[:, ::-1])
    v = math.sqrt(model.sigma_v2) * rng.standard_normal(length) if model.sigma_v2 > 0 else np.zeros(length)

    d = np.empty(length)
    starts = model.w_sys.boundaries
    for a, b, w_sys in zip(starts, (*starts[1:], length), model.w_sys.systems):
        d[a:b] = U[a:b] @ w_sys + v[a:b]
    return U, d


def sparse_system_schedule(L: int, horizon: int, rng: np.random.Generator) -> SystemSchedule:
    """Time-varying system whose sparsity steps up at thirds of the horizon,
    through 0, 50 and 90 % zero taps.

    Tap values are drawn once; each segment zeroes a nested subset of
    positions (round(L * sparsity) of them) and is rescaled to unit norm.
    """
    base = rng.standard_normal(L)
    order = rng.permutation(L)
    n_seg = len(_SPARSITIES)
    systems = []
    for s in _SPARSITIES:
        n_zero = int(round(L * s))
        w = base.copy()
        w[order[:n_zero]] = 0.0
        nrm = np.linalg.norm(w)
        if nrm == 0:
            raise ValueError(f"sparsity {s} removed every tap")
        systems.append(w / nrm)
    boundaries = tuple((k * horizon) // n_seg for k in range(n_seg))
    return SystemSchedule(systems=tuple(systems), boundaries=boundaries)


def l1_budget_for(w_o: np.ndarray, reweighted: bool, beta_slope: float) -> float:
    """Default l1 budget: the (possibly reweighted) norm of the optimum."""
    if reweighted:
        return float((2.0 / math.pi) * np.sum(np.arctan(beta_slope * np.abs(w_o))))
    return float(np.sum(np.abs(w_o)))


@dataclass(eq=False)
class RunResult:
    """Ensemble-averaged learning curves and the run's divergence, fallback
    and constraint-residual counts."""

    trials: int
    diverged_trials: int
    # per diverged trial, in trial order: the sample whose error was first
    # non-finite (horizon when only the final weights were)
    diverged_at: list[int]
    msd_db: np.ndarray  # 10 log10(mean ||w_o - w||^2 / ||w_o||^2)
    msd_ratio: np.ndarray  # linear-domain mean
    msd_ratio_se: np.ndarray  # ensemble standard error of the mean ratio
    emse: np.ndarray  # mean a-priori excess error power
    fallback_steps: int
    max_residual: float


def ratio_to_db(ratio: np.ndarray | float) -> np.ndarray | float:
    """10 log10 with the documented floor at -400 dB."""
    return 10.0 * np.log10(np.maximum(ratio, _RATIO_FLOOR))


def _resolve_references(
    model: SignalModel, cs: ConstraintSet | None, spec, params: AlgorithmParams
):
    """Per-segment (w_opt, params-with-budget) pairs and segment bounds."""
    optima = segment_optima(model, cs if spec.constrained else None)
    if spec.sparse and params.t is None:
        seg_params = [
            replace(params, t=l1_budget_for(w_o, spec.reweighted, params.beta_slope))
            for w_o in optima
        ]
    else:
        seg_params = [params] * len(optima)
    return optima, seg_params, list(model.w_sys.boundaries)


# Bytes of inputs and block buffers one engine pass may hold; larger
# ensembles run as several passes over consecutive trials. Each pass pays
# the step loop's per-step interpreter overhead again (about 0.35 s per pass
# of exp3 at its defaults), so this is the smallest of the budgets measured
# (16 to 64 MB) at which neither exp2-mu nor exp3 at its defaults ran
# slower; each then runs its 500 trials per sweep in 3 passes.
_PASS_BYTES = 40 << 20

# Steps per block. The block-end work (divergence, fallback and residual
# bookkeeping, the two curves, the consumer's trial-by-trial sums) runs once
# per block, so a longer block spreads its per-call overhead over more
# steps; but a trial's block buffers (weight ring, inputs, errors, curves)
# grow with it and, through `_trial_bytes`, cut the trials a pass holds.
# At 256 they already outweigh a trial's input stream and d: 101 against
# 80 KB at exp2-mu's defaults (L = 10, 3 step sizes, horizon 5000), 130
# against 96 KB at exp3's (L = 30, 1 step size, horizon 6000).
_BLOCK = 256

# Constrained runs check the constraint residual after every step whose
# index is a multiple of this.
_RESIDUAL_CHECK_EVERY = 100


def _log_kernel_rows(e: np.ndarray, alpha: float) -> np.ndarray:
    """`error_nonlinearity` elementwise, with the same roundings."""
    x = alpha * e * e
    # x < 1 implies the |e| < 1e100 guard unless alpha is tiny; a NaN max
    # fails the test. The cube is float_power, not power: it calls C pow as
    # Python's e**3 does, with no fast path that rounds differently.
    if alpha >= 1e-199 and np.maximum.reduce(x, axis=None) < 1.0:
        return alpha * np.float_power(e, 3.0) / (1.0 + x)
    cubic = x < 1.0
    if alpha < 1e-199:
        cubic &= np.abs(e) < 1e100
    g = e * (x / (1.0 + x))
    if cubic.any():
        g[cubic] = alpha * np.float_power(e[cubic], 3.0) / (1.0 + x[cubic])
    return np.where(np.isfinite(x), g, e)


@dataclass(eq=False)
class _Rows:
    """Outcomes of one engine pass, indexed [trial, step size]. The curves
    are not kept: each block's went to the pass's consumer."""

    diverged_at: np.ndarray  # first non-finite error; -1 if the row completed
    # diverged after the consumer was given its curves of the first block
    late: np.ndarray
    fallback_steps: np.ndarray
    max_residual: np.ndarray


def _run_rows(
    model: SignalModel,
    cs: ConstraintSet | None,
    algorithm: str,
    params: AlgorithmParams,
    mus: np.ndarray,
    seeds,
    horizon: int,
    consume,
) -> _Rows:
    """Step every (seed, mu) row through `horizon` samples at once.

    After each block of steps b, ..., b + k - 1, consume(b, msd_ratio, ea2)
    gets the block's curves as (trials, mus, k) views, valid until it
    returns; the rows that have diverged by the block's end are zero.
    """
    spec = ALGORITHMS[algorithm]
    optima, seg_params, starts = _resolve_references(model, cs, spec, params)
    L, T, n_mu = model.n_taps, len(seeds), len(mus)
    # each trial's input stream after L - 1 zeros, and its desired signal,
    # which broadcasts over the step sizes
    X = np.zeros((T, L - 1 + horizon))
    D = np.empty((horizon, T, 1))
    for t, seed in enumerate(seeds):
        inputs, D[:, t, 0] = generate_signals(model, horizon, np.random.default_rng(seed))
        X[t, L - 1:] = inputs[:, 0]
    taps = np.lib.stride_tricks.sliding_window_view(X, L, axis=1)[..., ::-1]  # [t, n] = u(n)

    w0 = np.zeros(L)
    if spec.constrained:
        P, f = cs.P, cs.f
        w0 = P @ w0 + f
    seg_of = np.searchsorted(starts, np.arange(horizon), side="right") - 1
    optima_rows = np.array(optima)
    norms = np.array([float(w @ w) for w in optima])
    alpha, beta = params.alpha, params.beta_slope

    diverged_at = np.full((T, n_mu), -1)
    fallback_steps = np.zeros((T, n_mu), dtype=int)
    max_residual = np.zeros((T, n_mu))

    # one block of steps b, ..., b + K - 1: ring[i] = w(b + i), and the
    # block's inputs (broadcast over the step sizes), errors, fallback flags
    # and curves
    K = min(_BLOCK, horizon)
    ring = np.empty((K + 1, T, n_mu, L))
    ring[0] = w0
    U = np.empty((K, T, 1, L))
    errors = np.empty((K, T, n_mu))
    degenerate = np.zeros((K, T, n_mu, 1), dtype=bool)  # P s vanished at step b + i
    msd_ratio = np.empty((T, n_mu, K))
    ea2 = np.empty((T, n_mu, K))

    # the non-sparse steps' buffers, reused by every step; a per-row scalar
    # that scales the row's vectors is a (T, mus, 1) column. Plain
    # expressions in their place keep every output bit but allocate each
    # step's temporaries anew. On one core of a 2-vCPU Xeon VM, at exp3's
    # pass of 185 trials (L = 30, 6000 steps, one step size, 20 interleaved
    # pairs), that made a clmls sweep 8 % slower (median 0.71 -> 0.77 s,
    # slower in 15 pairs); exp2-mu at its defaults took 2.23 -> 2.32 s
    # (6 pairs). The sparse terms are plain expressions, written as
    # `kernels._l1_step` writes them. Against their buffered form (exp3's
    # defaults, one core, a pass of 185 trials, 6000 steps, 12 pairs) a
    # sweep's median moved +1.7 % for l1-clms (slower in 10 pairs), +1.1 %
    # for l1-clmls (10), -1.1 % for l1-wclms (3) and -5.4 % for l1-wclmls
    # (2), each less than the buffered form's interquartile range
    step = np.empty((T, n_mu, 1))  # mu g(e)
    moved = np.empty((T, n_mu, L))  # w + mu g(e) u

    # a row whose error turns non-finite has diverged: it keeps running on
    # inf/nan, and its curves are zero from the block of its divergence on.
    # Only the steps, checks and curves run with floating-point warnings
    # off, so the consumer's arithmetic on a runaway row still warns
    for b in range(0, horizon, K):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            k = min(K, horizon - b)
            np.copyto(U[:k, :, 0], taps[:, b:b + k].swapaxes(0, 1))
            for i in range(k):
                n = b + i
                W, u, w_next = ring[i], U[i], ring[i + 1]
                e = np.subtract(D[n], np.vecdot(W, u, out=errors[i]), out=errors[i])
                # an LMS member is its log-kernel twin at alpha = inf, where
                # g(e) = e: taken here without the kernel's arithmetic
                g = _log_kernel_rows(e, alpha) if spec.log_kernel else e
                np.multiply(mus, g, out=step[..., 0])
                if spec.sparse:
                    if spec.reweighted:
                        s = (2.0 * beta / math.pi) * np.sign(W) / (beta * beta * W * W + 1.0)
                        t_now = (2.0 / math.pi) * np.sum(np.arctan(beta * np.abs(W)), axis=-1, keepdims=True)
                    else:
                        s = np.sign(W)
                        t_now = np.vecdot(s, W, keepdims=True)
                    Ps = np.matvec(P, s)
                    ps2 = np.vecdot(Ps, Ps, keepdims=True)
                    q = Ps / ps2
                    f_l1 = (seg_params[seg_of[n]].t - t_now) * q
                    p_prime_u = np.matvec(P, u) - q * np.vecdot(Ps, u, keepdims=True)
                    np.add(np.add(np.matvec(P, W + step * p_prime_u, out=w_next), f, out=w_next), f_l1, out=w_next)
                    # rows whose P s vanished take the non-sparse step
                    if np.less(ps2, _DEGENERATE_PS2, out=degenerate[i]).any():
                        np.copyto(w_next, np.matvec(P, W + step * u) + f, where=degenerate[i])
                elif spec.constrained:
                    np.add(W, np.multiply(step, u, out=moved), out=moved)
                    np.add(np.matvec(P, moved, out=w_next), f, out=w_next)
                else:
                    np.add(W, np.multiply(step, u, out=moved), out=w_next)

            # first non-finite error; or finite errors throughout but
            # non-finite final weights
            bad = ~np.isfinite(errors[:k])
            first = (diverged_at < 0) & bad.any(axis=0)
            diverged_at[first] = b + np.argmax(bad, axis=0)[first]
            if b + k == horizon:
                diverged_at[(diverged_at < 0) & ~np.isfinite(ring[k]).all(axis=-1)] = horizon
            # step n of a row counts if it completed
            completed = np.arange(b, b + k)[:, None, None] < np.where(diverged_at < 0, horizon, diverged_at)
            if spec.sparse:
                fallback_steps += np.sum(degenerate[:k, ..., 0] & completed, axis=0)
            if spec.constrained:
                # the residual after each step n divisible by the interval
                checks = np.arange(-b % _RESIDUAL_CHECK_EVERY, k, _RESIDUAL_CHECK_EVERY)
                resid = cs.residual(ring[checks + 1])
                # like max(), fmax skips NaN
                resid = np.fmax.reduce(np.where(completed[checks], resid, 0.0), axis=0, initial=0.0)
                np.fmax(max_residual, resid, out=max_residual)

            # deviation from the active optimum before each step, in place
            # of w(n); the next block starts from w(b + k)
            seg = seg_of[b:b + k]
            dev = np.subtract(optima_rows[seg][:, None, None, :], ring[:k], out=ring[:k])
            ratio = np.vecdot(dev, dev, out=np.moveaxis(msd_ratio[..., :k], -1, 0))
            np.divide(ratio, norms[seg][:, None, None], out=ratio)
            ea = np.vecdot(dev, U[:k], out=np.moveaxis(ea2[..., :k], -1, 0))
            np.multiply(ea, ea, out=ea)
            ring[0] = ring[k]

        msd_ratio[diverged_at >= 0] = 0.0
        ea2[diverged_at >= 0] = 0.0
        if b == 0:
            handed = diverged_at < 0  # rows whose curves `consume` is given
        consume(b, msd_ratio[..., :k], ea2[..., :k])

    return _Rows(
        diverged_at=diverged_at,
        late=handed & (diverged_at >= 0),
        fallback_steps=fallback_steps,
        max_residual=max_residual,
    )


def _trial_bytes(L: int, n_mu: int, horizon: int) -> int:
    """Bytes a trial adds to an engine pass: its input stream and d, and its
    rows of the block buffers (weight ring, inputs, errors and the two block
    curves)."""
    K = min(_BLOCK, horizon)
    return 8 * (2 * horizon + L + (K + 1) * (n_mu * L + L + 3 * n_mu))


def _adder(sums: np.ndarray):
    """A `_run_rows` consumer that adds each row's curves of a block, trial by
    trial, to sums = (ratio, ratio^2, e_a^2) sums of shape (3, mus, horizon)."""

    def consume(b: int, msd_ratio: np.ndarray, ea2: np.ndarray) -> None:
        s_ratio, s_sq, s_ea2 = sums[..., b:b + msd_ratio.shape[-1]]
        for ratio, ea in zip(msd_ratio, ea2):
            np.add(s_ratio, ratio, out=s_ratio)
            np.add(s_sq, ratio * ratio, out=s_sq)
            np.add(s_ea2, ea, out=s_ea2)

    return consume


def run_step_size_sweep(
    model: SignalModel,
    algorithm: str,
    params: AlgorithmParams,
    mus,
    trials: int,
    horizon: int,
    base_seed: int,
    cs: ConstraintSet | None = None,
) -> list[RunResult]:
    """Ensemble-average an algorithm at each step size in `mus`.

    Every trial starts from w = 0, projected onto the constraints, and
    trial k uses generator seed base_seed + k for every step size. Diverged
    trials are dropped from the averages and counted; if every trial diverges
    at some step size, EnsembleDivergedError names the first and carries all
    results. Each result is bit-identical to a run of that step size alone.

    Each pass adds its rows' curves, block by block and in trial order, to
    three ensemble sums (ratio, ratio^2 and e_a^2), leaving out a row from
    the block in which it diverges. A row that diverges after its first
    block has had earlier blocks added, so at the end of the pass the sums
    of its step size go back to their values at the start of the pass, and
    that step size's rows of the pass that completed run again on their
    own: rows are independent of each other, so they complete again, and
    the sums take exactly the additions of the completed rows.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; valid: {', '.join(sorted(ALGORITHMS))}"
        )
    spec = ALGORITHMS[algorithm]
    if spec.constrained and cs is None:
        raise ValueError(f"{algorithm} requires a constraint set")
    mu_rows = np.array([float(mu) for mu in mus])
    if not mu_rows.size:
        raise ValueError("need at least one step size")
    n_mu = len(mu_rows)

    sums = np.zeros((3, n_mu, horizon))  # of ratio, ratio^2 and e_a^2
    completed = np.zeros(n_mu, dtype=int)
    diverged_at: list[list[int]] = [[] for _ in range(n_mu)]
    fallback_steps = np.zeros(n_mu, dtype=int)
    max_residual = np.zeros(n_mu)

    per_pass = max(1, _PASS_BYTES // _trial_bytes(model.n_taps, n_mu, horizon))
    for first in range(base_seed, base_seed + trials, per_pass):
        seeds = range(first, min(first + per_pass, base_seed + trials))
        at_start = sums.copy() if first > base_seed else None
        rows = _run_rows(model, cs, algorithm, params, mu_rows, seeds, horizon, _adder(sums))
        # step sizes with rows that diverged after their first block: restore
        # the pass-start sums and add the pass's completed rows again
        for j in np.flatnonzero(rows.late.any(axis=0)):
            sums[:, j] = 0.0 if at_start is None else at_start[:, j]
            kept = [seed for seed, n in zip(seeds, rows.diverged_at[:, j]) if n < 0]
            if kept:
                _run_rows(model, cs, algorithm, params, mu_rows[j:j + 1], kept, horizon, _adder(sums[:, j:j + 1]))
        completed += np.sum(rows.diverged_at < 0, axis=0)
        for j in range(n_mu):
            diverged_at[j] += [int(n) for n in rows.diverged_at[:, j] if n >= 0]
        fallback_steps += np.sum(rows.fallback_steps, axis=0)
        max_residual = np.maximum(max_residual, np.max(rows.max_residual, axis=0))
        del at_start  # the next pass makes its own copy

    results: list[RunResult | None] = [None] * n_mu  # None: every trial diverged
    sum_ratio, sum_ratio_sq, sum_ea2 = sums
    for j in np.flatnonzero(completed):
        done = int(completed[j])
        mean_ratio = sum_ratio[j] / done
        if done > 1:
            var = np.maximum(sum_ratio_sq[j] / done - mean_ratio**2, 0.0)
            se = np.sqrt(var / (done - 1))
        else:
            se = np.zeros(horizon)
        results[j] = RunResult(
            trials=trials,
            diverged_trials=trials - done,
            diverged_at=diverged_at[j],
            msd_db=np.asarray(ratio_to_db(mean_ratio)),
            msd_ratio=mean_ratio,
            msd_ratio_se=se,
            emse=sum_ea2[j] / done,
            fallback_steps=int(fallback_steps[j]),
            max_residual=float(max_residual[j]),
        )
    if None in results:
        # every trial diverged there, so list positions are trial numbers
        j = results.index(None)
        first_bad = min(diverged_at[j])
        raise EnsembleDivergedError(
            f"all {trials} trials of {algorithm} at mu = {mu_rows[j]:g} diverged (mu too large?); "
            f"the first at iteration {first_bad} of trial {diverged_at[j].index(first_bad)}",
            results,
        )
    return results


def run_monte_carlo(
    model: SignalModel,
    algorithm: str,
    params: AlgorithmParams,
    trials: int,
    horizon: int,
    base_seed: int,
    cs: ConstraintSet | None = None,
    n_workers: int = 1,
) -> RunResult:
    """Ensemble-average an algorithm over independent trials at params.mu.

    The one-step-size case of `run_step_size_sweep`. The package itself no
    longer calls it; it stays for perfbench/tracing.py and the tests, which
    do. n_workers is accepted and ignored; it stays because
    perfbench/tracing.py still passes n_workers=2.
    """
    return run_step_size_sweep(model, algorithm, params, [params.mu], trials, horizon, base_seed, cs=cs)[0]


def _final_window_mean(curve: np.ndarray) -> float:
    """Mean over the final _WINDOW_FRAC of a curve (at least one sample)."""
    n = len(curve)
    start = max(0, n - max(1, int(round(_WINDOW_FRAC * n))))
    return float(np.mean(curve[start:]))


def steady_state_plateau_db(result: RunResult) -> float:
    """Plateau estimate: mean normalized deviation over the final window, in dB."""
    return float(ratio_to_db(_final_window_mean(result.msd_ratio)))


def steady_state_emse_sim(result: RunResult) -> float:
    """Simulated steady-state excess error power over the final window."""
    return _final_window_mean(result.emse)


def iterations_to_within_db(msd_db: np.ndarray, margin_db: float, plateau_db: float) -> int | None:
    """First iteration from which the curve stays within margin of the plateau.

    A NaN sample counts as outside. None if the curve ends outside.
    """
    inside = np.asarray(msd_db) <= plateau_db + margin_db
    if not inside.size or not inside[-1]:
        return None
    outside = np.nonzero(~inside)[0]
    return int(outside[-1]) + 1 if outside.size else 0


# step-size matcher: plateau tolerance, relative bracket width, bisection
# probes and points of the initial geometric scan
_MATCH_TOL_DB = 0.25
_MATCH_REL_WIDTH = 0.05
_MATCH_MAX_EVALS = 30
_MATCH_GRID = 6


class StepSizeMatchError(RuntimeError):
    """The requested plateau is not bracketed by the search bounds."""


def match_step_size(
    reference_msd_db: float,
    algorithm: str,
    model: SignalModel,
    search_bounds: tuple[float, float],
    cs: ConstraintSet | None = None,
    *,
    params: AlgorithmParams,
    trials: int,
    horizon: int,
    base_seed: int,
) -> float:
    """Tune the step size until the steady-state plateau matches a target.

    At a finite horizon the measured plateau is U-shaped in mu: below some
    step size the filter has not converged inside the window, above it the
    plateau is misadjustment-limited and increases with mu. A coarse
    geometric scan locates the rising branch, then bisection refines on it.
    Where the scan's best point lies above the target, the valley may lie
    between grid points, so one more scan between that point's neighbours
    is merged in before the target counts as out of reach. Each scan, and
    each bisection probe, runs as one step-size sweep. All probes
    reuse the same trial seeds (common random numbers), so the plateau is a
    smooth function of mu; where every trial diverges it is +inf dB, above
    any target, so the search brackets below. Returns mu whose
    plateau is within _MATCH_TOL_DB of the target once the bracket's relative
    width is at most _MATCH_REL_WIDTH, else the best of _MATCH_MAX_EVALS
    bisection probes.
    """
    lo, hi = search_bounds
    if not (0 < lo < hi):
        raise ValueError(f"invalid search bounds {search_bounds}")

    def scan(mus) -> list[float]:
        try:
            sweep = run_step_size_sweep(model, algorithm, params, mus, trials, horizon, base_seed, cs=cs)
        except EnsembleDivergedError as exc:
            sweep = exc.results
        return [math.inf if res is None else steady_state_plateau_db(res) for res in sweep]

    grid = np.geomspace(lo, hi, _MATCH_GRID)
    levels = scan(grid)
    k_min = int(np.argmin(levels))
    if reference_msd_db < levels[k_min] - _MATCH_TOL_DB:
        # the valley may lie between grid points: scan _MATCH_GRID more
        # strictly between the minimum's neighbours, and merge
        ends = grid[max(k_min - 1, 0)], grid[min(k_min + 1, len(grid) - 1)]
        zoom = np.geomspace(*ends, _MATCH_GRID + 2)[1:-1]
        mus, plateaus = np.concatenate([grid, zoom]), levels + scan(zoom)
        order = np.argsort(mus)
        grid, levels = mus[order], [plateaus[k] for k in order]
        k_min = int(np.argmin(levels))
    if reference_msd_db < levels[k_min] - _MATCH_TOL_DB:
        raise StepSizeMatchError(
            f"target {reference_msd_db:.2f} dB not bracketed: best achievable "
            f"plateau over [{lo:g}, {hi:g}] is {levels[k_min]:.2f} dB at "
            f"mu = {grid[k_min]:g}"
        )
    # walk the rising branch for the tightest bracket around the target
    k_hi = None
    for k in range(k_min + 1, len(grid)):
        if levels[k] >= reference_msd_db:
            k_hi = k
            break
    if k_hi is None:
        raise StepSizeMatchError(
            f"target {reference_msd_db:.2f} dB above every plateau on the "
            f"rising branch; largest is {levels[-1]:.2f} dB at mu = {hi:g}"
        )
    lo, p_lo = grid[k_hi - 1], levels[k_hi - 1]
    hi, p_hi = grid[k_hi], levels[k_hi]

    best_mu, best_gap = lo, abs(p_lo - reference_msd_db)
    if abs(p_hi - reference_msd_db) < best_gap:
        best_mu, best_gap = hi, abs(p_hi - reference_msd_db)
    for _ in range(_MATCH_MAX_EVALS):
        if best_gap <= _MATCH_TOL_DB and (hi - lo) <= _MATCH_REL_WIDTH * hi:
            break
        mid = math.sqrt(lo * hi)
        (p_mid,) = scan([mid])
        if abs(p_mid - reference_msd_db) < best_gap:
            best_mu, best_gap = mid, abs(p_mid - reference_msd_db)
        if p_mid < reference_msd_db:
            lo = mid
        else:
            hi = mid
    return best_mu
