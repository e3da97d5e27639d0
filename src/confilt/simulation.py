"""Scenario construction, signal generation and the Monte-Carlo harness.

System-identification scenarios feed a tapped delay line over a scalar
Gaussian stream (optionally AR(1)-filtered) into the adaptive filter and
compare it against the constrained Wiener optimum. Ensemble runs average
normalized squared deviation and excess error power over independent trials.

One row engine runs every ensemble. A row is one (step size, trial) pair;
the engine steps all rows of a pass at once as a (trials, step sizes, L)
weight array and keeps the weight history, from which the deviation curves
are computed in bulk after the loop. Trial k draws its signals once, from
its own generator seeded base_seed + k, and every step size of a sweep
reuses that draw (common random numbers). A row whose error turns non-finite
has diverged: it is dropped from the averages and counted.

Each row performs the floating-point operations of the per-sample step
functions in `kernels`, which stay as the reference, in the same order.
That needs row-independent kernels: dot products and projections are
stacked matmuls (``W[..., None, :] @ u[..., None]``, ``P @ X[..., None]``),
which numpy evaluates slice by slice with the same BLAS call as the
per-sample ``w @ u`` and ``P @ w``, whereas one matrix product over all rows
(``W @ P.T``) blocks its sums differently and makes a row depend on its
neighbours; the cube of the log-cost kernel is C ``pow``, as in Python's
``e**3``, not numpy's power. A row is therefore bit-identical to the
per-sample loop whatever else shares its pass, and ensembles are reduced in
trial order, so results are reproducible bit for bit for a given
(config, base_seed).

The step loop takes its views of the history, inputs and desired signal
once per pass, and the non-sparse steps write their temporaries (w . u,
mu g(e), w + mu g(e) u and its projection) into buffers reused from step to
step. Each buffer has the layout of the temporary it replaces, so numpy
makes the same calls and the rows keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constraints import ConstraintSet
from .kernels import _DEGENERATE_PS2, ALGORITHMS, AlgorithmParams

DB_FLOOR = -400.0
_RATIO_FLOOR = 10.0 ** (DB_FLOOR / 10.0)


class EnsembleDivergedError(RuntimeError):
    """Every trial of a Monte-Carlo run diverged."""


@dataclass(frozen=True)
class SystemSchedule:
    """Piecewise-constant true system: systems[k] is active on
    [boundaries[k], boundaries[k+1]) with an implicit final boundary at
    the horizon."""

    systems: tuple[np.ndarray, ...]
    boundaries: tuple[int, ...]  # start index of each segment; first is 0

    def __post_init__(self):
        if len(self.systems) != len(self.boundaries) or self.boundaries[0] != 0:
            raise ValueError("schedule needs one start index per segment, first at 0")


@dataclass(frozen=True)
class SignalModel:
    """Input statistics, observation noise and the true system.

    R is the covariance of the tap-input vector; p = R w_sys is the
    cross-correlation (None for scheduled systems, where it is computed
    per segment).
    """

    R: np.ndarray
    sigma_v2: float
    w_sys: np.ndarray | SystemSchedule
    input_kind: str = "white"
    rho: float = 0.0
    p: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.sigma_v2 < 0:
            raise ValueError(f"noise variance must be >= 0, got {self.sigma_v2}")
        if self.input_kind not in ("white", "ar1"):
            raise ValueError(f"unknown input kind {self.input_kind!r}")
        if self.p is None and isinstance(self.w_sys, np.ndarray):
            object.__setattr__(self, "p", self.R @ self.w_sys)

    @property
    def n_taps(self) -> int:
        return self.R.shape[0]


def white_signal_model(
    sigma_v2: float, w_sys: np.ndarray | SystemSchedule, L: int | None = None,
    sigma_u2: float = 1.0,
) -> SignalModel:
    """White Gaussian tap inputs with variance sigma_u2."""
    if L is None:
        L = _system_length(w_sys)
    return SignalModel(R=sigma_u2 * np.eye(L), sigma_v2=sigma_v2, w_sys=w_sys)


def ar1_signal_model(
    rho: float, sigma_v2: float, w_sys: np.ndarray | SystemSchedule, L: int | None = None
) -> SignalModel:
    """AR(1) stream with unit stationary variance; R_ij = rho^|i-j|."""
    if not -1 < rho < 1:
        raise ValueError(f"AR(1) coefficient must be in (-1, 1), got {rho}")
    if L is None:
        L = _system_length(w_sys)
    idx = np.arange(L)
    R = rho ** np.abs(idx[:, None] - idx[None, :])
    return SignalModel(R=R, sigma_v2=sigma_v2, w_sys=w_sys, input_kind="ar1", rho=rho)


def _system_length(w_sys) -> int:
    if isinstance(w_sys, SystemSchedule):
        return w_sys.systems[0].shape[0]
    return np.asarray(w_sys).shape[0]


def linear_phase_system(L: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit-norm system with symmetric impulse response."""
    half = (L + 1) // 2
    g = rng.standard_normal(half)
    w = np.concatenate([g, g[: L // 2][::-1]])
    return w / np.linalg.norm(w)


def noise_var_from_snr(snr_db: float, signal_power: float = 1.0) -> float:
    """Observation-noise variance giving the requested SNR."""
    return signal_power / (10.0 ** (snr_db / 10.0))


def optimal_constrained_wiener(model: SignalModel, cs: ConstraintSet) -> np.ndarray:
    """Constrained Wiener solution w_o = h + R^{-1} C (C^T R C)^{-1} (z - C^T h).

    h = R^{-1} p is the unconstrained optimum; the correction restores
    feasibility in the R metric. Raises numpy.linalg.LinAlgError when R or
    C^T R C is singular.
    """
    if isinstance(model.w_sys, SystemSchedule):
        raise TypeError("scheduled systems: use segment_optima()")
    h = np.linalg.solve(model.R, model.p)
    rinv_c = np.linalg.solve(model.R, cs.C)
    A = cs.C.T @ rinv_c
    w_o = h + rinv_c @ np.linalg.solve(A, cs.z - cs.C.T @ h)
    if not np.all(np.isfinite(w_o)):
        raise np.linalg.LinAlgError("constrained Wiener solution is not finite")
    return w_o


def segment_optima(model: SignalModel, cs: ConstraintSet | None) -> list[np.ndarray]:
    """Per-segment reference optima: the constrained Wiener solution when a
    constraint set is given, otherwise the unconstrained one (h = w_sys)."""
    systems = (
        model.w_sys.systems
        if isinstance(model.w_sys, SystemSchedule)
        else (model.w_sys,)
    )
    out = []
    for w_sys in systems:
        seg_model = replace(model, w_sys=np.asarray(w_sys), p=None)
        if cs is None:
            out.append(np.linalg.solve(seg_model.R, seg_model.p))
        else:
            out.append(optimal_constrained_wiener(seg_model, cs))
    return out


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
        from scipy.signal import lfilter  # slow to import; only AR(1) input needs it

        x, _ = lfilter([c], [1.0, -rho], x, zi=np.array([rho * start]))
    padded = np.concatenate([np.zeros(L - 1), x])
    U = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(padded, L)[:, ::-1])
    v = math.sqrt(model.sigma_v2) * rng.standard_normal(length) if model.sigma_v2 > 0 else np.zeros(length)

    if isinstance(model.w_sys, SystemSchedule):
        d = np.empty(length)
        bounds = list(model.w_sys.boundaries) + [length]
        for k, w_sys in enumerate(model.w_sys.systems):
            a, b = bounds[k], min(bounds[k + 1], length)
            if a < b:
                d[a:b] = U[a:b] @ w_sys + v[a:b]
    else:
        d = U @ model.w_sys + v
    return U, d


def sparse_system_schedule(
    L: int,
    horizon: int,
    rng: np.random.Generator,
    sparsities: tuple[float, ...] = (0.0, 0.5, 0.9),
) -> SystemSchedule:
    """Time-varying system whose sparsity steps up at thirds of the horizon.

    Tap values are drawn once; each segment zeroes a nested subset of
    positions (round(L * sparsity) of them) and is rescaled to unit norm.
    """
    base = rng.standard_normal(L)
    order = rng.permutation(L)
    n_seg = len(sparsities)
    systems = []
    for s in sparsities:
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
    """Ensemble-averaged learning curves plus reproduction metadata."""

    algorithm: str
    trials: int
    completed_trials: int
    diverged_trials: int
    # per diverged trial, in trial order: the sample whose error was first
    # non-finite (horizon when only the final weights were)
    diverged_at: list[int]
    base_seed: int
    msd_db: np.ndarray  # 10 log10(mean ||w_o - w||^2 / ||w_o||^2)
    msd_ratio: np.ndarray  # linear-domain mean
    msd_ratio_se: np.ndarray  # ensemble standard error of the mean ratio
    emse: np.ndarray  # mean a-priori excess error power
    fallback_steps: int
    max_residual: float
    config: dict


def ratio_to_db(ratio: np.ndarray | float) -> np.ndarray | float:
    """10 log10 with the documented floor at -400 dB."""
    return 10.0 * np.log10(np.maximum(ratio, _RATIO_FLOOR))


def normalized_msd_db(w: np.ndarray, w_opt: np.ndarray) -> float:
    """Normalized deviation in dB; rows of w are treated as trials and the
    mean ratio is taken before the logarithm."""
    w_opt = np.asarray(w_opt, dtype=float)
    denom = float(w_opt @ w_opt)
    if denom == 0.0:
        raise ValueError("w_opt must be nonzero")
    w = np.atleast_2d(np.asarray(w, dtype=float))
    ratios = np.sum((w - w_opt) ** 2, axis=1) / denom
    return float(ratio_to_db(float(np.mean(ratios))))


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
    if isinstance(model.w_sys, SystemSchedule):
        starts = list(model.w_sys.boundaries)
    else:
        starts = [0]
    return optima, seg_params, starts


# Bytes of weight history, inputs and curves one engine pass may hold; larger
# ensembles run as several passes over consecutive trials.
_PASS_BYTES = 1 << 26

_cube = np.frompyfunc(math.pow, 2, 1)


def _log_kernel_rows(e: np.ndarray, alpha: float) -> np.ndarray:
    """`error_nonlinearity` elementwise, with the same roundings."""
    x = alpha * e * e
    # x < 1 implies the |e| < 1e100 guard unless alpha is tiny; a NaN max
    # fails the test
    if alpha >= 1e-199 and np.maximum.reduce(x, axis=None) < 1.0:
        return alpha * _cube(e, 3.0).astype(float) / (1.0 + x)
    cubic = x < 1.0
    if alpha < 1e-199:
        cubic &= np.abs(e) < 1e100
    g = e * (x / (1.0 + x))
    if cubic.any():
        g[cubic] = alpha * _cube(e[cubic], 3.0).astype(float) / (1.0 + x[cubic])
    return np.where(np.isfinite(x), g, e)


@dataclass(eq=False)
class _Rows:
    """Outcomes of one engine pass, indexed [trial, step size]."""

    msd_ratio: np.ndarray  # (trials, mus, horizon); zero on diverged rows
    ea2: np.ndarray  # same layout
    diverged_at: np.ndarray  # first non-finite error; -1 if the row completed
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
    w_init: np.ndarray | None,
    residual_check_every: int,
) -> _Rows:
    """Step every (seed, mu) row through `horizon` samples at once."""
    spec = ALGORITHMS[algorithm]
    optima, seg_params, starts = _resolve_references(model, cs, spec, params)
    L, T = model.n_taps, len(seeds)
    U = np.empty((horizon, T, L))
    D = np.empty((horizon, T))
    for k, seed in enumerate(seeds):
        U[:, k], D[:, k] = generate_signals(model, horizon, np.random.default_rng(seed))

    w0 = np.zeros(L) if w_init is None else np.asarray(w_init, dtype=float)
    if spec.constrained:
        P, f = cs.P, cs.f
        w0 = P @ w0 + f
    n_mu = len(mus)
    hist = np.empty((horizon + 1, T, n_mu, L))  # hist[n] = w(n)
    hist[0] = w0
    errors = np.empty((horizon, T, n_mu))
    degenerate = np.zeros(errors.shape, dtype=bool)  # P s vanished at step n
    seg_of = np.searchsorted(starts, np.arange(horizon), side="right") - 1
    alpha, beta = params.alpha, params.beta_slope

    # views taken once per pass, indexed [n] in the loop
    w_rows = hist[..., None, :]  # (T, mus, 1, L): w(n) as row vectors
    u_rows = U[:, :, None, :]  # (T, 1, L)
    u_cols = U[:, :, None, :, None]  # (T, 1, L, 1)
    d_rows = D[..., None]  # (T, 1)
    # buffers reused by every step, laid out like the temporaries they replace
    wu = np.empty((T, n_mu, 1, 1))  # w(n) . u(n)
    step = np.empty((T, n_mu, 1))  # mu g(e)
    moved = np.empty((T, n_mu, L))  # w + mu g(e) u
    projected = np.empty((T, n_mu, L, 1))  # P (w + mu g(e) u)
    wu_rows, step_rows = wu[..., 0, 0], step[..., 0]
    moved_cols, projected_rows = moved[..., None], projected[..., 0]

    # a row whose error turns non-finite has diverged: it keeps running on
    # inf/nan, and its steps from then on are ignored after the loop
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(horizon):
            W = hist[n]
            np.matmul(w_rows[n], u_cols[n], out=wu)
            e = np.subtract(d_rows[n], wu_rows, out=errors[n])
            g = _log_kernel_rows(e, alpha) if spec.log_kernel else e
            np.multiply(mus, g, out=step_rows)
            if spec.sparse:
                if spec.reweighted:
                    s = (2.0 * beta / math.pi) * np.sign(W) / (beta * beta * W * W + 1.0)
                    t_now = (2.0 / math.pi) * np.sum(np.arctan(beta * np.abs(W)), axis=-1)
                else:
                    s = np.sign(W)
                    t_now = (s[..., None, :] @ W[..., None])[..., 0, 0]
                Ps = (P @ s[..., None])[..., 0]
                ps2 = (Ps[..., None, :] @ Ps[..., None])[..., 0, 0]
                q = Ps / ps2[..., None]
                Pu = (P @ U[n][..., None])[..., 0]
                p_prime_u = Pu[:, None, :] - q * (Ps[..., None, :] @ u_cols[n])[..., 0]
                f_l1 = (seg_params[seg_of[n]].t - t_now)[..., None] * q
                w_next = (P @ (W + step * p_prime_u)[..., None])[..., 0] + f + f_l1
                # rows whose P s vanished take the non-sparse step
                if np.less(ps2, _DEGENERATE_PS2, out=degenerate[n]).any():
                    plain = (P @ (W + step * u_rows[n])[..., None])[..., 0] + f
                    w_next = np.where(degenerate[n][..., None], plain, w_next)
                hist[n + 1] = w_next
            elif spec.constrained:
                np.add(W, np.multiply(step, u_rows[n], out=moved), out=moved)
                np.matmul(P, moved_cols, out=projected)
                np.add(projected_rows, f, out=hist[n + 1])
            else:
                np.add(W, np.multiply(step, u_rows[n], out=moved), out=hist[n + 1])

        # first non-finite error; or finite errors throughout but non-finite
        # final weights
        bad = ~np.isfinite(errors)
        diverged_at = np.where(bad.any(axis=0), np.argmax(bad, axis=0), -1)
        diverged_at[(diverged_at < 0) & ~np.isfinite(hist[horizon]).all(axis=-1)] = horizon
        # step n of a row counts if it completed
        completed = np.arange(horizon)[:, None, None] < np.where(diverged_at < 0, horizon, diverged_at)
        fallback_steps = np.sum(degenerate & completed, axis=0)
        max_residual = np.zeros(diverged_at.shape)
        if spec.constrained:
            checks = np.arange(0, horizon, residual_check_every)
            resid = np.max(np.abs((cs.C.T @ hist[checks + 1][..., None])[..., 0] - cs.z), axis=-1)
            # like max(), fmax skips NaN
            max_residual = np.fmax.reduce(np.where(completed[checks], resid, 0.0), axis=0, initial=0.0)

        # deviation from the active optimum before each step, in place of w(n)
        w_opt = np.array(optima)[seg_of]
        dev = np.subtract(w_opt[:, None, None, :], hist[:horizon], out=hist[:horizon])
        norms = np.array([float(w @ w) for w in optima])[seg_of]
        msd_ratio = (dev[..., None, :] @ dev[..., None])[..., 0, 0] / norms[:, None, None]
        ea = (dev[..., None, :] @ u_cols)[..., 0, 0]
        ea2 = ea * ea
    ok = (diverged_at < 0)[..., None]
    return _Rows(
        msd_ratio=np.where(ok, np.moveaxis(msd_ratio, 0, -1), 0.0),
        ea2=np.where(ok, np.moveaxis(ea2, 0, -1), 0.0),
        diverged_at=diverged_at,
        fallback_steps=fallback_steps,
        max_residual=max_residual,
    )


def run_step_size_sweep(
    model: SignalModel,
    algorithm: str,
    params: AlgorithmParams,
    mus,
    trials: int,
    horizon: int,
    base_seed: int,
    cs: ConstraintSet | None = None,
    w_init: np.ndarray | None = None,
    residual_check_every: int = 100,
) -> list[RunResult]:
    """Ensemble-average an algorithm at each step size in `mus`.

    Trial k uses generator seed base_seed + k for every step size. Diverged
    trials are dropped from the averages and counted; a step size at which
    every trial diverges raises EnsembleDivergedError. Each result is
    bit-identical to a run of that step size alone.
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
    runs = [replace(params, mu=float(mu)) for mu in mus]
    if not runs:
        raise ValueError("need at least one step size")
    n_mu = len(runs)
    mu_rows = np.array([p.mu for p in runs])

    sum_ratio = np.zeros((n_mu, horizon))
    sum_ratio_sq = np.zeros((n_mu, horizon))
    sum_ea2 = np.zeros((n_mu, horizon))
    completed = np.zeros(n_mu, dtype=int)
    diverged_at: list[list[int]] = [[] for _ in runs]
    fallback_steps = np.zeros(n_mu, dtype=int)
    max_residual = np.zeros(n_mu)

    per_trial = 8 * (horizon + 1) * ((n_mu + 1) * model.n_taps + 5 * n_mu + 1)
    per_pass = max(1, _PASS_BYTES // per_trial)
    for first in range(base_seed, base_seed + trials, per_pass):
        seeds = range(first, min(first + per_pass, base_seed + trials))
        rows = _run_rows(
            model, cs, algorithm, params, mu_rows, seeds, horizon, w_init,
            residual_check_every,
        )
        # diverged rows are zero, so every trial can be added in trial order
        for ratio, ea2 in zip(rows.msd_ratio, rows.ea2):
            np.add(sum_ratio, ratio, out=sum_ratio)
            np.add(sum_ratio_sq, ratio * ratio, out=sum_ratio_sq)
            np.add(sum_ea2, ea2, out=sum_ea2)
        completed += np.sum(rows.diverged_at < 0, axis=0)
        for j in range(n_mu):
            diverged_at[j] += [int(n) for n in rows.diverged_at[:, j] if n >= 0]
        fallback_steps += np.sum(rows.fallback_steps, axis=0)
        max_residual = np.maximum(max_residual, np.max(rows.max_residual, axis=0))

    results = []
    for j, run in enumerate(runs):
        done = int(completed[j])
        if done == 0:
            # every trial diverged, so list positions are trial numbers
            first_bad = min(diverged_at[j])
            raise EnsembleDivergedError(
                f"all {trials} trials of {algorithm} at mu = {run.mu:g} diverged "
                f"(mu too large?); the first at iteration {first_bad} of trial "
                f"{diverged_at[j].index(first_bad)}"
            )
        mean_ratio = sum_ratio[j] / done
        if done > 1:
            var = np.maximum(sum_ratio_sq[j] / done - mean_ratio**2, 0.0)
            se = np.sqrt(var / (done - 1))
        else:
            se = np.zeros(horizon)
        config = {
            "algorithm": algorithm,
            "trials": trials,
            "horizon": horizon,
            "base_seed": base_seed,
            "mu": run.mu,
            "alpha": run.alpha,
            "t": run.t,
            "beta_slope": run.beta_slope,
            "sigma_v2": model.sigma_v2,
            "input_kind": model.input_kind,
            "rho": model.rho,
            "n_taps": model.n_taps,
            "constrained": spec.constrained,
        }
        results.append(RunResult(
            algorithm=algorithm,
            trials=trials,
            completed_trials=done,
            diverged_trials=trials - done,
            diverged_at=diverged_at[j],
            base_seed=base_seed,
            msd_db=np.asarray(ratio_to_db(mean_ratio)),
            msd_ratio=mean_ratio,
            msd_ratio_se=se,
            emse=sum_ea2[j] / done,
            fallback_steps=int(fallback_steps[j]),
            max_residual=float(max_residual[j]),
            config=config,
        ))
    return results


def run_monte_carlo(
    model: SignalModel,
    algorithm: str,
    params: AlgorithmParams,
    trials: int,
    horizon: int,
    base_seed: int,
    cs: ConstraintSet | None = None,
    w_init: np.ndarray | None = None,
    n_workers: int = 1,
    residual_check_every: int = 100,
) -> RunResult:
    """Ensemble-average an algorithm over independent trials at params.mu.

    The one-step-size case of `run_step_size_sweep`. n_workers is accepted
    and ignored: the row engine runs in one process, and the argument stays
    for callers written for the former process pool.
    """
    return run_step_size_sweep(
        model, algorithm, params, [params.mu], trials, horizon, base_seed,
        cs=cs, w_init=w_init, residual_check_every=residual_check_every,
    )[0]


def steady_state_plateau_db(result: RunResult, window_frac: float = 0.1) -> float:
    """Plateau estimate: mean normalized deviation over the final window, in dB."""
    n = len(result.msd_ratio)
    start = max(0, n - max(1, int(round(window_frac * n))))
    return float(ratio_to_db(float(np.mean(result.msd_ratio[start:]))))


def steady_state_emse_sim(result: RunResult, window_frac: float = 0.1) -> float:
    """Simulated steady-state excess error power over the final window."""
    n = len(result.emse)
    start = max(0, n - max(1, int(round(window_frac * n))))
    return float(np.mean(result.emse[start:]))


def iterations_to_within_db(msd_db: np.ndarray, margin_db: float, plateau_db: float) -> int | None:
    """First iteration at which the curve stays within margin of the plateau."""
    hits = np.nonzero(msd_db <= plateau_db + margin_db)[0]
    return int(hits[0]) if hits.size else None


class StepSizeMatchError(RuntimeError):
    """The requested plateau is not bracketed by the search bounds."""

    def __init__(self, message: str, bracket: tuple[float, float], plateaus: tuple[float, float]):
        super().__init__(message)
        self.bracket = bracket
        self.plateaus = plateaus


def match_step_size(
    reference_msd_db: float,
    algorithm: str,
    model: SignalModel,
    search_bounds: tuple[float, float],
    cs: ConstraintSet | None = None,
    params: AlgorithmParams | None = None,
    trials: int = 100,
    horizon: int = 5000,
    base_seed: int = 0,
    tol_db: float = 0.25,
    rel_width: float = 0.05,
    max_evals: int = 30,
    n_grid: int = 6,
) -> float:
    """Tune the step size until the steady-state plateau matches a target.

    At a finite horizon the measured plateau is U-shaped in mu: below some
    step size the filter has not converged inside the window, above it the
    plateau is misadjustment-limited and increases with mu. A coarse
    geometric scan locates the rising branch, then bisection refines on it.
    The scan runs as one step-size sweep; the bisection probes run one mu
    each. All probes reuse the same trial seeds (common random numbers), so
    the plateau is a smooth function of mu. Returns mu whose plateau is within
    tol_db of the target, with the final bracket narrower than rel_width.
    """
    params = params or AlgorithmParams(mu=search_bounds[0])

    def plateau(mu: float) -> float:
        res = run_monte_carlo(
            model, algorithm, replace(params, mu=mu), trials, horizon, base_seed, cs=cs
        )
        return steady_state_plateau_db(res)

    lo, hi = search_bounds
    if not (0 < lo < hi):
        raise ValueError(f"invalid search bounds {search_bounds}")

    grid = np.geomspace(lo, hi, max(2, n_grid))
    levels = [
        steady_state_plateau_db(res)
        for res in run_step_size_sweep(
            model, algorithm, params, grid, trials, horizon, base_seed, cs=cs
        )
    ]
    k_min = int(np.argmin(levels))
    if reference_msd_db < levels[k_min] - tol_db:
        raise StepSizeMatchError(
            f"target {reference_msd_db:.2f} dB not bracketed: best achievable "
            f"plateau over [{lo:g}, {hi:g}] is {levels[k_min]:.2f} dB at "
            f"mu = {grid[k_min]:g}",
            bracket=(lo, hi),
            plateaus=(levels[0], levels[-1]),
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
            f"rising branch; largest is {levels[-1]:.2f} dB at mu = {hi:g}",
            bracket=(lo, hi),
            plateaus=(levels[0], levels[-1]),
        )
    lo, p_lo = grid[k_hi - 1], levels[k_hi - 1]
    hi, p_hi = grid[k_hi], levels[k_hi]

    best_mu, best_gap = lo, abs(p_lo - reference_msd_db)
    if abs(p_hi - reference_msd_db) < best_gap:
        best_mu, best_gap = hi, abs(p_hi - reference_msd_db)
    for _ in range(max_evals):
        if best_gap <= tol_db and (hi - lo) <= rel_width * hi:
            break
        mid = math.sqrt(lo * hi)
        p_mid = plateau(mid)
        if abs(p_mid - reference_msd_db) < best_gap:
            best_mu, best_gap = mid, abs(p_mid - reference_msd_db)
        if p_mid < reference_msd_db:
            lo = mid
        else:
            hi = mid
    return best_mu
