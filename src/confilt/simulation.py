"""Scenario construction, signal generation and the Monte-Carlo harness.

System-identification scenarios feed a tapped delay line over a scalar
Gaussian stream (optionally AR(1)-filtered) into the adaptive filter and
compare it against the constrained Wiener optimum. Ensemble runs average
normalized squared deviation and excess error power over independent
trials, each with its own deterministically seeded generator, so results
are reproducible bit-for-bit for a given (config, base_seed).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.signal import lfilter

from .constraints import ConstraintSet
from .kernels import (
    ALGORITHMS,
    AlgorithmParams,
    DegenerateDirectionError,
    DivergenceError,
    FilterState,
    clms_step,
    clmls_step,
)

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


def _run_trial(
    trial: int,
    model: SignalModel,
    cs: ConstraintSet | None,
    algorithm: str,
    params: AlgorithmParams,
    horizon: int,
    base_seed: int,
    w_init: np.ndarray | None,
    residual_check_every: int,
):
    spec = ALGORITHMS[algorithm]
    rng = np.random.default_rng(base_seed + trial)
    U, d = generate_signals(model, horizon, rng)
    L = model.n_taps

    optima, seg_params, starts = _resolve_references(model, cs, spec, params)
    fallback = clmls_step if spec.log_kernel else clms_step

    w0 = np.zeros(L) if w_init is None else np.asarray(w_init, dtype=float)
    if spec.constrained:
        w0 = cs.P @ w0 + cs.f
    state = FilterState(w=w0, n=0)

    msd_ratio = np.empty(horizon)
    ea2 = np.empty(horizon)
    fallback_steps = 0
    max_residual = 0.0
    seg = 0
    step = spec.step
    # divergence is detected by the error/weight finiteness checks; the
    # inf/nan arithmetic right before detection is expected
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(horizon):
                while seg + 1 < len(starts) and n >= starts[seg + 1]:
                    seg += 1
                w_opt = optima[seg]
                dev = w_opt - state.w
                msd_ratio[n] = (dev @ dev) / (w_opt @ w_opt)
                ea = dev @ U[n]
                ea2[n] = ea * ea
                if spec.sparse:
                    try:
                        state, _ = step(state, U[n], d[n], seg_params[seg], cs)
                    except DegenerateDirectionError:
                        state = fallback(state, U[n], d[n], seg_params[seg], cs)
                        fallback_steps += 1
                elif spec.constrained:
                    state = step(state, U[n], d[n], seg_params[seg], cs)
                else:
                    state = step(state, U[n], d[n], seg_params[seg])
                if spec.constrained and (n % residual_check_every) == 0:
                    max_residual = max(max_residual, cs.residual(state.w))
    except DivergenceError:
        return None, None, fallback_steps, max_residual
    if not np.all(np.isfinite(state.w)):
        return None, None, fallback_steps, max_residual
    return msd_ratio, ea2, fallback_steps, max_residual


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
    """Ensemble-average an algorithm over independent trials.

    Trial k uses generator seed base_seed + k. Diverged trials are dropped
    from the averages and counted. Aggregation is a reduction in trial
    order, so the result is identical regardless of n_workers.
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

    worker = partial(
        _run_trial,
        model=model,
        cs=cs,
        algorithm=algorithm,
        params=params,
        horizon=horizon,
        base_seed=base_seed,
        w_init=w_init,
        residual_check_every=residual_check_every,
    )
    sum_ratio = np.zeros(horizon)
    sum_ratio_sq = np.zeros(horizon)
    sum_ea2 = np.zeros(horizon)
    completed = 0
    diverged = 0
    fallback_steps = 0
    max_residual = 0.0

    def consume(res):
        nonlocal completed, diverged, fallback_steps, max_residual
        msd_ratio, ea2, fb, resid = res
        fallback_steps += fb
        max_residual = max(max_residual, resid)
        if msd_ratio is None:
            diverged += 1
            return
        completed += 1
        np.add(sum_ratio, msd_ratio, out=sum_ratio)
        np.add(sum_ratio_sq, msd_ratio * msd_ratio, out=sum_ratio_sq)
        np.add(sum_ea2, ea2, out=sum_ea2)

    if n_workers > 1 and trials > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            chunk = max(1, trials // (n_workers * 4))
            for res in pool.map(worker, range(trials), chunksize=chunk):
                consume(res)
    else:
        for trial in range(trials):
            consume(worker(trial))

    if completed == 0:
        raise EnsembleDivergedError(
            f"all {trials} trials of {algorithm} diverged (mu too large?)"
        )

    mean_ratio = sum_ratio / completed
    if completed > 1:
        var = np.maximum(sum_ratio_sq / completed - mean_ratio**2, 0.0)
        se = np.sqrt(var / (completed - 1))
    else:
        se = np.zeros(horizon)
    config = {
        "algorithm": algorithm,
        "trials": trials,
        "horizon": horizon,
        "base_seed": base_seed,
        "mu": params.mu,
        "alpha": params.alpha,
        "t": params.t,
        "beta_slope": params.beta_slope,
        "sigma_v2": model.sigma_v2,
        "input_kind": model.input_kind,
        "rho": model.rho,
        "n_taps": model.n_taps,
        "constrained": spec.constrained,
    }
    return RunResult(
        algorithm=algorithm,
        trials=trials,
        completed_trials=completed,
        diverged_trials=diverged,
        base_seed=base_seed,
        msd_db=np.asarray(ratio_to_db(mean_ratio)),
        msd_ratio=mean_ratio,
        msd_ratio_se=se,
        emse=sum_ea2 / completed,
        fallback_steps=fallback_steps,
        max_residual=max_residual,
        config=config,
    )


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
    n_workers: int = 1,
) -> float:
    """Tune the step size until the steady-state plateau matches a target.

    At a finite horizon the measured plateau is U-shaped in mu: below some
    step size the filter has not converged inside the window, above it the
    plateau is misadjustment-limited and increases with mu. A coarse
    geometric scan locates the rising branch, then bisection refines on it.
    All probes reuse the same trial seeds (common random numbers), so the
    plateau is a smooth function of mu. Returns mu whose plateau is within
    tol_db of the target, with the final bracket narrower than rel_width.
    """
    params = params or AlgorithmParams(mu=search_bounds[0])

    def plateau(mu: float) -> float:
        res = run_monte_carlo(
            model, algorithm, replace(params, mu=mu), trials, horizon,
            base_seed, cs=cs, n_workers=n_workers,
        )
        return steady_state_plateau_db(res)

    lo, hi = search_bounds
    if not (0 < lo < hi):
        raise ValueError(f"invalid search bounds {search_bounds}")

    grid = np.geomspace(lo, hi, max(2, n_grid))
    levels = [plateau(mu) for mu in grid]
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
