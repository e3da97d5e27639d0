"""The row engine against the per-sample step functions, bit for bit."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from confilt import simulation
from confilt.constraints import build_constraint_set, linear_phase_constraints
from confilt.kernels import (
    ALGORITHMS,
    AlgorithmParams,
    DegenerateDirectionError,
    DivergenceError,
    FilterState,
    clms_step,
    clmls_step,
    error_nonlinearity,
)
from confilt.simulation import (
    EnsembleDivergedError,
    SignalModel,
    _log_kernel_rows,
    _resolve_references,
    _run_rows,
    ar1_signal_model,
    generate_signals,
    linear_phase_system,
    run_monte_carlo,
    run_step_size_sweep,
    sparse_system_schedule,
    white_signal_model,
)


def reference_trial(model, cs, algorithm, params, horizon, seed, every=100):
    """One trial through the per-sample `*_step` functions.

    Returns (msd_ratio, ea2, fallback_steps, max_residual, diverged_at), with
    None curves and the first non-finite sample for a diverged trial.
    """
    spec = ALGORITHMS[algorithm]
    U, d = generate_signals(model, horizon, np.random.default_rng(seed))
    optima, seg_params, starts = _resolve_references(model, cs, spec, params)
    fallback = clmls_step if spec.log_kernel else clms_step
    w0 = np.zeros(model.n_taps)
    if spec.constrained:
        w0 = cs.P @ w0 + cs.f
    state = FilterState(w=w0, n=0)
    msd_ratio, ea2 = np.empty(horizon), np.empty(horizon)
    fallback_steps, max_residual, seg = 0, 0.0, 0
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
                        state, _ = spec.step(state, U[n], d[n], seg_params[seg], cs)
                    except DegenerateDirectionError:
                        state = fallback(state, U[n], d[n], seg_params[seg], cs)
                        fallback_steps += 1
                elif spec.constrained:
                    state = spec.step(state, U[n], d[n], seg_params[seg], cs)
                else:
                    state = spec.step(state, U[n], d[n], seg_params[seg])
                if spec.constrained and n % every == 0:
                    max_residual = max(max_residual, cs.residual(state.w))
    except DivergenceError as exc:
        return None, None, fallback_steps, max_residual, exc.iteration
    if not np.all(np.isfinite(state.w)):
        return None, None, fallback_steps, max_residual, horizon
    return msd_ratio, ea2, fallback_steps, max_residual, None


def exp1_scenario(sigma_v2=0.01, L=10, seed=42):
    cs = linear_phase_constraints(L)
    return white_signal_model(sigma_v2, linear_phase_system(L, np.random.default_rng(seed))), cs


def schedule_scenario(length=900):
    # the 3-segment sparse schedule, segments starting at thirds of length;
    # zero start weights make P s vanish
    sched = sparse_system_schedule(12, length, np.random.default_rng(12))
    cs = build_constraint_set(np.ones((12, 1)), np.array([float(np.sum(sched.systems[0]))]))
    return SignalModel(R=np.eye(12), sigma_v2=0.01, w_sys=sched), cs


def ar1_scenario():
    cs = linear_phase_constraints(10)
    w_sys = linear_phase_system(10, np.random.default_rng(42))
    return ar1_signal_model(0.8, 0.01, w_sys), cs


K = simulation._BLOCK

# (scenario, mu, trials, horizon, seed, residual check interval); mu = 1 at
# L = 10 diverges in some trials of clmls and l1-wclmls and not in others
# (test_simulation checks that of clmls). The rest put the engine's block
# edges (every K steps) at the horizon, at segment starts and at residual
# checks: the check after step K - 1 reads the block's last weights, the
# one after step K the first of the next block's.
SCENARIOS = {
    "exp1": (exp1_scenario, 0.05, 3, 400, 7, 100),
    "schedule": (schedule_scenario, 0.05, 3, 900, 21, 100),
    "ar1": (ar1_scenario, 0.05, 3, 400, 3, 100),
    "diverging": (exp1_scenario, 1.0, 6, 1500, 1, 100),
    "horizon-1": (exp1_scenario, 0.05, 2, 1, 5, 100),
    "horizon-K-1": (exp1_scenario, 0.05, 2, K - 1, 5, 100),
    "horizon-K": (exp1_scenario, 0.05, 2, K, 5, 100),
    "horizon-K+1": (exp1_scenario, 0.05, 2, K + 1, 5, 100),
    # segments start on block edges; checks at K - 1, 2K - 2, 3K - 3
    "schedule-on-edges": (lambda: schedule_scenario(3 * K), 0.05, 2, 3 * K + 1, 21, K - 1),
    # segments start one step into a block; checks at 0, K, 2K, 3K
    "schedule-inside-blocks": (lambda: schedule_scenario(3 * K + 3), 0.05, 2, 3 * K + 3, 21, K),
    # lms and lmls: the trial seeded 7 diverges at 1025 and 1027, the
    # others at 807-941, a block or more earlier
    "diverging-late": (exp1_scenario, 1.0, 7, 1100, 1, 100),
}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_rows_match_per_sample_oracle(scenario, algorithm):
    make, mu, trials, horizon, seed, every = SCENARIOS[scenario]
    model, cs = make()
    params = AlgorithmParams(mu=mu)
    rows = _run_rows(
        model, cs, algorithm, params, np.array([mu]), range(seed, seed + trials),
        horizon, every,
    )
    refs = [
        reference_trial(model, cs, algorithm, params, horizon, seed + k, every)
        for k in range(trials)
    ]
    for k, (ratio, ea2, fallback_steps, max_residual, diverged_at) in enumerate(refs):
        assert rows.fallback_steps[k, 0] == fallback_steps
        assert rows.max_residual[k, 0] == max_residual
        if diverged_at is None:
            assert rows.diverged_at[k, 0] == -1
            assert np.array_equal(rows.msd_ratio[k, 0], ratio)
            assert np.array_equal(rows.ea2[k, 0], ea2)
        else:
            assert rows.diverged_at[k, 0] == diverged_at

    # the ensemble: trial-order sums of the completed trials
    done = [r for r in refs if r[4] is None]
    if not done:
        with pytest.raises(EnsembleDivergedError, match=f"iteration {min(r[4] for r in refs)}"):
            run_monte_carlo(model, algorithm, params, trials, horizon, seed, cs=cs, residual_check_every=every)
        return
    res = run_monte_carlo(model, algorithm, params, trials, horizon, seed, cs=cs, residual_check_every=every)
    sum_ratio, sum_ea2 = np.zeros(horizon), np.zeros(horizon)
    for ratio, ea2, *_ in done:
        sum_ratio += ratio
        sum_ea2 += ea2
    assert np.array_equal(res.msd_ratio, sum_ratio / len(done))
    assert np.array_equal(res.emse, sum_ea2 / len(done))
    assert res.diverged_trials == trials - len(done)
    assert res.diverged_at == [r[4] for r in refs if r[4] is not None]
    assert res.fallback_steps == sum(r[2] for r in refs)
    assert res.max_residual == max(r[3] for r in refs)


@pytest.mark.parametrize("algorithm", ["clmls", "l1-wclmls", "lmls"])
def test_row_independent_of_batch(algorithm):
    model, cs = schedule_scenario()
    params = AlgorithmParams(mu=0.05)
    k, base, horizon = 2, 40, 600

    def row(mus, seeds, j):
        rows = _run_rows(model, cs, algorithm, params, np.array(mus), seeds, horizon, 100)
        i = list(seeds).index(base + k)
        return rows.msd_ratio[i, j], rows.ea2[i, j], rows.fallback_steps[i, j], rows.max_residual[i, j]

    alone = row([0.05], [base + k], 0)
    for other in (row([0.05], range(base, base + 6), 0), row([0.02, 0.05, 0.1], range(base, base + 6), 1)):
        assert np.array_equal(other[0], alone[0])
        assert np.array_equal(other[1], alone[1])
        assert other[2:] == alone[2:]


def test_sweep_equals_single_runs_and_pass_size(monkeypatch):
    params = AlgorithmParams(mu=0.05)
    mus = [0.02, 0.05, 0.1]
    # (scenario, algorithm, horizon): the first case, then block edges at
    # the horizon and the schedule's segment starts inside blocks
    cases = [(exp1_scenario, "clmls", 300)]
    cases += [(exp1_scenario, "clmls", h) for h in (1, K - 1, K, K + 1)]
    cases += [(lambda: schedule_scenario(3 * K + 3), "l1-wclmls", 3 * K + 3)]
    for make, algorithm, horizon in cases:
        model, cs = make()
        sweep = run_step_size_sweep(model, algorithm, params, mus, 5, horizon, 9, cs=cs)
        with monkeypatch.context() as m:
            # one trial per pass
            m.setattr(simulation, "_PASS_BYTES", 1)
            single = [
                run_monte_carlo(model, algorithm, AlgorithmParams(mu=mu), 5, horizon, 9, cs=cs)
                for mu in mus
            ]
        for a, b, mu in zip(sweep, single, mus):
            assert a.config["mu"] == mu
            assert np.array_equal(a.msd_ratio, b.msd_ratio)
            assert np.array_equal(a.msd_ratio_se, b.msd_ratio_se)
            assert np.array_equal(a.emse, b.emse)
            assert (a.diverged_at, a.fallback_steps, a.max_residual) == (b.diverged_at, b.fallback_steps, b.max_residual)


def test_sweep_peak_memory_bound():
    # exp2-mu-L10: 4 trials, 3 step sizes, 5000 steps, L = 10. What the
    # sweep must hold: the two per-trial curves, 2 * 4 * 3 * 5000 * 8 B =
    # 0.96 MB, and the three ensemble sums, 3 * 3 * 5000 * 8 B = 0.36 MB.
    # Per block it holds the weight ring and inputs, (K + 1) * 4 * (3 + 1)
    # * 10 * 8 B = 0.33 MB at K = 256; on top of that the bound allows the
    # trials' input streams and d (0.32 MB), one trial's signal draw (U
    # alone is 0.4 MB) and numpy temporaries: 2 MB in all. Keeping the
    # (horizon + 1) * 4 * 3 * 10 weight history alone would take 4.8 MB.
    model, cs = exp1_scenario()
    allowance = 2e6
    bound = 2 * 4 * 3 * 5000 * 8 + 3 * 3 * 5000 * 8 + allowance
    tracemalloc.start()
    try:
        run_step_size_sweep(model, "clmls", AlgorithmParams(mu=0.05), [0.03, 0.05, 0.1], 4, 5000, 101, cs=cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"traced peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


LAYOUTS = {
    "1-D": lambda e: e,
    "(T, B)": lambda e: e.reshape(-1, 6),
    "strided": lambda e: np.repeat(e, 2)[::2].reshape(-1, 6).T,
}


@pytest.mark.parametrize("alpha", [1e-3, 1.0, 11.0, 1e-250])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_log_kernel_rows_equals_error_nonlinearity(layout, alpha):
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, np.inf, -np.inf, np.nan]
    # both branches in one array: |e| from 1e-110 to 1e110 puts alpha e^2 on
    # both sides of 1; at alpha = 1e-250, |e| >= 1e100 is non-cubic at x < 1
    spread = rng.choice([-1.0, 1.0], 5985) * 10.0 ** rng.uniform(-110, 110, 5985)
    mixed = np.concatenate([spread, special, [1e100, -3e100, 1e110, 1e120, -1e105, 0.7]])
    # an array with every x < 1 takes the all-cubic path
    cubic = np.concatenate([special[:6], rng.uniform(-0.99, 0.99, 5994) / np.sqrt(alpha)])
    for values in (mixed, cubic):
        e = LAYOUTS[layout](values)
        want = np.array([error_nonlinearity(v, alpha) for v in e.ravel()]).reshape(e.shape)
        with np.errstate(all="ignore"):
            got = _log_kernel_rows(e, alpha)
        assert np.array_equal(got, want, equal_nan=True)


def test_import_path_has_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import confilt.cli; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.special') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
