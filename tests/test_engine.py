"""The row engine against the per-sample step functions, bit for bit."""

import subprocess
import sys
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
)
from confilt.simulation import (
    EnsembleDivergedError,
    SignalModel,
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


def schedule_scenario():
    # the 3-segment sparse schedule; zero start weights make P s vanish
    sched = sparse_system_schedule(12, 900, np.random.default_rng(12))
    cs = build_constraint_set(np.ones((12, 1)), np.array([float(np.sum(sched.systems[0]))]))
    return SignalModel(R=np.eye(12), sigma_v2=0.01, w_sys=sched), cs


def ar1_scenario():
    cs = linear_phase_constraints(10)
    w_sys = linear_phase_system(10, np.random.default_rng(42))
    return ar1_signal_model(0.8, 0.01, w_sys), cs


# (scenario, mu, trials, horizon, seed); mu = 1 at L = 10 diverges in some
# trials of clmls and l1-wclmls and not in others (test_simulation checks
# that of clmls)
SCENARIOS = {
    "exp1": (exp1_scenario, 0.05, 3, 400, 7),
    "schedule": (schedule_scenario, 0.05, 3, 900, 21),
    "ar1": (ar1_scenario, 0.05, 3, 400, 3),
    "diverging": (exp1_scenario, 1.0, 6, 1500, 1),
}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_rows_match_per_sample_oracle(scenario, algorithm):
    make, mu, trials, horizon, seed = SCENARIOS[scenario]
    model, cs = make()
    params = AlgorithmParams(mu=mu)
    rows = _run_rows(
        model, cs, algorithm, params, np.array([mu]), range(seed, seed + trials),
        horizon, None, 100,
    )
    refs = [reference_trial(model, cs, algorithm, params, horizon, seed + k) for k in range(trials)]
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
            run_monte_carlo(model, algorithm, params, trials, horizon, seed, cs=cs)
        return
    res = run_monte_carlo(model, algorithm, params, trials, horizon, seed, cs=cs)
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
        rows = _run_rows(model, cs, algorithm, params, np.array(mus), seeds, horizon, None, 100)
        i = list(seeds).index(base + k)
        return rows.msd_ratio[i, j], rows.ea2[i, j], rows.fallback_steps[i, j], rows.max_residual[i, j]

    alone = row([0.05], [base + k], 0)
    for other in (row([0.05], range(base, base + 6), 0), row([0.02, 0.05, 0.1], range(base, base + 6), 1)):
        assert np.array_equal(other[0], alone[0])
        assert np.array_equal(other[1], alone[1])
        assert other[2:] == alone[2:]


def test_sweep_equals_single_runs_and_pass_size(monkeypatch):
    model, cs = exp1_scenario()
    params = AlgorithmParams(mu=0.05)
    mus = [0.02, 0.05, 0.1]
    sweep = run_step_size_sweep(model, "clmls", params, mus, 5, 300, 9, cs=cs)
    # one trial per pass
    monkeypatch.setattr(simulation, "_PASS_BYTES", 1)
    single = [run_monte_carlo(model, "clmls", AlgorithmParams(mu=mu), 5, 300, 9, cs=cs) for mu in mus]
    for a, b, mu in zip(sweep, single, mus):
        assert a.config["mu"] == mu
        assert np.array_equal(a.msd_ratio, b.msd_ratio)
        assert np.array_equal(a.msd_ratio_se, b.msd_ratio_se)
        assert np.array_equal(a.emse, b.emse)


def test_import_path_has_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import confilt.cli; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.special') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
