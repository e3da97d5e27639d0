"""The row engine against the per-sample step functions, bit for bit."""

import functools
import math
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


def collect_rows(model, cs, algorithm, params, mus, seeds, horizon):
    """`_run_rows` with a consumer that keeps every block: (rows, msd_ratio,
    ea2), the curves (trials, mus, horizon) and zero on diverged rows."""
    shape = (len(seeds), len(mus), horizon)
    msd_ratio, ea2 = np.full(shape, np.nan), np.full(shape, np.nan)

    def keep(b, ratio_block, ea2_block):
        msd_ratio[..., b:b + ratio_block.shape[-1]] = ratio_block
        ea2[..., b:b + ea2_block.shape[-1]] = ea2_block

    rows = _run_rows(model, cs, algorithm, params, np.array(mus), seeds, horizon, keep)
    return rows, msd_ratio, ea2


def exp1_scenario(sigma_v2=0.01, L=10, seed=42):
    cs = linear_phase_constraints(L)
    return white_signal_model(sigma_v2, linear_phase_system(L, np.random.default_rng(seed))), cs


def schedule_scenario(length=900, L=12):
    # the 3-segment sparse schedule, segments starting at thirds of length,
    # under the dc-gain constraint; zero start weights make P s vanish
    sched = sparse_system_schedule(L, length, np.random.default_rng(12))
    cs = build_constraint_set(np.ones((L, 1)), np.array([float(np.sum(sched.systems[0]))]))
    return SignalModel(R=np.eye(L), sigma_v2=0.01, w_sys=sched), cs


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
    # exp3's filter length and step size, over two block edges
    "schedule-L30": (lambda: schedule_scenario(600, L=30), 0.01, 2, 600, 31, 100),
    # odd length: P's middle diagonal entry is exactly 1
    "exp1-L11": (lambda: exp1_scenario(L=11), 0.05, 3, 400, 11, 100),
}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_rows_match_per_sample_oracle(scenario, algorithm, monkeypatch):
    make, mu, trials, horizon, seed, every = SCENARIOS[scenario]
    model, cs = make()
    params = AlgorithmParams(mu=mu)
    monkeypatch.setattr(simulation, "_RESIDUAL_CHECK_EVERY", every)
    rows, msd_ratio, ea2s = collect_rows(model, cs, algorithm, params, [mu], range(seed, seed + trials), horizon)
    refs = [
        reference_trial(model, cs, algorithm, params, horizon, seed + k, every)
        for k in range(trials)
    ]
    for k, (ratio, ea2, fallback_steps, max_residual, diverged_at) in enumerate(refs):
        assert rows.fallback_steps[k, 0] == fallback_steps
        assert rows.max_residual[k, 0] == max_residual
        if diverged_at is None:
            assert rows.diverged_at[k, 0] == -1
            assert np.array_equal(msd_ratio[k, 0], ratio)
            assert np.array_equal(ea2s[k, 0], ea2)
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


# (scenario, step sizes, trials, horizon): exp1's white linear-phase input,
# and exp3's length, step size and dc-gain schedule
TWIN_SCENARIOS = {
    "exp1": (exp1_scenario, [0.01, 0.05, 0.2], 6, 1500),
    "schedule-L30": (lambda: schedule_scenario(1500, L=30), [0.01], 4, 1500),
}


@pytest.mark.parametrize("scenario", sorted(TWIN_SCENARIOS))
@pytest.mark.parametrize(
    "lms, twin", [("lms", "lmls"), ("clms", "clmls"), ("l1-clms", "l1-clmls"), ("l1-wclms", "l1-wclmls")]
)
def test_log_kernel_twin_at_infinite_alpha_is_the_lms_member(lms, twin, scenario):
    # the engine steps an LMS member with g = e and no kernel arithmetic; its
    # log-kernel twin at alpha = inf computes g(e) = e, row for row
    make, mus, trials, horizon = TWIN_SCENARIOS[scenario]
    model, cs = make()
    cs = cs if ALGORITHMS[lms].constrained else None
    want = run_step_size_sweep(model, lms, AlgorithmParams(mu=mus[0]), mus, trials, horizon, 9, cs=cs)
    got = run_step_size_sweep(
        model, twin, AlgorithmParams(mu=mus[0], alpha=math.inf), mus, trials, horizon, 9, cs=cs
    )
    for a, b in zip(want, got, strict=True):
        for field in ("msd_ratio", "emse", "msd_ratio_se", "diverged_at", "fallback_steps", "max_residual"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


@pytest.mark.parametrize("algorithm", ["clmls", "l1-wclmls", "lmls"])
def test_row_independent_of_batch(algorithm):
    model, cs = schedule_scenario()
    params = AlgorithmParams(mu=0.05)
    k, base, horizon = 2, 40, 600

    def row(mus, seeds, j):
        rows, msd_ratio, ea2 = collect_rows(model, cs, algorithm, params, mus, seeds, horizon)
        i = list(seeds).index(base + k)
        return msd_ratio[i, j], ea2[i, j], rows.fallback_steps[i, j], rows.max_residual[i, j]

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
        for a, b in zip(sweep, single):
            assert np.array_equal(a.msd_ratio, b.msd_ratio)
            assert np.array_equal(a.msd_ratio_se, b.msd_ratio_se)
            assert np.array_equal(a.emse, b.emse)
            assert (a.diverged_at, a.fallback_steps, a.max_residual) == (b.diverged_at, b.fallback_steps, b.max_residual)


@functools.lru_cache(maxsize=None)
def oracle_rows(scenario, algorithm, mu):
    """`reference_trial` of each trial of a scenario at step size mu."""
    make, _, trials, horizon, seed, _ = SCENARIOS[scenario]
    model, cs = make()
    return [reference_trial(model, cs, algorithm, AlgorithmParams(mu=mu), horizon, seed + k) for k in range(trials)]


# the engine's block size, and one block holding the whole horizon
@pytest.mark.parametrize("block", [K, 2048])
@pytest.mark.parametrize("per_pass", [1, 2, None])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("scenario", ["diverging", "diverging-late"])
def test_late_divergence_restores_and_reruns(scenario, algorithm, per_pass, block, monkeypatch):
    # rows that diverge after their first block were added before they
    # diverged: the sums must still be the trial-order sums of the rows
    # that completed, restored from the pass-start copy on later passes
    make, mu, trials, horizon, seed, _ = SCENARIOS[scenario]
    model, cs = make()
    mus = [0.05, mu]
    refs = list(zip(*(oracle_rows(scenario, algorithm, m) for m in mus)))  # [trial][step size]
    per_pass = per_pass or trials
    monkeypatch.setattr(simulation, "_BLOCK", block)
    monkeypatch.setattr(simulation, "_PASS_BYTES", per_pass * simulation._trial_bytes(model.n_taps, len(mus), horizon))
    calls, sums = [], []
    run_rows, adder = simulation._run_rows, simulation._adder

    def spy_run_rows(model, cs, algorithm, params, mus, seeds, *rest):
        calls.append((list(mus), list(seeds)))
        return run_rows(model, cs, algorithm, params, mus, seeds, *rest)

    def spy_adder(s):
        sums.append(s)
        return adder(s)

    monkeypatch.setattr(simulation, "_run_rows", spy_run_rows)
    monkeypatch.setattr(simulation, "_adder", spy_adder)
    try:
        run_step_size_sweep(model, algorithm, AlgorithmParams(mu=0.05), mus, trials, horizon, seed, cs=cs)
    except EnsembleDivergedError:
        pass

    # one run per pass, and one more for each step size with a row found
    # diverged after the first block beside rows that completed; the
    # re-run leaves out the rows known to diverge
    first_block = min(block, horizon)
    expected = []
    for first in range(0, trials, per_pass):
        chunk = refs[first:first + per_pass]
        expected.append((mus, [seed + k for k in range(first, first + len(chunk))]))
        for j, m in enumerate(mus):
            late = [r[j][4] is not None and min(r[j][4], horizon - 1) >= first_block for r in chunk]
            kept = [seed + first + i for i, r in enumerate(chunk) if r[j][4] is None]
            if any(late) and kept:
                expected.append(([m], kept))
    assert calls == expected

    want = np.zeros((3, len(mus), horizon))
    for j in range(len(mus)):
        for ratio, ea2, *_ in (r[j] for r in refs if r[j][4] is None):
            want[0, j] += ratio
            want[1, j] += ratio * ratio
            want[2, j] += ea2
    assert np.array_equal(sums[0], want)


def test_late_divergence_cases_cover_every_branch():
    # the cases above meet each branch. clmls in "diverging": rows found
    # diverged after the first block beside completed rows (a re-run), and
    # with one block, the same rows found in the first block (none). lms in
    # "diverging-late": every row diverges after the first block (none).
    # mu = 0.05 never diverges.
    at = [r[4] for r in oracle_rows("diverging", "clmls", 1.0)]
    assert None in at and all(n is None or K <= n < 2048 for n in at), at
    at = [r[4] for r in oracle_rows("diverging-late", "lms", 1.0)]
    assert None not in at and min(at) >= K, at


def traced_sweep_peak(trials):
    """tracemalloc's peak over the exp2-mu-L10 sweep (3 step sizes, 5000
    steps, L = 10) at `trials`, and the bound on it.

    The sweep holds the three ensemble sums, 3 * 3 * 5000 * 8 B = 0.36 MB,
    and per trial its input stream and d and its rows of the block buffers,
    whose size `_trial_bytes` states (0.18 MB per trial at K = 256). The
    bound allows 1.2 MB on top: one trial's signal draw (its tap matrix U,
    0.4 MB, with stream, noise and d, 0.16 MB) and numpy temporaries. It
    has no trials * mus * horizon term.
    """
    model, cs = exp1_scenario()
    bound = 3 * 3 * 5000 * 8 + trials * simulation._trial_bytes(10, 3, 5000) + 1.2e6
    tracemalloc.start()
    try:
        run_step_size_sweep(model, "clmls", AlgorithmParams(mu=0.05), [0.03, 0.05, 0.1], trials, 5000, 101, cs=cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, bound


def test_sweep_peak_memory_bound():
    # exp2-mu-L10's 4 trials; keeping the (horizon + 1) * 4 * 3 * 10 weight
    # history alone would take 4.8 MB
    peak, bound = traced_sweep_peak(4)
    assert peak < bound, f"traced peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


def test_sweep_holds_no_curves():
    # at 32 trials each row's two curves, 2 * 32 * 3 * 5000 * 8 B = 7.7 MB,
    # are more than the bound allows beyond the sums and pass buffers
    peak, bound = traced_sweep_peak(32)
    assert peak < bound, f"traced peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


LAYOUTS = {
    "1-D": lambda e: e,
    "(T, B)": lambda e: e.reshape(-1, 6),
    "strided": lambda e: np.repeat(e, 2)[::2].reshape(-1, 6).T,
}


@pytest.mark.parametrize("alpha", [1e-3, 1.0, 11.0, 1e-250, math.inf])
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
        # at alpha = inf, 0 * inf warns for numpy scalars and arrays alike
        with np.errstate(all="ignore"):
            want = np.array([error_nonlinearity(v, alpha) for v in e.ravel()]).reshape(e.shape)
            got = _log_kernel_rows(e, alpha)
        assert np.array_equal(got, want, equal_nan=True)
        if alpha == math.inf:
            # the LMS kernel: e itself, signed zeros and NaN payloads included
            assert got.tobytes() == want.tobytes() == e.tobytes()


def test_import_path_has_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import confilt.cli; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.special') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_ar1_signals_need_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
        "from confilt.simulation import ar1_signal_model, generate_signals; "
        "generate_signals(ar1_signal_model(0.5, 0.01, np.ones(4)), 100, np.random.default_rng(0)); "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
