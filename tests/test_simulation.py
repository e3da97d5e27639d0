import pickle
import re

import numpy as np
import pytest

from confilt import simulation
from confilt.constraints import build_constraint_set, linear_phase_constraints
from confilt.kernels import AlgorithmParams
from confilt.simulation import (
    EnsembleDivergedError,
    StepSizeMatchError,
    SystemSchedule,
    ar1_signal_model,
    generate_signals,
    iterations_to_within_db,
    l1_budget_for,
    linear_phase_system,
    match_step_size,
    noise_var_from_snr,
    optimal_constrained_wiener,
    ratio_to_db,
    run_monte_carlo,
    run_step_size_sweep,
    segment_optima,
    sparse_system_schedule,
    steady_state_plateau_db,
    white_signal_model,
)


def kkt_oracle(R, h, C, z):
    """Solve min (w-h)^T R (w-h) s.t. C^T w = z via the KKT system."""
    L, K = C.shape
    kkt = np.block([[2 * R, C], [C.T, np.zeros((K, K))]])
    rhs = np.concatenate([2 * R @ h, z])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:L]


class TestWiener:
    def test_already_feasible_system(self):
        cs = linear_phase_constraints(6)
        rng = np.random.default_rng(3)
        w_sys = linear_phase_system(6, rng)
        model = white_signal_model(0.01, w_sys)
        np.testing.assert_allclose(optimal_constrained_wiener(model, cs), w_sys, atol=1e-12)

    def test_hand_example(self):
        cs = build_constraint_set(np.array([[1.0], [0.0]]), np.array([2.0]))
        model = white_signal_model(0.0, np.array([1.0, 1.0]))
        np.testing.assert_allclose(optimal_constrained_wiener(model, cs), [2.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_kkt_oracle(self, seed):
        rng = np.random.default_rng(seed)
        L, K = 7, 3
        A = rng.standard_normal((L, L))
        R = A @ A.T + 0.5 * np.eye(L)
        w_sys = rng.standard_normal(L)
        cs = build_constraint_set(rng.standard_normal((L, K)), rng.standard_normal(K))
        from dataclasses import replace

        from confilt.simulation import SignalModel

        model = SignalModel(R=R, sigma_v2=0.02, w_sys=w_sys)
        w_o = optimal_constrained_wiener(model, cs)
        h = np.linalg.solve(R, R @ w_sys)
        np.testing.assert_allclose(w_o, kkt_oracle(R, h, cs.C, cs.z), atol=1e-9)
        assert cs.residual(w_o) <= 1e-10


class TestFixedSystemIsOneSegment:
    @pytest.mark.parametrize(
        "make", [white_signal_model, lambda v, w: ar1_signal_model(0.5, v, w)], ids=["white", "ar1"]
    )
    def test_same_bits_as_explicit_schedule(self, make):
        cs = linear_phase_constraints(10)
        w_sys = linear_phase_system(10, np.random.default_rng(42))
        fixed, sched = make(0.01, w_sys), make(0.01, SystemSchedule((w_sys,), (0,)))
        for a, b in zip(generate_signals(fixed, 300, np.random.default_rng(3)),
                        generate_signals(sched, 300, np.random.default_rng(3))):
            assert np.array_equal(a, b)
        for a, b in zip(segment_optima(fixed, cs), segment_optima(sched, cs)):
            assert np.array_equal(a, b)
        assert np.array_equal(optimal_constrained_wiener(fixed, cs), optimal_constrained_wiener(sched, cs))
        for algorithm in ("clmls", "l1-clmls"):
            runs = [
                run_step_size_sweep(m, algorithm, AlgorithmParams(mu=0.05), [0.02, 0.05], 3, 300, 5, cs=cs)
                for m in (fixed, sched)
            ]
            for a, b in zip(*runs):
                assert np.array_equal(a.msd_ratio, b.msd_ratio)
                assert np.array_equal(a.msd_ratio_se, b.msd_ratio_se)
                assert np.array_equal(a.emse, b.emse)
                assert (a.fallback_steps, a.max_residual) == (b.fallback_steps, b.max_residual)

    def test_wiener_refuses_a_schedule(self):
        sched = sparse_system_schedule(8, 300, np.random.default_rng(1))
        model = white_signal_model(0.01, sched)
        with pytest.raises(TypeError, match="segment_optima"):
            optimal_constrained_wiener(model, linear_phase_constraints(8))


class TestSignals:
    def test_zero_system_zero_noise(self):
        model = white_signal_model(0.0, np.zeros(4))
        U, d = generate_signals(model, 64, np.random.default_rng(0))
        np.testing.assert_array_equal(d, np.zeros(64))
        assert U.shape == (64, 4)

    def test_delay_line_structure(self):
        model = white_signal_model(0.0, np.zeros(3))
        U, _ = generate_signals(model, 10, np.random.default_rng(1))
        # u(n) = [x(n), x(n-1), x(n-2)], zeros before n = 0
        assert U[0, 1] == 0.0 and U[0, 2] == 0.0
        np.testing.assert_array_equal(U[1, 1:], U[0, :2])
        np.testing.assert_array_equal(U[5, 1:], U[4, :2])

    def test_white_sample_covariance(self):
        L = 5
        model = white_signal_model(0.0, np.zeros(L))
        U, _ = generate_signals(model, 1_000_000, np.random.default_rng(2))
        cov = U.T @ U / len(U)
        np.testing.assert_allclose(cov, np.eye(L), atol=0.01)

    def test_ar1_autocorrelation(self):
        rho = 0.5
        model = ar1_signal_model(rho, 0.0, np.zeros(3))
        U, _ = generate_signals(model, 400_000, np.random.default_rng(3))
        x = U[:, 0]
        lag1 = np.mean(x[1:] * x[:-1]) / np.mean(x * x)
        assert lag1 == pytest.approx(rho, abs=0.01)
        assert np.var(x) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("rho", [0.5, -0.9, 0.99, 0.123])
    def test_ar1_stream_equals_lfilter(self, rho):
        from scipy.signal import lfilter

        model = ar1_signal_model(rho, 0.0, np.zeros(3))
        for seed in range(5):
            U, _ = generate_signals(model, 2000, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            x, start = rng.standard_normal(2000), rng.standard_normal()
            want, _ = lfilter([np.sqrt(1 - rho * rho)], [1.0, -rho], x, zi=[rho * start])
            assert np.array_equal(U[:, 0], want)

    def test_desired_signal_uses_schedule(self):
        systems = (np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        sched = SystemSchedule(systems=systems, boundaries=(0, 5))
        from confilt.simulation import SignalModel

        model = SignalModel(R=np.eye(2), sigma_v2=0.0, w_sys=sched)
        U, d = generate_signals(model, 10, np.random.default_rng(4))
        np.testing.assert_allclose(d[:5], U[:5] @ systems[0])
        np.testing.assert_allclose(d[5:], U[5:] @ systems[1])

    def test_snr_mapping(self):
        model = white_signal_model(0.0, linear_phase_system(10, np.random.default_rng(7)))
        assert noise_var_from_snr(20.0, model) == pytest.approx(0.01)
        assert noise_var_from_snr(25.0, model) == pytest.approx(0.0031622776601)
        assert noise_var_from_snr(30.0, model) == pytest.approx(0.001)


class TestSparseSchedule:
    def test_zero_tap_counts(self):
        sched = sparse_system_schedule(30, 6000, np.random.default_rng(0))
        zeros = [int(np.sum(w == 0.0)) for w in sched.systems]
        assert zeros == [0, 15, 27]

    def test_boundaries_at_thirds(self):
        sched = sparse_system_schedule(30, 6001, np.random.default_rng(0))
        assert sched.boundaries == (0, 2000, 4000)

    def test_unit_norms(self):
        sched = sparse_system_schedule(30, 6000, np.random.default_rng(1))
        for w in sched.systems:
            assert np.linalg.norm(w) == pytest.approx(1.0)

    def test_supports_are_nested(self):
        sched = sparse_system_schedule(30, 6000, np.random.default_rng(2))
        s1, s2, s3 = (set(np.nonzero(w)[0]) for w in sched.systems)
        assert s3 <= s2 <= s1


class TestRatioToDb:
    def test_floor_and_values(self):
        # exactly -400 dB at and below the 1e-40 floor, NaN passes through
        for ratio, db in ((0.0, -400.0), (1e-50, -400.0), (1e-41, -400.0), (1.0, 0.0), (0.01, -20.0)):
            assert ratio_to_db(ratio) == db
        assert np.isnan(ratio_to_db(float("nan")))
        got = ratio_to_db(np.array([0.0, 1e-300, 1.0, 0.01, np.nan]))
        np.testing.assert_array_equal(got, [-400.0, -400.0, 0.0, -20.0, np.nan])


def exp1_scenario(sigma_v2=0.01, L=10, seed=42):
    cs = linear_phase_constraints(L)
    w_sys = linear_phase_system(L, np.random.default_rng(seed))
    return white_signal_model(sigma_v2, w_sys), cs


class TestMonteCarlo:
    def test_zero_step_size_constant_curve(self):
        model, cs = exp1_scenario()
        res = run_monte_carlo(model, "clmls", AlgorithmParams(mu=0.0), 1, 50, 7, cs=cs)
        assert res.diverged_trials == 0
        np.testing.assert_allclose(res.msd_ratio, res.msd_ratio[0])
        assert res.msd_ratio[0] == pytest.approx(1.0)  # w(0) = f = 0

    def test_unknown_algorithm_lists_names(self):
        model, cs = exp1_scenario()
        with pytest.raises(ValueError, match="l1-wclmls"):
            run_monte_carlo(model, "nope", AlgorithmParams(mu=0.1), 1, 10, 0, cs=cs)

    def test_deterministic_repeat(self):
        model, cs = exp1_scenario()
        p = AlgorithmParams(mu=0.05)
        a = run_monte_carlo(model, "clmls", p, 8, 300, 123, cs=cs)
        b = run_monte_carlo(model, "clmls", p, 8, 300, 123, cs=cs)
        assert np.array_equal(a.msd_db, b.msd_db)
        assert np.array_equal(a.emse, b.emse)

    def test_worker_count_does_not_change_result(self):
        model, cs = exp1_scenario()
        p = AlgorithmParams(mu=0.05)
        a = run_monte_carlo(model, "clmls", p, 6, 200, 5, cs=cs, n_workers=1)
        b = run_monte_carlo(model, "clmls", p, 6, 200, 5, cs=cs, n_workers=2)
        assert np.array_equal(a.msd_ratio, b.msd_ratio)
        assert np.array_equal(a.msd_ratio_se, b.msd_ratio_se)

    def test_trial_order_permutation_equivalence(self):
        # averaging the same per-trial curves must not depend on order
        # beyond float association; compare against a disjoint seed block
        # for the statistical version of the invariant
        model, cs = exp1_scenario()
        p = AlgorithmParams(mu=0.05)
        a = run_monte_carlo(model, "clmls", p, 40, 400, 100, cs=cs)
        b = run_monte_carlo(model, "clmls", p, 40, 400, 140, cs=cs)
        # same config, disjoint seeds: curves agree within 3 standard errors
        se = np.sqrt(a.msd_ratio_se**2 + b.msd_ratio_se**2)
        assert np.all(np.abs(a.msd_ratio - b.msd_ratio) <= 3.5 * se + 1e-12)

    def test_doubling_trials_halves_standard_error(self):
        model, cs = exp1_scenario()
        p = AlgorithmParams(mu=0.05)
        a = run_monte_carlo(model, "clmls", p, 100, 300, 9, cs=cs)
        b = run_monte_carlo(model, "clmls", p, 400, 300, 9, cs=cs)
        tail = slice(150, None)
        ratio = np.mean(a.msd_ratio_se[tail]) / np.mean(b.msd_ratio_se[tail])
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_constraint_residual_tracked(self, monkeypatch):
        model, cs = exp1_scenario()
        monkeypatch.setattr(simulation, "_RESIDUAL_CHECK_EVERY", 10)
        res = run_monte_carlo(model, "clmls", AlgorithmParams(mu=0.05), 3, 500, 11, cs=cs)
        assert res.max_residual <= 1e-10 * (1 + np.max(np.abs(cs.z)))

    def test_divergent_trials_dropped_and_counted(self):
        model, cs = exp1_scenario()

        def first_divergence(algorithm, mu, trials, horizon, seed):
            """Per trial, run alone: the iteration its error named, or None."""
            out = []
            for k in range(trials):
                try:
                    run_monte_carlo(model, algorithm, AlgorithmParams(mu=mu), 1, horizon, seed + k, cs=cs)
                    out.append(None)
                except EnsembleDivergedError as exc:
                    out.append(int(re.search(r"iteration (\d+)", str(exc)).group(1)))
            return out

        alone = first_divergence("clms", 50.0, 3, 2000, 1)
        with pytest.raises(EnsembleDivergedError, match=rf"first at iteration {min(alone)} of trial {alone.index(min(alone))}\b"):
            run_monte_carlo(model, "clms", AlgorithmParams(mu=50.0), 3, 2000, 1, cs=cs)

        # at mu = 1 some trials of clmls diverge and the others complete
        alone = first_divergence("clmls", 1.0, 6, 1500, 1)
        res = run_monte_carlo(model, "clmls", AlgorithmParams(mu=1.0), 6, 1500, 1, cs=cs)
        assert res.diverged_at == [n for n in alone if n is not None]
        assert 0 < res.diverged_trials == len(res.diverged_at) < 6
        assert all(0 < n < 1500 for n in res.diverged_at)

    def test_fully_diverged_step_size_keeps_the_sweep(self):
        # the error names the first such step size and carries every result
        model, cs = exp1_scenario()
        with pytest.raises(EnsembleDivergedError, match="at mu = 50 diverged") as exc:
            run_step_size_sweep(model, "clms", AlgorithmParams(mu=0.05), [0.05, 50.0, 60.0], 3, 2000, 1, cs=cs)
        first, *rest = exc.value.results
        assert rest == [None, None]
        alone = run_monte_carlo(model, "clms", AlgorithmParams(mu=0.05), 3, 2000, 1, cs=cs)
        assert np.array_equal(first.msd_ratio, alone.msd_ratio) and first.diverged_trials == 0

    def test_degenerate_fallback_counted(self):
        # zero initial weights with z = 0 make sign(w) vanish at step 0
        model, cs = exp1_scenario()
        res = run_monte_carlo(
            model, "l1-clmls", AlgorithmParams(mu=0.01), 2, 50, 3, cs=cs,
        )
        assert res.fallback_steps >= 2  # at least the first step per trial

    def test_emse_curve_descends_to_noise_scale(self):
        model, cs = exp1_scenario()
        res = run_monte_carlo(model, "clmls", AlgorithmParams(mu=0.05), 60, 3000, 17, cs=cs)
        assert res.emse[0] > 50 * np.mean(res.emse[-300:])
        assert np.mean(res.emse[-300:]) < 5 * model.sigma_v2

    def test_scheduled_system_tracks_segments(self):
        rng = np.random.default_rng(12)
        sched = sparse_system_schedule(12, 900, rng)
        cs = build_constraint_set(np.ones((12, 1)), np.array([float(np.sum(sched.systems[0]))]))
        from confilt.simulation import SignalModel

        model = SignalModel(R=np.eye(12), sigma_v2=0.01, w_sys=sched)
        res = run_monte_carlo(model, "l1-clmls", AlgorithmParams(mu=0.05), 20, 900, 21, cs=cs)
        # deviation spikes at each boundary then re-converges
        assert res.msd_db[300] > res.msd_db[299]
        assert res.msd_db[600] > res.msd_db[599]
        assert res.msd_db[599] < res.msd_db[300]

    def test_segment_optima_respects_constraints(self):
        rng = np.random.default_rng(1)
        sched = sparse_system_schedule(8, 300, rng)
        cs = build_constraint_set(np.ones((8, 1)), np.array([0.3]))
        from confilt.simulation import SignalModel

        model = SignalModel(R=np.eye(8), sigma_v2=0.0, w_sys=sched)
        optima = segment_optima(model, cs)
        assert len(optima) == 3
        for w_o in optima:
            assert cs.residual(w_o) <= 1e-10

    def test_l1_budget_defaults(self):
        w = np.array([0.5, -0.25, 0.0])
        assert l1_budget_for(w, reweighted=False, beta_slope=10.0) == pytest.approx(0.75)
        expected = (2 / np.pi) * (np.arctan(5.0) + np.arctan(2.5))
        assert l1_budget_for(w, reweighted=True, beta_slope=10.0) == pytest.approx(expected)


class TestStepSizeMatching:
    def test_self_match_recovers_mu(self):
        # horizon long enough that the bracket sits on the rising
        # (misadjustment-limited) branch of the plateau curve
        model, cs = exp1_scenario()
        p = AlgorithmParams(mu=0.05)
        ref = run_monte_carlo(model, "clmls", p, 30, 6000, 31, cs=cs)
        target = steady_state_plateau_db(ref)
        mu = match_step_size(
            target, "clmls", model, (0.02, 0.2), cs=cs, params=p,
            trials=30, horizon=6000, base_seed=31,
        )
        assert mu == pytest.approx(0.05, rel=0.05)

    def test_fully_diverged_grid_point_lies_above_the_target(self):
        # every trial at the top grid point mu = 2 diverges: the match
        # brackets below it instead of ending
        model, cs = exp1_scenario()
        p = AlgorithmParams(mu=0.05)
        target = steady_state_plateau_db(run_monte_carlo(model, "clmls", p, 30, 6000, 31, cs=cs))
        with pytest.raises(EnsembleDivergedError, match="all 30 trials"):
            run_monte_carlo(model, "clmls", AlgorithmParams(mu=2.0), 30, 6000, 31, cs=cs)
        mu = match_step_size(
            target, "clmls", model, (0.02, 2.0), cs=cs, params=p,
            trials=30, horizon=6000, base_seed=31,
        )
        assert mu == pytest.approx(0.05, rel=0.05)

    def test_a_valley_between_grid_points_is_found(self):
        # the best of the six grid points over [1e-4, 0.5] lies more than the
        # 0.25 dB tolerance above the target; the one zoom scan between its
        # neighbours reaches it
        model, cs = exp1_scenario()
        p = AlgorithmParams(mu=0.05)
        target = steady_state_plateau_db(run_monte_carlo(model, "clmls", p, 4, 1500, 1, cs=cs))
        grid = run_step_size_sweep(model, "clms", p, np.geomspace(1e-4, 0.5, 6), 4, 1500, 1, cs=cs)
        assert min(map(steady_state_plateau_db, grid)) > target + 0.25
        mu = match_step_size(
            target, "clms", model, (1e-4, 0.5), cs=cs, params=p,
            trials=4, horizon=1500, base_seed=1,
        )
        matched = run_monte_carlo(model, "clms", AlgorithmParams(mu=mu), 4, 1500, 1, cs=cs)
        assert steady_state_plateau_db(matched) == pytest.approx(target, abs=0.25)

    def test_every_probe_is_one_step_size_sweep(self, monkeypatch):
        # the grid, the zoom and each bisection probe are one engine call
        # each; the one-step-size wrapper is not among them
        model, cs = exp1_scenario()
        p = AlgorithmParams(mu=0.05)
        target = steady_state_plateau_db(run_monte_carlo(model, "clmls", p, 4, 1500, 1, cs=cs))
        sweep, sizes = simulation.run_step_size_sweep, []

        def counted(model, name, params, mus, *args, **kwargs):
            sizes.append(len(mus))
            return sweep(model, name, params, mus, *args, **kwargs)

        monkeypatch.setattr(simulation, "run_step_size_sweep", counted)
        monkeypatch.setattr(simulation, "run_monte_carlo", None)
        mu = match_step_size(
            target, "clms", model, (1e-4, 0.5), cs=cs, params=p,
            trials=4, horizon=1500, base_seed=1,
        )
        assert sizes[:2] == [6, 6] and len(sizes) > 2 and set(sizes[2:]) == {1}
        (matched,) = sweep(model, "clms", p, [mu], 4, 1500, 1, cs=cs)
        assert steady_state_plateau_db(matched) == pytest.approx(target, abs=0.25)

    def test_plateau_monotone_in_mu(self):
        model, cs = exp1_scenario()
        plateaus = []
        for mu in (0.01, 0.03, 0.09):
            res = run_monte_carlo(model, "clms", AlgorithmParams(mu=mu), 25, 2500, 41, cs=cs)
            plateaus.append(steady_state_plateau_db(res))
        assert plateaus[0] < plateaus[1] < plateaus[2]

    def test_unreachable_target_reports_bracket(self):
        model, cs = exp1_scenario()
        with pytest.raises(StepSizeMatchError) as exc:
            match_step_size(
                -200.0, "clms", model, (0.01, 0.05), cs=cs,
                params=AlgorithmParams(mu=0.01), trials=5, horizon=400, base_seed=2,
            )
        assert str(exc.value).startswith("target -200.00 dB not bracketed: best achievable plateau over [0.01, 0.05] is ")

    def test_iterations_to_within_db(self):
        curve = np.array([0.0, -10.0, -20.0, -28.0, -30.0, -30.0])
        assert iterations_to_within_db(curve, 3.0, -30.0) == 3
        assert iterations_to_within_db(np.array([0.0, -1.0]), 3.0, -30.0) is None
        # an early dip does not count once the curve leaves the margin again,
        # and NaN is outside it
        dip = np.array([0.0, -29.0, -10.0, -20.0, -28.0, -30.0, -29.5])
        assert iterations_to_within_db(dip, 3.0, -30.0) == 4
        assert iterations_to_within_db(np.array([-30.0, np.nan, -30.0]), 3.0, -30.0) == 2
        assert iterations_to_within_db(np.array([-30.0, -30.0, np.nan]), 3.0, -30.0) is None


def test_errors_survive_a_pickle_round_trip():
    model, cs = exp1_scenario()
    res = run_monte_carlo(model, "clms", AlgorithmParams(mu=0.05), 2, 50, 1, cs=cs)
    diverged = pickle.loads(pickle.dumps(EnsembleDivergedError("all 2 trials diverged", [res, None])))
    assert type(diverged) is EnsembleDivergedError and str(diverged) == "all 2 trials diverged"
    first, second = diverged.results
    assert second is None and first.diverged_at == res.diverged_at
    assert np.array_equal(first.msd_ratio, res.msd_ratio) and np.array_equal(first.emse, res.emse)
    unmatched = pickle.loads(pickle.dumps(StepSizeMatchError("not bracketed")))
    assert type(unmatched) is StepSizeMatchError and str(unmatched) == "not bracketed"
