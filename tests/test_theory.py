import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize

from confilt.constraints import ConstraintSet, build_constraint_set, linear_phase_constraints
from confilt.kernels import AlgorithmParams
from confilt.simulation import (
    SignalModel,
    ar1_signal_model,
    optimal_constrained_wiener,
    segment_optima,
    white_signal_model,
)
from confilt.theory import (
    GaussianErrorModel,
    _eigen_rows,
    _kernel_moments,
    h_G,
    h_U,
    steady_state_emse,
    transient_sweep,
)


def vec(M):
    """Column-stacking vectorization: vec(A @ S @ B) == kron(B.T, A) @ vec(S)."""
    return M.ravel(order="F")


def unvec(v):
    """Inverse of vec for a length-L^2 vector."""
    L = int(round(np.sqrt(v.size)))
    return v.reshape((L, L), order="F")


def variance_transition(R, P, mu, hG, hU):
    """One-step weighted-variance map in vec coordinates.

    Returns (F, drive) with F = I - 2 mu hG kron((P R P)^T, I) and
    drive = mu^2 hU vec(P R P), so that for any weighting matrix S,
    unvec(F @ vec(S)) == S - 2 mu hG S (P R P). The L^2 x L^2 oracle for
    the recursion that `transient_sweep` steps in M's eigenbasis.
    """
    R = np.asarray(R, dtype=float)
    P = np.asarray(P, dtype=float)
    if R.shape != P.shape or R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(f"R and P must be square and same shape, got {R.shape} vs {P.shape}")
    L = R.shape[0]
    M = P @ R @ P
    F = np.eye(L * L) - (2.0 * mu * hG) * np.kron(M.T, np.eye(L))
    return F, (mu * mu * hU) * vec(M)


def quad_oracle(integrand, sigma_e2):
    """Adaptive-quadrature expectation of integrand(e) under N(0, sigma_e2)."""
    sig = np.sqrt(sigma_e2)
    gauss = lambda e: integrand(e) * np.exp(-e * e / (2 * sigma_e2)) / np.sqrt(2 * np.pi * sigma_e2)
    val, _ = integrate.quad(gauss, -12 * sig, 12 * sig, limit=400, epsabs=0, epsrel=1e-13)
    return val


# (sigma_e2, alpha): a 2 x 4 table, then a = alpha sigma_e2 on 1e-8 .. 1e6 at
# ten points per decade, which crosses every evaluation regime
QUADRATURE_CASES = [
    pytest.param(s2, alpha, id=f"{s2}-{alpha}") for s2 in (0.01, 1.0) for alpha in (1e-4, 0.1, 1.0, 10.0)
] + [pytest.param(0.3, 10.0 ** (k / 10) / 0.3, id=f"a=1e{k / 10:g}") for k in range(-80, 61)]


class TestMomentFunctionals:
    def test_zero_variance(self):
        assert h_G(GaussianErrorModel(0.0, 1.0)) == 0.0
        assert h_U(GaussianErrorModel(0.0, 1.0)) == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            GaussianErrorModel(-1.0, 1.0)

    @pytest.mark.parametrize("sigma_e2, alpha", QUADRATURE_CASES)
    def test_matches_adaptive_quadrature(self, alpha, sigma_e2):
        m = GaussianErrorModel(sigma_e2, alpha)
        ref_g = quad_oracle(lambda e: alpha * e**4 / (1 + alpha * e**2), sigma_e2) / sigma_e2
        ref_u = quad_oracle(lambda e: (alpha * e**3 / (1 + alpha * e**2)) ** 2, sigma_e2)
        assert h_G(m) == pytest.approx(ref_g, rel=1e-10, abs=0)
        assert h_U(m) == pytest.approx(ref_u, rel=1e-10, abs=0)

    def test_stated_accuracy_against_mpmath(self):
        # the module docstring's bounds, on a = 1e-8 .. 1e6 at 40 points per
        # decade, against the closed forms in 80-digit arithmetic; after
        # their cancellations these agree with 160-digit values to 1e-43
        worst_g = worst_u = 0.0
        with mpmath.workdps(80):
            for k in range(-320, 241):
                a = 10.0 ** (k / 40)
                A = mpmath.mpf(a)
                x = 1 / mpmath.sqrt(2 * A)
                ref_g = 1 - (1 - mpmath.sqrt(mpmath.pi) * x * mpmath.exp(x * x) * mpmath.erfc(x)) / A
                ref_u = (ref_g - 3 * A) / (2 * A) + 5 * ref_g / 2
                m = GaussianErrorModel(1.0, a)
                worst_g = max(worst_g, float(abs(h_G(m) - ref_g) / ref_g))
                worst_u = max(worst_u, float(abs(h_U(m) - ref_u) / ref_u))
        assert worst_g <= 4.9e-16, worst_g
        assert worst_u <= 2.3e-15, worst_u

    def test_small_alpha_limits(self):
        # h_G -> 3 alpha sigma^2 (E[e^4] = 3 sigma^4), h_U -> 15 alpha^2 sigma^6
        m = GaussianErrorModel(1.0, 1e-6)
        assert h_G(m) == pytest.approx(3e-6, rel=1e-4)
        assert h_U(m) == pytest.approx(15e-12, rel=1e-4)

    def test_large_alpha_limits(self):
        m = GaussianErrorModel(1.0, 1e8)
        assert h_G(m) == pytest.approx(1.0, abs=1e-3)
        assert h_U(m) == pytest.approx(1.0, rel=1e-3)

    def test_non_finite_argument_does_not_raise(self):
        # a diverged row of transient_sweep runs on through these arguments
        assert _kernel_moments(np.inf) == (1.0, 1.0)
        assert np.all(np.isnan(_kernel_moments(np.nan)))

    @pytest.mark.parametrize("alpha", [0.05, 1.0, 20.0])
    @pytest.mark.parametrize("sigma_e2", [0.003, 0.2, 2.0])
    def test_bounds(self, alpha, sigma_e2):
        m = GaussianErrorModel(sigma_e2, alpha)
        assert 0.0 < h_G(m) < 1.0
        assert 0.0 < h_U(m) < sigma_e2

    def test_monotone_in_alpha_and_variance(self):
        alphas = [0.01, 0.1, 1.0, 10.0, 100.0]
        gs = [h_G(GaussianErrorModel(0.5, a)) for a in alphas]
        us = [h_U(GaussianErrorModel(0.5, a)) for a in alphas]
        assert all(b > a for a, b in zip(gs, gs[1:]))
        assert all(b > a for a, b in zip(us, us[1:]))
        s2s = [0.01, 0.1, 1.0, 10.0]
        gs = [h_G(GaussianErrorModel(s, 0.7)) for s in s2s]
        us = [h_U(GaussianErrorModel(s, 0.7)) for s in s2s]
        assert all(b > a for a, b in zip(gs, gs[1:]))
        assert all(b > a for a, b in zip(us, us[1:]))


class TestVarianceTransition:
    @pytest.mark.parametrize("n", [3, 4])
    def test_vec_kron_identity(self, n):
        rng = np.random.default_rng(n)
        A, S, B = (rng.standard_normal((n, n)) for _ in range(3))
        lhs = vec(A @ S @ B)
        rhs = np.kron(B.T, A) @ vec(S)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_mu_zero(self):
        rng = np.random.default_rng(0)
        L = 3
        A = rng.standard_normal((L, L))
        R = A @ A.T + np.eye(L)
        cs = build_constraint_set(rng.standard_normal((L, 1)), rng.standard_normal(1))
        F, drive = variance_transition(R, cs.P, 0.0, 0.4, 0.2)
        np.testing.assert_array_equal(F, np.eye(L * L))
        np.testing.assert_array_equal(drive, np.zeros(L * L))

    @pytest.mark.parametrize("seed", range(8))
    def test_direct_formula_oracle(self, seed):
        rng = np.random.default_rng(seed)
        L = 3
        A = rng.standard_normal((L, L))
        R = A @ A.T + np.eye(L)
        cs = build_constraint_set(rng.standard_normal((L, 1)), rng.standard_normal(1))
        mu, hg, hu = 0.07, 0.33, 0.11
        F, drive = variance_transition(R, cs.P, mu, hg, hu)
        S = rng.standard_normal((L, L))
        S = S + S.T
        M = cs.P @ R @ cs.P
        direct = S - 2 * mu * hg * S @ M
        np.testing.assert_allclose(unvec(F @ vec(S)), direct, atol=1e-12)
        np.testing.assert_allclose(drive, mu**2 * hu * vec(M), atol=1e-14)

    def test_scalar_reduction_for_white_unconstrained(self):
        L = 4
        sigma2 = 1.7
        P = np.eye(L)
        mu, hg = 0.05, 0.4
        F, _ = variance_transition(sigma2 * np.eye(L), P, mu, hg, 0.1)
        np.testing.assert_allclose(F, (1 - 2 * mu * hg * sigma2) * np.eye(L * L), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            variance_transition(np.eye(3), np.eye(4), 0.1, 0.5, 0.5)


def exp1_setup(L=10, sigma_v2=0.01, seed=5):
    rng = np.random.default_rng(seed)
    cs = linear_phase_constraints(L)
    half = (L + 1) // 2
    g = rng.standard_normal(half)
    w = np.concatenate([g, g[: L // 2][::-1]])
    w /= np.linalg.norm(w)
    model = white_signal_model(sigma_v2, w)
    return model, cs


class TestTransientPredictor:
    def test_perfect_start_no_noise_stays_zero(self):
        model, cs = exp1_setup(sigma_v2=0.0)
        w_o = optimal_constrained_wiener(model, cs)
        (trace,) = transient_sweep(model, cs, 1.0, [0.05], w_o, 50)
        np.testing.assert_allclose(trace.msd, 0.0, atol=1e-20)
        np.testing.assert_allclose(trace.emse, 0.0, atol=1e-20)

    def test_frozen_kernel_geometric_decay(self):
        # with h_G, h_U frozen and zero drive the msd contracts at least as
        # fast as the deviation-subspace spectral radius of F
        rng = np.random.default_rng(2)
        L = 3
        A = rng.standard_normal((L, L))
        R = A @ A.T + np.eye(L)
        cs = build_constraint_set(rng.standard_normal((L, 1)), np.zeros(1))
        mu, hg = 0.04, 0.37
        M = cs.P @ R @ cs.P
        eig = np.linalg.eigvalsh(M)
        rho_eff = max(abs(1 - 2 * mu * hg * lam) for lam in eig if lam > 1e-12)
        F, _ = variance_transition(R, cs.P, mu, hg, 0.0)
        x = cs.P @ rng.standard_normal(L)
        phi = np.outer(x, x)
        msd = [np.trace(phi)]
        for _ in range(40):
            phi = unvec(F.T @ vec(phi))
            phi = 0.5 * (phi + phi.T)
            msd.append(np.trace(phi))
        ratios = np.array(msd[1:]) / np.array(msd[:-1])
        assert np.all(ratios <= rho_eff + 1e-12)

    @pytest.mark.parametrize(
        "case, a_crossed",
        [
            ("ar1-L10", 0.5),
            ("ar1-dcgain-L10", 0.5),
            ("random-L3", 1e-3),
            ("white-L10", 0.5),
            ("white-dcgain-L10", 0.5),
        ],
    )
    def test_matches_kronecker_oracle(self, case, a_crossed):
        # the per-mode recursion over range(P) (one mode for white input)
        # against F^T vec(Phi) + drive from variance_transition, symmetrised,
        # with the public h_G / h_U; a = alpha sigma_e^2 crosses the regime
        # limits of the moment evaluation (0.5 for the AR(1) and white cases,
        # 1e-3 for the random one). The dc-gain projector comes from an SVD
        # and is idempotent only to rounding, so Phi = P Phi P, on which the
        # per-mode readout rests, holds there only to rounding too; the linear-
        # phase AR(1) case leaves 5 of M's 10 eigenvalues, its null modes,
        # unstepped
        L = int(case.rsplit("L", 1)[1])
        if case.startswith("white"):
            model, cs = dc_gain_setup(L) if "dcgain" in case else exp1_setup(L)
            params = AlgorithmParams(mu=0.05, alpha=1.0)
        elif case.startswith("ar1"):
            white, cs = dc_gain_setup(L) if "dcgain" in case else exp1_setup(L)
            model = ar1_signal_model(0.8, 0.01, white.w_sys)
            params = AlgorithmParams(mu=0.05, alpha=1.0)
        else:
            rng = np.random.default_rng(7)
            A = rng.standard_normal((3, 3))
            model = SignalModel(R=A @ A.T + np.eye(3), sigma_v2=0.01, w_sys=rng.standard_normal(3))
            cs = build_constraint_set(rng.standard_normal((3, 1)), rng.standard_normal(1))
            params = AlgorithmParams(mu=2.0, alpha=0.05)
        L, N = model.n_taps, 300
        (trace,) = transient_sweep(model, cs, params.alpha, [params.mu], np.zeros(L), N)

        wt0 = cs.P @ optimal_constrained_wiener(model, cs)
        phi = np.outer(wt0, wt0)
        msd, emse = [], []
        for n in range(N + 1):
            msd.append(np.trace(phi))
            emse.append(np.trace(model.R @ phi))
            if n == N:
                break
            err = GaussianErrorModel(emse[-1] + model.sigma_v2, params.alpha)
            F, drive = variance_transition(model.R, cs.P, params.mu, h_G(err), h_U(err))
            phi = unvec(F.T @ vec(phi) + drive)
            phi = 0.5 * (phi + phi.T)
        np.testing.assert_allclose(trace.msd, msd, rtol=1e-12, atol=0)
        np.testing.assert_allclose(trace.emse, emse, rtol=1e-12, atol=0)
        a = params.alpha * (trace.emse + model.sigma_v2)
        assert a[0] > a_crossed > a[-1]

    def test_divergent_mu_records_its_index(self):
        model, cs = exp1_setup()
        (trace,) = transient_sweep(model, cs, 1.0, [500.0], np.zeros(10), 4000)
        n = trace.diverged_at
        assert isinstance(n, int) and 0 < n < 4000
        assert np.all(np.isfinite(trace.msd[:n])) and np.all(np.isfinite(trace.emse[:n]))
        assert np.all(np.isnan(trace.msd[n:])) and np.all(np.isnan(trace.emse[n:]))


def dc_gain_setup(L=10, sigma_v2=0.01, seed=5):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(L)
    w /= np.linalg.norm(w)
    return white_signal_model(sigma_v2, w), build_constraint_set(np.ones((L, 1)), np.array([w.sum()]))


class TestNullModes:
    """The K modes `transient_sweep` does not step: the first K eigenpairs of
    M = P R P from `eigh` are M's null space, range(C), to rounding.

    Rounding model, eps = machine epsilon: the computed projector, the two
    products that form M and `eigh` are together exact for M + E with
    ||E|| <= c L eps ||R||, c = 7. The projector's own backward error is at
    most L eps (exact for linear phase) and enters M twice: 2. The products
    add at most 2 gamma_L |P||R||P| <= L eps |P||R||P| entrywise (Higham,
    Thm 3.5), and || |P||R||P| || <= 4 ||R||, since |R| = R for rho > 0 and
    || |P| || <= 2 for both constraint families (|P| = P for linear phase,
    |I - 11^T/L| <= I + 11^T/L for dc-gain): 4. `eigh`'s backward error is
    at most L eps ||M|| <= L eps ||R||: 1. By Weyl, the K null eigenvalues
    stay within ||E|| of 0, and the others, at least lambda_min(R) by Cauchy
    interlacing (M acts on range(P) as U^T R U), within ||E|| of that; the
    computed lambda_min(R) is off by at most L eps ||R|| itself. By Davis and
    Kahan's sin-theta theorem the computed null basis leans into range(P)
    by at most ||E|| / (lambda_min(R) - ||E||) = c L eps kappa_E, and dev =
    fl(P x) leaves range(P) by at most 2 L eps ||x||, while eigh's vectors
    are orthonormal to L eps. Summed, with sin-theta < 1/2:
    ||Q_K^T dev|| <= L eps ((c kappa_E + 1) ||dev|| + 3 ||x||), which is
    (c L eps kappa(R))^2 ||dev||^2 for psi(0) up to the x term and the +1.
    Measured over these cases: null eigenvalues
    at most 1.7 eps ||R||, 0.008 of their bound; the (K+1)-th below
    lambda_min(R) by at most 0.0022 of its allowance; and the null modes'
    share of ||dev|| at most 0.0025 of its bound, so they drop at most
    1.7e3 eps^2 ||dev||^2 of psi(0) (rho = 0.95, linear phase, L = 30).
    """

    @pytest.mark.parametrize("rho", [0.5, 0.8, 0.95])
    @pytest.mark.parametrize(
        "case", ["linear-phase-L10", "linear-phase-L11", "linear-phase-L30", "dc-gain-L10", "dc-gain-L30"]
    )
    def test_first_k_eigenpairs_are_the_null_modes(self, case, rho):
        L = int(case.rsplit("L", 1)[1])
        white, cs = dc_gain_setup(L) if case.startswith("dc-gain") else exp1_setup(L)
        model = ar1_signal_model(rho, 0.01, white.w_sys)
        K, R, eps, c = cs.C.shape[1], model.R, np.finfo(float).eps, 7.0
        x = optimal_constrained_wiener(model, cs)  # w_o - w0 at w0 = 0
        dev = cs.P @ x
        lam, Q = np.linalg.eigh(cs.P @ R @ cs.P)
        r_eig = np.linalg.eigvalsh(R)
        norm_r, lam_min = r_eig[-1], r_eig[0]
        err = c * L * eps * norm_r  # ||E||
        assert np.all(np.abs(lam[:K]) <= err), lam[:K] / (L * eps * norm_r)
        assert lam[K] >= lam_min - err - L * eps * norm_r, (lam[K] - lam_min) / (L * eps * norm_r)
        kappa_e = norm_r / (lam_min - err)
        leak = np.linalg.norm(Q[:, :K].T @ dev)
        bound = L * eps * ((c * kappa_e + 1.0) * np.linalg.norm(dev) + 3.0 * np.linalg.norm(x))
        assert leak <= bound, leak / bound


class TestWhiteInput:
    """R = r I: the one mode lambda = r of multiplicity L - K, psi =
    trace(Phi), one float per step size."""

    MUS = [0.01, 0.05, 0.1, 0.3]

    @pytest.mark.parametrize("case", ["linear-phase-L10", "linear-phase-L30", "dc-gain-L10"])
    def test_equals_the_eigenbasis_recursion(self, case):
        L = int(case.rsplit("L", 1)[1])
        model, cs = dc_gain_setup(L) if case.startswith("dc-gain") else exp1_setup(L)
        params, N = AlgorithmParams(mu=0.05, alpha=1.0), 1000
        sweep = transient_sweep(model, cs, params.alpha, self.MUS, np.zeros(L), N)
        # every eigenvalue of M, its K null modes included
        lam, Q = np.linalg.eigh(cs.P @ model.R @ cs.P)
        psi0 = (Q.T @ (cs.P @ optimal_constrained_wiener(model, cs))) ** 2
        lam = lam.tolist()
        curves = _eigen_rows(lam, lam, psi0.tolist(), params.alpha, model.sigma_v2, self.MUS, N)
        for b, trace in enumerate(sweep):
            assert trace.diverged_at is None
            np.testing.assert_allclose(trace.msd, curves[:, b, 1], rtol=1e-12, atol=0)
            np.testing.assert_allclose(trace.emse, curves[:, b, 0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("input_kind, eigh_calls", [("white", 0), ("ar1", 1)])
    def test_only_correlated_input_needs_an_eigendecomposition(self, monkeypatch, input_kind, eigh_calls):
        model, cs = exp1_setup()
        if input_kind == "ar1":
            model = ar1_signal_model(0.5, 0.01, model.w_sys)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        transient_sweep(model, cs, 1.0, self.MUS, np.zeros(10), 20)
        assert len(calls) == eigh_calls

    @pytest.mark.parametrize("input_kind", ["white", "ar1"])
    def test_a_diverging_row_warns_nothing(self, input_kind):
        model, cs = exp1_setup()
        if input_kind == "ar1":
            model = ar1_signal_model(0.5, 0.01, model.w_sys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = transient_sweep(model, cs, 1.0, [0.05, 500.0], np.zeros(10), 4000)
        assert sweep[0].diverged_at is None and sweep[1].diverged_at is not None


class TestTransientSweep:
    MUS = [0.01, 0.03, 0.05, 0.1, 0.2]

    @pytest.mark.parametrize("input_kind", ["white", "ar1"])
    def test_each_row_equals_its_step_size_alone(self, input_kind):
        # each row steps its own Python floats, so no batched product can
        # round a row differently in a sweep than alone
        model, cs = exp1_setup()
        if input_kind == "ar1":
            model = ar1_signal_model(0.8, 0.01, model.w_sys)
        sweep = transient_sweep(model, cs, 1.0, self.MUS, np.zeros(10), 300)
        assert len(sweep) == len(self.MUS)
        for mu, trace in zip(self.MUS, sweep):
            (alone,) = transient_sweep(model, cs, 1.0, [mu], np.zeros(10), 300)
            assert trace.diverged_at is None
            assert np.array_equal(trace.msd, alone.msd)
            assert np.array_equal(trace.emse, alone.emse)

    def test_diverged_row_stops_alone(self):
        model, cs = exp1_setup()
        (diverged,) = transient_sweep(model, cs, 1.0, [500.0], np.zeros(10), 4000)
        mus = [0.05, 500.0, 0.1]
        sweep = transient_sweep(model, cs, 1.0, mus, np.zeros(10), 4000)
        n = diverged.diverged_at
        assert n is not None and sweep[1].diverged_at == n
        assert np.all(np.isfinite(sweep[1].msd[:n])) and np.all(np.isnan(sweep[1].msd[n:]))
        assert np.all(np.isnan(sweep[1].emse[n:]))
        for mu, trace in zip(mus[::2], sweep[::2]):
            (alone,) = transient_sweep(model, cs, 1.0, [mu], np.zeros(10), 4000)
            assert trace.diverged_at is None
            assert np.array_equal(trace.msd, alone.msd)
            assert np.array_equal(trace.emse, alone.emse)


class TestSteadyState:
    def test_noiseless_emse_is_zero_minus_root(self):
        model, cs = exp1_setup(sigma_v2=0.0)
        pred = steady_state_emse(model, cs, AlgorithmParams(mu=0.05, alpha=1.0))
        assert pred.valid
        assert pred.emse == pytest.approx(0.0, abs=1e-15)
        # the plus root would be 2 / (5 alpha mu beta) != 0
        plus_root = 2.0 / (5 * 1.0 * 0.05 * pred.beta_factor)
        assert plus_root > 1.0e-2

    def test_small_mu_series(self):
        model, cs = exp1_setup()
        alpha = 1.0
        mu = 1e-6
        pred = steady_state_emse(model, cs, AlgorithmParams(mu=mu, alpha=alpha))
        series = 2.5 * alpha * mu * pred.beta_factor * model.sigma_v2**2
        assert pred.emse == pytest.approx(series, rel=1e-4)

    def test_beta_factor_white_input(self):
        # white input: beta = sigma_u^2 (L - K); linear phase on L=10 has K=5
        model, cs = exp1_setup()
        pred = steady_state_emse(model, cs, AlgorithmParams(mu=0.05))
        assert pred.beta_factor == pytest.approx(5.0, rel=1e-10)

    def test_invalid_regime_flagged(self):
        model, cs = exp1_setup()
        pred = steady_state_emse(model, cs, AlgorithmParams(mu=50.0, alpha=1.0))
        assert not pred.valid
        assert pred.discriminant < 0
        assert np.isnan(pred.emse) and np.isnan(pred.msd)

    def test_internal_consistency_of_fields(self):
        model, cs = exp1_setup()
        p = AlgorithmParams(mu=0.05, alpha=1.0)
        pred = steady_state_emse(model, cs, p)
        # the closed form is the fixed point zeta = (mu/2)(hU/hG) beta at
        # sigma_e^2 = zeta + sigma_v^2, with the A4 (small-error) moment values
        # hG = 3a and hU = 15 a^2 sigma_e^2, a = alpha sigma_e^2
        se2 = pred.emse + model.sigma_v2
        hg, hu = 3.0 * p.alpha * se2, 15.0 * p.alpha**2 * se2**3
        zeta = 0.5 * p.mu * (hu / hg) * pred.beta_factor
        assert pred.emse == pytest.approx(zeta, rel=1e-12)
        # msd uses the identity-weighted counterpart beta_I = L - K
        assert pred.msd == pytest.approx(pred.emse * 5.0 / pred.beta_factor, rel=1e-10)

    @pytest.mark.parametrize("rho", [-0.9, 0.5, 0.99])
    @pytest.mark.parametrize("L", [2, 11, 30])
    @pytest.mark.parametrize("constraint", ["linear-phase", "dc-gain"])
    def test_beta_is_trace_m_r_m_pinv_for_correlated_input(self, rho, L, constraint):
        # beta = trace(M R M^+), M = P R P, and msd/emse = trace(M M^+)/beta
        # = (L - K)/beta. The reference pseudo-inverse keeps exactly the L - K
        # largest eigenvalues of M, so no cutoff decides its rank; its
        # rounding grows with their condition number kappa. Over this grid
        # |beta - reference| was at most 2.35 eps kappa trace(R) (rho = 0.99,
        # L = 2, dc-gain, where beta = 0.01 is a cancelling sum; 1.0e-11
        # absolute at rho = 0.99, L = 30, linear phase, kappa = 5.4e3) and
        # msd/emse off by at most 4.4e-16 relative; the bounds are twice those.
        w = np.random.default_rng(0).standard_normal(L)
        model = ar1_signal_model(rho, 0.01, w)
        if constraint == "linear-phase":
            cs = linear_phase_constraints(L)
        else:
            cs = build_constraint_set(np.ones((L, 1)), np.array([w.sum()]))
        rank = L - cs.C.shape[1]
        R = model.R
        M = cs.P @ R @ cs.P
        lam, Q = np.linalg.eigh(M)
        lam, Q = lam[-rank:], Q[:, -rank:]
        reference = np.trace(M @ R @ (Q / lam) @ Q.T)
        kappa = lam[-1] / lam[0]
        pred = steady_state_emse(model, cs, AlgorithmParams(mu=0.01, alpha=1.0))
        assert pred.valid
        assert abs(pred.beta_factor - reference) <= 4.7 * np.finfo(float).eps * kappa * np.trace(R)
        assert pred.msd / pred.emse == pytest.approx(rank / pred.beta_factor, rel=8.9e-16, abs=0)

    @pytest.mark.parametrize("mu", [0.03, 0.1])
    @pytest.mark.parametrize("input_kind", ["white", "ar1"])
    def test_recursion_limit_is_the_scalar_fixed_point(self, input_kind, mu):
        # at the limit every mode of range(P) holds psi = mu h_U / (2 h_G),
        # so emse = zeta = (mu/2) trace(RP) h_U/h_G at sigma_e^2 = zeta +
        # sigma_v^2, one scalar equation, and msd = zeta (L - K) / trace(RP)
        model, cs = exp1_setup()
        if input_kind == "ar1":
            model = ar1_signal_model(0.5, 0.01, model.w_sys)
        L, rank, alpha, N = 10, 5, 1.0, 40000
        beta, sv2 = float(np.trace(model.R @ cs.P)), model.sigma_v2

        def excess(zeta):
            err = GaussianErrorModel(zeta + sv2, alpha)
            return zeta - 0.5 * mu * beta * h_U(err) / h_G(err)

        eps = np.finfo(float).eps
        zeta = optimize.brentq(excess, 0.0, 1.0, xtol=1e-300, rtol=4 * eps)
        msd_limit = zeta * rank / beta
        (trace,) = transient_sweep(model, cs, alpha, [mu], np.zeros(L), N)

        # what each mode still holds at N if it decayed from its start by its
        # factor at the fixed point; on the way there the error is larger,
        # and so is h_G, so the modes decay at least that fast
        lam, Q = np.linalg.eigh(cs.P @ model.R @ cs.P)
        lam, Q = lam[-rank:], Q[:, -rank:]  # the modes of range(P)
        psi0 = (Q.T @ (cs.P @ optimal_constrained_wiener(model, cs))) ** 2
        decay = 1.0 - 2.0 * mu * h_G(GaussianErrorModel(zeta + sv2, alpha)) * lam
        left = np.abs(psi0 - zeta / beta) * decay**N
        # a few roundings per step, each carried on by the slowest factor,
        # plus the L-term readout sums
        floor = (4.0 / (1.0 - decay.max()) + L) * eps
        assert abs(trace.emse[-1] / zeta - 1.0) <= lam @ left / zeta + floor
        assert abs(trace.msd[-1] / msd_limit - 1.0) <= left.sum() / msd_limit + floor

    def test_recursion_matches_closed_form_in_valid_regime(self):
        # the closed form truncates the moment functionals at leading order
        # (valid for alpha sigma_e^2 << 1), so consistency with the exact
        # recursion is checked at small alpha
        model, cs = exp1_setup()
        p = AlgorithmParams(mu=0.1, alpha=0.02)
        pred = steady_state_emse(model, cs, p)
        assert pred.valid
        # start the recursion near the predicted plateau so it settles fast
        w_o = optimal_constrained_wiener(model, cs)
        dev = cs.P @ np.ones(10)
        dev *= np.sqrt(pred.msd) / np.linalg.norm(dev)
        (trace,) = transient_sweep(model, cs, p.alpha, [p.mu], w_o - dev, 60000)
        assert trace.emse[-1] == pytest.approx(trace.emse[-500], rel=1e-4)  # settled
        assert trace.emse[-1] == pytest.approx(pred.emse, rel=5e-3)

    def test_recursion_gap_at_moderate_alpha_is_bounded(self):
        # at alpha = 1, sigma_v^2 = 0.01 the A4 truncation overshoots by ~8%;
        # document the bound rather than the (unattainable) 0.5%
        model, cs = exp1_setup()
        p = AlgorithmParams(mu=0.05, alpha=1.0)
        pred = steady_state_emse(model, cs, p)
        w_o = optimal_constrained_wiener(model, cs)
        dev = cs.P @ np.ones(10)
        dev *= np.sqrt(pred.msd) / np.linalg.norm(dev)
        (trace,) = transient_sweep(model, cs, p.alpha, [p.mu], w_o - dev, 30000)
        gap = abs(trace.emse[-1] - pred.emse) / pred.emse
        assert gap < 0.12


class TestWhiteClosedForms:
    """For R = r I the reference optimum is P w_sys + f (w_sys unconstrained)
    and beta = r (L - K); both against the general formulas, computed here.

    The largest differences measured over 50 systems per case (random and
    linear-phase, L = 10, 11, 30) were 2.2e-16 absolute for the unit-norm
    optimum (the dc-gain projector's SVD rounding) and 8.6e-16 relative for
    beta (the rounding of the reference trace(M R M^+), whose pseudo-inverse
    only this test forms); the bounds are twice those.
    """

    @pytest.mark.parametrize("L", [10, 11, 30])
    @pytest.mark.parametrize("constraint", ["linear-phase", "dc-gain", "none"])
    @pytest.mark.parametrize("seed", range(5))
    def test_agree_with_the_general_formulas(self, L, constraint, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(L)
        w /= np.linalg.norm(w)
        model = white_signal_model(0.01, w)
        R = model.R
        if constraint == "linear-phase":
            cs = linear_phase_constraints(L)
        elif constraint == "dc-gain":
            cs = build_constraint_set(np.ones((L, 1)), np.array([w.sum()]))
        else:  # no constraint: K = 0, P = I
            cs = ConstraintSet(C=np.zeros((L, 0)), z=np.zeros(0), P=np.eye(L), f=np.zeros(L))
        h = np.linalg.solve(R, R @ w)
        if constraint == "none":
            (w_o,), general = segment_optima(model, None), h
        else:
            # the constrained Wiener solution in the R metric
            rinv_c = np.linalg.solve(R, cs.C)
            w_o = optimal_constrained_wiener(model, cs)
            general = h + rinv_c @ np.linalg.solve(cs.C.T @ rinv_c, cs.z - cs.C.T @ h)
        np.testing.assert_allclose(w_o, general, rtol=0, atol=4.4e-16)

        M = cs.P @ R @ cs.P
        Mp = np.linalg.pinv(M, hermitian=True)
        pred = steady_state_emse(model, cs, AlgorithmParams(mu=0.05))
        assert pred.beta_factor == pytest.approx(np.trace(M @ R @ Mp), rel=1.7e-15, abs=0)
        assert pred.beta_factor == L - cs.C.shape[1]
