import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    l1_clms_step,
    l1_clmls_step,
    l1_wclms_step,
    l1_wclmls_step,
    lms_step,
    lmls_step,
    _l1_step,
)


def axis_cs(z=1.0):
    return build_constraint_set(np.array([[1.0], [0.0]]), np.array([z]))


class TestErrorNonlinearity:
    def test_zero(self):
        for alpha in (0.1, 1.0, 100.0):
            assert error_nonlinearity(0.0, alpha) == 0.0

    def test_direct_values(self):
        assert error_nonlinearity(1.0, 1.0) == pytest.approx(0.5)
        assert error_nonlinearity(10.0, 1.0) == pytest.approx(1000.0 / 101.0)

    @given(
        e=st.floats(-1e6, 1e6, allow_nan=False),
        alpha=st.floats(1e-6, 1e6, allow_nan=False),
    )
    @example(e=6.15e-109, alpha=11.0)  # alpha |e|^3 underflows to 0
    @settings(max_examples=200)
    def test_odd_and_bounded(self, e, alpha):
        g = error_nonlinearity(e, alpha)
        assert g == -error_nonlinearity(-e, alpha)
        assert abs(g) <= abs(e) + 1e-15
        assert abs(g) <= alpha * abs(e) ** 3 * (1 + 1e-12) or not math.isfinite(alpha * abs(e) ** 3)

    def test_monotone_nondecreasing(self):
        e = np.linspace(-50, 50, 4001)
        for alpha in (0.01, 1.0, 50.0):
            g = np.array([error_nonlinearity(v, alpha) for v in e])
            assert np.all(np.diff(g) >= -1e-12)

    def test_large_error_is_lms_like(self):
        assert error_nonlinearity(1e9, 1.0) == pytest.approx(1e9, rel=1e-9)
        assert math.isfinite(error_nonlinearity(1e200, 1.0))


class TestPlainSteps:
    def test_zero_error_is_fixed_point(self):
        cs = axis_cs()
        st0 = FilterState(w=np.array([1.0, 0.0]))
        u = np.array([1.0, 1.0])
        out = clmls_step(st0, u, 1.0, AlgorithmParams(mu=0.5), cs)
        np.testing.assert_allclose(out.w, st0.w, atol=1e-15)
        assert out.n == 1

    def test_clmls_hand_example(self):
        cs = axis_cs()
        st0 = FilterState(w=np.array([1.0, 1.0]))
        out = clmls_step(st0, np.array([1.0, 1.0]), 0.0, AlgorithmParams(mu=0.1, alpha=1.0), cs)
        # e = -2, g = -1.6, w + mu g u = [0.84, 0.84] -> project -> [1, 0.84]
        np.testing.assert_allclose(out.w, [1.0, 0.84], atol=1e-14)

    def test_clms_hand_example(self):
        cs = axis_cs()
        st0 = FilterState(w=np.array([1.0, 1.0]))
        out = clms_step(st0, np.array([1.0, 1.0]), 0.0, AlgorithmParams(mu=0.1), cs)
        np.testing.assert_allclose(out.w, [1.0, 0.8], atol=1e-14)

    def test_mu_zero_is_feasibility_projection(self):
        rng = np.random.default_rng(0)
        cs = build_constraint_set(rng.standard_normal((5, 2)), rng.standard_normal(2))
        w = cs.project(rng.standard_normal(5))
        st0 = FilterState(w=w)
        out = clmls_step(st0, rng.standard_normal(5), 1.3, AlgorithmParams(mu=0.0), cs)
        np.testing.assert_allclose(out.w, w, atol=1e-12)

    def test_lms_lmls_hand_examples(self):
        p = AlgorithmParams(mu=0.5, alpha=1.0)
        st0 = FilterState(w=np.zeros(1))
        out = lmls_step(st0, np.array([1.0]), 1.0, p)
        np.testing.assert_allclose(out.w, [0.25])
        out = lms_step(st0, np.array([1.0]), 1.0, p)
        np.testing.assert_allclose(out.w, [0.5])
        # e = 0 -> no change, and g(0) at alpha = inf warns for no type of d
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (2.0, np.float64(2.0)):
                still = lms_step(FilterState(w=np.array([2.0])), np.array([1.0]), d, p)
                np.testing.assert_allclose(still.w, [2.0])

    def test_lms_is_large_alpha_limit_of_lmls(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal(6)
        u = rng.standard_normal(6)
        d = 1.7
        a = lms_step(FilterState(w=w), u, d, AlgorithmParams(mu=0.05))
        b = lmls_step(FilterState(w=w), u, d, AlgorithmParams(mu=0.05, alpha=1e9))
        np.testing.assert_allclose(a.w, b.w, rtol=1e-6)
        # and at alpha = inf, g(e) = e exactly
        c = lmls_step(FilterState(w=w), u, d, AlgorithmParams(mu=0.05, alpha=math.inf))
        assert np.array_equal(a.w, c.w)

    def test_clms_1000_random_steps_stay_feasible(self):
        rng = np.random.default_rng(11)
        cs = build_constraint_set(rng.standard_normal((8, 3)), rng.standard_normal(3))
        tol = 1e-10 * (1 + np.max(np.abs(cs.z)))
        state = FilterState(w=cs.project(rng.standard_normal(8)))
        p = AlgorithmParams(mu=0.02)
        for _ in range(1000):
            state = clms_step(state, rng.standard_normal(8), rng.standard_normal(), p, cs)
            assert cs.residual(state.w) <= tol

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            lms_step(FilterState(w=np.zeros(3)), np.zeros(4), 0.0, AlgorithmParams(mu=0.1))

    def test_divergence_carries_iteration(self):
        st0 = FilterState(w=np.array([np.nan, 0.0]), n=17)
        with pytest.raises(DivergenceError) as exc:
            clms_step(st0, np.ones(2), 0.0, AlgorithmParams(mu=0.1), axis_cs())
        assert exc.value.iteration == 17


class TestSparseSteps:
    def test_on_budget_zero_error_fixed_point(self):
        cs = axis_cs()
        w = np.array([1.0, 0.5])
        u = np.array([0.3, -0.2])
        d = float(w @ u)  # e = 0
        p = AlgorithmParams(mu=0.2, alpha=1.0, t=1.5)  # t = ||w||_1
        out, aux = l1_clmls_step(FilterState(w=w), u, d, p, cs)
        assert aux.e_L1 == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(out.w, w, atol=1e-12)

    @pytest.mark.parametrize("step", [l1_clmls_step, l1_clms_step])
    def test_both_linearized_constraints_enforced(self, step):
        rng = np.random.default_rng(21)
        cs = build_constraint_set(rng.standard_normal((4, 1)), rng.standard_normal(1))
        p = AlgorithmParams(mu=0.1, alpha=1.0, t=2.0)
        state = FilterState(w=cs.project(rng.standard_normal(4)))
        for _ in range(50):
            u = rng.standard_normal(4)
            d = rng.standard_normal()
            s = np.sign(state.w)
            new, aux = step(state, u, d, p, cs)
            assert cs.residual(new.w) <= 1e-9
            assert abs(s @ new.w - p.t) <= 1e-9
            p_prime = cs.P - np.outer(aux.q, aux.Ps)
            np.testing.assert_allclose(p_prime @ cs.C, 0.0, atol=1e-10)
            state = new

    def test_p_prime_annihilates_sign_direction(self):
        rng = np.random.default_rng(5)
        cs = build_constraint_set(rng.standard_normal((6, 2)), rng.standard_normal(2))
        state = FilterState(w=cs.project(rng.standard_normal(6)))
        p = AlgorithmParams(mu=0.05, t=3.0)
        _, aux = l1_clmls_step(state, rng.standard_normal(6), 0.3, p, cs)
        x = cs.P @ rng.standard_normal(6)
        p_prime = cs.P - np.outer(aux.q, aux.Ps)
        assert abs(aux.s @ (p_prime @ x)) <= 1e-10

    def test_reweighted_budget_correction(self):
        rng = np.random.default_rng(31)
        cs = build_constraint_set(rng.standard_normal((5, 1)), rng.standard_normal(1))
        beta = 10.0
        w_true = cs.project(rng.standard_normal(5))
        t = (2 / np.pi) * np.sum(np.arctan(beta * np.abs(w_true)))
        state = FilterState(w=cs.project(w_true + 0.3 * rng.standard_normal(5)))
        p = AlgorithmParams(mu=0.1, alpha=1.0, t=t, beta_slope=beta)
        for _ in range(25):
            u = rng.standard_normal(5)
            d = float(w_true @ u) + 0.01 * rng.standard_normal()
            w_prev = state.w
            s = (2 * beta / np.pi) * np.sign(w_prev) / (beta**2 * w_prev**2 + 1)
            t_now = (2 / np.pi) * np.sum(np.arctan(beta * np.abs(w_prev)))
            state, aux = l1_wclmls_step(state, u, d, p, cs)
            assert aux.e_L1 == pytest.approx(t - t_now, abs=1e-12)
            # budget-corrected equality: s^T w(n+1) = s^T w(n) + (t - t(n))
            assert abs(s @ state.w - (s @ w_prev + aux.e_L1)) <= 1e-9
            assert cs.residual(state.w) <= 1e-9

    def test_zero_weights_degenerate(self):
        cs = linear_phase_constraints(4)
        p = AlgorithmParams(mu=0.1, t=1.0)
        with pytest.raises(DegenerateDirectionError):
            l1_clmls_step(FilterState(w=np.zeros(4)), np.ones(4), 1.0, p, cs)
        with pytest.raises(DegenerateDirectionError):
            l1_wclmls_step(FilterState(w=np.zeros(4)), np.ones(4), 1.0, p, cs)

    def test_reweight_limits(self):
        w = np.zeros(6)
        w[2] = 0.8
        # beta -> inf: active taps see vanishing shrink direction
        s_big = (2 * 1e9 / np.pi) * np.sign(w) / (1e18 * w**2 + 1)
        assert abs(s_big[2]) < 1e-8
        # beta -> 0: s proportional to plain sign vector
        beta = 1e-9
        s_small = (2 * beta / np.pi) * np.sign(w) / (beta**2 * w**2 + 1)
        np.testing.assert_allclose(
            s_small, (2 * beta / np.pi) * np.sign(w), rtol=1e-12
        )

    def test_l1_clms_is_large_alpha_limit_of_l1_clmls(self):
        rng = np.random.default_rng(8)
        cs = build_constraint_set(rng.standard_normal((5, 2)), rng.standard_normal(2))
        w = cs.project(rng.standard_normal(5))
        u = rng.standard_normal(5)
        d = 0.9
        pa = AlgorithmParams(mu=0.1, alpha=1e9, t=2.0)
        pb = AlgorithmParams(mu=0.1, alpha=1.0, t=2.0)
        out_log, _ = l1_clmls_step(FilterState(w=w), u, d, pa, cs)
        out_lms, _ = l1_clms_step(FilterState(w=w), u, d, pb, cs)
        np.testing.assert_allclose(out_log.w, out_lms.w, rtol=1e-6)

    def test_unset_budget_rejected(self):
        cs = axis_cs()
        with pytest.raises(ValueError, match="budget"):
            l1_clmls_step(
                FilterState(w=np.array([1.0, 0.5])), np.ones(2), 0.0,
                AlgorithmParams(mu=0.1), cs,
            )

    @pytest.mark.parametrize("reweighted", [False, True])
    @pytest.mark.parametrize("alpha", [1.0, math.inf])
    def test_unset_budget_message(self, alpha, reweighted):
        # the whole message, raised after the error is formed and before any step
        message = "l1 budget t is unset; resolve it from the scenario before stepping"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _l1_step(
                FilterState(w=np.array([1.0, 0.5])), np.ones(2), 0.0,
                AlgorithmParams(mu=0.1), axis_cs(), alpha, reweighted,
            )

    @pytest.mark.parametrize(
        "name,seed",
        [("l1-clms", 101), ("l1-clmls", 102), ("l1-wclms", 103), ("l1-wclmls", 104)],
    )
    def test_1000_step_residual_property(self, name, seed):
        rng = np.random.default_rng(seed)
        cs = build_constraint_set(rng.standard_normal((6, 2)), rng.standard_normal(2))
        tol = 1e-9 * (1 + np.max(np.abs(cs.z)))
        spec = ALGORITHMS[name]
        w_true = cs.project(rng.standard_normal(6))
        if spec.reweighted:
            t = (2 / np.pi) * float(np.sum(np.arctan(10.0 * np.abs(w_true))))
        else:
            t = float(np.sum(np.abs(w_true)))
        p = AlgorithmParams(mu=0.01, alpha=1.0, t=t, beta_slope=10.0)
        state = FilterState(w=cs.project(w_true + 0.5 * rng.standard_normal(6)))
        for _ in range(1000):
            u = rng.standard_normal(6)
            d = float(w_true @ u) + 0.1 * rng.standard_normal()
            try:
                state, _ = spec.step(state, u, d, p, cs)
            except DegenerateDirectionError:
                state = clms_step(state, u, d, p, cs)
            assert cs.residual(state.w) <= tol


class TestAlgorithmRegistry:
    def test_names_and_flags(self):
        assert set(ALGORITHMS) == {
            "lms", "lmls", "clms", "clmls",
            "l1-clms", "l1-clmls", "l1-wclms", "l1-wclmls",
        }
        assert ALGORITHMS["clmls"].log_kernel and ALGORITHMS["clmls"].constrained
        assert not ALGORITHMS["lms"].constrained
        assert ALGORITHMS["l1-wclms"].reweighted and not ALGORITHMS["l1-wclms"].log_kernel

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AlgorithmParams(mu=-0.1)
        with pytest.raises(ValueError):
            AlgorithmParams(mu=0.1, alpha=0.0)
        with pytest.raises(ValueError):
            AlgorithmParams(mu=0.1, t=-1.0)
        with pytest.raises(ValueError):
            AlgorithmParams(mu=0.1, beta_slope=0.0)
