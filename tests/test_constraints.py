import numpy as np
import pytest

from confilt.constraints import RankDeficiencyError, build_constraint_set, linear_phase_constraints


def projector_rank(P):
    return int(np.sum(np.linalg.eigvalsh(P) > 0.5))


class TestBuildConstraintSet:
    def test_single_axis_constraint(self):
        cs = build_constraint_set(np.array([[1.0], [0.0]]), np.array([2.0]))
        np.testing.assert_allclose(cs.P, [[0.0, 0.0], [0.0, 1.0]], atol=1e-14)
        np.testing.assert_allclose(cs.f, [2.0, 0.0], atol=1e-14)

    def test_diagonal_constraint(self):
        cs = build_constraint_set(np.array([[1.0], [1.0]]), np.array([2.0]))
        np.testing.assert_allclose(cs.P, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)
        np.testing.assert_allclose(cs.f, [1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_projector_properties_random(self, seed):
        rng = np.random.default_rng(seed)
        L, K = 6, 2
        C = rng.standard_normal((L, K))
        z = rng.standard_normal(K)
        cs = build_constraint_set(C, z)
        assert np.max(np.abs(cs.P @ cs.P - cs.P)) <= 1e-12
        assert np.max(np.abs(cs.C.T @ cs.P)) <= 1e-10
        assert np.max(np.abs(cs.P - cs.P.T)) <= 1e-13
        np.testing.assert_allclose(cs.C.T @ cs.f, z, rtol=1e-10, atol=1e-12)
        assert projector_rank(cs.P) == L - K

    def test_too_many_constraints_rejected(self):
        with pytest.raises(ValueError, match="K=2 >= L=2"):
            build_constraint_set(np.eye(2), np.zeros(2))

    def test_rank_deficient_names_column_count(self):
        C = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])  # col2 = 2*col1
        with pytest.raises(RankDeficiencyError) as exc:
            build_constraint_set(C, np.zeros(2))
        assert exc.value.deficiency == 1

    def test_feasibility_map(self):
        rng = np.random.default_rng(7)
        cs = build_constraint_set(rng.standard_normal((5, 2)), rng.standard_normal(2))
        w = cs.project(rng.standard_normal(5))
        assert cs.residual(w) <= 1e-12
        np.testing.assert_allclose(cs.project(w), w, atol=1e-12)


class TestLinearPhase:
    def test_even_length_hand_check(self):
        cs = linear_phase_constraints(4)
        np.testing.assert_allclose(
            cs.C, [[1, 0], [0, 1], [0, -1], [-1, 0]], atol=1e-14
        )
        # C^T w = 0 forces w0 = w3, w1 = w2
        w = np.array([3.0, -1.0, -1.0, 3.0])
        assert cs.residual(w) == 0.0
        assert cs.residual(np.array([3.0, -1.0, -1.0, 2.0])) > 0.5

    def test_odd_length_hand_check(self):
        cs = linear_phase_constraints(3)
        np.testing.assert_allclose(cs.C, [[1], [0], [-1]], atol=1e-14)
        assert cs.residual(np.array([2.0, 5.0, 2.0])) == 0.0

    @pytest.mark.parametrize("L", [2, 3, 4, 7, 10, 11])
    def test_symmetry_iff_feasible(self, L):
        cs = linear_phase_constraints(L)
        assert cs.C.shape == (L, L // 2)
        np.testing.assert_allclose(cs.f, np.zeros(L), atol=1e-14)
        rng = np.random.default_rng(L)
        w = rng.standard_normal(L)
        sym = cs.P @ w  # projection of anything is symmetric
        np.testing.assert_allclose(sym, sym[::-1], atol=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            linear_phase_constraints(1)
