import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcost.optim import (OptimizerConfig, minimize, param_to_unit_vector,
                         param_to_unitary)
from qcost.qmat import InputError

CFG = OptimizerConfig(seed=3)


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


class TestMinimize:
    def test_convex_bowl(self):
        res = minimize(lambda x: float(np.sum(x * x)), 4, CFG)
        assert res.best_value <= 1e-12

    def test_rosenbrock(self):
        res = minimize(rosenbrock, 2, CFG)
        assert res.best_value <= 1e-6
        assert rosenbrock(res.best_params) <= 1e-6

    def test_constant_objective(self):
        res = minimize(lambda x: 7.25, 3, CFG)
        assert res.best_value == 7.25

    def test_infinite_values_reflected_away(self):
        def fenced(x):
            if x[0] < 0:
                return np.inf
            return float((x[0] - 2.0) ** 2)

        res = minimize(fenced, 1, CFG)
        assert res.best_value <= 1e-10

    def test_nan_treated_as_infinite(self):
        def sometimes_nan(x):
            if abs(x[0]) > 1.0:
                return np.nan
            return float(x[0] ** 2)

        res = minimize(sometimes_nan, 1, CFG)
        assert np.isfinite(res.best_value)

    def test_determinism(self):
        r1 = minimize(rosenbrock, 2, CFG)
        r2 = minimize(rosenbrock, 2, CFG)
        assert r1.best_value == r2.best_value
        assert np.array_equal(r1.best_params, r2.best_params)
        assert r1.per_start_values == r2.per_start_values

    def test_best_is_min_of_starts(self):
        res = minimize(rosenbrock, 2, CFG)
        assert res.best_value == min(res.per_start_values)

    def test_reported_value_is_achieved(self):
        res = minimize(rosenbrock, 2, CFG)
        assert res.best_value <= rosenbrock(res.best_params) + 1e-12

    def test_extra_starts_are_used(self):
        cfg = OptimizerConfig(restarts=1, seed=0)
        res = minimize(rosenbrock, 2, cfg, extra_starts=[np.array([1.0, 1.0])])
        assert res.per_start_values[0] <= 1e-12

    def test_zero_dim_rejected(self):
        with pytest.raises(InputError):
            minimize(lambda x: 0.0, 0, CFG)

    def test_config_validation(self):
        with pytest.raises(InputError):
            OptimizerConfig(restarts=0)
        with pytest.raises(InputError):
            OptimizerConfig(xtol=0.0)


class TestParamToUnitary:
    def test_zero_gives_identity(self):
        assert_allclose(param_to_unitary(np.zeros(4), 2), np.eye(2), atol=1e-14)

    def test_matches_closed_form_2x2(self):
        # H = theta * (n . sigma) with unit n: exp(iH) = cos(theta) I + i sin(theta) n.sigma
        theta = 0.7
        n = np.array([0.6, 0.8, 0.0])
        # params: diag (h00, h11), re upper, im upper
        # H = [[nz, nx - i ny], [nx + i ny, -nz]] * theta
        params = np.array([theta * n[2], -theta * n[2], theta * n[0], -theta * n[1]])
        u = param_to_unitary(params, 2)
        sx = np.array([[0, 1], [1, 0]])
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0])
        expected = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * (
            n[0] * sx + n[1] * sy + n[2] * sz)
        assert_allclose(u, expected, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_always_unitary(self, d):
        gen = np.random.default_rng(d)
        for _ in range(5):
            u = param_to_unitary(gen.normal(size=d * d), d)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10

    def test_wrong_length(self):
        with pytest.raises(InputError):
            param_to_unitary(np.zeros(3), 2)


class TestParamToUnitVector:
    def test_basis_cases(self):
        assert_allclose(param_to_unit_vector(np.array([1, 0, 0, 0.0]), 2), [1, 0])
        assert_allclose(param_to_unit_vector(np.array([0, 1, 0, 0.0]), 2), [0, 1])

    def test_norm_one(self):
        gen = np.random.default_rng(10)
        for _ in range(10):
            v = param_to_unit_vector(gen.normal(size=6), 3)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            param_to_unit_vector(np.zeros(4), 2)

    def test_wrong_length(self):
        with pytest.raises(InputError):
            param_to_unit_vector(np.zeros(3), 2)
