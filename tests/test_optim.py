import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcost.optim import (OptimizerConfig, bloch_with_pullback,
                         minimize, param_to_unitary, unitary_with_pullback)
from qcost.qmat import InputError

CFG = OptimizerConfig(seed=3)


def bowl(x):
    return float(np.sum(x * x)), 2.0 * x


def rosenbrock(x):
    value = float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)
    grad = np.array([-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                     200 * (x[1] - x[0] ** 2)])
    return value, grad


class TestMinimize:
    def test_convex_bowl(self):
        res = minimize(bowl, 4, CFG)
        assert res.best_value <= 1e-12

    def test_rosenbrock(self):
        res = minimize(rosenbrock, 2, CFG)
        assert res.best_value <= 1e-6
        assert rosenbrock(res.best_params)[0] <= 1e-6

    def test_constant_objective(self):
        res = minimize(lambda x: (7.25, np.zeros(3)), 3, CFG)
        assert res.best_value == 7.25

    def test_infinite_values_reflected_away(self):
        def fenced(x):
            if x[0] < 0:
                return np.inf, np.zeros(1)
            return float((x[0] - 2.0) ** 2), 2.0 * (x - 2.0)

        res = minimize(fenced, 1, CFG)
        assert res.best_value <= 1e-10

    def test_nan_treated_as_infinite(self):
        # a NaN value never wins the comparison that keeps the best point
        def sometimes_nan(x):
            if abs(x[0]) > 1.0:
                return np.nan, np.full(1, np.nan)
            return float(x[0] ** 2), 2.0 * x

        res = minimize(sometimes_nan, 1, CFG)
        assert np.isfinite(res.best_value)

    def test_determinism(self):
        r1 = minimize(rosenbrock, 2, CFG)
        r2 = minimize(rosenbrock, 2, CFG)
        assert r1.best_value == r2.best_value
        assert np.array_equal(r1.best_params, r2.best_params)
        assert r1.per_start_values == r2.per_start_values
        assert r1.evals_used == r2.evals_used

    def test_best_is_min_of_starts(self):
        res = minimize(rosenbrock, 2, CFG)
        assert res.best_value == min(res.per_start_values)

    def test_reported_value_is_achieved(self):
        res = minimize(rosenbrock, 2, CFG)
        assert res.best_value == rosenbrock(res.best_params)[0]

    def test_never_above_a_start(self):
        # a capped run still reports at most each start's own value
        x0 = np.array([-1.5, 2.0])
        capped = OptimizerConfig(restarts=1, max_evals_per_start=3)
        res = minimize(rosenbrock, 2, capped, extra_starts=[x0])
        assert res.per_start_values[0] <= rosenbrock(x0)[0]

    def test_extra_starts_are_used(self):
        cfg = OptimizerConfig(restarts=1, seed=0)
        res = minimize(rosenbrock, 2, cfg, extra_starts=[np.array([1.0, 1.0])])
        assert res.per_start_values[0] == 0.0
        assert len(res.per_start_values) == 2

    def test_zero_dim_rejected(self):
        with pytest.raises(InputError):
            minimize(bowl, 0, CFG)

    def test_config_validation(self):
        with pytest.raises(InputError):
            OptimizerConfig(restarts=0)
        with pytest.raises(InputError):
            OptimizerConfig(max_evals_per_start=0)


def assert_pullback_matches_differences(with_pullback, n_params, gen):
    """pullback(G) against central differences of F(U) = Re Tr(A^dag U),
    whose derivative in conj(U) is A / 2."""
    x = gen.normal(size=n_params)
    u, pullback = with_pullback(x)
    a = gen.normal(size=u.shape) + 1j * gen.normal(size=u.shape)
    h = 1e-6
    want = [(np.vdot(a, with_pullback(x + h * e)[0]).real
             - np.vdot(a, with_pullback(x - h * e)[0]).real) / (2 * h)
            for e in np.eye(n_params)]
    assert_allclose(pullback(0.5 * a), want, rtol=1e-7, atol=1e-8)


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

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pullback_matches_differences(self, d):
        gen = np.random.default_rng(20 + d)
        for _ in range(3):
            assert_pullback_matches_differences(
                lambda x: unitary_with_pullback(x, d), d * d, gen)

    def test_zero_parameters_give_exact_identity(self):
        for d in (2, 3, 4):
            assert np.array_equal(param_to_unitary(np.zeros(d * d), d), np.eye(d))


class TestBlochUnitary:
    def test_zero_gives_identity(self):
        assert_allclose(bloch_with_pullback(np.zeros(2))[0], np.eye(2), atol=1e-15)

    def test_columns_are_antipodal_bloch_vectors(self):
        sigmas = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.diag([1.0, -1.0]))
        gen = np.random.default_rng(11)
        for theta, phi in gen.normal(scale=2.0, size=(10, 2)):
            u = bloch_with_pullback(np.array([theta, phi]))[0]
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-14
            axis = np.array([np.sin(theta) * np.cos(phi),
                             np.sin(theta) * np.sin(phi), np.cos(theta)])
            for col, sign in ((u[:, 0], 1.0), (u[:, 1], -1.0)):
                bloch = [np.vdot(col, s @ col).real for s in sigmas]
                assert_allclose(bloch, sign * axis, atol=1e-14)

    def test_wrong_length(self):
        with pytest.raises(InputError):
            bloch_with_pullback(np.zeros(3))

    def test_pullback_matches_differences(self):
        gen = np.random.default_rng(30)
        for _ in range(5):
            assert_pullback_matches_differences(bloch_with_pullback, 2, gen)

