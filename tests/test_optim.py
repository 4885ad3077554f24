import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcost import optim
from qcost.optim import (OptimizerConfig, bloch_with_pullback, descend,
                         minimize, param_to_unitary, unitary_with_pullback)
from qcost.measures import DistanceKind
from qcost.qmat import InputError
from qcost.quantumness import _deficit_objective, _in_parameters
from qcost.statezoo import TRIPARTITE_QUBITS, ginibre_mixed

CFG = OptimizerConfig(seed=3)
LBFGSB = optim.lbfgsb_options(20000)


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


class TestDescend:
    @staticmethod
    def deficit_search_objective():
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 2, 7, 0)
        return _in_parameters(_deficit_objective(
            rho, "C", DistanceKind.RELATIVE_ENTROPY), 2)

    @staticmethod
    def unmemoized_descend(objective, x0, max_evals):
        """L-BFGS-B descend without its memo: every evaluation calls the
        objective."""
        from scipy.optimize import minimize as scipy_minimize
        seen = [np.inf, x0]

        def tracked(x):
            value, grad = objective(x)
            if value < seen[0]:
                seen[:] = value, x.copy()
            return value, grad

        res = scipy_minimize(tracked, x0, jac=True, method="L-BFGS-B",
                             options={"maxfun": max_evals,
                                      "ftol": optim._DECREASE_TOL,
                                      "gtol": optim._GRADIENT_TOL})
        x = seen[1]
        return float(objective(x)[0]), x, int(res.nfev) + 1

    @pytest.mark.parametrize("name", ["deficit", "rosenbrock"])
    def test_one_call_per_distinct_point(self, name):
        objective = (self.deficit_search_objective() if name == "deficit"
                     else rosenbrock)
        points = []

        def counted(x):
            points.append(x.tobytes())
            return objective(x)

        x0 = np.array([0.3, 0.2])
        value, x, evals = descend(counted, x0, "L-BFGS-B", LBFGSB)
        want_value, want_x, want_evals = self.unmemoized_descend(objective, x0, 20000)
        assert value == want_value
        assert np.array_equal(x, want_x)
        assert evals == want_evals
        assert len(points) == len(set(points))
        # the last evaluation is always a revisit; the deficit search's line
        # search revisits more points
        assert len(points) < evals
        if name == "deficit":
            assert len(points) < evals - 1

    @pytest.mark.parametrize("name", ["deficit", "rosenbrock"])
    def test_tnc_returns_its_lowest_point(self, name):
        objective = (self.deficit_search_objective() if name == "deficit"
                     else rosenbrock)
        points, values = [], []

        def counted(x):
            value, grad = objective(x)
            points.append(x.tobytes())
            values.append(value)
            return value, grad

        value, x, evals = descend(counted, np.array([0.3, 0.2]), "TNC",
                                  {"maxfun": 200, "maxCGit": 10})
        assert value == min(values)
        assert value == objective(x)[0]
        assert len(points) == len(set(points))
        assert len(points) < evals

    def test_objective_may_reuse_its_gradient_array(self):
        # the memo keeps a copy of each gradient, so an objective that
        # overwrites one array on every call leaves revisits intact
        objective = self.deficit_search_objective()
        buffer = np.empty(2)

        def reusing(x):
            value, grad = objective(x)
            buffer[:] = grad
            return value, buffer

        x0 = np.array([0.3, 0.2])
        value, x, evals = descend(reusing, x0, "L-BFGS-B", LBFGSB)
        want_value, want_x, want_evals = descend(objective, x0, "L-BFGS-B", LBFGSB)
        assert (value, evals) == (want_value, want_evals)
        assert np.array_equal(x, want_x)

    def test_one_scipy_optimize_call_site(self):
        # every search runs through descend: no other module imports the
        # optimizer, so every search returns its lowest evaluated point
        src = Path(optim.__file__).parent
        imports = [(path.name, line.strip())
                   for path in sorted(src.glob("*.py"))
                   for line in path.read_text().splitlines()
                   if re.match(r"\s*(from|import)\s+scipy(\.optimize\b|\s+import.*\boptimize\b)",
                               line)]
        assert [name for name, _ in imports] == ["optim.py"], imports


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

