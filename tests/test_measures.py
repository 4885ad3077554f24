import numpy as np
import pytest
from scipy.linalg import logm, sqrtm

from qcost.measures import (DistanceKind, Objective, bures_distance, fidelity,
                            purity, relative_entropy, trace_distance, vn_entropy)
from qcost.qmat import DensityMatrix, InputError, SubsystemDims, vector_state
from qcost.quantumness import computational_basis, measure_channel
from qcost.statezoo import eta_state, ginibre_mixed, haar_unitary

from conftest import bell_dm, random_hermitian, random_unit_vector

QUBIT = SubsystemDims(("A",), (2,))
TWOQ = SubsystemDims(("A", "B"), (2, 2))


def qubit_diag(p):
    return DensityMatrix(np.diag([p, 1.0 - p]).astype(complex), QUBIT)


def random_state(dims, seed, rank=None):
    return ginibre_mixed(dims, rank or dims.total_dim, seed, 0)


class TestVnEntropy:
    def test_pure_state(self):
        assert vn_entropy(bell_dm()) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert vn_entropy(qubit_diag(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_eta_value(self):
        expected = np.log2(3) / 3 + 2 * np.log2(6) / 3
        assert vn_entropy(eta_state()) == pytest.approx(expected, abs=1e-12)


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rho = random_state(TWOQ, 10)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_eta_against_dephased_eta(self):
        eta = eta_state()
        etap = measure_channel(eta, computational_basis("C", 2))
        assert relative_entropy(eta, etap) == pytest.approx(1 / 3, abs=1e-12)

    def test_disjoint_supports_infinite(self):
        zero = qubit_diag(1.0)
        one = qubit_diag(0.0)
        assert relative_entropy(zero, one) == np.inf

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            relative_entropy(qubit_diag(0.5), bell_dm())


class TestTraceDistance:
    def test_self_is_zero(self):
        rho = random_state(TWOQ, 11)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert trace_distance(qubit_diag(1.0), qubit_diag(0.0)) == pytest.approx(1.0)

    def test_classical_closed_form(self):
        for p, q in [(0.3, 0.8), (0.05, 0.6), (0.5, 0.5)]:
            assert trace_distance(qubit_diag(p), qubit_diag(q)) == \
                pytest.approx(abs(p - q), abs=1e-12)


class TestFidelity:
    def test_self_is_one(self):
        rho = random_state(TWOQ, 12)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_pure_overlap(self):
        psi = random_unit_vector(4, 1)
        phi = random_unit_vector(4, 2)
        f = fidelity(vector_state(psi, TWOQ), vector_state(phi, TWOQ))
        assert f == pytest.approx(abs(np.vdot(psi, phi)) ** 2, abs=1e-10)

    def test_commuting_bhattacharyya(self):
        gen = np.random.default_rng(13)
        p = gen.dirichlet(np.ones(4))
        q = gen.dirichlet(np.ones(4))
        a = DensityMatrix(np.diag(p).astype(complex), TWOQ)
        b = DensityMatrix(np.diag(q).astype(complex), TWOQ)
        assert fidelity(a, b) == pytest.approx(np.sum(np.sqrt(p * q)) ** 2, abs=1e-10)


class TestBures:
    def test_self_is_zero(self):
        rho = random_state(TWOQ, 14)
        assert bures_distance(rho, rho) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_pure_states(self):
        assert bures_distance(qubit_diag(1.0), qubit_diag(0.0)) == pytest.approx(2.0)

    def test_consistency_with_fidelity(self):
        a = random_state(TWOQ, 15)
        b = random_state(TWOQ, 16)
        assert bures_distance(a, b) == \
            pytest.approx(2 * (1 - np.sqrt(fidelity(a, b))), abs=1e-12)


THREEQ = SubsystemDims(("A", "B", "C"), (2, 2, 2))


def reference_distance(kind, rho, sigma):
    """The three functionals from scipy's logm and sqrtm, sharing no code
    with Objective."""
    if kind is DistanceKind.RELATIVE_ENTROPY:
        return np.trace(rho @ (logm(rho) - logm(sigma))).real / np.log(2.0)
    if kind is DistanceKind.TRACE:
        return 0.5 * np.sum(np.linalg.svd(rho - sigma, compute_uv=False))
    root = sqrtm(rho)
    f = np.trace(sqrtm(root @ sigma @ root)).real ** 2
    return 2.0 * (1.0 - np.sqrt(f))


class TestObjective:
    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_value_matches_reference_formulas(self, kind):
        for i in range(5):
            rho = ginibre_mixed(THREEQ, 8, 30, 2 * i).mat
            sigma = ginibre_mixed(THREEQ, 8, 30, 2 * i + 1).mat
            assert Objective(rho, kind).value(sigma) == pytest.approx(
                reference_distance(kind, rho, sigma), abs=1e-10)

    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_gradient_matches_central_differences(self, kind):
        eps = 1e-7
        for i in range(5):
            rho = ginibre_mixed(THREEQ, 8, 31, 2 * i).mat
            sigma = ginibre_mixed(THREEQ, 8, 31, 2 * i + 1).mat
            h = random_hermitian(8, 310 + i)
            h -= np.trace(h).real / 8 * np.eye(8)  # stay on unit trace
            objective = Objective(rho, kind)
            numeric = (objective.value(sigma + eps * h)
                       - objective.value(sigma - eps * h)) / (2 * eps)
            analytic = np.vdot(objective.evaluate(sigma)[1], h).real
            assert abs(numeric - analytic) <= 1e-6 * abs(analytic)


    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_evaluate_pairs_value_and_gradient(self, kind):
        # the polish reads both from one eigendecomposition; the gradient
        # is checked against central differences above
        for i in range(3):
            rho = ginibre_mixed(THREEQ, 8, 32, 2 * i).mat
            sigma = ginibre_mixed(THREEQ, 8, 32, 2 * i + 1).mat
            objective = Objective(rho, kind)
            value, grad = objective.evaluate(sigma)
            assert value == pytest.approx(objective.value(sigma), abs=1e-12)
            assert grad.shape == sigma.shape

    @pytest.mark.parametrize("mu", [1e-2, 1e-4])
    def test_smoothed_trace_gradient_matches_central_differences(self, mu):
        eps = 1e-8
        for i in range(5):
            rho = ginibre_mixed(THREEQ, 8, 33, 2 * i).mat
            sigma = ginibre_mixed(THREEQ, 8, 33, 2 * i + 1).mat
            h = random_hermitian(8, 330 + i)
            h -= np.trace(h).real / 8 * np.eye(8)
            objective = Objective(rho, DistanceKind.TRACE, mu)
            numeric = (objective.value(sigma + eps * h)
                       - objective.value(sigma - eps * h)) / (2 * eps)
            analytic = np.vdot(objective.evaluate(sigma)[1], h).real
            assert abs(numeric - analytic) <= 1e-6 * abs(analytic)

    @pytest.mark.parametrize("mu", [1e-1, 1e-3, 1e-6])
    def test_smoothed_trace_is_within_n_mu_over_two(self, mu):
        for i in range(5):
            rho = ginibre_mixed(THREEQ, 2, 34, 2 * i).mat
            sigma = ginibre_mixed(THREEQ, 8, 34, 2 * i + 1).mat
            exact = Objective(rho, DistanceKind.TRACE).value(sigma)
            for gradient in (False, True):
                smoothed = Objective(rho, DistanceKind.TRACE, mu).evaluate(
                    sigma, gradient)[0]
                assert exact <= smoothed <= exact + 8 * mu / 2

    def test_unsmoothed_trace_is_the_kinked_formula(self):
        # 0.5 sum |lam| and 0.5 V sign(lam) V^dag, the formulas the smoothed
        # one replaced, bit for bit; sigma = rho adds exact zero eigenvalues
        for i in range(5):
            rho = ginibre_mixed(THREEQ, 2, 35, 2 * i).mat
            for sigma in (ginibre_mixed(THREEQ, 8, 35, 2 * i + 1).mat, rho):
                objective = Objective(rho, DistanceKind.TRACE)
                w = np.linalg.eigvalsh(rho - sigma)
                assert objective.value(sigma) == float(0.5 * np.sum(np.abs(w)))
                w, v = np.linalg.eigh(sigma - rho)
                value, grad = objective.evaluate(sigma)
                assert value == float(0.5 * np.sum(np.abs(w)))
                assert np.array_equal(grad, 0.5 * (v * np.sign(w)) @ v.conj().T)

    @pytest.mark.parametrize("kind", [DistanceKind.RELATIVE_ENTROPY,
                                      DistanceKind.BURES])
    def test_smoothing_is_trace_only(self, kind):
        rho = ginibre_mixed(THREEQ, 8, 36, 0).mat
        with pytest.raises(InputError):
            Objective(rho, kind, 1e-3)


class TestPurity:
    def test_pure_and_mixed(self):
        assert purity(bell_dm()) == pytest.approx(1.0, abs=1e-12)
        assert purity(qubit_diag(0.5)) == pytest.approx(0.5, abs=1e-12)


class TestProperties:
    def test_nonnegativity_and_zero_iff(self):
        for i in range(20):
            rho = ginibre_mixed(TWOQ, 4, 20, 2 * i)
            sigma = ginibre_mixed(TWOQ, 4, 20, 2 * i + 1)
            s = relative_entropy(rho, sigma)
            assert s >= -1e-9
            if trace_distance(rho, sigma) > 1e-6:
                assert s > 1e-9
        rho = ginibre_mixed(TWOQ, 4, 21, 0)
        assert relative_entropy(rho, rho) <= 1e-9
        assert trace_distance(rho, rho) <= 1e-6

    def test_pinsker(self):
        for i in range(20):
            rho = ginibre_mixed(TWOQ, 4, 22, 2 * i)
            sigma = ginibre_mixed(TWOQ, 4, 22, 2 * i + 1)
            lhs = relative_entropy(rho, sigma)
            rhs = (2 / np.log(2)) * trace_distance(rho, sigma) ** 2
            assert lhs >= rhs - 1e-9

    def test_unitary_invariance(self):
        rho = ginibre_mixed(TWOQ, 4, 23, 0)
        sigma = ginibre_mixed(TWOQ, 4, 23, 1)
        u = haar_unitary(4, 23, 2)
        ru = DensityMatrix(u @ rho.mat @ u.conj().T, TWOQ)
        su = DensityMatrix(u @ sigma.mat @ u.conj().T, TWOQ)
        assert vn_entropy(ru) == pytest.approx(vn_entropy(rho), abs=1e-9)
        assert relative_entropy(ru, su) == pytest.approx(
            relative_entropy(rho, sigma), abs=1e-9)
        assert trace_distance(ru, su) == pytest.approx(
            trace_distance(rho, sigma), abs=1e-9)
        assert fidelity(ru, su) == pytest.approx(fidelity(rho, sigma), abs=1e-9)
        assert bures_distance(ru, su) == pytest.approx(
            bures_distance(rho, sigma), abs=1e-9)

    def test_trace_triangle(self):
        for i in range(50):
            a = ginibre_mixed(TWOQ, 4, 24, 3 * i)
            b = ginibre_mixed(TWOQ, 4, 24, 3 * i + 1)
            c = ginibre_mixed(TWOQ, 4, 24, 3 * i + 2)
            assert trace_distance(a, c) <= \
                trace_distance(a, b) + trace_distance(b, c) + 1e-9

    def test_bures_form_triangle_reported_not_asserted(self, capsys):
        """The squared-free Bures form is not assumed to satisfy the
        triangle inequality; violations are counted and reported."""
        violations = 0
        worst = 0.0
        for i in range(50):
            a = ginibre_mixed(TWOQ, 4, 25, 3 * i)
            b = ginibre_mixed(TWOQ, 4, 25, 3 * i + 1)
            c = ginibre_mixed(TWOQ, 4, 25, 3 * i + 2)
            slack = bures_distance(a, b) + bures_distance(b, c) - bures_distance(a, c)
            if slack < -1e-9:
                violations += 1
                worst = min(worst, slack)
        print(f"bures-form triangle: {violations}/50 violations, worst slack {worst:.3e}")
        # orthogonal pure triple violates the bures-form triangle outright
        zero = qubit_diag(1.0)
        one = qubit_diag(0.0)
        plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex), QUBIT)
        assert bures_distance(zero, plus) + bures_distance(plus, one) \
            < bures_distance(zero, one)
