import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcost.measures import purity, vn_entropy
from qcost.qmat import Bipartition, InputError, SubsystemDims, partial_trace
from qcost.quantumness import computational_basis, measure_channel
from qcost.entanglement import ppt_min_eigenvalue
from qcost.statezoo import (TRIPARTITE_QUBITS, eta_state, ghz_state,
                            ginibre_mixed, haar_pure, haar_unitary)


class TestGhz:
    def test_trace_and_purity(self):
        ghz = ghz_state()
        assert np.trace(ghz.mat).real == pytest.approx(1.0, abs=1e-12)
        assert purity(ghz) == pytest.approx(1.0, abs=1e-12)

    def test_reduced_state_maximally_mixed(self):
        red = partial_trace(ghz_state(), ("B", "C"))
        assert_allclose(red.mat, np.eye(2) / 2, atol=1e-12)

    def test_coherence_term(self):
        assert ghz_state().mat[0, 7] == pytest.approx(0.5, abs=1e-12)


class TestEta:
    def test_trace(self):
        assert np.trace(eta_state().mat).real == pytest.approx(1.0, abs=1e-12)

    def test_spectrum(self):
        w = np.sort(np.linalg.eigvalsh(eta_state().mat))[::-1]
        expected = [1 / 3, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 0, 0, 0]
        assert_allclose(w, expected, atol=1e-12)

    def test_ppt_across_ab_c(self):
        cut = Bipartition.parse("AB|C", ("A", "B", "C"))
        assert ppt_min_eigenvalue(eta_state(), cut) >= -1e-9

    def test_dephased_entropy_is_log2_six(self):
        etap = measure_channel(eta_state(), computational_basis("C", 2))
        assert vn_entropy(etap) == pytest.approx(np.log2(6), abs=1e-9)


class TestHaarPure:
    def test_unit_norm(self):
        v = haar_pure(TRIPARTITE_QUBITS, 5, 17)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_counter_determinism(self):
        a = haar_pure(TRIPARTITE_QUBITS, 5, 17)
        b = haar_pure(TRIPARTITE_QUBITS, 5, 17)
        assert np.array_equal(a, b)
        c = haar_pure(TRIPARTITE_QUBITS, 5, 18)
        assert not np.array_equal(a, c)

    def test_mean_reduced_state_unitarily_invariant(self):
        # Monte-Carlo check: averaged qubit marginal approaches I/2.
        dims = SubsystemDims(("A", "B"), (2, 4))
        acc = np.zeros((2, 2), dtype=complex)
        n = 10000
        for i in range(n):
            v = haar_pure(dims, 6, i)
            m = v.reshape(2, 4)
            acc += m @ m.conj().T
        acc /= n
        diff = acc - np.eye(2) / 2
        tdist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)))
        assert tdist <= 0.02


class TestGinibre:
    def test_rank_one_is_pure(self):
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 1, 7, 0)
        assert purity(rho) == pytest.approx(1.0, abs=1e-9)

    def test_full_rank_strictly_positive(self):
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 7, 1)
        assert np.linalg.eigvalsh(rho.mat)[0] > 0

    def test_rank_bounds_spectrum(self):
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 3, 7, 2)
        w = np.sort(np.linalg.eigvalsh(rho.mat))[::-1]
        assert np.all(np.abs(w[3:]) <= 1e-12)

    def test_counter_determinism(self):
        a = ginibre_mixed(TRIPARTITE_QUBITS, 8, 7, 3)
        b = ginibre_mixed(TRIPARTITE_QUBITS, 8, 7, 3)
        assert np.array_equal(a.mat, b.mat)

    def test_invalid_rank(self):
        with pytest.raises(InputError):
            ginibre_mixed(TRIPARTITE_QUBITS, 0, 7, 0)
        with pytest.raises(InputError):
            ginibre_mixed(TRIPARTITE_QUBITS, 9, 7, 0)


class TestHaarUnitary:
    def test_unitarity(self):
        u = haar_unitary(4, 8, 0)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    def test_determinism(self):
        assert np.array_equal(haar_unitary(4, 8, 1), haar_unitary(4, 8, 1))


def test_all_constructors_emit_clean_states():
    from qcost.qmat import DensityMatrix, vector_state
    states = [ghz_state(), eta_state(),
              vector_state(haar_pure(TRIPARTITE_QUBITS, 10, 0),
                           TRIPARTITE_QUBITS)]
    states += [ginibre_mixed(TRIPARTITE_QUBITS, 8, 10, i) for i in range(3)]
    for rho in states:
        revalidated = DensityMatrix(rho.mat, rho.dims)
        assert np.max(np.abs(revalidated.mat - rho.mat)) <= 1e-12
