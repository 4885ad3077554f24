import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcost import entanglement
from qcost.entanglement import (SeparableEnsemble, coherent_info_lower,
                                ensemble_to_state, measured_separable_upper,
                                ppt_min_eigenvalue, pure_state_entanglement,
                                ree_upper)
from qcost.measures import (DistanceKind, distance, relative_entropy,
                            vn_entropy)
from qcost.qmat import (Bipartition, DensityMatrix, InputError, SubsystemDims,
                        partial_trace, permute_subsystems, vector_state)
from qcost.quantumness import computational_basis, measure_channel
from qcost.statezoo import (TRIPARTITE_QUBITS, eta_separable_ensemble,
                            eta_state, ghz_state, ginibre_mixed, haar_pure)

from conftest import bell_dm, random_unit_vector

TWOQ = SubsystemDims(("A", "B"), (2, 2))
CUT_AB = Bipartition(("A",), ("B",))
CUT_A_BC = Bipartition.parse("A|BC", ("A", "B", "C"))
CUT_AC_B = Bipartition.parse("AC|B", ("A", "B", "C"))
CUT_AB_C = Bipartition.parse("AB|C", ("A", "B", "C"))
SEED = 2


def random_separable(dims, cut, terms, seed):
    gen = np.random.default_rng(seed)
    dx = dims.subset_dim(cut.left)
    dy = dims.subset_dim(cut.right)
    w = gen.dirichlet(np.ones(terms))
    left, right = [], []
    for _ in range(terms):
        a = gen.normal(size=dx) + 1j * gen.normal(size=dx)
        b = gen.normal(size=dy) + 1j * gen.normal(size=dy)
        left.append(a / np.linalg.norm(a))
        right.append(b / np.linalg.norm(b))
    return SeparableEnsemble(cut, w, np.array(left), np.array(right))


class TestEnsembleToState:
    def test_single_product(self):
        e = SeparableEnsemble(CUT_AB, np.array([1.0]),
                              np.array([[1.0, 0j]]), np.array([[1.0, 0j]]))
        rho = ensemble_to_state(e, TWOQ)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert_allclose(rho.mat, expected, atol=1e-14)

    def test_classical_mixture(self):
        rows = np.eye(2, dtype=complex)
        e = SeparableEnsemble(CUT_AB, np.array([0.5, 0.5]), rows, rows)
        rho = ensemble_to_state(e, TWOQ)
        assert_allclose(np.diag(rho.mat).real, [0.5, 0, 0, 0.5], atol=1e-14)
        assert vn_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_outputs_are_ppt(self):
        for seed in range(5):
            e = random_separable(TRIPARTITE_QUBITS, CUT_AC_B, 6, seed)
            rho = ensemble_to_state(e, TRIPARTITE_QUBITS)
            assert ppt_min_eigenvalue(rho, CUT_AC_B) >= -1e-9

    def test_eta_decomposition_is_exact(self):
        eta = eta_state()
        for cut, left in ((CUT_AC_B, "AC"), (CUT_AB_C, "AB")):
            e = SeparableEnsemble(cut, *eta_separable_ensemble(left))
            assert np.max(np.abs(ensemble_to_state(e, TRIPARTITE_QUBITS).mat
                                 - eta.mat)) <= 1e-15

    def test_weight_and_norm_validation(self):
        v = np.array([[1.0, 0j]])
        with pytest.raises(InputError):
            SeparableEnsemble(CUT_AB, np.array([0.7, 0.7]), np.vstack([v, v]),
                              np.vstack([v, v]))
        with pytest.raises(InputError):
            SeparableEnsemble(CUT_AB, np.array([1.0]), 2 * v, v)
        with pytest.raises(InputError):  # row counts differ
            SeparableEnsemble(CUT_AB, np.array([1.0]), v, np.vstack([v, v]))
        with pytest.raises(InputError):  # NaN weights and rows are rejected
            SeparableEnsemble(CUT_AB, np.array([np.nan]), v, v)
        with pytest.raises(InputError):
            SeparableEnsemble(CUT_AB, np.array([1.0]), np.array([[np.nan, 1.0]]), v)

    def test_rows_are_read_only_copies(self):
        rows = np.eye(2, dtype=complex)
        e = SeparableEnsemble(CUT_AB, np.array([0.5, 0.5]), rows, rows)
        rows[0, 0] = 0.0
        assert e.left[0, 0] == 1.0
        for arr in (e.weights, e.left, e.right):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_dimension_mismatch(self):
        v3 = np.array([[1.0, 0j, 0j]])
        e = SeparableEnsemble(CUT_AB, np.array([1.0]), v3, v3[:, :2])
        with pytest.raises(InputError):
            ensemble_to_state(e, TWOQ)


class TestReeUpper:
    def test_separable_input_goes_to_zero(self):
        e = random_separable(TWOQ, CUT_AB, 6, 3)
        rho = ensemble_to_state(e, TWOQ)
        value, _ = ree_upper(rho, CUT_AB, seed=SEED)
        assert 0.0 <= value <= 1e-4

    def test_bell_state(self):
        value, ensemble = ree_upper(bell_dm(), CUT_AB, seed=SEED)
        assert 1.0 - 1e-9 <= value <= 1.0 + 1e-3
        sigma = ensemble_to_state(ensemble, TWOQ)
        assert relative_entropy(bell_dm(), sigma) == pytest.approx(value, abs=1e-12)

    def test_eta_separable_cuts(self):
        eta = eta_state()
        # at seed 144002 the recomputed relative entropy rounds to -2e-13
        for seed in (SEED, 144002):
            for cut in (CUT_AC_B, CUT_AB_C):
                value, _ = ree_upper(eta, cut, seed=seed)
                assert 0.0 <= value <= 1e-3

    def test_trace_kind_upper_bounds(self):
        # the dephased Bell state certifies a trace-distance value of 1/2
        value, ensemble = ree_upper(bell_dm(), CUT_AB, DistanceKind.TRACE, seed=SEED)
        assert -1e-9 <= value <= 0.5 + 1e-6
        assert ensemble_to_state(ensemble, TWOQ).dims.dims == (2, 2)

    def test_bures_kind_upper_bounds(self):
        value, _ = ree_upper(bell_dm(), CUT_AB, DistanceKind.BURES, seed=SEED)
        exact_f = 0.5  # max product-state overlap with a Bell state
        assert -1e-9 <= value <= 2 * (1 - np.sqrt(exact_f)) + 1e-3

    @pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda k: k.value)
    def test_pure_product_reached_with_one_term(self, kind):
        rho = vector_state(np.kron([1, 0], [0, 1]).astype(complex), TWOQ)
        value, ensemble = ree_upper(rho, CUT_AB, kind, seed=SEED)
        assert value <= 1e-8
        assert len(ensemble) == 1

    def test_ensemble_within_caratheodory_cap(self):
        # dx = 4, dy = 2 on AC|B: at most (4*2)**2 product terms
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 30, 0)
        _, ensemble = ree_upper(rho, CUT_AC_B, seed=SEED, max_iters=40)
        assert len(ensemble) <= 4 * 2 + 10 <= (4 * 2) ** 2


class TestSearch:
    """The dephased start, the L-BFGS-B and TNC polishes that run from it,
    and the row turn between them."""

    STATES = [eta_state(), ginibre_mixed(TRIPARTITE_QUBITS, 2, 37, 0),
              ginibre_mixed(TRIPARTITE_QUBITS, 8, 37, 1),
              vector_state(haar_pure(TRIPARTITE_QUBITS, 37, 2), TRIPARTITE_QUBITS)]

    @staticmethod
    def dephased_start(rho, cut):
        """rho in cut order and rho dephased in the product of its
        marginals' eigenbases."""
        rc = permute_subsystems(rho, cut.left + cut.right)
        dx = rho.dims.subset_dim(cut.left)
        dy = rho.dims.subset_dim(cut.right)
        t = rc.mat.reshape(dx, dy, dx, dy)
        _, vx = np.linalg.eigh(np.einsum("ijkj->ik", t))
        _, vy = np.linalg.eigh(np.einsum("ijil->jl", t))
        u = np.kron(vx, vy)
        weights = np.diag(u.conj().T @ rc.mat @ u).real
        return rc, DensityMatrix((u * weights) @ u.conj().T, rc.dims)

    @pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda k: k.value)
    def test_never_above_start(self, kind):
        for rho in self.STATES:
            for cut in (CUT_AC_B, CUT_A_BC):
                rc, start = self.dephased_start(rho, cut)
                assert ppt_min_eigenvalue(start, cut) >= -1e-12
                value, ensemble = ree_upper(rho, cut, kind, seed=SEED)
                assert value <= distance(kind, rc, start) + 1e-12
                dxdy = rho.dims.subset_dim(cut.left) * rho.dims.subset_dim(cut.right)
                assert len(ensemble) <= dxdy + 10

    def test_certified_start_runs_no_polish(self, monkeypatch):
        # on a pure state the relative-entropy start meets the hashing bound
        def no_polish(*args):
            raise AssertionError("polish ran on a certified start")

        monkeypatch.setattr(entanglement, "_polish", no_polish)
        psi = haar_pure(TRIPARTITE_QUBITS, 38, 0)
        value, ensemble = ree_upper(vector_state(psi, TRIPARTITE_QUBITS), CUT_AC_B)
        assert value == pytest.approx(pure_state_entanglement(
            psi, CUT_AC_B, TRIPARTITE_QUBITS), abs=1e-12)
        assert len(ensemble) == 2
        with pytest.raises(AssertionError):
            ree_upper(self.STATES[1], CUT_AC_B)

    def test_rerun_is_bit_identical(self):
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 2, 37, 0)
        for kind in DistanceKind:
            first = ree_upper(rho, CUT_AC_B, kind, seed=SEED)
            again = ree_upper(rho, CUT_AC_B, kind, seed=SEED)
            assert first[0] == again[0]
            for name in ("weights", "left", "right"):
                assert np.array_equal(getattr(first[1], name),
                                      getattr(again[1], name))

    # E_AC|B upper bounds that the 120-iteration conditional-gradient search
    # reached on the first three powered rank-2 states of seed 1
    PINNED_E_AC_B = (0.5168384771890622, 0.536379222027322, 0.5774893871815967)

    def test_powered_audit_bounds_not_looser(self):
        for i, pinned in enumerate(self.PINNED_E_AC_B):
            rho = ginibre_mixed(TRIPARTITE_QUBITS, 2, 1, i)
            assert coherent_info_lower(rho, CUT_A_BC) > 0.0
            value, _ = ree_upper(rho, CUT_AC_B, seed=1)
            assert value <= pinned

    # (ginibre seed, index, cut, row seed, value of the conditional-gradient
    # search): the two agreement cases that one L-BFGS-B polish, without
    # the row turn and TNC, left looser by 2.2e-6 and 3.4e-5
    PINNED_HARD = ((7, 1, CUT_AB_C, 7, 0.448436496582),
                   (601, 1, CUT_AC_B, 601, 0.564964614364))

    def test_slow_rows_not_looser(self):
        for gseed, i, cut, seed, pinned in self.PINNED_HARD:
            rho = ginibre_mixed(TRIPARTITE_QUBITS, 2, gseed, i)
            value, _ = ree_upper(rho, cut, seed=seed)
            assert value <= pinned

    def test_turn_moves_lightest_row_to_descent(self):
        # rho = |00><00| against (|00><00| + |11><11|)/2 and a light |01>
        # row: only weight moved to |00> lowers the relative entropy
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        objective = entanglement.Objective(rho, DistanceKind.RELATIVE_ENTROPY)
        e = np.eye(2, dtype=complex)
        weights = np.array([0.5 - 5e-4, 0.5 - 5e-4, 1e-3])
        left, right = e[[0, 1, 0]], e[[0, 1, 1]]
        seeded = random_separable(TWOQ, CUT_AB, 3, 4)
        turned = entanglement._turn_lightest_row(
            objective, weights, left, right, seeded.left, seeded.right)
        w, a, b = turned
        assert np.sum(w) == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(a[:2], left[:2]) and np.array_equal(b[:2], right[:2])
        assert abs(a[2, 0] * b[2, 0]) == pytest.approx(1.0, abs=1e-12)
        assert w[2] == max(entanglement._TURN_WEIGHTS)

        def value(rows):
            return relative_entropy(DensityMatrix(rho, TWOQ), ensemble_to_state(
                SeparableEnsemble(CUT_AB, *rows), TWOQ))

        assert value(turned) < value((weights, left, right)) - 0.3

    def test_eta_trace_kind_a_bc_is_one_sixth(self):
        # the partial transpose on A has lowest eigenvalue -1/6 with a
        # maximally entangled eigenvector (Schmidt coefficients 1/sqrt 2),
        # so its witness gives E_T(A|BC) >= 1/6 and the value is exact
        value, _ = ree_upper(eta_state(), CUT_A_BC, DistanceKind.TRACE, seed=SEED)
        assert value == pytest.approx(1 / 6, abs=1e-6)


class TestPureStateEntanglement:
    def test_product_state(self):
        psi = np.kron(random_unit_vector(2, 1), random_unit_vector(4, 2))
        assert pure_state_entanglement(psi, CUT_A_BC, TRIPARTITE_QUBITS) == \
            pytest.approx(0.0, abs=1e-12)

    def test_ghz(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        assert pure_state_entanglement(ghz, CUT_A_BC, TRIPARTITE_QUBITS) == \
            pytest.approx(1.0, abs=1e-12)

    def test_matches_reduced_entropy(self):
        for i in range(5):
            psi = haar_pure(TRIPARTITE_QUBITS, 31, i)
            expected = vn_entropy(partial_trace(
                vector_state(psi, TRIPARTITE_QUBITS), ("B", "C")))
            assert pure_state_entanglement(psi, CUT_A_BC, TRIPARTITE_QUBITS) == \
                pytest.approx(expected, abs=1e-12)

    def test_norm_checked(self):
        with pytest.raises(InputError):
            pure_state_entanglement(np.ones(8), CUT_A_BC, TRIPARTITE_QUBITS)


class TestCoherentInfoLower:
    def test_never_negative(self):
        e = random_separable(TWOQ, CUT_AB, 4, 32)
        rho = ensemble_to_state(e, TWOQ)
        assert coherent_info_lower(rho, CUT_AB) >= 0.0

    def test_bell(self):
        assert coherent_info_lower(bell_dm(), CUT_AB) == pytest.approx(1.0, abs=1e-9)

    def test_pure_tripartite_equals_reduced_entropy(self):
        for i in range(5):
            psi = haar_pure(TRIPARTITE_QUBITS, 33, i)
            rho = vector_state(psi, TRIPARTITE_QUBITS)
            assert coherent_info_lower(rho, CUT_A_BC) == pytest.approx(
                pure_state_entanglement(psi, CUT_A_BC, TRIPARTITE_QUBITS), abs=1e-9)


class TestPptMinEigenvalue:
    def test_eta_separable_cuts(self):
        eta = eta_state()
        assert ppt_min_eigenvalue(eta, CUT_AB_C) >= -1e-9
        assert ppt_min_eigenvalue(eta, CUT_AC_B) >= -1e-9

    def test_bell(self):
        assert ppt_min_eigenvalue(bell_dm(), CUT_AB) == pytest.approx(-0.5, abs=1e-12)

    def test_product_state(self):
        rho = vector_state(np.kron([1, 0], [1, 0]).astype(complex), TWOQ)
        assert ppt_min_eigenvalue(rho, CUT_AB) >= -1e-12


class TestMeasuredSeparableUpper:
    def test_measurement_invariant_pair_gives_zero(self):
        rho = DensityMatrix(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex), TWOQ)
        basis = computational_basis("B", 2)
        value = measured_separable_upper(rho, rho, basis, CUT_AB)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_eta_reproduces_one_third(self):
        eta = eta_state()
        etap = measure_channel(eta, computational_basis("C", 2))
        value = measured_separable_upper(eta, etap, computational_basis("C", 2),
                                         CUT_AC_B)
        assert value == pytest.approx(1 / 3, abs=1e-8)

    def test_collinearity_recomposition(self):
        for i in range(5):
            rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 34, 2 * i)
            e = random_separable(TRIPARTITE_QUBITS, CUT_AC_B, 8, 100 + i)
            sigma = ensemble_to_state(e, TRIPARTITE_QUBITS)
            basis = computational_basis("C", 2)
            whole = measured_separable_upper(rho, sigma, basis, CUT_AC_B)
            rho_p = measure_channel(rho, basis)
            sigma_p = measure_channel(sigma, basis)
            parts = relative_entropy(rho, rho_p) + relative_entropy(rho_p, sigma_p)
            assert whole == pytest.approx(parts, abs=1e-8)

    def test_rejects_entangled_sigma(self):
        basis = computational_basis("B", 2)
        with pytest.raises(InputError):
            measured_separable_upper(bell_dm(), bell_dm(), basis, CUT_AB)


class TestInvariants:
    def test_sandwich_consistency(self):
        states = [bell_dm().mat, ghz_state().mat, eta_state().mat]
        dims_list = [TWOQ, TRIPARTITE_QUBITS, TRIPARTITE_QUBITS]
        cuts = [CUT_AB, CUT_A_BC, CUT_A_BC]
        for mat, dims, cut in zip(states, dims_list, cuts):
            rho = DensityMatrix(mat, dims)
            lower = coherent_info_lower(rho, cut)
            upper, _ = ree_upper(rho, cut, seed=SEED)
            assert lower <= upper + 1e-6
        for i in range(3):
            rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 35, i)
            lower = coherent_info_lower(rho, CUT_AC_B)
            upper, _ = ree_upper(rho, CUT_AC_B, seed=SEED)
            assert lower <= upper + 1e-6

    def test_pure_tripartite_convergence(self):
        for i in range(3):
            psi = haar_pure(TRIPARTITE_QUBITS, 36, i)
            rho = vector_state(psi, TRIPARTITE_QUBITS)
            exact = pure_state_entanglement(psi, CUT_A_BC, TRIPARTITE_QUBITS)
            value, _ = ree_upper(rho, CUT_A_BC, seed=SEED)
            assert exact - 1e-9 <= value <= exact + 1e-12


class TestQuditSupport:
    """Nothing here is qubit-specific: spot checks on a 2x3 system."""

    D23 = SubsystemDims(("A", "B"), (2, 3))
    CUT = Bipartition(("A",), ("B",))

    def test_embedded_bell_pair(self):
        psi = np.zeros(6, dtype=complex)
        psi[0] = psi[4] = 1 / np.sqrt(2)  # (|0,0> + |1,1>)/sqrt(2), qutrit B
        rho = vector_state(psi, self.D23)
        value, _ = ree_upper(rho, self.CUT, seed=SEED)
        assert 1.0 - 1e-9 <= value <= 1.0 + 2e-3
        assert coherent_info_lower(rho, self.CUT) == pytest.approx(1.0, abs=1e-9)
        assert ppt_min_eigenvalue(rho, self.CUT) < -1e-6

    def test_ginibre_bounds_ordered(self):
        rho = ginibre_mixed(self.D23, 6, 77, 0)
        upper, _ = ree_upper(rho, self.CUT, seed=SEED)
        assert coherent_info_lower(rho, self.CUT) <= upper + 1e-6
