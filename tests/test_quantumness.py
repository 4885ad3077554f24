import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcost.measures import (DistanceKind, distance, relative_entropy,
                            vn_entropy)
from qcost import optim
from qcost.optim import OptimizerConfig
from qcost.qmat import DensityMatrix, InputError, SubsystemDims, embed_local
from qcost.quantumness import (MeasurementBasis, _basis_unitary,
                               _basis_with_pullback, _deficit_objective,
                               _in_parameters,
                               computational_basis, deficit_for_basis,
                               measure_channel, one_way_deficit)
from qcost.statezoo import (TRIPARTITE_QUBITS, eta_state, ghz_state,
                            ginibre_mixed, haar_unitary)

TWOQ = SubsystemDims(("A", "B"), (2, 2))
CFG = OptimizerConfig(seed=1)


class TestMeasurementBasis:
    def test_computational_trivia(self):
        basis = computational_basis("C", 2)
        assert_allclose(basis.projectors[0], np.diag([1.0, 0.0]))
        assert_allclose(basis.projectors[1], np.diag([0.0, 1.0]))
        total = sum(basis.projectors)
        assert np.array_equal(total, np.eye(2))

    def test_qutrit_computational(self):
        basis = computational_basis("X", 3)
        assert len(basis.projectors) == 3
        for i, p in enumerate(basis.projectors):
            assert np.trace(p).real == pytest.approx(1.0)
            assert p[i, i] == pytest.approx(1.0)

    def test_invariants_from_unitary(self):
        basis = MeasurementBasis("B", haar_unitary(2, 0, 0))
        p0, p1 = basis.projectors
        assert np.max(np.abs(p0 @ p0 - p0)) <= 1e-10
        assert np.max(np.abs(p0 @ p1)) <= 1e-10
        assert np.max(np.abs(p0 + p1 - np.eye(2))) <= 1e-10

    def test_projectors_equal_outer_stack(self):
        u = haar_unitary(3, 0, 1)
        want = np.array([np.outer(u[:, i], u[:, i].conj()) for i in range(3)])
        assert np.array_equal(MeasurementBasis("X", u).projectors, want)

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            MeasurementBasis("A", np.eye(3)[:, :2])

    def test_rejects_non_unitary(self):
        with pytest.raises(InputError):
            MeasurementBasis("A", np.full((2, 2), 0.5))

    def test_rejects_one_by_one(self):
        with pytest.raises(InputError):
            MeasurementBasis("A", np.eye(1))


class TestMeasureChannel:
    def test_block_diagonal_fixed_point(self):
        rho = DensityMatrix(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex), TWOQ)
        out = measure_channel(rho, computational_basis("A", 2))
        assert_allclose(out.mat, rho.mat, atol=1e-14)

    def test_eta_dephasing_termwise(self):
        # dephasing C kills the GHZ coherence, leaving a uniform mixture of
        # the six computational projectors 000,111,001,010,101,110
        etap = measure_channel(eta_state(), computational_basis("C", 2))
        expected = np.zeros((8, 8), dtype=complex)
        for idx in (0b000, 0b111, 0b001, 0b010, 0b101, 0b110):
            expected[idx, idx] = 1 / 6
        assert_allclose(etap.mat, expected, atol=1e-12)

    def test_maximally_mixed_unchanged(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4, TWOQ)
        out = measure_channel(rho, MeasurementBasis("B", haar_unitary(2, 1, 0)))
        assert_allclose(out.mat, rho.mat, atol=1e-12)

    def test_idempotent(self):
        rho = ginibre_mixed(TWOQ, 4, 2, 0)
        basis = MeasurementBasis("A", haar_unitary(2, 2, 1))
        once = measure_channel(rho, basis)
        twice = measure_channel(once, basis)
        assert np.max(np.abs(twice.mat - once.mat)) <= 1e-10

    def test_commutes_with_projectors(self):
        rho = ginibre_mixed(TWOQ, 4, 3, 0)
        basis = MeasurementBasis("A", haar_unitary(2, 3, 1))
        out = measure_channel(rho, basis)
        for p in basis.projectors:
            emb = embed_local(p, "A", rho.dims)
            assert np.max(np.abs(emb @ out.mat - out.mat @ emb)) <= 1e-10

    def test_label_mismatch(self):
        with pytest.raises(InputError):
            measure_channel(ghz_state(), computational_basis("Z", 2))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            measure_channel(ghz_state(), computational_basis("C", 3))


class TestDeficitForBasis:
    def test_eta_computational_is_one_third(self):
        value = deficit_for_basis(eta_state(), computational_basis("C", 2))
        assert value == pytest.approx(1 / 3, abs=1e-9)

    def test_classical_state_in_its_eigenbasis(self):
        # sum_i p_i |i><i| x rho_i is untouched by measuring the register
        gen = np.random.default_rng(4)
        blocks = []
        for i in range(2):
            g = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
            m = g @ g.conj().T
            blocks.append(m / np.trace(m).real)
        mat = np.zeros((4, 4), dtype=complex)
        mat[:2, :2] = 0.5 * blocks[0]
        mat[2:, 2:] = 0.5 * blocks[1]
        rho = DensityMatrix(mat, TWOQ)
        value = deficit_for_basis(rho, computational_basis("A", 2))
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_ghz_computational_on_c(self):
        value = deficit_for_basis(ghz_state(), computational_basis("C", 2))
        assert value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_dimension_mismatch(self, kind):
        with pytest.raises(InputError):
            deficit_for_basis(ghz_state(), computational_basis("C", 3), kind)

    def test_matches_entropy_difference(self):
        for i in range(10):
            rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 5, i)
            basis = MeasurementBasis("C", haar_unitary(2, 5, i))
            direct = deficit_for_basis(rho, basis)
            rho_p = measure_channel(rho, basis)
            assert direct == pytest.approx(vn_entropy(rho_p) - vn_entropy(rho),
                                           abs=1e-9)


class TestOneWayDeficit:
    def test_product_state_vanishes(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = np.diag([0.2, 0.8]).astype(complex)
        rho = DensityMatrix(np.kron(a, b), TWOQ)
        value, _ = one_way_deficit(rho, "A", cfg=CFG)
        assert 0.0 <= value <= 1e-6

    def test_eta_reaches_one_third(self):
        value, _ = one_way_deficit(eta_state(), "C", cfg=CFG)
        assert value <= 1 / 3 + 1e-6  # computational start guarantees this
        assert value == pytest.approx(1 / 3, abs=1e-4)

    @pytest.mark.parametrize("subsystem,seed", [("C", 4), ("B", 4)])
    def test_eta_not_below_one_third(self, subsystem, seed):
        # Bases that push dephased eigenvalues just below a support cutoff
        # must not lower the value: eta's deficit is exactly 1/3.
        value, _ = one_way_deficit(eta_state(), subsystem,
                                   cfg=OptimizerConfig(seed=seed))
        assert value >= 1 / 3 - 1e-15

    def test_never_beats_computational_start(self):
        for i in range(3):
            rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 6, i)
            comp = deficit_for_basis(rho, computational_basis("C", 2))
            value, _ = one_way_deficit(rho, "C", cfg=CFG)
            assert value <= comp + 1e-9

    def test_computational_basis_bounds_exactly(self):
        # the all-zero start is exactly the computational basis and the search
        # value is the kernel's value at the returned basis, so both hold with
        # no tolerance on the rank-deficient eta
        eta = eta_state()
        for subsystem, seed in (("A", 3), ("C", 4)):
            comp = deficit_for_basis(eta, computational_basis(subsystem, 2))
            value, basis = one_way_deficit(eta, subsystem,
                                           cfg=OptimizerConfig(seed=seed))
            assert value <= comp
            assert value == deficit_for_basis(eta, basis)

    def test_nonnegative(self):
        rho = ginibre_mixed(TWOQ, 4, 7, 0)
        value, _ = one_way_deficit(rho, "B", cfg=CFG)
        assert value >= -1e-9

    def test_local_unitary_invariance(self):
        rho = ginibre_mixed(TWOQ, 4, 8, 0)
        u = haar_unitary(2, 8, 1)
        rotated = DensityMatrix(
            embed_local(u, "A", TWOQ) @ rho.mat @ embed_local(u, "A", TWOQ).conj().T,
            TWOQ)
        v1, _ = one_way_deficit(rho, "A", cfg=CFG)
        v2, _ = one_way_deficit(rotated, "A", cfg=CFG)
        assert v1 == pytest.approx(v2, abs=1e-4)

    def test_trace_and_bures_kinds(self):
        rho = ginibre_mixed(TWOQ, 4, 9, 0)
        for kind in (DistanceKind.TRACE, DistanceKind.BURES):
            value, basis = one_way_deficit(rho, "A", kind, CFG)
            assert value >= -1e-9
            assert value == pytest.approx(deficit_for_basis(rho, basis, kind),
                                          abs=1e-12)

    def test_trace_kind_leaves_the_kink(self):
        # every start's L-BFGS-B run stalls on a kink of the trace distance
        # here; the smoothed polish must carry the best basis off it
        rho = ginibre_mixed(SubsystemDims(("A", "B", "C"), (2, 3, 2)), 8, 9, 801)
        cfg = OptimizerConfig(seed=9)
        stalled = optim.minimize(
            _in_parameters(_deficit_objective(rho, "B", DistanceKind.TRACE), 3),
            9, cfg, extra_starts=[np.zeros(9)]).best_value
        value, basis = one_way_deficit(rho, "B", DistanceKind.TRACE, cfg)
        assert value <= stalled - 1e-6
        assert value == deficit_for_basis(rho, basis, DistanceKind.TRACE)

    def test_trace_kind_finds_the_second_basin(self):
        # the kinked exact distance sends the computational start and every
        # seeded start into a basin 4.4e-3 above the one the smoothed
        # distance leads to
        rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 7, 28)
        value, basis = one_way_deficit(rho, "A", DistanceKind.TRACE,
                                       OptimizerConfig(seed=42))
        assert value <= 0.243922 + 1e-9
        assert value == deficit_for_basis(rho, basis, DistanceKind.TRACE)
        assert value <= deficit_for_basis(rho, computational_basis("A", 2),
                                          DistanceKind.TRACE)

    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_rerun_is_bit_identical(self, kind):
        rho = ginibre_mixed(SubsystemDims(("A", "B"), (3, 2)), 3, 13, 0)
        v1, b1 = one_way_deficit(rho, "A", kind, OptimizerConfig(seed=5))
        v2, b2 = one_way_deficit(rho, "A", kind, OptimizerConfig(seed=5))
        assert v1 == v2
        assert np.array_equal(b1.unitary, b2.unitary)


class TestDeficitObjective:
    """deficit_for_basis, which runs the search's kernel, against the
    distance to the fully built dephased state."""

    D234 = SubsystemDims(("A", "B", "C"), (2, 3, 4))

    @pytest.mark.parametrize("kind", list(DistanceKind))
    @pytest.mark.parametrize("subsystem", ["A", "B", "C"])
    def test_equals_deficit_for_basis(self, subsystem, kind):
        d = self.D234.dim_of(subsystem)
        for i, rank in enumerate((1, 3, 24)):
            rho = ginibre_mixed(self.D234, rank, 40, i)
            basis = MeasurementBasis(subsystem, haar_unitary(d, 41, i))
            want = distance(kind, rho, measure_channel(rho, basis))
            assert deficit_for_basis(rho, basis, kind) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kind", list(DistanceKind))
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gradient_matches_differences(self, d, kind):
        # the search's gradient in the basis parameters, through the
        # kernel's conj(u) gradient and the parameterization's pullback
        dims = SubsystemDims(("A", "B", "C"), (2, 2, d))
        n_params = 2 if d == 2 else d * d
        h = 1e-6
        for rank in (2, 4 * d):
            rho = ginibre_mixed(dims, rank, 42, d)
            objective = _deficit_objective(rho, "C", kind)

            def value_and_grad(x):
                u, pullback = _basis_with_pullback(x, d)
                value, grad_u = objective(u, gradient=True)
                return value, pullback(grad_u)

            x = np.random.default_rng(rank).normal(size=n_params)
            _, grad = value_and_grad(x)
            want = np.array([(value_and_grad(x + h * e)[0]
                              - value_and_grad(x - h * e)[0]) / (2 * h)
                             for e in np.eye(n_params)])
            assert np.max(np.abs(grad - want)) <= 1e-6 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_parameters_give_computational_basis(self, d):
        n_params = 2 if d == 2 else d * d
        basis = MeasurementBasis("A", _basis_unitary(np.zeros(n_params), d))
        for p, q in zip(basis.projectors, computational_basis("A", d).projectors):
            assert_allclose(p, q, atol=1e-15)


class TestProofIdentities:
    def test_dpi_instance(self):
        for i in range(10):
            rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 10, 2 * i)
            sigma = ginibre_mixed(TRIPARTITE_QUBITS, 8, 10, 2 * i + 1)
            basis = MeasurementBasis("C", haar_unitary(2, 10, i))
            before = relative_entropy(rho, sigma)
            after = relative_entropy(measure_channel(rho, basis),
                                     measure_channel(sigma, basis))
            assert after <= before + 1e-9

    def test_trace_identity_pair(self):
        # Tr[rho log rho'] = Tr[rho' log rho'] and the same with sigma',
        # evaluated through the public entropy/relative-entropy surface.
        for i in range(10):
            rho = ginibre_mixed(TRIPARTITE_QUBITS, 8, 11, 2 * i)
            sigma = ginibre_mixed(TRIPARTITE_QUBITS, 8, 11, 2 * i + 1)
            basis = MeasurementBasis("C", haar_unitary(2, 11, i))
            rho_p = measure_channel(rho, basis)
            sigma_p = measure_channel(sigma, basis)
            lhs1 = -vn_entropy(rho) - relative_entropy(rho, rho_p)
            rhs1 = -vn_entropy(rho_p)
            assert lhs1 == pytest.approx(rhs1, abs=1e-9)
            lhs2 = -vn_entropy(rho) - relative_entropy(rho, sigma_p)
            rhs2 = -vn_entropy(rho_p) - relative_entropy(rho_p, sigma_p)
            assert lhs2 == pytest.approx(rhs2, abs=1e-9)


class TestBlochSurjectivity:
    def test_unitary_parameterization_reaches_any_axis(self):
        # any target Bloch direction is reachable: params (0, 0,
        # (t/2) sin(phi), (t/2) cos(phi)) rotate |0> onto the target axis
        from qcost.optim import param_to_unitary
        gen = np.random.default_rng(12)
        targets = gen.normal(size=(25, 3))
        targets /= np.linalg.norm(targets, axis=1)[:, None]
        for target in targets:
            theta = np.arccos(np.clip(target[2], -1, 1))
            phi = np.arctan2(target[1], target[0])
            want = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
            params = np.array([0.0, 0.0, (theta / 2) * np.sin(phi),
                               (theta / 2) * np.cos(phi)])
            u = param_to_unitary(params, 2)
            overlap = abs(np.vdot(u[:, 0], want))
            angle = np.arccos(np.clip(overlap, 0.0, 1.0))
            assert angle <= 1e-3
