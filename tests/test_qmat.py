import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcost.qmat import (Bipartition, DensityMatrix, InputError, SubsystemDims,
                        embed_local, load_state, local_channel, partial_trace,
                        partial_transpose, partial_transpose_matrix,
                        permute_subsystems, save_state, state_from_json_dict,
                        state_to_json_dict, vector_state)
from qcost.statezoo import ghz_state

from conftest import bell_dm


def dm(mat, labels, dims):
    return DensityMatrix(np.asarray(mat, dtype=complex),
                         SubsystemDims(labels, dims))


class TestPartialTrace:
    def test_product_factorization(self):
        gen = np.random.default_rng(1)
        for _ in range(5):
            ga = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
            gb = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
            a = ga @ ga.conj().T
            a /= np.trace(a).real
            b = gb @ gb.conj().T
            b /= np.trace(b).real
            rho = dm(np.kron(a, b), ("A", "B"), (2, 2))
            red = partial_trace(rho, ("B",))
            assert red.labels == ("A",)
            assert_allclose(red.mat, a, atol=1e-9)

    def test_ghz_reduction(self):
        red = partial_trace(ghz_state(), ("B", "C"))
        assert_allclose(red.mat, np.eye(2) / 2, atol=1e-12)

    def test_against_index_sum_oracle(self):
        gen = np.random.default_rng(2)
        g = gen.normal(size=(8, 8)) + 1j * gen.normal(size=(8, 8))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        rho = dm(mat, ("A", "B", "C"), (2, 2, 2))
        red = partial_trace(rho, ("C",))
        t = mat.reshape(2, 2, 2, 2, 2, 2)
        oracle = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                for ap in range(2):
                    for bp in range(2):
                        oracle[2 * a + b, 2 * ap + bp] = sum(
                            t[a, b, c, ap, bp, c] for c in range(2))
        assert_allclose(red.mat, oracle, atol=1e-12)

    def test_trace_preserved(self):
        gen = np.random.default_rng(3)
        for i in range(5):
            g = gen.normal(size=(8, 8)) + 1j * gen.normal(size=(8, 8))
            mat = g @ g.conj().T
            mat /= np.trace(mat).real
            rho = dm(mat, ("A", "B", "C"), (2, 2, 2))
            red = partial_trace(rho, ("A", "C"))
            assert np.trace(red.mat).real == pytest.approx(1.0, abs=1e-9)

    def test_unknown_label(self):
        with pytest.raises(InputError):
            partial_trace(bell_dm(), ("Z",))

    def test_cannot_trace_everything(self):
        with pytest.raises(InputError):
            partial_trace(bell_dm(), ("A", "B"))

    def test_repeated_label_rejected(self):
        with pytest.raises(InputError):
            partial_trace(ghz_state(), ("A", "A"))


class TestPartialTranspose:
    def test_separable_stays_psd(self):
        rho = dm(np.diag([0.4, 0.1, 0.3, 0.2]), ("A", "B"), (2, 2))
        w = np.linalg.eigvalsh(partial_transpose(rho, ("B",)))
        assert w[0] >= -1e-12

    def test_bell_minimum_eigenvalue(self):
        pt = partial_transpose(bell_dm(), ("B",))
        w = np.linalg.eigvalsh(pt)
        assert w[0] == pytest.approx(-0.5, abs=1e-12)

    def test_involution(self):
        gen = np.random.default_rng(4)
        g = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        rho = dm(mat, ("A", "B"), (2, 2))
        once = partial_transpose(rho, ("A",))
        twice = partial_transpose_matrix(once, (2, 2), [0])
        assert np.array_equal(twice, rho.mat)

    def test_preserves_trace_and_hermiticity(self):
        gen = np.random.default_rng(5)
        g = gen.normal(size=(8, 8)) + 1j * gen.normal(size=(8, 8))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        rho = dm(mat, ("A", "B", "C"), (2, 2, 2))
        pt = partial_transpose(rho, ("B",))
        assert np.trace(pt).real == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(pt - pt.conj().T)) <= 1e-9

    def test_repeated_factor_rejected(self):
        # transposing a factor twice would undo it: Bell would look PPT
        with pytest.raises(InputError):
            partial_transpose(bell_dm(), ["A", "A"])
        with pytest.raises(InputError):
            partial_transpose_matrix(bell_dm().mat, (2, 2), [0, 0])


class TestPermuteSubsystems:
    def test_identity_permutation(self):
        rho = ghz_state()
        out = permute_subsystems(rho, ("A", "B", "C"))
        assert_allclose(out.mat, rho.mat, atol=0)

    def test_swap_on_product(self):
        pa = np.diag([1.0, 0.0])
        pb = np.diag([0.25, 0.75])
        pc = np.diag([0.6, 0.4])
        rho = dm(np.kron(np.kron(pa, pb), pc), ("A", "B", "C"), (2, 2, 2))
        out = permute_subsystems(rho, ("C", "B", "A"))
        assert out.labels == ("C", "B", "A")
        assert_allclose(out.mat, np.kron(np.kron(pc, pb), pa), atol=1e-14)

    def test_entry_mapping_oracle(self):
        gen = np.random.default_rng(6)
        g = gen.normal(size=(8, 8)) + 1j * gen.normal(size=(8, 8))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        rho = dm(mat, ("A", "B", "C"), (2, 2, 2))
        out = permute_subsystems(rho, ("B", "C", "A"))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for ap in range(2):
                        for bp in range(2):
                            for cp in range(2):
                                old = mat[4 * a + 2 * b + c, 4 * ap + 2 * bp + cp]
                                new = out.mat[4 * b + 2 * c + a, 4 * bp + 2 * cp + ap]
                                assert new == old

    def test_roundtrip_exact(self):
        gen = np.random.default_rng(7)
        g = gen.normal(size=(8, 8)) + 1j * gen.normal(size=(8, 8))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        rho = dm(mat, ("A", "B", "C"), (2, 2, 2))
        back = permute_subsystems(permute_subsystems(rho, ("C", "A", "B")),
                                  ("A", "B", "C"))
        assert np.array_equal(back.mat, rho.mat)

    def test_not_a_permutation(self):
        with pytest.raises(InputError):
            permute_subsystems(ghz_state(), ("A", "A", "B"))


class TestEmbedLocal:
    def test_identity_embeds_to_identity(self):
        dims = SubsystemDims(("A", "B", "C"), (2, 2, 2))
        assert_allclose(embed_local(np.eye(2), "B", dims), np.eye(8))

    def test_projector_on_c_picks_even_indices(self):
        dims = SubsystemDims(("A", "B", "C"), (2, 2, 2))
        out = embed_local(np.diag([1.0, 0.0]), "C", dims)
        assert_allclose(np.diag(out), [1, 0, 1, 0, 1, 0, 1, 0])

    def test_action_on_product_vectors(self):
        dims = SubsystemDims(("A", "B", "C"), (2, 2, 2))
        gen = np.random.default_rng(8)
        op = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
        emb = embed_local(op, "B", dims)
        eye = np.eye(2)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    vec = np.kron(np.kron(eye[a], eye[b]), eye[c])
                    expected = np.kron(np.kron(eye[a], op @ eye[b]), eye[c])
                    assert_allclose(emb @ vec, expected, atol=1e-14)

    def test_dimension_mismatch(self):
        dims = SubsystemDims(("A", "B"), (2, 3))
        with pytest.raises(InputError):
            embed_local(np.eye(2), "B", dims)


def kron_reference(op, dims, held):
    """op on the held factors, built with np.kron and a basis permutation."""
    labels, sizes = dims.labels, dims.dims
    rest = [l for l in labels if l not in held]
    d_rest = int(np.prod([dims.dim_of(l) for l in rest]))
    full = np.kron(op, np.eye(d_rest))
    order = list(held) + rest
    # permutation matrix: |labels order> -> |held + rest order>
    n = dims.total_dim
    perm = np.zeros((n, n))
    for i, idx in enumerate(np.ndindex(*sizes)):
        digits = dict(zip(labels, idx))
        j = np.ravel_multi_index([digits[l] for l in order],
                                 [dims.dim_of(l) for l in order])
        perm[j, i] = 1.0
    return perm.T @ full @ perm


class TestLocalChannel:
    DIMS = SubsystemDims(("A", "B", "C"), (2, 3, 4))

    def rho(self, seed):
        gen = np.random.default_rng(seed)
        g = gen.normal(size=(24, 24)) + 1j * gen.normal(size=(24, 24))
        mat = g @ g.conj().T
        return mat / np.trace(mat).real

    def check(self, mat, held, ops):
        expected = sum(kron_reference(k, self.DIMS, held) @ mat
                       @ kron_reference(k, self.DIMS, held).conj().T for k in ops)
        assert_allclose(local_channel(mat, self.DIMS, held, ops), expected,
                        atol=1e-13)

    @pytest.mark.parametrize("held", [("A",), ("B",), ("C",), ("A", "C"), ("C", "A")])
    def test_random_operator_matches_kron(self, held):
        gen = np.random.default_rng(len(held) + ord(held[0]))
        d = self.DIMS.subset_dim(held)
        k = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        self.check(self.rho(1), held, [k])

    def test_held_order_matters(self):
        # a non-symmetric operator on (A, C) differs from the same matrix on (C, A)
        gen = np.random.default_rng(2)
        k = gen.normal(size=(8, 8))
        mat = self.rho(2)
        assert not np.allclose(local_channel(mat, self.DIMS, ("A", "C"), [k]),
                               local_channel(mat, self.DIMS, ("C", "A"), [k]))

    def test_amplitude_damping_is_not_unital(self):
        g = 0.3
        kraus = [np.array([[1, 0], [0, np.sqrt(1 - g)]]),
                 np.array([[0, np.sqrt(g)], [0, 0]])]
        self.check(self.rho(3), ("A",), kraus)
        ident = np.eye(24) / 24
        out = local_channel(ident, self.DIMS, ("A",), kraus)
        assert not np.allclose(out, ident)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_projective_measurement(self):
        u = np.linalg.qr(np.random.default_rng(4).normal(size=(4, 4)))[0]
        projs = [np.outer(u[:, i], u[:, i]) for i in range(4)]
        mat = self.rho(4)
        self.check(mat, ("C",), projs)
        once = local_channel(mat, self.DIMS, ("C",), projs)
        assert_allclose(local_channel(once, self.DIMS, ("C",), projs), once,
                        atol=1e-13)

    def test_operator_size_checked(self):
        with pytest.raises(InputError):
            local_channel(self.rho(5), self.DIMS, ("B",), [np.eye(2)])

    def test_repeated_or_unknown_label(self):
        with pytest.raises(InputError):
            local_channel(self.rho(5), self.DIMS, ("A", "A"), [np.eye(4)])
        with pytest.raises(InputError):
            local_channel(self.rho(5), self.DIMS, ("Z",), [np.eye(2)])


class TestDensityMatrixValidation:
    def test_dust_is_clipped_and_renormalized(self):
        mat = np.diag([1.0 + 5e-10, -5e-10])
        rho = dm(mat, ("A",), (2,))
        w = np.linalg.eigvalsh(rho.mat)
        assert w[0] >= 0.0
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_genuinely_negative_is_rejected(self):
        with pytest.raises(InputError):
            dm(np.diag([1.0 + 2e-8, -2e-8]), ("A",), (2,))

    def test_bad_trace_rejected(self):
        with pytest.raises(InputError):
            dm(np.diag([0.6, 0.6]), ("A",), (2,))

    def test_non_hermitian_rejected(self):
        with pytest.raises(InputError):
            dm(np.array([[0.5, 0.1], [0.0, 0.5]]), ("A",), (2,))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_nan_entry_rejected(self, entry):
        # NaN passes any plain `>` check, so the checks must fail it
        mat = np.eye(2, dtype=complex) / 2
        mat[entry] = np.nan
        with pytest.raises(InputError):
            dm(mat, ("A",), (2,))

    def test_nan_vector_rejected(self):
        with pytest.raises(InputError):
            vector_state(np.array([np.nan, 1.0]), SubsystemDims(("A",), (2,)))

    def test_matrix_is_immutable(self):
        rho = bell_dm()
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 7.0

    def test_dimension_product_checked(self):
        with pytest.raises(InputError):
            dm(np.eye(4) / 4, ("A", "B"), (2, 3))

    def test_equality_is_a_plain_bool(self):
        assert (bell_dm() == bell_dm()) is True
        mixed = np.eye(4) / 4
        assert (dm(mixed, ("A", "B"), (2, 2)) != bell_dm()) is True
        # same matrix, different labels or factor split
        assert dm(mixed, ("A", "C"), (2, 2)) != dm(mixed, ("A", "B"), (2, 2))
        assert dm(mixed, ("A",), (4,)) != dm(mixed, ("A", "B"), (2, 2))
        with pytest.raises(TypeError):
            hash(bell_dm())


class TestBipartition:
    def test_parse(self):
        cut = Bipartition.parse("AC|B", ("A", "B", "C"))
        assert cut.left == ("A", "C") and cut.right == ("B",)
        assert str(cut) == "AC|B"

    @pytest.mark.parametrize("bad", ["AB", "A|B|C", "A|BD", "A|B"])
    def test_parse_rejects(self, bad):
        with pytest.raises(InputError):
            Bipartition.parse(bad, ("A", "B", "C"))

    def test_sides_must_be_nonempty_and_disjoint(self):
        with pytest.raises(InputError):
            Bipartition((), ("A",))
        with pytest.raises(InputError):
            Bipartition(("A",), ("A",))

    def test_label_repeated_within_a_side(self):
        # A repeated label made partial_transpose swap its axes twice,
        # undoing the transpose; "AA|B" then looked PPT on a Bell state.
        with pytest.raises(InputError):
            Bipartition(("A", "A"), ("B",))
        with pytest.raises(InputError):
            Bipartition.parse("AA|B", ("A", "B"))


class TestDimensionCap:
    def test_default_cap_is_64(self):
        SubsystemDims(("A", "B", "C"), (4, 4, 4))  # 64 is allowed
        with pytest.raises(InputError):
            SubsystemDims(("A", "B", "C"), (8, 8, 2))

    def test_cap_is_configurable(self, monkeypatch):
        import qcost.qmat as qmat
        monkeypatch.setattr(qmat, "MAX_TOTAL_DIM", 128)
        SubsystemDims(("A", "B", "C"), (8, 8, 2))


class TestStateFiles:
    def test_roundtrip_exact(self, tmp_path):
        rho = ghz_state()
        path = tmp_path / "ghz.json"
        save_state(rho, path)
        back = load_state(path)
        assert np.array_equal(back.mat, rho.mat)
        assert back.labels == rho.labels

    def test_full_precision_serialization(self):
        rho = dm(np.diag([1 / 3, 2 / 3]), ("A",), (2,))
        data = state_to_json_dict(rho)
        again = state_from_json_dict(json.loads(json.dumps(data)))
        assert np.array_equal(again.mat, rho.mat)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            load_state(path)
        path.write_text(json.dumps({"labels": ["A"], "dims": [2]}))
        with pytest.raises(InputError):
            load_state(path)
