import numpy as np
import pytest

from procmaxent import (
    ChoiState,
    DimensionError,
    NotAChannelError,
    apply_from_choi,
    bloch_affine_map,
    choi_from_apply,
    choi_from_kraus,
    is_cptp,
    kraus_from_choi,
    maximally_entangled_state,
    process_entropy,
    random_channel,
)
from procmaxent.linalg import ID2, PAULI_X, dag, density_to_bloch

from conftest import random_state, random_unitary


def unitary_choi(U):
    d = U.shape[0]
    return choi_from_apply(lambda rho: U @ rho @ dag(U), d)


class TestChoiState:
    def test_identity_channel_is_psi_plus(self):
        choi = unitary_choi(np.eye(2))
        assert np.allclose(choi.matrix, maximally_entangled_state(2), atol=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            ChoiState(2, np.eye(9) / 9)

    def test_rejects_non_tp(self):
        # a preparator Choi state is I/2 (x) xi, not |00><00|
        omega = np.zeros((4, 4))
        omega[0, 0] = 1.0
        with pytest.raises(NotAChannelError):
            ChoiState(2, omega)

    @pytest.mark.parametrize("call, message", [
        (lambda: maximally_entangled_state(1), "dimension must be >= 2"),
        (lambda: apply_from_choi(unitary_choi(np.eye(2)), np.eye(3) / 3),
         "does not match channel dimension 2"),
    ], ids=["psi-plus-d1", "apply-input-shape"])
    def test_rejects_bad_dimension(self, call, message):
        with pytest.raises(DimensionError, match=message):
            call()

    def test_rejects_non_positive(self):
        from procmaxent import InvariantError

        omega = maximally_entangled_state(2)
        omega = omega.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        with pytest.raises(InvariantError):
            ChoiState(2, omega)


class TestApply:
    def test_identity(self, rng):
        choi = unitary_choi(np.eye(2))
        rho = random_state(2, rng)
        assert np.allclose(apply_from_choi(choi, rho), rho, atol=1e-12)

    def test_unitary(self, rng):
        U = random_unitary(2, rng)
        choi = unitary_choi(U)
        rho = random_state(2, rng)
        assert np.allclose(apply_from_choi(choi, rho), U @ rho @ dag(U), atol=1e-11)

    def test_preparator(self, rng):
        xi = random_state(2, rng)
        choi = choi_from_apply(lambda rho: np.trace(rho) * xi, 2)
        assert np.allclose(choi.matrix, np.kron(ID2 / 2, xi), atol=1e-12)
        for _ in range(3):
            out = apply_from_choi(choi, random_state(2, rng))
            assert np.allclose(out, xi, atol=1e-11)

    def test_round_trip_apply_choi(self, rng):
        # extend the channel action linearly over matrix units
        from procmaxent.channels import _apply_linear

        choi = random_channel(2, 3, rng)
        rebuilt = choi_from_apply(lambda A: _apply_linear(choi.matrix, 2, A), 2)
        assert np.allclose(rebuilt.matrix, choi.matrix, atol=1e-10)

    def test_non_cptp_callable_raises(self):
        from procmaxent import InvariantError

        with pytest.raises(InvariantError):
            choi_from_apply(lambda rho: 2.0 * rho, 2)


class TestProcessEntropy:
    def test_unitary_is_zero(self, rng):
        choi = unitary_choi(random_unitary(2, rng))
        assert process_entropy(choi) == pytest.approx(0.0, abs=1e-10)

    def test_total_contraction_is_two_bits(self):
        choi = choi_from_apply(lambda rho: np.trace(rho) * ID2 / 2, 2)
        assert process_entropy(choi) == pytest.approx(2.0, abs=1e-12)

    def test_preparator_identity(self, rng):
        # constant channel onto xi: entropy = 1 + S(xi) bits
        from procmaxent import von_neumann_entropy

        for _ in range(5):
            xi = random_state(2, rng)
            choi = choi_from_apply(lambda rho: np.trace(rho) * xi, 2)
            assert process_entropy(choi) == pytest.approx(
                1.0 + von_neumann_entropy(xi), abs=1e-10
            )

    def test_maximally_mixed_preparator(self):
        choi = ChoiState(2, np.eye(4) / 4)
        assert process_entropy(choi) == pytest.approx(2.0)


class TestIsCptp:
    def test_psi_plus(self):
        report = is_cptp(maximally_entangled_state(2))
        assert report.positive and report.trace_preserving

    def test_not_trace_preserving(self):
        omega = np.zeros((4, 4))
        omega[0, 0] = 1.0
        report = is_cptp(omega)
        assert report.positive and not report.trace_preserving

    def test_not_positive(self):
        # partial transpose of Psi+ is the swap over 2: eigenvalues +-1/2
        omega = maximally_entangled_state(2)
        pt = omega.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        report = is_cptp(pt)
        assert not report.positive and report.trace_preserving
        assert report.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_non_square_dimension(self):
        with pytest.raises(DimensionError):
            is_cptp(np.eye(6) / 6)


class TestKraus:
    def test_unitary_gives_one_operator(self, rng):
        U = random_unitary(2, rng)
        ops = kraus_from_choi(unitary_choi(U))
        assert len(ops) == 1
        # equal up to a global phase
        phase = ops[0][0, 0] / U[0, 0]
        assert abs(abs(phase) - 1.0) < 1e-9
        assert np.allclose(ops[0], phase * U, atol=1e-9)

    @pytest.mark.parametrize("d,rank", [(2, 1), (2, 3), (3, 2), (3, 4)])
    def test_round_trip(self, d, rank, rng):
        choi = random_channel(d, rank, rng)
        rebuilt = choi_from_kraus(kraus_from_choi(choi), d)
        assert np.linalg.norm(rebuilt.matrix - choi.matrix) < 1e-9

    def test_completeness(self, rng):
        ops = kraus_from_choi(random_channel(2, 2, rng))
        comp = sum(dag(A) @ A for A in ops)
        assert np.allclose(comp, np.eye(2), atol=1e-9)

    def test_choi_from_kraus_validates(self):
        with pytest.raises(NotAChannelError):
            choi_from_kraus([0.5 * np.eye(2)], 2)


class TestRandomChannel:
    def test_is_valid(self, rng):
        for d, rank in [(2, 1), (2, 4), (3, 2)]:
            choi = random_channel(d, rank, rng)
            report = is_cptp(choi.matrix)
            assert report.positive and report.trace_preserving

    def test_rank_bound(self, rng):
        choi = random_channel(2, 2, rng)
        w = np.linalg.eigvalsh(choi.matrix)
        assert np.sum(w > 1e-10) <= 2


class TestBlochAffineMap:
    def test_identity(self):
        bm = bloch_affine_map(unitary_choi(np.eye(2)))
        assert np.allclose(bm.linear, np.eye(3), atol=1e-12)
        assert np.allclose(bm.translation, np.zeros(3), atol=1e-12)

    def test_pauli_x_rotation(self):
        bm = bloch_affine_map(unitary_choi(PAULI_X))
        assert np.allclose(bm.linear, np.diag([1.0, -1.0, -1.0]), atol=1e-12)

    def test_preparator_is_constant(self, rng):
        xi = random_state(2, rng)
        choi = choi_from_apply(lambda rho: np.trace(rho) * xi, 2)
        bm = bloch_affine_map(choi)
        assert np.allclose(bm.linear, np.zeros((3, 3)), atol=1e-11)
        assert np.allclose(bm.translation, density_to_bloch(xi), atol=1e-11)

    def test_matches_channel_action(self, rng):
        choi = random_channel(2, 2, rng)
        bm = bloch_affine_map(choi)
        rho = random_state(2, rng)
        out = apply_from_choi(choi, rho)
        assert np.allclose(bm(density_to_bloch(rho)), density_to_bloch(out),
                           atol=1e-10)

    def test_rejects_qutrit(self, rng):
        with pytest.raises(DimensionError):
            bloch_affine_map(random_channel(3, 2, rng))
