import numpy as np
import pytest

from procmaxent import (
    DimensionError,
    InvariantError,
    bloch_to_density,
    expectation,
    hermitian_basis,
    matrix_exp,
    matrix_log,
    partial_trace,
    von_neumann_entropy,
)
from procmaxent.linalg import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    check_density,
    check_hermitian,
    dag,
    density_to_bloch,
    frobenius,
    kron,
)

from conftest import random_hermitian, random_state, random_unitary


class TestHermitianBasis:
    def test_qubit_gives_paulis(self):
        basis = hermitian_basis(2)
        assert np.allclose(basis[0], PAULI_X)
        assert np.allclose(basis[1], PAULI_Y)
        assert np.allclose(basis[2], np.diag([1.0, -1.0]))

    def test_traceless_and_normalized(self):
        for L in hermitian_basis(2):
            assert abs(np.trace(L)) < 1e-14
            assert abs(np.trace(L @ L).real - 2.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gram_matrix(self, d):
        basis = hermitian_basis(d)
        assert len(basis) == d * d - 1
        gram = np.array([[np.trace(A @ B).real for B in basis] for A in basis])
        assert np.allclose(gram, 2.0 * np.eye(d * d - 1), atol=1e-12)

    def test_spans_traceless_hermitians(self, rng):
        for d in (2, 3):
            basis = hermitian_basis(d)
            A = random_hermitian(d, rng)
            A -= np.trace(A) / d * np.eye(d)
            rebuilt = sum(np.trace(A @ L).real / 2.0 * L for L in basis)
            assert np.linalg.norm(A - rebuilt) < 1e-10

    def test_rejects_small_dimension(self):
        with pytest.raises(DimensionError):
            hermitian_basis(1)


class TestMatrixExpLog:
    def test_exp_zero(self):
        assert np.allclose(matrix_exp(np.zeros((2, 2))), np.eye(2))

    def test_exp_diagonal(self):
        H = np.diag([np.log(2.0), np.log(3.0)])
        assert np.allclose(matrix_exp(H), np.diag([2.0, 3.0]))

    def test_exp_pauli_x(self):
        # e^{sigma_x} = cosh(1) I + sinh(1) sigma_x
        expected = np.cosh(1.0) * ID2 + np.sinh(1.0) * PAULI_X
        assert np.allclose(matrix_exp(PAULI_X), expected, atol=1e-12)

    def test_exp_rejects_non_hermitian(self):
        with pytest.raises(InvariantError):
            matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_log_maximally_mixed(self):
        L, P = matrix_log(np.eye(2) / 2)
        assert np.allclose(L, -np.log(2.0) * np.eye(2))
        assert np.allclose(P, np.eye(2))

    def test_log_pure_state(self):
        L, P = matrix_log(np.diag([1.0, 0.0]))
        assert np.allclose(L, np.zeros((2, 2)))
        assert np.allclose(P, np.diag([1.0, 0.0]))

    def test_log_diagonal(self):
        L, _ = matrix_log(np.diag([0.75, 0.25]))
        assert np.allclose(L, np.diag([np.log(0.75), np.log(0.25)]))

    def test_exp_then_log_round_trip(self, rng):
        H = random_hermitian(4, rng)
        rho = matrix_exp(H)
        rho /= np.trace(rho).real
        L, _ = matrix_log(rho)
        shifted = H - np.trace(H).real / 4 * np.eye(4)
        L_shifted = L - np.trace(L).real / 4 * np.eye(4)
        assert np.linalg.norm(L_shifted - shifted) < 1e-9

    def test_exp_eigenvalues(self, rng):
        H = random_hermitian(3, rng)
        w_exp = np.sort(np.linalg.eigvalsh(matrix_exp(H)))
        assert np.allclose(w_exp, np.exp(np.sort(np.linalg.eigvalsh(H))), atol=1e-10)


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_two_qubits(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)

    def test_half_half(self):
        assert von_neumann_entropy(np.diag([0.5, 0.5, 0.0, 0.0])) == pytest.approx(1.0)

    def test_unitary_invariance(self, rng):
        rho = random_state(4, rng)
        U = random_unitary(4, rng)
        assert von_neumann_entropy(U @ rho @ dag(U)) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-9
        )


class TestPartialTrace:
    def test_product_operator(self, rng):
        A = random_hermitian(2, rng)
        B = random_hermitian(3, rng)
        M = np.kron(A, B)
        assert np.allclose(partial_trace(M, (2, 3), "first"),
                           np.trace(A) * B, atol=1e-12)
        assert np.allclose(partial_trace(M, (2, 3), "second"),
                           np.trace(B) * A, atol=1e-12)

    def test_trace_consistency(self, rng):
        M = random_hermitian(4, rng)
        assert np.trace(partial_trace(M, (2, 2), "second")) == pytest.approx(
            np.trace(M).real
        )

    def test_linearity_and_positivity(self, rng):
        rho = random_state(6, rng)
        red = partial_trace(rho, (2, 3), "first")
        assert np.linalg.eigvalsh(red)[0] > -1e-12
        A, B = random_hermitian(6, rng), random_hermitian(6, rng)
        lhs = partial_trace(2.0 * A + 3.0 * B, (2, 3), "second")
        rhs = 2.0 * partial_trace(A, (2, 3), "second") + 3.0 * partial_trace(B, (2, 3), "second")
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_bad_split(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(6), (2, 2), "first")


@pytest.mark.parametrize("call, error, message", [
    (lambda: partial_trace(np.eye(4), (2, 2), "third"), ValueError, "'first' or 'second'"),
    (lambda: expectation(np.eye(2) / 2, 1j * ID2), InvariantError, "imaginary part"),
    (lambda: bloch_to_density([0.0, 1.0]), DimensionError, "length 3"),
    (lambda: bloch_to_density([0.6, 0.0, 0.9]), InvariantError, "exceeds 1"),
    (lambda: density_to_bloch(np.eye(3) / 3), DimensionError, "qubit state"),
    (lambda: check_hermitian(np.diag([np.nan, 1.0])), InvariantError,
     r"^operator has non-finite entries$"),
    (lambda: check_hermitian([[0.0, np.inf], [np.inf, 0.0]], name="F"), InvariantError,
     r"^F has non-finite entries$"),
], ids=["partial-trace-subsystem", "expectation-imaginary", "bloch-shape", "bloch-norm",
        "bloch-of-qutrit", "hermitian-nan", "hermitian-inf"])
def test_rejects_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestCheckDensity:
    def test_trace_message_is_real(self):
        # the trace of a Hermitian matrix is reported as a real number
        with pytest.raises(InvariantError, match=r"^state has trace 3, expected 1$"):
            check_density(np.eye(3))


class TestExpectation:
    def test_maximally_mixed(self):
        assert expectation(np.eye(2) / 2, PAULI_Z) == pytest.approx(0.0)

    def test_eigenstate(self):
        assert expectation(np.diag([1.0, 0.0]), PAULI_Z) == pytest.approx(1.0)

    def test_bloch_component(self):
        rho = 0.5 * (ID2 + 0.3 * PAULI_Z)
        assert expectation(rho, PAULI_Z) == pytest.approx(0.3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            expectation(np.eye(2) / 2, np.eye(3))


class TestKron:
    @pytest.mark.parametrize("a, b", [((2, 2), (3, 3)), ((2, 3), (4, 1)),
                                      ((1, 5), (3, 2)), ((4, 2), (2, 4))])
    def test_matches_numpy(self, rng, a, b):
        A = rng.standard_normal(a) + 1j * rng.standard_normal(a)
        B = rng.standard_normal(b) + 1j * rng.standard_normal(b)
        assert np.array_equal(kron(A, B), np.kron(A, B))
        assert np.array_equal(kron(A.real, B), np.kron(A.real, B))


class TestFrobenius:
    def test_matches_numpy(self, rng):
        A = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        assert frobenius(A) == pytest.approx(np.linalg.norm(A, "fro"), rel=1e-14)
        assert frobenius(A.T) == pytest.approx(np.linalg.norm(A, "fro"), rel=1e-14)
