"""Dense Hermitian linear algebra: operator bases, spectral calculus, entropies.

All operators are plain complex numpy arrays.  Validation helpers raise
rather than silently repair, so callers can rely on the invariants
(hermiticity to 1e-12 relative Frobenius, density matrices positive to
1e-10 with unit trace).  Entropies are reported in bits.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InvariantError

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
ID2 = np.eye(2, dtype=complex)

HERMITICITY_TOL = 1e-12
DENSITY_EIG_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
SUPPORT_TOL = 1e-12


def dag(A):
    """Conjugate transpose."""
    return np.asarray(A).conj().T


def frobenius(A):
    """Frobenius (Hilbert-Schmidt) norm."""
    A = np.asarray(A)
    return float(np.sqrt(np.vdot(A, A).real))


def kron(A, B):
    """Kronecker product of two 2-d arrays, by one broadcast product."""
    A, B = np.asarray(A), np.asarray(B)
    (m, n), (p, q) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(m * p, n * q)


def check_hermitian(A, name="operator"):
    """Validate finiteness and hermiticity and return the array as complex
    ndarray."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InvariantError(f"{name} has non-finite entries")
    diff = A - A.conj().T
    dev2 = np.vdot(diff, diff).real
    # dev2 > tol**2 max(1, |A|**2), with |A| taken only when dev2 > tol**2
    if dev2 > HERMITICITY_TOL ** 2 and dev2 > HERMITICITY_TOL ** 2 * np.vdot(A, A).real:
        raise InvariantError(f"{name} is not Hermitian (deviation {np.sqrt(dev2):.3e})")
    return A


def check_density(rho, name="state"):
    """Validate a density matrix: Hermitian, positive, unit trace."""
    rho = check_hermitian(rho, name=name)
    tr = rho.trace()
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        # rho is Hermitian, so its trace is real to round-off
        raise InvariantError(f"{name} has trace {tr.real:.12g}, expected 1")
    w = np.linalg.eigvalsh(rho)
    if w[0] < -DENSITY_EIG_TOL:
        raise InvariantError(f"{name} has negative eigenvalue {w[0]:.3e}")
    return rho


def hermitian_basis(d):
    """Traceless Hermitian basis with Tr(L_j L_k) = 2 delta_jk.

    For d=2 these are the Pauli matrices in the computational basis; for
    d>2 the generalized Gell-Mann construction with the same normalization.
    Returns a list of d**2 - 1 arrays.
    """
    if d < 2:
        raise DimensionError(f"dimension must be >= 2, got {d}")
    if d == 2:
        return [P.copy() for P in PAULIS]
    ops = []
    # off-diagonal symmetric / antisymmetric pairs
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            ops.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1.0j
            asym[k, j] = 1.0j
            ops.append(asym)
    # diagonal ladder
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        ops.append(np.diag(diag).astype(complex) * np.sqrt(2.0 / (l * (l + 1))))
    return ops


def matrix_exp(H):
    """exp(H) for Hermitian H via spectral decomposition."""
    H = check_hermitian(H)
    w, V = np.linalg.eigh(H)
    E = (V * np.exp(w)) @ dag(V)
    return 0.5 * (E + dag(E))


def matrix_log(rho):
    """Logarithm of a density matrix on its support.

    Eigenvalues below SUPPORT_TOL (relative to the largest eigenvalue) are
    treated as outside the support and excluded.  Returns (log, projector)
    where projector spans the support.
    """
    rho = check_density(rho)
    w, V = np.linalg.eigh(rho)
    keep = w > SUPPORT_TOL * w[-1]
    Vk = V[:, keep]
    L = (Vk * np.log(w[keep])) @ dag(Vk)
    P = Vk @ dag(Vk)
    return 0.5 * (L + dag(L)), 0.5 * (P + dag(P))


def spectrum_entropy(w):
    """Entropy in bits of a state with eigenvalues w, with 0 log 0 := 0:
    eigenvalues at or below SUPPORT_TOL times the largest are outside the
    support."""
    w = np.asarray(w, dtype=float)
    p = w[w > SUPPORT_TOL * w.max(initial=0.0)]
    return float(-np.sum(p * np.log2(p)))


def von_neumann_entropy(rho):
    """Von Neumann entropy in bits, with 0 log 0 := 0."""
    return spectrum_entropy(np.linalg.eigvalsh(check_density(rho)))


def partial_trace(M, dims, subsystem):
    """Partial trace of a bipartite operator over the named factor.

    dims is the (d_A, d_B) split of the tensor product; subsystem is
    "first" or "second".
    """
    M = np.asarray(M, dtype=complex)
    dA, dB = dims
    if M.shape != (dA * dB, dA * dB):
        raise DimensionError(
            f"operator of shape {M.shape} does not factor as {dA}*{dB}"
        )
    T = M.reshape(dA, dB, dA, dB)
    if subsystem == "first":
        return np.einsum("ijik->jk", T)
    if subsystem == "second":
        return np.einsum("ijkj->ik", T)
    raise ValueError(f"subsystem must be 'first' or 'second', got {subsystem!r}")


def expectation(rho, F):
    """Born-rule mean value Tr(rho F), verified real to 1e-10."""
    rho = np.asarray(rho, dtype=complex)
    F = np.asarray(F, dtype=complex)
    if rho.shape != F.shape:
        raise DimensionError(f"shape mismatch {rho.shape} vs {F.shape}")
    val = np.trace(rho @ F)
    if abs(val.imag) > 1e-10:
        raise InvariantError(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


def bloch_to_density(r):
    """Qubit state (I + r.sigma)/2 from a Bloch vector of norm <= 1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise DimensionError(f"Bloch vector must have length 3, got shape {r.shape}")
    if np.linalg.norm(r) > 1.0 + 1e-10:
        raise InvariantError(f"Bloch vector norm {np.linalg.norm(r):.12g} exceeds 1")
    return 0.5 * (ID2 + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z)


def density_to_bloch(rho):
    """Bloch vector (Tr rho sigma_x, Tr rho sigma_y, Tr rho sigma_z)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DimensionError("density_to_bloch expects a qubit state")
    return np.array([np.trace(rho @ P).real for P in PAULIS])
