"""Channel representations: the Choi-Jamiolkowski isomorphism in both
directions, CPTP verification, process entropy, Kraus extraction and
qubit Bloch-sphere affine maps.

Tensor-factor order is fixed as (ancilla, system): the channel acts on
the second factor, omega = (I (x) E)[Psi+].  All reshapes and partial
traces below follow this order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, NotAChannelError
from .linalg import (
    ID2,
    PAULIS,
    check_density,
    check_hermitian,
    dag,
    frobenius,
    kron,
    partial_trace,
)

CPTP_TOL = 1e-8


@dataclass(frozen=True)
class ChoiState:
    """Bipartite density matrix representing a channel on a d-level system.

    The matrix lives on dimension d**2 with the (ancilla, output) factor
    order; trace preservation of the channel is the marginal condition
    Tr_2 omega = I/d.
    """

    d: int
    matrix: np.ndarray

    def __post_init__(self):
        m = check_density(self.matrix, name="Choi matrix")
        if m.shape != (self.d ** 2, self.d ** 2):
            raise DimensionError(
                f"Choi matrix of shape {m.shape} does not match d={self.d}"
            )
        marg = partial_trace(m, (self.d, self.d), "second")
        dev = frobenius(marg - np.eye(self.d) / self.d)
        if dev > CPTP_TOL:
            raise NotAChannelError(
                f"Tr_2 omega deviates from I/d by {dev:.3e} (tol {CPTP_TOL:.1e})"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class QubitAffineMap:
    """Qubit channel in Bloch coordinates: r -> linear @ r + translation."""

    linear: np.ndarray
    translation: np.ndarray

    def __call__(self, r):
        return self.linear @ np.asarray(r, dtype=float) + self.translation


@dataclass(frozen=True)
class CptpReport:
    positive: bool
    trace_preserving: bool
    min_eigenvalue: float
    tp_deficit: float


def maximally_entangled_state(d):
    """Psi+ = (1/d) sum_jk |jj><kk| in the computational basis."""
    if d < 2:
        raise DimensionError(f"dimension must be >= 2, got {d}")
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(psi, psi.conj())


def choi_from_apply(apply_map, d):
    """Choi state of a channel given as a callable on d x d matrices.

    The map is extended linearly over matrix units; the result is
    validated, so a non-CPTP callable raises NotAChannelError.
    """
    omega = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[j, k] = 1.0
            out = np.asarray(apply_map(unit), dtype=complex)
            omega[j * d:(j + 1) * d, k * d:(k + 1) * d] = out / d
    omega = 0.5 * (omega + dag(omega))
    return ChoiState(d, omega)


def _apply_linear(omega, d, A):
    """E[A] = d Tr_anc[(A^T (x) I) omega] without density validation."""
    lifted = kron(np.asarray(A, dtype=complex).T, np.eye(d))
    return d * partial_trace(lifted @ omega, (d, d), "first")


def apply_from_choi(choi, rho):
    """Channel action E[rho] = d Tr_anc[(rho^T (x) I) omega].

    The transpose is taken in the computational basis defining Psi+.
    """
    rho = check_density(rho, name="input state")
    if rho.shape != (choi.d, choi.d):
        raise DimensionError(
            f"input of shape {rho.shape} does not match channel dimension {choi.d}"
        )
    out = _apply_linear(choi.matrix, choi.d, rho)
    return check_density(out, name="channel output")


def process_entropy(choi):
    """Process entropy in bits: von Neumann entropy of the Choi state."""
    return linalg.von_neumann_entropy(choi.matrix)


def is_cptp(omega):
    """Check a candidate bipartite matrix for complete positivity and
    trace preservation to CPTP_TOL; returns a report rather than raising."""
    omega = check_hermitian(omega, name="candidate Choi matrix")
    D = omega.shape[0]
    d = int(round(np.sqrt(D)))
    if d * d != D:
        raise DimensionError(f"dimension {D} is not a perfect square")
    wmin = float(np.linalg.eigvalsh(omega)[0])
    marg = partial_trace(omega, (d, d), "second")
    deficit = frobenius(marg - np.eye(d) / d)
    return CptpReport(
        positive=wmin >= -CPTP_TOL,
        trace_preserving=deficit <= CPTP_TOL,
        min_eigenvalue=wmin,
        tp_deficit=deficit,
    )


def kraus_from_choi(choi):
    """Kraus operators from the spectral decomposition of the Choi state.

    With omega = sum_k p_k |phi_k><phi_k| and the (ancilla, output)
    convention, A_k[i, j] = sqrt(d p_k) <j (x) i|phi_k>.  Eigenvalues up
    to SUPPORT_TOL times the largest give no operator.
    """
    d = choi.d
    w, V = np.linalg.eigh(choi.matrix)
    ops = []
    for k in range(len(w) - 1, -1, -1):
        if w[k] <= linalg.SUPPORT_TOL * w[-1]:
            break
        phi = V[:, k].reshape(d, d)  # phi[j, i]: ancilla index j, output i
        ops.append(np.sqrt(d * w[k]) * phi.T)
    return ops


def choi_from_kraus(kraus, d=None):
    """Choi state of the channel rho -> sum_k A_k rho A_k^dagger; every A_k
    must be d x d (DimensionError)."""
    kraus = [np.asarray(A, dtype=complex) for A in kraus]
    if d is None:
        d = kraus[0].shape[0]
    if any(A.shape != (d, d) for A in kraus):
        shapes = [A.shape for A in kraus]
        raise DimensionError(f"Kraus operators must be {d} x {d}, not {shapes}")
    comp = sum(dag(A) @ A for A in kraus)
    if frobenius(comp - np.eye(d)) > 1e-9:
        raise NotAChannelError("Kraus operators do not satisfy sum A^dag A = I")
    return choi_from_apply(lambda rho: sum(A @ rho @ dag(A) for A in kraus), d)


def random_channel(d, kraus_rank, rng):
    """Haar-ish random channel from a random Stinespring isometry."""
    G = rng.standard_normal((kraus_rank * d, d)) + 1j * rng.standard_normal(
        (kraus_rank * d, d)
    )
    V, _ = np.linalg.qr(G)
    return choi_from_kraus(list(V.reshape(kraus_rank, d, d)), d)


def bloch_affine_map(choi):
    """Affine Bloch-sphere action of a qubit channel.

    linear[a, b] = Tr(sigma_a E[sigma_b]) / 2, translation[a] =
    Tr(sigma_a E[I/2]).
    """
    if choi.d != 2:
        raise DimensionError("bloch_affine_map supports d=2 only")
    M = np.empty((3, 3))
    for b, Pb in enumerate(PAULIS):
        out = _apply_linear(choi.matrix, 2, Pb)
        for a, Pa in enumerate(PAULIS):
            M[a, b] = 0.5 * np.trace(Pa @ out).real
    img = _apply_linear(choi.matrix, 2, 0.5 * ID2)
    v = np.array([np.trace(Pa @ img).real for Pa in PAULIS])
    return QubitAffineMap(linear=M, translation=v)
