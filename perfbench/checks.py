"""Independent checks of channel estimates.

Everything here is plain numpy written for the benchmark; nothing is
imported from procmaxent, so a fault in the program cannot hide in the
reference it is compared against.

Conventions match the program's documented ones: the Choi state of a
channel E on C^d is omega = (I (x) E)[Psi+] with the factor order
(ancilla, output), so E(M) = d Tr_anc[(M^T (x) I) omega].
"""

from __future__ import annotations

import numpy as np

RESIDUAL_TOL = 1e-8       # |Tr(omega X_j) - x_j|
MIN_EIG_TOL = 1e-9        # omega >= -MIN_EIG_TOL
TP_TOL = 1e-9             # max |Tr_out omega - I/d|
ENTROPY_TOL = 1e-7        # bits, for the MaxEnt and relative-entropy orderings
UNIQUE_TOL = 1e-6         # Frobenius distance when the data fix the channel
CLOSED_FORM_TOL = 1e-7    # Bloch-map entries against the paper's closed forms
KRAUS_TOL = 1e-8          # completeness and Choi reconstruction of a Kraus list

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class CheckFailed(Exception):
    """An estimate returned by the program fails an independent check."""


# ------------------------------------------------------------ reference maths

def gell_mann(d):
    """Traceless Hermitian basis of d x d matrices (Paulis for d = 2)."""
    if d == 2:
        return list(PAULIS)
    ops = []
    for j in range(d):
        for k in range(j + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            a = np.zeros((d, d), dtype=complex)
            a[j, k], a[k, j] = -1j, 1j
            ops += [s, a]
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l], diag[l] = 1.0, -l
        ops.append(np.diag(diag * np.sqrt(2.0 / (l * (l + 1)))).astype(complex))
    return ops


def choi_from_kraus(kraus):
    """omega = (1/d) sum_k |A_k>><<A_k| with |A>> = sum_j |j> (x) A|j>."""
    d = kraus[0].shape[1]
    vecs = np.array([A.T.reshape(-1) for A in kraus])
    return vecs.T @ vecs.conj() / d


def apply_channel(omega, M):
    """E(M) for any d x d matrix M, from the Choi matrix."""
    d = M.shape[0]
    T = omega.reshape(d, d, d, d)          # [a, i, b, j] = <a i|omega|b j>
    return d * np.einsum("ab,aibj->ij", M, T)


def apply_extended(omega, Omega):
    """(I_D (x) E)(Omega) for Omega on C^D (x) C^d."""
    d = int(round(np.sqrt(omega.shape[0])))
    D = Omega.shape[0] // d
    blocks = Omega.reshape(D, d, D, d)
    out = np.empty(blocks.shape, dtype=complex)
    for a in range(D):
        for b in range(D):
            out[a, :, b, :] = apply_channel(omega, blocks[a, :, b, :])
    return out.reshape(D * d, D * d)


def predicted_mean(omega, kind, state, observable):
    if kind == "ancilla_free":
        out = apply_channel(omega, state)
    elif kind == "ancilla_assisted":
        out = apply_extended(omega, state)
    else:
        raise ValueError(f"unknown measurement kind {kind!r}")
    return float(np.trace(observable @ out).real)


def entropy_bits(omega):
    w = np.linalg.eigvalsh(0.5 * (omega + omega.conj().T))
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def relative_entropy_bits(omega, prior):
    """S(omega || prior); infinite when omega leaves the prior's support."""
    w0, V0 = np.linalg.eigh(0.5 * (prior + prior.conj().T))
    keep = w0 > 1e-12 * w0[-1]
    V = V0[:, keep]
    inside = float(np.trace(V.conj().T @ omega @ V).real)
    if inside < 1.0 - 1e-9:
        return np.inf
    cross = float(np.trace(V.conj().T @ omega @ V @ np.diag(np.log2(w0[keep]))).real)
    return -entropy_bits(omega) - cross


def bloch_map(omega):
    """(linear, translation) of a qubit channel: r -> linear @ r + translation."""
    M = np.array([[0.5 * np.trace(Pa @ apply_channel(omega, Pb)).real for Pb in PAULIS]
                  for Pa in PAULIS])
    v = np.array([np.trace(Pa @ apply_channel(omega, 0.5 * np.eye(2))).real
                  for Pa in PAULIS])
    return M, v


# ------------------------------------------------------------ checks

def _fail(message):
    raise CheckFailed(message)


def check_channel(omega, d):
    """Complete positivity and trace preservation."""
    if omega.shape != (d * d, d * d):
        _fail(f"Choi matrix has shape {omega.shape}, expected {(d * d, d * d)}")
    if np.abs(omega - omega.conj().T).max() > 1e-12:
        _fail("Choi matrix is not Hermitian")
    wmin = float(np.linalg.eigvalsh(0.5 * (omega + omega.conj().T))[0])
    if wmin < -MIN_EIG_TOL:
        _fail(f"Choi matrix has eigenvalue {wmin:.3e}")
    marginal = np.einsum("aibi->ab", omega.reshape(d, d, d, d))
    dev = float(np.abs(marginal - np.eye(d) / d).max())
    if dev > TP_TOL:
        _fail(f"Tr_out omega deviates from I/d by {dev:.3e}")


def check_residuals(omega, measurements, means):
    for (kind, state, observable, label), x in zip(measurements, means):
        r = abs(predicted_mean(omega, kind, state, observable) - x)
        if r > RESIDUAL_TOL:
            _fail(f"constraint {label!r}: residual {r:.3e}")


def check_maxent(omega, truth):
    """The true channel is feasible, so the MaxEnt estimate has at least
    its entropy."""
    s, s_true = entropy_bits(omega), entropy_bits(truth)
    if s < s_true - ENTROPY_TOL:
        _fail(f"entropy {s:.10f} below the true channel's {s_true:.10f}")


def check_min_relative_entropy(omega, truth, prior):
    """The true channel is feasible, so the biased estimate is at most as
    far from the prior."""
    r, r_true = relative_entropy_bits(omega, prior), relative_entropy_bits(truth, prior)
    if not r <= r_true + ENTROPY_TOL:
        _fail(f"relative entropy {r:.10f} above the true channel's {r_true:.10f}")


def check_unique(omega, truth):
    """Data that determine the channel must return it."""
    dist = float(np.linalg.norm(omega - truth))
    if dist > UNIQUE_TOL:
        _fail(f"distance {dist:.3e} to the channel the data determine")


def check_bloch(omega, linear, translation):
    M, v = bloch_map(omega)
    dev = max(float(np.abs(M - linear).max()), float(np.abs(v - translation).max()))
    if dev > CLOSED_FORM_TOL:
        _fail(f"Bloch map deviates from the closed form by {dev:.3e}")


def check_kraus(kraus, omega):
    d = int(round(np.sqrt(omega.shape[0])))
    comp = sum(A.conj().T @ A for A in kraus)
    dev = float(np.abs(comp - np.eye(d)).max())
    if dev > KRAUS_TOL:
        _fail(f"sum A^dag A deviates from I by {dev:.3e}")
    dev = float(np.abs(choi_from_kraus(kraus) - omega).max())
    if dev > KRAUS_TOL:
        _fail(f"Kraus list rebuilds the Choi matrix only to {dev:.3e}")


def check_estimate(problem, omega):
    """Every check that applies to one problem; raises CheckFailed."""
    check_channel(omega, problem.d)
    check_residuals(omega, problem.measurements, problem.means)
    if problem.truth is not None:
        if problem.prior is not None:
            check_min_relative_entropy(omega, problem.truth, problem.prior)
        else:
            check_maxent(omega, problem.truth)
        if problem.unique:
            check_unique(omega, problem.truth)
    if problem.bloch is not None:
        check_bloch(omega, *problem.bloch)
