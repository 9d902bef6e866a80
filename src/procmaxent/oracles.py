"""Closed-form and transcendental reference solutions for qubit
observation levels, used as independent cross-checks of the numerical
solver.

Covered observation levels (single use of the channel, qubit system):
  * a single ancilla-free mean <sigma_z> with the maximally mixed test
    state (closed form),
  * the same mean with a pure test state (closed form),
  * the same mean with a mixed test state of Bloch radius r in (0, 1)
    (two transcendental equations: the first gives lam in closed form,
    and bisection solves the second, monotone in dd),
  * full output tomography of the maximally mixed test state,
  * four test states with a single measured output component.

Multipliers are reported in the two-parameter frame (lam, dd) of the
collinear ansatz: the exponent is lam (rT.sigma)(x)I + dd * 2 rho^T (x)
sigma_z, with rT the transposed Bloch vector (r_x, -r_y, r_z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChoiState, QubitAffineMap, bloch_affine_map
from .errors import BoundaryCaseError, InvariantError, OracleFailureError
from .linalg import ID2, PAULI_Z, PAULIS, bloch_to_density, matrix_exp
from .observations import Constraint, ObservationLevel, reduce_ancilla_free


@dataclass(frozen=True, eq=False)
class OracleResult:
    choi: ChoiState
    bloch_map: QubitAffineMap
    observation: ObservationLevel
    multipliers: dict | None = None


def _transposed(vec):
    v = np.asarray(vec, dtype=float)
    return np.array([v[0], -v[1], v[2]])


def _pauli_dot(vec):
    return sum(float(c) * P for c, P in zip(vec, PAULIS))


def _observation_o1(rho, m):
    return ObservationLevel(
        d=2,
        constraints=(Constraint(reduce_ancilla_free(rho, PAULI_Z), m, label="m"),),
    )


def oracle_O1_mixed(m):
    """Estimate from a single mean m = <sigma_z> probed with the
    maximally mixed test state: the constant channel onto (I + m
    sigma_z)/2."""
    if abs(m) > 1.0:
        raise InvariantError(f"|m| = {abs(m):.12g} exceeds 1")
    omega = 0.5 * np.kron(ID2, 0.5 * (ID2 + m * PAULI_Z))
    choi = ChoiState(2, omega)
    bloch = QubitAffineMap(np.zeros((3, 3)), np.array([0.0, 0.0, float(m)]))
    mult = None if abs(m) == 1.0 else {"lam": 0.0, "dd": float(-np.arctanh(m))}
    return OracleResult(choi, bloch, _observation_o1(0.5 * ID2, m), mult)


def oracle_O1_pure(m, r_hat):
    """Estimate from a single mean m = <sigma_z> probed with the pure
    test state (I + r_hat.sigma)/2; |m| < 1 strictly.

    Multipliers: dd = (1/4) ln((1-m)/(1+m)), lam = (1/2) ln cosh(2 dd);
    Bloch action t -> (0, 0, m (1 + t.r)/2).
    """
    r_hat = np.asarray(r_hat, dtype=float)
    if abs(np.linalg.norm(r_hat) - 1.0) > 1e-10:
        raise InvariantError("r_hat must be a unit Bloch vector")
    if abs(m) >= 1.0:
        raise BoundaryCaseError(
            "|m| >= 1: use the boundary limit map t -> (0, 0, sign(m)(1 + t.r)/2)"
        )
    dd = 0.25 * np.log((1.0 - m) / (1.0 + m))
    lam = 0.5 * np.log(np.cosh(2.0 * dd))
    rT = _transposed(r_hat)
    s = _pauli_dot(rT)
    Z = 2.0 * (np.exp(lam) + np.exp(-lam) * np.cosh(2.0 * dd))
    block0 = np.exp(-dd) * (np.cosh(lam + dd) * ID2 - np.sinh(lam + dd) * s)
    block1 = np.exp(dd) * (np.cosh(lam - dd) * ID2 - np.sinh(lam - dd) * s)
    omega = (np.kron(block0, np.diag([1.0, 0.0])) +
             np.kron(block1, np.diag([0.0, 1.0]))) / Z
    choi = ChoiState(2, omega)
    M = np.zeros((3, 3))
    M[2, :] = 0.5 * m * r_hat
    bloch = QubitAffineMap(M, np.array([0.0, 0.0, 0.5 * m]))
    rho = bloch_to_density(r_hat)
    return OracleResult(choi, bloch, _observation_o1(rho, m),
                        {"lam": float(lam), "dd": float(dd)})


def _o1_equations(params, r, m):
    lam, dd = params
    sp = np.sinh((lam + dd) * r)
    sm = np.sinh((lam - dd) * r)
    cp = np.cosh((lam + dd) * r)
    cm = np.cosh((lam - dd) * r)
    ep, em = np.exp(-dd), np.exp(dd)
    f1 = ep * sp + em * sm
    f2 = m * (ep * cp + em * cm) - (ep * cp - em * cm - 2.0 * r * ep * sp)
    return np.array([f1, f2])


def _o1_assemble(lam, dd, r_vec):
    # collinear ansatz: the sigma(x)I multiplier vector is lam * rT with
    # rT the full-length transposed Bloch vector (norm r, not unit)
    rho = bloch_to_density(r_vec)
    exponent = (lam * np.kron(_pauli_dot(_transposed(r_vec)), ID2)
                + dd * reduce_ancilla_free(rho, PAULI_Z))
    raw = matrix_exp(-exponent)
    return raw / np.trace(raw).real


def _o1_lam(dd, r):
    """The lam that meets the first equation exactly: tanh(lam r) =
    tanh(dd) tanh(r dd), written so that nothing cancels."""
    ratio = 2.0 * np.sinh(dd) * np.sinh(r * dd) / np.cosh((1.0 - r) * dd)
    return np.log1p(ratio) / (2.0 * r)


def oracle_O1_transcendental(r, m, r_hat=(0.0, 0.0, 1.0)):
    """Estimate for a mixed test state of Bloch radius r in (0, 1).

    The first of the two hyperbolic equations gives lam(dd) in closed
    form.  On that curve the second factors as (e^-dd cosh(u r) + e^dd
    cosh(v r)) (m - M(dd)), with u = lam + dd, v = lam - dd and M(dd) the
    model's mean, which falls strictly with dd.  Its single root is
    bracketed by doubling [-1, 1] and bisected until the midpoint is an
    endpoint; both equations, divided by that positive factor, are then
    checked to residual 1e-12."""
    if not (0.0 < r < 1.0):
        raise InvariantError(f"r must lie in (0, 1), got {r}")
    if abs(m) >= 1.0:
        raise InvariantError(f"|m| = {abs(m):.12g} is outside the interior domain")
    r_hat = np.asarray(r_hat, dtype=float)
    r_hat = r_hat / np.linalg.norm(r_hat)

    def sign_f2(dd):
        return np.sign(_o1_equations((_o1_lam(dd, r), dd), r, m)[1])

    with np.errstate(all="ignore"):
        lo, hi = -1.0, 1.0
        # signs, not products, are compared: products underflow; a
        # non-finite value (sign nan) ends the search
        while (s_lo := sign_f2(lo)) == sign_f2(hi):
            lo, hi = 2.0 * lo, 2.0 * hi
        # stops on an exact root or when the midpoint is an endpoint
        while lo < (dd := 0.5 * (lo + hi)) < hi and (s := sign_f2(dd)):
            lo, hi = (dd, hi) if s == s_lo else (lo, dd)
        lam = _o1_lam(dd, r)
        scale = np.exp(-dd) * np.cosh((lam + dd) * r) + np.exp(dd) * np.cosh((lam - dd) * r)
        resid = np.abs(_o1_equations((lam, dd), r, m)).max() / scale
    if not resid <= 1e-12:
        raise OracleFailureError(
            f"root finder failed for (r={r}, m={m}); no residual below 1e-12"
        )
    choi = ChoiState(2, _o1_assemble(lam, dd, r * r_hat))
    rho = bloch_to_density(r * r_hat)
    return OracleResult(choi, bloch_affine_map(choi), _observation_o1(rho, m),
                        {"lam": float(lam), "dd": float(dd)})


def oracle_O3(m_vec):
    """Full output tomography of the maximally mixed test state: the
    constant channel onto (I + m.sigma)/2."""
    m_vec = np.asarray(m_vec, dtype=float)
    if np.linalg.norm(m_vec) > 1.0:
        raise InvariantError(f"|m| = {np.linalg.norm(m_vec):.12g} exceeds 1")
    omega = 0.25 * np.kron(ID2, ID2 + _pauli_dot(m_vec))
    choi = ChoiState(2, omega)
    bloch = QubitAffineMap(np.zeros((3, 3)), m_vec.copy())
    norm = np.linalg.norm(m_vec)
    mu = -np.arctanh(norm) * m_vec / norm if 0 < norm < 1 else np.zeros(3)
    cons = tuple(
        Constraint(np.kron(ID2, P), float(m_vec[a]), label=f"m:{'xyz'[a]}")
        for a, P in enumerate(PAULIS)
    )
    return OracleResult(choi, bloch, ObservationLevel(d=2, constraints=cons),
                        {"mu": mu})


def oracle_O4(z, zeta):
    """Four test states (maximally mixed plus the +1 eigenstates of
    sigma_x, sigma_y, sigma_z), measuring only <sigma_z> of the output.

    With zeta' = zeta - z the estimate is omega = (1/4)(I(x)I +
    z I(x)sigma_z + (zeta'_T.sigma)(x)sigma_z); in Bloch language
    t -> (0, 0, z + zeta'.t).  The transpose on the sigma vector matches
    the transposed projectors in the constraint operators.
    """
    zeta = np.asarray(zeta, dtype=float)
    zp = zeta - z
    omega = 0.25 * (np.kron(ID2, ID2) + z * np.kron(ID2, PAULI_Z)
                    + np.kron(_pauli_dot(_transposed(zp)), PAULI_Z))
    if np.linalg.eigvalsh(omega)[0] < -1e-10:
        raise InvariantError(
            f"(z={z}, zeta={zeta.tolist()}) does not define a positive Choi state"
        )
    choi = ChoiState(2, omega)
    M = np.zeros((3, 3))
    M[2, :] = zp
    bloch = QubitAffineMap(M, np.array([0.0, 0.0, float(z)]))
    cons = [Constraint(np.kron(ID2, PAULI_Z), float(z), label="z")]
    axes = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])]
    for a, axis in enumerate(axes):
        eta = bloch_to_density(axis)
        cons.append(
            Constraint(reduce_ancilla_free(eta, PAULI_Z), float(zeta[a]),
                       label=f"zeta:{'xyz'[a]}")
        )
    return OracleResult(choi, bloch, ObservationLevel(d=2, constraints=tuple(cons)))
