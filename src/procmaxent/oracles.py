"""Closed-form and transcendental reference solutions for qubit
observation levels, used as independent cross-checks of the numerical
solver.

Covered observation levels (single use of the channel, qubit system):
  * a single ancilla-free mean <sigma_z> with the maximally mixed test
    state (closed form),
  * the same mean with a pure test state (closed form),
  * the same mean with a mixed test state of Bloch radius r in (0, 1)
    (two transcendental equations, solved by an independent root
    finder),
  * full output tomography of the maximally mixed test state,
  * four test states with a single measured output component.

Multipliers are reported in the two-parameter frame (lam, dd) of the
collinear ansatz: the exponent is lam (rT.sigma)(x)I + dd * 2 rho^T (x)
sigma_z, with rT the transposed Bloch vector (r_x, -r_y, r_z).
"""

from __future__ import annotations

import warnings
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


def _o1_root(uv, r, m):
    """Damped Newton for _o1_equations in u = lam + dd, v = lam - dd from
    uv, with the analytic Jacobian: each step is halved until the
    residual's max-norm falls, and a trial point whose residual is not
    finite is rejected.  Returns (lam, dd) once no step lowers it."""
    def f(uv):
        return _o1_equations((0.5 * (uv[0] + uv[1]), 0.5 * (uv[0] - uv[1])), r, m)

    with np.errstate(all="ignore"):
        fx = f(uv)
        for _ in range(200):
            u, v = uv
            a, b = np.exp(0.5 * (v - u)), np.exp(0.5 * (u - v))
            sp, cp, sm, cm = np.sinh(u * r), np.cosh(u * r), np.sinh(v * r), np.cosh(v * r)
            jac = [[a * (r * cp - 0.5 * sp) + 0.5 * b * sm,
                    0.5 * a * sp + b * (r * cm - 0.5 * sm)],
                   [(m - 1) * a * (r * sp - 0.5 * cp) + 0.5 * (m + 1) * b * cm
                    + r * a * (2 * r * cp - sp),
                    0.5 * (m - 1) * a * cp + (m + 1) * b * (r * sm - 0.5 * cm) + r * a * sp]]
            try:
                step = np.linalg.solve(jac, -fx)
            except np.linalg.LinAlgError:
                break
            for t in 0.5 ** np.arange(40):
                ft = f(uv + t * step)
                if np.all(np.isfinite(ft)) and np.abs(ft).max() < np.abs(fx).max():
                    uv, fx = uv + t * step, ft
                    break
            else:
                break
    return 0.5 * (uv[0] + uv[1]), 0.5 * (uv[0] - uv[1])


def oracle_O1_transcendental(r, m, r_hat=(0.0, 0.0, 1.0)):
    """Estimate for a mixed test state of Bloch radius r in (0, 1): the
    multipliers solve two coupled hyperbolic equations, found here by an
    independent root finder and checked to residual 1e-12."""
    if not (0.0 < r < 1.0):
        raise InvariantError(f"r must lie in (0, 1), got {r}")
    if abs(m) >= 1.0:
        raise InvariantError(f"|m| = {abs(m):.12g} is outside the interior domain")
    r_hat = np.asarray(r_hat, dtype=float)
    r_hat = r_hat / np.linalg.norm(r_hat)
    # Seeds: the pure-state closed form, the mixed-state closed form, and a
    # coarse grid; the decoupled variables u = lam + dd, v = lam - dd keep
    # the Jacobian well conditioned near r -> 1.
    dd_pure = 0.25 * np.log((1.0 - m) / (1.0 + m))
    seeds = [
        (0.5 * np.log(np.cosh(2.0 * dd_pure)), dd_pure),
        (0.0, -np.arctanh(m) if abs(m) < 1 else 0.0),
        (0.0, 0.0),
        (0.5, -0.5 * np.sign(m) if m else 0.1),
    ]

    roots = []
    for lam0, dd0 in seeds:
        lam, dd = _o1_root(np.array([lam0 + dd0, lam0 - dd0]), r, m)
        resid = np.abs(_o1_equations((lam, dd), r, m)).max()
        if resid > 1e-12:
            continue
        if not any(abs(lam - a) < 1e-8 and abs(dd - b) < 1e-8 for a, b in roots):
            roots.append((lam, dd))
    if not roots:
        raise OracleFailureError(
            f"root finder failed for (r={r}, m={m}); no residual below 1e-12"
        )
    feasible = []
    for lam, dd in roots:
        omega = _o1_assemble(lam, dd, r * r_hat)
        if np.linalg.eigvalsh(omega)[0] > -1e-10:
            feasible.append((lam, dd, omega))
    if len(feasible) > 1:
        warnings.warn(
            f"multiple feasible roots for (r={r}, m={m}): "
            f"{[(a, b) for a, b, _ in feasible]}; using the first",
            RuntimeWarning,
        )
    lam, dd, omega = feasible[0]
    choi = ChoiState(2, omega)
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
