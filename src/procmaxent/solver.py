"""Constrained entropy maximization over Choi states via the Lagrange
dual, plus relative-entropy minimization against a prior channel.

The estimate has the exponential-family form omega = exp(-sum_j lam_j
X_j)/Z; the multipliers minimize the smooth, strictly convex dual D(lam)
= ln Z(lam) + lam . x whose gradient is x_j - Tr[omega(lam) X_j].  The
dual is minimized by a damped Newton iteration.  One eigendecomposition
A = V diag(w) V^dag of the exponent gives the value, the gradient and
the exact Hessian, the Kubo-Mori (Bogoliubov) covariance

    H_jk = Re sum_ab K_ab (Y_j)_ab (Y_k)_ba - m_j m_k,
    K_ab = (p_a - p_b)/(w_a - w_b),  K_aa = p_a,

with Gibbs weights p = e^w/Z, eigenbasis constraints Y_j = V^dag X_j V
and means m_j = Tr(omega X_j) (Bhatia, Matrix Analysis, sec. V.3; Petz
and Toth, Lett. Math. Phys. 27, 205 (1993)).  The Armijo line search
also accepts a step whose change in the dual value is at round-off
level when it still lowers the gradient's max-norm: near the optimum
the dual is flat to machine precision and Armijo alone cannot tell a
good step from a bad one.

Targets sitting on the boundary of the jointly feasible set make the
dual infimum unattained: the multipliers diverge along a recession
direction u, and omega concentrates on the minimal eigenspace of
sum_j u_j X_j.  The solver detects this, restricts the problem to that
face and re-solves; strictly infeasible targets are recognized by the
recession value u . x - lambda_min(sum u_j X_j) being negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import ChoiState
from .errors import (
    BoundaryCaseError,
    ConvergenceError,
    InfeasibleError,
    InvariantError,
)
from .linalg import dag, frobenius
from .observations import ObservationLevel, span_report

_MAX_FACE_DEPTH = 4


@dataclass(frozen=True)
class SolverOptions:
    grad_tol: float = 1e-10          # infinity norm of the dual gradient
    max_iter: int = 500
    multiplier_cap: float = 50.0     # flags boundary / divergent solutions
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 60
    boundary_tol: float = 1e-9       # preemptive target-at-spectral-extreme check

    def __post_init__(self):
        if self.grad_tol <= 0 or self.max_iter < 1 or self.multiplier_cap <= 0:
            raise ValueError("invalid solver options")


@dataclass(frozen=True)
class MaxEntSolution:
    choi: ChoiState
    multipliers: np.ndarray       # one per constraint, TP constraints included
    labels: tuple
    log_partition: float          # natural-log partition function of the solved frame
    entropy_bits: float
    residuals: np.ndarray         # |Tr(omega X_j) - x_j| per constraint
    iterations: int
    boundary_flag: bool


@dataclass(frozen=True)
class PriorChannel:
    """Prior Choi state with its support projector; states leaving the
    support have infinite relative entropy and are excluded."""

    choi: ChoiState
    support_tol: float = 1e-12

    def support(self):
        w, V = np.linalg.eigh(self.choi.matrix)
        keep = w > self.support_tol * w[-1]
        return V[:, keep], w[keep]


class DualPoint(NamedTuple):
    value: float
    gradient: np.ndarray
    omega: np.ndarray
    w: np.ndarray         # eigenvalues of the exponent, ascending
    V: np.ndarray         # its eigenvectors (columns)


def _dual_pieces(lam, ops, targets, base=None):
    """Dual value, gradient and primal state from one eigendecomposition,
    which the point keeps for dual_hessian.

    ln Z is computed with a max-eigenvalue shift for overflow safety.
    """
    A = np.tensordot(lam, ops, axes=1)
    if base is not None:
        A = base - A
    else:
        A = -A
    w, V = np.linalg.eigh(0.5 * (A + dag(A)))
    shift = w[-1]
    ew = np.exp(w - shift)
    Z = ew.sum()
    ln_z = float(np.log(Z) + shift)
    omega = (V * (ew / Z)) @ dag(V)
    means = np.einsum("jkl,lk->j", ops, omega).real
    grad = targets - means
    return DualPoint(ln_z + float(lam @ targets), grad, omega, w, V)


def dual_eval(lam, constraints, base=None):
    """Public dual oracle over a list of Constraint objects."""
    lam = np.asarray(lam, dtype=float)
    ops = np.array([c.operator for c in constraints])
    targets = np.array([c.target for c in constraints])
    return _dual_pieces(lam, ops, targets, base=base)


def dual_hessian(point, ops):
    """Exact Hessian of the dual at a DualPoint: the Kubo-Mori covariance
    of the operators ops (stacked, in the frame of the point).

    Centering Y_j on its mean folds the -m_j m_k term into the sum, so
    H = Re(G G^dag) with G_j = sqrt(K) * (Y_j - m_j I) is positive
    semidefinite by construction.  K_ab is evaluated as max(p_a, p_b)
    (1 - e^-|w_a - w_b|)/|w_a - w_b|, which neither overflows nor loses
    the divided difference to cancellation.
    """
    w, V = point.w, point.V
    p = np.exp(w - w[-1])
    p /= p.sum()
    dw = np.abs(w[:, None] - w[None, :])
    nonzero = dw > 0.0
    ratio = np.ones_like(dw)
    ratio[nonzero] = -np.expm1(-dw[nonzero]) / dw[nonzero]
    K = np.maximum(p[:, None], p[None, :]) * ratio
    Y = dag(V) @ np.asarray(ops) @ V
    diag = np.arange(len(w))
    Y[:, diag, diag] -= (Y[:, diag, diag].real @ p)[:, None]
    G = (np.sqrt(K) * Y).reshape(len(Y), K.size)
    H = (G @ dag(G)).real
    return 0.5 * (H + H.T)


class _NewtonResult(NamedTuple):
    status: str           # "converged" | "diverged" | "stalled"
    lam: np.ndarray
    point: DualPoint
    iterations: int


def _newton(ops, targets, base, opts):
    n = len(targets)
    lam = np.zeros(n)
    pt = _dual_pieces(lam, ops, targets, base)
    hard_cap = 20.0 * opts.multiplier_cap
    iters = 0
    while iters < opts.max_iter:
        gnorm = np.abs(pt.gradient).max() if n else 0.0
        if gnorm <= opts.grad_tol:
            return _NewtonResult("converged", lam, pt, iters)
        if np.abs(lam).max() > hard_cap:
            return _NewtonResult("diverged", lam, pt, iters)
        iters += 1
        H = dual_hessian(pt, ops)
        reg = 1e-12 * max(1.0, abs(np.trace(H)) / n)
        try:
            step = np.linalg.solve(H + reg * np.eye(n), -pt.gradient)
        except np.linalg.LinAlgError:
            step = -pt.gradient
        slope = float(pt.gradient @ step)
        if slope >= 0.0:
            step = -pt.gradient
            slope = -float(pt.gradient @ pt.gradient)
        # Near the optimum the dual changes by less than its round-off;
        # there a step is judged by the gradient's max-norm instead.
        roundoff = 1e-12 * max(1.0, abs(pt.value))
        t = 1.0
        accepted = None
        for _ in range(opts.max_backtracks):
            cand = _dual_pieces(lam + t * step, ops, targets, base)
            if (cand.value <= pt.value + opts.armijo_c * t * slope
                    or (abs(cand.value - pt.value) <= roundoff
                        and np.abs(cand.gradient).max() < gnorm)):
                accepted = cand
                break
            t *= opts.backtrack
        if accepted is None:
            return _NewtonResult(_stall_status(lam, pt, opts), lam, pt, iters)
        lam = lam + t * step
        pt = accepted
    return _NewtonResult(_stall_status(lam, pt, opts), lam, pt, iters)


def _stall_status(lam, pt, opts):
    """Classify a Newton iteration that stopped making progress.

    A gradient within 10x of tolerance is numerically converged (the
    line search hits rounding noise before the nominal tolerance)."""
    if np.abs(pt.gradient).max() <= 10.0 * opts.grad_tol:
        return "converged"
    return "diverged" if np.abs(lam).max() > opts.multiplier_cap else "stalled"


def prune_constraints(ops, targets, labels):
    """Indices of the constraints independent of their predecessors, the
    identity (normalization Tr = 1) always in the span.

    A dependent constraint whose stated target disagrees with the target
    its predecessors imply makes the problem infeasible.
    """
    keep, dependent, implied = span_report(ops, targets, tol=1e-9)
    for j, x in zip(dependent, implied):
        if abs(x - targets[j]) > 1e-8 * max(1.0, abs(targets[j])):
            raise InfeasibleError(
                f"constraint {labels[j]!r}: target {targets[j]:.12g} is "
                f"inconsistent with the feasible span (implied {x:.12g})",
                label=labels[j],
            )
    return keep


def _extreme_faces(ops, targets, opts):
    """Projector bases of eigenspaces pinned by targets at spectral
    extremes; one batched eigvalsh finds the pinned operators."""
    faces = []
    for op, x, w in zip(ops, targets, np.linalg.eigvalsh(ops)):
        scale = max(1.0, abs(w[0]), abs(w[-1]))
        top = x >= w[-1] - opts.boundary_tol * scale
        if top or x <= w[0] + opts.boundary_tol * scale:
            w, V = np.linalg.eigh(op)
            etol = 1e-8 * scale
            faces.append(V[:, w >= w[-1] - etol] if top else V[:, w <= w[0] + etol])
    return faces


def _intersect_faces(faces):
    P = sum(U @ dag(U) for U in faces)
    w, V = np.linalg.eigh(P)
    keep = w > len(faces) - 1e-7
    return V[:, keep]


class _CoreSolution(NamedTuple):
    sigma: np.ndarray     # state in the solved frame (dim r)
    lam: np.ndarray       # multipliers per original constraint (0 where pruned)
    log_partition: float
    iterations: int
    boundary: bool


def _solve_core(ops, targets, labels, base, opts, depth=0):
    """Solve min_lam ln Tr exp(base - sum lam_j X_j) + lam . x on the
    current (possibly face-restricted) space; recurses onto boundary
    faces."""
    if depth > _MAX_FACE_DEPTH:
        raise ConvergenceError("face restriction recursion exceeded depth limit")
    n = len(targets)
    dim = base.shape[0]
    keep = prune_constraints(ops, targets, labels)
    kept_ops = np.array([ops[j] for j in keep]) if keep else np.zeros((0, dim, dim))
    kept_targets = np.array([targets[j] for j in keep])
    kept_labels = [labels[j] for j in keep]

    def lift_lam(sub_lam):
        lam = np.zeros(n)
        lam[keep] = sub_lam
        return lam

    faces = _extreme_faces(kept_ops, kept_targets, opts) if keep else []
    if faces:
        W = _intersect_faces(faces)
        if W.shape[1] == 0:
            raise InfeasibleError(
                "targets at spectral extremes pin the state to an empty face"
            )
        sub = _solve_core(
            np.array([dag(W) @ op @ W for op in kept_ops]),
            kept_targets,
            kept_labels,
            dag(W) @ base @ W,
            opts,
            depth + 1,
        )
        sigma = W @ sub.sigma @ dag(W)
        return _CoreSolution(sigma, lift_lam(sub.lam), sub.log_partition,
                             sub.iterations, True)

    if not keep:
        pt = _dual_pieces(np.zeros(0), kept_ops, kept_targets, base)
        return _CoreSolution(pt.omega, np.zeros(n), pt.value, 0, False)

    res = _newton(kept_ops, kept_targets, base, opts)
    if res.status == "converged":
        return _CoreSolution(res.point.omega, lift_lam(res.lam),
                             res.point.value - float(res.lam @ kept_targets),
                             res.iterations, False)
    if res.status == "stalled":
        raise ConvergenceError(
            f"dual solver stalled after {res.iterations} iterations "
            f"(gradient norm {np.abs(res.point.gradient).max():.3e})"
        )

    # Diverged multipliers: classify via the recession direction.
    u = res.lam / np.linalg.norm(res.lam)
    A = np.tensordot(u, kept_ops, axes=1)
    w, V = np.linalg.eigh(0.5 * (A + dag(A)))
    scale = max(1.0, abs(w[0]), abs(w[-1]))
    gap_value = float(u @ kept_targets) - w[0]
    if gap_value < -1e-4 * scale:
        raise InfeasibleError(
            f"infeasible target set: recession value {gap_value:.3e} along "
            f"diverging multipliers (constraints {kept_labels})"
        )
    if gap_value > 1e-4 * scale:
        raise ConvergenceError(
            f"dual multipliers diverged without a boundary certificate "
            f"(recession value {gap_value:.3e})"
        )
    op_scale = max(1.0, *(frobenius(op) for op in kept_ops))
    ftol = max(1e-8, 50.0 * op_scale / np.linalg.norm(res.lam))
    W = V[:, w < w[0] + ftol]
    if W.shape[1] == dim:
        raise ConvergenceError("boundary face identification failed (full space)")
    sub = _solve_core(
        np.array([dag(W) @ op @ W for op in kept_ops]),
        kept_targets,
        kept_labels,
        dag(W) @ base @ W,
        opts,
        depth + 1,
    )
    sigma = W @ sub.sigma @ dag(W)
    return _CoreSolution(sigma, lift_lam(sub.lam), sub.log_partition,
                         sub.iterations + res.iterations, True)


def _package(obs, core, omega, opts, boundary=None):
    residuals = np.abs(np.einsum("jkl,lk->j", obs.operators, omega).real - obs.targets)
    choi = ChoiState(obs.d, 0.5 * (omega + dag(omega)))
    w = np.linalg.eigvalsh(choi.matrix)
    p = w[w > 1e-15]
    entropy_bits = float(-np.sum(p * np.log2(p)))
    flag = core.boundary if boundary is None else boundary
    if not flag and residuals.max() > 10.0 * opts.grad_tol:
        raise ConvergenceError(
            f"converged solution violates constraints (max residual "
            f"{residuals.max():.3e})"
        )
    return MaxEntSolution(
        choi=choi,
        multipliers=core.lam,
        labels=obs.labels,
        log_partition=core.log_partition,
        entropy_bits=entropy_bits,
        residuals=residuals,
        iterations=core.iterations,
        boundary_flag=flag,
    )


def solve_maxent(obs: ObservationLevel, opts: SolverOptions | None = None):
    """Maximum-process-entropy estimate for an observation level.

    Returns the exponential-family state omega = exp(-sum lam_j X_j)/Z
    meeting the measured means and the implicit trace-preservation
    constraints; among all such states it has maximal entropy.
    """
    opts = opts or SolverOptions()
    D = obs.d ** 2
    core = _solve_core(obs.operators, obs.targets, obs.labels,
                       np.zeros((D, D), dtype=complex), opts)
    return _package(obs, core, core.sigma, opts)


def solve_biased(obs: ObservationLevel, prior: PriorChannel,
                 opts: SolverOptions | None = None):
    """Minimize the Kullback relative entropy S(omega || omega_0) =
    Tr[omega (log omega - log omega_0)] subject to the constraints.

    The search is restricted to the support of the prior Choi state;
    constraints unreachable on that support raise InfeasibleError naming
    the violated constraint.  With omega_0 = I/d**2 the result coincides
    with solve_maxent.
    """
    opts = opts or SolverOptions()
    if prior.choi.d != obs.d:
        raise InvariantError("prior channel dimension does not match observation")
    V0, p0 = prior.support()
    base = np.diag(np.log(p0)).astype(complex)
    core = _solve_core(dag(V0) @ obs.operators @ V0, obs.targets, obs.labels, base, opts)
    omega = V0 @ core.sigma @ dag(V0)
    return _package(obs, core, omega, opts)


def boundary_resolve(obs: ObservationLevel, opts: SolverOptions | None = None,
                     face_tol: float = 1e-7):
    """Resolve an observation level whose targets sit on the boundary of
    the feasible set.

    Identifies the face the constraints pin the state to (via the
    numerically rank-deficient solution of the interior solve, or the
    solver's own divergence handling), re-solves restricted to that
    face, and returns the face solution with the boundary flag set.
    """
    opts = opts or SolverOptions()
    sol = solve_maxent(obs, opts)
    if sol.boundary_flag:
        return sol
    w, V = np.linalg.eigh(sol.choi.matrix)
    keep = w > face_tol
    if keep.all():
        raise BoundaryCaseError(
            "no boundary face: the maximum-entropy solution has full rank"
        )
    W = V[:, keep]
    core = _solve_core(dag(W) @ obs.operators @ W, obs.targets, obs.labels,
                       np.zeros((W.shape[1],) * 2, dtype=complex), opts)
    omega = W @ core.sigma @ dag(W)
    return _package(obs, core, omega, opts, boundary=True)


def solve_state_maxent(constraints, dim, opts: SolverOptions | None = None):
    """Plain state-space MaxEnt (no trace-preservation constraints).

    constraints is a list of Constraint objects on a dim-dimensional
    space.  Returns (rho, multipliers).
    """
    opts = opts or SolverOptions()
    ops = np.array([c.operator for c in constraints])
    targets = np.array([c.target for c in constraints])
    labels = [c.label for c in constraints]
    core = _solve_core(ops, targets, labels, np.zeros((dim, dim), dtype=complex), opts)
    return core.sigma, core.lam
