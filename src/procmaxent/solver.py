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

Targets on the boundary of the jointly feasible set make the dual
infimum unattained: every feasible state lives on a face of the state
space, and the multipliers diverge.  The solver reduces the problem to
that face before it finishes (facial reduction; Borwein and Wolkowicz,
J. Austral. Math. Soc. 30 (1981)), but only to a face the data prove
holds every feasible state (Drusvyatskiy and Wolkowicz, The many faces
of degeneracy in conic optimization (2017)): the eigenspace to which a
target at an end of its operator's spectrum pins the state, the
support of a state the constraints determine, or the face that a
probe's determined output proves.  A probe rho whose measured
observables and the identity span the Hermitian operators on the output
fixes its output sigma = E(rho); if sigma is singular, the positive
operator rho^T (x) P, P the projector on ker sigma, has zero mean on
every feasible Choi state, whose support therefore lies in its kernel
(partial facial reduction; Permenter and Parrilo, Math. Program. 171
(2018)).  Each restriction is followed by pruning on the face, where
jointly infeasible targets show up as inconsistent dependent targets
or as a target outside its restricted operator's spectrum.

Each pass that no pinned target narrows fits one least-squares
feasible state omega_LS, the operator in span{I, X_j} that meets Tr
omega = 1 and every target (_least_squares_state).  A record whose
constraints and Tr omega = 1 span every Hermitian operator on the frame
(complete process tomography) determines the state, so omega_LS is the
maximum-entropy estimate, and one eigendecomposition shows whether it
is positive, singular (its support is then the next face) or of full
rank (it is then the estimate, without Newton).  On any other frame a
positive definite omega_LS is a feasible state of full rank, so no
proper face holds the feasible set: the pass skips the probe-face
search and runs Newton.  Both take their multipliers from the
projection of base - log omega_LS onto the span, by one Gram solve
refined once: the final ones on a determined pass, Newton's start on
any other, which is the optimum where the span is closed under the
logarithm, as on the paper's worked examples.  A pass whose omega_LS
is singular or indefinite searches the probe faces first and starts
Newton from lam = 0.

The solver has no options: the record alone defines the estimate.
Newton decides its own outcome (_newton) and stops for one of three
reasons: it converges when the dual gradient's max-norm is at most
_GRAD_TOL = 1e-10; it raises InfeasibleError at the first iterate whose
dual value weak duality shows no feasible state allows; and it raises
ConvergenceError on a failed line search or after _MAX_ITER = 500
iterations.  An estimate is accepted once, when it meets every
constraint, trace preservation included, to 10 _GRAD_TOL, and its
marginal Tr_2 omega is I/d to the tolerance ChoiState checks.
The traces against the operator stack (the exponent, the means, the
residuals) are each one real matrix-vector product on its float view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import CPTP_TOL, ChoiState
from .errors import (
    BoundaryCaseError,
    ConvergenceError,
    InfeasibleError,
    InvariantError,
)
from .linalg import (
    DENSITY_EIG_TOL,
    SUPPORT_TOL,
    dag,
    frobenius,
    kron,
    partial_trace,
    spectrum_entropy,
)
from .observations import ObservationLevel, probe_groups, span_report

# Armijo sufficient-decrease constant, backtracking factor and limit.
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60
# Gibbs weight below which an eigenvector of the state is off its face.
_FACE_TOL = 1e-7
# Relative distance of a target from its operator's spectral end that pins it.
_BOUNDARY_TOL = 1e-9
# Relative tolerance to which a target must be met, as pruning checks it.
_TARGET_TOL = 1e-8
# Max-norm of the dual gradient at which Newton has converged.
_GRAD_TOL = 1e-10
# Newton iterations per run before it stops unconverged.
_MAX_ITER = 500


@dataclass(frozen=True, eq=False)
class MaxEntSolution:
    """An estimate with its multipliers and residuals.

    boundary_flag is set when the estimate lies on a proper face of the
    state space: the solve narrowed its frame to a face (a biased solve
    starts on the prior's support), or the estimate has an eigenvalue
    below 1e-7 relative to unit trace.  The multipliers of a flagged
    estimate are those of its face: the estimate is exp(base - sum_j
    lam_j X_j)/Z restricted to the face, and a constraint that pruning
    on the face removed has lam_j = 0.
    """

    choi: ChoiState
    multipliers: np.ndarray       # one per constraint, TP constraints included
    labels: tuple
    log_partition: float          # natural-log partition function of the solved frame
    entropy_bits: float
    residuals: np.ndarray         # |Tr(omega X_j) - x_j| per constraint
    iterations: int               # Newton iterations over all passes (0 if all determined)
    boundary_flag: bool


@dataclass(frozen=True, eq=False)
class PriorChannel:
    """Prior Choi state with its support; states leaving the support have
    infinite relative entropy and are excluded.  Built once, read-only:
    frame, orthonormal columns spanning the support, and base, diag(log p)
    of the prior's eigenvalues p there."""

    choi: ChoiState
    frame: np.ndarray = field(init=False, repr=False)
    base: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w, V = np.linalg.eigh(self.choi.matrix)
        keep = w > SUPPORT_TOL * w[-1]
        frame, base = V[:, keep], np.diag(np.log(w[keep])).astype(complex)
        for name, value in (("frame", frame), ("base", base)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


class DualPoint(NamedTuple):
    value: float
    gradient: np.ndarray
    omega: np.ndarray
    w: np.ndarray         # eigenvalues of the exponent, ascending
    V: np.ndarray         # its eigenvectors (columns)
    p: np.ndarray         # Gibbs weights e^w/Z, the state's eigenvalues along V


def _flat(ops):
    """The stack of k x k operators ops as an (n, 2 k**2) real array: for
    Hermitian X and Y, Re Tr(X Y) is the dot product of the float views
    of vec X and vec Y, so every trace against a stack is one real
    matrix-vector product."""
    ops = np.ascontiguousarray(ops, dtype=complex)
    return ops.reshape(len(ops), ops.shape[-1] ** 2).view(float)


def _dual_pieces(lam, ops, targets, base=None):
    """Dual value, gradient and primal state from one eigendecomposition,
    which the point keeps for dual_hessian.

    ln Z is computed with a max-eigenvalue shift for overflow safety.
    """
    flat, k = _flat(ops), ops.shape[-1]
    A = (lam @ flat).view(complex).reshape(k, k)
    A = -A if base is None else base - A
    w, V = np.linalg.eigh(0.5 * (A + dag(A)))
    shift = w[-1]
    ew = np.exp(w - shift)
    Z = ew.sum()
    ln_z = float(np.log(Z) + shift)
    p = ew / Z
    omega = (V * p) @ dag(V)
    grad = targets - flat @ omega.reshape(-1).view(float)
    return DualPoint(ln_z + float(lam @ targets), grad, omega, w, V, p)


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
    w, V, p = point.w, point.V, point.p
    dw = np.abs(w[:, None] - w[None, :])
    nonzero = dw > 0.0
    ratio = np.ones_like(dw)
    ratio[nonzero] = -np.expm1(-dw[nonzero]) / dw[nonzero]
    K = np.maximum(p[:, None], p[None, :]) * ratio
    Y = dag(V) @ np.asarray(ops) @ V
    diag = np.arange(len(w))
    Y[:, diag, diag] -= (Y[:, diag, diag].real @ p)[:, None]
    # Re(G G^dag) is the real product of the float views of G's rows.
    G = (np.sqrt(K) * Y).reshape(len(Y), K.size).view(float)
    H = G @ G.T
    return 0.5 * (H + H.T)


def _newton(ops, targets, base, lam=None):
    """Minimize the dual from lam (zero when None) to ||g||_inf <=
    _GRAD_TOL, and return (lam, point, iterations).

    Weak duality is checked at every iterate: for every state omega on
    the frame that meets the targets, ln Z(lam) >= S(omega) + Tr(omega
    base) - lam . x (Gibbs variational principle), so D(lam) >= min
    eig(base), and a lower value proves that no such state exists
    (InfeasibleError).  The bound is lowered by sum_j |lam_j| times the
    tolerance to which pruning holds target j: a state that meets every
    target only to that tolerance moves the dual value by at most as
    much, so the certificate covers it too and cannot fire on a feasible
    record.  min eig(base) <= Tr(base)/dim, so the spectrum of base is
    taken, once, only when the dual value falls below that mean; with
    base = 0 a feasible run never takes it.  A failed line search or
    _MAX_ITER iterations end the run with a ConvergenceError, which
    names the start (a given lam is the least-squares one) and the
    dimension of the frame.
    """
    n = len(targets)
    start = "lambda = 0" if lam is None else "the least-squares start"
    lam = np.zeros(n) if lam is None else lam
    pt = _dual_pieces(lam, ops, targets, base)
    mean, floor = np.trace(base).real / len(base), None
    iters = 0
    while True:
        gnorm = np.abs(pt.gradient).max() if n else 0.0
        if gnorm <= _GRAD_TOL:
            return lam, pt, iters
        if pt.value < mean:
            floor = np.linalg.eigvalsh(base)[0] if floor is None else floor
            slack = _TARGET_TOL * float(np.abs(lam) @ np.maximum(1.0, np.abs(targets)))
            if pt.value < floor - slack:
                raise InfeasibleError(
                    f"the dual value {pt.value:.12g} is below {floor:.12g}, the least "
                    f"that any state meeting the constraints allows: no channel meets them"
                )
        if iters == _MAX_ITER:
            break
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
        for _ in range(_MAX_BACKTRACKS):
            cand = _dual_pieces(lam + t * step, ops, targets, base)
            if (cand.value <= pt.value + _ARMIJO_C * t * slope
                    or (abs(cand.value - pt.value) <= roundoff
                        and np.abs(cand.gradient).max() < gnorm)):
                accepted = cand
                break
            t *= _BACKTRACK
        if accepted is None:
            break
        lam = lam + t * step
        pt = accepted
    raise ConvergenceError(
        f"dual solver did not converge after {iters} iterations from {start} on a "
        f"frame of dimension {len(base)} (gradient norm {gnorm:.3e}, largest "
        f"multiplier {np.abs(lam).max():.3e})"
    )


def prune_constraints(ops, targets, labels):
    """Indices of the constraints independent of their predecessors, the
    identity (normalization Tr = 1) always in the span.

    A dependent constraint whose stated target disagrees with the target
    its predecessors imply makes the problem infeasible.
    """
    keep, dependent, implied = span_report(ops, targets)
    for j, x in zip(dependent, implied):
        if abs(x - targets[j]) > _TARGET_TOL * max(1.0, abs(targets[j])):
            raise InfeasibleError(
                f"constraint {labels[j]!r}: target {targets[j]:.12g} is "
                f"inconsistent with the feasible span (implied {x:.12g})",
                label=labels[j],
            )
    return keep


def _pinned_face(ops, targets, labels, ends=None):
    """Eigenspace to which the first constraint with its target at an end
    of its spectrum pins the state, or None.  One batched eigvalsh finds
    the pinned constraints, unless ends gives each operator's least and
    largest eigenvalue; a target outside the spectrum is infeasible."""
    if ends is None:
        w = np.linalg.eigvalsh(ops)
        ends = np.column_stack((w[:, 0], w[:, -1]))
    lo, hi = ends[:, 0], ends[:, -1]
    scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    tol = _BOUNDARY_TOL * scale
    outside = np.flatnonzero((targets > hi + tol) | (targets < lo - tol))
    if len(outside):
        j = outside[0]
        raise InfeasibleError(
            f"constraint {labels[j]!r}: target {targets[j]:.12g} lies outside "
            f"the spectrum [{lo[j]:.12g}, {hi[j]:.12g}] of its operator on the face",
            label=labels[j],
        )
    top = targets >= hi - tol
    for j in np.flatnonzero(top | (targets <= lo + tol)):
        wj, V = np.linalg.eigh(ops[j])
        etol = 1e-8 * scale[j]
        face = V[:, wj >= hi[j] - etol] if top[j] else V[:, wj <= lo[j] + etol]
        # Pruning removes a constraint equal to x I on the frame; one that
        # is within etol of it but not pruned pins nothing.
        if face.shape[1] < len(wj):
            return face
    return None


class _CoreSolution(NamedTuple):
    sigma: np.ndarray     # state in the frame of the input operators
    spectrum: np.ndarray  # its eigenvalues on the face, ascending
    lam: np.ndarray       # multipliers per original constraint (0 where pruned)
    log_partition: float
    iterations: int
    boundary: bool


def _fit_state(ops, targets, U, r):
    """The Hermitian sigma = U X U^dag with X zero past its first r rows
    and columns that best meets Tr sigma = 1 and Tr(sigma X_j) = x_j in
    the least-squares sense; ops (..., m, k, k) and targets (..., m) may
    stack several such problems, which share U and r.  U None stands for
    the identity.

    For Hermitian Y, Tr(X Y) = conj(vec Y) . vec X, so the free entries
    of X solve a linear system with one row per constraint.  The R factor
    of one Householder QR of [rows, (1, x)] gives them by a triangular
    solve.
    """
    k = ops.shape[-1]
    lead = ops.shape[:-3]
    eye = np.broadcast_to(np.eye(k, dtype=complex), lead + (1, k, k))
    Y = np.concatenate((eye, ops if U is None else dag(U) @ ops @ U), axis=-3)
    free = np.ones((k, k), dtype=bool)
    free[r:, r:] = False
    A = Y.reshape(Y.shape[:-2] + (k * k,))[..., free.reshape(-1)].conj()
    m = A.shape[-1]
    b = np.concatenate((np.ones(lead + (1,)), targets), axis=-1)
    R = np.linalg.qr(np.concatenate((A, b[..., None]), axis=-1), mode="r")
    X = np.zeros(lead + (k, k), dtype=complex)
    X[..., free] = np.linalg.solve(R[..., :m, :m], R[..., :m, m:])[..., 0]
    sigma = X if U is None else U @ X @ dag(U)
    return 0.5 * (sigma + sigma.conj().swapaxes(-1, -2))


def _determined_images(ops, targets, what):
    """The states sigma_g, stacked along the first axis, with Tr sigma_g
    = 1 and Tr(sigma_g X_gj) = x_gj when the identity and the operators
    X_gj span the Hermitian operators on C^k, as (sigma, w, V, supports):
    ascending eigenvalues w and eigenvectors V of each sigma_g, and the
    support of each singular sigma_g (None where sigma_g has full rank).
    One batched solve and one batched eigh serve every g; a state with an
    eigenvalue below -DENSITY_EIG_TOL is infeasible.  Each sigma_g of
    positive trace is divided by it, so Tr sigma_g = 1 holds exactly: a
    target within tolerance past its spectral end pins the state to a
    face on which its operator is x I, and the fit would spread that
    excess into the trace, which check_density holds to 1e-10.

    sigma_g meets every X_gj in the least-squares sense, not only an
    independent subset: on a face the kept operators alone can be
    ill-conditioned, and meeting only them leaves the others with
    residuals far above round-off.  The support of a singular sigma_g is
    off by its error over the spectral gap, and a state on that support
    misses the targets by as much; a second fit that holds sigma_g's
    block on its kernel at zero aligns the support to second order.
    """
    k = ops.shape[-1]
    sigma = _fit_state(ops, targets, None, k)
    trace = np.trace(sigma, axis1=1, axis2=2).real
    sigma /= np.where(trace > 0.0, trace, 1.0)[:, None, None]
    w, V = np.linalg.eigh(sigma)
    if w[:, 0].min() < -DENSITY_EIG_TOL:
        raise InfeasibleError(
            f"the constraints determine {what} with eigenvalue {w[:, 0].min():.12g} < 0: "
            f"no channel meets them"
        )
    rank = np.count_nonzero(w > SUPPORT_TOL * w[:, -1:], axis=1)
    supports = [None] * len(w)
    for g in np.flatnonzero(rank < k):
        # eigh orders eigenvalues ascending; the support goes first
        refit = _fit_state(ops[g], targets[g], V[g, :, ::-1], rank[g])
        supports[g] = np.linalg.eigh(refit)[1][:, k - rank[g]:]
    return sigma, w, V, supports


def _least_squares_state(f_ops, targets, kept_ops, kept_targets, base):
    """The least-squares feasible state omega_LS of a pass on a k-dimensional
    frame, as (face, ln_z, lam, omega, w).

    f_ops and targets are every constraint on the frame, kept_ops and
    kept_targets those pruning kept.  omega_LS is the Hermitian operator in
    span{I, X_kept} with Tr omega = 1 and Tr(omega X_j) = x_j.  When the
    identity and the k**2 - 1 kept operators span the Hermitian operators
    on the frame (the pass is determined), omega_LS is the one state the
    record allows, fitted to every constraint by _determined_images: a
    negative eigenvalue is infeasible, and a singular omega_LS returns its
    support as face (the rest None).  On any other frame it is the
    min-norm fit omega = sum_i a_i F_i over F = (I, X_kept), with G a =
    (1, x) for the Gram matrix G_ik = Tr(F_i F_k); unless it meets the
    kept targets to the tolerance pruning holds them to and every
    eigenvalue exceeds _FACE_TOL, everything is None.

    Otherwise a state of full rank on the frame is feasible, so no proper
    face holds the feasible set, and base - log omega_LS is projected onto
    the span, ln_z I + sum_kept lam_j X_j, with w the ascending eigenvalues
    of omega_LS.  One solve with G gives the coefficients and one more,
    on the residual of the projection, refines them: G squares the
    condition number of the span, and the refinement wins back the
    precision that costs (corrected semi-normal equations; Bjorck,
    Numerical Methods for Least Squares Problems (1996)).  A determined
    omega_LS is the estimate and is returned as omega, with its final
    multipliers; on any other pass omega is None and lam is Newton's
    start, the optimum where log omega_LS lies in the span.
    """
    k = base.shape[0]
    F = _flat(np.concatenate((np.eye(k, dtype=complex)[None], kept_ops)))
    G = F @ F.T
    omega = None
    if len(kept_ops) == k * k - 1:
        omega, w, V, (face,) = _determined_images(f_ops[None], targets[None],
                                                  "a state on the face")
        if face is not None:
            return face, None, None, None, None
        omega, w, V = omega[0], w[0], V[0]
    else:
        vec = np.linalg.solve(G, np.concatenate(((1.0,), kept_targets))) @ F
        tol = _TARGET_TOL * np.maximum(1.0, np.abs(kept_targets))
        if np.any(np.abs(F[1:] @ vec - kept_targets) > tol):
            return None, None, None, None, None
        w, V = np.linalg.eigh(vec.view(complex).reshape(k, k))
        if w[0] <= _FACE_TOL:
            return None, None, None, None, None
    b = (base - (V * np.log(w)) @ dag(V)).reshape(-1).view(float)
    coef = np.linalg.solve(G, F @ b)
    coef += np.linalg.solve(G, F @ (b - coef @ F))
    return None, coef[0], coef[1:], omega, w


def _probe_face(ops, targets, W, d):
    """The face of the frame W that the probes' determined outputs prove,
    or None when it is all of W.

    ops are the constraint operators on the whole space, d the dimension
    of a channel whose Choi states omega have Tr_2 omega = I/d.  For a
    probe A (observations.probe_groups) with d**2 - 1 operators A (x)
    B_j, the identity and the B_j span the Hermitian operators on the
    output, so the record determines the probe's image sigma, Tr sigma =
    1 and Tr(sigma B_j/d) = x_j, by _determined_images.  If sigma is
    singular, Y = A (x) P, with P the projector on its kernel, is
    positive and Tr(omega Y) = Tr(sigma P)/d = 0 for every feasible
    omega, which therefore lives on ker Y; the face is the kernel of the
    sum of these Y compressed to W (partial facial reduction; Permenter
    and Parrilo, Math. Program. 171 (2018)).  Y is computed from the data
    to round-off, so the face holds every feasible state.
    """
    groups = [g for g in probe_groups(ops, d) if len(g[1]) == d * d - 1]
    if not groups:
        return None
    rows = np.array([B / d for _, _, B in groups])
    x = np.array([targets[index] for _, index, _ in groups])
    supports = _determined_images(rows, x, "the output of a probe")[3]
    singular = [(A, S) for (A, _, _), S in zip(groups, supports) if S is not None]
    if not singular:
        return None
    # Y = G G^dag with G = sqrt(A) (x) P.  The face is the null space of
    # G^dag W, which an SVD of G^dag W finds without squaring its
    # condition number, as an eigendecomposition of W^dag Y W would.
    wa, Va = np.linalg.eigh(np.array([A for A, _ in singular]))
    wa[wa <= SUPPORT_TOL * wa[:, -1:]] = 0.0
    roots = Va * np.sqrt(wa)[:, None, :]
    G = np.concatenate([kron(root, np.eye(d) - S @ dag(S))
                        for root, (_, S) in zip(roots, singular)], axis=1)
    _, sv, Vh = np.linalg.svd(dag(G) @ W)
    rank = int(np.count_nonzero(sv > _BOUNDARY_TOL * max(1.0, sv[0])))
    if rank == W.shape[1]:
        raise InfeasibleError(
            "the outputs the constraints determine for their probes leave no "
            "state: no channel meets them"
        )
    return dag(Vh[rank:]) if rank else None


def _solve_core(ops, targets, labels, frame, base, d=None, ends=None):
    """Solve min_lam ln Tr exp(base - sum lam_j X_j) + lam . x on the
    smallest proved face of the state space that holds every feasible
    state.

    ops act on the whole space.  The solve starts on the span of frame
    (orthonormal columns; None for the whole space), on which base is
    given, and the returned state acts on the whole space.  Each pass
    prunes the problem on the frame W and narrows W to a face the data
    prove: the eigenspace a pinned target selects, the support of the
    state the constraints determine, or, once per solve, the face the
    determined outputs of the probes prove (_probe_face; only when d, the
    channel dimension of a record with trace-preservation constraints,
    is given).  Each pass that no pinned target narrows makes one call to
    _least_squares_state, which fits the least-squares feasible state:
    on a determined pass (the kept constraints and the identity span the
    Hermitian operators on the frame) it is the estimate, without Newton,
    unless it is singular and its support is the face; on any other pass,
    when it is positive definite, no proper face exists and Newton runs
    from its multipliers.  Otherwise the probe faces are sought, once per
    solve, and a pass they leave unnarrowed runs Newton from lam = 0.  A
    constraint pinned on the whole frame equals x I there, which pruning
    removes, so each face is proper and the loop ends within dim passes.

    ends, the least and largest eigenvalue of each operator, says that
    the operators on the whole space are independent (an ObservationLevel
    has checked them).  A frame that spans the whole space changes the
    basis only, which keeps both, and the first pass on it then neither
    prunes nor takes the spectra again.

    A Newton run that does not converge ends the solve with the error
    _newton raises.
    """
    n, dim = len(targets), ops.shape[-1]
    if frame is None:
        W, f_ops = np.eye(dim, dtype=complex), ops
    else:
        W, f_ops = frame, dag(frame) @ ops @ frame
    if W.shape[1] < dim:
        ends = None
    f_base = base
    iterations = 0
    searched = d is None
    while True:
        keep = list(range(n)) if ends is not None else prune_constraints(f_ops, targets, labels)
        kept_ops, kept_targets = f_ops[keep], targets[keep]
        face = _pinned_face(kept_ops, kept_targets, [labels[j] for j in keep], ends)
        ends = None
        if face is None:
            face, ln_z, lam_kept, sigma, w = _least_squares_state(f_ops, targets, kept_ops,
                                                                  kept_targets, f_base)
            if sigma is not None:
                break
            if face is None and lam_kept is None and not searched:
                searched = True
                face = _probe_face(ops, targets, W, d)
        if face is None:
            lam_kept, point, iterations = _newton(kept_ops, kept_targets, f_base, lam_kept)
            sigma, w = point.omega, point.p
            ln_z = point.value - float(lam_kept @ kept_targets)
            break
        W = W @ face
        f_ops, f_base = dag(face) @ f_ops @ face, dag(face) @ f_base @ face
    lam = np.zeros(n)
    lam[keep] = lam_kept
    return _CoreSolution(W @ sigma @ dag(W), w, lam, float(ln_z), iterations,
                         bool(W.shape[1] < dim or w[0] < _FACE_TOL))


def _package(obs, core):
    """The estimate of a core solution that meets every constraint, the
    trace-preservation ones among them, to 10 _GRAD_TOL, and whose marginal
    Tr_2 omega is I/d to CPTP_TOL, as ChoiState checks it; any other is a
    ConvergenceError."""
    sigma = 0.5 * (core.sigma + dag(core.sigma))
    residuals = np.abs(_flat(obs.operators) @ sigma.reshape(-1).view(float) - obs.targets)
    worst = residuals.max(initial=0.0)
    tp_dev = frobenius(partial_trace(sigma, (obs.d, obs.d), "second") - np.eye(obs.d) / obs.d)
    if worst > 10.0 * _GRAD_TOL or tp_dev > CPTP_TOL:
        raise ConvergenceError(
            f"converged solution violates constraints (max residual {worst:.3e}, "
            f"Tr_2 omega deviates from I/d by {tp_dev:.3e})"
        )
    return MaxEntSolution(
        choi=ChoiState(obs.d, sigma),
        multipliers=core.lam,
        labels=obs.labels,
        log_partition=core.log_partition,
        entropy_bits=spectrum_entropy(core.spectrum),
        residuals=residuals,
        iterations=core.iterations,
        boundary_flag=core.boundary,
    )


def solve_maxent(obs: ObservationLevel):
    """Maximum-process-entropy estimate for an observation level.

    Returns the exponential-family state omega = exp(-sum lam_j X_j)/Z
    meeting the measured means and the implicit trace-preservation
    constraints; among all such states it has maximal entropy.
    """
    base = np.zeros((obs.d ** 2, obs.d ** 2), dtype=complex)
    core = _solve_core(obs.operators, obs.targets, obs.labels, None, base,
                       d=obs.d, ends=obs.ends)
    return _package(obs, core)


def solve_biased(obs: ObservationLevel, prior: PriorChannel):
    """Minimize the Kullback relative entropy S(omega || omega_0) =
    Tr[omega (log omega - log omega_0)] subject to the constraints.

    The search is restricted to the support of the prior Choi state;
    constraints unreachable on that support raise InfeasibleError naming
    the violated constraint.  With omega_0 = I/d**2 the result coincides
    with solve_maxent.
    """
    if prior.choi.d != obs.d:
        raise InvariantError("prior channel dimension does not match observation")
    core = _solve_core(obs.operators, obs.targets, obs.labels, prior.frame,
                       prior.base, d=obs.d, ends=obs.ends)
    return _package(obs, core)


def boundary_resolve(obs: ObservationLevel):
    """Estimate an observation level whose targets sit on the boundary of
    the feasible set.

    This is solve_maxent, which already restricts the solve to the face
    the constraints pin the state to; a result that is not flagged as a
    boundary estimate raises BoundaryCaseError.
    """
    sol = solve_maxent(obs)
    if not sol.boundary_flag:
        raise BoundaryCaseError(
            "no boundary face: the maximum-entropy solution has full rank"
        )
    return sol


def solve_state_maxent(constraints, dim):
    """Plain state-space MaxEnt (no trace-preservation constraints).

    constraints is a list of Constraint objects on a dim-dimensional
    space.  Returns (rho, multipliers).
    """
    ops = np.array([c.operator for c in constraints]).reshape(-1, dim, dim)
    targets = np.array([c.target for c in constraints])
    labels = [c.label for c in constraints]
    core = _solve_core(ops, targets, labels, None, np.zeros((dim, dim), dtype=complex))
    return core.sigma, core.lam
