"""Observation levels: reduce process measurements (ancilla-free or
ancilla-assisted) to linear constraints on the Choi state; simulate
measurement records from a known channel.

The reduction theorem: probing a channel with test state rho and
measuring F is equivalent to measuring d rho^T (x) F on the Choi state;
the ancilla-assisted generalization routes the test state through the
map that prepares it from Psi+.  A ProcessMeasurementSpec validates its
test state and observable once, when it is built, so a record reduced
again (a design swept over many channels, a record estimated again)
pays only the formula.

The checks that depend on operators alone run once per distinct operator
and level in a process.  A bounded first-in-first-out memo of
MEMO_CAPACITY entries, keyed by 16-byte BLAKE2b digests, holds the
spectral ends of every operator that passed Constraint's checks (key:
the operator's shape and complex128 bytes) and the levels that
span_report found independent (key: d and the constraints' digests, in
order).  It stores digests and floats only, and records nothing that
failed, so every rejection is raised again on every build.  It helps
only designs built again in one process (a design swept over channels,
resampled, or estimated round after round); a CLI launch builds each
constraint once and gains nothing.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from .channels import ChoiState
from .errors import DependentConstraintsError, DimensionError, InvariantError
from .linalg import (
    DENSITY_EIG_TOL,
    check_density,
    check_hermitian,
    expectation,
    hermitian_basis,
    kron,
    real_coordinates,
)

# Relative distance from the span of its predecessors at or below which
# an operator is dependent on them.
INDEPENDENCE_TOL = 1e-9
# Relative distance from a product A (x) B, and between two input factors,
# at or below which an operator is a product and two factors are equal.
PRODUCT_TOL = 1e-9
# Entries of the memo of checked operators and levels; past it the
# oldest entry is dropped first.
MEMO_CAPACITY = 4096

# digest -> spectral ends (an operator) or None (an independent level)
_memo = {}
_memo_lock = threading.Lock()


def _digest(head, *parts):
    """16-byte BLAKE2b digest of a text head followed by byte buffers."""
    h = hashlib.blake2b(head.encode(), digest_size=16)
    for part in parts:
        h.update(part)
    return h.digest()


def _remember(key, value):
    """Record a check that passed, dropping the oldest entries past
    MEMO_CAPACITY; lookups need no lock, since only this iterates _memo."""
    with _memo_lock:
        _memo[key] = value
        while len(_memo) > MEMO_CAPACITY:
            del _memo[next(iter(_memo))]


@dataclass(frozen=True, eq=False)
class Constraint:
    """A linear constraint Tr(omega X) = target on the Choi state; ends
    holds the least and the largest eigenvalue of X.

    The constraint keeps a read-only complex copy of X and its digest;
    X's hermiticity check and spectrum are taken once per distinct X in a
    process, the target's range check on every construction."""

    operator: np.ndarray
    target: float
    label: str = ""
    ends: tuple = field(init=False, repr=False)
    digest: bytes = field(init=False, repr=False)

    def __post_init__(self):
        op = np.array(self.operator, dtype=complex, order="C")
        op.setflags(write=False)
        key = _digest(f"operator {op.shape} ", op)
        ends = _memo.get(key)
        if ends is None:
            check_hermitian(op, name=f"constraint {self.label!r}")
            w = np.linalg.eigvalsh(op)
            ends = (float(w[0]), float(w[-1]))
            _remember(key, ends)
        target = self.target
        if isinstance(target, (complex, np.complexfloating)):
            # a mean of a Hermitian operator is real to round-off, as
            # linalg.expectation checks it
            if abs(target.imag) > 1e-10:
                raise InvariantError(
                    f"constraint {self.label!r}: target has imaginary part {target.imag:.3e}"
                )
            target = target.real
        target = float(target)
        if not (ends[0] - 1e-9 <= target <= ends[1] + 1e-9):
            raise InvariantError(
                f"constraint {self.label!r}: target {target:.12g} outside "
                f"spectral range [{ends[0]:.12g}, {ends[1]:.12g}]"
            )
        object.__setattr__(self, "operator", op)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "digest", key)


@functools.lru_cache(maxsize=None)
def _tp_block(d):
    """The TP constraints of dimension d, built and validated once."""
    eye = np.eye(d)
    return tuple(
        Constraint(kron(L, eye), 0.0, label=f"tp:{k}")
        for k, L in enumerate(hermitian_basis(d))
    )


def tp_constraints(d):
    """The d**2-1 trace-preservation constraints <Lambda_k (x) I> = 0.

    Together with Tr omega = 1 these are equivalent to the marginal
    condition Tr_2 omega = I/d.  The constraints (read-only operators)
    are shared by every caller; the list is fresh.
    """
    return list(_tp_block(d))


def span_report(ops, targets):
    """Split operators, in order, into those independent of their
    predecessors and those in their span, which the identity
    (normalization Tr = 1) always starts.

    Returns (keep, dependent, implied): implied holds, for each dependent
    operator, the target that its predecessors' targets imply.  The
    operators must be Hermitian.

    One Householder QR factorization A = QR of the columns [I/sqrt(D), X_1,
    ..., X_n], in the real coordinates Re X + Im X, in which the dot
    product is the Hilbert-Schmidt product (linalg.real_coordinates), gives
    |R_jj|, the distance of column j from the span of the columns before it
    (Golub and Van Loan, Matrix Computations, sec. 5.2); X_j is dependent
    when that distance is at most INDEPENDENCE_TOL * max(1, |X_j|).
    Columns past the row count of R (more operators than D**2) have
    distance 0.  At the first dependent column p, R[:p, :p]^T c =
    (1/sqrt(D), targets kept so far) gives the implied target
    R[:p, p] . c.  The columns after p whose distance from the span of the
    columns before p, the norm of R[p:, j], is within tolerance are
    dependent as well, up to the first that is not; the factorization is
    then repeated on the kept columns followed by the rest, so that no
    dependent column enters the basis.  With no dependent column the
    report costs one factorization.
    """
    keep, dependent, implied = [], [], []
    if len(ops) == 0:
        return keep, dependent, implied
    n, dim = len(ops), np.shape(ops)[1]
    targets = np.asarray(targets, dtype=float)
    cols = real_coordinates(np.concatenate((np.eye(dim)[None] / np.sqrt(dim), ops)))
    thresh = INDEPENDENCE_TOL * np.maximum(1.0, np.linalg.norm(cols[1:], axis=1))
    rest = np.arange(n)
    while len(rest):
        order = np.concatenate(([0], np.asarray(keep, dtype=int) + 1, rest + 1))
        R = np.linalg.qr(cols[order].T, mode="r")
        dist = np.zeros(len(order))
        dist[:len(R)] = np.abs(np.diagonal(R))
        r = 1 + len(keep)
        hits = np.flatnonzero(dist[r:] <= thresh[rest])
        if not len(hits):
            keep.extend(rest.tolist())
            break
        # rest[h] is the first dependent column; so is each of the k - 1
        # after it within tolerance of the span of the columns before it,
        # which for them is the span of their kept predecessors.
        h = hits[0]
        keep.extend(rest[:h].tolist())
        p = r + h
        within = np.linalg.norm(R[p:, p:], axis=0) <= thresh[rest[h:]]
        k = len(within) if within.all() else int(np.argmin(within))
        carried = np.concatenate(([1.0 / np.sqrt(dim)], targets[keep]))
        c = np.linalg.solve(R[:p, :p].T, carried)
        dependent.extend(rest[h:h + k].tolist())
        implied.extend((c @ R[:p, p:p + k]).tolist())
        rest = rest[h + k:]
    return keep, dependent, implied


def probe_groups(ops, d):
    """The operators of the form A (x) B with A a state on the input
    (positive, unit trace), grouped by equal A: a list of (A, index, B)
    with index the positions of the group's operators in ops and B their
    output factors, stacked.  For every Choi state omega, Tr(omega (A (x)
    B)) = Tr(sigma B)/d with sigma = d Tr_1[omega (A (x) I)], the image of
    the probe A, positive and of unit trace when omega is.

    X = A (x) B exactly when its realignment T[(a b), (i j)] = X[(i a),
    (j b)] = B_ab A_ij has rank one (Van Loan and Pitsianis, in Linear
    Algebra for Large Scale and Real-Time Applications (1993)).  The row
    a of T of largest norm is then proportional to vec A, and T is the
    outer product of the coefficients c = T conj(a)/|a|^2 with a.  An
    operator is a product when the rest T - c a^T is within PRODUCT_TOL
    of the norm of T; scaled to unit trace, a is A and c is vec B.
    """
    n, D = len(ops), d * d
    T = np.asarray(ops).reshape(n, d, d, d, d).transpose(0, 2, 4, 1, 3).reshape(n, D, D)
    F = T.view(float)
    square = np.einsum("nik,nik->ni", F, F)
    top = square.argmax(axis=1)
    a = T[np.arange(n), top]
    peak = np.maximum(square[np.arange(n), top], np.finfo(float).tiny)
    c = np.matmul(T, a.conj()[:, :, None]) / peak[:, None, None]
    T -= c * a[:, None, :]     # T is a copy of the operators
    rest = np.einsum("nk,nk->n", F.reshape(n, -1), F.reshape(n, -1))
    trace = a[:, ::d + 1].sum(axis=1)
    index = np.flatnonzero((np.abs(trace) ** 2 > PRODUCT_TOL ** 2 * peak)
                           & (rest <= PRODUCT_TOL ** 2 * square.sum(axis=1)))
    A = (a[index] / trace[index, None]).reshape(-1, d, d)
    B = (c[index, :, 0] * trace[index, None]).reshape(-1, d, d)
    flat = A.reshape(len(index), D).view(float)
    groups, left = [], np.arange(len(index))
    while len(left):
        first = flat[left[0]]
        same = np.abs(flat[left] - first).max(axis=1) <= PRODUCT_TOL * np.abs(first).max()
        groups.append(left[same])
        left = left[~same]
    if not groups:
        return groups
    A = A[[g[0] for g in groups]]
    A = 0.5 * (A + A.conj().transpose(0, 2, 1))
    B = 0.5 * (B + B.conj().transpose(0, 2, 1))
    least = np.linalg.eigvalsh(A)[:, 0]
    return [(A[k], index[g], B[g]) for k, g in enumerate(groups)
            if least[k] >= -DENSITY_EIG_TOL]


@dataclass(frozen=True, eq=False)
class ObservationLevel:
    """A set of linear constraints on a Choi state of system dimension d.

    The trace-preservation constraints are always appended; the full set
    (user + TP + normalization) must be linearly independent, which is
    checked once per distinct d and sequence of operators in a process.
    """

    d: int
    constraints: tuple
    # built once: the operators of full_constraints() (stacked,
    # read-only), their targets and spectral ends (read-only) and labels
    operators: np.ndarray = field(init=False, repr=False)
    targets: np.ndarray = field(init=False, repr=False)
    ends: np.ndarray = field(init=False, repr=False)
    labels: tuple = field(init=False, repr=False)

    def __post_init__(self):
        cons = tuple(self.constraints)
        D = self.d ** 2
        for c in cons:
            if c.operator.shape != (D, D):
                raise DimensionError(
                    f"constraint {c.label!r} has shape {c.operator.shape}, "
                    f"expected ({D}, {D})"
                )
        object.__setattr__(self, "constraints", cons)
        full = cons + _tp_block(self.d)
        ops = np.array([c.operator for c in full])
        targets = np.array([c.target for c in full])
        ends = np.array([c.ends for c in full]).reshape(-1, 2)
        for name, value in (("operators", ops), ("targets", targets), ("ends", ends)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "labels", tuple(c.label for c in full))
        # which operators are dependent does not depend on the targets
        key = _digest(f"level {self.d} ", *(c.digest for c in cons))
        if key in _memo:
            return
        _, dep, _ = span_report(ops, targets)
        if dep:
            labels = [full[j].label for j in dep]
            raise DependentConstraintsError(
                f"linearly dependent constraints: {labels}", dependent_labels=labels
            )
        _remember(key, None)

    def full_constraints(self):
        """User constraints followed by the TP constraints."""
        return [*self.constraints, *_tp_block(self.d)]


@dataclass(frozen=True, eq=False)
class ProcessMeasurementSpec:
    """One process measurement: how the channel was probed and what was
    measured.  kind is 'ancilla_free', 'ancilla_assisted' or 'raw'.

    A spec is checked once, when it is built: the test state must be a
    density matrix and the observable Hermitian, of the state's shape; a
    raw operator must be Hermitian.  The spec keeps read-only complex
    copies of its arrays, so reduce() only applies the formula.
    """

    kind: str
    state: np.ndarray | None = None       # test state (dim d, or D*d if assisted)
    observable: np.ndarray | None = None  # measured Hermitian (same space as state)
    operator: np.ndarray | None = None    # raw constraint operator on d**2
    mean: float | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind == "raw":
            arrays = {"operator": check_hermitian(
                self.operator, name=f"raw operator {self.label!r}")}
        elif self.kind in ("ancilla_free", "ancilla_assisted"):
            state, observable = _checked_pair(self.state, self.observable)
            arrays = {"state": state, "observable": observable}
        else:
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        for name, value in arrays.items():
            value = np.array(value)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def reduce(self, d):
        """Constraint operator on the Choi state for system dimension d.
        A raw operator must be d**2 x d**2, an ancilla-free test state d x
        d, and an assisted one D*d x D*d (DimensionError)."""
        if self.kind == "raw":
            if self.operator.shape != (d * d, d * d):
                raise DimensionError(
                    f"raw operator {self.label!r} has shape {self.operator.shape}"
                )
            return self.operator
        if self.kind == "ancilla_free" and self.state.shape != (d, d):
            raise DimensionError(
                f"ancilla-free test state {self.label!r} has shape "
                f"{self.state.shape}, expected {(d, d)}"
            )
        return _reduce(self.state, self.observable, d)


def reduce_ancilla_free(rho, F):
    """Constraint operator d rho^T (x) F for an ancilla-free measurement:
    the ancilla-assisted one with a one-dimensional ancilla."""
    rho, F = _checked_pair(rho, F)
    return _reduce(rho, F, rho.shape[0])


def reduce_ancilla_assisted(Omega, F, d):
    """Constraint operator on the Choi state for an ancilla-assisted
    measurement with test state Omega (on D*d) and observable F.

    Any decomposition Omega = sum_k (A_k (x) I) Psi+ (A_k (x) I)^dag, with
    preparation maps A_k: C^d -> C^D, gives Tr[F (I (x) E)[Omega]] =
    Tr[X omega_E] for every channel E, where X = sum_k (A_k (x) I)^dag F
    (A_k (x) I).  The sum depends on Omega alone; with ancilla indices a,
    b, system indices j, k and output indices x, y it reads

        X[(k y), (j x)] = d sum_ab Omega[(a j), (b k)] F[(b y), (a x)].
    """
    return _reduce(*_checked_pair(Omega, F), d)


def _checked_pair(Omega, F):
    """The test state and the observable of a measurement, validated, as
    complex arrays."""
    Omega = check_density(Omega, name="test state")
    F = check_hermitian(F, name="observable")
    if Omega.shape != F.shape:
        raise DimensionError(
            f"test state {Omega.shape} and observable {F.shape} differ in dimension"
        )
    return Omega, F


def _reduce(Omega, F, d):
    """reduce_ancilla_assisted for a validated test state and observable."""
    Dd = Omega.shape[0]
    if Dd % d != 0:
        raise DimensionError(f"dimension {Dd} does not factor as D*{d}")
    D = Dd // d
    return d * np.einsum("ajbk,byax->kyjx", Omega.reshape(D, d, D, d),
                         F.reshape(D, d, D, d)).reshape(d * d, d * d)


def simulate_means(choi, specs):
    """Fill each spec's mean with the exact value Tr[X omega] and return
    the resulting observation level."""
    if not isinstance(choi, ChoiState):
        raise TypeError("simulate_means expects a ChoiState")
    cons = []
    for j, spec in enumerate(specs):
        X = spec.reduce(choi.d)
        mean = expectation(choi.matrix, X)
        label = spec.label or f"measurement:{j}"
        cons.append(Constraint(X, mean, label=label))
    return ObservationLevel(d=choi.d, constraints=tuple(cons))


def sample_shots(mean, shots, seed):
    """Empirical mean of `shots` +/-1 Bernoulli draws with the given
    expectation, from one binomial count of the +1 outcomes, so memory does
    not grow with shots; deterministic for a fixed seed (or Generator)."""
    if not -1.0 <= mean <= 1.0:
        raise InvariantError(f"mean {mean:.12g} lies outside [-1, 1]")
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    ups = int(rng.binomial(shots, 0.5 * (1.0 + mean)))
    return (2.0 * ups - shots) / shots
