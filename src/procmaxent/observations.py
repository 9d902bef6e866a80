"""Observation levels: reduce process measurements (ancilla-free or
ancilla-assisted) to linear constraints on the Choi state; simulate
measurement records from a known channel.

The reduction theorem: probing a channel with test state rho and
measuring F is equivalent to measuring d rho^T (x) F on the Choi state;
the ancilla-assisted generalization routes the test state through the
map that prepares it from Psi+.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChoiState
from .errors import DependentConstraintsError, DimensionError, InvariantError
from .linalg import (
    check_density,
    check_hermitian,
    dag,
    expectation,
    hermitian_basis,
)

INDEPENDENCE_TOL = 1e-10


@dataclass(frozen=True)
class Constraint:
    """A linear constraint Tr(omega X) = target on the Choi state."""

    operator: np.ndarray
    target: float
    label: str = ""

    def __post_init__(self):
        op = check_hermitian(self.operator, name=f"constraint {self.label!r}")
        w = np.linalg.eigvalsh(op)
        if not (w[0] - 1e-9 <= self.target <= w[-1] + 1e-9):
            raise InvariantError(
                f"constraint {self.label!r}: target {self.target:.12g} outside "
                f"spectral range [{w[0]:.12g}, {w[-1]:.12g}]"
            )
        object.__setattr__(self, "operator", op)
        object.__setattr__(self, "target", float(self.target))


def tp_constraints(d):
    """The d**2-1 trace-preservation constraints <Lambda_k (x) I> = 0.

    Together with Tr omega = 1 these are equivalent to the marginal
    condition Tr_2 omega = I/d.
    """
    eye = np.eye(d)
    return [
        Constraint(np.kron(L, eye), 0.0, label=f"tp:{k}")
        for k, L in enumerate(hermitian_basis(d))
    ]


def span_report(ops, targets, tol=INDEPENDENCE_TOL):
    """Split operators, in order, into those independent of their
    predecessors and those in their span, which the identity
    (normalization Tr = 1) always starts.

    Returns (keep, dependent, implied): implied holds, for each dependent
    operator, the target that its predecessors' targets imply.  Each
    operator is projected twice onto the orthonormal basis built so far,
    classical Gram-Schmidt with one re-orthogonalisation ("twice is
    enough": Giraud, Langou and Rozloznik, Comput. Math. Appl. 50, 1069
    (2005)), and is dependent when the residual norm is at most
    tol * max(1, |X|).
    """
    ops = np.ascontiguousarray(ops, dtype=complex)
    keep, dependent, implied = [], [], []
    if len(ops) == 0:
        return keep, dependent, implied
    n, dim = len(ops), ops.shape[1]
    # For Hermitian A, B the Hilbert-Schmidt product Tr(AB) is real and
    # equals the dot product of the float views of vec(A) and vec(B).
    vecs = ops.reshape(n, -1).view(float)
    basis = np.empty((n + 1, vecs.shape[1]))
    basis[0] = np.eye(dim, dtype=complex).reshape(-1).view(float) / np.sqrt(dim)
    carried = np.empty(n + 1)  # the target each basis vector implies
    carried[0] = 1.0 / np.sqrt(dim)
    r = 1
    for j, v in enumerate(vecs):
        B = basis[:r]
        coef = B @ v
        resid = v - coef @ B
        again = B @ resid
        resid -= again @ B
        coef += again
        rnorm = np.linalg.norm(resid)
        if rnorm <= tol * max(1.0, np.linalg.norm(v)):
            dependent.append(j)
            implied.append(float(coef @ carried[:r]))
            continue
        keep.append(j)
        basis[r] = resid / rnorm
        carried[r] = (targets[j] - coef @ carried[:r]) / rnorm
        r += 1
    return keep, dependent, implied


@dataclass(frozen=True)
class ObservationLevel:
    """A set of linear constraints on a Choi state of system dimension d.

    include_tp (default on) appends the implicit trace-preservation
    constraints; the full set (user + TP + normalization) must be
    linearly independent.
    """

    d: int
    constraints: tuple
    include_tp: bool = True
    # built once: full_constraints(), its operators (stacked, read-only),
    # targets (read-only) and labels
    _full: tuple = field(init=False, repr=False, compare=False)
    operators: np.ndarray = field(init=False, repr=False, compare=False)
    targets: np.ndarray = field(init=False, repr=False, compare=False)
    labels: tuple = field(init=False, repr=False, compare=False)

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
        full = cons + (tuple(tp_constraints(self.d)) if self.include_tp else ())
        ops = np.array([c.operator for c in full], dtype=complex).reshape(-1, D, D)
        targets = np.array([c.target for c in full])
        ops.setflags(write=False)
        targets.setflags(write=False)
        for name, value in (("_full", full), ("operators", ops), ("targets", targets),
                            ("labels", tuple(c.label for c in full))):
            object.__setattr__(self, name, value)
        _, dep, _ = span_report(ops, targets)
        if dep:
            labels = [full[j].label for j in dep]
            raise DependentConstraintsError(
                f"linearly dependent constraints: {labels}", dependent_labels=labels
            )

    def full_constraints(self):
        """User constraints followed by the TP constraints (if enabled)."""
        return list(self._full)


@dataclass(frozen=True)
class ProcessMeasurementSpec:
    """One process measurement: how the channel was probed and what was
    measured.  kind is 'ancilla_free', 'ancilla_assisted' or 'raw'."""

    kind: str
    state: np.ndarray | None = None       # test state (dim d, or D*d if assisted)
    observable: np.ndarray | None = None  # measured Hermitian (same space as state)
    operator: np.ndarray | None = None    # raw constraint operator on d**2
    mean: float | None = None
    label: str = ""

    def reduce(self, d):
        """Constraint operator on the Choi state for system dimension d."""
        if self.kind == "raw":
            op = check_hermitian(self.operator, name=f"raw operator {self.label!r}")
            if op.shape != (d * d, d * d):
                raise DimensionError(
                    f"raw operator {self.label!r} has shape {op.shape}"
                )
            return op
        if self.kind == "ancilla_free":
            return reduce_ancilla_free(self.state, self.observable)
        if self.kind == "ancilla_assisted":
            return reduce_ancilla_assisted(self.state, self.observable, d)
        raise ValueError(f"unknown measurement kind {self.kind!r}")


def reduce_ancilla_free(rho, F):
    """Constraint operator d rho^T (x) F for an ancilla-free measurement."""
    rho = check_density(rho, name="test state")
    F = check_hermitian(F, name="observable")
    if rho.shape != F.shape:
        raise DimensionError(
            f"test state {rho.shape} and observable {F.shape} differ in dimension"
        )
    d = rho.shape[0]
    return d * np.kron(rho.T, F)


def reduce_ancilla_assisted(Omega, F, d, support_tol=1e-12):
    """Constraint operator on the Choi state for an ancilla-assisted
    measurement with test state Omega (on D*d) and observable F.

    Spectrally decompose Omega and route each eigenvector through the
    preparation map A_k that generates it from Psi+; the reduced operator
    X = sum_k (A_k (x) I)^dag F (A_k (x) I) satisfies
    Tr[X omega_E] = Tr[F (I (x) E)[Omega]] for every channel E.
    """
    Omega = check_density(Omega, name="test state")
    F = check_hermitian(F, name="observable")
    if Omega.shape != F.shape:
        raise DimensionError("test state and observable differ in dimension")
    Dd = Omega.shape[0]
    if Dd % d != 0:
        raise DimensionError(f"dimension {Dd} does not factor as D*{d}")
    D = Dd // d
    w, V = np.linalg.eigh(Omega)
    eye = np.eye(d)
    X = np.zeros((d * d, d * d), dtype=complex)
    for k in range(Dd):
        if w[k] <= support_tol:
            continue
        A = np.sqrt(d * w[k]) * V[:, k].reshape(D, d)  # A_Phi: C^d -> C^D
        lift = np.kron(A, eye)
        X += dag(lift) @ F @ lift
    return 0.5 * (X + dag(X))


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
    expectation; deterministic for a fixed seed (or Generator)."""
    if abs(mean) > 1.0:
        raise InvariantError(f"|mean| = {abs(mean):.12g} exceeds 1")
    if shots < 1:
        raise ValueError("shots must be a positive integer")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p_up = 0.5 * (1.0 + mean)
    ups = int(np.count_nonzero(rng.random(shots) < p_up))
    return (2.0 * ups - shots) / shots
