import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procmaxent import (
    Constraint,
    DependentConstraintsError,
    DimensionError,
    InvariantError,
    ObservationLevel,
    ProcessMeasurementSpec,
    apply_from_choi,
    expectation,
    maximally_entangled_state,
    random_channel,
    reduce_ancilla_assisted,
    reduce_ancilla_free,
    sample_shots,
    simulate_means,
    span_report,
    tp_constraints,
)
from procmaxent import PriorChannel, observations, oracle_O1_mixed, solve_maxent
from procmaxent.channels import ChoiState, QubitAffineMap
from procmaxent.observations import probe_groups
from procmaxent.linalg import ID2, PAULI_X, PAULI_Z, dag, hermitian_basis, partial_trace

from conftest import probe_tomography, random_hermitian, random_state


class TestConstraint:
    def test_stores_and_labels(self):
        c = Constraint(np.kron(ID2, PAULI_Z), 0.25, label="m")
        assert c.target == 0.25 and c.label == "m"

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantError):
            Constraint(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)

    def test_rejects_target_outside_spectral_range(self):
        with pytest.raises(InvariantError):
            Constraint(np.kron(ID2, PAULI_Z), 1.5, label="m")

    def test_accepts_spectral_extreme(self):
        Constraint(np.kron(ID2, PAULI_Z), 1.0, label="m")

    def test_keeps_its_own_operator(self):
        X = np.kron(ID2, PAULI_Z).astype(complex)
        c = Constraint(X, 0.9, label="m")
        obs = ObservationLevel(d=2, constraints=(c,))
        X *= 0.5
        assert c.operator is not X and not c.operator.flags.writeable
        assert np.array_equal(c.operator, np.kron(ID2, PAULI_Z))
        assert np.array_equal(obs.operators[0], np.kron(ID2, PAULI_Z))
        assert np.array_equal(ObservationLevel(d=2, constraints=(c,)).operators, obs.operators)
        # the mutated array gets its own range check
        with pytest.raises(InvariantError, match=r"outside spectral range \[-0\.5, 0\.5\]$"):
            Constraint(X, 0.9, label="m")


def _level():
    return ObservationLevel(d=2, constraints=(Constraint(np.kron(ID2, PAULI_Z), 0.5, "z"),))


@pytest.mark.parametrize("make", [
    lambda: Constraint(np.kron(ID2, PAULI_Z), 0.5, "z"),
    _level,
    lambda: ProcessMeasurementSpec("ancilla_free", state=0.5 * ID2, observable=PAULI_Z),
    lambda: ChoiState(2, np.eye(4) / 4),
    lambda: QubitAffineMap(np.zeros((3, 3)), np.zeros(3)),
    lambda: PriorChannel(ChoiState(2, np.eye(4) / 4)),
    lambda: solve_maxent(_level()),
    lambda: oracle_O1_mixed(0.5),
], ids=["Constraint", "ObservationLevel", "ProcessMeasurementSpec", "ChoiState",
        "QubitAffineMap", "PriorChannel", "MaxEntSolution", "OracleResult"])
def test_array_holders_compare_by_identity(make):
    # a generated __eq__ would compare the arrays and raise; these
    # classes compare and hash as distinct objects instead
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


_NAN_Z = np.kron(ID2, PAULI_Z).astype(complex)
_NAN_Z[0, 0] = np.nan


class TestMemo:
    """Constraint's spectral check and ObservationLevel's independence
    check run once per distinct operator and level in a process."""

    def test_equal_bytes_take_no_eigvalsh(self, empty_memo, monkeypatch):
        calls = _counting(monkeypatch, np.linalg, "eigvalsh")
        X = np.kron(ID2, PAULI_Z)
        a = Constraint(X, 0.5, label="a")
        assert len(calls) == 1
        b = Constraint(X.copy(), -0.25, label="b")
        assert len(calls) == 1
        assert b.ends == a.ends == (-1.0, 1.0) and b.digest == a.digest
        c = Constraint(np.kron(ID2, PAULI_X), 0.5)
        assert len(calls) == 2 and c.digest != a.digest
        assert empty_memo[a.digest] == (-1.0, 1.0)

    def test_design_swept_over_channels(self, empty_memo, monkeypatch, rng):
        specs = probe_tomography(2, 3, rng)
        first = simulate_means(random_channel(2, 2, rng), specs)
        other = random_channel(2, 4, rng)
        eigvalsh = _counting(monkeypatch, np.linalg, "eigvalsh")
        qr = _counting(monkeypatch, np.linalg, "qr")
        second = simulate_means(other, specs)
        assert not eigvalsh and not qr
        assert np.array_equal(second.operators, first.operators)
        assert np.array_equal(second.ends, first.ends)
        assert not np.array_equal(second.targets, first.targets)

    @pytest.mark.parametrize("operator, target, message", [
        pytest.param(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0,
                     r"^constraint 'm' is not Hermitian \(deviation 1\.414e\+00\)$",
                     id="non-hermitian"),
        pytest.param(_NAN_Z, 0.3, r"^constraint 'm' has non-finite entries$", id="non-finite"),
        pytest.param(np.kron(ID2, PAULI_Z), 1.5,
                     r"^constraint 'm': target 1\.5 outside spectral range \[-1, 1\]$",
                     id="out-of-range"),
    ])
    def test_rejections_repeat(self, empty_memo, operator, target, message):
        Constraint(np.kron(ID2, PAULI_Z), 0.5)
        recorded = dict(empty_memo)
        for _ in range(3):
            with pytest.raises(InvariantError, match=message):
                Constraint(operator.copy(), target, label="m")
        assert empty_memo == recorded

    def test_dependent_level_raises_on_every_build(self, empty_memo):
        a = Constraint(np.kron(ID2, PAULI_Z), 0.5, label="a")
        b = Constraint(np.kron(PAULI_X, PAULI_X), 0.1, label="b")
        dup = Constraint(np.kron(ID2, PAULI_Z), 0.5, label="dup")
        ObservationLevel(d=2, constraints=(a, b))
        ObservationLevel(d=2, constraints=(a, b))
        for _ in range(3):
            with pytest.raises(DependentConstraintsError) as exc:
                ObservationLevel(d=2, constraints=(a, b, dup))
            assert exc.value.dependent_labels == ("dup",)
        with pytest.raises(DependentConstraintsError, match=r"\['tp:0'\]"):
            ObservationLevel(d=2, constraints=(a, Constraint(np.kron(PAULI_X, ID2), 0.0)))

    def test_bounded_first_in_first_out(self, empty_memo, monkeypatch):
        monkeypatch.setattr(observations, "MEMO_CAPACITY", 4)
        calls = _counting(monkeypatch, np.linalg, "eigvalsh")
        cons = []
        for k in range(10):
            cons.append(Constraint(np.kron(ID2, (k + 1) * PAULI_Z), 0.0))
            ObservationLevel(d=2, constraints=(cons[-1],))
            assert len(empty_memo) <= 4
        assert cons[-1].digest in empty_memo and cons[0].digest not in empty_memo
        Constraint(np.kron(ID2, PAULI_Z), 0.0)
        assert len(calls) == 11 and len(empty_memo) == 4

    def test_threads(self, empty_memo, monkeypatch):
        # more threads than the cores of a CI runner, switching often, on a
        # memo small enough that they evict each other's entries
        monkeypatch.setattr(observations, "MEMO_CAPACITY", 8)
        errors = []

        def build(k):
            try:
                for j in range(60):
                    scale = 1 + (j + k) % 12
                    c = Constraint(np.kron(ID2, scale * PAULI_Z), 0.0)
                    assert c.ends == (-scale, scale)
                    ObservationLevel(d=2, constraints=(c,))
            except Exception as exc:    # reported by the main thread
                errors.append(exc)
        threads = [threading.Thread(target=build, args=(k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(empty_memo) <= 8


class TestTpConstraints:
    def test_count_and_targets(self):
        cons = tp_constraints(2)
        assert len(cons) == 3
        assert all(c.target == 0.0 for c in cons)

    def test_satisfied_by_any_channel(self, rng):
        choi = random_channel(2, 3, rng)
        for c in tp_constraints(2):
            assert abs(expectation(choi.matrix, c.operator)) < 1e-10

    def test_equivalent_to_marginal_condition(self, rng):
        # a bipartite state meets all TP constraints iff Tr_2 omega = I/d
        rho = random_state(4, rng)
        devs = [abs(expectation(rho, c.operator)) for c in tp_constraints(2)]
        marg = partial_trace(rho, (2, 2), "second")
        marg_dev = np.linalg.norm(marg - np.eye(2) / 2)
        if marg_dev > 1e-8:
            assert max(devs) > 1e-9


class TestTpBlock:
    """The TP constraints are built once per dimension and shared."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_operators(self, d):
        cons = tp_constraints(d)
        assert isinstance(cons, list)
        for c, L in zip(cons, hermitian_basis(d), strict=True):
            assert np.array_equal(c.operator, np.kron(L, np.eye(d)))

    def test_read_only(self):
        op = tp_constraints(2)[0].operator
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
        assert not ObservationLevel(d=2, constraints=()).operators.flags.writeable

    def test_shared_between_levels(self):
        c = Constraint(np.kron(ID2, PAULI_Z), 0.5, label="m")
        a = ObservationLevel(d=2, constraints=(c,)).full_constraints()[1:]
        b = ObservationLevel(d=2, constraints=()).full_constraints()
        assert all(x is y for x, y in zip(a, b, strict=True))
        fresh = tp_constraints(2)
        assert fresh is not tp_constraints(2)
        assert all(x is y for x, y in zip(fresh, b, strict=True))


class TestObservationLevel:
    def test_empty_is_valid(self):
        obs = ObservationLevel(d=2, constraints=())
        assert len(obs.full_constraints()) == 3  # TP only

    def test_full_constraints_order(self):
        c = Constraint(np.kron(ID2, PAULI_Z), 0.5, label="m")
        obs = ObservationLevel(d=2, constraints=(c,))
        full = obs.full_constraints()
        assert full[0].label == "m"
        assert [f.label for f in full[1:]] == ["tp:0", "tp:1", "tp:2"]

    def test_duplicate_constraint_raises(self):
        c = Constraint(np.kron(ID2, PAULI_Z), 0.5, label="m")
        c2 = Constraint(np.kron(ID2, PAULI_Z), 0.5, label="m2")
        with pytest.raises(DependentConstraintsError) as exc:
            ObservationLevel(d=2, constraints=(c, c2))
        assert "m2" in exc.value.dependent_labels

    def test_constraint_dependent_on_tp_raises(self):
        # sigma_z (x) I is itself a TP constraint
        c = Constraint(np.kron(PAULI_Z, ID2), 0.0, label="redundant")
        with pytest.raises(DependentConstraintsError):
            ObservationLevel(d=2, constraints=(c,))

    def test_identity_constraint_is_dependent(self):
        c = Constraint(np.eye(4), 1.0, label="norm")
        with pytest.raises(DependentConstraintsError):
            ObservationLevel(d=2, constraints=(c,))

    def test_spectral_ends(self, rng):
        Xs = [np.kron(random_state(2, rng), random_hermitian(2, rng)) for _ in range(3)]
        cons = tuple(Constraint(X, np.trace(X).real / 4, label=f"c{j}") for j, X in enumerate(Xs))
        obs = ObservationLevel(d=2, constraints=cons)
        w = np.linalg.eigvalsh(obs.operators)
        assert np.allclose(obs.ends, w[:, [0, -1]], rtol=0, atol=1e-12)
        assert cons[0].ends == tuple(obs.ends[0])
        with pytest.raises(ValueError):
            obs.ends[0, 0] = 0.0

    def test_wrong_operator_dimension(self):
        c = Constraint(PAULI_Z, 0.0, label="small")
        with pytest.raises(DimensionError):
            ObservationLevel(d=2, constraints=(c,))


class TestProbeGroups:
    def test_groups_ancilla_free_operators_by_probe(self, rng):
        # two probes with three observables each, one entangled assisted
        # measurement (no product) and the TP operators (traceless input)
        d = 2
        rhos = [random_state(d, rng) for _ in range(2)]
        Fs = [random_hermitian(d, rng) for _ in range(3)]
        ops = [reduce_ancilla_free(rho, F) for rho in rhos for F in Fs]
        ops.append(reduce_ancilla_assisted(maximally_entangled_state(d),
                                           random_hermitian(d * d, rng), d))
        ops += [c.operator for c in tp_constraints(d)]
        groups = probe_groups(np.array(ops), d)
        assert [g[1].tolist() for g in groups] == [[0, 1, 2], [3, 4, 5]]
        for (A, index, B), rho in zip(groups, rhos):
            assert np.abs(A - rho.T).max() < 1e-12
            for j, Bj in zip(index, B):
                assert np.abs(np.kron(A, Bj) - ops[j]).max() < 1e-12

    def test_no_products(self, rng):
        # the TP operators have a traceless input factor; an entangled
        # assisted measurement is no product
        d = 2
        ops = [c.operator for c in tp_constraints(d)]
        ops.append(reduce_ancilla_assisted(maximally_entangled_state(d),
                                           random_hermitian(d * d, rng), d))
        assert probe_groups(np.array(ops), d) == []

    def test_input_factor_must_be_positive(self):
        # diag(2, -1) has unit trace but is no state
        X = np.kron(np.diag([2.0, -1.0]), PAULI_Z)
        assert probe_groups(np.array([X]), 2) == []


class TestSpanReport:
    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
           planted=st.lists(st.booleans(), min_size=1, max_size=10))
    def test_flags_planted_combinations(self, d, seed, planted):
        # operator j is, where planted[j], a random real combination of
        # the identity and operators 0..j-1; every other one is random
        rng = np.random.default_rng(seed)
        D = d * d
        omega = random_hermitian(D, rng)
        omega += (1.0 - np.trace(omega).real) / D * np.eye(D)  # Tr omega = 1
        ops = []
        for j, is_planted in enumerate(planted):
            if is_planted:
                coef = rng.uniform(-2.0, 2.0, j + 1)
                ops.append(coef[0] * np.eye(D) + sum(c * X for c, X in zip(coef[1:], ops)))
            else:
                ops.append(random_hermitian(D, rng))
        targets = [np.trace(omega @ X).real for X in ops]
        keep, dependent, implied = span_report(ops, targets)
        assert dependent == [j for j, p in enumerate(planted) if p]
        assert keep == [j for j, p in enumerate(planted) if not p]
        for j, x in zip(dependent, implied):
            assert abs(x - targets[j]) <= 1e-9 * max(1.0, abs(targets[j]))
        vecs = np.array([np.eye(D).reshape(-1)] + [X.reshape(-1) for X in ops])
        for k in range(1, len(ops) + 1):
            kept = sum(j < k for j in keep)
            assert kept == np.linalg.matrix_rank(vecs[:k + 1]) - 1

    @settings(max_examples=60, deadline=None)
    @given(D=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_more_operators_than_dimensions(self, D, seed, data):
        # face-sized frames: more operators than D**2, so the span fills
        # and every later operator is dependent
        n = data.draw(st.integers(D * D + 1, 3 * D * D + 2), label="n")
        planted = data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                            label="planted")
        rng = np.random.default_rng(seed)
        omega = random_hermitian(D, rng)
        omega += (1.0 - np.trace(omega).real) / D * np.eye(D)  # Tr omega = 1
        ops = []
        for j, is_planted in enumerate(planted):
            if is_planted:
                coef = rng.uniform(-2.0, 2.0, j + 1)
                ops.append(coef[0] * np.eye(D) + sum(c * X for c, X in zip(coef[1:], ops)))
            else:
                ops.append(random_hermitian(D, rng))
        targets = [np.trace(omega @ X).real for X in ops]
        keep, dependent, implied = span_report(ops, targets)
        vecs = np.array([np.eye(D).reshape(-1)] + [X.reshape(-1) for X in ops])
        ranks = [np.linalg.matrix_rank(vecs[:k + 1]) for k in range(len(ops) + 1)]
        grows = [j for j in range(len(ops)) if ranks[j + 1] > ranks[j]]
        assert keep == grows
        assert dependent == [j for j in range(len(ops)) if j not in grows]
        assert len(keep) <= D * D - 1
        for j, x in zip(dependent, implied, strict=True):
            assert abs(x - targets[j]) <= 1e-9 * max(1.0, abs(targets[j]))


class TestReduceAncillaFree:
    def test_formula(self):
        rho = 0.5 * (ID2 + 0.3 * PAULI_X)
        X = reduce_ancilla_free(rho, PAULI_Z)
        assert np.allclose(X, 2.0 * np.kron(rho.T, PAULI_Z), atol=1e-14)

    def test_reduction_theorem(self, rng):
        # Tr[X omega] equals the direct expectation Tr[F E[rho]]
        for _ in range(10):
            choi = random_channel(2, 2, rng)
            rho = random_state(2, rng)
            F = random_hermitian(2, rng)
            X = reduce_ancilla_free(rho, F)
            direct = np.trace(F @ apply_from_choi(choi, rho)).real
            assert abs(expectation(choi.matrix, X) - direct) < 1e-11

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            reduce_ancilla_free(random_state(2, rng), np.eye(3))


class TestReduceAncillaAssisted:
    def test_psi_plus_reduces_to_bare_observable(self, rng):
        # probing with Psi+ itself: X = F in the same factor order
        F = random_hermitian(4, rng)
        X = reduce_ancilla_assisted(maximally_entangled_state(2), F, 2)
        assert np.allclose(X, F, atol=1e-10)

    def test_product_state_matches_ancilla_free(self, rng):
        # an uncorrelated ancilla with a system-only observable reduces to
        # the ancilla-free operator
        rho = random_state(2, rng)
        tau = random_state(2, rng)
        F = random_hermitian(2, rng)
        X_assisted = reduce_ancilla_assisted(np.kron(tau, rho), np.kron(np.eye(2), F), 2)
        X_free = reduce_ancilla_free(rho, F)
        assert np.allclose(X_assisted, X_free, atol=1e-10)

    def test_reduction_theorem(self, rng):
        from procmaxent.channels import _apply_linear

        # (d, D, rank of Omega); None is full rank.  A rank-deficient
        # Omega has eigenvectors of zero weight, which the closed form
        # must not need to skip.
        cases = [(2, 1, None), (2, 2, None), (2, 3, None), (3, 1, None),
                 (3, 2, None), (2, 2, 1), (3, 2, 1), (3, 1, 1)]
        for d, D, rank in cases:
            choi = random_channel(d, 2, rng)
            if rank is None:
                Omega = random_state(d * D, rng)
            else:
                G = rng.standard_normal((d * D, rank)) + 1j * rng.standard_normal(
                    (d * D, rank))
                Omega = G @ dag(G) / np.vdot(G, G).real
            F = random_hermitian(d * D, rng)
            X = reduce_ancilla_assisted(Omega, F, d)
            # direct: act with I_D (x) E on Omega, then measure F
            out = np.zeros((d * D, d * D), dtype=complex)
            for j in range(D):
                for k in range(D):
                    block = Omega[j * d:(j + 1) * d, k * d:(k + 1) * d]
                    # extend E linearly over non-density blocks
                    out[j * d:(j + 1) * d, k * d:(k + 1) * d] = _apply_linear(
                        choi.matrix, d, block
                    )
            direct = np.trace(F @ out).real
            assert abs(expectation(choi.matrix, X) - direct) < 1e-10

    def test_bad_factorization(self, rng):
        with pytest.raises(DimensionError):
            reduce_ancilla_assisted(random_state(3, rng), np.eye(3), 2)


_NOT_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]])


class TestProcessMeasurementSpec:
    """A spec is checked when it is built, with the errors reduce() raised
    when it checked its inputs on every call."""

    @pytest.mark.parametrize("kwargs, error, message", [
        pytest.param(dict(kind="ancilla_free", state=np.diag([1.5, -0.5]), observable=PAULI_Z),
                     InvariantError, r"^test state has negative eigenvalue -5\.000e-01$",
                     id="negative-state"),
        pytest.param(dict(kind="ancilla_assisted", state=np.ones(4) / 4, observable=PAULI_Z),
                     DimensionError, r"^test state must be a square matrix, got shape \(4,\)$",
                     id="vector-state"),
        pytest.param(dict(kind="ancilla_free", state=0.5 * ID2, observable=_NOT_HERMITIAN),
                     InvariantError, r"^observable is not Hermitian \(deviation 1\.414e\+00\)$",
                     id="non-hermitian-observable"),
        pytest.param(dict(kind="ancilla_assisted", state=0.5 * ID2, observable=np.eye(4)),
                     DimensionError,
                     r"^test state \(2, 2\) and observable \(4, 4\) differ in dimension$",
                     id="unequal-shapes"),
        pytest.param(dict(kind="raw", operator=_NOT_HERMITIAN, label="r"), InvariantError,
                     r"^raw operator 'r' is not Hermitian \(deviation 1\.414e\+00\)$",
                     id="non-hermitian-raw"),
        pytest.param(dict(kind="ancilla_free", state=np.diag([np.nan, 1.0]), observable=PAULI_Z),
                     InvariantError, r"^test state has non-finite entries$",
                     id="non-finite-state"),
        pytest.param(dict(kind="ancilla_assisted", state=0.5 * ID2,
                          observable=np.array([[1.0, np.inf], [np.inf, -1.0]])),
                     InvariantError, r"^observable has non-finite entries$",
                     id="non-finite-observable"),
        pytest.param(dict(kind="raw", operator=_NAN_Z, label="r"), InvariantError,
                     r"^raw operator 'r' has non-finite entries$", id="non-finite-raw"),
        pytest.param(dict(kind="tomography", state=0.5 * ID2, observable=PAULI_Z),
                     ValueError, r"^unknown measurement kind 'tomography'$", id="unknown-kind"),
    ])
    def test_construction_errors(self, kwargs, error, message):
        with pytest.raises(error, match=message):
            ProcessMeasurementSpec(**kwargs)
        # the public reductions of raw arrays check them the same way
        args = kwargs.get("state"), kwargs.get("observable")
        reductions = {"ancilla_free": lambda: reduce_ancilla_free(*args),
                      "ancilla_assisted": lambda: reduce_ancilla_assisted(*args, 2)}
        if kwargs["kind"] in reductions:
            with pytest.raises(error, match=message):
                reductions[kwargs["kind"]]()

    def test_reduce_checks_dimension(self, rng):
        with pytest.raises(DimensionError, match=r"^raw operator 'r' has shape \(4, 4\)$"):
            ProcessMeasurementSpec("raw", operator=np.eye(4), label="r").reduce(3)
        spec = ProcessMeasurementSpec("ancilla_assisted", state=random_state(3, rng),
                                      observable=np.eye(3))
        with pytest.raises(DimensionError, match=r"^dimension 3 does not factor as D\*2$"):
            spec.reduce(2)

    def test_arrays_are_read_only_copies(self, rng):
        rho, F, X = random_state(2, rng), PAULI_Z.copy(), np.kron(ID2, PAULI_X)
        free = ProcessMeasurementSpec("ancilla_free", state=rho, observable=F)
        raw = ProcessMeasurementSpec("raw", operator=X)
        before = free.reduce(2).copy(), raw.reduce(2).copy()
        for a in (free.state, free.observable, raw.operator):
            assert a.dtype == complex and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0.0
        rho[:] = 0.0
        F[:] = 0.0
        X[:] = 0.0
        assert np.array_equal(free.reduce(2), before[0])
        assert np.array_equal(raw.reduce(2), before[1])

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3]), D=st.sampled_from([1, 2]),
           seed=st.integers(0, 2**32 - 1))
    def test_reduce_is_the_formula(self, d, D, seed):
        rng = np.random.default_rng(seed)
        Omega, F = random_state(D * d, rng), random_hermitian(D * d, rng)
        spec = ProcessMeasurementSpec("ancilla_assisted", state=Omega, observable=F)
        assert np.array_equal(spec.reduce(d), reduce_ancilla_assisted(Omega, F, d))
        if D == 1:
            spec = ProcessMeasurementSpec("ancilla_free", state=Omega, observable=F)
            assert np.array_equal(spec.reduce(d), reduce_ancilla_free(Omega, F))


class TestSimulateMeans:
    def test_exact_means(self, rng):
        choi = random_channel(2, 2, rng)
        rho = random_state(2, rng)
        spec = ProcessMeasurementSpec("ancilla_free", state=rho,
                                      observable=PAULI_Z, label="m")
        obs = simulate_means(choi, [spec])
        direct = np.trace(PAULI_Z @ apply_from_choi(choi, rho)).real
        assert obs.constraints[0].target == pytest.approx(direct, abs=1e-12)
        assert obs.constraints[0].label == "m"

    def test_default_labels(self, rng):
        choi = random_channel(2, 2, rng)
        specs = [
            ProcessMeasurementSpec("ancilla_free", state=0.5 * ID2, observable=P)
            for P in (PAULI_X, PAULI_Z)
        ]
        obs = simulate_means(choi, specs)
        assert [c.label for c in obs.constraints] == ["measurement:0", "measurement:1"]

    def test_raw_spec(self):
        choi = ChoiState(2, np.eye(4) / 4)
        spec = ProcessMeasurementSpec("raw", operator=np.kron(ID2, PAULI_Z))
        obs = simulate_means(choi, [spec])
        assert obs.constraints[0].target == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_choi(self):
        with pytest.raises(TypeError):
            simulate_means(np.eye(4) / 4, [])


class TestSampleShots:
    def test_deterministic(self):
        assert sample_shots(0.3, 1000, 7) == sample_shots(0.3, 1000, 7)

    def test_extreme_mean(self):
        assert sample_shots(1.0, 50, 0) == 1.0
        assert sample_shots(-1.0, 50, 0) == -1.0

    def test_converges_to_mean(self):
        est = sample_shots(0.4, 200000, 11)
        assert abs(est - 0.4) < 0.01

    def test_memory_does_not_grow_with_shots(self):
        # one binomial count: 10**12 draws, not a 10**12-element array
        assert abs(sample_shots(0.3, 10**12, 5) - 0.3) < 1e-5

    def test_rejects_bad_args(self):
        with pytest.raises(InvariantError):
            sample_shots(1.5, 10, 0)
        with pytest.raises(ValueError):
            sample_shots(0.0, 0, 0)
