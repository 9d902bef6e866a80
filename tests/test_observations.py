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
from procmaxent.channels import ChoiState
from procmaxent.linalg import ID2, PAULI_X, PAULI_Z, dag, partial_trace

from conftest import random_hermitian, random_state


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

    def test_wrong_operator_dimension(self):
        c = Constraint(PAULI_Z, 0.0, label="small")
        with pytest.raises(DimensionError):
            ObservationLevel(d=2, constraints=(c,))

    def test_include_tp_off(self):
        obs = ObservationLevel(d=2, constraints=(), include_tp=False)
        assert obs.full_constraints() == []


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
        for D in (1, 2, 3):
            choi = random_channel(2, 2, rng)
            Omega = random_state(2 * D, rng)
            F = random_hermitian(2 * D, rng)
            X = reduce_ancilla_assisted(Omega, F, 2)
            # direct: act with I_D (x) E on Omega, then measure F
            out = np.zeros((2 * D, 2 * D), dtype=complex)
            for j in range(D):
                for k in range(D):
                    block = Omega[j * 2:(j + 1) * 2, k * 2:(k + 1) * 2]
                    # extend E linearly over non-density blocks
                    from procmaxent.channels import _apply_linear

                    out[j * 2:(j + 1) * 2, k * 2:(k + 1) * 2] = _apply_linear(
                        choi.matrix, 2, block
                    )
            direct = np.trace(F @ out).real
            assert abs(expectation(choi.matrix, X) - direct) < 1e-10

    def test_bad_factorization(self, rng):
        with pytest.raises(DimensionError):
            reduce_ancilla_assisted(random_state(3, rng), np.eye(3), 2)


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

    def test_rejects_bad_args(self):
        with pytest.raises(InvariantError):
            sample_shots(1.5, 10, 0)
        with pytest.raises(ValueError):
            sample_shots(0.0, 0, 0)
