import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procmaxent import (
    BoundaryCaseError,
    ChoiState,
    Constraint,
    ConvergenceError,
    InfeasibleError,
    ObservationLevel,
    PriorChannel,
    ProcessMeasurementSpec,
    bloch_affine_map,
    boundary_resolve,
    choi_from_apply,
    dual_eval,
    dual_hessian,
    is_cptp,
    random_channel,
    reduce_ancilla_free,
    simulate_means,
    solve_biased,
    solve_maxent,
    solve_state_maxent,
)
from procmaxent import solver as solver_module
from procmaxent.cli import load_problem
from procmaxent.linalg import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bloch_to_density,
    dag,
    frobenius,
    spectrum_entropy,
)
from procmaxent.oracles import oracle_O1_mixed, oracle_O1_pure, oracle_O3, oracle_O4
from procmaxent.solver import _least_squares_state, _newton

from conftest import (
    probe_tomography,
    random_hermitian,
    random_state,
    random_unit_vector,
    random_unitary,
    transpose_map_record,
    two_probe_qubit_record,
)


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "demos" / "fixtures"


def obs_single(operator, target, label="m"):
    return ObservationLevel(d=2, constraints=(Constraint(operator, target, label),))


class TestDualEval:
    def test_value_at_zero(self):
        cons = ObservationLevel(d=2, constraints=()).full_constraints()
        pt = dual_eval(np.zeros(3), cons)
        assert pt.value == pytest.approx(np.log(4.0))
        assert np.allclose(pt.omega, np.eye(4) / 4, atol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        cons = [
            Constraint(random_hermitian(4, rng), 0.0, label=f"c{j}")
            for j in range(3)
        ]
        lam = rng.standard_normal(3) * 0.3
        pt = dual_eval(lam, cons)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (dual_eval(lam + e, cons).value - dual_eval(lam - e, cons).value) / (2 * h)
            assert abs(fd - pt.gradient[j]) < 1e-6 * max(1.0, abs(fd))

    @pytest.mark.parametrize("case", ["random", "base", "degenerate", "overflow"])
    def test_hessian_matches_finite_differences(self, rng, case):
        dim, n = 6, 5
        cons = [
            Constraint(random_hermitian(dim, rng), 0.0, label=f"c{j}")
            for j in range(n)
        ]
        ops = np.array([c.operator for c in cons])
        base = None
        lam = rng.standard_normal(n) * 0.3
        if case == "base":
            # solve_biased frame: log of a full-rank prior spectrum
            base = np.diag(np.log(rng.dirichlet(np.ones(dim)))).astype(complex)
        elif case == "degenerate":
            lam = np.zeros(n)
        elif case == "overflow":
            # spread of the exponent's spectrum far past exp's range
            lam *= 1000.0 / np.ptp(dual_eval(lam, cons).w)
        pt = dual_eval(lam, cons, base)
        if case == "overflow":
            assert np.ptp(pt.w) > 800
        H = dual_hessian(pt, ops)
        assert np.isfinite(H).all()
        fd = np.empty((n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1e-6 * (1.0 + abs(lam[k]))
            gp = dual_eval(lam + e, cons, base).gradient
            gm = dual_eval(lam - e, cons, base).gradient
            fd[:, k] = (gp - gm) / (2.0 * e[k])
        assert np.abs(H - fd).max() <= 1e-6 * np.abs(fd).max()

    def test_gradient_sign_convention(self):
        # gradient component is target - Tr(omega X)
        c = Constraint(np.kron(ID2, PAULI_Z), 0.5, label="m")
        pt = dual_eval(np.zeros(1), [c])
        assert pt.gradient[0] == pytest.approx(0.5)

    def test_convexity_along_segments(self, rng):
        cons = [Constraint(random_hermitian(4, rng), 0.1, label="c")]
        a = rng.standard_normal(1)
        b = rng.standard_normal(1)
        for t in (0.25, 0.5, 0.75):
            mid = dual_eval(t * a + (1 - t) * b, cons).value
            assert mid <= t * dual_eval(a, cons).value + (1 - t) * dual_eval(b, cons).value + 1e-10


class TestSolveMaxent:
    def test_empty_observation_level(self):
        sol = solve_maxent(ObservationLevel(d=2, constraints=()))
        assert np.allclose(sol.choi.matrix, np.eye(4) / 4, atol=1e-10)
        assert sol.entropy_bits == pytest.approx(2.0, abs=1e-10)
        assert not sol.boundary_flag

    def test_single_output_mean(self):
        # maximally mixed test state, <sigma_z> = m: constant channel onto
        # (I + m sigma_z)/2
        m = 0.5
        obs = obs_single(reduce_ancilla_free(0.5 * ID2, PAULI_Z), m)
        sol = solve_maxent(obs)
        expected = 0.5 * np.kron(ID2, 0.5 * (ID2 + m * PAULI_Z))
        assert frobenius(sol.choi.matrix - expected) < 1e-8
        bm = bloch_affine_map(sol.choi)
        assert np.allclose(bm.linear, np.zeros((3, 3)), atol=1e-7)
        assert np.allclose(bm.translation, [0, 0, m], atol=1e-8)

    def test_constraints_are_met(self, rng):
        choi = random_channel(2, 2, rng)
        specs = [
            ProcessMeasurementSpec("ancilla_free", state=random_state(2, rng),
                                   observable=P)
            for P in (PAULI_X, PAULI_Y, PAULI_Z)
        ]
        obs = simulate_means(choi, specs)
        sol = solve_maxent(obs)
        assert sol.residuals.max() < 1e-9

    def test_entropy_dominates_truth(self, rng):
        # the estimate has entropy >= that of any channel meeting the data
        from procmaxent import process_entropy

        choi = random_channel(2, 3, rng)
        specs = [
            ProcessMeasurementSpec("ancilla_free", state=random_state(2, rng),
                                   observable=random_hermitian(2, rng))
            for _ in range(4)
        ]
        sol = solve_maxent(simulate_means(choi, specs))
        assert sol.entropy_bits >= process_entropy(choi) - 1e-8

    def test_exponential_family_form(self):
        # converged solution equals exp(-sum lam X)/Z over the constraints
        m = 0.4
        obs = obs_single(reduce_ancilla_free(0.5 * ID2, PAULI_Z), m)
        sol = solve_maxent(obs)
        cons = obs.full_constraints()
        A = -sum(l * c.operator for l, c in zip(sol.multipliers, cons))
        w, V = np.linalg.eigh(0.5 * (A + dag(A)))
        raw = (V * np.exp(w)) @ dag(V)
        assert frobenius(raw / np.trace(raw).real - sol.choi.matrix) < 1e-9

    def test_complete_information_recovers_channel(self, rng):
        choi = random_channel(2, 4, rng)
        specs = []
        for a, Pa in enumerate((ID2, PAULI_X, PAULI_Y, PAULI_Z)):
            for b, Pb in enumerate((PAULI_X, PAULI_Y, PAULI_Z)):
                specs.append(ProcessMeasurementSpec(
                    "raw", operator=np.kron(Pa, Pb), label=f"p{a}{b}"))
        sol = solve_maxent(simulate_means(choi, specs))
        assert frobenius(sol.choi.matrix - choi.matrix) < 1e-8

    def test_infeasible_dependent_target(self):
        # same operator twice cannot enter an ObservationLevel; feed the
        # core solver directly with contradictory raw targets
        from procmaxent.solver import _solve_core

        X = np.kron(ID2, PAULI_Z)
        with pytest.raises(InfeasibleError) as exc:
            _solve_core(np.array([X, X]), np.array([0.2, 0.4]),
                        ["a", "b"], np.eye(4, dtype=complex),
                        np.zeros((4, 4), dtype=complex))
        assert exc.value.label == "b"

    def test_jointly_infeasible_targets(self):
        # <I(x)sigma_z> = 1 pins the output to |0>, so a pure test state
        # cannot then show <sigma_z> = -1
        rho = bloch_to_density([0.0, 0.0, 1.0])
        cons = (
            Constraint(np.kron(ID2, PAULI_Z), 1.0, label="all_up"),
            Constraint(reduce_ancilla_free(rho, PAULI_Z), -1.0, label="down"),
        )
        obs = ObservationLevel(d=2, constraints=cons)
        with pytest.raises(InfeasibleError):
            solve_maxent(obs)

    def test_boundary_target_sets_flag(self):
        obs = obs_single(np.kron(ID2, PAULI_Z), 1.0)
        sol = solve_maxent(obs)
        assert sol.boundary_flag
        expected = 0.5 * np.kron(ID2, np.diag([1.0, 0.0]))
        assert frobenius(sol.choi.matrix - expected) < 1e-8

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_target_past_spectral_end_within_tolerance(self, scale):
        # the pinned row's excess must not leak into Tr omega, which
        # ChoiState holds to 1e-10
        obs = obs_single(scale * np.kron(ID2, PAULI_Z), scale + 5e-10)
        sol = solve_maxent(obs)
        assert sol.boundary_flag
        assert np.trace(sol.choi.matrix).real == pytest.approx(1.0, abs=1e-14)
        expected = 0.5 * np.kron(ID2, np.diag([1.0, 0.0]))
        assert frobenius(sol.choi.matrix - expected) < 1e-9
        assert sol.residuals.max() <= 1e-9

    def test_intersecting_pinned_faces(self):
        # each target pins the output to a 2-dimensional eigenspace; only
        # their intersection, output |0>, meets both
        I3 = np.eye(3)
        obs = ObservationLevel(d=3, constraints=(
            Constraint(np.kron(I3, np.diag([1.0, 1.0, 0.0])), 1.0, label="a"),
            Constraint(np.kron(I3, np.diag([1.0, 0.0, 1.0])), 1.0, label="b"),
        ))
        expected = np.kron(I3 / 3, np.diag([1.0, 0.0, 0.0]))
        sol = solve_maxent(obs)
        assert frobenius(sol.choi.matrix - expected) < 1e-9
        assert sol.boundary_flag and sol.iterations == 0
        assert frobenius(boundary_resolve(obs).choi.matrix - expected) < 1e-9

    def test_near_identity_constraint_pins_no_face(self):
        # within 1e-8 of 1 I but not pruned: its top eigenspace is the
        # whole frame, which would leave the face loop where it started
        from procmaxent.solver import _pinned_face

        X = np.eye(4) + np.diag([0.0, 0.0, 0.0, 5e-9])
        assert _pinned_face(np.array([X]), np.array([1.0 + 5e-9]), ["c"]) is None

    @pytest.mark.parametrize("bloch, means", [
        ([0.0, 0.0, 1.0], {"x": (PAULI_X, 0.8), "z": (PAULI_Z, 0.8)}),
        ([0.0, 0.0, 0.0], {"x": (PAULI_X, 0.75), "y": (PAULI_Y, 0.75)}),
    ])
    def test_jointly_infeasible_means_of_one_probe(self, bloch, means):
        # each mean lies inside its operator's spectrum, but together they
        # ask for an output Bloch vector longer than 1
        rho = bloch_to_density(bloch)
        obs = ObservationLevel(d=2, constraints=tuple(
            Constraint(reduce_ancilla_free(rho, F), x, label=k)
            for k, (F, x) in means.items()))
        with pytest.raises(InfeasibleError):
            solve_maxent(obs)

    def test_infeasible_by_weak_duality(self):
        # Newton cannot converge on these means; its dual value falls below
        # min eig(base) = 0, which no state meeting them allows
        rho = bloch_to_density([0.0, 0.0, 1.0])
        obs = ObservationLevel(d=2, constraints=(
            Constraint(reduce_ancilla_free(rho, PAULI_X), 0.8, label="x"),
            Constraint(reduce_ancilla_free(rho, PAULI_Z), 0.8, label="z"),
        ))
        with pytest.raises(InfeasibleError, match="dual value") as info:
            solve_maxent(obs)
        assert info.value.label is None

    def test_pure_output_sets_flag(self):
        # <X> = 0.6 and <Z> = 0.8 on input |0> force a pure output, which
        # no single constraint pins: the estimate is singular
        rho = bloch_to_density([0.0, 0.0, 1.0])
        obs = ObservationLevel(d=2, constraints=(
            Constraint(reduce_ancilla_free(rho, PAULI_X), 0.6, label="x"),
            Constraint(reduce_ancilla_free(rho, PAULI_Z), 0.8, label="z"),
        ))
        sol = solve_maxent(obs)
        assert sol.boundary_flag and sol.residuals.max() <= 1e-9
        assert np.array_equal(boundary_resolve(obs).choi.matrix, sol.choi.matrix)

    def test_iteration_budget(self, monkeypatch):
        # a record that Newton cannot finish in one step from its start
        _, obs = two_probe_qubit_record(0)
        assert solve_maxent(obs).iterations >= 2
        monkeypatch.setattr(solver_module, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            solve_maxent(obs)

    def test_non_convergence_names_start_and_frame(self):
        # the projector record of draw (2, 1): Newton runs from lambda = 0
        # on the whole frame and ends at _MAX_ITER with a gradient norm
        # just above _GRAD_TOL
        with pytest.raises(ConvergenceError, match=(
                r"^dual solver did not converge after 500 iterations from "
                r"lambda = 0 on a frame of dimension 4 \(gradient norm")):
            solve_maxent(pure_output_projector_record(2, 1))

    def test_nearly_pinned_probe_face_is_refused(self):
        # probe (0, 0, 1) all but pinned to its Z eigenstate: Newton
        # converges from the least-squares start on its 3-dimensional
        # face, but that estimate misses a constraint, which the
        # acceptance check refuses
        probes = [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]
        means = [(1e-9, 0.0, 1.0), (0.3, 0.1, 0.2)]
        obs = ObservationLevel(d=2, constraints=tuple(
            Constraint(reduce_ancilla_free(bloch_to_density(b), P), x, label=f"p{p}:{k}")
            for p, (b, xs) in enumerate(zip(probes, means))
            for k, (P, x) in enumerate(zip((PAULI_X, PAULI_Y, PAULI_Z), xs))
        ))
        with pytest.raises(ConvergenceError, match="^converged solution violates constraints"):
            solve_maxent(obs)

    def test_multipliers_label_alignment(self):
        obs = obs_single(reduce_ancilla_free(0.5 * ID2, PAULI_Z), 0.5, label="m")
        sol = solve_maxent(obs)
        assert sol.labels == ("m", "tp:0", "tp:1", "tp:2")
        assert len(sol.multipliers) == 4
        assert sol.multipliers[0] == pytest.approx(-np.arctanh(0.5), abs=1e-8)


def pure_output_projector_record(d, i):
    """Draw i at dimension d of a measure-and-prepare channel whose probe
    B[:, 0] goes to a pure state: the projector on that output measured
    at mean 1, plus two random probes with full output tomography.  No
    target sits at an end of its operator's spectrum and no probe's
    output is determined, so no face is proved and Newton runs from
    lambda = 0 while its multipliers diverge."""
    rng = np.random.default_rng([99, d, i])
    B = random_unitary(d, rng)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    outputs = [np.outer(v, v.conj()) / np.vdot(v, v).real]
    outputs += [random_state(d, rng) for _ in range(d - 1)]
    truth = sum(np.kron(np.outer(B[:, k], B[:, k].conj()).T, outputs[k])
                for k in range(d)) / d
    probe = np.outer(B[:, 0], B[:, 0].conj())
    specs = [ProcessMeasurementSpec("ancilla_free", state=probe, observable=outputs[0],
                                    label="proj")] + probe_tomography(d, 2, rng)
    return simulate_means(ChoiState(d, truth), specs)


def outside_bloch_ball_record(radius, extra_probes):
    """Probe |0> with measured X and Z means at output Bloch radius
    radius > 1, plus extra_probes (0 or 2) probes with two means each
    inside the ball.  No probe's output is determined and every target
    lies inside its operator's spectrum, so only Newton can refuse it."""
    c = radius / np.sqrt(2.0)
    probes = [((0.0, 0.0, 1.0), ((PAULI_X, c), (PAULI_Z, c))),
              ((1.0, 0.0, 0.0), ((PAULI_X, 0.3), (PAULI_Y, 0.1))),
              ((0.0, 1.0, 0.0), ((PAULI_Y, -0.2), (PAULI_Z, 0.4)))][:1 + extra_probes]
    return ObservationLevel(d=2, constraints=tuple(
        Constraint(reduce_ancilla_free(bloch_to_density(b), P), x, label=f"p{p}:{k}")
        for p, (b, means) in enumerate(probes) for k, (P, x) in enumerate(means)))


class TestStopRule:
    """Newton stops for three reasons: the gradient's max-norm reaches
    _GRAD_TOL (converged), the dual value falls below the weak-duality
    bound (InfeasibleError), or a line search fails or _MAX_ITER
    iterations pass (ConvergenceError)."""

    @pytest.mark.parametrize("radius, extra_probes", [
        (np.hypot(0.8, 0.8), 0), (1.004, 0), (1.0 + 1e-6, 0), (1.030, 2), (1.026, 2)])
    def test_outside_bloch_ball_is_infeasible(self, monkeypatch, radius, extra_probes):
        # the certificate fires within a few dozen iterations, even when
        # the excess over the ball is 1e-6
        obs = outside_bloch_ball_record(radius, extra_probes)
        monkeypatch.setattr(solver_module, "_MAX_ITER", 30)
        with pytest.raises(InfeasibleError, match="dual value") as info:
            solve_maxent(obs)
        assert info.value.label is None

    def test_diverging_feasible_records_are_not_infeasible(self):
        # exact data whose estimate lies on a face nothing proves: Newton
        # runs until it converges or its budget ends, and the weak-duality
        # bound, which every feasible record meets, never fires
        converged = 0
        for d in (2, 3):
            for i in range(25):
                try:
                    sol = solve_maxent(pure_output_projector_record(d, i))
                except ConvergenceError:
                    continue
                assert sol.residuals.max() <= 1e-9
                converged += 1
        assert converged >= 44

    def test_feasible_run_takes_no_spectrum_of_base(self, monkeypatch):
        # the dual value of a feasible maximum-entropy run never falls
        # below Tr(base)/dim = 0, so min eig(base) is never needed
        _, obs = two_probe_qubit_record(0)
        eigvalsh = np.linalg.eigvalsh
        zero_args = []

        def spy(a, *args, **kwargs):
            if not np.any(a):
                zero_args.append(a)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        assert solve_maxent(obs).iterations >= 2
        assert zero_args == []


def _interior_biased_problem(d, probes, seed):
    """Full-Kraus-rank channel and prior, random pure probes each followed
    by full output tomography, exact means."""
    rng = np.random.default_rng(seed)
    truth = random_channel(d, d * d, rng)
    prior = PriorChannel(random_channel(d, d * d, rng))
    return simulate_means(truth, probe_tomography(d, probes, rng)), prior


class TestNewtonConvergence:
    # Near the optimum the dual changes by less than the round-off of
    # ln Z; an Armijo test alone then backtracks to nothing and the
    # iteration stalls on a few percent of such problems.
    @pytest.mark.parametrize("d, probes, count", [(3, 3, 40), (2, 2, 60)])
    def test_interior_biased_problems_converge_fast(self, d, probes, count):
        bad = []
        for i in range(count):
            obs, prior = _interior_biased_problem(d, probes, (d, probes, i))
            try:
                sol = solve_biased(obs, prior)
            except ConvergenceError as exc:
                bad.append((i, str(exc)))
                continue
            if sol.iterations > 20 or sol.residuals.max() > 1e-9:
                bad.append((i, sol.iterations, sol.residuals.max()))
        assert not bad


def _state_map(out):
    """Choi state of the maximum-entropy channel that sends |0> to the
    state out and leaves |1>'s image unconstrained (maximally mixed)."""
    return 0.5 * (np.kron(np.diag([1.0, 0.0]), out) + np.kron(np.diag([0.0, 1.0]), 0.5 * ID2))


class TestFeasibleStart:
    """Newton starts from the multipliers of the least-squares feasible
    state when that state is positive definite, and such a pass skips the
    probe-face search: a feasible state of full rank leaves no proper
    face."""

    # v_zero_to_one_identity_prior's prior cannot hold |0> -> |1>
    # (test_cli); its record alone is v_zero_to_one's.
    @pytest.mark.parametrize("fixture, expected", [
        ("o1_mixed", oracle_O1_mixed(0.5).choi.matrix),
        ("o1_pure", oracle_O1_pure(0.6, [0.6, 0.0, 0.8]).choi.matrix),
        ("o3", oracle_O3([0.2, -0.5, 0.6]).choi.matrix),
        ("o4", oracle_O4(0.1, [0.3, 0.1, 0.5]).choi.matrix),
        ("v_zero_to_one", _state_map(np.diag([0.0, 1.0]))),
        ("v_zero_to_one_identity_prior", _state_map(np.diag([0.0, 1.0]))),
        ("v_zero_to_zero", _state_map(np.diag([1.0, 0.0]))),
    ])
    def test_paper_records_start_at_the_estimate(self, fixture, expected):
        obs, _ = load_problem(f"{FIXTURES}/{fixture}.json")
        sol = solve_maxent(obs)
        assert sol.iterations == 0
        assert frobenius(sol.choi.matrix - expected) < 1e-8

    def test_full_rank_record_skips_probe_search(self, monkeypatch):
        calls = []
        search = solver_module._probe_face
        monkeypatch.setattr(solver_module, "_probe_face",
                            lambda *args: calls.append(args) or search(*args))
        rng = np.random.default_rng(7)
        obs = simulate_means(random_channel(3, 9, rng), probe_tomography(3, 3, rng))
        assert solve_maxent(obs).residuals.max() <= 1e-9
        assert not calls
        # the record of TestSolveMaxent.test_pure_output_sets_flag has a
        # pure output, so no feasible state has full rank
        rho = bloch_to_density([0.0, 0.0, 1.0])
        obs = ObservationLevel(d=2, constraints=(
            Constraint(reduce_ancilla_free(rho, PAULI_X), 0.6, label="x"),
            Constraint(reduce_ancilla_free(rho, PAULI_Z), 0.8, label="z"),
        ))
        assert solve_maxent(obs).boundary_flag
        assert calls

    @pytest.mark.parametrize("d, probes, seed", [(2, 2, 0), (3, 3, 1), (3, 5, 2), (4, 4, 3)])
    def test_start_and_zero_reach_the_same_estimate(self, d, probes, seed):
        rng = np.random.default_rng([d, probes, seed])
        obs = simulate_means(random_channel(d, d * d, rng), probe_tomography(d, probes, rng))
        base = np.zeros((d * d, d * d), dtype=complex)
        start = _least_squares_state(obs.operators, obs.targets,
                                     obs.operators, obs.targets, base)[2]
        assert start is not None
        entropies = [
            spectrum_entropy(_newton(obs.operators, obs.targets, base, lam)[1].p)
            for lam in (None, start)
        ]
        assert abs(entropies[0] - entropies[1]) <= 1e-9


class TestDeterminedData:
    """Records whose constraints and Tr = 1 span every Hermitian operator
    on the frame fix one state, which the solver finds without Newton; a
    singular state's support is the face."""

    @staticmethod
    def check_complete_record(d, rank, rng):
        truth = random_channel(d, rank, rng)
        obs = simulate_means(truth, probe_tomography(d, d * d, rng))
        sol = solve_maxent(obs)
        assert np.abs(sol.choi.matrix - truth.matrix).max() <= 1e-9
        assert sol.residuals.max() <= 1e-12
        assert sol.iterations == 0
        assert sol.boundary_flag == (rank < d * d)
        if rank == d * d:
            # the estimate is exp(-sum lam_j X_j)/Z
            A = -np.tensordot(sol.multipliers, obs.operators, axes=1)
            w, V = np.linalg.eigh(0.5 * (A + dag(A)))
            rebuilt = (V * np.exp(w - sol.log_partition)) @ dag(V)
            assert np.abs(rebuilt - sol.choi.matrix).max() <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_complete_record_recovers_channel(self, d, seed, data):
        rank = data.draw(st.integers(1, d * d), label="rank")
        self.check_complete_record(d, rank, np.random.default_rng(seed))

    # (d, rank, seed) of draws that failed.  Residuals exceeded 1e-12:
    # solving only the constraints kept on the face left 2.3e-11 on [3, 4,
    # 46], and the support of the first solve without the refit left
    # 1.0e-12 on [3, 4, 175] and 3.1e-11 on [3, 4, 1052] (ill-conditioned
    # probes).  On 17372965 the multipliers from the Gram matrix, whose
    # condition number was 6.7e10, rebuilt the estimate only to 1.6e-7.
    @pytest.mark.parametrize("seed", [(3, 4, [3, 4, 46]), (3, 4, [3, 4, 175]),
                                      (3, 4, [3, 4, 1052]), (3, 9, 17372965)])
    def test_complete_record_regressions(self, seed):
        d, rank, entropy = seed
        self.check_complete_record(d, rank, np.random.default_rng(entropy))

    @pytest.mark.parametrize("d", [2, 3])
    def test_biased_on_determined_prior_support(self, rng, d):
        # the rank-2 prior and the truth mix the same two unitary channels;
        # on the prior's support the data fix the truth
        U1, U2 = (choi_from_apply(lambda r, U=random_unitary(d, rng): U @ r @ dag(U), d)
                  for _ in range(2))
        prior = PriorChannel(ChoiState(d, 0.7 * U1.matrix + 0.3 * U2.matrix))
        truth = ChoiState(d, 0.3 * U1.matrix + 0.7 * U2.matrix)
        sol = solve_biased(simulate_means(truth, probe_tomography(d, 2, rng)), prior)
        assert np.abs(sol.choi.matrix - truth.matrix).max() <= 1e-9
        assert sol.iterations == 0 and sol.boundary_flag

    def test_non_cp_record_is_infeasible(self, rng):
        # the transpose map's exact means determine SWAP/2, eigenvalue -1/2
        obs = ObservationLevel(d=2, constraints=tuple(
            Constraint(reduce_ancilla_free(rho, P), x, label=label)
            for label, rho, P, x in transpose_map_record(rng)))
        with pytest.raises(InfeasibleError, match=r"eigenvalue -0\.5 ") as info:
            solve_maxent(obs)
        assert info.value.label is None


class TestExactData:
    """Exact means from any channel are feasible: the solve returns a
    CPTP estimate that meets them, or raises ConvergenceError where Newton
    cannot reach a face that neither a single constraint nor a probe's
    determined output proves, but never calls them infeasible."""

    @staticmethod
    def check_exact_record(d, rank, probes, rng, must_converge=False):
        truth = random_channel(d, rank, rng)
        obs = simulate_means(truth, probe_tomography(d, probes, rng))
        try:
            sol = solve_maxent(obs)
        except ConvergenceError:
            if must_converge:
                raise
            return
        assert sol.residuals.max() <= 1e-8
        report = is_cptp(sol.choi.matrix)
        assert report.positive and report.trace_preserving

    @settings(max_examples=150, deadline=None)
    @given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_exact_data_are_never_infeasible(self, d, seed, data):
        rank = data.draw(st.integers(1, d * d), label="rank")
        probes = data.draw(st.integers(1, d * d), label="probes")
        self.check_exact_record(d, rank, probes, np.random.default_rng(seed))

    # Rank-2 channels with 2 probes whose estimate lies on a proper face:
    # they must converge, and narrowing to the support of a Newton iterate
    # that has not converged would call them infeasible.
    @pytest.mark.parametrize("seed", [[3, 2, 0], [4, 2, 0]])
    def test_exact_data_regressions(self, seed):
        d, rank, _ = seed
        self.check_exact_record(d, rank, 2, np.random.default_rng(seed), must_converge=True)

    # Rank-1 qutrit channels with 2 probes: Newton converges on the probe
    # face, but a constraint pruned there (tp:6 for seed 163) misses its
    # target; the trace-preservation check of the estimate once reported
    # that as NotAChannelError, before the residuals were checked.
    @pytest.mark.parametrize("seed", [5, 28, 44, 83, 125, 163])
    def test_missed_pruned_target_is_not_infeasible(self, seed):
        self.check_exact_record(3, 1, 2, np.random.default_rng(seed))

    # With _GRAD_TOL = 1e-8 the residuals pass at 1e-7 while the estimate's
    # marginal misses I/d by 4.7e-8; that once raised NotAChannelError.
    def test_loose_grad_tol_is_not_infeasible(self, monkeypatch):
        rng = np.random.default_rng(5)
        truth = random_channel(3, 1, rng)
        obs = simulate_means(truth, probe_tomography(3, 2, rng))
        monkeypatch.setattr(solver_module, "_GRAD_TOL", 1e-8)
        try:
            sol = solve_maxent(obs)
        except ConvergenceError:
            return
        assert is_cptp(sol.choi.matrix).trace_preserving

    # (d, rank, probes, seed) draws whose multipliers diverge on the whole
    # frame: every probe's output is singular, and the estimate lies on
    # the face their kernels prove, where Newton converges.
    @pytest.mark.parametrize("d, rank, probes, seed", [
        (3, 2, 2, 0), (4, 2, 2, 0), (4, 3, 3, 0), (4, 3, 5, 1)])
    def test_probe_face_draws_converge(self, d, rank, probes, seed):
        rng = np.random.default_rng([d, rank, probes, seed, 0])
        self.check_exact_record(d, rank, probes, rng, must_converge=True)

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_probe_face_holds_the_channel(self, d, seed, data):
        # with Kraus rank below d every pure probe's output is singular:
        # the face the record proves holds the true Choi state's support
        from procmaxent.solver import _probe_face

        rank = data.draw(st.integers(1, d - 1), label="rank")
        probes = data.draw(st.integers(1, d * d - 1), label="probes")
        rng = np.random.default_rng(seed)
        truth = random_channel(d, rank, rng)
        obs = simulate_means(truth, probe_tomography(d, probes, rng))
        face = _probe_face(obs.operators, obs.targets, np.eye(d * d), d)
        assert face is not None and face.shape[1] < d * d
        omega = truth.matrix
        assert np.abs(omega - face @ (dag(face) @ omega)).max() <= 1e-12

    def test_biased_exact_data_in_prior_support(self):
        # a pure channel inside a full-rank prior's support, 2 probes; the
        # same narrowing once called this record infeasible
        rng = np.random.default_rng([3, 1, 9, 2, 0, 1])
        truth = random_channel(3, 1, rng)
        prior = PriorChannel(random_channel(3, 9, rng))
        obs = simulate_means(truth, probe_tomography(3, 2, rng))
        with pytest.raises(ConvergenceError):
            solve_biased(obs, prior)


class TestPriorChannel:
    def test_frame_and_base_built_once(self, rng):
        # two Kraus operators: a Choi state of rank 2
        prior = PriorChannel(random_channel(2, 2, rng))
        frame, base = prior.frame, prior.base
        assert frame.shape == (4, 2)
        assert np.allclose(dag(frame) @ frame, np.eye(2), atol=1e-12)
        p = np.linalg.eigvalsh(prior.choi.matrix)[2:]
        assert np.allclose(base, np.diag(np.log(p)), atol=1e-12)
        assert frobenius(frame @ np.diag(p) @ dag(frame) - prior.choi.matrix) < 1e-12
        for a in (frame, base):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0


class TestSolveBiased:
    def test_uniform_prior_matches_maxent(self, rng):
        choi = random_channel(2, 2, rng)
        specs = [
            ProcessMeasurementSpec("ancilla_free", state=random_state(2, rng),
                                   observable=PAULI_Z)
            for _ in range(2)
        ]
        obs = simulate_means(choi, specs)
        prior = PriorChannel(ChoiState(2, np.eye(4) / 4))
        plain = solve_maxent(obs)
        biased = solve_biased(obs, prior)
        assert frobenius(plain.choi.matrix - biased.choi.matrix) < 1e-9

    def test_no_data_returns_prior(self, rng):
        prior = PriorChannel(random_channel(2, 3, rng))
        obs = ObservationLevel(d=2, constraints=())
        sol = solve_biased(obs, prior)
        assert frobenius(sol.choi.matrix - prior.choi.matrix) < 1e-8

    def test_support_restriction(self, rng):
        # a unitary prior has rank-one support: any data consistent with it
        # returns the prior itself
        U = random_unitary(2, rng)
        prior = PriorChannel(choi_from_apply(lambda r: U @ r @ dag(U), 2))
        rho = random_state(2, rng)
        out = U @ rho @ dag(U)
        mean = np.trace(PAULI_Z @ out).real
        obs = obs_single(reduce_ancilla_free(rho, PAULI_Z), mean)
        sol = solve_biased(obs, prior)
        assert frobenius(sol.choi.matrix - prior.choi.matrix) < 1e-7

    def test_off_support_target_is_infeasible(self):
        # identity prior cannot reproduce <sigma_z> = -1 on input |0>
        prior = PriorChannel(choi_from_apply(lambda r: r, 2))
        rho = bloch_to_density([0.0, 0.0, 1.0])
        obs = obs_single(reduce_ancilla_free(rho, PAULI_Z), -1.0, label="flip")
        with pytest.raises(InfeasibleError):
            solve_biased(obs, prior)

    def test_boundary_flag_on_prior_support(self):
        # <X> = 0.14 on input |+>: on the support span{|00>, |11>} of the
        # dephasing prior the estimate has eigenvalues (0, 0, 0.43, 0.57)
        obs = obs_single(reduce_ancilla_free(bloch_to_density([1.0, 0.0, 0.0]),
                                             PAULI_X), 0.14)
        dephasing = PriorChannel(ChoiState(2, np.diag([0.5, 0.0, 0.0, 0.5])))
        sol = solve_biased(obs, dephasing)
        assert np.allclose(np.linalg.eigvalsh(sol.choi.matrix), [0, 0, 0.43, 0.57],
                           atol=1e-8)
        assert sol.boundary_flag
        full_rank = PriorChannel(ChoiState(2, np.eye(4) / 4))
        assert not solve_biased(obs, full_rank).boundary_flag

    def test_dimension_mismatch(self, rng):
        from procmaxent import InvariantError

        prior = PriorChannel(random_channel(3, 2, rng))
        with pytest.raises(InvariantError):
            solve_biased(ObservationLevel(d=2, constraints=()), prior)


class TestBoundaryResolve:
    def test_interior_problem_raises(self):
        obs = obs_single(reduce_ancilla_free(0.5 * ID2, PAULI_Z), 0.5)
        with pytest.raises(BoundaryCaseError):
            boundary_resolve(obs)

    def test_spectral_extreme(self):
        obs = obs_single(np.kron(ID2, PAULI_Z), 1.0)
        sol = boundary_resolve(obs)
        assert sol.boundary_flag
        expected = 0.5 * np.kron(ID2, np.diag([1.0, 0.0]))
        assert frobenius(sol.choi.matrix - expected) < 1e-8

    def test_pure_state_m_one(self):
        # <sigma_z> = 1 with a pure test state along r: the limit map is
        # t -> (0, 0, (1 + t.r)/2)
        r = np.array([0.0, 0.0, 1.0])
        rho = bloch_to_density(r)
        obs = obs_single(reduce_ancilla_free(rho, PAULI_Z), 1.0)
        sol = boundary_resolve(obs)
        bm = bloch_affine_map(sol.choi)
        assert np.allclose(bm(-r), np.zeros(3), atol=1e-6)
        assert np.allclose(bm(r), [0.0, 0.0, 1.0], atol=1e-6)


class TestSolveStateMaxent:
    def test_single_bloch_component(self):
        rho, lam = solve_state_maxent(
            [Constraint(PAULI_Z, 0.6, label="z")], 2)
        expected = 0.5 * (ID2 + 0.6 * PAULI_Z)
        assert frobenius(rho - expected) < 1e-9
        assert lam[0] == pytest.approx(-np.arctanh(0.6), abs=1e-8)

    def test_no_constraints(self):
        rho, _ = solve_state_maxent([], 3)
        assert np.allclose(rho, np.eye(3) / 3, atol=1e-12)

    def test_target_outside_spectrum_on_face(self):
        # p0 pins the face span{|1>, |2>}, where a has spectrum [-0.2, 0.2]
        cons = [Constraint(np.diag([1.0, 0.0, 0.0]), 0.0, "p0"),
                Constraint(np.diag([5.0, 0.2, -0.2]), 3.0, "a")]
        with pytest.raises(InfeasibleError) as info:
            solve_state_maxent(cons, 3)
        assert info.value.label == "a"

    def test_matches_bloch_formula(self, rng):
        t = 0.8 * random_unit_vector(rng)
        cons = [
            Constraint(P, float(t[a]), label="xyz"[a])
            for a, P in enumerate((PAULI_X, PAULI_Y, PAULI_Z))
        ]
        rho, _ = solve_state_maxent(cons, 2)
        assert frobenius(rho - bloch_to_density(t)) < 1e-8
