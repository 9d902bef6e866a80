"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line directly to the terminal (bypassing capture)."""

import json
import pathlib
import time

import numpy as np

from procmaxent import (
    Constraint,
    ChoiState,
    ObservationLevel,
    PriorChannel,
    ProcessMeasurementSpec,
    apply_from_choi,
    bloch_affine_map,
    boundary_resolve,
    choi_from_apply,
    dual_eval,
    expectation,
    oracle_O1_pure,
    oracle_O4,
    process_entropy,
    random_channel,
    reduce_ancilla_assisted,
    reduce_ancilla_free,
    simulate_means,
    solve_biased,
    solve_maxent,
    solve_state_maxent,
    von_neumann_entropy,
)
from procmaxent.channels import _apply_linear
from procmaxent.linalg import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    bloch_to_density,
    dag,
    density_to_bloch,
    frobenius,
)

from conftest import random_hermitian, random_state, random_unit_vector, random_unitary

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "demos" / "fixtures"


def report(capfd, number, description, body):
    try:
        body()
    except BaseException:
        with capfd.disabled():
            print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    with capfd.disabled():
        print(f"[criterion {number:2d}] PASS  {description}")


def o1_mixed_obs(m):
    return ObservationLevel(d=2, constraints=(
        Constraint(reduce_ancilla_free(0.5 * ID2, PAULI_Z), m, label="m"),))


def preparator_choi(xi):
    return choi_from_apply(lambda rho: np.trace(rho) * xi, 2)


def test_criterion_01_mixed_test_state(capfd):
    def body():
        for m in (-0.9, -0.5, 0.0, 0.5, 0.9):
            t0 = time.perf_counter()
            sol = solve_maxent(o1_mixed_obs(m))
            elapsed = time.perf_counter() - t0
            bm = bloch_affine_map(sol.choi)
            assert np.abs(bm.linear).max() < 1e-7
            assert np.abs(bm.translation - [0.0, 0.0, m]).max() < 1e-7
            assert elapsed < 1.0

    report(capfd, 1, "mixed test state: constant channel onto (I+m sigma_z)/2, "
                     "< 1 s per solve", body)


def test_criterion_02_pure_test_state(capfd, rng):
    def body():
        for m in (0.2, -0.2, 0.6, -0.6, 0.95, -0.95):
            for _ in range(10):
                r_hat = random_unit_vector(rng)
                oracle = oracle_O1_pure(m, r_hat)
                t0 = time.perf_counter()
                sol = solve_maxent(oracle.observation)
                elapsed = time.perf_counter() - t0
                assert frobenius(sol.choi.matrix - oracle.choi.matrix) < 1e-7
                # project the solver's dual coordinates onto the
                # two-parameter frame (lam along the transposed Bloch
                # direction, dd on the measured constraint)
                dd_ref = 0.25 * np.log((1.0 - m) / (1.0 + m))
                lam_ref = 0.5 * np.log(np.cosh(2.0 * dd_ref))
                rT = np.array([r_hat[0], -r_hat[1], r_hat[2]])
                lam_proj = float(sol.multipliers[1:4] @ rT)
                assert abs(sol.multipliers[0] - dd_ref) < 1e-6
                assert abs(lam_proj - lam_ref) < 1e-6
                assert elapsed < 1.0

    report(capfd, 2, "pure test state: closed-form Choi state and "
                     "frame-projected multipliers", body)


def test_criterion_03_boundary_case(capfd, rng):
    def body():
        directions = [np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8])]
        directions += [random_unit_vector(rng) for _ in range(2)]
        for r_hat in directions:
            rho = bloch_to_density(r_hat)
            obs = ObservationLevel(d=2, constraints=(
                Constraint(reduce_ancilla_free(rho, PAULI_Z), 1.0, label="m"),))
            sol = boundary_resolve(obs)
            bm = bloch_affine_map(sol.choi)
            assert np.abs(bm(-r_hat)).max() < 1e-6
            assert np.abs(bm(r_hat) - [0.0, 0.0, 1.0]).max() < 1e-6
            # full map t -> (0, 0, (1 + t.r)/2)
            t = random_unit_vector(rng)
            out = bm(t)
            assert abs(out[2] - 0.5 * (1.0 + t @ r_hat)) < 1e-6

    report(capfd, 3, "boundary mean m=1: limit map t -> (0, 0, (1+t.r)/2)", body)


def test_criterion_04_full_output_tomography(capfd, rng):
    def body():
        for _ in range(10):
            m = rng.uniform(0.0, 0.95) * random_unit_vector(rng)
            cons = tuple(
                Constraint(np.kron(ID2, P), float(m[a]), label=f"m:{'xyz'[a]}")
                for a, P in enumerate(PAULIS)
            )
            sol = solve_maxent(ObservationLevel(d=2, constraints=cons))
            expected = 0.25 * np.kron(ID2, ID2 + sum(c * P for c, P in zip(m, PAULIS)))
            assert frobenius(sol.choi.matrix - expected) < 1e-7

    report(capfd, 4, "output tomography of the maximally mixed probe: "
                     "constant channel onto (I+m.sigma)/2", body)


def test_criterion_05_four_probe_states(capfd, rng):
    def body():
        done = 0
        while done < 10:
            z = rng.uniform(-0.4, 0.4)
            zeta = rng.uniform(-0.4, 0.4, size=3)
            try:
                oracle = oracle_O4(z, zeta)
            except Exception:
                continue
            sol = solve_maxent(oracle.observation)
            assert frobenius(sol.choi.matrix - oracle.choi.matrix) < 1e-7
            # the zeta' = zeta - z reparametrization shows up as the linear
            # part of the Bloch map
            bm = bloch_affine_map(sol.choi)
            assert np.abs(bm.linear[2, :] - (zeta - z)).max() < 1e-7
            assert np.abs(bm.translation - [0.0, 0.0, z]).max() < 1e-7
            done += 1

    report(capfd, 5, "four probe states with output sigma_z means: "
                     "zeta' = zeta - z closed form", body)


def test_criterion_06_preparator_reduction(capfd, rng):
    def body():
        for _ in range(20):
            xi = random_state(2, rng)
            choi = preparator_choi(xi)
            assert abs(process_entropy(choi) - (1.0 + von_neumann_entropy(xi))) < 1e-9
            # preparator observation level: output tomography of any probe
            t = density_to_bloch(xi)
            cons = tuple(
                Constraint(np.kron(ID2, P), float(t[a]), label="xyz"[a])
                for a, P in enumerate(PAULIS)
            )
            sol = solve_maxent(ObservationLevel(d=2, constraints=cons))
            xi_channel = apply_from_choi(sol.choi, 0.5 * ID2)
            state_cons = [
                Constraint(P, float(t[a]), label="xyz"[a])
                for a, P in enumerate(PAULIS)
            ]
            xi_state, _ = solve_state_maxent(state_cons, 2)
            assert frobenius(xi_channel - xi_state) < 1e-7
            assert frobenius(xi_channel - xi) < 1e-7

    report(capfd, 6, "preparator channels: entropy identity and reduction "
                     "to state-level MaxEnt", body)


def test_criterion_07_biased_estimation(capfd, rng):
    def body():
        rho0 = bloch_to_density([0.0, 0.0, 1.0])
        cons = tuple(
            Constraint(reduce_ancilla_free(rho0, P), target, label=f"out_{a}")
            for (a, P), target in zip(enumerate((PAULI_X, PAULI_Y, PAULI_Z)),
                                      (0.0, 0.0, 1.0))
        )
        obs = ObservationLevel(d=2, constraints=cons)
        identity = choi_from_apply(lambda r: r, 2)
        dephase = choi_from_apply(
            lambda r: np.diag(np.diag(r).copy()).astype(complex), 2)
        mix_x = ChoiState(2, 0.5 * identity.matrix
                          + 0.5 * choi_from_apply(
                              lambda r: PAULI_X @ r @ PAULI_X, 2).matrix)
        expected = [identity.matrix, dephase.matrix, identity.matrix]
        priors = [identity, dephase, mix_x]
        for prior, target in zip(priors, expected):
            sol = solve_biased(obs, PriorChannel(prior))
            assert frobenius(sol.choi.matrix - target) < 1e-7
        # the flat prior reproduces the unbiased estimate
        flat = PriorChannel(ChoiState(2, np.eye(4) / 4))
        for _ in range(10):
            truth = random_channel(2, 2, rng)
            specs = [
                ProcessMeasurementSpec("ancilla_free", state=random_state(2, rng),
                                       observable=random_hermitian(2, rng))
                for _ in range(3)
            ]
            level = simulate_means(truth, specs)
            plain = solve_maxent(level)
            biased = solve_biased(level, flat)
            assert frobenius(plain.choi.matrix - biased.choi.matrix) < 1e-8

    report(capfd, 7, "biased estimation: three prior examples and the "
                     "flat-prior equivalence", body)


def test_criterion_08_reduction_theorem(capfd, rng):
    def body():
        t0 = time.perf_counter()
        for trial in range(100):
            choi = random_channel(2, int(rng.integers(1, 5)), rng)
            D = 1 + (trial % 2)
            if D == 1:
                rho = random_state(2, rng)
                F = random_hermitian(2, rng)
                X = reduce_ancilla_free(rho, F)
                direct = np.trace(F @ apply_from_choi(choi, rho)).real
            else:
                Omega = random_state(2 * D, rng)
                F = random_hermitian(2 * D, rng)
                X = reduce_ancilla_assisted(Omega, F, 2)
                out = np.zeros((2 * D, 2 * D), dtype=complex)
                for j in range(D):
                    for k in range(D):
                        out[j * 2:(j + 1) * 2, k * 2:(k + 1) * 2] = _apply_linear(
                            choi.matrix, 2,
                            Omega[j * 2:(j + 1) * 2, k * 2:(k + 1) * 2])
                direct = np.trace(F @ out).real
            assert abs(expectation(choi.matrix, X) - direct) <= 1e-10
        assert time.perf_counter() - t0 < 5.0

    report(capfd, 8, "reduction theorem on 100 random triples, < 5 s", body)


def test_criterion_09_property_suites(capfd, rng):
    def body():
        t0 = time.perf_counter()
        # unitary invariance of the process entropy
        for _ in range(50):
            choi = random_channel(2, int(rng.integers(1, 5)), rng)
            U, V = random_unitary(2, rng), random_unitary(2, rng)
            conj = choi_from_apply(
                lambda r: U @ _apply_linear(choi.matrix, 2, V @ r @ dag(V)) @ dag(U),
                2)
            assert abs(process_entropy(conj) - process_entropy(choi)) < 1e-9
        # concavity in the channel
        for _ in range(50):
            c1 = random_channel(2, 2, rng)
            c2 = random_channel(2, 2, rng)
            lam = rng.uniform(0.05, 0.95)
            mix = ChoiState(2, lam * c1.matrix + (1 - lam) * c2.matrix)
            assert process_entropy(mix) >= (lam * process_entropy(c1)
                                            + (1 - lam) * process_entropy(c2)
                                            - 1e-9)
        # zero entropy only for (nearly) unitary channels
        for _ in range(50):
            choi = choi_from_apply(
                lambda r, U=random_unitary(2, rng): U @ r @ dag(U), 2)
            assert process_entropy(choi) < 1e-6
            purity = np.trace(choi.matrix @ choi.matrix).real
            assert purity > 1.0 - 1e-5
        # dual gradient against central finite differences
        for _ in range(50):
            cons = [
                Constraint(random_hermitian(4, rng, scale=0.7), 0.0, label=f"c{j}")
                for j in range(2)
            ]
            lam = rng.standard_normal(2) * 0.4
            grad = dual_eval(lam, cons).gradient
            h = 1e-6
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (dual_eval(lam + e, cons).value
                      - dual_eval(lam - e, cons).value) / (2 * h)
                assert abs(fd - grad[j]) < 1e-6 * max(1.0, abs(fd))
        # complete information recovers the channel exactly
        specs = [
            ProcessMeasurementSpec("raw", operator=np.kron(Pa, Pb),
                                   label=f"p{a}{b}")
            for a, Pa in enumerate((ID2, PAULI_X, PAULI_Y, PAULI_Z))
            for b, Pb in enumerate((PAULI_X, PAULI_Y, PAULI_Z))
        ]
        for _ in range(50):
            truth = random_channel(2, int(rng.integers(1, 5)), rng)
            sol = solve_maxent(simulate_means(truth, specs))
            assert frobenius(sol.choi.matrix - truth.matrix) < 1e-7
        assert time.perf_counter() - t0 < 60.0

    report(capfd, 9, "property suites (invariance, concavity, purity, dual "
                     "gradient, complete information), < 60 s", body)


def test_criterion_10_cli_end_to_end(capfd, rng, tmp_path):
    def body():
        from procmaxent.cli import main

        # simulate -> estimate round trip on a random channel with an
        # informationally complete design
        truth = random_channel(2, 3, rng)
        channel_path = tmp_path / "channel.json"
        channel_path.write_text(json.dumps({
            "dimension": 2, "kind": "choi",
            "choi": {"re": truth.matrix.real.tolist(),
                     "im": truth.matrix.imag.tolist()},
        }))
        observed = tmp_path / "observed.json"
        estimated = tmp_path / "estimated.json"
        assert main(["simulate", str(channel_path),
                     str(FIXTURES / "design_ic.json"), "-o", str(observed)]) == 0
        assert main(["estimate", str(observed), "-o", str(estimated)]) == 0
        doc = json.loads(estimated.read_text())
        omega = (np.asarray(doc["choi"]["re"]) + 1j * np.asarray(doc["choi"]["im"]))
        assert frobenius(omega - truth.matrix) < 1e-7

        def run(fixture):
            out = tmp_path / f"{fixture}.out.json"
            assert main(["estimate", str(FIXTURES / f"{fixture}.json"),
                         "-o", str(out)]) == 0
            d = json.loads(out.read_text())
            M = np.asarray(d["bloch_map"]["linear"])
            v = np.asarray(d["bloch_map"]["translation"])
            return M, v

        # mixed probe: constant channel onto (I + 0.5 sigma_z)/2
        M, v = run("o1_mixed")
        assert np.abs(M).max() < 1e-7 and np.abs(v - [0, 0, 0.5]).max() < 1e-7
        # pure probe along r = (0.6, 0, 0.8), mean 0.6: t -> (0,0, m(1+t.r)/2)
        M, v = run("o1_pure")
        r_hat = np.array([0.6, 0.0, 0.8])
        M_exp = np.zeros((3, 3))
        M_exp[2, :] = 0.5 * 0.6 * r_hat
        assert np.abs(M - M_exp).max() < 1e-7
        assert np.abs(v - [0, 0, 0.3]).max() < 1e-7
        # boundary mean 1.0: t -> (0, 0, (1 + t.r)/2)
        M, v = run("o1_boundary")
        M_exp = np.zeros((3, 3))
        M_exp[2, :] = 0.5 * r_hat
        assert np.abs(M - M_exp).max() < 1e-7
        assert np.abs(v - [0, 0, 0.5]).max() < 1e-7
        # output tomography of the maximally mixed probe
        M, v = run("o3")
        assert np.abs(M).max() < 1e-7
        assert np.abs(v - [0.2, -0.5, 0.6]).max() < 1e-7
        # four probe states: z = 0.1, zeta = (0.3, 0.1, 0.5)
        M, v = run("o4")
        zeta_p = np.array([0.3, 0.1, 0.5]) - 0.1
        M_exp = np.zeros((3, 3))
        M_exp[2, :] = zeta_p
        assert np.abs(M - M_exp).max() < 1e-7
        assert np.abs(v - [0, 0, 0.1]).max() < 1e-7

    report(capfd, 10, "CLI end to end: simulate/estimate round trip and all "
                      "worked-example fixtures", body)
