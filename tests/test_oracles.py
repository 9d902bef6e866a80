import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from procmaxent import (
    BoundaryCaseError,
    InvariantError,
    OracleFailureError,
    expectation,
    oracle_O1_mixed,
    oracle_O1_pure,
    oracle_O1_transcendental,
    oracle_O3,
    oracle_O4,
    solve_maxent,
)
from procmaxent.linalg import ID2, PAULI_Z, frobenius

from conftest import random_unit_vector


def check_self_consistent(result, tol=1e-10):
    """The oracle's Choi state must reproduce its own observation level."""
    for c in result.observation.full_constraints():
        assert abs(expectation(result.choi.matrix, c.operator) - c.target) < tol


class TestOracleO1Mixed:
    @pytest.mark.parametrize("m", [-0.9, -0.3, 0.0, 0.5, 0.99])
    def test_self_consistent(self, m):
        check_self_consistent(oracle_O1_mixed(m))

    def test_choi_form(self):
        res = oracle_O1_mixed(0.5)
        expected = 0.5 * np.kron(ID2, 0.5 * (ID2 + 0.5 * PAULI_Z))
        assert frobenius(res.choi.matrix - expected) < 1e-12

    def test_bloch_map_is_constant(self):
        res = oracle_O1_mixed(-0.4)
        assert np.allclose(res.bloch_map.linear, np.zeros((3, 3)))
        assert np.allclose(res.bloch_map.translation, [0, 0, -0.4])

    def test_multipliers(self):
        res = oracle_O1_mixed(0.5)
        assert res.multipliers["lam"] == 0.0
        assert res.multipliers["dd"] == pytest.approx(-np.arctanh(0.5))

    def test_extremes(self):
        assert oracle_O1_mixed(1.0).multipliers is None
        with pytest.raises(InvariantError):
            oracle_O1_mixed(1.1)

    def test_matches_solver(self):
        for m in (-0.7, 0.2, 0.9):
            res = oracle_O1_mixed(m)
            sol = solve_maxent(res.observation)
            assert frobenius(sol.choi.matrix - res.choi.matrix) < 1e-8


class TestOracleO1Pure:
    @pytest.mark.parametrize("m", [-0.95, -0.2, 0.0, 0.6, 0.95])
    def test_self_consistent(self, m, rng):
        check_self_consistent(oracle_O1_pure(m, random_unit_vector(rng)))

    def test_closed_form_multipliers(self):
        m = 0.6
        res = oracle_O1_pure(m, (0.0, 0.0, 1.0))
        dd = 0.25 * np.log((1 - m) / (1 + m))
        assert res.multipliers["dd"] == pytest.approx(dd, abs=1e-12)
        assert res.multipliers["lam"] == pytest.approx(
            0.5 * np.log(np.cosh(2 * dd)), abs=1e-12
        )

    def test_bloch_action(self, rng):
        m = 0.5
        r_hat = random_unit_vector(rng)
        res = oracle_O1_pure(m, r_hat)
        # t -> (0, 0, m (1 + t.r)/2)
        t = random_unit_vector(rng)
        out = res.bloch_map(t)
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(0.0, abs=1e-12)
        assert out[2] == pytest.approx(0.5 * m * (1 + t @ r_hat), abs=1e-12)

    def test_matches_solver(self, rng):
        for m in (-0.6, 0.3):
            r_hat = random_unit_vector(rng)
            res = oracle_O1_pure(m, r_hat)
            sol = solve_maxent(res.observation)
            assert frobenius(sol.choi.matrix - res.choi.matrix) < 1e-8

    def test_m_zero_is_depolarizing_to_equator(self):
        res = oracle_O1_pure(0.0, (0.0, 0.0, 1.0))
        assert np.allclose(res.bloch_map.translation, np.zeros(3), atol=1e-12)

    def test_boundary_raises(self):
        with pytest.raises(BoundaryCaseError):
            oracle_O1_pure(1.0, (0.0, 0.0, 1.0))

    def test_bad_direction(self):
        with pytest.raises(InvariantError):
            oracle_O1_pure(0.5, (0.0, 0.0, 2.0))


class TestOracleO1Transcendental:
    @pytest.mark.parametrize("r,m", [(0.5, 0.3), (0.2, -0.6), (0.9, 0.8),
                                     (0.99, 0.5), (0.3, 0.0)])
    def test_self_consistent(self, r, m):
        check_self_consistent(oracle_O1_transcendental(r, m), tol=1e-9)

    def test_matches_solver(self, rng):
        for r, m in [(0.5, 0.3), (0.8, -0.4)]:
            res = oracle_O1_transcendental(r, m, random_unit_vector(rng))
            sol = solve_maxent(res.observation)
            assert frobenius(sol.choi.matrix - res.choi.matrix) < 1e-8

    def test_limit_to_mixed(self):
        # r -> 0 reproduces the maximally mixed closed form
        res = oracle_O1_transcendental(1e-4, 0.4)
        mixed = oracle_O1_mixed(0.4)
        assert frobenius(res.choi.matrix - mixed.choi.matrix) < 1e-4
        assert res.multipliers["dd"] == pytest.approx(-np.arctanh(0.4), abs=1e-4)

    def test_limit_to_pure(self):
        # r -> 1 reproduces the pure-state closed form
        res = oracle_O1_transcendental(1.0 - 1e-7, 0.6)
        pure = oracle_O1_pure(0.6, (0.0, 0.0, 1.0))
        assert frobenius(res.choi.matrix - pure.choi.matrix) < 1e-5
        assert res.multipliers["dd"] == pytest.approx(pure.multipliers["dd"],
                                                      abs=1e-5)

    def test_no_root_raises_oracle_failure(self):
        # no seed reaches a residual of 1e-12 here; steps into overflow
        # are rejected without a warning
        with pytest.raises(OracleFailureError, match="no residual below 1e-12"):
            oracle_O1_transcendental(0.8, 0.97)

    def test_root_finder_needs_numpy_alone(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(pathlib.Path(__file__).resolve().parent.parent / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        code = ("import sys; from procmaxent import oracle_O1_transcendental; "
                "oracle_O1_transcendental(0.5, 0.3); print('scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_domain_checks(self):
        with pytest.raises(InvariantError):
            oracle_O1_transcendental(0.0, 0.5)
        with pytest.raises(InvariantError):
            oracle_O1_transcendental(1.0, 0.5)
        with pytest.raises(InvariantError):
            oracle_O1_transcendental(0.5, 1.0)


class TestOracleO3:
    def test_self_consistent(self, rng):
        check_self_consistent(oracle_O3(0.7 * random_unit_vector(rng)))

    def test_choi_form(self, rng):
        m = 0.6 * random_unit_vector(rng)
        res = oracle_O3(m)
        from procmaxent.oracles import _pauli_dot

        expected = 0.25 * np.kron(ID2, ID2 + _pauli_dot(m))
        assert frobenius(res.choi.matrix - expected) < 1e-12

    def test_matches_solver(self, rng):
        m = 0.8 * random_unit_vector(rng)
        res = oracle_O3(m)
        sol = solve_maxent(res.observation)
        assert frobenius(sol.choi.matrix - res.choi.matrix) < 1e-8

    def test_rejects_long_vector(self):
        with pytest.raises(InvariantError):
            oracle_O3([0.8, 0.8, 0.8])


class TestOracleO4:
    def test_self_consistent(self):
        check_self_consistent(oracle_O4(0.1, np.array([0.3, 0.1, 0.5])))

    def test_bloch_map(self):
        z, zeta = 0.2, np.array([0.4, -0.1, 0.3])
        res = oracle_O4(z, zeta)
        t = np.array([0.3, 0.5, -0.2])
        out = res.bloch_map(t)
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(0.0, abs=1e-12)
        assert out[2] == pytest.approx(z + (zeta - z) @ t, abs=1e-12)

    def test_matches_solver(self):
        res = oracle_O4(0.1, np.array([0.3, 0.1, 0.5]))
        sol = solve_maxent(res.observation)
        assert frobenius(sol.choi.matrix - res.choi.matrix) < 1e-8

    def test_zero_case_is_maximally_mixed(self):
        res = oracle_O4(0.0, np.zeros(3))
        assert frobenius(res.choi.matrix - np.eye(4) / 4) < 1e-12

    def test_rejects_non_positive(self):
        with pytest.raises(InvariantError):
            oracle_O4(0.9, np.array([0.9, 0.9, -0.9]))
