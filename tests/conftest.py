import numpy as np
import pytest

from procmaxent import ProcessMeasurementSpec, observations, random_channel, simulate_means
from procmaxent.linalg import PAULIS, bloch_to_density, dag, hermitian_basis


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty memo of checked operators and levels for one test; the
    process-wide one is back afterwards."""
    memo = {}
    monkeypatch.setattr(observations, "_memo", memo)
    return memo


def random_state(n, rng):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    R = G @ dag(G)
    return R / np.trace(R).real


def random_hermitian(n, rng, scale=1.0):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (G + dag(G))


def random_unitary(n, rng):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_unit_vector(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def transpose_map_record(rng, probes=4):
    """(label, probe, Pauli, mean) of the transpose map, which is positive
    but not completely positive (Choi matrix SWAP/2), from random pure
    qubit probes each followed by the three Pauli measurements."""
    record = []
    for p in range(probes):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rho = np.outer(v, v.conj()) / np.vdot(v, v).real
        record += [(f"p{p}:{k}", rho, P, np.trace(P @ rho.T).real)
                   for k, P in enumerate(PAULIS)]
    return record


def probe_tomography(d, probes, rng):
    """Random pure probes, each followed by full output tomography in the
    generalized Gell-Mann basis; d**2 probes are informationally complete."""
    specs = []
    for p in range(probes):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        rho = np.outer(v, v.conj()) / np.vdot(v, v).real
        specs += [
            ProcessMeasurementSpec("ancilla_free", state=rho, observable=F,
                                   label=f"p{p}:{k}")
            for k, F in enumerate(hermitian_basis(d))
        ]
    return specs


def two_probe_qubit_record(seed):
    """(specs, observation level) of pure qubit probes with Bloch vectors
    (0, 0, 1) and (1, 0, 0), each followed by X, Y and Z, with the exact
    means of random_channel(2, 4, default_rng(seed)).  Newton takes
    several steps on it even from the least-squares feasible state."""
    truth = random_channel(2, 4, np.random.default_rng(seed))
    specs = [
        ProcessMeasurementSpec("ancilla_free", state=bloch_to_density(bloch),
                               observable=P, label=f"p{p}:{k}")
        for p, bloch in enumerate(([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]))
        for k, P in enumerate(PAULIS)
    ]
    return specs, simulate_means(truth, specs)
