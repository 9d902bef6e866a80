"""Inputs of the three workloads.

A problem is one measurement record: the measurements (how the channel
was probed and what was observed), their means, the solver a user would
call, and what the benchmark knows independently about the answer (the
channel that generated the data, a prior, a closed form).

Problems that go through the program's Newton iteration are drawn from
fixed seed roots, the same for every --seed.  On roughly one random
problem in thirty that iteration creeps for up to 500 steps at the
round-off floor of the dual value, then returns or raises depending on
the last bits of the data (see README); a rotation of the basis alone
re-rolls it.  Seed-dependent draws would make the failure share and the
timings depend on the seed, so --seed draws only the unitaries of the
Bell-fidelity problems (solved on a face, without Newton steps) and the
order of each round (see run.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import PAULIS, choi_from_kraus, gell_mann, predicted_mean

# Interior channels are mixed with the completely depolarising channel at
# this weight, so every Choi eigenvalue is at least DEPOLARISE / d**2 and
# no estimate needs the face path; the edge of the channel set is the
# subject of `boundary`.
DEPOLARISE = 0.25

# Seed roots of the fixed draws, one per workload.
INTERIOR_ROOT = (1, 0)
BOUNDARY_ROOT = (2, 0)
CLI_ROOT = (3, 0)
RANK_DEFICIENT_ROOT = 2008
RANK_DEFICIENT_PER_RANK = 12

FIXTURES = Path(__file__).resolve().parent.parent / "demos" / "fixtures"
CLI_FIXTURES = ("o1_boundary", "o1_mixed", "o1_pure", "o3", "o4",
                "v_zero_to_zero", "v_zero_to_one")


@dataclass
class Problem:
    pid: str
    d: int
    measurements: list            # (kind, state, observable, label)
    means: list
    solver: str = "maxent"        # maxent | biased | resolve
    truth: np.ndarray | None = None   # a feasible channel (the generating one)
    prior: np.ndarray | None = None   # prior Choi matrix for `biased`
    unique: bool = False              # the data determine the channel
    bloch: tuple | None = None        # closed-form (linear, translation), d = 2
    seeded: bool = False              # drawn from --seed
    files: dict = field(default_factory=dict)   # CLI inputs written at set-up


# ------------------------------------------------------------ random objects

def unit_vector(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def projector(v):
    return np.outer(v, v.conj())


def haar_unitary(d, rng):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_density(d, rng):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_kraus(d, rank, rng):
    """Kraus operators of a random Stinespring isometry C^d -> C^rank (x) C^d."""
    G = rng.standard_normal((rank * d, d)) + 1j * rng.standard_normal((rank * d, d))
    V, _ = np.linalg.qr(G)
    return list(V.reshape(rank, d, d))


def interior_channel(d, rng):
    omega = choi_from_kraus(random_kraus(d, d * d, rng))
    return (1.0 - DEPOLARISE) * omega + DEPOLARISE * np.eye(d * d) / d ** 2


def unitary_choi(U):
    return choi_from_kraus([U])


# ------------------------------------------------------------ designs

def probe_design(d, n_probes, rng):
    """n_probes random pure test states, each followed by a full output
    tomography in the Gell-Mann basis; d**2 probes are informationally
    complete."""
    basis = gell_mann(d)
    out = []
    for p in range(n_probes):
        rho = projector(unit_vector(d, rng))
        out += [("ancilla_free", rho, F, f"p{p}:{k}") for k, F in enumerate(basis)]
    return out


def assisted_design(d, n_obs, rng):
    """One random entangled test state on C^d (x) C^d, n_obs random
    observables on the joint output."""
    Omega = projector(unit_vector(d * d, rng))
    out = []
    for k in range(n_obs):
        G = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        F = G + G.conj().T
        out.append(("ancilla_assisted", Omega, F / np.abs(np.linalg.eigvalsh(F)).max(),
                    f"a:{k}"))
    return out


def make(pid, d, measurements, truth, **kw):
    means = [predicted_mean(truth, k, s, F) for k, s, F, _ in measurements]
    return Problem(pid, d, measurements, means, truth=truth, **kw)


# ------------------------------------------------------------ interior

# (dimension, probes or "aa" for one assisted probe, solver, count), drawn
# in this order from one generator, so classes are only ever appended.
# The counts put p50 inside the cluster of d = 3 three-probe problems and
# p90 inside the cluster of d = 4 four-probe problems (see README).
INTERIOR_ROUND = (
    (2, 1, "maxent", 2), (2, 2, "maxent", 2), (2, 4, "maxent", 2),
    (2, "aa", "maxent", 1), (2, 2, "biased", 1),
    (3, 1, "maxent", 2), (3, 3, "maxent", 3), (3, 6, "maxent", 2),
    (3, 9, "maxent", 2), (3, "aa", "maxent", 1), (3, 3, "biased", 2),
    (4, 2, "maxent", 2), (4, 4, "maxent", 2), (4, 6, "maxent", 1),
    (3, 3, "maxent", 4), (4, 4, "maxent", 4), (2, 2, "maxent", 2),
)


def interior():
    rng = np.random.default_rng(INTERIOR_ROOT)
    out, seen = [], {}
    for d, probes, solver, count in INTERIOR_ROUND:
        for _ in range(count):
            truth = interior_channel(d, rng)
            if probes == "aa":
                meas = assisted_design(d, d * d + 2, rng)
            else:
                meas = probe_design(d, probes, rng)
            kw = {}
            if solver == "biased":
                kw["prior"] = interior_channel(d, rng)
            name = f"d{d}-{solver}-{probes}p"
            seen[name] = seen.get(name, -1) + 1
            out.append(make(f"{name}-{seen[name]}", d, meas, truth,
                            solver=solver, unique=probes == d * d, **kw))
    return out


# ------------------------------------------------------------ boundary

def fixed_rank_deficient():
    """Rank-1 and rank-2 qubit channels with informationally complete
    data; the same inputs for every seed."""
    out = []
    for rank in (1, 2):
        for s in range(RANK_DEFICIENT_PER_RANK):
            rng = np.random.default_rng([RANK_DEFICIENT_ROOT, rank, s])
            truth = choi_from_kraus(random_kraus(2, rank, rng))
            out.append(make(f"fixed-rank{rank}-{s:02d}", 2, probe_design(2, 4, rng),
                            truth, unique=True))
    return out


def bell(d, i, rng):
    """A unitary channel measured by its own Bell fidelity, mean 1: the
    target sits at the top of the observable's spectrum."""
    truth = unitary_choi(haar_unitary(d, rng))
    Psi = unitary_choi(np.eye(d))
    return make(f"bell-d{d}-{i}", d, [("ancilla_assisted", Psi, truth, "bell")],
                truth, unique=True)


def pole(d, i, rng, extra_probes=0):
    """Output tomography of a probe that a measure-and-prepare channel maps
    to a pure state, solved by boundary_resolve; with extra_probes, more
    random probes are measured as well."""
    B = haar_unitary(d, rng)
    outputs = [projector(unit_vector(d, rng))] + [random_density(d, rng)
                                                  for _ in range(d - 1)]
    truth = sum(np.kron(projector(B[:, k]).T, outputs[k]) for k in range(d)) / d
    probe = projector(B[:, 0])
    meas = [("ancilla_free", probe, F, f"out:{k}") for k, F in enumerate(gell_mann(d))]
    meas += probe_design(d, extra_probes, rng)
    return make(f"pole{'+' * extra_probes}-d{d}-{i}", d, meas, truth, solver="resolve")


def pole_and_probes(d, i, rng):
    """A pole problem with two more probes: the pure output is an extreme
    of the feasible set but of no single constraint operator, so the face
    must be found from diverging multipliers."""
    return pole(d, i, rng, extra_probes=2)


def biased_rank2(d, i, rng):
    """Relative-entropy estimate against a rank-2 prior (a mixture of two
    unitary channels) from data of another mixture of the same two."""
    U1, U2 = unitary_choi(haar_unitary(d, rng)), unitary_choi(haar_unitary(d, rng))
    prior = 0.7 * U1 + 0.3 * U2
    truth = 0.3 * U1 + 0.7 * U2
    return make(f"biased-rank2-d{d}-{i}", d, probe_design(d, 2, rng), truth,
                solver="biased", prior=prior)


# 24 fixed rank-deficient + 16 fixed + 5 seeded = 45 problems a round
FIXED_BOUNDARY = ((pole, 2, 3), (pole, 3, 3), (pole_and_probes, 2, 2),
                  (pole_and_probes, 3, 2), (biased_rank2, 2, 3), (biased_rank2, 3, 3))
SEEDED_BOUNDARY = ((bell, 2, 3), (bell, 3, 2))


def boundary(seed):
    fixed = np.random.default_rng(BOUNDARY_ROOT)
    seeded = np.random.default_rng([2, seed])
    drawn = [f(d, i, seeded) for f, d, count in SEEDED_BOUNDARY for i in range(count)]
    for p in drawn:
        p.seeded = True
    return (fixed_rank_deficient()
            + [f(d, i, fixed) for f, d, count in FIXED_BOUNDARY for i in range(count)]
            + drawn)


# ------------------------------------------------------------ cli

def matrix_json(M):
    M = np.asarray(M, dtype=complex)
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


def matrix_from_json(obj):
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj.get("im", 0.0))


def bloch_state(r):
    r = np.asarray(r, dtype=float)
    return 0.5 * (np.eye(2) + sum(c * P for c, P in zip(r, PAULIS)))


def pauli_string(s):
    letters = {"I": np.eye(2, dtype=complex), "X": PAULIS[0], "Y": PAULIS[1],
               "Z": PAULIS[2]}
    op = letters[s[0]]
    for c in s[1:]:
        op = np.kron(op, letters[c])
    return op


def parse_problem_file(path):
    """(d, measurements, means) of a problem file, read by the benchmark's
    own code; covers the forms the fixtures and `simulate` use."""
    doc = json.loads(Path(path).read_text())
    d = int(doc["dimension"])
    meas, means = [], []
    for j, c in enumerate(doc["constraints"]):
        st = c.get("state")
        state = bloch_state(st["bloch"]) if "bloch" in st else matrix_from_json(st)
        if c["kind"] == "raw":
            # "2*rhoT(x)P" is d rho^T (x) P at d = 2: an ancilla-free mean of P
            kind, obs = "ancilla_free", pauli_string(c["operator"][-1])
        else:
            kind, o = c["kind"], c["observable"]
            obs = pauli_string(o) if isinstance(o, str) else matrix_from_json(o)
        meas.append((kind, state, obs, c.get("label", f"constraint:{j}")))
        means.append(float(c["mean"]))
    return d, meas, means


def _bloch(state):
    return np.array([np.trace(P @ state).real for P in PAULIS])


def _pauli_axis(observable):
    return next(a for a, P in enumerate(PAULIS) if np.allclose(observable, P))


def fixture_expectation(name, meas, means):
    """What the benchmark knows of a fixture's answer: the paper's closed
    form of the Bloch map, or a feasible reference channel."""
    rows = [(_bloch(state), _pauli_axis(F), x) for (_, state, F, _), x in zip(meas, means)]
    M, v = np.zeros((3, 3)), np.zeros(3)
    if name in ("o1_mixed", "o3"):
        # output tomography of the maximally mixed probe: t -> m
        for _, axis, x in rows:
            v[axis] = x
        return {"bloch": (M, v)}
    if name in ("o1_pure", "o1_boundary"):
        # t -> (0, 0, m (1 + t.r)/2) for a pure probe with Bloch vector r;
        # at m = 1 this is the paper's boundary limit map
        (r, _, m), = rows
        M[2], v[2] = 0.5 * m * r, 0.5 * m
        return {"bloch": (M, v)}
    if name == "o4":
        # t -> (0, 0, z + zeta'.t) with zeta' = zeta - z
        z = next(x for r, _, x in rows if not r.any())
        for r, _, x in rows:
            if r.any():
                M[2, int(np.argmax(r))] = x - z
        v[2] = z
        return {"bloch": (M, v)}
    if name.startswith("v_zero_to_"):
        # measure-and-prepare reference: |0> -> the measured output, |1> ->
        # I/2; it meets the data, so the MaxEnt estimate has at least its
        # entropy
        for _, axis, x in rows:
            v[axis] = x
        truth = (np.kron(np.diag([1.0, 0.0]), bloch_state(v))
                 + np.kron(np.diag([0.0, 1.0]), 0.5 * np.eye(2))) / 2
        return {"truth": truth}
    raise KeyError(name)


def write_design(path, d, meas):
    doc = {"dimension": d, "measurements": [
        {"kind": k, "state": matrix_json(s), "observable": matrix_json(F), "label": lab}
        for k, s, F, lab in meas]}
    Path(path).write_text(json.dumps(doc))


# (name, dimension, probes, estimated with --biased against a full-rank
# prior) of the problems written by `procmaxent simulate`
CLI_SIMULATED = (("sim-d2-ic-0", 2, 4, False), ("sim-d2-ic-1", 2, 4, False),
                 ("sim-d3-3p-0", 3, 3, False), ("sim-d3-3p-1", 3, 3, False),
                 ("sim-d3-3p-2", 3, 3, False), ("biased-d2-2p-0", 2, 2, True))


def cli_simulated(workdir, simulate):
    """Problems written by `procmaxent simulate` (called as simulate(argv))
    from random channels; one is estimated with --biased."""
    rng = np.random.default_rng(CLI_ROOT)
    out = []
    for name, d, probes, biased in CLI_SIMULATED:
        truth = interior_channel(d, rng)
        meas = probe_design(d, probes, rng)
        ch, de, pr = (workdir / f"{name}-{part}.json" for part in ("channel", "design",
                                                                   "problem"))
        Path(ch).write_text(json.dumps({"dimension": d, "kind": "choi",
                                        "choi": matrix_json(truth)}))
        write_design(de, d, meas)
        simulate(["simulate", str(ch), str(de), "-o", str(pr)])
        d_file, meas_file, means = parse_problem_file(pr)
        expected = [predicted_mean(truth, k, s, F) for k, s, F, _ in meas_file]
        if d_file != d or np.abs(np.subtract(means, expected)).max() > 1e-12:
            raise RuntimeError(f"procmaxent simulate wrote wrong means for {name}")
        files = {"problem": pr}
        prior = None
        if biased:
            prior = interior_channel(d, rng)
            files["biased"] = workdir / f"{name}-prior.json"
            Path(files["biased"]).write_text(json.dumps(
                {"dimension": d, "kind": "choi", "choi": matrix_json(prior)}))
        out.append(Problem(name, d, meas_file, means, truth=truth, prior=prior,
                           unique=probes == d * d, files=files))
    return out


def cli(workdir, simulate):
    out = []
    for name in CLI_FIXTURES:
        path = FIXTURES / f"{name}.json"
        d, meas, means = parse_problem_file(path)
        out.append(Problem(name, d, meas, means, files={"problem": path},
                           **fixture_expectation(name, meas, means)))
    return out + cli_simulated(workdir, simulate)
