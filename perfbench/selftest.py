"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload briefly, untraced and traced, and checks the
   shape of the result line (keys, units, counts).
2. Shows that the checks are not vacuous: correct outputs of the program
   pass, and deliberately perturbed Choi matrices, Kraus lists and
   Bloch maps are caught.

Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def say(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        sys.exit(1)


def result_lines():
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for workload in run.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=180, cwd=HERE.parent)
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            names = {m["name"] for m in BENCHMARK[group]}
            ok = (proc.returncode == 0
                  and set(doc) == {"correct", "attempted", "failed", "metrics"}
                  and doc["correct"] is True and doc["attempted"] >= 1
                  and set(doc["metrics"]) == names
                  and all(doc["metrics"][k]["unit"] == units[k] for k in names)
                  and all(np.isfinite(doc["metrics"][k]["value"]) for k in names))
            say(ok, f"{workload} --trace {trace}: {doc['attempted']} attempted, "
                    f"{doc['failed']} failed")


def caught(check, *args):
    try:
        check(*args)
    except checks.CheckFailed:
        return True
    return False


def perturbations():
    rng = np.random.default_rng(0)
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        workdir = Path(tmp)
        jobs = {j.problem.pid: j for w in ("interior", "boundary")
                for j in run.setup(w, 1, False, workdir)}

        # a correct interior estimate passes; perturbed copies do not
        job = jobs["d3-maxent-3p-0"]
        omega = np.asarray(job.estimate().choi.matrix)
        p, d = job.problem, job.problem.d
        say(not caught(checks.check_estimate, p, omega), "correct estimate passes")
        G = rng.standard_normal(omega.shape) + 1j * rng.standard_normal(omega.shape)
        noise = 1e-6 * (G + G.conj().T)
        say(caught(checks.check_estimate, p, omega + noise),
            "Hermitian noise of size 1e-6 is caught")
        mixed = (1 - 1e-6) * omega + 1e-6 * np.eye(d * d) / d ** 2
        say(caught(checks.check_residuals, mixed, p.measurements, p.means),
            "a CPTP mixture with the depolarising channel misses the data")
        tilt = np.kron(np.diag([1.0, -1.0, 0.0]), np.eye(d) / d)
        say(caught(checks.check_channel, omega + 1e-6 * tilt, d),
            "a trace-preservation defect of 1e-6 is caught")
        say(caught(checks.check_maxent, p.truth, omega),
            "the true channel has less entropy than the estimate (MaxEnt check bites)")

        # informationally complete data: the estimate is the true channel
        job = jobs["d2-maxent-4p-0"]
        omega = np.asarray(job.estimate().choi.matrix)
        say(not caught(checks.check_unique, omega, job.problem.truth),
            "informationally complete estimate returns the true channel")
        say(caught(checks.check_unique, omega + 1e-5 * np.eye(4) / 4, job.problem.truth),
            "a 1e-5 shift from the determined channel is caught")

        # a rank-deficient boundary estimate: pushing it out of the cone
        job = jobs["bell-d2-0"]
        omega = np.asarray(job.estimate().choi.matrix)
        w, V = np.linalg.eigh(omega)
        kernel = V[:, :1] @ V[:, :1].conj().T
        say(caught(checks.check_channel, omega - 1e-6 * kernel, 2),
            "a negative eigenvalue of -1e-6 is caught")

        # biased estimates: the prior-relative-entropy ordering
        job = jobs["d3-biased-3p-1"]
        omega = np.asarray(job.estimate().choi.matrix)
        p = job.problem
        say(not caught(checks.check_min_relative_entropy, omega, p.truth, p.prior),
            "biased estimate is no farther from the prior than the true channel")
        say(caught(checks.check_min_relative_entropy, p.truth, omega, p.prior),
            "the true channel is farther from the prior (relative-entropy check bites)")

        # CLI output: closed form, Kraus list
        cli_jobs = {j.problem.pid: j for j in run.setup("cli", 1, False, workdir)}
        job = cli_jobs["o4"]
        out = job.estimate()
        say(job.verify(out) is not None, "CLI estimate of o4 matches the closed form")
        doc = json.loads(out.read_text())
        omega = run.problems.matrix_from_json(doc["choi"])
        swap = np.kron(checks.PAULIS[0], np.eye(2)) @ omega @ np.kron(checks.PAULIS[0],
                                                                      np.eye(2))
        say(caught(checks.check_bloch, swap, *job.problem.bloch),
            "o4 with its probes relabelled (a CPTP map) misses the closed form")
        kraus = [run.problems.matrix_from_json(A) for A in doc["kraus"]]
        kraus[0] = kraus[0] * (1 + 1e-6)
        say(caught(checks.check_kraus, kraus, omega), "a Kraus operator scaled by 1e-6 is caught")


if __name__ == "__main__":
    perturbations()
    result_lines()
    print("selftest passed")
