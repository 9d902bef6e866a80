"""procmaxent benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload interior --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src and
nothing is installed.  One process, one estimate at a time (a closed
loop with one client), BLAS pinned to one thread for the whole process
tree.  An estimate runs from the measurement record to the returned
solution (`interior`, `boundary`) or is one `procmaxent estimate`
process from launch to exit (`cli`).  Every run repeats whole rounds of
the same problems until --seconds have passed, and checks every output
with the independent code in checks.py.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run and writes its spans under perfbench/results/.
See perfbench/README.md.
"""

import os
import sys
import time

T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path[:0] = [str(HERE), str(SRC)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import problems  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("interior", "boundary", "cli")
IMPORT_REPEATS = 3         # cli.import_ms is the median of this many imports
CHILD_TIMEOUT_S = 150


class EstimateFailed(Exception):
    """The program refused an estimate (an exception or a non-zero exit)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_program(need_cli):
    """The program's modules, imported from ./src."""
    import procmaxent
    from procmaxent import channels, observations, solver
    if Path(procmaxent.__file__).resolve().parent != SRC / "procmaxent":
        raise SystemExit(f"procmaxent imported from {procmaxent.__file__}, not {SRC}")
    cli = None
    if need_cli:
        from procmaxent import cli
    return SimpleNamespace(channels=channels, observations=observations, solver=solver,
                           cli=cli)


# ------------------------------------------------------------ jobs

class LibraryJob:
    """One problem estimated through the library API."""

    def __init__(self, problem, pm):
        self.problem = problem
        self.obs, self.solver = pm.observations, pm.solver
        self.specs = [self.obs.ProcessMeasurementSpec(kind, state=state, observable=F,
                                                      label=label)
                      for kind, state, F, label in problem.measurements]
        self.prior = None
        if problem.prior is not None:
            self.prior = self.solver.PriorChannel(
                pm.channels.ChoiState(problem.d, problem.prior))

    def estimate(self):
        p = self.problem
        cons = tuple(self.obs.Constraint(spec.reduce(p.d), x, label=spec.label)
                     for spec, x in zip(self.specs, p.means))
        level = self.obs.ObservationLevel(d=p.d, constraints=cons)
        if p.solver == "maxent":
            return self.solver.solve_maxent(level)
        if p.solver == "biased":
            return self.solver.solve_biased(level, self.prior)
        return self.solver.boundary_resolve(level)

    def verify(self, solution):
        checks.check_estimate(self.problem, np.asarray(solution.choi.matrix))
        return solution.iterations


class CliJob:
    """One problem file estimated by `procmaxent estimate`."""

    def __init__(self, problem, workdir, pm):
        self.problem = problem
        self.cli = pm.cli
        self.out = workdir / f"estimate-{problem.pid}.json"
        self.argv = ["estimate", str(problem.files["problem"]), "-o", str(self.out)]
        if "biased" in problem.files:
            self.argv += ["--biased", str(problem.files["biased"])]
        self.in_process = False
        self.env = child_env()

    def estimate(self):
        self.out.unlink(missing_ok=True)
        if self.in_process:
            code = self.cli.main(self.argv)
            if code != 0:
                raise EstimateFailed(f"procmaxent.cli.main returned {code}")
            return self.out
        run = subprocess.run([sys.executable, "-m", "procmaxent.cli"] + self.argv,
                             env=self.env, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        if run.returncode != 0:
            last = (run.stderr.strip().splitlines() or [""])[-1]
            raise EstimateFailed(f"exit {run.returncode}: {last}")
        return self.out

    def verify(self, out):
        try:
            doc = json.loads(out.read_text())
            omega = problems.matrix_from_json(doc["choi"])
            kraus = [problems.matrix_from_json(A) for A in doc["kraus"]]
            iterations = doc["diagnostics"]["iterations"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise checks.CheckFailed(f"unreadable result document: {exc!r}") from exc
        checks.check_estimate(self.problem, omega)
        checks.check_kraus(kraus, omega)
        return iterations


# ------------------------------------------------------------ set-up

def setup(workload, seed, trace, workdir):
    pm = import_program(need_cli=trace or workload == "cli")
    if workload == "interior":
        plist = problems.interior()
    elif workload == "boundary":
        plist = problems.boundary(seed)
    else:
        plist = problems.cli(workdir, pm.cli.main)
    # warm-up, the same for every seed: the first smallest problem of each
    # dimension among those not drawn from the seed
    warm = {}
    for p in plist:
        if not p.seeded and (p.d not in warm
                             or len(p.measurements) < len(warm[p.d].measurements)):
            warm[p.d] = p
    # the seed fixes the order in which every round runs the problems
    order = np.random.default_rng([0, seed]).permutation(len(plist))
    plist = [plist[i] for i in order]
    if workload == "cli":
        # no warm-up launch: the import of procmaxent.cli above and the
        # `simulate` calls have already read and compiled every module a
        # launch loads
        return [CliJob(p, workdir, pm) for p in plist]
    jobs = [LibraryJob(p, pm) for p in plist]
    for job in jobs:
        if any(job.problem is p for p in warm.values()):
            job.estimate()
    return jobs


def import_probe():
    """Time of `import procmaxent.cli` in a fresh interpreter that has
    already imported numpy."""
    code = ("import time, numpy; t = time.perf_counter(); import procmaxent.cli; "
            "print(time.perf_counter() - t)")
    run = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                         cwd=ROOT)
    if run.returncode != 0:
        raise RuntimeError(f"import probe failed: {run.stderr.strip()[-500:]}")
    return float(run.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ timed phase

class Tally:
    def __init__(self):
        self.latencies = []
        self.attempted = self.failed = self.passed = 0
        self.wrong = {}        # pid -> check message: outputs that are wrong
        self.refused = {}      # pid -> error message: estimates that raised
        self.iterations = []

    def run(self, job, tracer=None):
        """Time one estimate, then check its output (untimed)."""
        result = None
        self.attempted += 1
        root = tracer.begin("estimate", root=True) if tracer else None
        t = time.perf_counter()
        try:
            result = job.estimate()
        except Exception as exc:  # the program's refusal is a failed estimate
            error = exc
        else:
            error = None
        finally:
            self.latencies.append(time.perf_counter() - t)
            if tracer:
                tracer.end(root)
        if error is not None:
            self.failed += 1
            self.refused.setdefault(job.problem.pid, f"{type(error).__name__}: {error}")
            return None
        try:
            iterations = job.verify(result)
        except checks.CheckFailed as exc:
            self.failed += 1
            self.wrong.setdefault(job.problem.pid, str(exc))
            return None
        self.passed += 1
        self.iterations.append(iterations)
        return result


def timed_phase(jobs, seconds):
    tally = Tally()
    start = time.perf_counter()
    while True:
        for job in jobs:
            tally.run(job)
        if time.perf_counter() - start >= seconds:
            break
    return tally, time.perf_counter() - start


def traced_phase(jobs, seconds, cli_in_process):
    """Each round runs every problem untraced, then traced; per-layer
    averages come from the traced passes, the tracing overhead from the
    pair."""
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    if cli_in_process:
        for job in jobs:
            job.in_process = True
    start = time.perf_counter()
    while True:
        for job in jobs:
            plain.run(job)
        tracer.install()
        try:
            for job in jobs:
                traced.run(job, tracer)
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            break
    return tracer, plain, traced


def quantile_ms(values, q):
    return 1e3 * float(np.percentile(values, q))


def report_failures(tally):
    for pid, msg in sorted(tally.refused.items()):
        print(f"failed (refused) {pid}: {msg}", file=sys.stderr)
    for pid, msg in sorted(tally.wrong.items()):
        print(f"failed (wrong output) {pid}: {msg}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = setup(args.workload, args.seed, args.trace, workdir)
        setup_s = time.perf_counter() - T0
        if args.trace:
            result = run_traced(args, jobs)
        else:
            result = run_untraced(args, jobs, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_untraced(args, jobs, setup_s):
    tally, elapsed = timed_phase(jobs, args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    report_failures(tally)
    print(f"{args.workload}: {tally.attempted} estimates in {elapsed:.1f} s, "
          f"set-up {setup_s:.3f} s", file=sys.stderr)
    metrics = {
        "setup_s": (setup_s, "s"),
        "estimates_per_s": (tally.passed / elapsed, "1/s"),
        "estimate_ms.p50": (quantile_ms(tally.latencies, 50), "ms"),
        "estimate_ms.p90": (quantile_ms(tally.latencies, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return result_line(tally.wrong, tally.attempted, tally.failed, metrics)


def run_traced(args, jobs):
    tracer, plain, traced = traced_phase(jobs, args.seconds,
                                         cli_in_process=args.workload == "cli")
    imports = [import_probe() for _ in range(IMPORT_REPEATS)]
    layers = tracer.layer_metrics(traced.attempted)
    layers["solver.iterations"] = (float(np.mean(traced.iterations))
                                   if traced.iterations else 0.0)
    layers["cli.import_ms"] = 1e3 * statistics.median(imports)
    overhead = sum(traced.latencies) / sum(plain.latencies) - 1.0
    report_failures(traced)
    print(f"{args.workload}: {traced.attempted} traced estimates, tracing overhead "
          f"{100 * overhead:.1f} %", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json", {
        "workload": args.workload, "seed": args.seed, "estimates": traced.attempted,
        "tracing_overhead": overhead, "layers": layers,
        "failed": sorted(traced.refused) + sorted(traced.wrong)})
    units = {"solver.iterations": "count", "linalg.eigh_calls": "count",
             "linalg.lstsq_calls": "count"}
    metrics = {k: (v, units.get(k, "ms")) for k, v in layers.items()}
    return result_line({**plain.wrong, **traced.wrong}, plain.attempted + traced.attempted,
                       plain.failed + traced.failed, metrics)


def result_line(wrong, attempted, failed, metrics):
    """The last line of standard output; `correct` is false when any
    returned output failed a check."""
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
