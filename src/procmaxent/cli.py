"""Command-line front end: estimate, simulate, entropy, check.

Problem, channel and design files are JSON with complex matrices encoded
as {"re": [[...]], "im": [[...]]}; qubit states may be given as
{"bloch": [rx, ry, rz]} and qubit observables as Pauli strings ("Z",
"XX", "2*rhoT(x)Z").  All numeric output round-trips at full double
precision.

Exit codes: 0 success, 2 parse error, 3 infeasible / invalid channel,
4 non-convergence, 5 dependent constraints.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys

import numpy as np

from . import __version__
from .channels import (
    ChoiState,
    bloch_affine_map,
    choi_from_kraus,
    is_cptp,
    kraus_from_choi,
    process_entropy,
)
from .errors import (
    ConvergenceError,
    DependentConstraintsError,
    DimensionError,
    InfeasibleError,
    InvariantError,
    NotAChannelError,
    ProcMaxEntError,
)
from .linalg import ID2, PAULI_X, PAULI_Y, PAULI_Z, bloch_to_density
from .observations import ObservationLevel, ProcessMeasurementSpec, simulate_means
from .solver import PriorChannel, SolverOptions, solve_biased, solve_maxent

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_DEPENDENT = 5

_PAULI_LETTERS = {"I": ID2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
_RHO_T_FORM = re.compile(r"^2\*rhoT\(x\)([IXYZ])$")

log = logging.getLogger("procmaxent")


class ParseError(ProcMaxEntError, ValueError):
    """Malformed problem, channel or design document."""


# ---------------------------------------------------------------- parsing

def _matrix_from_json(obj, what="matrix"):
    if not isinstance(obj, dict) or "re" not in obj:
        raise ParseError(f"{what}: expected an object with 're' (and optional 'im')")
    re_part = np.asarray(obj["re"], dtype=float)
    im_part = np.asarray(obj.get("im", np.zeros_like(re_part)), dtype=float)
    if re_part.shape != im_part.shape or re_part.ndim != 2:
        raise ParseError(f"{what}: 're' and 'im' must be equal-shape 2-d arrays")
    return re_part + 1j * im_part


def _matrix_to_json(M):
    M = np.asarray(M, dtype=complex)
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


def _pauli_string(s, nfactors):
    if len(s) != nfactors or any(c not in _PAULI_LETTERS for c in s):
        raise ParseError(f"bad Pauli string {s!r} (expected {nfactors} of I/X/Y/Z)")
    op = _PAULI_LETTERS[s[0]]
    for c in s[1:]:
        op = np.kron(op, _PAULI_LETTERS[c])
    return op


def _parse_state(obj, what="state"):
    if isinstance(obj, dict) and "bloch" in obj:
        return bloch_to_density(np.asarray(obj["bloch"], dtype=float))
    if isinstance(obj, dict) and "re" in obj:
        return _matrix_from_json(obj, what)
    raise ParseError(f"{what}: expected {{'bloch': ...}} or a matrix object")


def _parse_observable(obj, nfactors, what="observable"):
    if isinstance(obj, str):
        return _pauli_string(obj, nfactors)
    if isinstance(obj, dict) and "re" in obj:
        return _matrix_from_json(obj, what)
    raise ParseError(f"{what}: expected a Pauli string or a matrix object")


def _parse_spec(entry, d, index, require_mean):
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ParseError(f"constraint {index}: expected an object with 'kind'")
    kind = entry["kind"]
    label = entry.get("label", f"constraint:{index}")
    mean = entry.get("mean")
    if require_mean and mean is None:
        raise ParseError(f"constraint {index}: missing 'mean'")
    if mean is not None:
        mean = float(mean)
    if kind == "raw":
        raw = entry.get("operator")
        if isinstance(raw, str):
            match = _RHO_T_FORM.match(raw)
            if match:
                if d != 2:
                    raise ParseError(f"constraint {index}: rhoT shorthand needs d=2")
                return ProcessMeasurementSpec(
                    "ancilla_free",
                    state=_parse_state(entry.get("state"), f"constraint {index} state"),
                    observable=_PAULI_LETTERS[match.group(1)],
                    mean=mean, label=label,
                )
            op = _pauli_string(raw, 2)
        else:
            op = _matrix_from_json(raw, f"constraint {index} operator")
        return ProcessMeasurementSpec("raw", operator=op, mean=mean, label=label)
    if kind == "ancilla_free":
        state = _parse_state(entry.get("state"), f"constraint {index} state")
        obs = _parse_observable(entry.get("observable"), 1,
                                f"constraint {index} observable")
        return ProcessMeasurementSpec("ancilla_free", state=state, observable=obs,
                                      mean=mean, label=label)
    if kind == "ancilla_assisted":
        state = _parse_state(entry.get("state"), f"constraint {index} state")
        obs = _parse_observable(entry.get("observable"), 2,
                                f"constraint {index} observable")
        return ProcessMeasurementSpec("ancilla_assisted", state=state, observable=obs,
                                      mean=mean, label=label)
    raise ParseError(f"constraint {index}: unknown kind {kind!r}")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def load_problem(path):
    """Parse a problem file into (ObservationLevel, prior, options, seed)."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or "dimension" not in doc:
        raise ParseError(f"{path}: expected an object with 'dimension'")
    d = int(doc["dimension"])
    specs = [
        _parse_spec(entry, d, i, require_mean=True)
        for i, entry in enumerate(doc.get("constraints", []))
    ]
    from .observations import Constraint
    cons = tuple(
        Constraint(spec.reduce(d), spec.mean, label=spec.label) for spec in specs
    )
    obs = ObservationLevel(d=d, constraints=cons)
    prior = None
    pdoc = doc.get("prior")
    if pdoc and pdoc.get("kind", "none") != "none":
        prior = PriorChannel(_channel_from_doc(pdoc, d))
    opts = _options_from_doc(doc.get("solver") or {})
    return obs, prior, opts, doc.get("seed")


def _options_from_doc(sdoc):
    if not isinstance(sdoc, dict):
        raise ParseError("'solver' must be an object")
    allowed = {"grad_tol", "max_iter", "multiplier_cap", "boundary_tol"}
    bad = set(sdoc) - allowed
    if bad:
        raise ParseError(f"unknown solver options: {sorted(bad)}")
    try:
        return SolverOptions(**sdoc)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad solver options: {exc}") from exc


def _channel_from_doc(doc, d=None):
    kind = doc.get("kind", "choi")
    if d is None:
        if "dimension" not in doc:
            raise ParseError("channel document missing 'dimension'")
        d = int(doc["dimension"])
    if kind == "choi":
        omega = _matrix_from_json(doc.get("choi"), "choi matrix")
        return ChoiState(d, omega)
    if kind == "kraus":
        ops = [_matrix_from_json(k, "kraus operator") for k in doc.get("kraus", [])]
        if not ops:
            raise ParseError("channel document has an empty 'kraus' list")
        return choi_from_kraus(ops, d)
    raise ParseError(f"unknown channel kind {kind!r}")


def load_channel(path):
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a channel object")
    return _channel_from_doc(doc)


def load_design(path):
    doc = _load_json(path)
    if not isinstance(doc, dict) or "dimension" not in doc:
        raise ParseError(f"{path}: expected an object with 'dimension'")
    d = int(doc["dimension"])
    entries = doc.get("measurements", doc.get("constraints", []))
    specs = [
        _parse_spec(entry, d, i, require_mean=False)
        for i, entry in enumerate(entries)
    ]
    if not specs:
        raise ParseError(f"{path}: design lists no measurements")
    return d, specs, doc


# ---------------------------------------------------------------- output

def _dump_json(doc, path):
    text = json.dumps(doc, indent=1, sort_keys=True)
    if path in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def result_document(solution, d):
    doc = {
        "tool_version": __version__,
        "dimension": d,
        "choi": _matrix_to_json(solution.choi.matrix),
        "entropy_bits": solution.entropy_bits,
        "log_partition": solution.log_partition,
        "multipliers": [
            {"label": lab, "value": float(val)}
            for lab, val in zip(solution.labels, solution.multipliers)
        ],
        "residuals": [
            {"label": lab, "value": float(val)}
            for lab, val in zip(solution.labels, solution.residuals)
        ],
        "kraus": [_matrix_to_json(A) for A in kraus_from_choi(solution.choi)],
        "diagnostics": {
            "iterations": solution.iterations,
            "boundary_flag": solution.boundary_flag,
        },
    }
    if d == 2:
        bm = bloch_affine_map(solution.choi)
        doc["bloch_map"] = {
            "linear": bm.linear.tolist(),
            "translation": bm.translation.tolist(),
        }
    return doc


# ---------------------------------------------------------------- commands

def cmd_estimate(args):
    obs, prior, opts, _ = load_problem(args.problem)
    if args.biased:
        prior = PriorChannel(load_channel(args.biased))
    if prior is not None:
        solution = solve_biased(obs, prior, opts)
    else:
        solution = solve_maxent(obs, opts)
    _dump_json(result_document(solution, obs.d), args.output)
    log.info("estimate converged in %d iterations (boundary=%s)",
             solution.iterations, solution.boundary_flag)
    return EXIT_OK


def cmd_simulate(args):
    choi = load_channel(args.channel)
    d, specs, _ = load_design(args.design)
    if d != choi.d:
        raise ParseError(
            f"design dimension {d} does not match channel dimension {choi.d}"
        )
    obs = simulate_means(choi, specs)
    from .observations import sample_shots
    out_cons = []
    for spec, con in zip(specs, obs.constraints):
        mean = con.target
        if args.shots:
            if abs(mean) > 1.0:
                raise ParseError(
                    f"{con.label}: mean {mean:.6g} outside [-1, 1]; shot sampling "
                    "models +/-1-valued observables only"
                )
            mean = sample_shots(mean, args.shots, args.seed)
        entry = {"kind": spec.kind, "mean": mean, "label": con.label}
        if spec.kind == "raw":
            entry["operator"] = _matrix_to_json(spec.operator)
        else:
            entry["state"] = _matrix_to_json(spec.state)
            entry["observable"] = _matrix_to_json(spec.observable)
        out_cons.append(entry)
    doc = {"dimension": d, "constraints": out_cons}
    if args.shots:
        doc["shots"] = args.shots
        doc["seed"] = args.seed
    _dump_json(doc, args.output)
    return EXIT_OK


def cmd_entropy(args):
    choi = load_channel(args.channel)
    report = is_cptp(choi.matrix)
    purity = float(np.trace(choi.matrix @ choi.matrix).real)
    print(f"process entropy: {process_entropy(choi):.12g} bits")
    print(f"choi purity:     {purity:.12g}")
    print(f"cptp check:      positive={report.positive} "
          f"(min eigenvalue {report.min_eigenvalue:.3e}), "
          f"trace_preserving={report.trace_preserving} "
          f"(deficit {report.tp_deficit:.3e})")
    return EXIT_OK


def cmd_check(args):
    rows = []

    def row(name, ok, detail=""):
        rows.append((name, ok, detail))

    try:
        obs, prior, opts, _ = load_problem(args.problem)
    except (ParseError, DimensionError) as exc:
        print(f"check: FAIL parse        {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DependentConstraintsError as exc:
        print(f"check: FAIL independence {exc}", file=sys.stderr)
        return EXIT_DEPENDENT
    except (InvariantError, InfeasibleError, NotAChannelError) as exc:
        print(f"check: FAIL feasibility  {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    row("parse", True)
    row("dimensions", True)
    row("independence", True)
    row("spectral-range", True)
    status = EXIT_OK
    if prior is not None:
        from .linalg import dag
        from .solver import prune_constraints
        V0, _ = prior.support()
        try:
            prune_constraints(dag(V0) @ obs.operators @ V0, obs.targets, obs.labels)
            row("prior-support", True)
        except InfeasibleError as exc:
            row("prior-support", False, str(exc))
            status = EXIT_INFEASIBLE
    for name, ok, detail in rows:
        mark = "ok  " if ok else "FAIL"
        print(f"{mark} {name}" + (f"  {detail}" if detail else ""))
    return status


# ---------------------------------------------------------------- entry

def build_parser():
    parser = argparse.ArgumentParser(
        prog="procmaxent",
        description="Maximum-entropy estimation of quantum channels from "
                    "incomplete process measurements.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="solve a problem file")
    p.add_argument("problem")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--biased", metavar="PRIOR_CHANNEL",
                   help="channel file used as the relative-entropy prior")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="fill a design's means from a channel")
    p.add_argument("channel")
    p.add_argument("design")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--shots", type=int, default=0,
                   help="sample finite statistics instead of exact means")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("entropy", help="report the process entropy of a channel")
    p.add_argument("channel")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("check", help="validate a problem file without solving")
    p.add_argument("problem")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("PROCMAXENT_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DimensionError) as exc:
        print(f"procmaxent: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DependentConstraintsError as exc:
        print(f"procmaxent: dependent constraints: {exc}", file=sys.stderr)
        return EXIT_DEPENDENT
    except (InfeasibleError, InvariantError, NotAChannelError) as exc:
        print(f"procmaxent: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"procmaxent: no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
