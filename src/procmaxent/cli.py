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
import math
import numbers
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
from .linalg import ID2, PAULI_X, PAULI_Y, PAULI_Z, bloch_to_density, dag, kron
from .observations import (
    Constraint,
    ObservationLevel,
    ProcessMeasurementSpec,
    sample_shots,
    simulate_means,
)
from .solver import (
    PriorChannel,
    prune_constraints,
    solve_biased,
    solve_maxent,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_DEPENDENT = 5

_PAULI_LETTERS = {"I": ID2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
_RHO_T_FORM = re.compile(r"^2\*rhoT\(x\)([IXYZ])$")
# Pauli factors in the observable of each measurement kind
_OBSERVABLE_FACTORS = {"ancilla_free": 1, "ancilla_assisted": 2}


class ParseError(ProcMaxEntError, ValueError):
    """Malformed problem, channel or design document."""


# ---------------------------------------------------------------- parsing

def _float_array(value, what):
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: expected a rectangular array of numbers ({exc})") from exc


def _matrix_from_json(obj, what="matrix"):
    if not isinstance(obj, dict) or "re" not in obj:
        raise ParseError(f"{what}: expected an object with 're' (and optional 'im')")
    re_part = _float_array(obj["re"], f"{what} 're'")
    im_part = _float_array(obj.get("im", np.zeros_like(re_part)), f"{what} 'im'")
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
        op = kron(op, _PAULI_LETTERS[c])
    return op


def _parse_state(obj, what="state"):
    if isinstance(obj, dict) and "bloch" in obj:
        return bloch_to_density(_float_array(obj["bloch"], f"{what} 'bloch'"))
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
    if not isinstance(entry, dict) or not isinstance(entry.get("kind"), str):
        raise ParseError(f"constraint {index}: expected an object with a string 'kind'")
    kind = entry["kind"]
    label = entry.get("label", f"constraint:{index}")
    mean = entry.get("mean")
    if require_mean and mean is None:
        raise ParseError(f"constraint {index}: missing 'mean'")
    if mean is not None:
        # bool is an int subclass; a JSON true is not a mean
        if isinstance(mean, bool) or not isinstance(mean, numbers.Real):
            raise ParseError(f"constraint {index}: 'mean' must be a number, not {mean!r}")
        mean = float(mean)
    observable = entry.get("observable")
    if kind == "raw":
        raw = entry.get("operator")
        match = _RHO_T_FORM.match(raw) if isinstance(raw, str) else None
        if match is None:
            op = (_pauli_string(raw, 2) if isinstance(raw, str)
                  else _matrix_from_json(raw, f"constraint {index} operator"))
            return ProcessMeasurementSpec("raw", operator=op, mean=mean, label=label)
        if d != 2:
            raise ParseError(f"constraint {index}: rhoT shorthand needs d=2")
        kind, observable = "ancilla_free", match.group(1)
    if kind not in _OBSERVABLE_FACTORS:
        raise ParseError(f"constraint {index}: unknown kind {kind!r}")
    state = _parse_state(entry.get("state"), f"constraint {index} state")
    obs = _parse_observable(observable, _OBSERVABLE_FACTORS[kind],
                            f"constraint {index} observable")
    return ProcessMeasurementSpec(kind, state=state, observable=obs,
                                  mean=mean, label=label)


def _finite(text):
    # json reads NaN, Infinity and -Infinity, and 1e999 as inf
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text:.24}")
    return value


def _integer(text):
    _finite(text)  # an integer past the float range reads as inf
    return int(text)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_finite, parse_int=_integer,
                             parse_constant=_finite)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def _dimension(doc, what):
    d = doc["dimension"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ParseError(f"{what}: 'dimension' must be a positive integer, not {d!r}")
    return d


def _load_specs(path, require_mean):
    """(d, specs, doc) of a problem or design file, whose entries sit
    under 'measurements', else under 'constraints'."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or "dimension" not in doc:
        raise ParseError(f"{path}: expected an object with 'dimension'")
    d = _dimension(doc, path)
    key = "measurements" if "measurements" in doc else "constraints"
    if key not in doc:
        raise ParseError(f"{path}: expected 'measurements' or 'constraints'")
    if not isinstance(doc[key], list):
        raise ParseError(f"{path}: '{key}' must be a list, not {type(doc[key]).__name__}")
    return d, [_parse_spec(entry, d, i, require_mean)
               for i, entry in enumerate(doc[key])], doc


def load_problem(path):
    """Parse a problem file into (ObservationLevel, prior)."""
    d, specs, doc = _load_specs(path, require_mean=True)
    if "solver" in doc:
        raise ParseError(f"{path}: unknown key 'solver': the solver has no options")
    cons = tuple(
        Constraint(spec.reduce(d), spec.mean, label=spec.label) for spec in specs
    )
    obs = ObservationLevel(d=d, constraints=cons)
    prior = None
    pdoc = doc.get("prior")
    if pdoc is not None and not isinstance(pdoc, dict):
        raise ParseError(f"{path}: 'prior' must be an object, not {type(pdoc).__name__}")
    if pdoc and pdoc.get("kind", "none") != "none":
        prior = PriorChannel(_channel_from_doc(pdoc, d))
    return obs, prior


def _channel_from_doc(doc, d=None):
    kind = doc.get("kind", "choi")
    if d is None:
        if "dimension" not in doc:
            raise ParseError("channel document missing 'dimension'")
        d = _dimension(doc, "channel document")
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
    d, specs, doc = _load_specs(path, require_mean=False)
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
    obs, prior = load_problem(args.problem)
    if args.biased:
        prior = PriorChannel(load_channel(args.biased))
    if prior is not None:
        solution = solve_biased(obs, prior)
    else:
        solution = solve_maxent(obs)
    _dump_json(result_document(solution, obs.d), args.output)
    return EXIT_OK


def cmd_simulate(args):
    if args.shots >= 2 ** 63:
        raise ParseError(f"--shots {args.shots} exceeds 2**63 - 1, the most that numpy draws")
    choi = load_channel(args.channel)
    d, specs, _ = load_design(args.design)
    if d != choi.d:
        raise ParseError(
            f"design dimension {d} does not match channel dimension {choi.d}"
        )
    obs = simulate_means(choi, specs)
    # one stream for the run, so each measurement draws its own shots
    rng = np.random.default_rng(args.seed)
    out_cons = []
    for spec, con in zip(specs, obs.constraints):
        mean = con.target
        if args.shots:
            if abs(mean) > 1.0:
                raise ParseError(
                    f"{con.label}: mean {mean:.6g} outside [-1, 1]; shot sampling "
                    "models +/-1-valued observables only"
                )
            mean = sample_shots(mean, args.shots, rng)
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
    obs, prior = load_problem(args.problem)
    for name in ("parse", "dimensions", "independence", "spectral-range"):
        print(f"ok   {name}")
    if prior is not None:
        V0 = prior.frame
        try:
            prune_constraints(dag(V0) @ obs.operators @ V0, obs.targets, obs.labels)
        except InfeasibleError as exc:
            print(f"FAIL prior-support  {exc}")
            return EXIT_INFEASIBLE
        print("ok   prior-support")
    return EXIT_OK


# ---------------------------------------------------------------- entry

def _count(text):
    """A non-negative integer option; anything else is a usage error (exit 2)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, not {text!r}")
    return int(text)


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
    p.add_argument("--shots", type=_count, default=0,
                   help="sample finite statistics instead of exact means")
    p.add_argument("--seed", type=_count, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("entropy", help="report the process entropy of a channel")
    p.add_argument("channel")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("check", help="validate a problem file without solving")
    p.add_argument("problem")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
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
