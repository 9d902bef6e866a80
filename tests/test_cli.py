import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from procmaxent import (
    ChoiState,
    PriorChannel,
    ProcessMeasurementSpec,
    is_cptp,
    maximally_entangled_state,
    random_channel,
    reduce_ancilla_assisted,
    reduce_ancilla_free,
    simulate_means,
    solve_biased,
    solve_maxent,
)
from procmaxent.cli import (
    EXIT_DEPENDENT,
    EXIT_INFEASIBLE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    ParseError,
    load_channel,
    load_problem,
    main,
    result_document,
)
from procmaxent.linalg import PAULI_X, PAULI_Y, PAULI_Z, bloch_to_density, frobenius

from conftest import probe_tomography, transpose_map_record, two_probe_qubit_record

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = str(ROOT / "demos" / "fixtures")


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def record_document(d, specs, means):
    """A problem file's document for ancilla-free specs with their means."""
    return {"dimension": d, "constraints": [
        {"kind": "ancilla_free", "state": matrix_doc(spec.state),
         "observable": matrix_doc(spec.observable), "mean": float(x), "label": spec.label}
        for spec, x in zip(specs, means)]}


def matrix_doc(M):
    M = np.asarray(M, dtype=complex)
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


def read_choi(doc):
    re = np.asarray(doc["choi"]["re"])
    im = np.asarray(doc["choi"]["im"])
    return re + 1j * im


def entry_problem(d=2, **fields):
    """A problem file with one ancilla-free entry; a field set to None is dropped."""
    entry = {"kind": "ancilla_free", "observable": "Z", "mean": 0.5,
             "state": {"bloch": [0.0, 0.0, 0.0]}, **fields}
    return {"dimension": d,
            "constraints": [{k: v for k, v in entry.items() if v is not None}]}


def kraus_channel(*shapes):
    return {"dimension": 2, "kind": "kraus",
            "kraus": [{"re": np.eye(*shape).tolist()} for shape in shapes]}


CHANNEL = f"{FIXTURES}/channel_diag.json"
DESIGN = f"{FIXTURES}/design_ic.json"
WIDE_KRAUS = kraus_channel((3, 3))

# (argv, documents written as {name}.json and named {name} in argv, message fragment)
MALFORMED = [
    pytest.param(["entropy", "{channel}"], {"channel": {"dimension": 2, "choi": {"im": [[0]]}}},
                 "expected an object with 're'", id="matrix-without-re"),
    pytest.param(["estimate", "{problem}"],
                 {"problem": entry_problem(state={"re": [[1, 0], [0, 0]], "im": [[0]]})},
                 "'re' and 'im' must be equal-shape", id="re-im-shapes"),
    pytest.param(["estimate", "{problem}"], {"problem": entry_problem(state="zero")},
                 "expected {'bloch': ...} or a matrix object", id="state-type"),
    pytest.param(["estimate", "{problem}"], {"problem": entry_problem(observable=5)},
                 "expected a Pauli string or a matrix object", id="observable-type"),
    pytest.param(["estimate", "{problem}"], {"problem": entry_problem(kind=None)},
                 "expected an object with a string 'kind'", id="no-kind"),
    pytest.param(["estimate", "{problem}"], {"problem": entry_problem(kind=["x"])},
                 "expected an object with a string 'kind'", id="list-kind"),
    pytest.param(["simulate", CHANNEL, "{design}"],
                 {"design": {"dimension": 2, "measurements": [{"kind": ["raw"]}]}},
                 "expected an object with a string 'kind'", id="list-kind-design"),
    pytest.param(["estimate", "{problem}"],
                 {"problem": entry_problem(3, kind="raw", operator="2*rhoT(x)Z")},
                 "rhoT shorthand needs d=2", id="rhoT-at-d3"),
    pytest.param(["estimate", "{problem}"], {"problem": entry_problem(kind="tomography")},
                 "unknown kind 'tomography'", id="unknown-kind"),
    pytest.param(["entropy", "{channel}"], {"channel": {"kind": "kraus", "kraus": []}},
                 "missing 'dimension'", id="channel-without-dimension"),
    pytest.param(["entropy", "{channel}"], {"channel": kraus_channel()},
                 "empty 'kraus' list", id="empty-kraus"),
    pytest.param(["entropy", "{channel}"], {"channel": {"dimension": 2, "kind": "ptm"}},
                 "unknown channel kind 'ptm'", id="unknown-channel-kind"),
    pytest.param(["entropy", "{channel}"], {"channel": [1, 2]},
                 "expected a channel object", id="channel-not-an-object"),
    pytest.param(["simulate", CHANNEL, "{design}"],
                 {"design": {"dimension": 2, "measurements": []}},
                 "design lists no measurements", id="empty-design"),
    pytest.param(["simulate", CHANNEL, "{design}"],
                 {"design": entry_problem(3, state={"re": np.eye(3).tolist()},
                                          observable={"re": np.eye(3).tolist()})},
                 "design dimension 3 does not match channel dimension 2", id="design-dimension"),
    pytest.param(["simulate", CHANNEL, "{design}", "--shots", "10"],
                 {"design": {"dimension": 2, "measurements": [
                     {"kind": "raw", "operator": {"re": np.diag([4, 0, 0, 0]).tolist()}}]}},
                 "outside [-1, 1]", id="shots-mean-outside"),
    pytest.param(["simulate", CHANNEL, DESIGN, "--shots", "100000000000000000000"], {},
                 "exceeds 2**63 - 1", id="shots-overflow"),
    pytest.param(["entropy", "{channel}"], {"channel": WIDE_KRAUS},
                 "Kraus operators must be 2 x 2", id="kraus-3x3"),
    pytest.param(["entropy", "{channel}"], {"channel": kraus_channel((3, 2))},
                 "Kraus operators must be 2 x 2", id="kraus-3x2"),
    pytest.param(["entropy", "{channel}"], {"channel": kraus_channel((2, 2), (1, 1))},
                 "Kraus operators must be 2 x 2", id="kraus-mixed"),
    pytest.param(["simulate", "{channel}", DESIGN], {"channel": WIDE_KRAUS},
                 "Kraus operators must be 2 x 2", id="kraus-simulate"),
    pytest.param(["estimate", f"{FIXTURES}/o1_mixed.json", "--biased", "{channel}"],
                 {"channel": WIDE_KRAUS}, "Kraus operators must be 2 x 2", id="kraus-biased"),
    pytest.param(["estimate", "{problem}"],
                 {"problem": {**entry_problem(), "prior": WIDE_KRAUS}},
                 "Kraus operators must be 2 x 2", id="kraus-prior"),
    pytest.param(["estimate", f"{FIXTURES}/o1_mixed.json", "--biased", "{channel}"],
                 {"channel": {"dimension": 3, "kind": "kraus", "kraus": [{"re": np.eye(3).tolist()}]}},
                 "prior channel dimension 3 does not match problem dimension 2",
                 id="biased-dimension"),
    pytest.param(["estimate", f"{FIXTURES}/o1_mixed.json", "-o", "/nonexistent/out.json"], {},
                 "cannot write /nonexistent/out.json", id="estimate-unwritable-output"),
    pytest.param(["simulate", CHANNEL, DESIGN, "-o", "/nonexistent/out.json"], {},
                 "cannot write /nonexistent/out.json", id="simulate-unwritable-output"),
]


def test_cli_import_does_not_load_scipy():
    # Every launch imports procmaxent.cli, which needs numpy alone.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys, procmaxent.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


class TestParsing:
    def test_load_problem_fixture(self):
        obs, prior = load_problem(f"{FIXTURES}/o1_mixed.json")
        assert obs.d == 2 and len(obs.constraints) == 1 and prior is None

    def test_load_channel_kraus(self):
        choi = load_channel(f"{FIXTURES}/channel_identity.json")
        assert frobenius(choi.matrix - maximally_entangled_state(2)) < 1e-12

    def test_missing_dimension(self, tmp_path):
        path = write_json(tmp_path, "bad.json", {"constraints": []})
        with pytest.raises(ParseError):
            load_problem(path)

    def test_bad_pauli_string(self, tmp_path):
        path = write_json(tmp_path, "bad.json", {
            "dimension": 2,
            "constraints": [{"kind": "raw", "operator": "IQ", "mean": 0.0}],
        })
        with pytest.raises(ParseError):
            load_problem(path)

    def test_both_measurement_kinds(self, tmp_path):
        bell = maximally_entangled_state(2)
        rho = np.array([[0.75, 0.25 - 0.1j], [0.25 + 0.1j, 0.25]])
        F = 0.6 * PAULI_X + 0.8 * PAULI_Z
        path = write_json(tmp_path, "problem.json", {"dimension": 2, "constraints": [
            {"kind": "ancilla_assisted", "state": matrix_doc(bell),
             "observable": "ZZ", "mean": 0.0},
            {"kind": "ancilla_free", "state": matrix_doc(rho),
             "observable": matrix_doc(F), "mean": 0.0},
        ]})
        obs, _ = load_problem(path)
        assert np.allclose(obs.operators[0],
                           reduce_ancilla_assisted(bell, np.kron(PAULI_Z, PAULI_Z), 2))
        assert np.allclose(obs.operators[1], reduce_ancilla_free(rho, F))

    def test_measurements_key(self, tmp_path, capsys):
        # problem and design files both read 'measurements', else 'constraints'
        doc = json.loads(pathlib.Path(f"{FIXTURES}/o1_mixed.json").read_text())
        doc["measurements"] = doc.pop("constraints")
        renamed = write_json(tmp_path, "renamed.json", doc)
        outs = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        for problem, out in zip((f"{FIXTURES}/o1_mixed.json", renamed), outs):
            assert main(["estimate", problem, "-o", out]) == EXIT_OK
        a, b = (json.loads(pathlib.Path(out).read_text())["multipliers"] for out in outs)
        assert a == b and any(m["label"] == "m" for m in b)

    def test_design_file_has_no_means(self, capsys):
        for command in ("estimate", "check"):
            assert main([command, f"{FIXTURES}/design_o3.json"]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert err.startswith("procmaxent: error:") and "missing 'mean'" in err

    @pytest.mark.parametrize("field, value", [("dimension", "two"), ("dimension", 2.7),
                                              ("dimension", True), ("mean", "abc")])
    def test_malformed_number_exit_code(self, tmp_path, capsys, field, value):
        doc = json.loads(pathlib.Path(f"{FIXTURES}/o1_mixed.json").read_text())
        if field == "dimension":
            doc["dimension"] = value
        else:
            doc["constraints"][0]["mean"] = value
        path = write_json(tmp_path, "problem.json", doc)
        assert main(["estimate", path]) == EXIT_PARSE
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "check"])
    def test_channel_file_is_not_a_problem(self, capsys, command):
        # a channel document has a 'dimension' but no entry list
        channels = sorted(pathlib.Path(FIXTURES).glob("channel_*.json"))
        assert len(channels) == 4
        for path in channels:
            assert main([command, str(path)]) == EXIT_PARSE
            assert "'measurements' or 'constraints'" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["mean", "bloch", "matrix", "solver"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999",
                                         pytest.param("1" + "0" * 400, id="huge-int")])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, where, literal):
        # json reads these literals; 1e999 and the integer overflow a float
        entry = {"kind": "ancilla_free", "observable": "Z", "mean": 0.5,
                 "state": {"bloch": [0.0, 0.0, 0.0]}}
        doc = {"dimension": 2, "constraints": [entry]}
        if where == "mean":
            entry["mean"] = "@"
        elif where == "bloch":
            entry["state"] = {"bloch": ["@", 0.0, 0.0]}
        elif where == "matrix":
            entry["state"] = {"re": [["@", 0.0], [0.0, 0.5]]}
        else:
            doc["solver"] = {"grad_tol": "@"}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        assert main(["estimate", str(path)]) == EXIT_PARSE
        assert "non-finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("entries", [5, "Z", {"kind": "raw"}])
    def test_entry_list_must_be_a_list(self, tmp_path, capsys, entries):
        path = write_json(tmp_path, "problem.json", {"dimension": 2, "constraints": entries})
        assert main(["estimate", path]) == EXIT_PARSE
        assert "'constraints' must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("where, value", [("bloch", "abc"), ("re", [[1, 0], [0]]),
                                              ("prior", 5)])
    def test_malformed_array_or_prior_exit_code(self, tmp_path, capsys, where, value):
        entry = {"kind": "ancilla_free", "observable": "Z", "mean": 0.5,
                 "state": {"bloch": [0.0, 0.0, 0.0]}}
        doc = {"dimension": 2, "constraints": [entry]}
        if where == "prior":
            doc["prior"] = value
        else:
            entry["state"] = {where: value}
        path = write_json(tmp_path, "problem.json", doc)
        assert main(["estimate", path]) == EXIT_PARSE
        assert f"'{where}'" in capsys.readouterr().err
        with pytest.raises(ParseError):
            load_problem(path)

    def test_unreadable_file_exit_code(self, capsys):
        assert main(["estimate", "/nonexistent/problem.json"]) == EXIT_PARSE

    def test_invalid_json_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["estimate", str(path)]) == EXIT_PARSE

    @pytest.mark.parametrize("argv, docs, fragment", MALFORMED)
    def test_malformed_document_exit_code(self, tmp_path, capsys, argv, docs, fragment):
        paths = {name: write_json(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
        assert main([arg.format(**paths) for arg in argv]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("procmaxent: error:") and fragment in err


class TestEstimate:
    def test_o1_mixed(self, tmp_path, capsys):
        out = str(tmp_path / "out.json")
        assert main(["estimate", f"{FIXTURES}/o1_mixed.json", "-o", out]) == EXIT_OK
        doc = json.loads(pathlib.Path(out).read_text())
        omega = read_choi(doc)
        expected = np.diag([0.375, 0.125, 0.375, 0.125])
        assert frobenius(omega - expected) < 1e-7
        assert doc["bloch_map"]["translation"][2] == pytest.approx(0.5, abs=1e-7)
        mult = {m["label"]: m["value"] for m in doc["multipliers"]}
        assert mult["m"] == pytest.approx(-np.arctanh(0.5), abs=1e-7)

    def test_mean_past_spectral_end_within_tolerance(self, tmp_path, capsys):
        # a mean 5e-10 above its spectral end is accepted as that end;
        # both estimates go to stdout, by default and as "-o -"
        doc = json.loads(pathlib.Path(f"{FIXTURES}/o1_mixed.json").read_text())
        docs = []
        for mean, extra in ((1.0, ["-o", "-"]), (1.0000000005, [])):
            doc["constraints"][0]["mean"] = mean
            path = write_json(tmp_path, "o1.json", doc)
            assert main(["estimate", path] + extra) == EXIT_OK
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[1]["diagnostics"]["boundary_flag"]
        assert frobenius(read_choi(docs[1]) - read_choi(docs[0])) < 1e-9

    def test_empty_problem_gives_maximally_mixed(self, tmp_path):
        out = str(tmp_path / "out.json")
        assert main(["estimate", f"{FIXTURES}/empty.json", "-o", out]) == EXIT_OK
        doc = json.loads(pathlib.Path(out).read_text())
        assert doc["entropy_bits"] == pytest.approx(2.0, abs=1e-9)
        assert frobenius(read_choi(doc) - np.eye(4) / 4) < 1e-9

    def test_output_round_trips_exactly(self, tmp_path):
        out = str(tmp_path / "out.json")
        main(["estimate", f"{FIXTURES}/o3.json", "-o", out])
        doc = json.loads(pathlib.Path(out).read_text())
        ChoiState(2, read_choi(doc))  # parses back into a valid channel

    def test_dependent_constraints_exit_code(self, capsys):
        assert main(["estimate", f"{FIXTURES}/dependent.json"]) == EXIT_DEPENDENT

    def test_out_of_range_target_exit_code(self, capsys):
        assert main(["estimate", f"{FIXTURES}/infeasible_range.json"]) == EXIT_INFEASIBLE

    def test_non_cp_record_exit_code(self, tmp_path, capsys, rng):
        # exact means of the transpose map determine SWAP/2, which is no channel
        path = write_json(tmp_path, "transpose.json", {"dimension": 2, "constraints": [
            {"kind": "ancilla_free", "state": matrix_doc(rho), "observable": matrix_doc(P),
             "mean": x, "label": label}
            for label, rho, P, x in transpose_map_record(rng)]})
        assert main(["estimate", path]) == EXIT_INFEASIBLE
        assert "eigenvalue -0.5 " in capsys.readouterr().err

    def test_biased_flag(self, tmp_path, capsys):
        out = str(tmp_path / "out.json")
        code = main(["estimate", f"{FIXTURES}/v_zero_to_zero.json",
                     "--biased", f"{FIXTURES}/channel_mix_x.json", "-o", out])
        assert code == EXIT_OK
        doc = json.loads(pathlib.Path(out).read_text())
        assert frobenius(read_choi(doc) - maximally_entangled_state(2)) < 1e-7

    def test_low_rank_record_is_not_infeasible(self, tmp_path):
        # exact means of a rank-2 qutrit channel, 2 probes: no single
        # constraint pins the face, but each probe's determined output is
        # singular, and the estimate is solved on the face that proves
        rng = np.random.default_rng([3, 2, 0])
        truth = random_channel(3, 2, rng)
        specs = probe_tomography(3, 2, rng)
        means = simulate_means(truth, specs).targets
        path = write_json(tmp_path, "low_rank.json", {"dimension": 3, "constraints": [
            {"kind": "ancilla_free", "state": matrix_doc(spec.state),
             "observable": matrix_doc(spec.observable), "mean": float(x), "label": spec.label}
            for spec, x in zip(specs, means)]})
        out = str(tmp_path / "out.json")
        assert main(["estimate", path, "-o", out]) == EXIT_OK
        doc = json.loads(pathlib.Path(out).read_text())
        assert max(r["value"] for r in doc["residuals"]) <= 1e-8
        report = is_cptp(read_choi(doc))
        assert report.positive and report.trace_preserving
        assert doc["diagnostics"]["boundary_flag"]

    def test_missed_pruned_target_exit_code(self, tmp_path, capsys):
        # exact means of a rank-1 qutrit channel, 2 probes: the estimate on
        # the probe face misses the pruned tp:6, which is no convergence
        # (exit 4), not an infeasible record (exit 3)
        rng = np.random.default_rng(163)
        truth = random_channel(3, 1, rng)
        specs = probe_tomography(3, 2, rng)
        means = simulate_means(truth, specs).targets
        path = write_json(tmp_path, "rank1.json", {"dimension": 3, "constraints": [
            {"kind": "ancilla_free", "state": matrix_doc(spec.state),
             "observable": matrix_doc(spec.observable), "mean": float(x), "label": spec.label}
            for spec, x in zip(specs, means)]})
        assert main(["estimate", path]) == EXIT_NO_CONVERGENCE

    def test_inline_prior(self, tmp_path, capsys):
        # an identity prior cannot support |0> -> |1>
        code = main(["estimate", f"{FIXTURES}/v_zero_to_one_identity_prior.json"])
        assert code == EXIT_INFEASIBLE


class TestSolverBlock:
    """The solver has no options: Newton's stop and budget are the module
    constants _GRAD_TOL and _MAX_ITER, which these tests patch, and a
    problem file's 'solver' object is an unknown key."""

    def test_iteration_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        # a record that Newton cannot finish in one step from its start
        specs, obs = two_probe_qubit_record(0)
        path = write_json(tmp_path, "record.json", record_document(2, specs, obs.targets))
        out = str(tmp_path / "out.json")
        assert main(["estimate", path, "-o", out]) == EXIT_OK
        assert json.loads(pathlib.Path(out).read_text())["diagnostics"]["iterations"] >= 2
        monkeypatch.setattr("procmaxent.solver._MAX_ITER", 1)
        assert main(["estimate", path]) == EXIT_NO_CONVERGENCE

    def test_loose_grad_tol_exit_code(self, tmp_path, capsys, monkeypatch):
        # exact means of a rank-1 qutrit channel, 2 probes: at _GRAD_TOL =
        # 1e-8 the estimate's marginal misses I/d by 4.7e-8, which is no
        # convergence (exit 4), not an infeasible record (exit 3)
        rng = np.random.default_rng(5)
        truth = random_channel(3, 1, rng)
        specs = probe_tomography(3, 2, rng)
        doc = record_document(3, specs, simulate_means(truth, specs).targets)
        monkeypatch.setattr("procmaxent.solver._GRAD_TOL", 1e-8)
        assert main(["estimate", write_json(tmp_path, "rank1.json", doc)]) == EXIT_NO_CONVERGENCE

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        # a file written for the old options must not silently change meaning
        doc = json.loads(pathlib.Path(f"{FIXTURES}/o1_mixed.json").read_text())
        doc["solver"] = {"grad_tol": 1e-12, "max_iter": 200}
        path = write_json(tmp_path, "problem.json", doc)
        for command in ("estimate", "check"):
            assert main([command, path]) == EXIT_PARSE
            assert "unknown key 'solver'" in capsys.readouterr().err


class TestSimulate:
    def test_exact_round_trip(self, tmp_path, capsys):
        observed = str(tmp_path / "observed.json")
        estimated = str(tmp_path / "estimated.json")
        assert main(["simulate", f"{FIXTURES}/channel_diag.json",
                     f"{FIXTURES}/design_ic.json", "-o", observed]) == EXIT_OK
        assert main(["estimate", observed, "-o", estimated]) == EXIT_OK
        doc = json.loads(pathlib.Path(estimated).read_text())
        truth = load_channel(f"{FIXTURES}/channel_diag.json")
        assert frobenius(read_choi(doc) - truth.matrix) < 1e-7

    def test_shots_are_deterministic(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        for out in (a, b):
            assert main(["simulate", f"{FIXTURES}/channel_diag.json",
                         f"{FIXTURES}/design_o3.json", "--shots", "500",
                         "--seed", "3", "-o", out]) == EXIT_OK
        assert pathlib.Path(a).read_text() == pathlib.Path(b).read_text()

    def test_shot_noise_is_independent_across_measurements(self, tmp_path, capsys):
        # design_ic's first 11 constraints all have exact mean 0 on this
        # channel; with one stream per measurement their noisy means differ
        exact = str(tmp_path / "exact.json")
        noisy = str(tmp_path / "noisy.json")
        for extra, out in (([], exact), (["--shots", "1000", "--seed", "4"], noisy)):
            assert main(["simulate", f"{FIXTURES}/channel_diag.json",
                         f"{FIXTURES}/design_ic.json", "-o", out] + extra) == EXIT_OK
        m_exact = [c["mean"] for c in json.loads(pathlib.Path(exact).read_text())["constraints"]]
        m_noisy = [c["mean"] for c in json.loads(pathlib.Path(noisy).read_text())["constraints"]]
        zero = [y for x, y in zip(m_exact, m_noisy) if x == 0.0]
        assert len(zero) == 11
        assert len(set(zero)) > 1

    @pytest.mark.parametrize("flags", [["--shots", "-3"], ["--shots", "10", "--seed", "-1"],
                                       ["--shots", "abc"]])
    def test_negative_or_malformed_count_exit_code(self, flags, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", f"{FIXTURES}/channel_diag.json",
                  f"{FIXTURES}/design_ic.json"] + flags)
        assert info.value.code == EXIT_PARSE
        assert "non-negative integer" in capsys.readouterr().err

    def test_shot_means_differ_from_exact(self, tmp_path, capsys):
        exact = str(tmp_path / "exact.json")
        noisy = str(tmp_path / "noisy.json")
        main(["simulate", f"{FIXTURES}/channel_diag.json",
              f"{FIXTURES}/design_o3.json", "-o", exact])
        main(["simulate", f"{FIXTURES}/channel_diag.json",
              f"{FIXTURES}/design_o3.json", "--shots", "101", "--seed", "1",
              "-o", noisy])
        m_exact = [c["mean"] for c in json.loads(pathlib.Path(exact).read_text())["constraints"]]
        m_noisy = [c["mean"] for c in json.loads(pathlib.Path(noisy).read_text())["constraints"]]
        assert m_exact != m_noisy
        assert all(abs(m) <= 1.0 for m in m_noisy)


class TestEntropyAndCheck:
    def test_entropy_identity(self, capsys):
        assert main(["entropy", f"{FIXTURES}/channel_identity.json"]) == EXIT_OK
        text = capsys.readouterr().out
        value = float(text.splitlines()[0].split()[2])
        assert abs(value) < 1e-9
        assert "positive=True" in text and "trace_preserving=True" in text

    def test_entropy_preparator(self, capsys):
        # constant channel onto diag(0.75, 0.25): 1 + H2(0.75) bits
        assert main(["entropy", f"{FIXTURES}/channel_prep_diag.json"]) == EXIT_OK
        text = capsys.readouterr().out
        value = float(text.splitlines()[0].split()[2])
        h2 = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert value == pytest.approx(1.0 + h2, abs=1e-9)

    def test_check_passes(self, capsys):
        assert main(["check", f"{FIXTURES}/o4.json"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "ok   parse" in text and "ok   independence" in text

    def test_check_dependent(self, capsys):
        assert main(["check", f"{FIXTURES}/dependent.json"]) == EXIT_DEPENDENT

    def test_check_prior_support_failure(self, capsys):
        code = main(["check", f"{FIXTURES}/v_zero_to_one_identity_prior.json"])
        assert code == EXIT_INFEASIBLE
        assert "FAIL prior-support" in capsys.readouterr().out


class TestResultDocument:
    def test_fields(self):
        from procmaxent import ObservationLevel, solve_maxent

        sol = solve_maxent(ObservationLevel(d=2, constraints=()))
        doc = result_document(sol, 2)
        assert set(doc) >= {"tool_version", "choi", "entropy_bits",
                            "log_partition", "multipliers", "residuals",
                            "kraus", "diagnostics", "bloch_map"}
        assert doc["diagnostics"]["boundary_flag"] is False


class TestNoLeastSquares:
    def test_span_needs_no_lstsq(self, monkeypatch, tmp_path, capsys):
        # the constraint span is orthogonalized directly, in the level
        # check, in the solvers and in `check` on a problem with a prior
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        rng = np.random.default_rng(7)
        specs = [
            ProcessMeasurementSpec("ancilla_free", state=bloch_to_density(b), observable=F)
            for b in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
            for F in (PAULI_X, PAULI_Y, PAULI_Z)
        ]
        obs = simulate_means(random_channel(2, 4, rng), specs)
        assert solve_maxent(obs).residuals.max() < 1e-8
        prior = PriorChannel(random_channel(2, 4, rng))
        assert solve_biased(obs, prior).residuals.max() < 1e-8

        doc = json.loads(pathlib.Path(f"{FIXTURES}/v_zero_to_zero.json").read_text())
        doc["prior"] = json.loads(pathlib.Path(f"{FIXTURES}/channel_mix_x.json").read_text())
        problem = write_json(tmp_path, "with_prior.json", doc)
        assert main(["check", problem]) == EXIT_OK
        assert "ok   prior-support" in capsys.readouterr().out
        code = main(["check", f"{FIXTURES}/v_zero_to_one_identity_prior.json"])
        assert code == EXIT_INFEASIBLE
        assert "FAIL prior-support" in capsys.readouterr().out
        out = str(tmp_path / "out.json")
        assert main(["estimate", f"{FIXTURES}/v_zero_to_zero.json",
                     "--biased", f"{FIXTURES}/channel_mix_x.json", "-o", out]) == EXIT_OK
