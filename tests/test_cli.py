import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from statecone import algebras as ja
from statecone import bregman as br
from statecone import multipartite as mp
from statecone import serialize as sz
from statecone import states as st
from statecone.cli import main


@pytest.fixture
def state_files(tmp_path):
    paths = {}
    mixed = st.maximally_mixed(ja.complex_hermitian(2))
    paths["mixed"] = tmp_path / "mixed_qubit.json"
    paths["mixed"].write_text(json.dumps(sz.state_to_json(mixed)))

    rho = st.random_state(ja.complex_hermitian(2), seed=5)
    paths["rho"] = tmp_path / "rho.json"
    paths["rho"].write_text(json.dumps(sz.state_to_json(rho)))

    layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 2))
    bell = mp.maximally_entangled_state(layout)
    paths["bell"] = tmp_path / "bell.json"
    paths["bell"].write_text(json.dumps(sz.state_to_json(bell)))

    layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 2, 2))
    qubits = st.random_state(layout.ambient, seed=7, layout=layout)
    paths["qubits"] = tmp_path / "qubits.json"
    paths["qubits"].write_text(json.dumps(sz.state_to_json(qubits)))
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestEntropyCommand:
    def test_maximally_mixed_qubit(self, capsys, state_files):
        code, report = run_cli(
            capsys, "entropy", "--state", str(state_files["mixed"]),
            "--samples", "50",
        )
        assert code == 0
        assert report["results"]["spectral"] == pytest.approx(
            np.log(2), abs=1e-9
        )

    def test_bits_flag(self, capsys, state_files):
        code, report = run_cli(
            capsys, "entropy", "--state", str(state_files["mixed"]),
            "--samples", "20", "--bits",
        )
        assert code == 0
        assert report["results"]["spectral"] == pytest.approx(1.0, abs=1e-9)


class TestDivergenceCommand:
    def test_value_and_echo(self, capsys, state_files):
        code, report = run_cli(
            capsys, "divergence",
            "--rho", str(state_files["rho"]),
            "--sigma", str(state_files["mixed"]),
        )
        assert code == 0
        assert report["results"]["divergence"] > 0
        assert report["config"]["generator"] == "neg-entropy"

    def test_unknown_generator(self, capsys, state_files):
        code, _ = run_cli(
            capsys, "divergence",
            "--rho", str(state_files["rho"]),
            "--sigma", str(state_files["mixed"]),
            "--generator", "nope",
        )
        assert code == 2


class TestInformationCommands:
    def test_bell_mutual_information(self, capsys, state_files):
        code, report = run_cli(
            capsys, "mi", "--state", str(state_files["bell"]),
            "--a", "A", "--b", "B",
        )
        assert code == 0
        assert report["results"]["mutual_information"] == pytest.approx(
            2 * np.log(2), abs=1e-9
        )

    def test_cmi_overlap_is_usage_error(self, capsys, state_files):
        code, _ = run_cli(
            capsys, "cmi", "--state", str(state_files["bell"]),
            "--a", "A", "--b", "B", "--c", "A",
        )
        assert code == 2

    def test_unknown_label_is_usage_error(self, capsys, state_files):
        code = main(["mi", "--state", str(state_files["bell"]),
                     "--a", "A", "--b", "Z"])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err) == {"error": "unknown label in ['A', 'Z']"}

    def test_simple_state_has_no_layout(self, capsys, state_files):
        code, _ = run_cli(
            capsys, "mi", "--state", str(state_files["rho"]),
            "--a", "A", "--b", "B",
        )
        assert code == 2


class TestSuiteCommand:
    def test_passing_suite_exits_zero(self, capsys):
        code, report = run_cli(
            capsys, "suite", "--property", "local",
            "--generator", "neg-entropy", "--algebra", "C3",
            "--trials", "15", "--seed", "7",
        )
        assert code == 0
        assert report["pass"] is True

    def test_locality_runs_on_quaternions(self, capsys):
        code, report = run_cli(
            capsys, "suite", "--property", "local", "--algebra", "H3",
            "--trials", "6",
        )
        assert code == 0
        assert report["pass"] is True

    def test_failing_suite_exits_one_with_witnesses(self, capsys):
        code, report = run_cli(
            capsys, "suite", "--property", "mono",
            "--generator", "trace-power-2", "--algebra", "C3",
            "--trials", "30", "--seed", "7",
        )
        assert code == 1
        verdict = report["results"]["monotonicity"]
        assert verdict["witnesses"]

    def test_violation_at_zero_tolerance_leaves_a_witness(self, capsys):
        # trial 0 on S3 runs the identity channel: a violation of exactly 0
        code, report = run_cli(
            capsys, "suite", "--property", "mono", "--algebra", "S3",
            "--trials", "1", "--seed", "0", "--tol", "0",
        )
        assert code == 1
        verdict = report["results"]["monotonicity"]
        assert verdict["worst_violation"] == 0.0
        w, = verdict["witnesses"]
        assert (w["trial"], w["seed"], w["channel"]) == (0, 0, "identity")
        algebra, _ = sz.parse_algebra_spec("S3")
        assert br.replay_monotonicity_trial(
            br.neg_entropy(), algebra, 0, 0) == w["violation"]

    def test_separoid_requires_four_factors(self, capsys):
        code, _ = run_cli(
            capsys, "suite", "--property", "separoid", "--algebra", "C2x2",
            "--trials", "3",
        )
        assert code == 2

    def test_separoid_small_run(self, capsys):
        code, report = run_cli(
            capsys, "suite", "--property", "separoid",
            "--algebra", "P2x2x2x2", "--trials", "5", "--seed", "3",
        )
        assert code == 0
        assert set(report["results"]) == {"positivity", "symmetry", "chain"}

    def test_separoid_chain_on_pure_four_qubits(self, capsys):
        # trial 3 is a globally pure state whose product references have
        # eigenvalues 8.92e-9 and 1.76e-8, closer than the grouping 1e-8
        code, report = run_cli(
            capsys, "suite", "--property", "separoid",
            "--algebra", "C2x2x2x2", "--trials", "4", "--seed", "3045832050",
        )
        assert code == 0
        assert report["pass"] is True
        assert report["results"]["chain"]["worst_violation"] < 1e-9

    @pytest.mark.parametrize("prop,algebra", [
        ("mono", "C2"), ("suff", "C2"), ("local", "C3"), ("identity", "C2"),
        ("additivity", "C2x2"), ("marginal", "C2x2"), ("dpi", "C2x2"),
    ])
    def test_tol_reaches_the_verdict(self, capsys, prop, algebra):
        _, report = run_cli(
            capsys, "suite", "--property", prop, "--algebra", algebra,
            "--trials", "2", "--tol", "0.25",
        )
        assert report["config"]["tol"] == 0.25
        assert [v["tolerance"] for v in report["results"].values()] == [0.25]

    # the trials are shared out over the layout's two states, each
    # running at least one, so one trial asked for runs two
    @pytest.mark.parametrize("trials,ran", [(1, 2), (3, 3), (5, 5)])
    def test_dpi_runs_every_trial_asked_for(self, capsys, trials, ran):
        _, report = run_cli(
            capsys, "suite", "--property", "dpi", "--algebra", "C2x2",
            "--trials", str(trials),
        )
        assert report["results"]["data-processing"]["trials"] == ran

    def test_determinism(self, capsys):
        argv = ("suite", "--property", "identity", "--generator",
                "trace-power-2", "--algebra", "C2", "--trials", "10",
                "--seed", "11")
        code1, report1 = run_cli(capsys, *argv)
        code2, report2 = run_cli(capsys, *argv)
        assert (code1, report1) == (code2, report2)


class TestOtherCommands:
    def test_chsh_pr(self, capsys):
        code, report = run_cli(capsys, "chsh", "--box", "pr")
        assert code == 0
        assert report["results"]["chsh"] == 4.0

    def test_chsh_quantum(self, capsys):
        code, report = run_cli(
            capsys, "chsh", "--box", "quantum-opt", "--restarts", "4",
        )
        assert code == 0
        assert report["results"]["chsh"] == pytest.approx(
            2 * np.sqrt(2), abs=1e-6
        )

    # one sample is one difference from the base state, so both ranks
    # read 1 and the audit fails
    @pytest.mark.parametrize("argv,dims,passed,exit_code", [
        ((), (9, 8), True, 0),
        (("--samples", "1"), (1, 1), False, 1),
    ], ids=["default", "one-sample"])
    def test_audit(self, capsys, argv, dims, passed, exit_code):
        code, report = run_cli(capsys, "audit-example1", *argv)
        assert code == exit_code
        assert report["results"] == dict(
            zip(("ambient_state_dim", "product_slice_dim"), dims))
        assert report["pass"] is passed

    def test_explore_smoke(self, capsys):
        code, report = run_cli(
            capsys, "explore", "--generators", "4", "--trials", "6",
        )
        assert code == 0
        assert report["results"]["n_generators"] == 4

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"broken": ')
        code, _ = run_cli(capsys, "entropy", "--state", str(bad))
        assert code == 2


def run_cli_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, json.loads(captured.err)


class TestBadInput:
    @pytest.mark.parametrize("index,value", [
        (0, float("nan")),            # diagonal
        (2, float("nan")),            # real part of the off-diagonal
        (1, float("inf")),
        (3, float("-inf")),
    ])
    def test_non_finite_coefficient(self, capsys, tmp_path, index, value):
        doc = sz.state_to_json(st.maximally_mixed(ja.complex_hermitian(2)))
        doc["coeffs"][index] = value
        path = tmp_path / "bad_state.json"
        path.write_text(json.dumps(doc))
        code, error = run_cli_error(capsys, "entropy", "--state", str(path))
        assert code == 2
        assert "finite" in error["error"]

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_suite_needs_a_trial(self, capsys, trials):
        code, error = run_cli_error(
            capsys, "suite", "--property", "mono", "--algebra", "C2",
            "--trials", trials,
        )
        assert code == 2
        assert "--trials" in error["error"]

    @pytest.mark.parametrize("argv,named", [
        (("--generators", "0"), "--generators"),
        (("--generators", "-2", "--trials", "3"), "--generators"),
        (("--generators", "2", "--trials", "0"), "--trials"),
    ])
    def test_explore_needs_generators_and_trials(self, capsys, argv, named):
        code, error = run_cli_error(capsys, "explore", *argv)
        assert code == 2
        assert named in error["error"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-12"])
    def test_suite_rejects_bad_tol(self, capsys, tol):
        code, error = run_cli_error(
            capsys, "suite", "--property", "identity", "--algebra", "C2",
            "--trials", "2", f"--tol={tol}",
        )
        assert code == 2
        assert "--tol must be a finite number >= 0" in error["error"]

    @pytest.mark.parametrize("restarts", ["0", "-4"])
    def test_chsh_needs_a_restart(self, capsys, restarts):
        code, error = run_cli_error(
            capsys, "chsh", "--box", "quantum-opt", "--restarts", restarts,
        )
        assert code == 2
        assert "--restarts must be at least 1" in error["error"]

    @pytest.mark.parametrize("argv", [
        ("entropy", "--samples", "-3"),
        ("entropy", "--samples", "0"),
        ("audit-example1", "--samples", "0"),
    ])
    def test_samples_at_least_one(self, capsys, state_files, argv):
        if argv[0] == "entropy":
            argv += ("--state", str(state_files["mixed"]))
        code, error = run_cli_error(capsys, *argv)
        assert code == 2
        assert "--samples must be at least 1" in error["error"]

    @pytest.mark.parametrize("doc", [[1, 2], "x", None])
    def test_state_file_must_hold_an_object(self, capsys, tmp_path, doc):
        path = tmp_path / "not_an_object.json"
        path.write_text(json.dumps(doc))
        code, error = run_cli_error(capsys, "entropy", "--state", str(path))
        assert code == 2
        assert "JSON objects" in error["error"]

    def test_factor_size_must_be_an_integer(self, capsys, tmp_path):
        path = tmp_path / "half_qubit.json"
        path.write_text(json.dumps({
            "kind": "state", "algebra": [{"type": "complex", "n": 1.5}],
            "coeffs": [1.0],
        }))
        code, error = run_cli_error(capsys, "entropy", "--state", str(path))
        assert code == 2
        assert "not an integer" in error["error"]

    @pytest.mark.parametrize("algebra", ["C2", "H2", "P2", "R2", "S3", "S5"])
    def test_locality_rejects_rank_two(self, capsys, algebra):
        # a rank-2 algebra has one pure state singular to a given one, so
        # the two companions would coincide and nothing would be compared
        code, error = run_cli_error(
            capsys, "suite", "--property", "local", "--algebra", algebra,
            "--trials", "3",
        )
        assert code == 2
        assert "need rank at least 3" in error["error"]

    def test_separoid_rejects_tol(self, capsys):
        code, error = run_cli_error(
            capsys, "suite", "--property", "separoid",
            "--algebra", "P2x2x2x2", "--trials", "2", "--tol", "1e-30",
        )
        assert code == 2
        for fixed in ("positivity 1e-08", "symmetry 1e-10", "chain 1e-08"):
            assert fixed in error["error"]

    @pytest.mark.parametrize("argv,named", [
        (("suite", "--property", "nope"), "invalid choice: 'nope'"),
        (("entropy",), "required: --state"),
        (("suite", "--property", "mono", "--trials", "abc"),
         "invalid int value: 'abc'"),
        (("chsh", "--box", "pr", "--seed", "abc"),
         "argument --seed: invalid int value: 'abc'"),
        (("nosuch",), "invalid choice: 'nosuch'"),
        ((), "required: subcommand"),
        (("chsh", "--box", "pr", "--extra"), "unrecognized arguments"),
        (("chsh", "--box", "pr", "--json"),
         "unrecognized arguments: --json"),
        (("mi", "--a", "A,A", "--b", "B"),
         "label 'A' is repeated in the set ['A', 'A']"),
        (("explore", "--generators", "2", "--trials", "-3"),
         "--trials must be at least 1, got -3"),
    ], ids=["unknown-property", "missing-option", "bad-int", "bad-seed",
            "unknown-command", "no-command", "extra-argument",
            "removed-json-flag", "label-repeated-in-a-set",
            "explore-negative-trials"])
    def test_argument_errors_are_json(self, capsys, state_files, argv,
                                      named):
        if argv[:1] == ("mi",):
            argv += ("--state", str(state_files["bell"]))
        code, error = run_cli_error(capsys, *argv)
        assert code == 2
        assert named in error["error"]

    @pytest.mark.parametrize("command", [
        "entropy", "divergence", "mi", "cmi", "suite", "explore", "chsh",
        "audit-example1"])
    def test_negative_seed_is_named(self, capsys, command):
        # numpy rejects a negative seed without naming the option, and
        # some commands read no seed at all; the parser names it for all,
        # before it looks for missing options
        code, error = run_cli_error(capsys, command, "--seed", "-1")
        assert code == 2
        assert error["error"] == (f"statecone {command}: argument --seed: "
                                  "must be a non-negative integer, got -1")

    @pytest.mark.parametrize("argv", [
        ("entropy", "--state", "mixed", "--samples", "20", "--bits"),
        ("divergence", "--rho", "rho", "--sigma", "mixed"),
        ("mi", "--state", "bell", "--a", "A", "--b", "B"),
        ("cmi", "--state", "qubits", "--a", "A", "--b", "B", "--c", "C"),
        ("suite", "--property", "mono", "--generator", "trace-power-2",
         "--algebra", "C3", "--trials", "24"),
        ("explore", "--generators", "2", "--trials", "3"),
        ("chsh", "--box", "pr"),
        ("audit-example1", "--samples", "1"),
    ], ids=lambda argv: argv[0])
    def test_pretty_indents(self, capsys, state_files, argv):
        # every subcommand's report goes through one path in ``main``:
        # the same document either way, and exit 1 exactly on pass false
        argv = [str(state_files.get(a, a)) for a in argv]
        code = main(argv)
        plain = capsys.readouterr().out
        assert main(argv + ["--pretty"]) == code
        pretty = capsys.readouterr().out
        assert "\n" not in plain.rstrip("\n")
        assert pretty.startswith('{\n  "')
        report = json.loads(plain)
        assert json.loads(pretty) == report
        assert code == (1 if report.get("pass") is False else 0)

    @pytest.mark.parametrize("argv", [("--help",), ("--version",),
                                      ("suite", "--help")])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 0
        assert capsys.readouterr().out


def _cli_env() -> dict:
    """The environment with this checkout's ``src`` on ``PYTHONPATH``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class TestParserReuse:
    """One parser serves every ``main`` call in a process."""

    def test_built_once(self, capsys, monkeypatch):
        main(["chsh", "--box", "pr"])
        built = []
        init = argparse.ArgumentParser.__init__

        def recording(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
        assert main(["chsh", "--box", "pr"]) == 0
        assert built == []

    def test_no_state_between_calls(self, capsys, state_files):
        mixed = str(state_files["mixed"])
        run_cli(capsys, "entropy", "--state", mixed, "--samples", "5",
                "--bits")
        _, report = run_cli(capsys, "entropy", "--state", mixed,
                            "--samples", "5")
        assert report["config"]["bits"] is False
        assert report["results"]["spectral"] == pytest.approx(
            np.log(2), abs=1e-9
        )

        suite = ("suite", "--property", "identity", "--algebra", "C2",
                 "--trials", "2")
        run_cli(capsys, *suite, "--tol", "0.5")
        _, report = run_cli(capsys, *suite)
        assert report["config"]["tol"] is None

        run_cli(capsys, "chsh", "--box", "pr", "--table")
        _, report = run_cli(capsys, "chsh", "--box", "pr")
        assert "table" not in report["results"]

        run_cli_error(capsys, "suite", "--property", "nope")
        code, report = run_cli(capsys, "chsh", "--box", "pr")
        assert code == 0 and report["results"]["chsh"] == 4.0

    def test_matches_fresh_processes(self, capsys, state_files):
        argvs = [
            ["entropy", "--state", str(state_files["rho"]), "--samples",
             "20", "--bits"],
            ["suite", "--property", "mono", "--algebra", "C2", "--trials",
             "3", "--seed", "4"],
            ["chsh", "--box", "white", "--table", "--pretty"],
        ]
        in_process = []
        for argv in argvs:
            assert main(argv) == 0
            in_process.append(capsys.readouterr().out)
        for argv, out in zip(argvs, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "statecone.cli", *argv],
                capture_output=True, text=True, env=_cli_env(), timeout=120,
            )
            assert fresh.returncode == 0
            assert fresh.stdout == out


# ---------------------------------------------------------------------------
# fuzzed state files
# ---------------------------------------------------------------------------

_JSON = hst.recursive(
    hst.none() | hst.booleans() | hst.integers() | hst.floats()
    | hst.text(max_size=6),
    lambda inner: hst.lists(inner, max_size=4)
    | hst.dictionaries(hst.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
_SIZES = hst.integers(-1, 3) | hst.floats(0, 3) | hst.booleans() \
    | hst.text(max_size=2)
_STATE_LIKE = hst.fixed_dictionaries({
    "kind": hst.sampled_from(["state", "box"]),
    "algebra": hst.lists(hst.fixed_dictionaries({
        "type": hst.sampled_from(
            ["real", "complex", "quaternion", "spin", "classical", "x"]
        ),
        "n": _SIZES,
    }), max_size=2),
    "coeffs": hst.lists(hst.floats(), max_size=10),
}, optional={"layout": hst.fixed_dictionaries({
    "embedding": hst.sampled_from(
        [st.COMPLEX_TENSOR, st.CLASSICAL_TENSOR, st.REAL_INTO_LARGER]
    ),
    "sizes": hst.lists(_SIZES, max_size=3),
})})
_SPECS = ["C2", "R3", "H2", "S3", "P3", "C2x2", "P2x3", "C2x2x2", "P2x2x2"]


@hst.composite
def _valid_states(draw):
    """A random state document, as it is or with one coefficient or the
    layout replaced."""
    algebra, layout = sz.parse_algebra_spec(draw(hst.sampled_from(_SPECS)))
    state = st.random_state(
        algebra, seed=draw(hst.integers(0, 2 ** 32 - 1)), layout=layout,
        rank_cap=draw(hst.none() | hst.integers(1, 3)),
    )
    doc = sz.state_to_json(state)
    # most documents stay valid, so the commands run to the end
    change = draw(hst.sampled_from([None] * 4 + ["coeffs", "layout"]))
    if change == "coeffs":
        index = draw(hst.integers(0, len(doc["coeffs"]) - 1))
        doc["coeffs"][index] = draw(_JSON)
    elif change == "layout":
        doc["layout"] = draw(_JSON)
    return doc


def _run_quietly(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=_valid_states() | _STATE_LIKE | _JSON)
def test_file_commands_exit_cleanly_on_any_state_file(doc):
    """Every command that reads a state file exits 0 or 2 with a JSON
    error, whatever the file holds; an exception fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (
            ["entropy", "--state", path, "--samples", "3"],
            ["divergence", "--rho", path, "--sigma", path],
            ["mi", "--state", path, "--a", "A", "--b", "B"],
            ["cmi", "--state", path, "--a", "A", "--b", "B", "--c", "C"],
        ):
            code, err = _run_quietly(argv)
            assert code in (0, 2), (argv[0], code)
            if code == 2:
                assert "error" in json.loads(err)


def test_entropy_run_leaves_numpy_ma_unimported(state_files):
    # importing numpy.ma is a large share of a fresh entropy process's
    # wall time, and np.unique imports it on its first call
    script = (
        "import sys\n"
        "from statecone.cli import main\n"
        f"main(['entropy', '--state', {str(state_files['rho'])!r}, "
        "'--samples', '20'])\n"
        "sys.stderr.write(str('numpy.ma' in sys.modules))\n"
    )
    fresh = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True, env=_cli_env(),
                           timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stderr == "False"


def test_closed_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "statecone.cli", "suite", "--property",
         "identity", "--algebra", "C2", "--trials", "2", "--pretty"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    # the reader goes away before the report is written
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.wait(timeout=60)
    proc.stderr.close()
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
    assert proc.returncode == 0
