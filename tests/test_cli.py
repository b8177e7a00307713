import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from statecone import algebras as ja
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

    def test_failing_suite_exits_one_with_witnesses(self, capsys):
        code, report = run_cli(
            capsys, "suite", "--property", "mono",
            "--generator", "trace-power-2", "--algebra", "C3",
            "--trials", "30", "--seed", "7",
        )
        assert code == 1
        verdict = report["results"]["monotonicity"]
        assert verdict["witnesses"]

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

    def test_audit(self, capsys):
        code, report = run_cli(capsys, "audit-example1")
        assert code == 0
        assert report["results"] == {
            "ambient_state_dim": 9, "product_slice_dim": 8,
        }
        assert report["pass"] is True

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
        (("--generators", "2", "--trials", "0"), "trial"),
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

    def test_separoid_rejects_tol(self, capsys):
        code, error = run_cli_error(
            capsys, "suite", "--property", "separoid",
            "--algebra", "P2x2x2x2", "--trials", "2", "--tol", "1e-30",
        )
        assert code == 2
        for fixed in ("positivity 1e-08", "symmetry 1e-10", "chain 1e-08"):
            assert fixed in error["error"]


def test_closed_pipe_exits_quietly():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "statecone.cli", "suite", "--property",
         "identity", "--algebra", "C2", "--trials", "2", "--pretty"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    # the reader goes away before the report is written
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.wait(timeout=60)
    proc.stderr.close()
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
    assert proc.returncode == 0
