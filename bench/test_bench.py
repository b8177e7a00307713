"""Tests of the benchmark's own code: the reference, the checks and the
tracer.  Run with ``python -m pytest bench -q`` from the repository root."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
import spans

OFF = 1e-6


def product_rep(kind, reps):
    out = reps[0]
    for r in reps[1:]:
        out = np.outer(out, r).reshape(-1) if kind == "classical" \
            else np.kron(out, r)
    return out


class TestReference:
    @pytest.mark.parametrize("letter, n, rank", [
        ("R", 3, 3), ("C", 4, 4), ("H", 2, 2), ("S", 3, 2), ("P", 4, 4),
    ])
    def test_maximally_mixed_entropy_is_ln_rank(self, letter, n, rank):
        kind = ref.KINDS[letter]
        assert ref.entropy(kind, ref.maximally_mixed_rep(kind, n)) == \
            pytest.approx(math.log(rank), abs=1e-12)

    @pytest.mark.parametrize("kind, sizes", [
        ("complex", (2, 2, 2)), ("classical", (2, 3, 2)),
    ])
    def test_product_states_carry_no_information(self, kind, sizes):
        rng = np.random.default_rng(3)
        rep = product_rep(kind, [ref.random_rep(kind, n, rng) for n in sizes])
        assert ref.conditional_mutual_information(
            kind, rep, sizes, [0], [1], [2]) == pytest.approx(0, abs=1e-12)
        assert ref.mutual_information(
            kind, rep, sizes, [0], [1, 2]) == pytest.approx(0, abs=1e-12)

    def test_entangled_state_has_cmi_ln2(self):
        # a Bell pair on A,B with C independent: I(A:B|C) = 2 ln 2
        bell = np.zeros((4, 4), dtype=complex)
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        rep = np.kron(bell, np.eye(2) / 2)
        assert ref.conditional_mutual_information(
            "complex", rep, (2, 2, 2), [0], [1], [2]) == \
            pytest.approx(2 * math.log(2), abs=1e-12)

    @pytest.mark.parametrize("letter, n", [
        ("R", 3), ("C", 3), ("H", 2), ("S", 3), ("P", 4),
    ])
    def test_random_states_are_trace_one_and_full_rank(self, letter, n):
        kind = ref.KINDS[letter]
        rep = ref.random_rep(kind, n, np.random.default_rng(0))
        lam = ref.spectrum(kind, rep)
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert lam.min() > 0

    def test_encoder_follows_documented_basis(self):
        m = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
        s2 = math.sqrt(2)
        assert ref.encode("complex", 2, m) == pytest.approx(
            [0.5, 0.5, 0.1 * s2, 0.2 * s2])
        assert ref.encode("real", 2, m.real) == pytest.approx(
            [0.5, 0.5, 0.1 * s2])
        q = ref._quaternion_embedding(np.stack(
            [np.array([[0.5, 0.1], [0.1, 0.5]])]
            + [np.array([[0, c], [-c, 0]]) for c in (0.2, 0.3, 0.4)]))
        assert ref.encode("quaternion", 2, q) == pytest.approx(
            [0.5, 0.5] + [c * s2 for c in (0.1, 0.2, 0.3, 0.4)])

    def test_relative_entropy_of_commuting_states(self):
        p, q = np.array([0.7, 0.3]), np.array([0.4, 0.6])
        want = float(np.sum(p * np.log(p / q)))
        assert ref.relative_entropy(np.diag(p) + 0j, np.diag(q) + 0j) == \
            pytest.approx(want, abs=1e-12)


def suite_report(trials=24):
    verdict = {"trials": trials, "witnesses": [], "passed": True,
               "details": {}}
    return {"pass": True, "results": {"monotonicity": verdict}}


class TestChecks:
    def test_entropy_check(self):
        good = {"results": {"spectral": 0.5, "decomposition": 0.5,
                            "fine_grained_lower": 0.5,
                            "fine_grained_upper": 0.6,
                            "n_measurements_sampled": 200}}
        assert ref.check_entropy(good, 0.5, 200) == []
        for key in ("spectral", "decomposition", "fine_grained_lower"):
            bad = copy.deepcopy(good)
            bad["results"][key] += OFF
            assert ref.check_entropy(bad, 0.5, 200)
        bad = copy.deepcopy(good)
        bad["results"]["fine_grained_upper"] = 0.5 - OFF
        assert ref.check_entropy(bad, 0.5, 200)
        assert ref.check_entropy(good, 0.5, 100)

    @pytest.mark.parametrize("check, key", [
        (ref.check_divergence, "divergence"),
        (ref.check_mi, "mutual_information"),
    ])
    def test_value_checks_reject_an_offset(self, check, key):
        assert check({"results": {key: 0.25}}, 0.25) == []
        assert check({"results": {key: 0.25 + OFF}}, 0.25)
        assert check({"results": {key: 0.25 - OFF}}, 0.25)
        assert check({"results": {key: "inf"}}, 0.25)

    def test_cmi_check(self):
        assert ref.check_cmi({"results": {"value": 0.1, "defined": True}},
                             0.1) == []
        assert ref.check_cmi({"results": {"value": 0.1 + OFF,
                                          "defined": True}}, 0.1)
        assert ref.check_cmi({"results": {"value": "nan",
                                          "defined": False}}, 0.1)

    def test_chsh_check(self):
        assert ref.check_chsh({"results": {"chsh": 2 * math.sqrt(2)}}) == []
        assert ref.check_chsh({"results": {"chsh": 2 * math.sqrt(2) - OFF}})

    def test_suite_check(self):
        assert ref.check_suite(suite_report(), 24, random_channels=True) == []
        bad = suite_report()
        bad["pass"] = False
        assert ref.check_suite(bad, 24)
        assert ref.check_suite(suite_report(23), 24)
        bad = suite_report()
        bad["results"]["monotonicity"]["witnesses"].append({"trial": 1})
        assert ref.check_suite(bad, 24)
        bad = suite_report()
        bad["results"]["monotonicity"]["details"]["channel_pool"] = \
            "catalog-only"
        assert ref.check_suite(bad, 24) == []
        assert ref.check_suite(bad, 24, random_channels=True)
        bad = suite_report()
        bad["results"] = {}
        assert ref.check_suite(bad, 24)


# ---------------------------------------------------------------------------
# tracer and benchmark definition
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def test_tracer_binds_every_importer_and_restores(cli):
    import statecone.algebras as alg
    import statecone.bregman as br
    import statecone.multipartite as mp
    import statecone.states as st

    decompose, divergence = alg.spectral_decompose, br.bregman_divergence
    with spans.Tracer() as tracer:
        assert st.spectral_decompose is alg.spectral_decompose
        assert st.spectral_decompose.__wrapped__ is decompose
        assert mp.bregman_divergence is br.bregman_divergence
        assert mp.bregman_divergence.__wrapped__ is divergence
        st.random_state(alg.complex_hermitian(3), seed=1)
    assert st.spectral_decompose is decompose
    assert mp.bregman_divergence is divergence
    assert tracer.calls["states.random_state"] == 1
    assert tracer.calls["algebras.spectral_decompose"] >= 1


def test_tracer_reports_absent_names(cli, monkeypatch):
    monkeypatch.setitem(spans.LAYERS, "jacobi", ["no_such_solver"])
    monkeypatch.setitem(spans.LAYERS, "gone", ["anything"])
    with spans.Tracer() as tracer:
        pass
    assert "jacobi.no_such_solver" in tracer.absent
    assert "gone.anything" in tracer.absent


def test_traced_call_counts_repeat(cli, tmp_path):
    counts = []
    for _ in range(2):
        tracer, _, _ = run.traced_rounds(run.Run(cli, tmp_path),
                                         "oneshot-files", 7)
        counts.append(dict(tracer.calls))
    assert counts[0] == counts[1]


def test_benchmark_json_names_every_metric(cli):
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"batch_s", "setup_s", "peak_rss_mb"}
    layer = spans.Tracer().layer_metrics(1, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: m["unit"] for name, m in layer.items()}
