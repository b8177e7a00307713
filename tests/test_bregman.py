import dataclasses
import math
import pickle

import numpy as np
import pytest

from statecone import algebras as ja
from statecone import bregman as br
from statecone import cli
from statecone import multipartite as mp
from statecone import serialize as sz
from statecone import states as st
from test_algebras import apply_function, record_conversions
from test_states import diag_state, sampled_pair

C2 = ja.complex_hermitian(2)
C3 = ja.complex_hermitian(3)
H2 = ja.quaternion_hermitian(2)
NE = br.neg_entropy()
T2 = br.trace_power(2)
T3 = br.trace_power(3)


def gradient(F, x):
    """The gradient of ``F`` at the element ``x``: ``f'`` of its
    spectrum plus the affine part."""
    dec = ja.spectral_decompose(x)
    return dec.function(F.df(dec.values)) + F._affine_part(x.algebra)


class TestDivergenceValues:
    @pytest.mark.parametrize("F", [NE, T2, T3])
    def test_zero_on_equal_arguments(self, F):
        rho = st.random_state(C3, seed=1)
        assert br.bregman_divergence(F, rho, rho) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_point_mass_against_uniform(self):
        p = diag_state(ja.classical(2), [1.0, 0.0])
        q = diag_state(ja.classical(2), [0.5, 0.5])
        assert br.bregman_divergence(NE, p, q) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_classical_kl_value(self):
        # 0.7 ln(0.7/0.5) + 0.3 ln(0.3/0.5)
        p = diag_state(ja.classical(2), [0.7, 0.3])
        q = diag_state(ja.classical(2), [0.5, 0.5])
        expected = 0.08228287850505178
        assert br.information_divergence(p, q) == pytest.approx(
            expected, abs=1e-12
        )

    def test_trace_power_two_is_squared_distance(self):
        rho = st.random_state(C2, seed=2)
        sigma = st.random_state(C2, seed=3)
        assert br.bregman_divergence(T2, rho, sigma) == pytest.approx(
            ja.norm(rho.element - sigma.element) ** 2, abs=1e-10
        )

    def test_orthogonal_mixture_value(self):
        # divergence from the mixture with an orthogonal state: -ln(1-t)
        rho = diag_state(C2, [1.0, 0.0])
        sigma = diag_state(C2, [0.0, 1.0])
        mix = st.State.make(0.75 * rho.element + 0.25 * sigma.element)
        assert br.information_divergence(rho, mix) == pytest.approx(
            0.2876820724517809, abs=1e-10
        )

    @pytest.mark.parametrize("algebra", [
        C2, C3, ja.real_hermitian(3), ja.quaternion_hermitian(2),
        ja.spin_factor(3), ja.classical(3),
    ])
    def test_agrees_with_direct_formula(self, algebra):
        rng = np.random.default_rng(4)
        for _ in range(5):
            rho = st.random_state(algebra, seed=rng)
            sigma = st.random_state(algebra, seed=rng)
            assert br.bregman_divergence(NE, rho, sigma) == pytest.approx(
                br.information_divergence(rho, sigma), abs=1e-9
            )

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for F in (NE, T2, T3):
            for _ in range(10):
                rho = st.random_state(C3, seed=rng)
                sigma = st.random_state(C3, seed=rng)
                assert br.bregman_divergence(F, rho, sigma) >= -1e-10

    def test_support_violation_is_infinite(self):
        rho = diag_state(C2, [1.0, 0.0])
        sigma = diag_state(C2, [0.0, 1.0])
        assert math.isinf(br.bregman_divergence(NE, rho, sigma))
        assert math.isinf(br.information_divergence(rho, sigma))

    def test_pinned_generator_rejects_another_algebra(self):
        tilt = st.random_state(C3, seed=47).element
        F = br.affine_plus_entropy(1.5, tilt)
        rho = st.random_state(C2, seed=48)
        sigma = st.random_state(C2, seed=49)
        with pytest.raises(ja.AlgebraMismatchError):
            br.bregman_divergence(F, rho, sigma)

    def test_quantum_matches_matrix_formula(self):
        rng = np.random.default_rng(6)
        rho = st.random_state(C3, seed=rng)
        sigma = st.random_state(C3, seed=rng)
        import scipy.linalg as sla  # local oracle only
        a = rho.element.reps()[0]
        b = sigma.element.reps()[0]
        expected = float(np.trace(a @ (sla.logm(a) - sla.logm(b))).real)
        assert br.information_divergence(rho, sigma) == pytest.approx(
            expected, abs=1e-8
        )


class TestStackedDivergence:
    @pytest.mark.parametrize("F", [NE, T2, T3], ids=lambda F: F.name)
    def test_stacked_gaps_equal_single_ones(self, F):
        # full-rank pairs, and a pure reference under a full-rank state,
        # whose entropy divergence is infinite
        rng = np.random.default_rng(30)
        pairs = [(st.random_state(C3, seed=rng),
                  st.random_state(C3, rank_cap=cap, seed=rng))
                 for cap in (None, None, 1, None)]
        decs = [(ja.spectral_decompose(x.element),
                 ja.spectral_decompose(y.element)) for x, y in pairs]
        lam = np.array([dx.values for dx, _ in decs])
        mu = np.array([dy.values for _, dy in decs])
        p = np.array([dy.weights(x.element)
                      for (x, _), (_, dy) in zip(pairs, decs)])
        gaps = br._divergence(F, lam.reshape(2, 2, 3), mu.reshape(2, 2, 3),
                              p.reshape(2, 2, 3)).ravel()
        want = [br.bregman_divergence(F, x, y) for x, y in pairs]
        assert gaps.tolist() == want
        assert math.isinf(want[2]) == F.support_sensitive

    def test_outside_the_support_is_not_read(self):
        # alone, an element outside the reference's support is never
        # decomposed, so no domain error; a stack masks it the same way
        mu = np.array([[1.0, 0.0], [0.5, 0.5]])
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        lam = np.array([[1.5, -0.5], [0.5, 0.5]])
        gaps = br._divergence(NE, lam, mu, p)
        assert math.isinf(gaps[0]) and gaps[1] == 0.0


class TestGradients:
    @pytest.mark.parametrize("F", [NE, T2, T3])
    def test_finite_differences(self, F):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = st.random_state(C3, seed=rng).element
            y = st.random_state(C3, seed=rng).element
            direction = y - x
            h = 1e-5
            numeric = (
                F.value(x + h * direction) - F.value(x - h * direction)
            ) / (2 * h)
            analytic = ja.inner_product(gradient(F, x), direction)
            assert numeric == pytest.approx(
                analytic, rel=1e-5, abs=1e-7
            )

    def test_entropy_gradient_is_log_plus_unit(self):
        sigma = st.random_state(C3, seed=8)
        g = gradient(NE, sigma.element)
        dec = ja.spectral_decompose(sigma.element)
        expected = dec.function(np.log(dec.values)) + ja.unit(C3)
        assert ja.norm(g - expected) < 1e-12

    def test_trace_derivative_identity(self):
        # d/dt tr f(A + tB) at 0 equals <f'(A), B>
        rng = np.random.default_rng(9)
        a = st.random_state(C3, seed=rng).element + 0.5 * ja.unit(C3)
        b = st.random_state(C3, seed=rng).element \
            - st.random_state(C3, seed=rng).element
        f = np.log
        fprime = lambda x: 1.0 / x
        h = 1e-6

        def trace_f(el):
            return sum(
                m * f(lam)
                for lam, m in zip(
                    ja.spectral_decompose(el).eigenvalues,
                    ja.spectral_decompose(el).multiplicities,
                )
            )

        numeric = (trace_f(a + h * b) - trace_f(a - h * b)) / (2 * h)
        analytic = ja.inner_product(apply_function(a, fprime), b)
        assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("F", [NE, T2, T3])
    def test_convexity_spot_check(self, F):
        rng = np.random.default_rng(10)
        for _ in range(10):
            rho = st.random_state(C3, seed=rng).element
            sigma = st.random_state(C3, seed=rng).element
            t = rng.uniform()
            mixed = t * rho + (1 - t) * sigma
            assert F.value(mixed) <= (
                t * F.value(rho) + (1 - t) * F.value(sigma) + 1e-9
            )


def tangent_regret(F, rho, sigma):
    """Payoff lost by acting on the tangent of F at sigma when the state
    is rho: F(rho) - F(sigma) - <grad F(sigma), rho - sigma>."""
    x, y = rho.element, sigma.element
    return F.value(x) - F.value(y) - ja.inner_product(gradient(F, y), x - y)


class TestActions:
    """The regret of the tangent action is the Bregman divergence."""

    def test_tangent_at_self_has_zero_regret(self):
        sigma = st.random_state(C2, seed=11)
        assert tangent_regret(NE, sigma, sigma) == pytest.approx(
            0.0, abs=1e-12
        )
        for k in range(5):
            rho = st.random_state(C2, seed=20 + k)
            assert tangent_regret(NE, rho, sigma) > 0.0

    def test_tangent_regret_is_divergence(self):
        rho = st.random_state(C2, seed=12)
        sigma = st.random_state(C2, seed=13)
        assert br.bregman_divergence(NE, rho, sigma) == pytest.approx(
            tangent_regret(NE, rho, sigma), abs=1e-10
        )

    def test_qubit_tangent_at_maximally_mixed(self):
        rho = diag_state(C2, [0.7, 0.3])
        assert br.bregman_divergence(
            NE, rho, st.maximally_mixed(C2)
        ) == pytest.approx(0.08228287850505178, abs=1e-9)


class TestBregmanIdentity:
    @pytest.mark.parametrize("F", [NE, T2, T3])
    def test_single_state_is_exact(self, F):
        rho = st.random_state(C3, seed=16)
        sigma = st.random_state(C3, seed=17)
        assert br.check_bregman_identity(
            F, [rho], [1.0], sigma
        ) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("F", [NE, T2, T3])
    def test_random_convex_pairs(self, F):
        rng = np.random.default_rng(18)
        for _ in range(10):
            states = [st.random_state(C2, seed=rng) for _ in range(2)]
            t = rng.uniform(0.2, 0.8)
            sigma = st.random_state(C2, seed=rng)
            assert br.check_bregman_identity(
                F, states, [t, 1 - t], sigma
            ) < 1e-9

    def test_negative_weights_inside_cone(self):
        rho1 = diag_state(C2, [0.5, 0.5])
        rho2 = diag_state(C2, [0.4, 0.6])
        sigma = st.random_state(C2, seed=19)
        for F in (NE, T2, T3):
            assert br.check_bregman_identity(
                F, [rho1, rho2], [1.2, -0.2], sigma
            ) < 1e-9

    def test_combination_outside_cone_rejected(self):
        rho1 = diag_state(C2, [1.0, 0.0])
        rho2 = diag_state(C2, [0.0, 1.0])
        with pytest.raises(st.StateValidationError):
            br.check_bregman_identity(
                NE, [rho1, rho2], [1.5, -0.5], st.maximally_mixed(C2)
            )

    def test_weights_must_sum_to_one(self):
        rho = st.random_state(C2, seed=20)
        with pytest.raises(ValueError):
            br.check_bregman_identity(NE, [rho], [0.9],
                                      st.maximally_mixed(C2))

    def test_identity_suite(self):
        verdict = mp.run_suite(
            "identity", NE, C2, n_trials=60, seed=21)["bregman-identity"]
        assert verdict.passed
        assert verdict.trials == 60


LAYOUT_22 = st.composite_layout(st.COMPLEX_TENSOR, (2, 2))
SEPAROID_LAYOUT = st.composite_layout(st.CLASSICAL_TENSOR, (2, 2, 2, 2))
# eigensolved marginals, and trial 3 of each 4-trial cycle is pure
SEPAROID_COMPLEX_LAYOUT = st.composite_layout(st.COMPLEX_TENSOR, (2, 3, 2, 2))

# property -> the algebra or layout its suite runs on here
TARGETS = {
    "mono": C2, "suff": C2, "local": C3, "identity": C2,
    "additivity": LAYOUT_22, "marginal": LAYOUT_22,
    "separoid": SEPAROID_LAYOUT, "dpi": LAYOUT_22,
}

REPLAY_SEED = 3

# replay case -> (property, generator, target, trials) of a run whose
# every trial is replayed through its results generator
REPLAYS = {
    "mono": ("mono", T2, C3, 6),
    "suff": ("suff", NE, C3, 6),
    "local": ("local", NE, C3, 6),
    "identity": ("identity", NE, C2, 6),
    "additivity": ("additivity", NE, LAYOUT_22, 4),
    "marginal": ("marginal", NE, LAYOUT_22, 4),
    "separoid": ("separoid", NE, SEPAROID_LAYOUT, 4),
    "separoid-complex": ("separoid", NE, SEPAROID_COMPLEX_LAYOUT, 4),
    "dpi": ("dpi", NE, LAYOUT_22, 4),
}
# the data-processing suite's state k runs under the seed REPLAY_SEED + k,
# so a witness replays through the results of that state alone
OWN_REPLAYS = {
    "dpi": lambda F, layout, seed, trials: mp._data_processing_results(
        F, mp._dpi_states(layout, REPLAY_SEED)[seed - REPLAY_SEED], seed,
        trials),
}


def _results(seed, **checks):
    """One result per trial, trial ``t`` with ``checks[name][t]``."""
    n = len(next(iter(checks.values())))
    return [{"trial": t, "seed": seed,
             **{name: values[t] for name, values in checks.items()}}
            for t in range(n)]


class TestTrialDriver:
    def test_worst_witnesses_and_extras_per_check(self):
        results = _results(5, a=[0.1, 0.7, -1.0], b=[-2.0, -3.0, -1.0],
                           tag=["t0", "t1", "t2"])
        verdicts = br.judge_trials(results, {"a": 0.5, "b": 0.0})
        assert verdicts["a"].worst_violation == 0.7
        assert not verdicts["a"].passed
        assert verdicts["a"].witnesses == [
            {"trial": 1, "seed": 5, "violation": 0.7, "tag": "t1"}
        ]
        assert verdicts["b"].worst_violation == -1.0
        assert verdicts["b"].passed and not verdicts["b"].witnesses
        assert {v.property for v in verdicts.values()} == {"a", "b"}
        assert {v.trials for v in verdicts.values()} == {3}

    def test_witnesses_keep_the_trial_and_seed_of_their_result(self):
        # a replay of trial 7 alone must report trial 7, not position 0
        results = [{"trial": 7, "seed": 2, "x": 1.0},
                   {"trial": 3, "seed": 9, "x": 0.0}]
        verdict = br.judge_trials(results, {"x": 0.5})["x"]
        assert verdict.trials == 2
        assert verdict.witnesses == [{"trial": 7, "seed": 2,
                                      "violation": 1.0}]

    def test_violation_at_the_tolerance_fails_with_a_witness(self):
        # a check passes only below its tolerance, so a violation equal to
        # it fails and must leave a trial to replay
        verdict = br.judge_trials(_results(3, x=[0.1, 0.5]),
                                  {"x": 0.5})["x"]
        assert not verdict.passed
        assert verdict.witnesses == [{"trial": 1, "seed": 3,
                                      "violation": 0.5}]

    @pytest.mark.parametrize("values", [[0.5, math.nan, 2.0],
                                        [math.nan] * 3])
    def test_nan_violation_is_the_worst_and_a_witness(self, values):
        # every comparison with NaN is false, so it used to pass unseen
        verdict = br.judge_trials(_results(0, x=values), {"x": 1e-8})["x"]
        assert math.isnan(verdict.worst_violation)
        assert not verdict.passed
        assert [w["trial"] for w in verdict.witnesses] == [0, 1, 2]
        report = verdict.as_dict()
        assert report["worst_violation"] == "nan"
        assert report["passed"] is False

    def test_trial_streams_match_seed_and_trial(self):
        # every suite used to seed its trials with [seed, trial] or
        # [seed, trial, 0]; both give the stream each trial draws from
        for trial in range(4):
            drawn = br._trial_rng(11, trial).random()
            for entropy in ([11, trial], [11, trial, 0]):
                assert drawn == np.random.default_rng(entropy).random()

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 10**30])
    def test_trial_streams_equal_the_list_seeded_ones(self, seed):
        # the uint32 words of each integer, low word first and zero as
        # one word, are what numpy makes of a list of integers
        for trial in (0, 1, 2**32 + 3):
            for stream in (0, 1, 7):
                got = br._trial_rng(seed, trial, stream)
                want = np.random.default_rng([seed, trial, stream])
                assert (got.bit_generator.state
                        == want.bit_generator.state), (trial, stream)
                assert got.random(3).tobytes() == want.random(3).tobytes()

    def test_negative_trial_seeds_are_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            br._trial_rng(-1, 0)

    @pytest.mark.parametrize("case", sorted(REPLAYS))
    def test_every_witness_replays_through_its_results(self, case):
        prop, F, target, n_trials = REPLAYS[case]
        # no violation is below an infinite negative tolerance, so every
        # trial of every check is a witness
        verdicts = mp.run_suite(
            prop, F, target, n_trials, seed=REPLAY_SEED,
            tols=dict.fromkeys(mp.SUITES[prop].tols, -math.inf))
        replay = OWN_REPLAYS.get(prop, mp.SUITES[prop].results)
        seeds = set()
        for check, verdict in verdicts.items():
            assert len(verdict.witnesses) == verdict.trials
            for w in verdict.witnesses:
                result, = replay(F, target, w["seed"], [w["trial"]])
                extras = {k: result[k] for k in w.keys() - {"violation"}}
                assert w == {**extras, "violation": result[check]}
                seeds.add(w["seed"])
        want = {REPLAY_SEED, REPLAY_SEED + 1} if prop == "dpi" \
            else {REPLAY_SEED}
        assert seeds == want

    @pytest.mark.parametrize("prop", sorted(mp.SUITES))
    @pytest.mark.parametrize("n_trials", [0, -3])
    def test_empty_suite_is_rejected(self, prop, n_trials):
        with pytest.raises(ValueError, match="at least one trial"):
            mp.run_suite(prop, NE, TARGETS[prop], n_trials)


class TestSuiteTable:
    def test_every_property_has_a_target(self):
        assert TARGETS.keys() == mp.SUITES.keys()

    @pytest.mark.parametrize("prop", sorted(mp.SUITES))
    def test_entry_is_a_cli_choice_and_refuses_bad_runs(self, prop):
        suite_parser = cli._build_parser()._subparsers._group_actions[0] \
            .choices["suite"]
        choices, = (a.choices for a in suite_parser._actions
                    if a.dest == "property")
        assert tuple(choices) == tuple(mp.SUITES)
        target = TARGETS[prop]
        with pytest.raises(ValueError, match="at least one trial"):
            mp.run_suite(prop, NE, target, 0)
        with pytest.raises(ValueError, match="judges no check"):
            mp.run_suite(prop, NE, target, 1, tols={"no-such-check": 1.0})
        # an algebra suite refuses a layout; a layout suite refuses an
        # algebra and a layout of another number of factors
        factors = mp.SUITES[prop].factors
        wrong = [LAYOUT_22] if factors is None else [
            C2, SEPAROID_LAYOUT if factors == 2 else LAYOUT_22]
        for other in wrong:
            with pytest.raises(ValueError, match=repr(prop)):
                mp.run_suite(prop, NE, other, 1)

    def test_a_tolerance_reaches_only_its_check(self):
        verdicts = mp.run_suite("separoid", NE, SEPAROID_LAYOUT, 2,
                                tols={"chain": 0.5})
        assert {k: v.tolerance for k, v in verdicts.items()} == {
            **mp.SUITES["separoid"].tols, "chain": 0.5}
        assert [v.property for v in verdicts.values()] == [
            "separoid-positivity", "separoid-symmetry", "separoid-chain"]

    def test_tracked_residual_is_a_detail_not_a_witness_extra(self):
        verdict, = mp.run_suite("local", NE, C3, 4,
                                tols={"statistical-locality": -math.inf}
                                ).values()
        assert verdict.details["value_residual"] < 1e-8
        assert len(verdict.witnesses) == 4
        assert all("value_residual" not in w for w in verdict.witnesses)
        plain, = mp.run_suite("local", T2, C3, 4).values()
        assert "value_residual" not in plain.details


class TestMonotonicity:
    def test_entropy_passes_on_qubits_and_qutrits(self):
        for algebra in (C2, C3):
            verdict = mp.run_suite(
                "mono", NE, algebra, n_trials=150, seed=22)["monotonicity"]
            assert verdict.passed, verdict.worst_violation

    def test_trace_power_fails_with_witness_on_qutrits(self):
        verdict = mp.run_suite(
            "mono", T2, C3, n_trials=150, seed=23)["monotonicity"]
        assert not verdict.passed
        assert verdict.witnesses
        for w in verdict.witnesses:
            replayed = br.replay_monotonicity_trial(T2, C3, w["seed"],
                                                    w["trial"])
            assert replayed == pytest.approx(w["violation"], abs=1e-12)

    def test_random_channel_witness_replays(self):
        C4 = ja.complex_hermitian(4)
        verdict = mp.run_suite(
            "mono", T3, C4, n_trials=48, seed=1)["monotonicity"]
        w = next(w for w in verdict.witnesses if w["trial"] == 37)
        assert w["channel"] == "random-stinespring-env2"
        assert br.replay_monotonicity_trial(T3, C4, 1, 37) == w["violation"]

    @pytest.mark.parametrize("spec", ["C2", "C3", "C4", "P3", "C2x2"])
    @pytest.mark.parametrize("F", [NE, T2], ids=lambda F: F.name)
    def test_stacked_trials_equal_per_trial_functions(self, spec, F):
        algebra, _ = sz.parse_algebra_spec(spec)
        n = algebra.summands[0].size
        seed = 7
        # an infinite tolerance below every value keeps every trial
        verdict = mp.run_suite(
            "mono", F, algebra, n_trials=30, seed=seed,
            tols={"monotonicity": -math.inf})["monotonicity"]
        random = [w for w in verdict.witnesses if w["trial"] % 3 != 2]
        assert len(random) == 20
        for w in random:
            rng = br._trial_rng(seed, w["trial"])
            env = 1 + w["trial"] % n
            phi = st.random_channel(algebra, env_dim=env, seed=rng)
            rho = st.random_state(algebra, seed=rng)
            sigma = st.random_state(algebra, seed=rng)
            before = br.bregman_divergence(F, rho, sigma)
            after = br.bregman_divergence(F, phi.apply_element(rho.element),
                                          phi.apply_element(sigma.element))
            want = (0.0 if math.isinf(after) and math.isinf(before)
                    else after - before)
            assert abs(w["violation"] - want) <= 1e-14, w
            assert w["channel"] == f"random-{phi.name}-env{env}"

    @pytest.mark.parametrize("spec", ["C2", "C3", "C4", "R3", "H2", "S3",
                                      "P3", "P4"])
    @pytest.mark.parametrize("F", [NE, T2, T3], ids=lambda F: F.name)
    def test_stacked_catalog_trials_equal_per_trial_functions(self, spec, F):
        algebra, _ = sz.parse_algebra_spec(spec)
        seed = 5
        # an infinite tolerance below every value keeps every trial
        verdict = mp.run_suite(
            "mono", F, algebra, n_trials=30, seed=seed,
            tols={"monotonicity": -math.inf})["monotonicity"]
        catalog = br._monotonicity_catalog(algebra, seed)
        listed = [w for w in verdict.witnesses
                  if not w["channel"].startswith("random-")]
        randoms = verdict.details.get("channel_pool") != "catalog-only"
        assert [w["trial"] for w in listed] == [
            t for t in range(30) if not randoms or t % 3 == 2]

        def rise(after, before):
            return (0.0 if math.isinf(after) and math.isinf(before)
                    else after - before)

        for w in listed:
            entry = catalog[(w["trial"] // 3) % len(catalog)]
            rng = br._trial_rng(seed, w["trial"])
            sampler = entry.stress_sampler or entry.pair_sampler
            if sampler is None:
                rho = st.random_state(algebra, seed=rng)
                sigma = st.random_state(algebra, seed=rng)
            else:
                rho, sigma = (st.State.make(ja.element_from_reps(
                    algebra, [st._diag_reps(algebra.summands[0], probs)]))
                              for probs in sampler(rng))
            images = [entry.affinity.apply_element(s.element)
                      for s in (rho, sigma)]
            after = br.bregman_divergence(F, *images)
            want = rise(after, br.bregman_divergence(F, rho, sigma))
            name = entry.name
            if entry.recovery is not None:
                back = br.bregman_divergence(
                    F, *(entry.recovery.apply_element(x) for x in images))
                if rise(back, after) > want:
                    want, name = rise(back, after), f"{entry.name}-recovery"
            assert w["violation"] == want, w
            assert w["channel"] == name, w

    @pytest.mark.parametrize("algebra,recovered", [(C3, 5), (H2, 18)],
                             ids=str)
    def test_mono_run_makes_at_most_2_eigensolves(self, monkeypatch, algebra,
                                                  recovered):
        # the 24 trials of a run, random-channel and catalog trials alike,
        # check their 48 states in one stacked eigensolve; a second one
        # decomposes their 48 images with those that recovery maps bring
        # back (on C3 10 more, 106 trial by trial); quaternionic stacks
        # decompose as one too; the catalog's seed-free entries are built
        # once per algebra, so they are built first
        st.channel_catalog(algebra, seed=0)
        calls = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        mp.run_suite("mono", NE, algebra, n_trials=24, seed=0)
        s = algebra.summands[0]
        rep = s.ops.unit(s.size)
        assert len(calls) <= 2, len(calls)
        assert (24, 2) + rep.shape in calls
        assert (24 + recovered, 2) + rep.shape in calls

    def test_mono_chunk_projects_only_the_sigma_sides(self, monkeypatch):
        # both eigensolves of a 24-trial chunk keep their eigenvectors; a
        # divergence pairs only its sigma's idempotents, so each projects
        # half of its states, and no state of this chunk is clipped; the
        # catalog's seed-free entries are built once per algebra, so they
        # are built first
        st.channel_catalog(C3, seed=0)
        decomposed, projected, clipped = [], [], []
        ops = ja._KINDS["complex"]
        check = st._check_spectra

        def decomposing(rep, size):
            decomposed.append(rep.shape[:-2])
            return ops.frames(rep, size)

        def projecting(q):
            projected.append(q.shape)
            return ops.idempotents(q)

        def checking(values):
            out = check(values)
            clipped.append(int(out.sum()))
            return out

        monkeypatch.setitem(ja._KINDS, "complex", dataclasses.replace(
            ops, frames=decomposing, idempotents=projecting))
        monkeypatch.setattr(st, "_check_spectra", checking)
        mp.run_suite("mono", NE, C3, n_trials=24, seed=0)
        assert clipped == [0]
        assert decomposed == [(24, 2), (29, 2)]
        assert projected == [(24, 3, 3), (29, 3, 3)]

    def test_shuffled_mixed_trials_equal_their_replays(self):
        # random-channel, catalog and recovery-named trials out of order
        # in one stack each get the violation they get alone
        trials = [17, 2, 9, 0, 5, 14, 23, 11]
        results = list(br._monotonicity_results(T2, C3, 4, trials))
        assert [r["trial"] for r in results] == trials
        names = [r["channel"] for r in results]
        assert any(name.startswith("random-") for name in names)
        assert any(name.endswith("-recovery") for name in names)
        assert any(not name.startswith("random-")
                   and not name.endswith("-recovery") for name in names)
        for r in results:
            assert r["monotonicity"] == br.replay_monotonicity_trial(
                T2, C3, 4, r["trial"]), r

    @pytest.mark.parametrize("spec", ["C3", "R3", "S3"])
    def test_chunks_do_not_change_the_verdict(self, monkeypatch, spec):
        algebra, _ = sz.parse_algebra_spec(spec)
        whole = mp.run_suite(
            "mono", T2, algebra, n_trials=40, seed=9,
            tols={"monotonicity": -math.inf})["monotonicity"]
        # chunks of 7 split the stacks of both halves, and a replay runs
        # a stack of one trial
        monkeypatch.setattr(br, "_TRIAL_CHUNK", 7)
        chunked = mp.run_suite(
            "mono", T2, algebra, n_trials=40, seed=9,
            tols={"monotonicity": -math.inf})["monotonicity"]
        assert chunked.as_dict() == whole.as_dict()
        for w in whole.witnesses:
            assert br.replay_monotonicity_trial(
                T2, algebra, 9, w["trial"]) == w["violation"]

    def test_chunks_are_slices_of_the_trials(self):
        # a range is sliced, never listed, however long
        assert next(br._in_chunks(lambda ts: [len(ts)], range(10**12), 1)) \
            == br._TRIAL_CHUNK
        chunks = list(br._in_chunks(lambda ts: [ts], range(20),
                                    br._CHUNK_BYTES // 7))
        assert chunks == [range(0, 7), range(7, 14), range(14, 20)]
        # a trial larger than the budget still runs, alone
        assert list(br._in_chunks(lambda ts: [ts], [4, 9],
                                  2 * br._CHUNK_BYTES)) == [[4], [9]]

    @pytest.mark.parametrize("spec,trials", [
        ("C3", range(6)), ("C3", [2]), ("C3", [0]), ("R3", range(6)),
    ], ids=["mixed", "catalog", "random", "catalog-only"])
    def test_generator_pinned_elsewhere_raises(self, spec, trials):
        algebra, _ = sz.parse_algebra_spec(spec)
        F = br.affine_plus_entropy(1.0, st.random_state(C2, seed=1).element)
        with pytest.raises(ja.AlgebraMismatchError):
            list(br._monotonicity_results(F, algebra, 0, trials))

    def test_automorphisms_preserve_divergence_exactly(self):
        cat = st.channel_catalog(C3, seed=24)
        auto = next(c for c in cat if c.name.startswith("automorphism"))
        rng = np.random.default_rng(25)
        for F in (NE, T2):
            rho = st.random_state(C3, seed=rng)
            sigma = st.random_state(C3, seed=rng)
            before = br.bregman_divergence(F, rho, sigma)
            after = br.bregman_divergence(
                F,
                auto.affinity.apply_element(rho.element),
                auto.affinity.apply_element(sigma.element),
            )
            assert after == pytest.approx(before, abs=1e-10)

    def test_mono_run_converts_4_times(self, monkeypatch):
        # divergences pair the reference's frame with the first argument
        # in reps and rep-map channels act on reps, so only matrix-built
        # channels convert, all entries' trials at once: the samplers'
        # diagonals to reps, the inputs to coefficients, their images to
        # reps and their recoveries' images to reps; no matrix is
        # derived.  The catalog's seed-free entries, whose depolarizing
        # channels convert the trace vector, are built once per algebra,
        # so they are built first.
        st.channel_catalog(C3, seed=0)
        calls = record_conversions(monkeypatch)
        derived = []
        matrix = st.Affinity.matrix

        def recording_matrix(phi):
            if phi._matrix is None:
                derived.append(phi.name)
            return matrix.fget(phi)

        monkeypatch.setattr(st.Affinity, "matrix", property(recording_matrix))
        mp.run_suite("mono", NE, C3, n_trials=24, seed=0)
        # the three sampled pairs, then the six matrix-built trials
        assert calls == [(3, 2, 9), (6, 2, 3, 3), (6, 2, 9), (3, 2, 9)]
        assert derived == []

    def test_catalog_only_pool_is_reported(self):
        verdict = mp.run_suite(
            "mono", NE, ja.spin_factor(3), n_trials=40,
            seed=26)["monotonicity"]
        assert verdict.details.get("channel_pool") == "catalog-only"
        assert verdict.passed

    def test_quaternion_catalog_passes_for_entropy(self):
        verdict = mp.run_suite(
            "mono", NE, ja.quaternion_hermitian(2), n_trials=40,
            seed=27)["monotonicity"]
        assert verdict.passed, verdict.worst_violation


class TestSufficiency:
    def test_entropy_equal_on_recoverable_pairs(self):
        for algebra in (C2, C3, ja.classical(3)):
            verdict = mp.run_suite(
                "suff", NE, algebra, n_trials=60, seed=28)["sufficiency"]
            assert verdict.passed, (algebra, verdict.worst_violation)

    def test_trace_power_fails_on_qutrits(self):
        verdict = mp.run_suite(
            "suff", T2, C3, n_trials=60, seed=29)["sufficiency"]
        assert not verdict.passed
        assert any(w["channel"] == "split" for w in verdict.witnesses)

    def test_section_and_embedding_preserve_entropy_divergence(self):
        cat = st.channel_catalog(C2, seed=30)
        sec = next(c for c in cat if c.name == "classical-section")
        rng = np.random.default_rng(31)
        p, q = sampled_pair(sec, rng)
        img_p = sec.affinity.apply_element(p.element)
        img_q = sec.affinity.apply_element(q.element)
        assert br.bregman_divergence(NE, img_p, img_q) == pytest.approx(
            br.bregman_divergence(NE, p, q), abs=1e-10
        )


class TestStatisticalLocality:
    def test_entropy_passes_and_matches_log_value(self):
        verdict = mp.run_suite(
            "local", NE, C3, n_trials=80, seed=32)["statistical-locality"]
        assert verdict.passed
        assert verdict.details["value_residual"] < 1e-8

    @pytest.mark.parametrize("n", [3, 4])
    def test_entropy_passes_on_quaternions(self, n):
        verdict = mp.run_suite(
            "local", NE, ja.quaternion_hermitian(n), n_trials=12,
            seed=50)["statistical-locality"]
        assert verdict.passed, verdict.worst_violation
        assert verdict.details["value_residual"] < 1e-12

    @pytest.mark.parametrize("algebra", [
        ja.real_hermitian(4), ja.complex_hermitian(4),
        ja.quaternion_hermitian(4), ja.classical(4),
    ])
    def test_companions_are_singular_states(self, algebra):
        rng = np.random.default_rng(51)
        for _ in range(5):
            rho, sig1, sig2 = br.random_orthogonal_triple(algebra, rng)
            for sig in (sig1, sig2):
                assert ja.inner_product(rho.element, sig.element) == \
                    pytest.approx(0.0, abs=1e-12)
                assert ja.trace(sig.element) == pytest.approx(1.0, abs=1e-12)

    def test_explicit_qubit_example(self):
        rho = diag_state(C2, [1.0, 0.0])
        sigma = diag_state(C2, [0.0, 1.0])
        mix = st.State.make(0.5 * rho.element + 0.5 * sigma.element)
        assert br.bregman_divergence(NE, rho, mix) == pytest.approx(
            math.log(2), abs=1e-10
        )

    def test_trace_power_fails_on_qutrits(self):
        verdict = mp.run_suite(
            "local", T2, C3, n_trials=80, seed=33)["statistical-locality"]
        assert not verdict.passed
        assert verdict.witnesses

    def test_equal_companions_give_zero(self):
        rho = diag_state(C3, [1.0, 0.0, 0.0])
        sigma = diag_state(C3, [0.0, 0.5, 0.5])
        t = 0.3
        mix = st.State.make((1 - t) * rho.element + t * sigma.element)
        d1 = br.bregman_divergence(T2, rho, mix)
        d2 = br.bregman_divergence(T2, rho, mix)
        assert d1 == d2


def _entropy_f_reference(lam):
    """The entropy spectral function as first written: an elementwise
    domain check and a clip before the multiply."""
    if np.any(lam < -1e-9):
        raise ja.DomainError(
            "negative element outside the entropy domain",
            value=float(lam.min()),
        )
    c = np.clip(lam, 0, None)
    return c * np.log(c, out=np.zeros_like(c), where=c > st.SUPPORT_CUTOFF)


def _entropy_f_cases():
    rng = np.random.default_rng(49)
    cut = st.SUPPORT_CUTOFF
    cases = [rng.dirichlet(np.ones(n)) for n in (1, 2, 3, 16, 64)]
    cases += [rng.uniform(-1e-9, 1.0, size=20), rng.random(256)]
    cases += [np.array(v) for v in (
        [0.0, 0.0, 1.0], [-0.0, 0.5, 0.5], [-1e-12, 0.3, 0.7],
        [cut, np.nextafter(cut, 0.0), np.nextafter(cut, 1.0), 1.0],
        [-cut, 0.0], [-1e-9, 1.0], [np.nan, 0.5], [np.nan, 0.0, -0.0],
        [np.nan, np.nan], [np.inf, 0.0], [0.5, np.nan, -1e-12], [],
    )]
    return cases


class TestEntropyFunction:
    @pytest.mark.parametrize("lam", _entropy_f_cases(), ids=repr)
    def test_bit_identical_to_reference(self, lam):
        got = br._entropy_f(lam)
        assert got.dtype == lam.dtype and got.shape == lam.shape
        assert got.tobytes() == _entropy_f_reference(lam).tobytes()

    def test_nan_eigenvalue_stays_nan(self):
        got = br._entropy_f(np.array([np.nan, 0.0, 0.25]))
        assert np.isnan(got[0]) and np.isnan(got.sum())

    @pytest.mark.parametrize("lam", [
        [-2e-9, 0.5], [np.nextafter(-1e-9, -1.0), 1.0], [-0.1, np.nan],
        [np.nan, -1.0, 2.0], [-np.inf, 1.0],
    ], ids=repr)
    def test_domain_error_unchanged(self, lam):
        lam = np.array(lam)
        with pytest.raises(ja.DomainError) as want:
            _entropy_f_reference(lam)
        with pytest.raises(ja.DomainError) as got:
            br._entropy_f(lam)
        assert str(got.value) == str(want.value)
        assert np.array_equal([got.value.value], [want.value.value],
                              equal_nan=True)


class TestLocalityTheoremFit:
    def test_entropy_fits_itself(self):
        c, residual = br.check_locality_theorem(NE, C3, n_states=150, seed=34)
        assert c == pytest.approx(1.0, abs=1e-6)
        assert residual < 1e-9

    def test_scaled_entropy_plus_affine_recovered(self):
        tilt = st.random_state(C3, seed=35).element * 0.4
        F = br.affine_plus_entropy(2.5, tilt)
        c, residual = br.check_locality_theorem(F, C3, n_states=150, seed=36)
        assert c == pytest.approx(2.5, abs=1e-6)
        assert residual < 1e-7

    def test_trace_power_has_large_residual(self):
        _, residual = br.check_locality_theorem(T2, C3, n_states=150, seed=37)
        assert residual > 1e-4


class TestHierarchy:
    @pytest.mark.parametrize("algebra", [C2, C3])
    def test_ordering_on_shared_seeds(self, algebra):
        tilt = st.random_state(algebra, seed=38).element * 0.2
        generators = [NE, T2, T3, br.affine_plus_entropy(1.5, tilt),
                      br.combine_generators([0.6, 0.4, 0.0], [NE, T2, T3],
                                            name="blend")]
        for F in generators:
            mono = mp.run_suite(
                "mono", F, algebra, n_trials=90, seed=39)["monotonicity"]
            suff = mp.run_suite(
                "suff", F, algebra, n_trials=45, seed=39)["sufficiency"]
            if algebra.rank >= 3:
                local = mp.run_suite(
                    "local", F, algebra, n_trials=45,
                    seed=39)["statistical-locality"].passed
            else:
                local = True
            assert not (mono.passed and not suff.passed), F.name
            assert not (suff.passed and not local), F.name


class TestExplorer:
    def test_smoke_run(self):
        report = br.explore_additivity_conjecture(
            n_generators=6, n_trials=12, seed=40
        )
        assert report["n_generators"] == 6
        rows = report["generators"]
        assert rows[0]["generator"] == "neg-entropy"
        assert rows[0]["monotone"] and rows[0]["additive"]
        assert rows[1]["generator"].startswith("entropy-affine")
        assert rows[1]["monotone"] and rows[1]["additive"]
        # trace powers are neither monotone nor flagged as counterexamples
        t2_row = rows[2]
        assert not t2_row["monotone"]
        table = report["contingency"]
        assert sum(table.values()) == 6

    def test_nan_residual_is_not_additive(self, monkeypatch):
        monkeypatch.setattr(mp, "check_additivity",
                            lambda *args, **kwargs: math.nan)
        report = br.explore_additivity_conjecture(
            n_generators=2, n_trials=3, seed=0
        )
        rows = report["generators"]
        assert [row["additive"] for row in rows] == [False, False]
        assert all(math.isnan(row["worst_additivity_residual"])
                   for row in rows)
        assert report["contingency"]["monotone_and_additive"] == 0
        # the entropy rows stay monotone, so the NaN makes them flagged
        witness = rows[0]["counterexample_witness"]
        assert (witness["trial"], witness["seed"]) == (0, 0)
        assert math.isnan(witness["residual"])

    def test_scaled_entropy_matches_plain_verdicts(self):
        plain = mp.run_suite(
            "mono", NE, C2, n_trials=60, seed=41)["monotonicity"]
        scaled = mp.run_suite(
            "mono", br.combine_generators([3.0], [NE], name="3NE"), C2,
            n_trials=60, seed=41)["monotonicity"]
        assert plain.passed == scaled.passed


@pytest.mark.parametrize("make", [
    br.neg_entropy,
    lambda: br.trace_power(2),
    lambda: br.trace_power(3),
    lambda: br.affine_plus_entropy(
        1.5, st.random_state(C3, seed=7).element
    ),
    lambda: br.combine_generators(
        [0.5, 2.0, 1.0], [NE, T2, T3], trace_tilt=0.1
    ),
], ids=["neg-entropy", "trace-power-2", "trace-power-3", "entropy-affine",
        "combined"])
def test_generators_pickle(make):
    F = make()
    back = pickle.loads(pickle.dumps(F))
    assert back.name == F.name
    rho = st.random_state(C3, seed=8)
    sigma = st.random_state(C3, seed=9)
    assert br.bregman_divergence(back, rho, sigma) \
        == br.bregman_divergence(F, rho, sigma)
