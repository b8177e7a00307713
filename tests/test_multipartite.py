import math

import numpy as np
import pytest

from statecone import algebras as ja
from statecone import bregman as br
from statecone import multipartite as mp
from statecone import states as st

NE = br.neg_entropy()
C2 = ja.complex_hermitian(2)
LAYOUT_22 = st.composite_layout(st.COMPLEX_TENSOR, (2, 2))
LAYOUT_23 = st.composite_layout(st.COMPLEX_TENSOR, (2, 3))
CLASSICAL_222 = st.composite_layout(st.CLASSICAL_TENSOR, (2, 2, 2))


def bell_partitioned():
    state = mp.maximally_entangled_state(LAYOUT_22)
    return mp.PartitionedState(state, ("A", "B"))


def classical_table(probs, sizes):
    layout = st.composite_layout(st.CLASSICAL_TENSOR, sizes)
    el = ja.element_from_reps(
        layout.ambient, [np.asarray(probs, dtype=float).reshape(-1)]
    )
    return mp.PartitionedState(
        st.State.make(el, layout),
        tuple(chr(ord("A") + i) for i in range(len(sizes))),
    )


def classical_entropy(table, axes):
    marg = table.sum(axis=tuple(
        i for i in range(table.ndim) if i not in axes
    ))
    p = marg.reshape(-1)
    p = p[p > 1e-15]
    return float(-(p * np.log(p)).sum())


class TestAdditivity:
    def test_equal_second_factors_reduce_to_local(self):
        rng = np.random.default_rng(0)
        ra = st.random_state(C2, seed=rng)
        sa = st.random_state(C2, seed=rng)
        shared = st.random_state(C2, seed=rng)
        residual = mp.check_additivity(NE, ra, shared, sa, shared, LAYOUT_22)
        assert residual < 1e-9

    @pytest.mark.parametrize("layout", [LAYOUT_22, LAYOUT_23])
    def test_entropy_additive_on_random_quadruples(self, layout):
        rng = np.random.default_rng(1)
        for _ in range(10):
            ra = st.random_state(layout.factors[0], seed=rng)
            rb = st.random_state(layout.factors[1], seed=rng)
            sa = st.random_state(layout.factors[0], seed=rng)
            sb = st.random_state(layout.factors[1], seed=rng)
            assert mp.check_additivity(NE, ra, rb, sa, sb, layout) < 1e-8

    def test_real_embedding_additive(self):
        layout = st.composite_layout(st.REAL_INTO_LARGER, (2, 2))
        rng = np.random.default_rng(2)
        for _ in range(5):
            ra = st.random_state(layout.factors[0], seed=rng)
            rb = st.random_state(layout.factors[1], seed=rng)
            sa = st.random_state(layout.factors[0], seed=rng)
            sb = st.random_state(layout.factors[1], seed=rng)
            assert mp.check_additivity(NE, ra, rb, sa, sb, layout) < 1e-8

    def test_trace_power_not_additive(self):
        rng = np.random.default_rng(3)
        t2 = br.trace_power(2)
        worst = max(
            mp.check_additivity(
                t2,
                st.random_state(C2, seed=rng),
                st.random_state(C2, seed=rng),
                st.random_state(C2, seed=rng),
                st.random_state(C2, seed=rng),
                LAYOUT_22,
            )
            for _ in range(10)
        )
        assert worst > 1e-3

    def test_infinite_on_both_sides_counts_as_pass(self):
        pure = st.random_state(C2, rank_cap=1, seed=4)
        other = st.random_state(C2, rank_cap=1, seed=5)
        rb = st.random_state(C2, seed=6)
        sb = st.random_state(C2, seed=7)
        residual = mp.check_additivity(NE, pure, rb, other, sb, LAYOUT_22)
        assert residual == 0.0

    def test_suite_wrapper(self):
        verdict = mp.run_additivity_suite(NE, LAYOUT_22, n_trials=25, seed=8)
        assert verdict.passed
        assert verdict.trials == 25


class TestMarginalIdentity:
    def test_equal_first_marginal_reduces(self):
        sab = st.random_state(LAYOUT_22.ambient, seed=9, layout=LAYOUT_22)
        sa = st.marginal(sab, [0])
        rb = st.random_state(C2, seed=10)
        assert mp.check_marginal_identity(NE, sab, sa, rb) < 1e-9

    def test_classical_chain_rule_arithmetic(self):
        rng = np.random.default_rng(11)
        table = rng.dirichlet(np.ones(4))
        layout = st.composite_layout(st.CLASSICAL_TENSOR, (2, 2))
        sab = st.State.make(
            ja.element_from_reps(layout.ambient, [table]), layout
        )
        ra = st._diag_state(ja.classical(2), rng.dirichlet([2, 2]))
        rb = st._diag_state(ja.classical(2), rng.dirichlet([2, 2]))
        assert mp.check_marginal_identity(NE, sab, ra, rb) < 1e-10

    def test_random_quantum_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            sab = st.random_state(
                LAYOUT_22.ambient, seed=rng, layout=LAYOUT_22
            )
            ra = st.random_state(C2, seed=rng)
            rb = st.random_state(C2, seed=rng)
            assert mp.check_marginal_identity(NE, sab, ra, rb) < 1e-8

    def test_affine_tensor_decomposition_cross_check(self):
        # assemble a joint state as an affine combination of products and
        # check the identity on that decomposition
        rng = np.random.default_rng(14)
        products, weights = [], np.array([0.5, 0.6, -0.1])
        for _ in range(3):
            a = st.random_state(C2, seed=rng)
            b = st.random_state(C2, seed=rng)
            products.append(st.tensor(a, b, LAYOUT_22))
        mixture = sum(
            (float(w) * p.element for w, p in zip(weights, products)),
            ja.zero(LAYOUT_22.ambient),
        )
        sab = st.State.make(mixture, LAYOUT_22)  # stays inside the cone
        ra = st.random_state(C2, seed=rng)
        rb = st.random_state(C2, seed=rng)
        assert mp.check_marginal_identity(NE, sab, ra, rb) < 1e-8

    def test_suite_wrapper(self):
        verdict = mp.run_marginal_identity_suite(
            NE, LAYOUT_23, n_trials=20, seed=14
        )
        assert verdict.passed


class TestMutualInformation:
    def test_product_state_zero(self):
        prod = st.tensor(
            st.random_state(C2, seed=15), st.random_state(C2, seed=16),
            LAYOUT_22,
        )
        p = mp.PartitionedState(prod, ("A", "B"))
        assert abs(mp.mutual_information(NE, p, ["A"], ["B"])) < 1e-9

    def test_correlated_bits(self):
        p = classical_table([[0.5, 0.0], [0.0, 0.5]], (2, 2))
        assert mp.mutual_information(NE, p, ["A"], ["B"]) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_bell_state(self):
        assert mp.mutual_information(
            NE, bell_partitioned(), ["A"], ["B"]
        ) == pytest.approx(2 * math.log(2), abs=1e-9)

    def test_overlap_rejected(self):
        with pytest.raises(mp.OverlapError):
            mp.mutual_information(NE, bell_partitioned(), ["A"], ["A"])

    def test_nonnegative_for_entropy(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = mp.random_partitioned_state(
                st.COMPLEX_TENSOR, (2, 2), ("A", "B"), seed=rng
            )
            assert mp.mutual_information(NE, p, ["A"], ["B"]) >= -1e-9

    def test_interleaved_label_sets(self):
        rng = np.random.default_rng(18)
        p = mp.random_partitioned_state(
            st.COMPLEX_TENSOR, (2, 2, 2), ("A", "B", "C"), seed=rng
        )
        # {A, C} vs {B} forces a factor permutation in the reference
        value = mp.mutual_information(NE, p, ["A", "C"], ["B"])
        assert value >= -1e-9
        # against the classical oracle on a diagonal embedding
        table = np.random.default_rng(19).dirichlet(np.ones(8)).reshape(
            2, 2, 2
        )
        q = classical_table(table, (2, 2, 2))
        got = mp.mutual_information(NE, q, ["A", "C"], ["B"])
        expected = (
            classical_entropy(table, {0, 2})
            + classical_entropy(table, {1})
            - classical_entropy(table, {0, 1, 2})
        )
        assert got == pytest.approx(expected, abs=1e-10)


class TestConditionalMutualInformation:
    def test_fully_product_tripartite(self):
        parts = [st.random_state(C2, seed=20 + k) for k in range(3)]
        layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 2, 2))
        p = mp.PartitionedState(
            st.tensor_state(parts, layout), ("A", "B", "C")
        )
        report = mp.conditional_mutual_information(
            NE, p, ["A"], ["B"], ["C"]
        )
        assert report.defined
        assert report.value == pytest.approx(0.0, abs=1e-9)

    def test_components_assemble(self):
        rng = np.random.default_rng(21)
        p = mp.random_partitioned_state(
            st.COMPLEX_TENSOR, (2, 2, 2), ("A", "B", "C"), seed=rng
        )
        report = mp.conditional_mutual_information(NE, p, ["A"], ["B"], ["C"])
        assert report.value == pytest.approx(
            report.components[0] - report.components[1]
            - report.components[2],
            abs=1e-10,
        )

    def test_markov_chain_is_zero(self):
        rng = np.random.default_rng(22)
        pa = rng.dirichlet([1, 1])
        pc_a = rng.dirichlet([1, 1], size=2)
        pb_c = rng.dirichlet([1, 1], size=2)
        table = np.einsum("a,ac,cb->abc", pa, pc_a, pb_c)
        p = classical_table(table, (2, 2, 2))
        report = mp.conditional_mutual_information(NE, p, ["A"], ["B"], ["C"])
        assert report.value == pytest.approx(0.0, abs=1e-9)

    def test_ghz_table(self):
        table = np.zeros((2, 2, 2))
        table[0, 0, 0] = table[1, 1, 1] = 0.5
        p = classical_table(table, (2, 2, 2))
        cmi = mp.conditional_mutual_information(NE, p, ["A"], ["B"], ["C"])
        assert cmi.value == pytest.approx(0.0, abs=1e-12)
        assert mp.mutual_information(NE, p, ["A"], ["B"]) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_matches_textbook_classical_formula(self):
        rng = np.random.default_rng(23)
        table = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        p = classical_table(table, (2, 2, 2))
        report = mp.conditional_mutual_information(NE, p, ["A"], ["B"], ["C"])
        expected = (
            classical_entropy(table, {0, 2})
            + classical_entropy(table, {1, 2})
            - classical_entropy(table, {0, 1, 2})
            - classical_entropy(table, {2})
        )
        assert report.value == pytest.approx(expected, abs=1e-9)

    def test_diagonal_embedding_changes_nothing(self):
        rng = np.random.default_rng(24)
        table = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        classical_report = mp.conditional_mutual_information(
            NE, classical_table(table, (2, 2, 2)), ["A"], ["B"], ["C"]
        )
        layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 2, 2))
        diag = st.State.make(
            ja.element_from_reps(
                layout.ambient, [np.diag(table.reshape(-1)).astype(complex)]
            ),
            layout,
        )
        quantum_report = mp.conditional_mutual_information(
            NE, mp.PartitionedState(diag, ("A", "B", "C")),
            ["A"], ["B"], ["C"],
        )
        assert quantum_report.value == pytest.approx(
            classical_report.value, abs=1e-10
        )

    def test_spectator_factor_leaves_mi_unchanged(self):
        rng = np.random.default_rng(25)
        p3 = mp.random_partitioned_state(
            st.COMPLEX_TENSOR, (2, 2, 2), ("A", "B", "C"), seed=rng
        )
        base = mp.conditional_mutual_information(NE, p3, ["A"], ["B"], ["C"])
        spectator = st.random_state(C2, seed=rng)
        layout4 = st.composite_layout(st.COMPLEX_TENSOR, (2, 2, 2, 2))
        coarse = st.composite_layout(
            st.COMPLEX_TENSOR, (8, 2)
        )
        big = st.tensor_state(
            [st.State(p3.state.element, None), spectator], coarse
        )
        big = st.State(big.element, layout4)
        p4 = mp.PartitionedState(big, ("A", "B", "C", "D"))
        extended = mp.conditional_mutual_information(
            NE, p4, ["A"], ["B"], ["C"]
        )
        assert extended.value == pytest.approx(base.value, abs=1e-9)

    def test_trivial_pure_conditioner_reduces_to_mi(self):
        rng = np.random.default_rng(26)
        pab = mp.random_partitioned_state(
            st.COMPLEX_TENSOR, (2, 2), ("A", "B"), seed=rng
        )
        pure = st.random_state(C2, rank_cap=1, seed=rng)
        layout3 = st.composite_layout(st.COMPLEX_TENSOR, (2, 2, 2))
        coarse = st.composite_layout(st.COMPLEX_TENSOR, (4, 2))
        big = st.tensor_state(
            [st.State(pab.state.element, None), pure], coarse
        )
        p3 = mp.PartitionedState(
            st.State(big.element, layout3), ("A", "B", "C")
        )
        mi = mp.mutual_information(NE, pab, ["A"], ["B"])
        cmi = mp.conditional_mutual_information(NE, p3, ["A"], ["B"], ["C"])
        assert cmi.defined
        assert cmi.value == pytest.approx(mi, abs=1e-9)


class TestSeparoid:
    def test_four_qubit_small_run(self):
        verdicts = mp.check_separoid(
            NE, st.COMPLEX_TENSOR, (2, 2, 2, 2), n_trials=12, seed=27
        )
        for key, verdict in verdicts.items():
            assert verdict.passed, (key, verdict.worst_violation)

    def test_classical_small_run(self):
        verdicts = mp.check_separoid(
            NE, st.CLASSICAL_TENSOR, (2, 2, 2, 2), n_trials=12, seed=28,
            chain_tol=1e-10,
        )
        for key, verdict in verdicts.items():
            assert verdict.passed, (key, verdict.worst_violation)

    def test_product_four_party_values_vanish(self):
        layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 2, 2, 2))
        parts = [st.random_state(C2, seed=29 + k) for k in range(4)]
        p = mp.PartitionedState(
            st.tensor_state(parts, layout), ("A", "B", "C", "D")
        )
        for groups in ((["A"], ["B"], ["C"]), (["A"], ["B", "C"], ["D"])):
            report = mp.conditional_mutual_information(NE, p, *groups)
            assert report.value == pytest.approx(0.0, abs=1e-9)

    def test_chain_rule_via_marginal_identity_route(self):
        # the two assembly routes for the chain rule must agree
        rng = np.random.default_rng(30)
        p = mp.random_partitioned_state(
            st.COMPLEX_TENSOR, (2, 2, 2, 2), ("A", "B", "C", "D"), seed=rng
        )
        left = mp.conditional_mutual_information(
            NE, p, ["A"], ["B", "C"], ["D"]
        )
        right = (
            mp.conditional_mutual_information(NE, p, ["A"], ["B"], ["D"]).value
            + mp.conditional_mutual_information(
                NE, p, ["A"], ["C"], ["B", "D"]
            ).value
        )
        assert left.value == pytest.approx(right, abs=1e-9)


# the (a, b, c) of each separoid trial, in the suite's order
SEPAROID_CMIS = [
    (["A"], ["B"], ["C"]),
    (["B"], ["A"], ["C"]),
    (["A"], ["B", "C"], ["D"]),
    (["A"], ["B"], ["D"]),
    (["A"], ["C"], ["B", "D"]),
]


class TestSharedCaches:
    """Sub-states share their parent's marginals and product references,
    so each is computed once per state."""

    @staticmethod
    def four_party(embedding, seed, rank_cap=None):
        return mp.random_partitioned_state(
            embedding, (2, 2, 2, 2), ("A", "B", "C", "D"),
            seed=np.random.default_rng(seed), rank_cap=rank_cap,
        )

    @pytest.mark.parametrize("embedding",
                             [st.COMPLEX_TENSOR, st.CLASSICAL_TENSOR])
    @pytest.mark.parametrize("rank_cap", [None, 1])
    @pytest.mark.parametrize("outer,inners", [
        ([0, 1, 2], [[0], [1], [2], [0, 2], [1, 2]]),
        ([0, 1, 3], [[0], [1], [3], [0, 3], [1, 3]]),
    ])
    def test_nested_marginals_match_direct(self, embedding, rank_cap,
                                           outer, inners):
        sigma = self.four_party(embedding, 31, rank_cap).state
        outer_state = st.marginal(sigma, outer)
        for inner in inners:
            nested = st.marginal(outer_state, [outer.index(i) for i in inner])
            direct = st.marginal(sigma, inner)
            np.testing.assert_allclose(nested.element.coeffs,
                                       direct.element.coeffs,
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("embedding",
                             [st.COMPLEX_TENSOR, st.CLASSICAL_TENSOR])
    def test_cmi_matches_fresh_substate(self, embedding):
        p = self.four_party(embedding, 32)
        for a, b, c in SEPAROID_CMIS:
            shared = mp.conditional_mutual_information(NE, p, a, b, c)
            kept = tuple(l for l in p.labels if l in a + b + c)
            fresh = mp.PartitionedState(
                st.marginal(p.state, p.indices(kept)), kept
            )
            alone = mp.conditional_mutual_information(NE, fresh, a, b, c)
            assert shared.value == pytest.approx(alone.value, rel=0,
                                                 abs=1e-13)

    def test_substate_shares_caches(self):
        p = self.four_party(st.COMPLEX_TENSOR, 33)
        sub = p.restrict(["B", "A", "D"])
        assert sub.labels == ("A", "B", "D")
        assert sub.state is p.marginal(["A", "B", "D"])
        assert sub.marginal(["D", "A"]) is p.marginal(["A", "D"])
        assert p.restrict(["A", "B", "C", "D"]).state is p.state

    def test_one_eigensolve_per_marginal(self, monkeypatch):
        counts = {"eigh": 0, "marginal": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh",
                            counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(st, "marginal", counting("marginal", st.marginal))
        verdicts = mp.check_separoid(
            NE, st.COMPLEX_TENSOR, (2, 2, 2, 2), n_trials=1, seed=34
        )
        assert all(v.passed for v in verdicts.values())
        # one random state and its 11 distinct proper marginals
        assert counts == {"eigh": 12, "marginal": 11}


def qubit_entropy(rho, keep):
    """Von Neumann entropy of the marginal on ``keep`` of a 4-qubit
    density matrix, from numpy partial traces and ``eigvalsh``."""
    t = rho.reshape((2,) * 8)
    for i in reversed([i for i in range(4) if i not in keep]):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    d = 2 ** len(keep)
    w = np.linalg.eigvalsh(t.reshape(d, d))
    w = w[w > 1e-12]
    return float(-(w * np.log(w)).sum())


def reference_cmi(rho, a, b, c):
    """I(a;b|c) = S(ac) + S(bc) - S(abc) - S(c)."""
    return (qubit_entropy(rho, sorted(a + c))
            + qubit_entropy(rho, sorted(b + c))
            - qubit_entropy(rho, sorted(a + b + c))
            - qubit_entropy(rho, sorted(c)))


class TestSeparoidChainDefect:
    """Trial 3 of ``suite separoid C2x2x2x2 --seed 3045832050``, a globally
    pure state: rho_A x rho_C x rho_BD has the eigenvalues 8.92e-9 and
    1.76e-8, closer than the 1e-8 eigenvalue grouping, and every chain
    term must still match a dense reference within 1e-9."""

    @staticmethod
    def trial_state():
        rng = np.random.default_rng([3045832050, 3, 0])
        return mp.random_partitioned_state(
            st.COMPLEX_TENSOR, (2, 2, 2, 2), ("A", "B", "C", "D"),
            seed=rng, rank_cap=1,
        )

    @pytest.mark.parametrize("a,b,c", [
        (["A"], ["B", "C"], ["D"]),
        (["A"], ["B"], ["D"]),
    ])
    def test_other_chain_terms_match_reference(self, a, b, c):
        p = self.trial_state()
        index = {"A": 0, "B": 1, "C": 2, "D": 3}
        expected = reference_cmi(p.state.element.reps()[0],
                                 *([index[l] for l in s] for s in (a, b, c)))
        cmi = mp.conditional_mutual_information(NE, p, a, b, c)
        assert cmi.value == pytest.approx(expected, rel=0, abs=1e-9)

    def test_chain_cmi_with_merged_product_eigenvalues(self):
        p = self.trial_state()
        expected = reference_cmi(p.state.element.reps()[0], [0], [2], [1, 3])
        cmi = mp.conditional_mutual_information(NE, p, ["A"], ["C"],
                                                ["B", "D"])
        assert cmi.value == pytest.approx(expected, rel=0, abs=1e-9)


class TestDataProcessing:
    def test_identity_channel_is_equality(self):
        p = bell_partitioned()
        before = mp.mutual_information(NE, p, ["A"], ["B"])
        ident = st.identity_affinity(C2)
        lifted = st.extend_to_factor(ident, LAYOUT_22, 1)
        after_state = mp.PartitionedState(
            st.State(lifted.apply_element(p.state.element), LAYOUT_22),
            ("A", "B"),
        )
        after = mp.mutual_information(NE, after_state, ["A"], ["B"])
        assert after == pytest.approx(before, abs=1e-10)

    def test_replace_with_fixed_state_kills_mi(self):
        p = bell_partitioned()
        dep = st._depolarize(C2, 1.0)
        lifted = st.extend_to_factor(dep, LAYOUT_22, 1)
        after_state = mp.PartitionedState(
            st.State(lifted.apply_element(p.state.element), LAYOUT_22),
            ("A", "B"),
        )
        assert mp.mutual_information(
            NE, after_state, ["A"], ["B"]
        ) == pytest.approx(0.0, abs=1e-9)

    def test_random_channels_never_raise_mi(self):
        verdict = mp.check_data_processing(
            NE, bell_partitioned(), n_trials=40, seed=31
        )
        assert verdict.passed, verdict.worst_violation

    def test_suite_wrapper(self):
        verdict = mp.run_dpi_suite(NE, LAYOUT_22, n_trials=40, seed=32)
        assert verdict.passed
