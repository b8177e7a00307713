import copy
import math
import pickle
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from statecone import algebras as ja
from statecone import bregman as br
from statecone import multipartite as mp
from statecone import serialize as sz
from statecone import states as st
from test_states import diag_state

NE = br.neg_entropy()
C2 = ja.complex_hermitian(2)
LAYOUT_22 = st.composite_layout(st.COMPLEX_TENSOR, (2, 2))
LAYOUT_23 = st.composite_layout(st.COMPLEX_TENSOR, (2, 3))
CLASSICAL_222 = st.composite_layout(st.CLASSICAL_TENSOR, (2, 2, 2))
CLASSICAL_2222 = st.composite_layout(st.CLASSICAL_TENSOR, (2, 2, 2, 2))
QUBITS_4 = st.composite_layout(st.COMPLEX_TENSOR, (2, 2, 2, 2))
QUTRITS_4 = st.composite_layout(st.COMPLEX_TENSOR, (3, 3, 3, 3))


def bell_partitioned():
    state = mp.maximally_entangled_state(LAYOUT_22)
    return mp.PartitionedState(state, ("A", "B"))


def random_partitioned_state(embedding, sizes, labels, seed=None,
                             rank_cap=None):
    """A random state on the layout ``embedding`` of ``sizes``, its
    factors named by ``labels``."""
    layout = st.composite_layout(embedding, sizes)
    state = st.random_state(
        layout.ambient, rank_cap=rank_cap, seed=seed, layout=layout
    )
    return mp.PartitionedState(state, tuple(labels))


def marginal_of(pstate, labels):
    """The marginal of ``pstate`` on the factors named by ``labels``."""
    return st.marginal(pstate.state, pstate.indices(labels))


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
        verdict = mp.run_suite(
            "additivity", NE, LAYOUT_22, n_trials=25, seed=8)["additivity"]
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
        ra = diag_state(ja.classical(2), rng.dirichlet([2, 2]))
        rb = diag_state(ja.classical(2), rng.dirichlet([2, 2]))
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
        verdict = mp.run_suite(
            "marginal", NE, LAYOUT_23, n_trials=20,
            seed=14)["marginal-identity"]
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
            p = random_partitioned_state(
                st.COMPLEX_TENSOR, (2, 2), ("A", "B"), seed=rng
            )
            assert mp.mutual_information(NE, p, ["A"], ["B"]) >= -1e-9

    def test_interleaved_label_sets(self):
        rng = np.random.default_rng(18)
        p = random_partitioned_state(
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
        p = random_partitioned_state(
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
        p3 = random_partitioned_state(
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
        pab = random_partitioned_state(
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


def built_product(pstate, groups):
    """The product of the group marginals as an element on the factors of
    the joint marginal, in factor order: ``tensor_state`` of the
    marginals, then the rep's axes transposed back to factor order."""
    order = [l for g in groups for l in sorted(g, key=pstate.labels.index)]
    labels = sorted(order, key=pstate.labels.index)
    marginals = [marginal_of(pstate, g) for g in groups]
    layout = pstate.state.layout
    coarse = st.CompositeLayout(
        tuple(m.algebra for m in marginals), layout.embedding
    )
    rep = st.tensor_state(marginals, coarse).element.reps()[0]
    sizes = [layout.sizes[pstate.labels.index(l)] for l in order]
    perm = [order.index(l) for l in labels]
    if layout.embedding == st.CLASSICAL_TENSOR:
        moved = rep.reshape(sizes).transpose(perm).reshape(-1)
    else:
        k = len(sizes)
        moved = rep.reshape(sizes * 2).transpose(
            perm + [k + i for i in perm]
        ).reshape(rep.shape)
    return ja.element_from_reps(marginal_of(pstate, labels).algebra, [moved])


def assert_same_divergence(got, want):
    assert math.isinf(got) == math.isinf(want)
    if math.isfinite(want):
        assert got == pytest.approx(want, rel=0, abs=1e-12)


class TestProductReader:
    """Mutual and conditional mutual informations read the product
    reference from the marginals' spectra; each must match the divergence
    from a product that the test builds itself."""

    CASES = {
        (2, 3, 2): (
            [(["A", "C"], ["B"]), (["B"], ["C", "A"]), (["C"], ["A"])],
            [(["A"], ["C"], ["B"]), (["C"], ["A"], ["B"])],
        ),
        (2, 3, 2, 2): (
            [(["D", "A"], ["C", "B"]), (["A", "C"], ["B"])],
            [(["D"], ["B"], ["A", "C"]), (["A"], ["C"], ["B", "D"]),
             (["A"], ["B", "C"], ["D"])],
        ),
    }

    @pytest.mark.parametrize("F", [NE, br.trace_power(3)],
                             ids=["neg-entropy", "trace-power-3"])
    @pytest.mark.parametrize("rank_cap", [None, 1])
    @pytest.mark.parametrize("embedding",
                             [st.COMPLEX_TENSOR, st.CLASSICAL_TENSOR])
    @pytest.mark.parametrize("sizes", sorted(CASES))
    def test_matches_built_product(self, F, rank_cap, embedding, sizes):
        labels = ("A", "B", "C", "D")[:len(sizes)]
        p = random_partitioned_state(
            embedding, sizes, labels,
            seed=np.random.default_rng([45, len(sizes)]), rank_cap=rank_cap,
        )
        mis, cmis = self.CASES[sizes]
        for a, b in mis:
            assert_same_divergence(
                mp.mutual_information(F, p, a, b),
                br.bregman_divergence(
                    F, marginal_of(p, a + b), built_product(p, [a, b])
                ),
            )
        for a, b, c in cmis:
            report = mp.conditional_mutual_information(F, p, a, b, c)
            for got, groups in zip(report.components,
                                   ([a, b, c], [a, c], [b, c])):
                joint = marginal_of(p, [l for g in groups for l in g])
                assert_same_divergence(
                    got,
                    br.bregman_divergence(F, joint, built_product(p, groups)),
                )

    def test_separoid_run_converts_at_most_eight_times(self, monkeypatch):
        # states, marginals and their Jordan frames stay matrices from the
        # sampler to the divergence, so coefficients are rarely derived
        calls = []
        for table in (ja._COERCE_TO_REP, ja._COERCE_TO_COEFFS):
            def recording(c, n, convert=table["complex"]):
                calls.append(c.shape)
                return convert(c, n)

            monkeypatch.setitem(table, "complex", recording)
        mp.run_suite("separoid", NE, QUBITS_4, n_trials=4, seed=27)
        assert len(calls) <= 8, calls

    def test_equal_layouts_share_one_plan_of_labels_and_shapes(self):
        # two states whose equal layouts were built separately
        states = [
            random_partitioned_state(st.COMPLEX_TENSOR, (2, 3, 2, 2),
                                     ("A", "B", "C", "D"), seed=seed)
            for seed in (48, 49)
        ]
        assert states[0].state.layout is not states[1].state.layout
        mp._grouping_plan.cache_clear()
        for p in states:
            mp.conditional_mutual_information(NE, p, ["A"], ["B", "C"], ["D"])
        # one entry for the groupings of the three terms, shared by both
        # states
        info = mp._grouping_plan.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)

        def leaves(x):
            if isinstance(x, tuple):
                for y in x:
                    yield from leaves(y)
            else:
                yield x

        plan = mp._contraction_plan(states[1].state.layout,
                                    ((0,), (1, 2), (3,)))
        assert all(type(v) is int for v in leaves(plan)), plan

    def test_pinned_generator_on_another_algebra(self):
        F = br.affine_plus_entropy(1.5, ja.zero(ja.complex_hermitian(4)))
        p = random_partitioned_state(
            st.COMPLEX_TENSOR, (2, 3), ("A", "B"), seed=46
        )
        with pytest.raises(ja.AlgebraMismatchError):
            mp.mutual_information(F, p, ["A"], ["B"])


class TestSeparoid:
    def test_four_qubit_small_run(self):
        verdicts = mp.run_suite("separoid", NE, QUBITS_4, n_trials=12, seed=27)
        for key, verdict in verdicts.items():
            assert verdict.passed, (key, verdict.worst_violation)

    def test_classical_small_run(self):
        verdicts = mp.run_suite(
            "separoid", NE, CLASSICAL_2222, n_trials=12, seed=28,
            tols={"chain": 1e-10})
        for key, verdict in verdicts.items():
            assert verdict.passed, (key, verdict.worst_violation)

    def test_generator_pinned_elsewhere_raises(self):
        # pinned to the ambient algebra, which no proper marginal shares
        F = br.affine_plus_entropy(1.5, ja.zero(ja.complex_hermitian(16)))
        with pytest.raises(ja.AlgebraMismatchError):
            mp.run_suite("separoid", F, QUBITS_4, n_trials=4, seed=27)

    def test_product_four_party_values_vanish(self):
        layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 2, 2, 2))
        parts = [st.random_state(C2, seed=29 + k) for k in range(4)]
        p = mp.PartitionedState(
            st.tensor_state(parts, layout), ("A", "B", "C", "D")
        )
        for groups in ((["A"], ["B"], ["C"]), (["A"], ["B", "C"], ["D"])):
            report = mp.conditional_mutual_information(NE, p, *groups)
            assert report.value == pytest.approx(0.0, abs=1e-9)

    def test_a_trial_runs_each_distinct_product_divergence_once(
            self, monkeypatch):
        # the five informations have 15 terms, of which 12 differ
        groups = []
        product_terms = mp._product_terms

        def recording(marginals, g, plan):
            groups.append(g)
            return product_terms(marginals, g, plan)

        monkeypatch.setattr(mp, "_product_terms", recording)
        mp.run_suite("separoid", NE, QUBITS_4, n_trials=4, seed=27)
        assert len(groups) == len(set(groups)) == 12

    def test_a_chunk_projects_only_the_frames_a_grouping_pairs(
            self, monkeypatch):
        # the single qubits and the marginals (1, 2) and (1, 3) are groups;
        # the joints, the three-qubit marginals, (0, 2) and (0, 3) are
        # read only as joints, so only their clipped rows, rebuilt from
        # their spectra, are projected
        projected, clipped = Counter(), Counter()
        projections = ja._frame_projections
        check = st._check_spectra

        def projecting(kind, q):
            projected[q.shape[-1]] += math.prod(q.shape[:-2])
            return projections(kind, q)

        def checking(values):
            out = check(values)
            clipped[values.shape[-1]] += int(out.sum())
            return out

        monkeypatch.setattr(ja, "_frame_projections", projecting)
        monkeypatch.setattr(st, "_check_spectra", checking)
        mp.run_suite("separoid", NE, QUBITS_4, n_trials=4, seed=27)
        # the pure fourth trial's joint is clipped
        assert clipped[16] == 1
        assert projected == Counter({16: clipped[16], 8: clipped[8],
                                     4: 2 * 4 + clipped[4],
                                     2: 4 * 4 + clipped[2]})

    @pytest.mark.parametrize("embedding,sizes,eighs,passes", [
        # the joints, then the marginals on C8, C2 and C4; products of
        # sizes 16, 8 and 4
        (st.COMPLEX_TENSOR, (2, 2, 2, 2),
         [(4, 16, 16), (12, 8, 8), (16, 2, 2), (16, 4, 4)],
         [(8, 16), (16, 4), (24, 8)]),
        # C12, C2, C3, C4 and C6: factor counts do not decide the algebra
        (st.COMPLEX_TENSOR, (2, 3, 2, 2),
         [(4, 24, 24), (12, 12, 12), (12, 2, 2), (4, 3, 3), (8, 4, 4),
          (8, 6, 6)],
         [(8, 4), (8, 6), (8, 24), (24, 12)]),
        # classical spectra need no eigensolve
        (st.CLASSICAL_TENSOR, (2, 2, 2, 2), [],
         [(8, 16), (16, 4), (24, 8)]),
    ])
    def test_a_chunk_groups_its_work_by_shape(self, monkeypatch, embedding,
                                              sizes, eighs, passes):
        # one eigensolve per algebra of the marginals and one divergence
        # pass per product size, each over all trials of the chunk
        solved, divided = [], []
        eigh, divergence = np.linalg.eigh, mp._divergence

        def counting_eigh(a, *args, **kwargs):
            solved.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def counting_divergence(F, x, mu, p):
            divided.append(np.shape(x))
            return divergence(F, x, mu, p)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(mp, "_divergence", counting_divergence)
        layout = st.composite_layout(embedding, sizes)
        mp._separoid_trials(NE, layout, 34, range(4))
        assert sorted(solved) == sorted(eighs)
        assert sorted(divided) == passes

    @pytest.mark.parametrize("embedding,sizes", [
        (st.COMPLEX_TENSOR, (2, 2, 2, 2)),
        (st.CLASSICAL_TENSOR, (2, 2, 2, 2)),
        (st.COMPLEX_TENSOR, (2, 3, 2, 2)),
        (st.COMPLEX_TENSOR, (1, 1, 1, 1)),
    ])
    @pytest.mark.parametrize("F", [NE, br.trace_power(2)],
                             ids=["neg-entropy", "trace-power-2"])
    def test_chunked_trials_equal_trials_alone(self, embedding, sizes, F):
        layout = st.composite_layout(embedding, sizes)
        chunk = mp._separoid_trials(F, layout, 35, range(13))
        alone = [result for t in range(13)
                 for result in mp._separoid_trials(F, layout, 35, [t])]
        assert chunk == alone

    def test_trace_power_breaks_the_chain_rule(self):
        # so the chunked comparison above covers failing trials
        layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 2, 2, 2))
        chunk = mp._separoid_trials(br.trace_power(2), layout, 35, range(13))
        tol = mp.SUITES["separoid"].tols["chain"]
        assert any(r["chain"] > tol for r in chunk)

    def test_four_qutrits_hold_a_bounded_chunk(self):
        # chunks are bounded by the 8.5 MB of a joint's idempotents, which
        # clipped joints still build, so a chunk of 512 would need
        # gigabytes; chunks bounded by bytes keep the peak of 32 trials
        # near that of a few
        tracemalloc.start()
        try:
            verdicts = mp.run_suite(
                "separoid", NE, QUTRITS_4, n_trials=32, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(v.passed and v.trials == 32 for v in verdicts.values())
        assert peak < 100e6, peak

    def test_four_qutrits_build_only_the_frames_they_pair(self):
        # a joint's eigenvectors take 105 kB and its idempotents 8.5 MB;
        # only the pure trials' clipped joints build the latter
        tracemalloc.start()
        try:
            mp.run_suite("separoid", NE, QUTRITS_4, n_trials=32, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, peak

    def test_chain_rule_via_marginal_identity_route(self):
        # the two assembly routes for the chain rule must agree
        rng = np.random.default_rng(30)
        p = random_partitioned_state(
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
    """Each marginal a state's informations read is traced and
    decomposed once, and every route to it gives the same one."""

    @staticmethod
    def four_party(embedding, seed, rank_cap=None):
        return random_partitioned_state(
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

    def test_one_eigensolve_per_marginal(self, monkeypatch):
        eighs, traces = [], []
        eigh, partial_traces = np.linalg.eigh, st._partial_traces

        def counting_eigh(a, *args, **kwargs):
            eighs.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def counting_traces(layout, reps, keep):
            traces.append((reps.shape[0], tuple(keep)))
            return partial_traces(layout, reps, keep)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(st, "_partial_traces", counting_traces)
        verdicts = mp.run_suite("separoid", NE, QUBITS_4, n_trials=4, seed=34)
        assert all(v.passed for v in verdicts.values())
        # the four random states, then their 11 distinct proper
        # marginals, one stacked eigensolve per algebra: C8, C2 and C4
        assert eighs == [(4, 16, 16), (12, 8, 8), (16, 2, 2), (16, 4, 4)]
        # one stacked partial trace of all four trials per marginal
        assert len(traces) == len(set(traces)) == 11, traces
        assert all(n == 4 for n, _ in traces)


GOLDEN_STATES = Path(__file__).parent / "golden" / "states"


def golden_partitioned(name):
    state = sz.state_from_json(sz.load_json(GOLDEN_STATES / name))
    return mp.PartitionedState(
        state, tuple("ABCD"[:len(state.layout.factors)]))


def reference_divergence(F, pstate, groups):
    """The divergence of the marginal on the label ``groups`` from the
    product of their marginals, each marginal built on its own by
    ``st.marginal`` and each divergence run alone."""
    layout = pstate.state.layout
    indices = tuple(pstate.indices(g) for g in groups)
    marginals = {}
    for m in (mp._joined(indices), *indices):
        state = pstate.state if len(m) == len(pstate.labels) \
            else st.marginal(pstate.state, m)
        dec = ja.spectral_decompose(state.element)
        marginals[m] = (state.element.reps()[0][None], dec.values[None],
                        dec.frame[0][None])
    terms = mp._product_terms(marginals, indices,
                              mp._contraction_plan(layout, indices))
    return float(br._divergence(F, *terms)[0])


class TestSingleStateInformation:
    """A single state's informations run on a stack of one, with the
    separoid suite's helper, and give the bits of marginals built one at
    a time."""

    @pytest.mark.parametrize("F", [NE, br.trace_power(2), br.trace_power(3)],
                             ids=["neg-entropy", "trace-power-2",
                                  "trace-power-3"])
    @pytest.mark.parametrize("name", ["C2x2x2-full.json", "C2x2x2-pure.json",
                                      "P2x3x2-full.json", "P2x3x2-pure.json"])
    def test_equal_marginals_built_one_at_a_time(self, F, name):
        p = golden_partitioned(name)
        for a, b in ((["A"], ["B", "C"]), (["B"], ["A"]), (["C"], ["A"])):
            assert mp.mutual_information(F, p, a, b) == \
                reference_divergence(F, p, [a, b])
        for a, b, c in ((["A"], ["B"], ["C"]), (["B"], ["C"], ["A"]),
                        (["C"], ["A"], ["B"]), (["A"], ["C"], ["B"])):
            report = mp.conditional_mutual_information(F, p, a, b, c)
            want = tuple(reference_divergence(F, p, groups)
                         for groups in ([a, b, c], [a, c], [b, c]))
            assert report.components == want
            if report.defined:
                assert report.value == want[0] - want[1] - want[2]

    @pytest.mark.parametrize("rank_cap", [1, 2])
    def test_equal_on_low_rank_states(self, rank_cap):
        # their rank-deficient marginals have eigenvalue jitter below
        # zero, which both routes clip and rebuild
        for seed in range(20):
            p = random_partitioned_state(
                st.COMPLEX_TENSOR, (2, 2, 2), ("A", "B", "C"),
                seed=np.random.default_rng([50, seed]), rank_cap=rank_cap,
            )
            for a, b, c in ((["A"], ["B"], ["C"]), (["A"], ["C"], ["B"])):
                report = mp.conditional_mutual_information(NE, p, a, b, c)
                assert report.components == tuple(
                    reference_divergence(NE, p, groups)
                    for groups in ([a, b, c], [a, c], [b, c]))

    def test_cmi_makes_one_eigensolve_per_marginal_algebra(
            self, monkeypatch):
        p = golden_partitioned("C2x2x2-full.json")
        eighs = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            eighs.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        mp.conditional_mutual_information(NE, p, ["A"], ["B"], ["C"])
        # the loaded state keeps its spectrum; the marginals on A, B and
        # C, then those on AC and BC
        assert eighs == [(3, 2, 2), (2, 4, 4)]


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
        return random_partitioned_state(
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
        verdict = mp.run_suite(
            "dpi", NE, LAYOUT_22, n_trials=40, seed=32)["data-processing"]
        assert verdict.passed

    def test_nan_after_an_infinite_before_fails(self, monkeypatch):
        # an infinite information before the channel and NaN after it
        values = iter([math.inf] + [math.nan] * 3)
        monkeypatch.setattr(mp, "mutual_information",
                            lambda *args: next(values))
        verdict = mp.check_data_processing(
            NE, bell_partitioned(), n_trials=3, seed=0
        )
        assert math.isnan(verdict.worst_violation)
        assert not verdict.passed
        assert [w["trial"] for w in verdict.witnesses] == [0, 1, 2]

    @pytest.mark.parametrize("values", [(0.0, math.nan), (math.nan, 0.0)])
    def test_suite_keeps_a_nan_worst_of_any_state(self, monkeypatch,
                                                  values):
        # the trials of one state pass; the other's give NaN
        per_state = iter(values)

        def results(F, pstate, seed, trials):
            value = next(per_state)
            for trial in trials:
                yield {"trial": trial, "seed": seed,
                       "data-processing": value}

        monkeypatch.setattr(mp, "_data_processing_results", results)
        verdict = mp.run_suite(
            "dpi", NE, LAYOUT_22, n_trials=4, seed=5)["data-processing"]
        assert math.isnan(verdict.worst_violation)
        assert not verdict.passed
        # state k runs under the seed 5 + k
        nan_seed = 5 + [math.isnan(v) for v in values].index(True)
        assert [(w["trial"], w["seed"]) for w in verdict.witnesses] == [
            (0, nan_seed), (1, nan_seed)]

    def test_dpi_run_converts_no_basis_and_derives_no_matrix(self,
                                                           monkeypatch):
        # a Stinespring channel is lifted by pushing the matrix units
        # through its rep map, so the factor kernel needs no coefficients
        calls = []
        for table in (ja._COERCE_TO_REP, ja._COERCE_TO_COEFFS):
            def recording(c, n, convert=table["complex"]):
                calls.append(c.shape)
                return convert(c, n)

            monkeypatch.setitem(table, "complex", recording)
        derived = []
        matrix = st.Affinity.matrix

        def recording_matrix(phi):
            if phi._matrix is None:
                derived.append(phi.name)
            return matrix.fget(phi)

        monkeypatch.setattr(st.Affinity, "matrix", property(recording_matrix))
        verdict = mp.run_suite(
            "dpi", NE, LAYOUT_23, n_trials=4, seed=0)["data-processing"]
        assert verdict.trials == 4
        assert calls == []
        assert derived == []


def _pickled(x):
    return pickle.loads(pickle.dumps(x))


ROUND_TRIPS = {"pickle": _pickled, "copy": copy.copy,
               "deepcopy": copy.deepcopy}


def assert_same_element(back, el):
    assert back.algebra == el.algebra
    assert back.coeffs.tobytes() == el.coeffs.tobytes()
    assert not back.coeffs.flags.writeable
    assert not back.algebra.trace_vector.flags.writeable
    with pytest.raises(AttributeError):
        back.coeffs = np.zeros(el.algebra.dim)


class TestPickling:
    """Elements, states and partitioned states survive pickling and
    copying with their caches filled; the caches refill on demand."""

    @pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
    def test_element(self, how):
        algebra = ja.Algebra(ja.complex_hermitian(2).summands
                             + ja.quaternion_hermitian(2).summands)
        el = ja.JordanElement(
            algebra, np.random.default_rng(41).normal(size=algebra.dim)
        )
        el.reps()
        dec = ja.spectral_decompose(el)
        back = ROUND_TRIPS[how](el)
        assert back is not el and back._spectral is None
        assert_same_element(back, el)
        np.testing.assert_array_equal(
            np.sort(ja.spectral_decompose(back).values), np.sort(dec.values)
        )
        for rep, again in zip(back.reps(), el.reps()):
            np.testing.assert_array_equal(rep, again)
        unit = ja.unit(ja.complex_hermitian(2))
        assert_same_element(ROUND_TRIPS[how](unit), unit)

    @pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
    def test_rep_built_element(self, how):
        algebra = ja.Algebra(ja.complex_hermitian(2).summands
                             + ja.quaternion_hermitian(2).summands
                             + ja.spin_factor(2).summands)
        source = ja.JordanElement(
            algebra, np.random.default_rng(47).normal(size=algebra.dim)
        )
        el = ja.element_from_reps(algebra, source.reps())
        dec = ja.spectral_decompose(el)
        back = ROUND_TRIPS[how](el)
        assert back is not el and back._spectral is None
        assert back._coeffs is None and el._coeffs is None
        for rep, again in zip(back.reps(), el.reps()):
            assert not rep.flags.writeable
            np.testing.assert_array_equal(rep, again, strict=True)
        np.testing.assert_array_equal(
            ja.spectral_decompose(back).values, dec.values
        )
        assert_same_element(back, el)

    @pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
    def test_decomposition_with_unread_rows(self, how):
        # the frame is the only stored view and comes back read-only, bit
        # for bit
        dec = ja.spectral_decompose(st.random_state(C2, seed=48).element)
        back = ROUND_TRIPS[how](dec)
        assert back is not dec and len(back.frame) == 1
        assert not back.frame[0].flags.writeable
        np.testing.assert_array_equal(back.frame[0], dec.frame[0],
                                      strict=True)
        np.testing.assert_array_equal(back.values, dec.values)

    @pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
    def test_state(self, how):
        sigma = st.random_state(C2, seed=42)
        other = st.random_state(C2, seed=43)
        value = br.bregman_divergence(NE, sigma, other)
        back = ROUND_TRIPS[how](sigma)
        assert back.layout == sigma.layout
        assert_same_element(back.element, sigma.element)
        assert br.bregman_divergence(NE, back, other) == pytest.approx(
            value, rel=0, abs=1e-14
        )

    @pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
    def test_partitioned_state(self, how):
        pstate = random_partitioned_state(
            st.COMPLEX_TENSOR, (2, 2, 2), ("A", "B", "C"),
            seed=np.random.default_rng(44),
        )
        report = mp.conditional_mutual_information(
            NE, pstate, ["A"], ["B"], ["C"]
        )
        back = ROUND_TRIPS[how](pstate)
        assert back.labels == pstate.labels
        again = mp.conditional_mutual_information(
            NE, back, ["A"], ["B"], ["C"]
        )
        assert again.value == pytest.approx(report.value, rel=0, abs=1e-12)
