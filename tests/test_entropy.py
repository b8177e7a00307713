import numpy as np
import pytest

from statecone import algebras as ja
from statecone import entropy as en
from statecone import states as st

C2 = ja.complex_hermitian(2)
C3 = ja.complex_hermitian(3)
SIX_ALGEBRAS = [
    ja.complex_hermitian(2),
    ja.complex_hermitian(3),
    ja.complex_hermitian(4),
    ja.real_hermitian(3),
    ja.quaternion_hermitian(2),
    ja.spin_factor(3),
]


class TestShannon:
    def test_point_mass(self):
        assert en.shannon_entropy([1.0, 0.0]) == 0.0

    def test_uniform_pair(self):
        assert en.shannon_entropy([0.5, 0.5]) == pytest.approx(np.log(2))

    def test_seventy_thirty(self):
        # -0.7 ln 0.7 - 0.3 ln 0.3
        assert en.shannon_entropy([0.7, 0.3]) == pytest.approx(
            0.6108643020548935, abs=1e-12
        )

    def test_renormalizes_within_tolerance(self):
        value = en.shannon_entropy([0.5 + 4e-9, 0.5 - 5e-9])
        assert value == pytest.approx(np.log(2), abs=1e-8)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            en.shannon_entropy([1.2, -0.2])

    def test_bistochastic_maps_increase_entropy(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            weights = rng.dirichlet(np.ones(4))
            m = sum(
                w * np.eye(n)[rng.permutation(n)] for w in weights
            )
            p = rng.dirichlet(np.ones(n))
            assert en.shannon_entropy(m @ p) >= en.shannon_entropy(p) - 1e-9


class TestSpectralEntropy:
    def test_pure_state_is_zero(self):
        for algebra in SIX_ALGEBRAS:
            pure = st.random_state(algebra, rank_cap=1, seed=1)
            assert en.spectral_entropy(pure) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_is_log_rank(self):
        for algebra in SIX_ALGEBRAS:
            mm = st.maximally_mixed(algebra)
            assert en.spectral_entropy(mm) == pytest.approx(
                np.log(algebra.rank), abs=1e-10
            )

    def test_matches_classical_formula(self):
        sigma = st._diag_state(C2, np.array([0.7, 0.3]))
        assert en.spectral_entropy(sigma) == pytest.approx(
            en.shannon_entropy([0.7, 0.3]), abs=1e-12
        )

    @pytest.mark.parametrize("algebra", [
        ja.complex_hermitian(4), ja.quaternion_hermitian(4), ja.classical(4),
    ])
    def test_near_equal_eigenvalues_keep_their_values(self, algebra):
        # 1.76e-8 and 8.92e-9 lie within the 1e-8 eigenvalue grouping
        p = np.array([0.6, 0.4 - 1.76e-8 - 8.92e-9, 1.76e-8, 8.92e-9])
        sigma = st._diag_state(algebra, p)
        assert en.spectral_entropy(sigma) == pytest.approx(
            -np.sum(p * np.log(p)), rel=0, abs=1e-15
        )

    def test_concavity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = st.random_state(C3, seed=rng)
            sigma = st.random_state(C3, seed=rng)
            t = rng.uniform()
            mix = st.State.make(
                t * rho.element + (1 - t) * sigma.element
            )
            assert en.spectral_entropy(mix) >= (
                t * en.spectral_entropy(rho)
                + (1 - t) * en.spectral_entropy(sigma)
                - 1e-9
            )

    def test_invariant_under_automorphisms(self):
        for algebra in SIX_ALGEBRAS:
            cat = st.channel_catalog(algebra, seed=3)
            auto = next(
                c for c in cat if c.name.startswith("automorphism")
            )
            rho = st.random_state(algebra, seed=4)
            moved = st.State.make(auto.affinity.apply_element(rho.element))
            assert en.spectral_entropy(moved) == pytest.approx(
                en.spectral_entropy(rho), abs=1e-9
            )

    def test_bounded_by_log_rank(self):
        rng = np.random.default_rng(5)
        for algebra in SIX_ALGEBRAS:
            rho = st.random_state(algebra, seed=rng)
            h = en.spectral_entropy(rho)
            assert -1e-12 <= h <= np.log(algebra.rank) + 1e-12


class TestDecompositionEntropy:
    @pytest.mark.parametrize("algebra", SIX_ALGEBRAS)
    def test_equals_spectral(self, algebra):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rho = st.random_state(algebra, seed=rng)
            assert en.decomposition_entropy(rho) == pytest.approx(
                en.spectral_entropy(rho), abs=1e-9
            )

    @pytest.mark.parametrize("algebra", SIX_ALGEBRAS)
    def test_sampled_decompositions_stay_above(self, algebra):
        rho = st.random_state(algebra, seed=7)
        # raises if any sampled decomposition undercuts the value
        en.decomposition_entropy(rho, cross_check_samples=20, seed=8)

    def test_negative_cross_check_count_is_rejected(self):
        rho = st.random_state(C3, seed=12)
        with pytest.raises(ValueError, match="cross_check_samples"):
            en.decomposition_entropy(rho, cross_check_samples=-3)
        # zero still means no cross-check
        assert en.decomposition_entropy(rho, cross_check_samples=0) == \
            pytest.approx(en.spectral_entropy(rho), abs=1e-12)

    def test_uniform_qubit_cross_check(self):
        mm = st.maximally_mixed(C2)
        rng = np.random.default_rng(9)
        for _ in range(20):
            weights, _ = en.sample_pure_decomposition(mm, rng)
            assert en.shannon_entropy(weights) >= np.log(2) - 1e-9

    @pytest.mark.parametrize("algebra", SIX_ALGEBRAS)
    def test_sampled_decomposition_reconstructs(self, algebra):
        rho = st.random_state(algebra, seed=10)
        weights, elements = en.sample_pure_decomposition(
            rho, np.random.default_rng(11)
        )
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        total = ja.zero(algebra)
        for w, el in zip(weights, elements):
            assert ja.trace(el) == pytest.approx(1.0, abs=1e-8)
            total = total + float(w) * el
        assert ja.norm(total - rho.element) < 1e-8


class TestFineGrainedBound:
    def test_pure_state_all_zero(self):
        pure = st.random_state(C3, rank_cap=1, seed=12)
        report = en.fine_grained_entropy_bound(pure, n_samples=50, seed=13)
        assert report.spectral == pytest.approx(0.0, abs=1e-9)
        assert report.decomposition == pytest.approx(0.0, abs=1e-9)
        assert report.fine_grained_upper == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_qubit_projective_values(self):
        # every rank-one projective basis scores exactly ln 2, one basis
        # at a time and as one stack
        mm = st.maximally_mixed(C2)
        m = mm.element.reps()[0]
        rng = np.random.default_rng(14)
        draws = [en._draw_basis("complex", 2, rng) for _ in range(30)]
        inputs = [[d] for d in draws] + [draws]
        for batch in inputs:
            probs = en._basis_probs("complex", m, batch)
            assert probs.shape == (len(batch), 2)
            for h in en._row_entropies(np.clip(probs, 0, None)):
                assert h == pytest.approx(np.log(2), abs=1e-10)

    def test_seventy_thirty_attained_by_eigenbasis(self):
        sigma = st._diag_state(C2, np.array([0.7, 0.3]))
        report = en.fine_grained_entropy_bound(sigma, n_samples=100, seed=15)
        assert report.fine_grained_upper == pytest.approx(
            0.6108643020548935, abs=1e-9
        )

    @pytest.mark.parametrize("algebra", SIX_ALGEBRAS)
    def test_squeeze_holds(self, algebra):
        rho = st.random_state(algebra, seed=16)
        report = en.fine_grained_entropy_bound(rho, n_samples=100, seed=17)
        assert report.fine_grained_lower == report.spectral
        assert report.spectral <= report.fine_grained_upper + 1e-9
        assert report.decomposition == pytest.approx(
            report.spectral, abs=1e-9
        )
        assert report.n_measurements_sampled == 100


class TestRandomFineGrainedMeasurements:
    @pytest.mark.parametrize("algebra", SIX_ALGEBRAS)
    def test_sampled_measurements_are_fine_grained(self, algebra):
        rng = np.random.default_rng(18)
        for _ in range(5):
            m = en.random_fine_grained_measurement(algebra, rng)
            assert st.is_fine_grained(m)

    @pytest.mark.parametrize("algebra", SIX_ALGEBRAS)
    def test_object_and_fast_paths_agree_in_bounds(self, algebra):
        rho = st.random_state(algebra, seed=19)
        h = en.spectral_entropy(rho)
        rng = np.random.default_rng(20)
        for _ in range(10):
            m = en.random_fine_grained_measurement(algebra, rng)
            assert en.shannon_entropy(st.measure(m, rho)) >= h - 1e-9


def _reference_basis_probs(kind, size, m, rng):
    """One random projective basis drawn and scored on its own."""
    if kind == "classical":
        return m.copy()
    if kind == "spin":
        u = rng.normal(size=size)
        u /= np.linalg.norm(u)
        overlap = float(u @ m[1:])
        return np.array([0.5 + overlap, 0.5 - overlap])
    if kind == "real":
        q, _ = np.linalg.qr(rng.normal(size=(size, size)))
        return np.einsum("ji,jk,ki->i", q, m, q)
    if kind == "complex":
        g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        q, _ = np.linalg.qr(g)
        return np.einsum("ji,jk,ki->i", q.conj(), m, q).real
    q = st._random_quaternion_unitary(rng.normal(size=(4, size, size)))
    full = ja._quaternion_matmul(
        st._quaternion_conj_transpose(q), ja._quaternion_matmul(m, q)
    )
    return np.diag(full[0]).copy()


def _reference_fine_entropies(sigma, n_samples, rng):
    """Per-sample loop: a basis, a coin, and for a blend ``t`` and a
    second basis; returns the entropies and the number of blends."""
    s = sigma.algebra.summands[0]
    m = sigma.element.reps()[0]
    values, blends = [], 0
    for _ in range(n_samples):
        first = _reference_basis_probs(s.kind, s.size, m, rng)
        if rng.uniform() < 0.5:
            probs = first
        else:
            blends += 1
            t = rng.uniform(0.2, 0.8)
            second = first if s.kind == "classical" else \
                _reference_basis_probs(s.kind, s.size, m, rng)
            probs = np.concatenate([t * first, (1.0 - t) * second])
        probs = np.clip(probs, 0.0, None)
        mask = probs > st.SUPPORT_CUTOFF
        values.append(float(-np.sum(probs[mask] * np.log(probs[mask]))))
    return np.array(values), blends


BATCHED_ALGEBRAS = [
    ja.real_hermitian(3),
    ja.real_hermitian(5),
    ja.complex_hermitian(3),
    ja.complex_hermitian(4),
    ja.quaternion_hermitian(2),
    ja.quaternion_hermitian(3),
    ja.classical(4),
    ja.spin_factor(3),
]


class TestBatchedSampler:
    @pytest.mark.parametrize("algebra", BATCHED_ALGEBRAS,
                             ids=lambda a: a.summands[0].kind
                             + str(a.summands[0].size))
    @pytest.mark.parametrize("rank_cap", [None, 1])
    def test_matches_per_sample_loop(self, algebra, rank_cap):
        exact = algebra.summands[0].kind != "spin"
        for seed in (0, 5):
            sigma = st.random_state(algebra, rank_cap=rank_cap, seed=seed + 21)
            rng_batched = np.random.default_rng(seed)
            rng_loop = np.random.default_rng(seed)
            batched = en._fine_entropies(sigma, 60, rng_batched)
            loop, blends = _reference_fine_entropies(sigma, 60, rng_loop)
            assert 0 < blends < 60  # both branches were taken
            if exact:
                np.testing.assert_array_equal(batched, loop)
            else:
                np.testing.assert_allclose(batched, loop, rtol=0, atol=1e-15)
            # the batched sampler leaves the stream where the loop does
            assert rng_batched.uniform() == rng_loop.uniform()

    def test_reduction_matches_rowwise_sum_on_partial_support(self):
        # rows of eight outcomes with entries at and below the cutoff:
        # a zero-filled row would sum in another order than its support
        rng = np.random.default_rng(22)
        p = rng.dirichlet(np.ones(8), size=40)
        p[rng.uniform(size=p.shape) < 0.3] = 0.0
        p[::7, 2] = 0.5 * st.SUPPORT_CUTOFF
        got = en._row_entropies(p)
        for row, h in zip(p, got):
            support = row[row > st.SUPPORT_CUTOFF]
            assert h == -np.sum(support * np.log(support))

    @pytest.mark.parametrize("chunk", [1, 7, en.SAMPLE_CHUNK])
    def test_undercut_raises_on_first_bad_sample(self, monkeypatch, chunk):
        # no state undercuts its spectral entropy, so raise the spectral
        # value (and the value its measurement attains) to the third
        # lowest sample: samples 23 and 30 (the lowest) undercut, and 23
        # is reported.  Chunks must keep the draws and the sample index.
        monkeypatch.setattr(en, "SAMPLE_CHUNK", chunk)
        sigma = st.random_state(ja.complex_hermitian(3), seed=23)
        values, _ = _reference_fine_entropies(
            sigma, 50, np.random.default_rng(28)
        )
        raised = float(np.sort(values)[2])
        monkeypatch.setattr(en, "spectral_entropy", lambda s: raised)
        monkeypatch.setattr(en, "shannon_entropy", lambda p: raised)
        bad = np.flatnonzero(values < raised - en.SQUEEZE_TOL)
        assert list(bad) == [23, 30] and np.argmin(values) == 30
        first = 23
        with pytest.raises(en.EntropyBoundError) as caught:
            en.fine_grained_entropy_bound(sigma, n_samples=50, seed=28)
        message = str(caught.value)
        assert f"at entropy {values[first]} " in message
        assert f"(sample {first})" in message

    def test_needs_a_sample(self):
        mm = st.maximally_mixed(C2)
        for n in (0, -3):
            with pytest.raises(ValueError, match="n_samples"):
                en.fine_grained_entropy_bound(mm, n_samples=n)
