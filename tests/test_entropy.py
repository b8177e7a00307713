import math
from pathlib import Path

import numpy as np
import pytest

from statecone import algebras as ja
from statecone import entropy as en
from statecone import serialize as sz
from statecone import states as st
from test_algebras import embed_quaternion_parts, kramers_columns, readme_coeffs
from test_states import assert_primitive_effects, diag_state

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
        sigma = diag_state(C2, np.array([0.7, 0.3]))
        assert en.spectral_entropy(sigma) == pytest.approx(
            en.shannon_entropy([0.7, 0.3]), abs=1e-12
        )

    @pytest.mark.parametrize("algebra", [
        ja.complex_hermitian(4), ja.quaternion_hermitian(4), ja.classical(4),
    ])
    def test_near_equal_eigenvalues_keep_their_values(self, algebra):
        # 1.76e-8 and 8.92e-9 lie within the 1e-8 eigenvalue grouping
        p = np.array([0.6, 0.4 - 1.76e-8 - 8.92e-9, 1.76e-8, 8.92e-9])
        sigma = diag_state(algebra, p)
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


def sample_pure_decomposition(sigma, rng):
    """A random decomposition sigma = sum_j q_j pi_j into pure states,
    returned as ``(q, pure_elements)``.

    Mixes the spectral pure decomposition by a random unitary (orthogonal,
    symplectic) matrix, which doubly-stochastically reshuffles the
    weights; classical weights are split in two, and on spin factors a
    random chord through the state is used.
    """
    algebra = sigma.algebra
    kind = algebra.summands[0].kind

    if kind == "classical":
        p = sigma.element.reps()[0]
        weights, elements = [], []
        for j, pj in enumerate(p):
            if pj <= st.SUPPORT_CUTOFF:
                continue
            t = rng.uniform(0.2, 0.8)
            for portion in (t * pj, (1 - t) * pj):
                weights.append(portion)
                elements.append(ja.element_from_reps(algebra, [np.eye(len(p))[j]]))
        return np.array(weights), elements

    if kind == "spin":
        d = algebra.summands[0].size
        v = sigma.element.reps()[0][1:]
        u = st._random_frames(kind, st._draw_basis(kind, d, rng))
        # chord through 2v in direction pair (u, w): p*u + (1-p)*w = 2v
        p = float(np.clip((1.0 - 4.0 * v @ v) / (2.0 - 4.0 * (u @ v)),
                          0.0, 1.0))
        if p in (0.0, 1.0):
            u = v / np.linalg.norm(v) if np.linalg.norm(v) > 0 else u
            p = 0.5 + np.linalg.norm(v)
        w = (2.0 * v - p * u) / (1.0 - p) if p < 1.0 else -u
        return np.array([p, 1.0 - p]), [
            ja.element_from_reps(algebra, [np.concatenate(([0.5], 0.5 * x))])
            for x in (u, w)
        ]

    dec = ja.spectral_decompose(sigma.element)
    order, _ = dec.groups
    kept = order[dec.values[order] > st.SUPPORT_CUTOFF]
    weights, projections = dec.values[kept], dec.frame[0][kept]
    # a unit vector in the range of each projection: its fullest column,
    # scaled
    columns = []
    for rep in projections:
        j = int(np.argmax(np.real(np.diag(rep))))
        columns.append(rep[:, j] / np.sqrt(np.real(rep[j, j])))
    columns = np.stack(columns, axis=1)
    mix = st._random_frames(kind, st._draw_basis(kind, len(weights), rng))
    step = len(mix) // len(weights)  # 2 for Kramers pairs of columns
    if kind == "quaternion":
        columns = ja._kramers_pairs(columns)
    phi = (columns * np.repeat(np.sqrt(weights), step)) @ mix
    out_weights, out_elements = [], []
    for j in range(0, len(mix), step):
        pair = phi[:, j:j + step]
        qj = float(np.real(pair[:, 0] @ pair[:, 0].conj()))
        out_weights.append(qj)
        out_elements.append(
            ja.element_from_reps(algebra, [pair @ pair.conj().T / qj])
        )
    return np.array(out_weights), out_elements


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
        value = en.decomposition_entropy(rho)
        rng = np.random.default_rng(8)
        for _ in range(20):
            weights, _ = sample_pure_decomposition(rho, rng)
            assert en.shannon_entropy(weights) >= value - en.SQUEEZE_TOL

    def test_uniform_qubit_cross_check(self):
        mm = st.maximally_mixed(C2)
        rng = np.random.default_rng(9)
        for _ in range(20):
            weights, _ = sample_pure_decomposition(mm, rng)
            assert en.shannon_entropy(weights) >= np.log(2) - 1e-9

    @pytest.mark.parametrize("algebra", SIX_ALGEBRAS)
    def test_sampled_decomposition_reconstructs(self, algebra):
        # the sampler above is an oracle for the minimum only if its
        # output is a decomposition of the state into pure states
        rho = st.random_state(algebra, seed=10)
        weights, elements = sample_pure_decomposition(
            rho, np.random.default_rng(11)
        )
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        total = ja.zero(algebra)
        for w, el in zip(weights, elements):
            assert ja.trace(el) == pytest.approx(1.0, abs=1e-8)
            assert ja.norm(ja.jordan_product(el, el) - el) < 1e-8
            total = total + float(w) * el
        assert ja.norm(total - rho.element) < 1e-8


def degenerate_quaternion_state(n, probs, seed):
    """``U diag(probs) U*`` for a random quaternionic unitary U, built as
    a README-layout matrix whose columns come in Kramers pairs."""
    u = kramers_columns(n, n, np.random.default_rng(seed))
    m = (u * np.repeat(probs, 2)) @ u.conj().T
    return st.State.make(ja.JordanElement(
        ja.quaternion_hermitian(n), readme_coeffs("quaternion", n, m)
    ))


class TestDegenerateQuaternionFrames:
    """Spectral measurements and pure decompositions read one primitive
    idempotent per quaternionic eigenvalue, also inside a degenerate
    eigenspace."""

    STATES = {
        "H3-maximally-mixed":
            lambda: st.maximally_mixed(ja.quaternion_hermitian(3)),
        "H4-multiplicity-2":
            lambda: degenerate_quaternion_state(4, [0.35, 0.35, 0.2, 0.1],
                                                26),
    }

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_spectral_measurement(self, name):
        sigma = self.STATES[name]()
        m = st.spectral_measurement(sigma)
        assert len(m.labels) == sigma.algebra.rank
        assert_primitive_effects(m)
        assert en.shannon_entropy(st.measure(m, sigma)) == pytest.approx(
            en.spectral_entropy(sigma), rel=0, abs=1e-12
        )

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_pure_decomposition_weights(self, name):
        sigma = self.STATES[name]()
        rng = np.random.default_rng(27)
        for _ in range(10):
            weights, _ = sample_pure_decomposition(sigma, rng)
            assert weights.sum() == pytest.approx(1.0, rel=0, abs=1e-12)


class TestFineGrainedBound:
    def test_pure_state_all_zero(self):
        pure = st.random_state(C3, rank_cap=1, seed=12)
        report = en.fine_grained_entropy_bound(pure, n_samples=50, seed=13)
        assert report.spectral == pytest.approx(0.0, abs=1e-9)
        assert report.decomposition == pytest.approx(0.0, abs=1e-9)
        assert report.fine_grained_upper == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("algebra", [
        ja.real_hermitian(3), C2, ja.quaternion_hermitian(2),
        ja.spin_factor(3), ja.classical(3),
    ], ids=str)
    def test_pure_state_entropies_are_positive_zero(self, algebra):
        # a zero entropy prints as 0.0, never as -0.0
        if algebra.summands[0].kind == "spin":
            pure = st.State.make(ja.element_from_reps(
                algebra, [np.array([0.5, 0.5, 0.0, 0.0])]
            ))
        else:
            pure = diag_state(algebra, np.eye(algebra.rank)[0])
        report = en.fine_grained_entropy_bound(pure, n_samples=20, seed=0)
        for value in (report.spectral, report.decomposition,
                      report.fine_grained_upper, report.fine_grained_lower):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_maximally_mixed_qubit_projective_values(self):
        # every rank-one projective basis scores exactly ln 2, one basis
        # at a time and as one stack
        mm = st.maximally_mixed(C2)
        m = mm.element.reps()[0]
        rng = np.random.default_rng(14)
        draws = [st._draw_basis("complex", 2, rng) for _ in range(30)]
        inputs = [[d] for d in draws] + [draws]
        for batch in inputs:
            frames = st._random_frames("complex", np.array(batch))
            probs = en._basis_probs("complex", m, frames)
            assert probs.shape == (len(batch), 2)
            for h in en._row_entropies(np.clip(probs, 0, None)):
                assert h == pytest.approx(np.log(2), abs=1e-10)

    def test_seventy_thirty_attained_by_eigenbasis(self):
        sigma = diag_state(C2, np.array([0.7, 0.3]))
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

    @pytest.mark.parametrize("stem", ["C4", "R3", "H2", "S3", "P4"])
    def test_entropy_run_converts_nothing_to_coefficients(self, monkeypatch,
                                                          stem):
        # the spectral measurement reuses the state's frame, and measures
        # and checks its unit sum by pairing reps
        states = Path(__file__).parent / "golden" / "states"
        sigma = sz.state_from_json(sz.load_json(states / f"{stem}-full.json"))
        calls = []
        for kind, convert in list(ja._COERCE_TO_COEFFS.items()):
            def recording(c, n, convert=convert):
                calls.append(c.shape)
                return convert(c, n)

            monkeypatch.setitem(ja._COERCE_TO_COEFFS, kind, recording)
        en.fine_grained_entropy_bound(sigma, n_samples=200, seed=0)
        assert calls == []


def random_fine_grained_measurement(algebra, rng):
    """The first measurement that :func:`en.fine_grained_entropy_bound`
    samples with seed ``rng``, as a :class:`st.Measurement`: ``rng``
    draws the coin and the blend weight, and a stream spawned from it
    the bases.  Projective, or an overcomplete blend of two bases."""
    s = algebra.summands[0]
    blend, t, frames = en._fine_draws(s, 1, rng, rng.spawn(1)[0])
    if frames is None:
        bases = [np.eye(s.size)] * 2
    elif s.kind == "spin":
        bases = [0.5 * np.stack([np.insert(q, 0, 1.0), np.insert(-q, 0, 1.0)])
                 for q in frames]
    else:
        bases = [ja._frame_projections(s.kind, q) for q in frames]
    outcomes = range(len(bases[0]))
    if not blend[0]:
        return st.Measurement(algebra, tuple(outcomes), (bases[0],))
    return st.Measurement(
        algebra, tuple((tag, k) for tag in "ab" for k in outcomes),
        (np.concatenate([t[0] * bases[0], (1.0 - t[0]) * bases[1]]),),
    )


def assert_rank_one_effects(m, tol=1e-10):
    """Each effect of ``m`` is a positive multiple of a primitive
    idempotent: scaled to trace one, it is idempotent."""
    for k in range(len(m.labels)):
        e = m.effect(k)
        c = ja.trace(e)
        assert c > tol
        assert ja.norm(ja.jordan_product(e, e) - c * e) < tol


class TestRandomFineGrainedMeasurements:
    @pytest.mark.parametrize("algebra", SIX_ALGEBRAS)
    def test_sampled_measurements_are_fine_grained(self, algebra):
        rng = np.random.default_rng(18)
        for _ in range(5):
            m = random_fine_grained_measurement(algebra, rng)
            assert_rank_one_effects(m)
            np.testing.assert_allclose(sum(m.effect(k).coeffs
                                           for k in range(len(m.labels))),
                                       ja.unit(algebra).coeffs, atol=1e-10)

    @pytest.mark.parametrize("algebra", SIX_ALGEBRAS + [ja.classical(4)],
                             ids=str)
    def test_measurement_is_the_first_sample(self, algebra):
        # the stacked sampler scores its first sample as measuring the
        # state in the frames it drew, projective and blended alike
        blends = set()
        for seed in range(8):
            sigma = st.random_state(algebra, seed=seed + 40)
            m = random_fine_grained_measurement(
                algebra, np.random.default_rng(seed)
            )
            rng = np.random.default_rng(seed)
            want = en._fine_entropies(sigma, 1, rng, rng.spawn(1)[0])[0]
            got = en.shannon_entropy(st.measure(m, sigma))
            assert got == pytest.approx(want, rel=0, abs=1e-12)
            blends.add(len(m.labels) > algebra.rank)
        assert blends == {False, True}

    @pytest.mark.parametrize("algebra", SIX_ALGEBRAS)
    def test_object_and_fast_paths_agree_in_bounds(self, algebra):
        rho = st.random_state(algebra, seed=19)
        h = en.spectral_entropy(rho)
        rng = np.random.default_rng(20)
        for _ in range(10):
            m = random_fine_grained_measurement(algebra, rng)
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
    # one vector of each Kramers pair of the orthonormalized draw
    g = embed_quaternion_parts(rng.normal(size=(4, size, size)))
    q = ja._kramers_orthonormalize(g)[:, ::2]
    return np.einsum("ji,jk,ki->i", q.conj(), m, q).real


def _reference_fine_entropies(sigma, n_samples, rng, bases):
    """Per-sample loop: a coin and a blend weight from ``rng``, then a
    basis from ``bases``, and for a blend a second one; returns the
    entropies and the number of blends."""
    s = sigma.algebra.summands[0]
    m = sigma.element.reps()[0]
    values, blends = [], 0
    for _ in range(n_samples):
        coin, u = rng.uniform(), rng.uniform()
        first = _reference_basis_probs(s.kind, s.size, m, bases)
        if coin < 0.5:
            probs = first
        else:
            blends += 1
            t = 0.2 + 0.6 * u
            second = first if s.kind == "classical" else \
                _reference_basis_probs(s.kind, s.size, m, bases)
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
            bases_batched = rng_batched.spawn(1)[0]
            bases_loop = rng_loop.spawn(1)[0]
            batched = en._fine_entropies(sigma, 60, rng_batched, bases_batched)
            loop, blends = _reference_fine_entropies(
                sigma, 60, rng_loop, bases_loop
            )
            assert 0 < blends < 60  # both branches were taken
            if exact:
                np.testing.assert_array_equal(batched, loop)
            else:
                np.testing.assert_allclose(batched, loop, rtol=0, atol=1e-15)
            # the batched sampler leaves both streams where the loop does
            assert rng_batched.uniform() == rng_loop.uniform()
            assert bases_batched.uniform() == bases_loop.uniform()

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
        # lowest sample: samples 5 and 17 (the lowest) undercut, and 5
        # is reported.  Chunks must keep the draws and the sample index.
        monkeypatch.setattr(en, "SAMPLE_CHUNK", chunk)
        sigma = st.random_state(ja.complex_hermitian(3), seed=23)
        rng = np.random.default_rng(28)
        values, _ = _reference_fine_entropies(sigma, 50, rng, rng.spawn(1)[0])
        raised = float(np.sort(values)[2])
        monkeypatch.setattr(en, "spectral_entropy", lambda s: raised)
        monkeypatch.setattr(en, "shannon_entropy", lambda p: raised)
        bad = np.flatnonzero(values < raised - en.SQUEEZE_TOL)
        assert list(bad) == [5, 17] and np.argmin(values) == 17
        first = 5
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
