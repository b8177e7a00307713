import copy
import pickle

import numpy as np
import pytest

from statecone import algebras as ja
from statecone import states as st
from test_algebras import embed_quaternion_parts

C2 = ja.complex_hermitian(2)
C3 = ja.complex_hermitian(3)
ALL_SIMPLE = [
    ja.real_hermitian(3),
    ja.complex_hermitian(3),
    ja.quaternion_hermitian(2),
    ja.spin_factor(3),
    ja.classical(4),
]
C2_P2 = ja.Algebra(C2.summands + ja.classical(2).summands)


def diag_state(algebra, probs):
    """The state with diagonal ``probs``; the diagonal units come first in
    the basis of every matrix kind."""
    coeffs = np.zeros(algebra.dim)
    coeffs[:len(probs)] = probs
    return st.State.make(ja.JordanElement(algebra, coeffs))


def effect_frame(*effects):
    """The frame of a measurement with these effects: one stack of their
    reps per summand."""
    return tuple(np.stack(reps) for reps in zip(*(e.reps() for e in effects)))


def is_trace_preserving(phi):
    t_src, t_tgt = st.trace_vector(phi.source), st.trace_vector(phi.target)
    return np.max(np.abs(t_tgt @ phi.matrix - t_src)) <= st.CLIP_TOL


def sampled_pair(entry, rng):
    """The states of the diagonals an entry's pair sampler draws."""
    source = entry.affinity.source
    return [st.State.make(ja.element_from_reps(
                source, [st._diag_reps(source.summands[0], probs)]))
            for probs in entry.pair_sampler(rng)]


def complexified_tensor(phi):
    """Action of the map on arbitrary complex matrices, as a 4-tensor
    T[p, q, i, j] with Phi(M)[p, q] = sum_ij T[p, q, i, j] M[i, j]."""
    m = phi.source.summands[0].size
    algebra = phi.source
    t = np.zeros((m, m, m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            h1 = np.zeros((m, m), dtype=complex)
            h1[i, j] += 0.5
            h1[j, i] += 0.5
            h2 = np.zeros((m, m), dtype=complex)
            h2[i, j] += -0.5j
            h2[j, i] += 0.5j
            out1 = phi.apply_element(
                ja.element_from_reps(algebra, [h1])
            ).reps()[0]
            out2 = phi.apply_element(
                ja.element_from_reps(algebra, [h2])
            ).reps()[0]
            t[:, :, i, j] = out1 + 1j * out2
    return t


def traced_out(rep, embedding, sizes, keep):
    """Partial trace by one ``np.trace`` per dropped factor, or the
    classical axis sum."""
    drop = [i for i in range(len(sizes)) if i not in keep]
    if embedding == st.CLASSICAL_TENSOR:
        return np.sum(rep.reshape(sizes), axis=tuple(drop)).reshape(-1)
    t = rep.reshape(sizes + sizes)
    k = len(sizes)
    for i in reversed(drop):
        t = np.trace(t, axis1=i, axis2=i + k)
        k -= 1
    d = int(np.prod([sizes[i] for i in keep]))
    return t.reshape(d, d)


def _quaternion_matmul(a, b):
    """Product of quaternionic matrices in their four real component
    matrices ``(..., 4, n, m)``."""
    a0, a1, a2, a3 = (a[..., k, :, :] for k in range(4))
    b0, b1, b2, b3 = (b[..., k, :, :] for k in range(4))
    return np.stack([
        a0 @ b0 - a1 @ b1 - a2 @ b2 - a3 @ b3,
        a0 @ b1 + a1 @ b0 + a2 @ b3 - a3 @ b2,
        a0 @ b2 - a1 @ b3 + a2 @ b0 + a3 @ b1,
        a0 @ b3 + a1 @ b2 - a2 @ b1 + a3 @ b0,
    ], axis=-3)


def _quaternion_conj_transpose(m):
    out = np.swapaxes(m, -1, -2).copy()
    out[..., 1:, :, :] = -out[..., 1:, :, :]
    return out


def quaternion_gram_schmidt(g):
    """Columnwise Gram-Schmidt of quaternionic matrices in component form
    ``(..., 4, n, n)``, in quaternion arithmetic: the construction the
    random quaternionic unitaries are pinned to."""
    g = np.array(g, dtype=float)
    for j in range(g.shape[-1]):
        for i in range(j):
            u = g[..., i:i + 1]
            v = g[..., j:j + 1]
            overlap = _quaternion_matmul(_quaternion_conj_transpose(u), v)
            g[..., j:j + 1] = v - _quaternion_matmul(u, overlap)
        nrm = np.sqrt(np.sum(g[..., j] ** 2, axis=(-2, -1)))
        g[..., j] /= nrm[..., None, None]
    return g


def reference_summand_rep(s, rank_cap, rng):
    """One summand's rep of a random state, by the formulas that pin the
    stream of :func:`statecone.states.random_state`."""
    n = s.size
    r = s.rank if rank_cap is None else max(1, min(rank_cap, s.rank))
    if s.kind == "classical":
        weights = rng.dirichlet(np.ones(r))
        rep = np.zeros(n)
        support = rng.choice(n, size=r, replace=False) if r < n \
            else np.arange(n)
        rep[support] = weights
        return rep
    if s.kind == "spin":
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        radius = 0.5 if r == 1 else 0.5 * rng.uniform() ** (1.0 / n)
        return np.concatenate(([0.5], radius * v))
    if s.kind == "real":
        g = rng.normal(size=(n, r))
        m = g @ g.T
        return m / np.trace(m)
    if s.kind == "complex":
        g = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    else:
        g = ja._quaternion_embedding(rng.normal(size=(4, n, r)))
    m = g @ g.conj().T
    return m / np.trace(m).real * (len(m) // n)


def reference_state_reps(algebra, rank_cap, rng):
    """The reps of a random state before it is checked: one per summand,
    weighted by a Dirichlet draw on a direct sum."""
    reps = [reference_summand_rep(s, rank_cap, rng)
            for s in algebra.summands]
    if len(reps) > 1:
        weights = rng.dirichlet(np.ones(len(reps)))
        reps = [w * rep for w, rep in zip(weights, reps)]
    return reps


def reference_stinespring_push(v, m, env):
    """The image of the rep ``m`` under the isometry ``v`` followed by the
    trace over an environment of dimension ``env``."""
    n = v.shape[-1]
    big = v @ m @ v.conj().T
    return np.einsum("aebe->ab", big.reshape(n, env, n, env))


PINNED_STATE_ALGEBRAS = (
    [ja.real_hermitian(n) for n in (1, 3, 4)]
    + [ja.complex_hermitian(n) for n in (1, 3, 5)]
    + [ja.quaternion_hermitian(n) for n in (1, 2, 3)]
    + [ja.spin_factor(n) for n in (2, 3, 5)]
    + [ja.classical(n) for n in (1, 3, 4)]
    + [C2_P2, ja.Algebra(ja.real_hermitian(2).summands
                         + ja.quaternion_hermitian(2).summands)]
)


class TestStateValidation:
    def test_clips_tiny_negatives(self):
        el = ja.element_from_reps(
            C2, [np.diag([1.0 + 5e-11, -5e-11]).astype(complex)]
        )
        state = st.State.make(el)
        assert np.min(state.spectrum()) >= 0.0

    def test_rejects_real_negatives(self):
        el = ja.element_from_reps(
            C2, [np.diag([1.2, -0.2]).astype(complex)]
        )
        with pytest.raises(st.StateValidationError):
            st.State.make(el)

    def test_rejects_wrong_trace(self):
        el = ja.element_from_reps(C2, [np.eye(2, dtype=complex)])
        with pytest.raises(st.StateValidationError):
            st.State.make(el)

    @pytest.mark.parametrize("index,value", [
        (0, np.nan), (2, np.nan), (3, np.inf), (1, -np.inf),
    ])
    def test_rejects_non_finite_coefficients(self, index, value):
        coeffs = st.maximally_mixed(C2).element.coeffs.copy()
        coeffs[index] = value
        with pytest.raises(st.StateValidationError, match="finite"):
            st.State.make(ja.JordanElement(C2, coeffs))

    @pytest.mark.parametrize("algebra", ALL_SIMPLE + [ja.Algebra(
        C2.summands + ja.spin_factor(2).summands
    )], ids=str)
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_reps(self, algebra, value, monkeypatch):
        # checked on the stored rep, before the eigensolver sees it
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolver called on a non-finite rep")

        monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
        reps = [rep.copy() for rep in
                st.maximally_mixed(algebra).element.reps()]
        reps[-1].flat[-1] = value
        el = ja.element_from_reps(algebra, reps)
        with pytest.raises(st.StateValidationError) as info:
            st.State.make(el)
        assert str(info.value) == "state coefficients must be finite"

    def test_rep_built_trace_from_spectrum(self):
        el = ja.element_from_reps(C2, [np.diag([0.5, 0.4]).astype(complex)])
        with pytest.raises(st.StateValidationError, match="trace 0.9"):
            st.State.make(el)
        assert el._coeffs is None


    @pytest.mark.parametrize("algebra", ALL_SIMPLE + [C2], ids=str)
    def test_stacked_check_matches_make(self, algebra):
        # full-rank and pure draws; pure ones carry eigenvalue jitter
        # around zero, which both clip
        s = algebra.summands[0]
        rng = np.random.default_rng(40)
        reps = np.array([st._build_summand(s, st._draw_summand(s, cap, rng))
                         for cap in (None, 1, None, 1, 1, 1)])
        reps = reps.reshape((2, 3) + reps.shape[1:])
        checked, values, frames = st._checked_state_stack(s, reps)
        clipped = 0
        for index in np.ndindex(2, 3):
            el = ja.element_from_reps(algebra, [reps[index]])
            state = st.State.make(el)
            clipped += state.element is not el
            dec = ja.spectral_decompose(state.element)
            assert np.array_equal(checked[index], state.element.reps()[0])
            assert np.array_equal(values[index], dec.values)
            # matrix kinds' frames are eigenvectors; their projections
            # are the decomposition's idempotents
            assert np.array_equal(
                ja._frame_idempotents(s.kind, frames[index]), dec.frame[0])
        # classical draws carry no jitter, and these pure spin draws none
        # below zero
        if s.kind not in ("classical", "spin"):
            assert clipped > 0

    @pytest.mark.parametrize("bad,message", [
        ([1.2, -0.2], "minimum eigenvalue -0.2"),
        ([0.5, 0.4], "trace 0.9"),
        ([np.nan, 1.0], "state coefficients must be finite"),
    ])
    def test_stacked_check_raises_as_make(self, bad, message):
        good = np.diag([0.5, 0.5]).astype(complex)
        wrong = np.diag([0.2, 0.2]).astype(complex)  # trace 0.4, later
        reps = np.array([good, np.diag(bad).astype(complex), wrong])
        with pytest.raises(st.StateValidationError, match=message):
            st._checked_state_stack(C2.summands[0], reps)
        with pytest.raises(st.StateValidationError, match=message):
            st.State.make(ja.element_from_reps(C2, [reps[1]]))


class TestMeasurement:
    def test_computational_basis_probabilities(self):
        sigma = diag_state(C2, [0.7, 0.3])
        m = st.spectral_measurement(sigma)
        probs = np.sort(st.measure(m, sigma))[::-1]
        np.testing.assert_allclose(probs, [0.7, 0.3], atol=1e-12)

    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_probabilities_normalize(self, algebra):
        rng = np.random.default_rng(1)
        sigma = st.random_state(algebra, seed=rng)
        m = st.spectral_measurement(st.random_state(algebra, seed=rng))
        probs = st.measure(m, sigma)
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_mixture_affinity(self):
        rng = np.random.default_rng(2)
        m = st.spectral_measurement(st.random_state(C3, seed=rng))
        parts = [st.random_state(C3, seed=rng) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        mixed = st.State.make(sum(
            (float(w) * p.element for w, p in zip(weights, parts)),
            ja.zero(C3),
        ))
        direct = st.measure(m, mixed)
        convex = sum(w * st.measure(m, p) for w, p in zip(weights, parts))
        np.testing.assert_allclose(direct, convex, atol=1e-10)

    def test_unit_sum_enforced(self):
        half = ja.unit(C2) * 0.5
        with pytest.raises(ValueError, match="effects sum to unit"):
            st.Measurement(C2, ("only",), effect_frame(half))

    def test_measurement_needs_an_outcome(self):
        with pytest.raises(ValueError,
                           match="a measurement needs at least one outcome"):
            st.Measurement(C2, (), (np.zeros((0, 2, 2)),))

    @pytest.mark.parametrize("frame", [
        (np.zeros((2, 3, 3)),), (np.zeros((2, 2, 2)), np.zeros((2, 2))),
    ], ids=["wrong-shape", "extra-summand"])
    def test_frame_must_fit_labels_and_algebra(self, frame):
        with pytest.raises(ValueError, match="effect stacks"):
            st.Measurement(C2, (0, 1), frame)

    def test_frame_is_read_only(self):
        m = st.spectral_measurement(st.random_state(C2_P2, seed=9))
        for stack in m.frame:
            assert not stack.flags.writeable

    @pytest.mark.parametrize("algebra", ALL_SIMPLE + [C2_P2], ids=str)
    def test_pairing_matches_inner_product(self, algebra):
        # the spectral measurement of one state, and a two-outcome
        # measurement, scored on another
        rng = np.random.default_rng(13)
        sigma = st.random_state(algebra, seed=rng)
        x = st.random_state(algebra, seed=rng).element * 0.7
        coarse = st.Measurement(algebra, ("x", "rest"),
                                effect_frame(x, ja.unit(algebra) - x))
        for m in (st.spectral_measurement(st.random_state(algebra, seed=rng)),
                  coarse):
            want = [ja.inner_product(m.effect(k), sigma.element)
                    for k in range(len(m.labels))]
            np.testing.assert_allclose(st.measure(m, sigma), want,
                                       rtol=0, atol=1e-14)

    def test_direct_sum_effects_sit_in_one_summand(self):
        sigma = st.random_state(C2_P2, seed=14)
        m = st.spectral_measurement(sigma)
        assert m.labels == (0, 1, 2, 3)
        # each primitive idempotent is zero on the other summand
        support = [[bool(np.any(stack[k])) for stack in m.frame]
                   for k in range(4)]
        assert sorted(support) == [[False, True]] * 2 + [[True, False]] * 2
        np.testing.assert_allclose(st.measure(m, sigma), sigma.spectrum(),
                                   rtol=0, atol=1e-14)

    def test_spectral_measurement_matches_weights(self):
        rng = np.random.default_rng(3)
        sigma = st.random_state(C3, seed=rng)
        m = st.spectral_measurement(sigma)
        probs = np.sort(st.measure(m, sigma))[::-1]
        fine = np.sort(sigma.spectrum())[::-1]
        np.testing.assert_allclose(probs, fine, atol=1e-9)


def assert_primitive_effects(m, tol=1e-10):
    """Each effect of ``m`` is an idempotent of trace one."""
    for k in range(len(m.labels)):
        e = m.effect(k)
        assert ja.trace(e) == pytest.approx(1.0, abs=tol)
        assert ja.norm(ja.jordan_product(e, e) - e) < tol


class TestFineGraining:
    def test_projector_povm_is_fine_grained(self):
        sigma = st.random_state(C3, seed=4)
        assert_primitive_effects(st.spectral_measurement(sigma))

    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_primitive_split(self, algebra):
        # the frame of the unit's decomposition splits it into rank
        # primitive idempotents
        u = ja.unit(algebra)
        dec = ja.spectral_decompose(u)
        assert len(dec.values) == algebra.rank
        parts = [dec.function(e) for e in np.eye(algebra.rank)]
        total = ja.zero(algebra)
        for i, p in enumerate(parts):
            assert ja.trace(p) == pytest.approx(1.0, abs=1e-9)
            assert ja.norm(ja.jordan_product(p, p) - p) < 1e-9
            for q in parts[:i]:
                assert ja.norm(ja.jordan_product(p, q)) < 1e-9
            total = total + p
        assert ja.norm(total - u) < 1e-9


def support_projection(element):
    """The idempotent onto the support of ``element``."""
    dec = ja.spectral_decompose(element)
    return dec.function((dec.values > st.SUPPORT_CUTOFF).astype(float))


class TestSingularity:
    """In a self-dual cone two states are mutually singular exactly when
    their inner product vanishes; the support projection of one is then
    an effect scoring 1 on it and 0 on the other."""

    def test_orthogonal_projectors(self):
        a = diag_state(C2, [1, 0])
        b = diag_state(C2, [0, 1])
        assert ja.inner_product(a.element, b.element) < st.CLIP_TOL
        witness = support_projection(b.element)
        assert ja.inner_product(witness, b.element) == pytest.approx(
            1.0, abs=1e-12)
        assert ja.inner_product(witness, a.element) == pytest.approx(
            0.0, abs=1e-12)

    def test_state_not_singular_with_itself(self):
        rho = st.random_state(C3, seed=7)
        assert ja.inner_product(rho.element, rho.element) > st.CLIP_TOL
        assert ja.inner_product(support_projection(rho.element),
                                rho.element) == pytest.approx(1.0, abs=1e-12)

    def test_overlapping_pure_states(self):
        u = np.array([1.0, 0.0], dtype=complex)
        v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        a = st.State.make(ja.element_from_reps(C2, [np.outer(u, u.conj())]))
        b = st.State.make(ja.element_from_reps(C2, [np.outer(v, v.conj())]))
        assert ja.inner_product(a.element, b.element) == pytest.approx(
            0.5, abs=1e-12)
        assert ja.inner_product(support_projection(b.element),
                                a.element) == pytest.approx(0.5, abs=1e-12)


class TestTensorMarginal:
    def test_kronecker_block_formula(self):
        # the real embedding is the literal Kronecker block matrix
        layout = st.composite_layout(st.REAL_INTO_LARGER, (2, 2))
        rng = np.random.default_rng(8)
        a = st.random_state(layout.factors[0], seed=rng)
        b = st.random_state(layout.factors[1], seed=rng)
        joint = st.tensor(a, b, layout)
        np.testing.assert_allclose(
            joint.element.reps()[0],
            np.kron(a.element.reps()[0], b.element.reps()[0]),
            atol=1e-13,
        )

    @pytest.mark.parametrize("embedding", [st.COMPLEX_TENSOR,
                                           st.CLASSICAL_TENSOR])
    def test_three_factor_kronecker_products(self, embedding):
        layout = st.composite_layout(embedding, (2, 3, 2))
        rng = np.random.default_rng(8)
        parts = [st.random_state(f, seed=rng) for f in layout.factors]
        joint = st.tensor_state(parts, layout)
        expected = parts[0].element.reps()[0]
        for part in parts[1:]:
            expected = np.kron(expected, part.element.reps()[0])
        np.testing.assert_allclose(joint.element.reps()[0], expected,
                                   rtol=0, atol=1e-15)

    def test_mixed_units(self):
        layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 2))
        quarter = st.tensor(
            st.maximally_mixed(C2), st.maximally_mixed(C2), layout
        )
        assert ja.norm(
            quarter.element - ja.unit(layout.ambient) / 4.0
        ) < 1e-12

    def test_marginals_recover_factors(self):
        layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 3))
        a = st.random_state(layout.factors[0], seed=9)
        b = st.random_state(layout.factors[1], seed=10)
        joint = st.tensor(a, b, layout)
        assert ja.norm(st.marginal(joint, [0]).element - a.element) < 1e-10
        assert ja.norm(st.marginal(joint, [1]).element - b.element) < 1e-10

    def test_bell_marginals_are_maximally_mixed(self):
        layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 2))
        vec = np.zeros(4, dtype=complex)
        vec[0] = vec[3] = 2 ** -0.5
        bell = st.State.make(
            ja.element_from_reps(layout.ambient, [np.outer(vec, vec.conj())]),
            layout,
        )
        for k in range(2):
            assert ja.norm(
                st.marginal(bell, [k]).element - ja.unit(C2) / 2
            ) < 1e-12

    def test_product_probabilities_factorize(self):
        layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 2))
        rng = np.random.default_rng(11)
        a = st.random_state(C2, seed=rng)
        b = st.random_state(C2, seed=rng)
        joint = st.tensor(a, b, layout)
        ma = st.spectral_measurement(a)
        mb = st.spectral_measurement(b)
        joint_m = st.Measurement(
            layout.ambient,
            tuple((la, lb) for la in ma.labels for lb in mb.labels),
            (st._kron_stacks(layout, [ma.frame[0], mb.frame[0]]),),
        )
        np.testing.assert_allclose(
            st.measure(joint_m, joint),
            np.outer(st.measure(ma, a), st.measure(mb, b)).reshape(-1),
            atol=1e-10,
        )

    def test_separable_states_are_positive(self):
        layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 3))
        rng = np.random.default_rng(12)
        mixture = ja.zero(layout.ambient)
        weights = rng.dirichlet(np.ones(4))
        for w in weights:
            a = st.random_state(layout.factors[0], seed=rng)
            b = st.random_state(layout.factors[1], seed=rng)
            mixture = mixture + float(w) * st.tensor(a, b, layout).element
        state = st.State.make(mixture, layout)
        assert np.min(state.spectrum()) >= 0.0

    def test_no_signaling_under_local_channels(self):
        layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 2))
        for k in range(5):
            joint = st.random_state(
                layout.ambient, seed=30 + k, layout=layout
            )
            phi = st.random_channel(C2, seed=40 + k)
            lifted = st.extend_to_factor(phi, layout, 1)
            after = st.State(lifted.apply_element(joint.element), layout)
            assert ja.norm(
                st.marginal(joint, [0]).element
                - st.marginal(after, [0]).element
            ) < 1e-10

    @pytest.mark.parametrize("embedding,sizes,index", [
        (st.COMPLEX_TENSOR, (2, 3), 0),
        (st.COMPLEX_TENSOR, (2, 3, 2), 1),
        (st.CLASSICAL_TENSOR, (2, 3, 2), 1),
        (st.COMPLEX_TENSOR, (2, 3, 2), 2),
        (st.CLASSICAL_TENSOR, (2, 3), 0),
    ])
    def test_lifted_channel_matches_per_element_push(self, embedding, sizes,
                                                     index):
        layout = st.composite_layout(embedding, sizes)
        factor = layout.factors[index]
        phi = st.random_channel(factor, seed=41)
        lifted = st.extend_to_factor(phi, layout, index)
        # the lift, pushed through one basis element at a time
        ambient = layout.ambient
        k = len(sizes)
        m = sizes[index]
        others = tuple(np.delete(sizes, index))
        rest = ambient.summands[0].size // m
        cols = []
        for b in range(ambient.dim):
            rep = ja.basis_element(ambient, b).reps()[0]
            if embedding == st.CLASSICAL_TENSOR:
                arr = np.moveaxis(rep.reshape(sizes), index, -1)
                out = np.moveaxis(arr @ phi.matrix.T, -1, index).reshape(-1)
            else:
                arr = np.moveaxis(rep.reshape(sizes + sizes),
                                  (index, k + index), (k - 1, 2 * k - 1))
                out = np.einsum("pqij,aibj->apbq",
                                complexified_tensor(phi),
                                arr.reshape(rest, m, rest, m))
                out = out.reshape(others + (m,) + others + (m,))
                out = np.moveaxis(out, (k - 1, 2 * k - 1),
                                  (index, k + index)).reshape(rep.shape)
            cols.append(ja.element_from_reps(ambient, [out]).coeffs)
        np.testing.assert_allclose(lifted.matrix, np.array(cols).T, rtol=0,
                                   atol=1e-14)

    @pytest.mark.parametrize("embedding,sizes", [
        (st.COMPLEX_TENSOR, (2, 2, 2, 2)),
        (st.COMPLEX_TENSOR, (2, 3, 2)),
        (st.CLASSICAL_TENSOR, (2, 3, 2)),
    ])
    @pytest.mark.parametrize("keep", [[0, 2], [1, 3], [0, 1, 3]])
    def test_marginal_matches_trace_loop(self, embedding, sizes, keep):
        keep = [i for i in keep if i < len(sizes)]  # 3 only on four factors
        layout = st.composite_layout(embedding, sizes)
        sigma = st.random_state(layout.ambient, seed=17, layout=layout)
        reduced = st.marginal(sigma, keep).element.reps()[0]
        expected = traced_out(sigma.element.reps()[0], embedding, sizes,
                              keep)
        assert reduced.shape == expected.shape
        np.testing.assert_allclose(reduced, expected, rtol=0, atol=1e-14)

    def test_real_embedding_has_no_marginal(self):
        layout = st.composite_layout(st.REAL_INTO_LARGER, (2, 2))
        a = st.random_state(layout.factors[0], seed=13)
        b = st.random_state(layout.factors[1], seed=14)
        joint = st.tensor(a, b, layout)
        with pytest.raises(st.UnsupportedAlgebraError):
            st.marginal(joint, [0])

    def test_preseeded_spectrum_matches_direct(self):
        layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 2, 2))
        parts = [st.random_state(C2, seed=50 + k) for k in range(3)]
        joint = st.tensor_state(parts, layout)
        fresh = ja.JordanElement(
            joint.element.algebra, joint.element.coeffs
        )
        np.testing.assert_allclose(
            np.sort(ja.spectral_decompose(joint.element).fine_spectrum()),
            np.sort(ja.spectral_decompose(fresh).fine_spectrum()),
            atol=1e-9,
        )

    @pytest.mark.parametrize("embedding,sizes", [
        (st.COMPLEX_TENSOR, (2, 3, 2)),
        (st.CLASSICAL_TENSOR, (2, 3, 2)),
    ])
    def test_product_spectrum_reconstructs_product(self, embedding, sizes):
        layout = st.composite_layout(embedding, sizes)
        parts = [st.random_state(f, seed=70 + k)
                 for k, f in enumerate(layout.factors)]
        joint = st.tensor_state(parts, layout)
        dec = ja.spectral_decompose(joint.element)  # the seeded spectrum
        # generic factor spectra: every product is its own group
        assert len(dec.eigenvalues) == np.prod(sizes)
        np.testing.assert_allclose(dec.multiplicities, 1.0, rtol=0,
                                   atol=1e-12)
        assert ja.norm(dec.function(dec.values) - joint.element) < 1e-12
        for e in dec.idempotents:
            assert ja.norm(ja.jordan_product(e, e) - e) < 1e-12


class TestExample1Audit:
    def test_dimension_gap(self):
        audit = st.real_embedding_dimension_audit(seed=0)
        assert audit == {"ambient_state_dim": 9, "product_slice_dim": 8}


class TestRandomStates:
    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_reproducible_and_valid(self, algebra):
        a = st.random_state(algebra, seed=16)
        b = st.random_state(algebra, seed=16)
        assert np.array_equal(a.element.coeffs, b.element.coeffs)
        assert ja.trace(a.element) == pytest.approx(1.0, abs=1e-12)
        assert np.min(a.spectrum()) >= 0.0

    def test_rank_cap_gives_pure_states(self):
        for algebra in ALL_SIMPLE:
            pure = st.random_state(algebra, rank_cap=1, seed=17)
            fine = np.sort(pure.spectrum())[::-1]
            assert fine[0] == pytest.approx(1.0, abs=1e-9)

    def test_unit_overlap_is_exact(self):
        # <sigma, unit/n> is the trace over n, identically 1/n
        n = 3
        vals = [
            ja.inner_product(
                st.random_state(C3, seed=k).element, ja.unit(C3) / n
            )
            for k in range(200)
        ]
        np.testing.assert_allclose(vals, 1.0 / n, atol=1e-12)

    def test_mean_overlap_with_fixed_projector(self):
        # unitary invariance of GG* sampling puts the mean overlap with
        # any fixed rank-one projector at 1/n
        rng = np.random.default_rng(18)
        proj = ja.element_from_reps(
            C3, [np.diag([1.0, 0.0, 0.0]).astype(complex)]
        )
        n_samples = 4000
        vals = np.array([
            ja.inner_product(st.random_state(C3, seed=rng).element, proj)
            for nn in range(n_samples)
        ])
        se = vals.std(ddof=1) / np.sqrt(n_samples)
        assert abs(vals.mean() - 1.0 / 3.0) < 3.0 * se + 1e-3

    @pytest.mark.parametrize("kind", ["real", "complex", "quaternion",
                                      "spin", "classical"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_batched_draw_equals_single_draws(self, kind, n):
        batch_rng = np.random.default_rng(60 + n)
        single_rng = np.random.default_rng(60 + n)
        batched = st._draw_basis(kind, n, batch_rng, (7,))
        singles = [st._draw_basis(kind, n, single_rng) for _ in range(7)]
        if kind == "classical":
            assert batched is None and singles == [None] * 7
        else:
            assert batched.shape == (7,) + singles[0].shape
            assert np.array_equal(batched, np.stack(singles))
        # both leave the generator at the same place
        assert batch_rng.uniform() == single_rng.uniform()

    def test_complex_draw_is_real_then_imaginary_part(self):
        # pins the streams of random_state and random_channel on complex
        # factors
        rng = np.random.default_rng(62)
        reference = np.random.default_rng(62)
        g = st._draw_basis("complex", 3, rng)
        assert np.array_equal(
            g,
            reference.normal(size=(3, 3))
            + 1j * reference.normal(size=(3, 3)),
        )
        assert rng.uniform() == reference.uniform()

    @pytest.mark.parametrize("algebra", ALL_SIMPLE + [
        ja.quaternion_hermitian(3), ja.complex_hermitian(5)], ids=str)
    def test_stacked_builds_equal_single_ones(self, algebra):
        # one draw of a stack reads the stream as single draws do, and
        # one build gives each state the bits it gets alone
        s = algebra.summands[0]
        for rank_cap in (None, 1):
            rng = np.random.default_rng(66)
            single = np.random.default_rng(66)
            draws = st._draw_summand(s, rank_cap, rng, (3, 2))
            built = st._build_summand(s, draws)
            for index in np.ndindex(3, 2):
                d = st._draw_summand(s, rank_cap, single)
                assert np.array_equal(draws[index], d)
                assert np.array_equal(built[index], st._build_summand(s, d))
            assert rng.uniform() == single.uniform()

    @pytest.mark.parametrize("algebra", PINNED_STATE_ALGEBRAS, ids=str)
    def test_states_keep_their_streams(self, algebra):
        # every rank cap reads the stream and builds the state as the
        # literal formulas of reference_state_reps do
        for rank_cap in [None] + list(range(1, algebra.rank + 1)):
            rng = np.random.default_rng([63, algebra.dim])
            reference = np.random.default_rng([63, algebra.dim])
            got = st.random_state(algebra, rank_cap=rank_cap, seed=rng)
            want = st.State.make(ja.element_from_reps(
                algebra, reference_state_reps(algebra, rank_cap, reference)))
            for a, b in zip(got.element.reps(), want.element.reps()):
                assert np.array_equal(a, b), rank_cap
            assert rng.uniform() == reference.uniform()


    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_stacked_quaternion_unitaries_equal_slices(self, n):
        g = np.random.default_rng(40 + n).normal(size=(3, 2, 4, n, n))
        kept = g.copy()
        stacked = st._random_frames("quaternion", g)
        assert np.array_equal(g, kept)  # the draws are not overwritten
        assert stacked.shape == (3, 2, 2 * n, 2 * n)
        eye = np.eye(2 * n)
        for index in np.ndindex(3, 2):
            q = stacked[index]
            assert np.array_equal(q, st._random_frames("quaternion", g[index]))
            gram = q.conj().T @ q
            np.testing.assert_allclose(gram, eye, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_quaternion_unitaries_match_quaternion_gram_schmidt(self, n):
        # a seed gives the quaternionic unitary that Gram-Schmidt in
        # quaternion arithmetic gives, in its complex embedding
        g = np.random.default_rng(50 + n).normal(size=(4, 3, 4, n, n))
        got = st._random_frames("quaternion", g)
        expected = embed_quaternion_parts(quaternion_gram_schmidt(g))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


class TestRandomChannels:
    def test_env_one_is_unitary_conjugation(self):
        phi = st.random_channel(C2, env_dim=1, seed=19)
        assert is_trace_preserving(phi)
        # invertible: matrix has full rank
        assert np.linalg.matrix_rank(phi.matrix) == C2.dim

    def test_outputs_are_states(self):
        phi = st.random_channel(C3, env_dim=2, seed=20)
        for k in range(10):
            out = phi(st.random_state(C3, seed=60 + k))
            assert ja.trace(out.element) == pytest.approx(1.0, abs=1e-10)
            assert np.min(out.spectrum()) >= 0.0

    def test_classical_channels_are_stochastic(self):
        phi = st.random_channel(ja.classical(4), seed=21)
        assert is_trace_preserving(phi)
        np.testing.assert_allclose(phi.matrix.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(phi.matrix >= 0)

    def test_unsupported_kinds_rejected(self):
        with pytest.raises(st.UnsupportedAlgebraError):
            st.random_channel(ja.spin_factor(3), seed=0)
        with pytest.raises(st.UnsupportedAlgebraError):
            st.random_channel(ja.quaternion_hermitian(2), seed=0)

    @pytest.mark.parametrize("n,env", [(2, None), (3, None), (4, None),
                                       (3, 2)])
    def test_stinespring_matrix_matches_per_element_push(self, n, env):
        algebra = ja.complex_hermitian(n)
        phi = st.random_channel(algebra, env_dim=env, seed=80 + n)
        # the same isometry, pushed through one basis element at a time
        env = n if env is None else env
        rng = np.random.default_rng(80 + n)
        g = rng.normal(size=(n * env, n)) + 1j * rng.normal(size=(n * env, n))
        v, _ = np.linalg.qr(g)
        cols = []
        for k in range(algebra.dim):
            m = ja.basis_element(algebra, k).reps()[0]
            big = v @ m @ v.conj().T
            out = np.einsum("aebe->ab", big.reshape(n, env, n, env))
            cols.append(ja.element_from_reps(algebra, [out]).coeffs)
        np.testing.assert_allclose(phi.matrix, np.array(cols).T, rtol=0,
                                   atol=1e-14)

    @pytest.mark.parametrize("algebra", [C2, C3, ja.complex_hermitian(4),
                                         ja.classical(3)], ids=str)
    def test_stacked_images_equal_applied_channels(self, algebra):
        # the draws behind random_channel, pushed as one stack, give the
        # bits that apply_element gives channel by channel
        s = algebra.summands[0]
        draws, reps, want = [], [], []
        for k in range(7):
            env = 1 + k % s.size
            phi = st.random_channel(algebra, env_dim=env, seed=[90, k])
            draw, _ = st._draw_channel(s, env, np.random.default_rng([90, k]))
            draws.append(draw)
            pair = [st.random_state(algebra, seed=[91, k, j]).element
                    for j in range(2)]
            reps.append([el.reps()[0] for el in pair])
            want.append([phi.apply_element(el).reps()[0] for el in pair])
        images = st._random_channel_images(s, draws, np.array(reps))
        assert np.array_equal(images, np.array(want))

    @pytest.mark.parametrize("algebra", [
        *(ja.complex_hermitian(n) for n in (1, 2, 3, 4)),
        *(ja.classical(n) for n in (1, 2, 4)),
    ], ids=str)
    def test_channels_keep_their_streams(self, algebra):
        # every environment size reads the stream and builds the channel
        # as the literal formulas below do
        s = algebra.summands[0]
        n = s.size
        probes = [st.random_state(algebra, seed=[64, k]).element
                  for k in range(3)]
        for env in [None] + list(range(1, n + 1)):
            rng = np.random.default_rng([65, n])
            reference = np.random.default_rng([65, n])
            phi = st.random_channel(algebra, env_dim=env, seed=rng)
            if s.kind == "classical":
                m = np.stack([reference.dirichlet(np.ones(n))
                              for _ in range(n)], axis=1)
                assert np.array_equal(phi.matrix, m)
            else:
                e = n if env is None else env
                g = reference.normal(size=(n * e, n)) \
                    + 1j * reference.normal(size=(n * e, n))
                v, _ = np.linalg.qr(g)
                for el in probes:
                    want = ja.element_from_reps(algebra, [
                        reference_stinespring_push(v, el.reps()[0], e)])
                    got = phi.apply_element(el)
                    assert np.array_equal(got.reps()[0], want.reps()[0])
            assert rng.uniform() == reference.uniform()

    def test_unital_iff_preserves_maximally_mixed(self):
        phi = st.random_channel(C2, env_dim=1, seed=22)  # unitary: unital
        mm = st.maximally_mixed(C2)
        out = phi(mm)
        assert ja.norm(out.element - mm.element) < 1e-10


CATALOG_ALGEBRAS = [
    ja.real_hermitian(3), C3, ja.complex_hermitian(4),
    ja.quaternion_hermitian(2), ja.spin_factor(3), ja.classical(3),
]


def single_automorphism_frames(algebra, rng):
    """The frames of the catalog's two automorphisms, one draw each."""
    s = algebra.summands[0]
    if s.kind == "classical":
        return [rng.permutation(s.size) for _ in range(2)]
    kind = "real" if s.kind == "spin" else s.kind
    return [st._random_frames(kind, st._draw_basis(kind, s.size, rng))
            for _ in range(2)]


def uncached_catalog(algebra, seed):
    """The catalog built from its helpers with no cache, one draw per
    automorphism."""
    identity, *fixed = st._fixed_entries.__wrapped__(algebra)
    frames = single_automorphism_frames(algebra, np.random.default_rng(seed))
    automorphisms = [
        st.CatalogChannel(f"automorphism-{k}", *st._automorphism(algebra, q))
        for k, q in enumerate(frames)
    ]
    return [identity, *automorphisms, *fixed]


class TestCatalog:
    @pytest.mark.parametrize("algebra", [
        ja.complex_hermitian(4), ja.real_hermitian(3),
        ja.quaternion_hermitian(3), ja.classical(4)], ids=str)
    def test_stacked_diagonals_convert_as_single_ones(self, algebra):
        # a chunk converts its sampled diagonals in one call, and each
        # rep keeps the bytes it gets alone, signed zeros included
        s = algebra.summands[0]
        probs = np.random.default_rng(67).dirichlet(np.ones(s.size), (3, 2))
        probs[0, 1, 0] = -0.0
        stacked = st._diag_reps(s, probs)
        for index in np.ndindex(3, 2):
            alone = st._diag_reps(s, probs[index])
            assert stacked[index].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("algebra", CATALOG_ALGEBRAS, ids=str)
    def test_seed_free_entries_are_shared_and_read_only(self, algebra):
        first = st.channel_catalog(algebra, seed=3)
        second = st.channel_catalog(algebra, seed=4)
        assert first is not second
        assert [c.name for c in first] == [c.name for c in second]
        for a, b in zip(first, second):
            if a.name.startswith("automorphism"):
                assert a is not b
                assert not np.array_equal(a.affinity.matrix, b.affinity.matrix)
                continue
            assert a is b, a.name
            for phi in (a.affinity, a.recovery):
                if phi is not None:
                    assert not phi.matrix.flags.writeable, a.name

    @pytest.mark.parametrize("algebra", CATALOG_ALGEBRAS, ids=str)
    def test_catalog_equals_an_uncached_build(self, algebra):
        for seed in (0, 11):
            got = st.channel_catalog(algebra, seed=seed)
            want = uncached_catalog(algebra, seed)
            assert [c.name for c in got] == [c.name for c in want]
            for a, b in zip(got, want):
                assert a.affinity.name == b.affinity.name
                assert a.affinity.matrix.tobytes() == b.affinity.matrix.tobytes()
                assert (a.recovery is None) == (b.recovery is None), a.name
                if a.recovery is not None:
                    assert a.recovery.name == b.recovery.name
                    assert (a.recovery.matrix.tobytes()
                            == b.recovery.matrix.tobytes()), a.name
                assert (a.pair_sampler is None) == (b.pair_sampler is None)
                assert (a.stress_sampler is None) == (b.stress_sampler is None)

    def test_catalog_order(self):
        assert [c.name for c in st.channel_catalog(C3, seed=0)] == [
            "identity", "automorphism-0", "automorphism-1", "depolarize-0.3",
            "depolarize-0.7", "dephase", "split", "merge",
            "classical-section"]

    @pytest.mark.parametrize("algebra", CATALOG_ALGEBRAS + [
        ja.quaternion_hermitian(3), ja.spin_factor(5)], ids=str)
    def test_stacked_automorphisms_equal_single_draws(self, algebra):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            single = np.random.default_rng(seed)
            stacked = st._automorphism_frames(algebra, rng)
            for q, alone in zip(stacked,
                                single_automorphism_frames(algebra, single),
                                strict=True):
                assert q.tobytes() == alone.tobytes()
            assert rng.bit_generator.state == single.bit_generator.state

    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_entries_are_trace_preserving(self, algebra):
        for entry in st.channel_catalog(algebra, seed=0):
            assert is_trace_preserving(entry.affinity), entry.name

    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_recoveries_restore_compatible_pairs(self, algebra):
        rng = np.random.default_rng(23)
        for entry in st.channel_catalog(algebra, seed=0):
            if entry.recovery is None:
                continue
            if entry.pair_sampler is not None:
                rho, sigma = sampled_pair(entry, rng)
            else:
                rho = st.random_state(algebra, seed=rng)
                sigma = st.random_state(algebra, seed=rng)
            for s in (rho, sigma):
                back = entry.recovery.apply_element(
                    entry.affinity.apply_element(s.element)
                )
                assert ja.norm(back - s.element) < 1e-10, entry.name

    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_outputs_stay_positive(self, algebra):
        # interior samples plus extreme-point (pure state) probes
        rng = np.random.default_rng(24)
        for entry in st.channel_catalog(algebra, seed=0):
            source = entry.affinity.source
            probes = [
                st.random_state(source, seed=rng) for _ in range(3)
            ] + [
                st.random_state(source, rank_cap=1, seed=rng)
                for _ in range(3)
            ]
            for rho in probes:
                out = entry.affinity.apply_element(rho.element)
                eigs = ja.spectral_decompose(out).eigenvalues
                assert np.min(eigs) >= -1e-10, entry.name

    @pytest.mark.parametrize("algebra", [
        ja.real_hermitian(3), C3, ja.quaternion_hermitian(3),
    ])
    def test_automorphism_matrix_matches_per_element_map(self, algebra):
        frames = st._automorphism_frames(algebra, np.random.default_rng(31))
        fwd, rev = st._automorphism(algebra, frames[0])
        s = algebra.summands[0]
        n = s.size
        rng = np.random.default_rng(31)
        if s.kind == "quaternion":
            q = embed_quaternion_parts(
                quaternion_gram_schmidt(rng.normal(size=(4, n, n)))
            )
        else:
            g = rng.normal(size=(n, n))
            if s.kind == "complex":
                g = g + 1j * rng.normal(size=(n, n))
            q = np.linalg.qr(g)[0]
        qh = q.conj().T
        for phi, (a, b) in ((fwd, (q, qh)), (rev, (qh, q))):
            cols = [
                ja.element_from_reps(algebra, [
                    a @ ja.basis_element(algebra, k).reps()[0] @ b
                ]).coeffs
                for k in range(algebra.dim)
            ]
            np.testing.assert_allclose(phi.matrix, np.array(cols).T,
                                       rtol=0, atol=1e-14)

    def test_trace_vector_is_the_algebras_own(self):
        for algebra in ALL_SIMPLE + [ja.Algebra(C2.summands
                                                + ja.spin_factor(3).summands)]:
            t = st.trace_vector(algebra)
            assert t is algebra.trace_vector
            assert not t.flags.writeable
            # tr(x) = <unit, x> in the orthonormal basis
            np.testing.assert_array_equal(t, ja.unit(algebra).coeffs)

    def test_automorphism_inverse_composes_to_identity(self):
        cat = st.channel_catalog(C3, seed=0)
        auto = next(c for c in cat if c.name.startswith("automorphism"))
        both = auto.recovery.matrix @ auto.affinity.matrix
        np.testing.assert_allclose(both, np.eye(C3.dim), atol=1e-12)

    def test_section_retraction_on_classical_states(self):
        cat = st.channel_catalog(C2, seed=0)
        sec = next(c for c in cat if c.name == "classical-section")
        rng = np.random.default_rng(25)
        p, _ = sampled_pair(sec, rng)
        assert ja.norm(
            sec.recovery.apply_element(sec.affinity.apply_element(p.element))
            - p.element
        ) < 1e-12

    def test_depolarize_mixes_toward_center(self):
        cat = st.channel_catalog(C2, seed=0)
        dep = next(c for c in cat if c.name == "depolarize-0.7")
        rho = st.random_state(C2, seed=26)
        out = dep.affinity.apply_element(rho.element)
        expected = 0.3 * rho.element + 0.7 * (ja.unit(C2) / 2)
        assert ja.norm(out - expected) < 1e-12


class TestAffinity:
    def test_affinities_are_immutable(self):
        phi = st.random_channel(C2, seed=106)
        with pytest.raises(AttributeError):
            phi.name = "other"

    def test_source_checked(self):
        phi = st.random_channel(C2, seed=30)
        with pytest.raises(ja.AlgebraMismatchError):
            phi.apply_element(st.random_state(C3, seed=0).element)


def _rep_map_channels():
    """Every affinity the package builds as a rep map, by label."""
    channels = {}
    for n in (2, 3, 4):
        algebra = ja.complex_hermitian(n)
        for env in range(1, n + 1):
            channels[f"stinespring-C{n}-env{env}"] = st.random_channel(
                algebra, env_dim=env, seed=90 + 10 * n + env)
    for algebra in (ja.real_hermitian(3), C3, ja.quaternion_hermitian(2)):
        frames = st._automorphism_frames(algebra, np.random.default_rng(95))
        fwd, rev = st._automorphism(algebra, frames[0])
        channels[f"{fwd.name}-{algebra}"] = fwd
        channels[f"{rev.name}-{algebra}"] = rev
    layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 3))
    for index in (0, 1):
        phi = st.random_channel(layout.factors[index], seed=96 + index)
        channels[f"lift-C2x3@{index}"] = st.extend_to_factor(
            phi, layout, index)
    return channels


REP_MAP_CHANNELS = _rep_map_channels()


class TestRepMapAffinity:
    @pytest.mark.parametrize("label", REP_MAP_CHANNELS)
    def test_rep_map_matches_derived_matrix(self, label):
        phi = REP_MAP_CHANNELS[label]
        rng = np.random.default_rng(97)
        elements = [st.random_state(phi.source, seed=rng).element
                    for _ in range(3)]
        elements.append(ja.JordanElement(
            phi.source, rng.normal(size=phi.source.dim)))
        images = [phi.apply_element(el) for el in elements]
        for el, image in zip(elements, images):
            expected = ja.JordanElement(phi.target, phi.matrix @ el.coeffs)
            np.testing.assert_allclose(image.coeffs, expected.coeffs,
                                       rtol=0, atol=1e-14)

    def test_applying_derives_no_matrix(self):
        for label, phi in _rep_map_channels().items():
            rho = st.random_state(phi.source, seed=98)
            phi(phi.apply_element(rho.element))
            assert phi._matrix is None, label

    @pytest.mark.parametrize("label", [*REP_MAP_CHANNELS, "depolarize"])
    @pytest.mark.parametrize("round_trip", ["pickle", "copy", "deepcopy"])
    def test_round_trips_apply_the_same_map(self, label, round_trip):
        phi = REP_MAP_CHANNELS.get(label) or st._depolarize(C3, 0.3)
        back = {"pickle": lambda x: pickle.loads(pickle.dumps(x)),
                "copy": copy.copy, "deepcopy": copy.deepcopy}[round_trip](phi)
        assert (back.source, back.target, back.name) == \
            (phi.source, phi.target, phi.name)
        rho = st.random_state(phi.source, seed=105)
        np.testing.assert_allclose(back.apply_element(rho.element).coeffs,
                                   phi.apply_element(rho.element).coeffs,
                                   rtol=0, atol=1e-14)
