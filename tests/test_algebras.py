import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from statecone import algebras as ja

ALL_SIMPLE = [
    ja.real_hermitian(3),
    ja.complex_hermitian(3),
    ja.quaternion_hermitian(2),
    ja.spin_factor(3),
    ja.classical(4),
]


def random_element(algebra, seed):
    rng = np.random.default_rng(seed)
    return ja.JordanElement(algebra, rng.normal(size=algebra.dim))


class TestDescriptors:
    @pytest.mark.parametrize("algebra,dim,rank", [
        (ja.real_hermitian(4), 10, 4),
        (ja.complex_hermitian(3), 9, 3),
        (ja.quaternion_hermitian(2), 6, 2),
        (ja.spin_factor(5), 6, 2),
        (ja.classical(7), 7, 7),
    ])
    def test_dimension_and_rank(self, algebra, dim, rank):
        assert algebra.dim == dim
        assert algebra.rank == rank

    def test_direct_sum_adds(self):
        a = ja.Algebra(ja.complex_hermitian(2).summands
                       + ja.classical(3).summands)
        assert a.dim == 4 + 3
        assert a.rank == 2 + 3

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ja.SimpleFactor("spin", 1)
        with pytest.raises(ValueError):
            ja.SimpleFactor("complex", 0)
        with pytest.raises(ValueError):
            ja.SimpleFactor("octonion", 3)


class TestProduct:
    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_commutative(self, algebra):
        a = random_element(algebra, 1)
        b = random_element(algebra, 2)
        assert ja.norm(ja.jordan_product(a, b)
                       - ja.jordan_product(b, a)) < 1e-12

    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_unit_is_neutral(self, algebra):
        a = random_element(algebra, 3)
        assert ja.norm(ja.jordan_product(a, ja.unit(algebra)) - a) < 1e-12

    def test_classical_is_pointwise(self):
        algebra = ja.classical(2)
        a = ja.JordanElement(algebra, np.array([2.0, 3.0]))
        b = ja.JordanElement(algebra, np.array([5.0, 7.0]))
        np.testing.assert_allclose(
            ja.jordan_product(a, b).coeffs, [10.0, 21.0]
        )

    def test_spin_product_formula(self):
        algebra = ja.spin_factor(3)
        s, u = 0.7, np.array([0.1, -0.4, 0.2])
        t, v = -0.3, np.array([0.5, 0.0, -0.6])
        a = ja.element_from_reps(algebra, [np.concatenate(([s], u))])
        b = ja.element_from_reps(algebra, [np.concatenate(([t], v))])
        prod = ja.jordan_product(a, b).reps()[0]
        np.testing.assert_allclose(prod[0], s * t + u @ v, atol=1e-14)
        np.testing.assert_allclose(prod[1:], s * v + t * u, atol=1e-14)

    def test_mismatched_algebras_rejected(self):
        with pytest.raises(ja.AlgebraMismatchError):
            ja.jordan_product(
                random_element(ja.complex_hermitian(2), 0),
                random_element(ja.real_hermitian(2), 0),
            )

    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_jordan_identity(self, algebra):
        # a o (b o (a o a)) == (a o b) o (a o a)
        for seed in range(5):
            a = random_element(algebra, 10 + seed)
            b = random_element(algebra, 20 + seed)
            aa = ja.jordan_product(a, a)
            lhs = ja.jordan_product(a, ja.jordan_product(b, aa))
            rhs = ja.jordan_product(ja.jordan_product(a, b), aa)
            scale = max(1.0, ja.norm(a) ** 3 * ja.norm(b))
            assert ja.norm(lhs - rhs) < 1e-10 * scale

    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_power_associativity(self, algebra):
        for seed in range(5):
            a = random_element(algebra, 30 + seed)
            a2 = ja.jordan_product(a, a)
            left = ja.jordan_product(ja.jordan_product(a2, a), a)
            right = ja.jordan_product(a2, a2)
            scale = max(1.0, ja.norm(a) ** 4)
            assert ja.norm(left - right) < 1e-10 * scale


@settings(max_examples=25, deadline=None)
@given(coeffs=hst.lists(
    hst.floats(min_value=-2, max_value=2, allow_nan=False), min_size=9,
    max_size=9),
    other=hst.lists(
    hst.floats(min_value=-2, max_value=2, allow_nan=False), min_size=9,
    max_size=9))
def test_complex_jordan_identity_hypothesis(coeffs, other):
    algebra = ja.complex_hermitian(3)
    a = ja.JordanElement(algebra, np.array(coeffs))
    b = ja.JordanElement(algebra, np.array(other))
    aa = ja.jordan_product(a, a)
    lhs = ja.jordan_product(a, ja.jordan_product(b, aa))
    rhs = ja.jordan_product(ja.jordan_product(a, b), aa)
    assert ja.norm(lhs - rhs) < 1e-9


class TestTraceInner:
    @pytest.mark.parametrize("algebra,expected", [
        (ja.complex_hermitian(4), 4.0),
        (ja.real_hermitian(3), 3.0),
        (ja.quaternion_hermitian(2), 2.0),
        (ja.spin_factor(3), 2.0),
        (ja.classical(5), 5.0),
    ])
    def test_unit_trace_is_rank(self, algebra, expected):
        assert ja.trace(ja.unit(algebra)) == pytest.approx(expected)

    def test_spin_trace_is_twice_scalar(self):
        algebra = ja.spin_factor(4)
        rep = np.array([0.35, 0.1, 0.2, -0.3, 0.0])
        el = ja.element_from_reps(algebra, [rep])
        assert ja.trace(el) == pytest.approx(0.7)
        fine = ja.spectral_decompose(el).fine_spectrum()
        assert np.sum(fine) == pytest.approx(0.7)

    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_trace_associative_form(self, algebra):
        a, b, c = (random_element(algebra, 40 + k) for k in range(3))
        lhs = ja.trace(ja.jordan_product(ja.jordan_product(a, b), c))
        rhs = ja.trace(ja.jordan_product(a, ja.jordan_product(b, c)))
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1, abs(lhs)))

    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_inner_product_is_trace_of_product(self, algebra):
        a = random_element(algebra, 50)
        b = random_element(algebra, 51)
        assert ja.inner_product(a, b) == pytest.approx(
            ja.trace(ja.jordan_product(a, b)), abs=1e-10
        )
        assert ja.inner_product(a, ja.unit(algebra)) == pytest.approx(
            ja.trace(a)
        )

    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_formal_reality(self, algebra):
        # tr(sum of squares) equals the sum of squared norms, so the sum
        # of squares can only vanish if every term does
        elements = [random_element(algebra, 60 + k) for k in range(4)]
        total = ja.zero(algebra)
        for el in elements:
            total = total + ja.jordan_product(el, el)
        assert ja.trace(total) == pytest.approx(
            sum(ja.norm(el) ** 2 for el in elements), rel=1e-10
        )
        eigs = ja.spectral_decompose(total).eigenvalues
        assert np.all(eigs >= -1e-10)


class TestSpectral:
    def test_classical_diagonal(self):
        algebra = ja.classical(2)
        el = ja.JordanElement(algebra, np.array([0.7, 0.3]))
        dec = ja.spectral_decompose(el)
        np.testing.assert_allclose(dec.eigenvalues, [0.7, 0.3])
        np.testing.assert_allclose(dec.idempotents[0].coeffs, [1, 0])
        np.testing.assert_allclose(dec.idempotents[1].coeffs, [0, 1])

    def test_spin_analytic(self):
        algebra = ja.spin_factor(3)
        t, v = 0.4, np.array([0.3, 0.0, -0.4])
        el = ja.element_from_reps(algebra, [np.concatenate(([t], v))])
        dec = ja.spectral_decompose(el)
        np.testing.assert_allclose(dec.eigenvalues, [0.9, -0.1], atol=1e-12)
        for e in dec.idempotents:
            assert ja.norm(ja.jordan_product(e, e) - e) < 1e-12
        assert ja.norm(dec.function(dec.values) - el) < 1e-12

    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_invariants(self, algebra):
        el = random_element(algebra, 70)
        dec = ja.spectral_decompose(el)
        assert np.all(np.diff(dec.eigenvalues) < 0)
        total = ja.zero(algebra)
        for i, e in enumerate(dec.idempotents):
            assert ja.norm(ja.jordan_product(e, e) - e) < 1e-10
            total = total + e
            for j in range(i):
                assert ja.norm(
                    ja.jordan_product(e, dec.idempotents[j])
                ) < 1e-10
        assert ja.norm(total - ja.unit(algebra)) < 1e-10
        assert ja.norm(dec.function(dec.values) - el) < 1e-10

    def test_reference_solver_agreement(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g + g.conj().T
        el = ja.element_from_reps(ja.complex_hermitian(4), [m])
        fine = ja.spectral_decompose(el).fine_spectrum()
        np.testing.assert_allclose(
            np.sort(fine), np.linalg.eigvalsh(m), atol=1e-10
        )

    def test_grouping_merges_close_eigenvalues(self):
        algebra = ja.classical(3)
        el = ja.JordanElement(algebra, np.array([0.5, 0.5 + 1e-12, 0.1]))
        dec = ja.spectral_decompose(el)
        assert len(dec.eigenvalues) == 2
        assert dec.multiplicities[0] == pytest.approx(2.0)

    def test_degenerate_idempotent_is_projection(self):
        algebra = ja.complex_hermitian(3)
        m = np.diag([0.5, 0.5, 0.0]).astype(complex)
        el = ja.element_from_reps(algebra, [m])
        dec = ja.spectral_decompose(el)
        top = dec.idempotents[0]
        assert ja.trace(top) == pytest.approx(2.0, abs=1e-10)
        assert ja.norm(ja.jordan_product(top, top) - top) < 1e-10


def apply_function(el, f):
    """``f`` applied to ``el`` through its spectral decomposition."""
    dec = ja.spectral_decompose(el)
    return dec.function(np.array([f(lam) for lam in dec.values]))


class TestFunctionalCalculus:
    def test_identity_function(self):
        el = random_element(ja.complex_hermitian(3), 80)
        assert ja.norm(apply_function(el, lambda x: x) - el) < 1e-12

    def test_log_of_exponentials(self):
        algebra = ja.classical(2)
        el = ja.JordanElement(algebra, np.array([np.e, np.e ** 2]))
        out = apply_function(el, np.log)
        np.testing.assert_allclose(out.coeffs, [1.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_exp_log_round_trip(self, algebra):
        rng = np.random.default_rng(81)
        raw = random_element(algebra, 81)
        # shift to a strictly positive element
        shift = abs(min(ja.spectral_decompose(raw).eigenvalues)) + 0.5
        positive = raw + shift * ja.unit(algebra)
        lg = apply_function(positive, np.log)
        back = apply_function(lg, np.exp)
        assert ja.norm(back - positive) < 1e-9

    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_spectral_mapping(self, algebra):
        el = random_element(algebra, 82)
        f = lambda x: x ** 2 - x
        image = apply_function(el, f)
        expected = sorted(f(x) for x in
                          ja.spectral_decompose(el).fine_spectrum())
        got = sorted(ja.spectral_decompose(image).fine_spectrum())
        np.testing.assert_allclose(got, expected, atol=1e-9)


class TestSelfDuality:
    @pytest.mark.parametrize("algebra", ALL_SIMPLE)
    def test_positive_pairs_have_nonnegative_inner_product(self, algebra):
        rng = np.random.default_rng(90)
        for _ in range(10):
            a = random_element(algebra, rng.integers(1 << 30))
            b = random_element(algebra, rng.integers(1 << 30))
            pa = ja.jordan_product(a, a)
            pb = ja.jordan_product(b, b)
            assert ja.inner_product(pa, pb) >= -1e-12

    def test_negative_direction_is_witnessed(self):
        algebra = ja.complex_hermitian(2)
        el = ja.element_from_reps(
            algebra, [np.diag([1.0, -0.2]).astype(complex)]
        )
        dec = ja.spectral_decompose(el)
        witness = dec.idempotents[-1]  # projection onto the negative part
        assert ja.inner_product(el, witness) < 0


def embed_quaternion(a):
    """The complex Hermitian element of twice the size that the
    quaternionic element ``a`` is represented by."""
    n = a.algebra.summands[0].size
    return ja.element_from_reps(ja.complex_hermitian(2 * n), a.reps())


class TestQuaternionEmbedding:
    def test_unit_maps_to_unit(self):
        h = ja.quaternion_hermitian(2)
        img = embed_quaternion(ja.unit(h))
        assert ja.norm(img - ja.unit(ja.complex_hermitian(4))) < 1e-12

    def test_trace_doubles_and_spectrum_doubles(self):
        h = ja.quaternion_hermitian(2)
        el = random_element(h, 91)
        img = embed_quaternion(el)
        assert ja.trace(img) == pytest.approx(2 * ja.trace(el), abs=1e-10)
        lam = ja.spectral_decompose(el).fine_spectrum()
        lam_img = ja.spectral_decompose(img).fine_spectrum()
        np.testing.assert_allclose(lam_img, np.repeat(lam, 2), atol=1e-9)

    def test_is_jordan_homomorphism(self):
        h = ja.quaternion_hermitian(2)
        a = random_element(h, 92)
        b = random_element(h, 93)
        lhs = embed_quaternion(ja.jordan_product(a, b))
        rhs = ja.jordan_product(embed_quaternion(a), embed_quaternion(b))
        assert ja.norm(lhs - rhs) < 1e-10


class TestDirectSum:
    def test_trace_adds_and_spectra_concatenate(self):
        a = random_element(ja.complex_hermitian(2), 94)
        b = random_element(ja.classical(3), 95)
        ab = ja.direct_sum(a, b)
        assert ja.trace(ab) == pytest.approx(ja.trace(a) + ja.trace(b))
        fine = np.sort(ja.spectral_decompose(ab).fine_spectrum())
        ref = np.sort(np.concatenate([
            ja.spectral_decompose(a).fine_spectrum(),
            ja.spectral_decompose(b).fine_spectrum(),
        ]))
        np.testing.assert_allclose(fine, ref, atol=1e-9)

    def test_blockwise_product(self):
        a, c = (random_element(ja.complex_hermitian(2), s) for s in (96, 97))
        b, d = (random_element(ja.spin_factor(3), s) for s in (98, 99))
        lhs = ja.jordan_product(ja.direct_sum(a, b), ja.direct_sum(c, d))
        rhs = ja.direct_sum(ja.jordan_product(a, c), ja.jordan_product(b, d))
        assert ja.norm(lhs - rhs) < 1e-12

    def test_unit_of_sum_merges_eigenvalues(self):
        u = ja.unit(ja.Algebra(
            ja.complex_hermitian(2).summands + ja.classical(2).summands
        ))
        dec = ja.spectral_decompose(u)
        assert len(dec.eigenvalues) == 1
        assert dec.multiplicities[0] == pytest.approx(4.0)


def test_immutability():
    el = random_element(ja.complex_hermitian(2), 100)
    with pytest.raises(AttributeError):
        el.coeffs = np.zeros(4)
    with pytest.raises(ValueError):
        el.coeffs[0] = 1.0


# ---------------------------------------------------------------------------
# the README coefficient basis, built here independently of the package
# ---------------------------------------------------------------------------

# quaternion units 1, i, j, k as 2x2 complex matrices
_QUATERNION_UNITS = (
    np.eye(2, dtype=complex),
    np.diag([1j, -1j]),
    np.array([[0, 1], [-1, 0]], dtype=complex),
    np.array([[0, 1j], [1j, 0]]),
)
# scalar parts of the units' conjugates: conj(1) = 1, conj(i) = -i, ...
_CONJUGATE_SIGN = (1, -1, -1, -1)
MATRIX_KINDS = ("real", "complex", "quaternion")


def readme_basis(kind, n):
    """Basis matrices in the README order.  Quaternionic entries are
    written as 2x2 complex blocks, so each quaternionic n x n matrix
    becomes a complex 2n x 2n one with every eigenvalue doubled."""
    parts = {"real": 1, "complex": 2, "quaternion": 4}[kind]
    block = 2 if kind == "quaternion" else 1

    def matrix(entries):
        m = np.zeros((block * n, block * n), dtype=complex)
        for (i, j), value in entries.items():
            m[block * i:block * (i + 1), block * j:block * (j + 1)] = value
        return m

    unit_blocks = _QUATERNION_UNITS if kind == "quaternion" \
        else (1.0, 1j)
    basis = [matrix({(i, i): unit_blocks[0]}) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for p in range(parts):
                u = unit_blocks[p] / np.sqrt(2)
                sign = _CONJUGATE_SIGN[p]
                basis.append(matrix({(i, j): u, (j, i): sign * u}))
    return basis


def embed_quaternion_parts(parts):
    """The README-layout complex matrix of a quaternionic matrix, or a
    stack of them, given by its four real component matrices
    ``(..., 4, n, m)``."""
    n, m = parts.shape[-2:]
    blocks = np.einsum("...kij,kab->...iajb", parts,
                       np.array(_QUATERNION_UNITS))
    return blocks.reshape(parts.shape[:-3] + (2 * n, 2 * m))


def readme_matrix(kind, n, coeffs):
    return sum(c * b for c, b in zip(coeffs, readme_basis(kind, n)))


def readme_coeffs(kind, n, m):
    """Coefficients of a Hermitian matrix in the orthonormal basis."""
    scale = 2.0 if kind == "quaternion" else 1.0
    return np.array([np.trace(b @ m).real / scale
                     for b in readme_basis(kind, n)])


def factor_algebra(kind, n):
    return ja.Algebra((ja.SimpleFactor(kind, n),))


def kramers_columns(n, count, rng):
    """``count`` orthonormal quaternionic vectors, each followed by its
    Kramers partner ``J conj(x)``, as columns in the README layout."""
    J = np.kron(np.eye(n), _QUATERNION_UNITS[2])
    cols = []
    for _ in range(count):
        x = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        for c in cols:
            x = x - c * (c.conj() @ x)
        x = x / np.linalg.norm(x)
        cols += [x, J @ x.conj()]
    return np.array(cols).T


def random_projection(kind, n, rank, rng):
    """A rank-``rank`` projection, as a README-layout matrix."""
    if kind == "quaternion":
        v = kramers_columns(n, rank, rng)
    else:
        g = rng.normal(size=(n, n))
        if kind == "complex":
            g = g + 1j * rng.normal(size=(n, n))
        v = np.linalg.qr(g)[0][:, :rank]
    return v @ v.conj().T


def sorted_spectrum(kind, m):
    """Ascending eigenvalues of a README-layout matrix, one per
    quaternionic Kramers pair."""
    w = np.linalg.eigvalsh(m)
    return w[::2] if kind == "quaternion" else w


def assert_valid_decomposition(el, dec):
    """The grouped idempotents are orthogonal and sum to the unit, and the
    frame is a Jordan frame whose values rebuild ``el``: rank many
    primitive idempotents, each of trace one and idempotent, pairwise
    orthogonal and summing to the unit."""
    algebra = el.algebra
    assert np.all(np.diff(dec.eigenvalues) < 0)
    total = ja.zero(algebra)
    for i, e in enumerate(dec.idempotents):
        assert ja.norm(ja.jordan_product(e, e) - e) < 1e-10
        for f in dec.idempotents[:i]:
            assert ja.norm(ja.jordan_product(e, f)) < 1e-10
        total = total + e
    assert ja.norm(total - ja.unit(algebra)) < 1e-10
    rows = [dec.function(e) for e in np.eye(len(dec.values))]
    assert len(rows) == algebra.rank
    for i, p in enumerate(rows):
        assert ja.trace(p) == pytest.approx(1.0, rel=0, abs=1e-10)
        assert ja.norm(ja.jordan_product(p, p) - p) < 1e-10
        for q in rows[:i]:
            assert ja.norm(ja.jordan_product(p, q)) < 1e-10
    assert ja.norm(sum(rows[1:], rows[0]) - ja.unit(algebra)) < 1e-10
    assert (ja.norm(dec.function(dec.values) - el)
            < 1e-10 * max(1.0, ja.norm(el)))


class TestNativeSpectral:
    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_basis_is_orthonormal_and_matches_reps(self, kind, n):
        algebra = factor_algebra(kind, n)
        basis = readme_basis(kind, n)
        assert len(basis) == algebra.dim
        for k, b in enumerate(basis):
            np.testing.assert_allclose(
                readme_coeffs(kind, n, b), np.eye(algebra.dim)[k],
                atol=1e-15,
            )
            rep = ja.basis_element(algebra, k).reps()[0]
            np.testing.assert_allclose(rep, b, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_spectrum_matches_eigvalsh(self, kind, n):
        algebra = factor_algebra(kind, n)
        rng = np.random.default_rng([MATRIX_KINDS.index(kind), n])
        coeffs = rng.normal(size=algebra.dim)
        el = ja.JordanElement(algebra, coeffs)
        dec = ja.spectral_decompose(el)
        expected = sorted_spectrum(kind, readme_matrix(kind, n, coeffs))
        np.testing.assert_allclose(
            np.sort(dec.fine_spectrum()), expected, atol=1e-10
        )
        # generic spectra are simple; quaternionic Kramers pairs count once
        np.testing.assert_allclose(dec.multiplicities, 1.0, atol=1e-10)
        assert_valid_decomposition(el, dec)

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_unit_is_one_idempotent(self, kind, n):
        u = ja.unit(factor_algebra(kind, n))
        dec = ja.spectral_decompose(u)
        np.testing.assert_allclose(dec.eigenvalues, [1.0], atol=1e-12)
        assert dec.multiplicities[0] == pytest.approx(n, abs=1e-10)
        assert ja.norm(dec.idempotents[0] - u) < 1e-10
        np.testing.assert_allclose(dec.fine_spectrum(), np.ones(n),
                                   atol=1e-12)
        assert_valid_decomposition(u, dec)

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_rank_deficient_projection(self, kind, n):
        rng = np.random.default_rng([7, n, MATRIX_KINDS.index(kind)])
        rank = int(rng.integers(1, n))
        p = random_projection(kind, n, rank, rng)
        np.testing.assert_allclose(
            sorted_spectrum(kind, p), [0.0] * (n - rank) + [1.0] * rank,
            atol=1e-12,
        )
        el = ja.JordanElement(factor_algebra(kind, n),
                              readme_coeffs(kind, n, p))
        dec = ja.spectral_decompose(el)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(dec.multiplicities, [rank, n - rank],
                                   atol=1e-10)
        assert ja.norm(dec.idempotents[0] - el) < 1e-10
        assert_valid_decomposition(el, dec)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_degenerate_quaternion_eigenvalues(self, n):
        # a quaternionic eigenvalue of multiplicity 2 is four-fold in the
        # complex embedding and must still come out as one idempotent
        rng = np.random.default_rng([11, n])
        p = random_projection("quaternion", n, 2, rng)
        m = 0.3 * np.eye(2 * n) + 0.5 * p
        el = ja.JordanElement(factor_algebra("quaternion", n),
                              readme_coeffs("quaternion", n, m))
        dec = ja.spectral_decompose(el)
        expected = [0.8, 0.3] if n > 2 else [0.8]
        np.testing.assert_allclose(dec.eigenvalues, expected, atol=1e-10)
        np.testing.assert_allclose(dec.multiplicities,
                                   [2, n - 2][:len(expected)], atol=1e-10)
        assert_valid_decomposition(el, dec)


class TestJordanFrame:
    """Every row of a decomposition is a primitive idempotent; the other
    kinds and sizes are checked through ``assert_valid_decomposition``."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_quaternion_pair_gap(self, n):
        # two Kramers pairs 1e-10 apart form one four-fold cluster of the
        # complex embedding
        rng = np.random.default_rng([24, n])
        v = kramers_columns(n, 2, rng)
        m = (0.2 * np.eye(2 * n) + 0.5 * v[:, :2] @ v[:, :2].conj().T
             + (0.5 + 1e-10) * v[:, 2:] @ v[:, 2:].conj().T)
        el = ja.JordanElement(factor_algebra("quaternion", n),
                              readme_coeffs("quaternion", n, m))
        dec = ja.spectral_decompose(el)
        assert_valid_decomposition(el, dec)
        np.testing.assert_allclose(
            dec.fine_spectrum(), [0.7 + 1e-10, 0.7] + [0.2] * (n - 2),
            rtol=0, atol=1e-14,
        )

    def test_direct_sum(self):
        algebra = ja.Algebra(ja.complex_hermitian(2).summands
                             + ja.spin_factor(3).summands
                             + ja.classical(2).summands)
        for el in (random_element(algebra, 25), ja.unit(algebra)):
            assert_valid_decomposition(el, ja.spectral_decompose(el))


def coefficient_rows(dec):
    """The frame as coefficient rows, zero outside each idempotent's own
    summand."""
    rows, start = np.zeros((len(dec.values), dec.algebra.dim)), 0
    for s, sl, stack in zip(dec.algebra.summands, dec.algebra.slices(),
                            dec.frame):
        rows[start:start + len(stack), sl] = ja._COERCE_TO_COEFFS[s.kind](
            stack, s.size
        )
        start += len(stack)
    return rows


FRAME_ALGEBRAS = ALL_SIMPLE + [ja.Algebra(
    ja.complex_hermitian(2).summands + ja.spin_factor(3).summands
    + ja.classical(2).summands
)]


class TestFrameReaders:
    """``weights`` and ``function`` agree with the coefficient rows of the
    frame."""

    @pytest.mark.parametrize("algebra", FRAME_ALGEBRAS, ids=str)
    def test_weights_match_coefficient_rows(self, algebra):
        dec = ja.spectral_decompose(random_element(algebra, 22))
        x = random_element(algebra, 23)
        np.testing.assert_allclose(dec.weights(x),
                                   coefficient_rows(dec) @ x.coeffs,
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("algebra", FRAME_ALGEBRAS, ids=str)
    def test_function_matches_coefficient_build(self, algebra):
        dec = ja.spectral_decompose(random_element(algebra, 24))
        v = np.random.default_rng(25).normal(size=len(dec.values))
        np.testing.assert_allclose(dec.function(v).coeffs,
                                   v @ coefficient_rows(dec),
                                   rtol=0, atol=1e-14)


class TestBasisMaps:
    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip(self, kind, n):
        algebra = factor_algebra(kind, n)
        el = random_element(algebra, [13, n])
        back = ja.element_from_reps(algebra, el.reps())
        np.testing.assert_allclose(back.coeffs, el.coeffs, rtol=0,
                                   atol=1e-14 * ja.norm(el))

    def test_round_trip_direct_sum(self):
        algebra = ja.Algebra(tuple(
            ja.SimpleFactor(kind, n) for kind, n in
            (("real", 3), ("complex", 2), ("quaternion", 3), ("spin", 3),
             ("classical", 2))
        ))
        el = random_element(algebra, 14)
        back = ja.element_from_reps(algebra, el.reps())
        np.testing.assert_allclose(back.coeffs, el.coeffs, rtol=0,
                                   atol=1e-14 * ja.norm(el))

    @pytest.mark.parametrize("algebra", ALL_SIMPLE + [ja.Algebra(
        ja.complex_hermitian(2).summands + ja.spin_factor(3).summands
        + ja.classical(2).summands
    )], ids=str)
    def test_reps_cached_read_only(self, algebra):
        el = random_element(algebra, 17)
        first = el.reps()
        fresh = [ja._COERCE_TO_REP[s.kind](el.coeffs[sl], s.size)
                 for s, sl in zip(algebra.summands, algebra.slices())]
        for cached, again, expected in zip(first, el.reps(), fresh):
            assert cached is again
            np.testing.assert_array_equal(cached, expected, strict=True)
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[...] = 0.0

    @pytest.mark.parametrize("algebra", ALL_SIMPLE, ids=str)
    def test_row_reps_cached_read_only(self, algebra):
        # a decomposition stores the idempotent reps the eigensolver gave,
        # one stack per summand, read-only, and pickling restores them bit
        # for bit and read-only again
        el = random_element(algebra, 19)
        dec = ja.spectral_decompose(el)
        s = algebra.summands[0]
        (stored,) = dec.frame
        assert len(stored) == algebra.rank
        np.testing.assert_array_equal(
            stored, spectral_projections(s.kind, el.reps()[0], s.size)[1],
            strict=True,
        )
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[...] = 0.0
        back = pickle.loads(pickle.dumps(dec))
        (got,) = back.frame
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, stored, strict=True)
        np.testing.assert_array_equal(back.values, dec.values, strict=True)

    def test_direct_sum_frame_per_summand(self):
        # a direct sum keeps one stack of idempotent reps per summand,
        # with its values in summand order
        algebra = ja.Algebra(ja.complex_hermitian(2).summands
                             + ja.classical(2).summands)
        el = random_element(algebra, 20)
        dec = ja.spectral_decompose(el)
        assert [stack.shape for stack in dec.frame] == [(2, 2, 2), (2, 2)]
        for stack in dec.frame:
            assert not stack.flags.writeable
        np.testing.assert_array_equal(dec.values[2:], el.reps()[1])
        assert ja.norm(dec.function(dec.values) - el) < 1e-14

    @pytest.mark.parametrize("algebra", ALL_SIMPLE, ids=str)
    def test_element_from_reps_does_not_alias(self, algebra):
        el = random_element(algebra, 18)
        reps = [rep.copy() for rep in el.reps()]
        built = ja.element_from_reps(algebra, reps)
        stored = built.reps()
        # the reps are stored as given (they are already Hermitian) and
        # the coefficients stay unset until read
        assert built._coeffs is None
        assert not np.shares_memory(stored[0], reps[0])
        assert not stored[0].flags.writeable
        np.testing.assert_array_equal(stored[0], el.reps()[0], strict=True)
        reps[0][...] = 0.0
        np.testing.assert_array_equal(built.reps()[0], el.reps()[0])
        assert built.reps()[0] is stored[0]
        coeffs = built.coeffs
        assert built.coeffs is coeffs and not coeffs.flags.writeable
        s = algebra.summands[0]
        np.testing.assert_array_equal(
            coeffs, ja._COERCE_TO_COEFFS[s.kind](stored[0], s.size),
            strict=True,
        )
        np.testing.assert_allclose(coeffs, el.coeffs, rtol=0,
                                   atol=1e-14 * ja.norm(el))

    @pytest.mark.parametrize("algebra", ALL_SIMPLE, ids=str)
    def test_element_from_reps_rejects_wrong_shapes(self, algebra):
        rep = random_element(algebra, 21).reps()[0]
        with pytest.raises(ValueError):
            ja.element_from_reps(algebra, [rep, rep])
        with pytest.raises(ValueError):
            ja.element_from_reps(algebra, [rep[:-1]])

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_symmetrizes_non_hermitian_input(self, kind):
        # coefficients of a matrix are those of its Hermitian part
        n = 4
        rng = np.random.default_rng(15)
        algebra = factor_algebra(kind, n)
        el = random_element(algebra, 16)
        rep = el.reps()[0]
        skew = rng.normal(size=rep.shape)
        noisy = rep + (skew - skew.T)
        np.testing.assert_allclose(
            ja.element_from_reps(algebra, [noisy]).coeffs, el.coeffs,
            atol=1e-14 * ja.norm(el),
        )

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_non_hermitian_input_spectrum(self, kind):
        # eigh reads one triangle only, so the stored rep must already be
        # the Hermitian part (on quaternionic embeddings the part that
        # also commutes with J) for the spectrum to be the element's
        n = 3
        rng = np.random.default_rng(22)
        algebra = factor_algebra(kind, n)
        el = random_element(algebra, 23)
        rep = el.reps()[0]
        skew = rng.normal(size=rep.shape)
        noise = skew - skew.T
        if kind != "real":
            sym = rng.normal(size=rep.shape)
            noise = noise + 1j * (sym + sym.T)
        if kind == "quaternion":
            # a Hermitian part that anticommutes with J: (h - J h J^-1) / 2,
            # where J v = u conj(v) and J^-1 = -J
            u = np.kron(np.eye(n), [[0.0, -1.0], [1.0, 0.0]])
            h = rng.normal(size=rep.shape) + 1j * rng.normal(size=rep.shape)
            h = h + h.conj().T
            noise = noise + 0.5 * (h + u @ h.conj() @ u)
        built = ja.element_from_reps(algebra, [rep + noise])
        np.testing.assert_allclose(
            ja.spectral_decompose(built).fine_spectrum(),
            ja.spectral_decompose(el).fine_spectrum(),
            rtol=0, atol=1e-13 * ja.norm(el),
        )


# every simple kind at sizes 1-6 (spin factors start at 2)
ALL_FACTORS = [(kind, n) for kind in ja._KINDS for n in range(1, 7)
               if not (kind == "spin" and n == 1)]
_REP_SHAPES = {"real": lambda n: (n, n), "complex": lambda n: (n, n),
               "quaternion": lambda n: (2 * n, 2 * n),
               "spin": lambda n: (n + 1,), "classical": lambda n: (n,)}


def random_reps(kind, n, count, rng):
    """A stack of arbitrary representations, Hermitian or not."""
    reps = rng.normal(size=(count,) + _REP_SHAPES[kind](n))
    if kind in ("complex", "quaternion"):
        reps = reps + 1j * rng.normal(size=reps.shape)
    return reps


def spectral_projections(kind, rep, size):
    """The fine eigenvalues and idempotent stacks of ``rep``, any leading
    axes a batch."""
    values, frames = ja._spectral_frames(kind, rep, size)
    return values, ja._frame_idempotents(kind, frames)


def rep_trace(kind, rep):
    """The trace read off a concrete representation."""
    if kind in ("real", "complex"):
        return float(np.trace(rep).real)
    if kind == "quaternion":
        # the complex embedding carries every eigenvalue twice
        return 0.5 * float(np.trace(rep).real)
    if kind == "spin":
        return 2.0 * float(rep[0])
    return float(np.sum(rep))


class TestBatchedLayer:
    @pytest.mark.parametrize("kind,n", ALL_FACTORS)
    def test_batched_maps_equal_rowwise_maps(self, kind, n):
        to_rep = ja._COERCE_TO_REP[kind]
        to_coeffs = ja._COERCE_TO_COEFFS[kind]
        rng = np.random.default_rng([17, ja._KINDS.index(kind), n])
        coeffs = rng.normal(size=(6, ja.SimpleFactor(kind, n).dim))
        reps = random_reps(kind, n, 6, rng)
        batched_reps = to_rep(coeffs, n)
        batched_coeffs = to_coeffs(reps, n)
        for k in range(6):
            assert np.array_equal(batched_reps[k], to_rep(coeffs[k], n))
            assert np.array_equal(batched_coeffs[k], to_coeffs(reps[k], n))
        # two leading batch axes give the same rows
        assert np.array_equal(
            to_rep(coeffs.reshape(2, 3, -1), n).reshape(batched_reps.shape),
            batched_reps,
        )
        assert np.array_equal(
            to_coeffs(reps.reshape((2, 3) + reps.shape[1:]), n).reshape(
                batched_coeffs.shape),
            batched_coeffs,
        )

    @pytest.mark.parametrize("kind,n", ALL_FACTORS)
    def test_trace_matches_reps(self, kind, n):
        el = random_element(factor_algebra(kind, n), [18, n])
        assert ja.trace(el) == pytest.approx(
            rep_trace(kind, el.reps()[0]), rel=0, abs=1e-14
        )

    @pytest.mark.parametrize("kind,n", ALL_FACTORS)
    def test_stacked_spectral_projections_equal_single_ones(self, kind, n):
        rng = np.random.default_rng([23, ja._KINDS.index(kind), n])
        reps = ja._SYMMETRIC_PART[kind](random_reps(kind, n, 6, rng))
        # two fully degenerate rows: the maximally mixed state, whose
        # quaternionic Kramers pairs all tie, and a negative multiple of
        # the unit; on spin factors both have a zero radius
        unit = ja._unit_rep(kind, n)
        reps[1] = unit / ja.SimpleFactor(kind, n).rank
        reps[4] = -2.5 * unit
        reps = reps.reshape((2, 3) + reps.shape[1:])
        values, frames = spectral_projections(kind, reps, n)
        for index in np.ndindex(2, 3):
            w, projs = spectral_projections(kind, reps[index], n)
            assert np.array_equal(values[index], w)
            assert np.array_equal(frames[index], projs)
        np.testing.assert_allclose(values[0, 1], 1 / len(values[0, 1]),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(values[1, 1], -2.5, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind,n", ALL_FACTORS)
    def test_frames_project_row_by_row(self, kind, n):
        # any rows of a stack of frames project to those rows of the
        # stack's idempotents, so a caller projects only what it reads
        rng = np.random.default_rng([25, ja._KINDS.index(kind), n])
        reps = ja._SYMMETRIC_PART[kind](random_reps(kind, n, 6, rng))
        values, frames = ja._spectral_frames(kind, reps, n)
        whole = ja._frame_idempotents(kind, frames)
        assert np.array_equal(whole, spectral_projections(kind, reps, n)[1])
        for rows in ([0], [1, 4], [5, 2, 3]):
            assert np.array_equal(ja._frame_idempotents(kind, frames[rows]),
                                  whole[rows])

    @pytest.mark.parametrize("kind,n", ALL_FACTORS)
    def test_stacked_pairings_equal_single_ones(self, kind, n):
        rng = np.random.default_rng([24, ja._KINDS.index(kind), n])
        stacks = random_reps(kind, n, 12, rng).reshape(
            (3, 4) + _REP_SHAPES[kind](n))
        reps = random_reps(kind, n, 3, rng)
        pairings = ja._pairings(kind, stacks, reps)
        assert pairings.shape == (3, 4)
        for k in range(3):
            assert np.array_equal(pairings[k],
                                  ja._pairings(kind, stacks[k], reps[k]))

    def test_trace_matches_reps_on_direct_sum(self):
        algebra = ja.Algebra(tuple(
            ja.SimpleFactor(kind, n) for kind, n in
            (("real", 3), ("complex", 2), ("quaternion", 3), ("spin", 3),
             ("classical", 2))
        ))
        el = random_element(algebra, 19)
        expected = sum(rep_trace(s.kind, rep)
                       for s, rep in zip(algebra.summands, el.reps()))
        assert ja.trace(el) == pytest.approx(expected, rel=0, abs=1e-14)

    def test_dim_and_slices_are_computed_once(self):
        algebra = ja.Algebra(ja.real_hermitian(3).summands
                             + ja.spin_factor(4).summands)
        assert algebra.dim == 6 + 5
        assert algebra.slices() == [slice(0, 6), slice(6, 11)]
        assert algebra.slices() is not algebra.slices()
        assert algebra._slices is algebra._slices
        assert algebra == ja.Algebra(ja.real_hermitian(3).summands
                                     + ja.spin_factor(4).summands)

    @staticmethod
    def _merged_across_summands():
        # eigenvalue 0.5 on C2 and on P3, and 0.25 twice on P3
        algebra = ja.Algebra(ja.complex_hermitian(2).summands
                             + ja.classical(3).summands)
        c2 = ja.element_from_reps(ja.complex_hermitian(2),
                                  [np.diag([0.5, 0.125]).astype(complex)])
        p3 = ja.element_from_reps(ja.classical(3), [np.array([0.25, 0.5,
                                                              0.25])])
        el = ja.direct_sum(c2, p3)
        assert el.algebra == algebra
        return el

    @staticmethod
    def _degenerate_quaternion():
        rng = np.random.default_rng([11, 4])
        p = random_projection("quaternion", 4, 2, rng)
        m = 0.3 * np.eye(8) + 0.5 * p
        return ja.JordanElement(factor_algebra("quaternion", 4),
                                readme_coeffs("quaternion", 4, m))

    @pytest.mark.parametrize("case", [
        "R3", "C3", "H2", "S3", "P4", "spin-unit", "merged", "quaternion",
    ])
    def test_multiplicities_are_idempotent_traces(self, case):
        simple = {str(a): a for a in ALL_SIMPLE}
        if case in simple:
            el = random_element(simple[case], 20)
        elif case == "spin-unit":
            el = ja.unit(ja.spin_factor(3))
        elif case == "merged":
            el = self._merged_across_summands()
        else:
            el = self._degenerate_quaternion()
        dec = ja.spectral_decompose(el)
        traces = [ja.trace(e) for e in dec.idempotents]
        np.testing.assert_allclose(dec.multiplicities, traces, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(dec.multiplicities,
                                   np.rint(dec.multiplicities), atol=1e-10)
        assert_valid_decomposition(el, dec)
        if case == "merged":
            np.testing.assert_allclose(dec.eigenvalues, [0.5, 0.25, 0.125],
                                       atol=1e-15)
            np.testing.assert_allclose(dec.multiplicities, [2, 2, 1],
                                       atol=1e-12)
        if case == "quaternion":
            np.testing.assert_allclose(dec.multiplicities, [2, 2],
                                       atol=1e-10)
        if case == "spin-unit":
            np.testing.assert_allclose(dec.multiplicities, [2], atol=1e-15)
