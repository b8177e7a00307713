"""States, tests, measurements, affinities and composite systems.

A state is a positive element of trace one.  Tests act on states through
the trace inner product, measurements are families of tests summing to
the unit, and affinities are positive trace-preserving linear maps
between coefficient spaces.  Composite systems come in three layouts:
tensors of classical factors, tensors of complex factors, and the single
real-into-larger embedding of two 2x2 real factors inside 4x4 real
symmetric matrices (where partial traces are deliberately unsupported,
since local measurements cannot resolve the ambient space).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import algebras as alg
from .algebras import (
    Algebra,
    AlgebraMismatchError,
    JordanElement,
    SimpleFactor,
    SpectralDecomposition,
    Spectrum,
    classical,
    complex_hermitian,
    element_from_reps,
    inner_product,
    real_hermitian,
    spectral_decompose,
    trace,
    unit,
)

__all__ = [
    "Affinity",
    "CatalogChannel",
    "CompositeLayout",
    "Measurement",
    "State",
    "StateValidationError",
    "Test",
    "UnsupportedAlgebraError",
    "are_singular",
    "channel_catalog",
    "extend_to_factor",
    "fine_grain",
    "identity_affinity",
    "is_fine_grained",
    "marginal",
    "maximally_mixed",
    "measure",
    "permute_factors",
    "primitive_split",
    "random_channel",
    "random_state",
    "real_embedding_dimension_audit",
    "singularity_witness",
    "spectral_measurement",
    "support_projection",
    "tensor",
    "tensor_elements",
    "tensor_state",
    "trace_vector",
]

CLIP_TOL = 1e-10
# eigenvalues and probabilities at or below this count as exact zeros
# for support and entropy purposes, in every module
SUPPORT_CUTOFF = 1e-12


class StateValidationError(ValueError):
    """Candidate state fails positivity or normalization."""


class UnsupportedAlgebraError(ValueError):
    """The operation is not available on this algebra or layout."""


# ---------------------------------------------------------------------------
# composite layouts
# ---------------------------------------------------------------------------

CLASSICAL_TENSOR = "classical-tensor"
COMPLEX_TENSOR = "complex-tensor"
REAL_INTO_LARGER = "real-into-larger"


@dataclass(frozen=True)
class CompositeLayout:
    """How factor systems sit inside an ambient algebra."""

    factors: tuple[Algebra, ...]
    embedding: str = COMPLEX_TENSOR

    def __post_init__(self):
        kinds = {
            CLASSICAL_TENSOR: "classical",
            COMPLEX_TENSOR: "complex",
            REAL_INTO_LARGER: "real",
        }
        if self.embedding not in kinds:
            raise ValueError(f"unknown embedding {self.embedding!r}")
        want = kinds[self.embedding]
        for f in self.factors:
            if len(f.summands) != 1 or f.summands[0].kind != want:
                raise ValueError(
                    f"{self.embedding} layouts need single {want} factors, "
                    f"got {f}"
                )
        if self.embedding == REAL_INTO_LARGER:
            sizes = tuple(f.summands[0].size for f in self.factors)
            if sizes != (2, 2):
                raise ValueError(
                    "the real embedding is defined for two 2x2 real factors"
                )

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(f.summands[0].size for f in self.factors)

    @cached_property
    def ambient(self) -> Algebra:
        total = int(np.prod(self.sizes))
        if self.embedding == CLASSICAL_TENSOR:
            return classical(total)
        if self.embedding == COMPLEX_TENSOR:
            return complex_hermitian(total)
        return real_hermitian(4)

    def keep(self, indices: Sequence[int]) -> "CompositeLayout | None":
        kept = tuple(self.factors[i] for i in sorted(indices))
        if len(kept) == 1:
            return None
        return CompositeLayout(kept, self.embedding)


def composite_layout(embedding: str, sizes: Sequence[int]) -> CompositeLayout:
    kind = {
        CLASSICAL_TENSOR: classical,
        COMPLEX_TENSOR: complex_hermitian,
        REAL_INTO_LARGER: real_hermitian,
    }[embedding]
    return CompositeLayout(tuple(kind(n) for n in sizes), embedding)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class State:
    """A positive trace-one element, optionally tagged with a layout."""

    element: JordanElement
    layout: CompositeLayout | None = None

    @property
    def algebra(self) -> Algebra:
        return self.element.algebra

    @classmethod
    def make(
        cls,
        element: JordanElement,
        layout: CompositeLayout | None = None,
        clip_tol: float = CLIP_TOL,
    ) -> "State":
        """Validate positivity and trace, clipping eigenvalue jitter.

        Eigenvalues in ``[-clip_tol, 0)`` are treated as solver noise and
        clipped to zero; anything more negative is rejected.
        """
        if not np.all(np.isfinite(element.coeffs)):
            raise StateValidationError("state coefficients must be finite")
        tr = trace(element)
        if not abs(tr - 1.0) <= 1e-8:
            raise StateValidationError(f"trace {tr!r} is not 1")
        dec = spectral_decompose(element)
        lo = float(np.min(dec.values))
        if lo < -clip_tol:
            raise StateValidationError(
                f"minimum eigenvalue {lo!r} below -{clip_tol}"
            )
        if lo < 0.0:
            clipped = np.maximum(dec.values, 0.0)
            element = JordanElement(element.algebra, clipped @ dec.rows)
            element._spectral = SpectralDecomposition(
                Spectrum(clipped, dec.weights), dec.rows, dec.algebra
            )
        return cls(element, layout)

    def spectrum(self) -> np.ndarray:
        """One eigenvalue per primitive idempotent, descending."""
        return spectral_decompose(self.element).fine_spectrum()


def maximally_mixed(
    algebra: Algebra, layout: CompositeLayout | None = None
) -> State:
    u = unit(algebra)
    return State(u / trace(u), layout)


def trace_vector(algebra: Algebra) -> np.ndarray:
    """Read-only vector t with tr(x) = t . coeffs(x)."""
    return algebra.trace_vector


# ---------------------------------------------------------------------------
# tests and measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Test:
    """Dual-cone functional with values in [0, 1] on states."""

    element: JordanElement

    def __call__(self, state: State) -> float:
        return inner_product(self.element, state.element)

    def is_valid(self, tol: float = CLIP_TOL) -> bool:
        eigs = spectral_decompose(self.element).values
        return bool(np.all(eigs >= -tol) and np.all(eigs <= 1.0 + tol))


@dataclass(frozen=True)
class Measurement:
    """Labelled tests that sum to the unit."""

    outcomes: tuple[tuple[object, Test], ...]

    def __post_init__(self):
        total = self.outcomes[0][1].element
        for _, t in self.outcomes[1:]:
            total = total + t.element
        gap = alg.norm(total - unit(total.algebra))
        if gap > 1e-8:
            raise ValueError(f"tests sum to unit only within {gap:.3e}")

    @property
    def algebra(self) -> Algebra:
        return self.outcomes[0][1].element.algebra

    @property
    def labels(self):
        return [label for label, _ in self.outcomes]


def measurement_from_elements(pairs) -> Measurement:
    return Measurement(tuple(
        (label, Test(el)) for label, el in pairs
    ))


def measure(m: Measurement, sigma: State) -> np.ndarray:
    """Outcome probabilities of a measurement on a state."""
    if m.algebra != sigma.algebra:
        raise AlgebraMismatchError(
            f"measurement on {m.algebra}, state on {sigma.algebra}"
        )
    probs = np.array([t(sigma) for _, t in m.outcomes])
    if np.any(probs < -1e-8) or abs(probs.sum() - 1.0) > 1e-8:
        raise ValueError(
            f"invalid outcome distribution {probs} (sum {probs.sum()!r})"
        )
    return np.clip(probs, 0.0, None)


def spectral_measurement(sigma: State) -> Measurement:
    """Measurement whose tests are the spectral idempotents of the state,
    with merged idempotents split into primitive ones."""
    dec = spectral_decompose(sigma.element)
    outcomes = []
    k = 0
    for e in dec.idempotents:
        for p in primitive_split(e):
            outcomes.append((k, Test(p)))
            k += 1
    return Measurement(tuple(outcomes))


# ---------------------------------------------------------------------------
# primitive idempotents and fine-graining
# ---------------------------------------------------------------------------


def _peel_matrix_projection(p: np.ndarray, rank: int) -> list[np.ndarray]:
    """Split a real/complex projection matrix into rank-one projections."""
    parts = []
    residual = p.copy()
    for _ in range(rank):
        j = int(np.argmax(np.real(np.diag(residual))))
        pivot = np.real(residual[j, j])
        v = residual[:, j] / np.sqrt(pivot)
        parts.append(np.outer(v, v.conj()))
        residual = residual - parts[-1]
    return parts


def _quaternion_conj_transpose(m: np.ndarray) -> np.ndarray:
    out = np.swapaxes(m, -1, -2).copy()
    out[..., 1:, :, :] = -out[..., 1:, :, :]
    return out


def _peel_quaternion_projection(p: np.ndarray, rank: int) -> list[np.ndarray]:
    parts = []
    residual = p.copy()
    for _ in range(rank):
        j = int(np.argmax(np.diag(residual[0])))
        pivot = residual[0, j, j]
        col = residual[:, :, j:j + 1] / np.sqrt(pivot)
        parts.append(alg._quaternion_matmul(col, _quaternion_conj_transpose(col)))
        residual = residual - parts[-1]
    return parts


def primitive_split(idempotent: JordanElement) -> list[JordanElement]:
    """Write an idempotent as a sum of primitive (trace-one) idempotents."""
    algebra = idempotent.algebra
    out = []
    tvec = algebra.trace_vector
    for pos, (s, sl, rep) in enumerate(
        zip(algebra.summands, algebra.slices(), idempotent.reps())
    ):
        rank = int(round(idempotent.coeffs[sl] @ tvec[sl]))
        if rank == 0:
            continue
        if s.kind == "classical":
            parts = []
            for j in np.nonzero(rep > 0.5)[0]:
                e = np.zeros(s.size)
                e[j] = 1.0
                parts.append(e)
        elif s.kind == "spin":
            if rank == 2:
                axis = np.zeros(s.size)
                axis[0] = 1.0
                top = np.concatenate(([0.5], 0.5 * axis))
                parts = [top, np.concatenate(([0.5], -0.5 * axis))]
            else:
                parts = [rep]
        elif s.kind == "quaternion":
            parts = _peel_quaternion_projection(rep, rank)
        else:
            parts = _peel_matrix_projection(rep, rank)
        for part in parts:
            reps = [
                np.zeros_like(alg._unit_rep(t.kind, t.size))
                for t in algebra.summands
            ]
            reps[pos] = part
            out.append(element_from_reps(algebra, reps))
    return out


def is_fine_grained(m: Measurement, tol: float = 1e-8) -> bool:
    """True when every test is a nonnegative multiple of a primitive
    idempotent (spectral rank one after normalization)."""
    for _, t in m.outcomes:
        dec = spectral_decompose(t.element)
        if np.any(dec.eigenvalues < -tol):
            return False
        positive = dec.eigenvalues > tol
        if np.count_nonzero(positive) != 1:
            return False
        mult = dec.multiplicities[positive][0]
        if abs(mult - 1.0) > tol:
            return False
    return True


def fine_grain(m: Measurement) -> Measurement:
    """Refine a measurement by spectrally splitting every test.

    Output labels are ``(label, i, j)`` for eigenvalue group ``i`` and
    primitive part ``j``; summing the refined tests per original label
    recovers the original test.
    """
    outcomes = []
    for label, t in m.outcomes:
        dec = spectral_decompose(t.element)
        for i, (lam, e) in enumerate(zip(dec.eigenvalues, dec.idempotents)):
            if lam <= SUPPORT_CUTOFF:
                continue
            for j, p in enumerate(primitive_split(e)):
                outcomes.append(((label, i, j), Test(lam * p)))
    return Measurement(tuple(outcomes))


# ---------------------------------------------------------------------------
# singularity
# ---------------------------------------------------------------------------


def are_singular(rho: State, sigma: State, tol: float = CLIP_TOL) -> bool:
    """Mutual singularity; in a self-dual cone this is a vanishing inner
    product of the two positive elements."""
    if rho.algebra != sigma.algebra:
        raise AlgebraMismatchError("states live in different algebras")
    return inner_product(rho.element, sigma.element) < tol


def support_projection(element: JordanElement,
                       cutoff: float = SUPPORT_CUTOFF) -> JordanElement:
    dec = spectral_decompose(element)
    return JordanElement(element.algebra, (dec.values > cutoff) @ dec.rows)


def singularity_witness(rho: State, sigma: State,
                        tol: float = CLIP_TOL) -> Test | None:
    """A test scoring 0 on rho and 1 on sigma, when one exists."""
    proj = support_projection(sigma.element)
    if inner_product(proj, rho.element) < tol:
        return Test(proj)
    return None


# ---------------------------------------------------------------------------
# tensors and marginals
# ---------------------------------------------------------------------------


def _kron_stacks(kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of every rep in the stack ``a`` with every rep in
    the stack ``b``, ordered ``a``-major."""
    spec = "ai,bk->abik" if kind == "classical" else "aij,bkl->abikjl"
    shape = tuple(x * y for x, y in zip(a.shape[1:], b.shape[1:]))
    return np.einsum(spec, a, b).reshape((len(a) * len(b),) + shape)


def tensor_elements(
    elements: Sequence[JordanElement], layout: CompositeLayout
) -> JordanElement:
    """Tensor product of factor elements inside the ambient algebra."""
    if len(elements) != len(layout.factors):
        raise ValueError("element count does not match layout")
    for el, f in zip(elements, layout.factors):
        if el.algebra != f:
            raise AlgebraMismatchError(
                f"factor element on {el.algebra} does not match layout {f}"
            )
    kind = layout.ambient.summands[0].kind
    out = elements[0].reps()[0][np.newaxis]
    for el in elements[1:]:
        out = _kron_stacks(kind, out, el.reps()[0][np.newaxis])
    return element_from_reps(layout.ambient, [out[0]])


def _product_spectrum(
    factors: Sequence[JordanElement], layout: CompositeLayout
) -> SpectralDecomposition:
    """The product spectral decomposition from factor spectra: products of
    factor eigenvalues with Kronecker products of factor rows."""
    s = layout.ambient.summands[0]
    values = np.ones(1)
    projs = None
    for f in factors:
        dec = spectral_decompose(f)
        t = f.algebra.summands[0]
        reps = alg._COERCE_TO_REP[t.kind](dec.rows, t.size)
        values = np.multiply.outer(values, dec.values).ravel()
        projs = reps if projs is None else _kron_stacks(s.kind, projs, reps)
    rows = alg._COERCE_TO_COEFFS[s.kind](projs, s.size)
    return SpectralDecomposition.from_rows(values, rows, layout.ambient)


def tensor_state(states: Sequence[State], layout: CompositeLayout) -> State:
    elements = [s.element for s in states]
    product = tensor_elements(elements, layout)
    if layout.embedding != REAL_INTO_LARGER:
        product._spectral = _product_spectrum(elements, layout)
    return State(product, layout)


def tensor(sigma_a: State, sigma_b: State, layout: CompositeLayout) -> State:
    """Joint state of two independently prepared factors."""
    return tensor_state([sigma_a, sigma_b], layout)


def marginal(sigma: State, keep: Sequence[int]) -> State:
    """Partial trace onto the factors listed in ``keep`` (original order).

    Unsupported on the real-into-larger layout, where the ambient state
    space is strictly larger than the span of product states.
    """
    layout = sigma.layout
    if layout is None:
        raise ValueError("state carries no composite layout")
    if layout.embedding == REAL_INTO_LARGER:
        raise UnsupportedAlgebraError(
            "partial traces are not defined for the real-into-larger layout"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= len(layout.factors) for k in keep):
        raise ValueError(f"invalid keep set {keep}")
    sizes = layout.sizes
    drop = [i for i in range(len(sizes)) if i not in keep]

    rep = sigma.element.reps()[0]
    if layout.embedding == CLASSICAL_TENSOR:
        tensor_rep = rep.reshape(sizes)
        reduced = np.sum(tensor_rep, axis=tuple(drop)) if drop else tensor_rep
        flat = reduced.reshape(-1)
        new_layout = layout.keep(keep)
        ambient = (
            new_layout.ambient if new_layout else layout.factors[keep[0]]
        )
        return State.make(element_from_reps(ambient, [flat]), new_layout)

    tensor_rep = rep.reshape(sizes + sizes)
    k = len(sizes)
    for i in reversed(drop):
        tensor_rep = np.trace(tensor_rep, axis1=i, axis2=i + k)
        k -= 1
    d = int(np.prod([sizes[i] for i in keep]))
    flat = tensor_rep.reshape(d, d)
    new_layout = layout.keep(keep)
    ambient = new_layout.ambient if new_layout else layout.factors[keep[0]]
    return State.make(element_from_reps(ambient, [flat]), new_layout)


def _permute_reps(reps, sizes, order, embedding):
    """Reorder the tensor factors of a stack of reps."""
    k = len(sizes)
    axes = [1 + i for i in order]
    if embedding != CLASSICAL_TENSOR:
        axes += [1 + k + i for i in order]
    shape = (len(reps),) + tuple(sizes) * (reps.ndim - 1)
    return reps.reshape(shape).transpose([0] + axes).reshape(reps.shape)


def permute_factors(sigma: State, order: Sequence[int]) -> State:
    """Reorder tensor factors; ``order[i]`` is the old position of the new
    factor ``i``.  A cached spectral decomposition rides along: the
    permutation moves its rows and keeps its spectrum."""
    layout = sigma.layout
    if layout is None or layout.embedding == REAL_INTO_LARGER:
        raise UnsupportedAlgebraError("factor permutation needs a tensor layout")
    order = list(order)
    new_layout = CompositeLayout(
        tuple(layout.factors[i] for i in order), layout.embedding
    )
    ambient = new_layout.ambient
    s = ambient.summands[0]
    # the element and its cached rows move as one stack
    cached = sigma.element._spectral
    stack = sigma.element.coeffs[np.newaxis]
    if cached is not None:
        stack = np.concatenate([stack, cached.rows])
    reps = alg._COERCE_TO_REP[s.kind](stack, s.size)
    moved = alg._COERCE_TO_COEFFS[s.kind](
        _permute_reps(reps, layout.sizes, order, layout.embedding), s.size
    )
    element = JordanElement(ambient, moved[0])
    if cached is not None:
        element._spectral = SpectralDecomposition(
            cached.spectrum, moved[1:], ambient
        )
    return State(element, new_layout)


# ---------------------------------------------------------------------------
# affinities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affinity:
    """Linear map between coefficient spaces of two algebras."""

    matrix: np.ndarray
    source: Algebra
    target: Algebra
    name: str = ""
    trace_preserving: bool = True

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.target.dim, self.source.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not map {self.source} "
                f"to {self.target}"
            )

    def apply_element(self, el: JordanElement) -> JordanElement:
        if el.algebra != self.source:
            raise AlgebraMismatchError(
                f"affinity expects {self.source}, got {el.algebra}"
            )
        return JordanElement(self.target, self.matrix @ el.coeffs)

    def __call__(self, x):
        if isinstance(x, State):
            return State.make(self.apply_element(x.element), None)
        return self.apply_element(x)

    def compose(self, inner: "Affinity") -> "Affinity":
        if inner.target != self.source:
            raise AlgebraMismatchError("composition spaces do not match")
        return Affinity(
            self.matrix @ inner.matrix,
            inner.source,
            self.target,
            name=f"{self.name}*{inner.name}",
            trace_preserving=self.trace_preserving and inner.trace_preserving,
        )

    def check_trace_preserving(self, tol: float = CLIP_TOL) -> bool:
        t_src = trace_vector(self.source)
        t_tgt = trace_vector(self.target)
        return bool(np.max(np.abs(t_tgt @ self.matrix - t_src)) <= tol)


def identity_affinity(algebra: Algebra) -> Affinity:
    return Affinity(np.eye(algebra.dim), algebra, algebra, name="identity")


def _affinity_from_rep_map(
    fn: Callable[[np.ndarray], np.ndarray], algebra: Algebra, name: str
) -> Affinity:
    """Affinity of a linear map on a simple algebra, given as a map of
    stacks of reps; one call maps every basis element."""
    s = algebra.summands[0]
    basis = alg._COERCE_TO_REP[s.kind](np.eye(algebra.dim), s.size)
    images = alg._COERCE_TO_COEFFS[s.kind](fn(basis), s.size)
    return Affinity(images.T, algebra, algebra, name=name)


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _random_summand_rep(s: SimpleFactor, rank_cap, rng):
    n = s.size
    r = s.rank if rank_cap is None else max(1, min(rank_cap, s.rank))
    if s.kind == "classical":
        weights = rng.dirichlet(np.ones(r))
        rep = np.zeros(n)
        support = rng.choice(n, size=r, replace=False) if r < n else np.arange(n)
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
        m = g @ g.conj().T
        return m / np.trace(m).real
    g = rng.normal(size=(4, n, r))
    m = alg._quaternion_matmul(g, _quaternion_conj_transpose(g))
    return m / np.trace(m[0])


def random_state(
    algebra: Algebra,
    rank_cap: int | None = None,
    seed=None,
    layout: CompositeLayout | None = None,
) -> State:
    """Seeded random state; Hilbert-Schmidt style GG* sampling on matrix
    factors, uniform ball sampling on spin factors."""
    rng = _as_rng(seed)
    reps = [_random_summand_rep(s, rank_cap, rng) for s in algebra.summands]
    if len(reps) > 1:
        weights = rng.dirichlet(np.ones(len(reps)))
        reps = [w * rep for w, rep in zip(weights, reps)]
    return State.make(element_from_reps(algebra, reps), layout)


def random_pure_state(algebra: Algebra, seed=None) -> State:
    return random_state(algebra, rank_cap=1, seed=seed)


def random_channel(algebra: Algebra, env_dim: int | None = None,
                   seed=None) -> Affinity:
    """Seeded random positive trace-preserving map.

    Complex factors get a Stinespring construction (random isometry into
    system x environment, then environment trace-out); classical factors
    get a column-stochastic matrix.  Other kinds only carry the explicit
    catalog channels, so they are rejected here.
    """
    if len(algebra.summands) != 1:
        raise UnsupportedAlgebraError("random channels need a simple algebra")
    s = algebra.summands[0]
    rng = _as_rng(seed)
    if s.kind == "classical":
        n = s.size
        matrix = np.stack(
            [rng.dirichlet(np.ones(n)) for _ in range(n)], axis=1
        )
        return Affinity(matrix, algebra, algebra, name="random-stochastic")
    if s.kind != "complex":
        raise UnsupportedAlgebraError(
            f"random channels are defined for complex and classical "
            f"algebras, not {s.kind}"
        )
    n = s.size
    env = n if env_dim is None else int(env_dim)
    if env < 1:
        raise ValueError("environment dimension must be at least 1")
    g = rng.normal(size=(n * env, n)) + 1j * rng.normal(size=(n * env, n))
    v, _ = np.linalg.qr(g)

    def push(m: np.ndarray) -> np.ndarray:
        big = v @ m @ v.conj().T
        return np.einsum("xaebe->xab", big.reshape(-1, n, env, n, env))

    return _affinity_from_rep_map(push, algebra, "stinespring")


# ---------------------------------------------------------------------------
# channel catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogChannel:
    """A named affinity, optionally with a recovery map.

    ``pair_sampler(rng)`` yields state pairs the recovery map restores,
    and ``stress_sampler(rng)`` yields pairs that exercise the channel in
    monotonicity searches.
    """

    name: str
    affinity: Affinity
    recovery: Affinity | None = None
    pair_sampler: Callable | None = None
    stress_sampler: Callable | None = None


def _diag_state(algebra: Algebra, probs: np.ndarray) -> State:
    s = algebra.summands[0]
    if s.kind == "classical":
        return State.make(element_from_reps(algebra, [probs]))
    if s.kind in ("real", "complex", "quaternion"):
        rep = alg._unit_rep(s.kind, s.size) * 0.0
        if s.kind == "quaternion":
            rep[0][np.diag_indices(s.size)] = probs
        else:
            rep[np.diag_indices(s.size)] = probs
        return State.make(element_from_reps(algebra, [rep]))
    raise UnsupportedAlgebraError("no diagonal states on spin factors")


def _diag_pair_sampler(algebra, support):
    def sampler(rng):
        n = algebra.summands[0].size
        pair = []
        for _ in range(2):
            probs = np.zeros(n)
            probs[list(support)] = rng.dirichlet(np.ones(len(support))) \
                * 0.98 + 0.01
            probs[list(support)] /= probs.sum()
            pair.append(_diag_state(algebra, probs))
        return tuple(pair)
    return sampler


def _merge_stress_sampler(algebra):
    def sampler(rng):
        n = algebra.summands[0].size
        p = np.full(n, 0.02 / (n - 1))
        p[0] = 0.98
        q = np.full(n, 0.98 / (n - 1))
        q[0] = 0.02
        jitter = rng.dirichlet(np.ones(n)) * 0.02
        p = (p + jitter) / (1 + 0.02)
        q = (q + jitter) / (1 + 0.02)
        return _diag_state(algebra, p), _diag_state(algebra, q)
    return sampler


def _automorphism(algebra: Algebra, rng) -> tuple[Affinity, Affinity]:
    s = algebra.summands[0]
    n = s.size
    if s.kind == "classical":
        perm = rng.permutation(n)
        m = np.eye(n)[perm]
        fwd = Affinity(m, algebra, algebra, name="permutation")
        rev = Affinity(m.T, algebra, algebra, name="permutation-inv")
        return fwd, rev
    if s.kind == "spin":
        g = rng.normal(size=(n, n))
        q, _ = np.linalg.qr(g)
        m = np.eye(n + 1)
        m[1:, 1:] = q
        fwd = Affinity(m, algebra, algebra, name="ball-rotation")
        rev = Affinity(m.T, algebra, algebra, name="ball-rotation-inv")
        return fwd, rev
    if s.kind == "real":
        g = rng.normal(size=(n, n))
        q, _ = np.linalg.qr(g)
        conj = lambda m: q @ m @ q.T
        inv = lambda m: q.T @ m @ q
    elif s.kind == "complex":
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(g)
        conj = lambda m: q @ m @ q.conj().T
        inv = lambda m: q.conj().T @ m @ q
    else:
        q = _random_quaternion_unitary(rng.normal(size=(4, n, n)))
        qh = _quaternion_conj_transpose(q)
        qmul = alg._quaternion_matmul
        conj = lambda m: qmul(qmul(q, m), qh)
        inv = lambda m: qmul(qmul(qh, m), q)
    fwd = _affinity_from_rep_map(conj, algebra, "automorphism")
    rev = _affinity_from_rep_map(inv, algebra, "automorphism-inv")
    return fwd, rev


def _random_quaternion_unitary(g: np.ndarray) -> np.ndarray:
    """Columnwise Gram-Schmidt of quaternionic matrices ``g`` of shape
    ``(..., 4, n, n)``, any leading axes a batch.  Fed standard normal
    draws, it returns random quaternionic unitaries."""
    g = np.array(g, dtype=float)
    for j in range(g.shape[-1]):
        for i in range(j):
            u = g[..., i:i + 1]
            v = g[..., j:j + 1]
            overlap = alg._quaternion_matmul(_quaternion_conj_transpose(u), v)
            g[..., j:j + 1] = v - alg._quaternion_matmul(u, overlap)
        nrm = np.sqrt(np.sum(g[..., j] ** 2, axis=(-2, -1)))
        g[..., j] /= nrm[..., None, None]
    return g


def _depolarize(algebra: Algebra, t: float) -> Affinity:
    u = unit(algebra)
    fixed = u / trace(u)
    m = (1.0 - t) * np.eye(algebra.dim) + t * np.outer(
        fixed.coeffs, trace_vector(algebra)
    )
    return Affinity(m, algebra, algebra, name=f"depolarize-{t}")


def _dephase(algebra: Algebra) -> Affinity | None:
    s = algebra.summands[0]
    if s.kind not in ("real", "complex", "quaternion"):
        return None
    keep = np.zeros(algebra.dim)
    keep[:s.size] = 1.0
    return Affinity(np.diag(keep), algebra, algebra, name="dephase")


def _split_merge(algebra: Algebra) -> tuple[Affinity, Affinity] | None:
    """Measure-and-prepare pair: split coordinate 1 over coordinates
    {1, 2}, and merge everything above coordinate 0 back into 1.

    The merge recovers the split exactly on states diagonal with support
    in {0, 1}, giving a sufficient-channel pair that moves spectra around.
    """
    s = algebra.summands[0]
    n = s.size
    if s.kind not in ("real", "complex", "quaternion", "classical") or n < 3:
        return None

    def basis_diag(j):
        probs = np.zeros(n)
        probs[j] = 1.0
        return _diag_state(algebra, probs).element.coeffs

    e0 = basis_diag(0)
    e1 = basis_diag(1)
    omega = 0.5 * (basis_diag(1) + basis_diag(2))

    # Diagonal coefficients come first in the basis, so row k of the map
    # reads off the k-th diagonal entry.
    rows = [_diag_state_row(algebra, k) for k in range(n)]
    split = np.outer(e0, rows[0])
    for k in range(1, n):
        split += np.outer(omega, rows[k])
    merge = np.outer(e0, rows[0]) + np.outer(e1, sum(rows[1:]))
    return (
        Affinity(split, algebra, algebra, name="split"),
        Affinity(merge, algebra, algebra, name="merge"),
    )


def _diag_state_row(algebra: Algebra, k: int) -> np.ndarray:
    row = np.zeros(algebra.dim)
    row[k] = 1.0
    return row


def _classical_section(algebra: Algebra) -> tuple[Affinity, Affinity] | None:
    """Embed the diagonal classical system, with diagonal extraction as
    the retraction."""
    s = algebra.summands[0]
    if s.kind == "classical":
        return None
    r = s.rank
    source = classical(r)
    if s.kind == "spin":
        top = np.concatenate(([0.5], np.eye(s.size)[0] * 0.5))
        bottom = np.concatenate(([0.5], -np.eye(s.size)[0] * 0.5))
        cols = [
            alg._spin_to_coeffs(top, s.size),
            alg._spin_to_coeffs(bottom, s.size),
        ]
        section = np.array(cols).T
    else:
        section = np.zeros((algebra.dim, r))
        for j in range(r):
            section[j, j] = 1.0
    retraction = section.T.copy()
    return (
        Affinity(section, source, algebra, name="classical-section"),
        Affinity(retraction, algebra, source, name="classical-retraction"),
    )


def _classical_pair_sampler(r):
    src = classical(r)

    def sampler(rng):
        a = rng.dirichlet(np.ones(r)) * 0.98 + 0.01 / r
        b = rng.dirichlet(np.ones(r)) * 0.98 + 0.01 / r
        return (
            State.make(element_from_reps(src, [a / a.sum()])),
            State.make(element_from_reps(src, [b / b.sum()])),
        )

    return sampler


def channel_catalog(algebra: Algebra, seed: int = 0) -> list[CatalogChannel]:
    """Named affinities on a simple algebra, with recovery maps where the
    construction provides one."""
    if len(algebra.summands) != 1:
        raise UnsupportedAlgebraError("the catalog covers simple algebras")
    rng = _as_rng(seed)
    ident = identity_affinity(algebra)
    entries = [CatalogChannel("identity", ident, recovery=ident)]

    for k in range(2):
        fwd, rev = _automorphism(algebra, rng)
        entries.append(
            CatalogChannel(f"automorphism-{k}", fwd, recovery=rev)
        )

    for t in (0.3, 0.7):
        entries.append(CatalogChannel(f"depolarize-{t}", _depolarize(algebra, t)))

    deph = _dephase(algebra)
    if deph is not None:
        n = algebra.summands[0].size
        entries.append(
            CatalogChannel(
                "dephase", deph, recovery=deph,
                pair_sampler=_diag_pair_sampler(algebra, range(n)),
            )
        )

    pair = _split_merge(algebra)
    if pair is not None:
        split, merge = pair
        entries.append(
            CatalogChannel(
                "split", split, recovery=merge,
                pair_sampler=_diag_pair_sampler(algebra, (0, 1)),
            )
        )
        entries.append(
            CatalogChannel(
                "merge", merge,
                stress_sampler=_merge_stress_sampler(algebra),
            )
        )

    section = _classical_section(algebra)
    if section is not None:
        s_map, r_map = section
        entries.append(
            CatalogChannel(
                "classical-section", s_map, recovery=r_map,
                pair_sampler=_classical_pair_sampler(algebra.summands[0].rank),
            )
        )
    return entries


# ---------------------------------------------------------------------------
# real-embedding dimension audit
# ---------------------------------------------------------------------------


def real_embedding_dimension_audit(
    n_samples: int = 80, seed: int = 0
) -> dict:
    """Affine dimensions of the 4x4 real state space and of its slice
    spanned by tensor products of 2x2 real states.

    The ambient trace-one body has affine dimension 9 while the product
    slice only spans 8 directions, so local tomography cannot resolve
    the ambient space.  Dimensions are numeric ranks of sampled
    difference sets with threshold ``1e-8 * s_max``.
    """
    rng = _as_rng(seed)
    ambient = real_hermitian(4)
    layout = composite_layout(REAL_INTO_LARGER, (2, 2))

    def rank_of(rows):
        stack = np.array(rows)
        svals = np.linalg.svd(stack, compute_uv=False)
        return int(np.sum(svals > 1e-8 * svals[0]))

    base = random_state(ambient, seed=rng).element.coeffs
    ambient_rows = [
        random_state(ambient, seed=rng).element.coeffs - base
        for _ in range(n_samples)
    ]

    def product():
        a = random_state(layout.factors[0], seed=rng)
        b = random_state(layout.factors[1], seed=rng)
        return tensor(a, b, layout).element.coeffs

    prod_base = product()
    product_rows = [product() - prod_base for _ in range(n_samples)]
    return {
        "ambient_state_dim": rank_of(ambient_rows),
        "product_slice_dim": rank_of(product_rows),
    }


# ---------------------------------------------------------------------------
# channels on composite factors
# ---------------------------------------------------------------------------


def _complexified_tensor(phi: Affinity) -> np.ndarray:
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
                element_from_reps(algebra, [h1])
            ).reps()[0]
            out2 = phi.apply_element(
                element_from_reps(algebra, [h2])
            ).reps()[0]
            t[:, :, i, j] = out1 + 1j * out2
    return t


def extend_to_factor(
    phi: Affinity, layout: CompositeLayout, index: int
) -> Affinity:
    """Lift a channel on one factor to the composite (identity elsewhere)."""
    if layout.embedding == REAL_INTO_LARGER:
        raise UnsupportedAlgebraError(
            "factor channels are not defined for the real embedding"
        )
    if phi.source != layout.factors[index] or phi.target != phi.source:
        raise AlgebraMismatchError(
            "channel must act on the selected factor algebra"
        )
    sizes = layout.sizes
    k = len(sizes)
    ambient = layout.ambient
    name = f"id*{phi.name}@{index}"

    # each push maps a stack of reps; axis 0 is the stack
    if layout.embedding == CLASSICAL_TENSOR:
        def push(reps):
            arr = reps.reshape((-1,) + sizes)
            moved = np.moveaxis(arr, 1 + index, -1)
            out = moved @ phi.matrix.T
            out = np.moveaxis(out, -1, 1 + index)
            return out.reshape(reps.shape)

        return _affinity_from_rep_map(push, ambient, name)

    t = _complexified_tensor(phi)
    m = sizes[index]
    rest = int(np.prod(sizes)) // m
    others = tuple(np.delete(sizes, index))

    def push(reps):
        arr = reps.reshape((-1,) + sizes + sizes)
        arr = np.moveaxis(arr, (1 + index, 1 + k + index), (k, 2 * k))
        arr = arr.reshape(-1, rest, m, rest, m)
        out = np.einsum("pqij,xaibj->xapbq", t, arr)
        out = out.reshape((-1,) + others + (m,) + others + (m,))
        out = np.moveaxis(out, (k, 2 * k), (1 + index, 1 + k + index))
        return out.reshape(reps.shape)

    return _affinity_from_rep_map(push, ambient, name)
