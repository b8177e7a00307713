"""States, measurements, affinities and composite systems.

A state is a positive element of trace one.  A measurement is a family
of labelled effects summing to the unit, held as stacks of effect reps,
which act on states through the trace inner product, and affinities are
positive trace-preserving linear maps between coefficient spaces.
Composite systems come in three layouts: tensors of classical factors,
tensors of complex factors, and the single real-into-larger embedding of
two 2x2 real factors inside 4x4 real symmetric matrices (where partial
traces are deliberately unsupported, since local measurements cannot
resolve the ambient space).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

from . import algebras as alg
from .algebras import (
    Algebra,
    AlgebraMismatchError,
    JordanElement,
    SimpleFactor,
    SpectralDecomposition,
    classical,
    complex_hermitian,
    element_from_reps,
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
    "UnsupportedAlgebraError",
    "channel_catalog",
    "extend_to_factor",
    "identity_affinity",
    "marginal",
    "maximally_mixed",
    "measure",
    "random_channel",
    "random_state",
    "real_embedding_dimension_audit",
    "spectral_measurement",
    "tensor",
    "tensor_elements",
    "tensor_state",
    "trace_vector",
]

# eigenvalues of a candidate state in [-CLIP_TOL, 0) are solver noise,
# clipped to zero
CLIP_TOL = 1e-10
# eigenvalues and probabilities at or below this count as exact zeros
# for support and entropy purposes, in every module
SUPPORT_CUTOFF = 1e-12
# eigenvalues down to -SUPPORT_TOL stay in the entropy domain and the
# cone; mass up to SUPPORT_TOL outside a reference's support counts as none
SUPPORT_TOL = 1e-9
# state traces, measurement unit sums and probability vectors may miss
# one by this much
NORMALIZATION_TOL = 1e-8


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

    @cached_property
    def _axes(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The factor-axis map: the shape an ambient rep reshapes to, and
        the axes of each factor in it.  A classical factor has one axis;
        a matrix factor has a row axis among the first ``k`` axes and a
        column axis among the last ``k``.  A rep of some of the factors
        has their axes in increasing order (see :meth:`_axes_of`)."""
        k = len(self.factors)
        per_factor = 1 if self.embedding == CLASSICAL_TENSOR else 2
        return (self.sizes * per_factor,
                tuple(tuple(range(i, per_factor * k, k)) for i in range(k)))

    def _axes_of(self, indices: Sequence[int]) -> list[int]:
        """The axes of the factors ``indices``, in the order a rep of
        just those factors has them."""
        return sorted(a for i in indices for a in self._axes[1][i])

    def _marginal_of(
        self, indices: Sequence[int]
    ) -> "tuple[Algebra, CompositeLayout | None]":
        """The algebra and the layout of the marginal on the factors
        ``indices``: the ambient of :meth:`keep` and its layout, or the
        one factor's own algebra and no layout."""
        kept = self.keep(indices)
        if kept is None:
            return self.factors[indices[0]], None
        return kept.ambient, kept

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
    ) -> "State":
        """Validate positivity and trace, clipping eigenvalue jitter.

        Eigenvalues in ``[-CLIP_TOL, 0)`` are treated as solver noise and
        clipped to zero; anything more negative is rejected.  The element
        is checked on its representations, which the eigensolve reads
        anyway, and its trace is the sum of its fine eigenvalues.
        """
        # a non-finite coefficient gives a non-finite rep entry (an
        # infinite imaginary part becomes NaN on the way)
        with np.errstate(invalid="ignore"):
            reps = element.reps()
        if not all(np.isfinite(x).all() for x in reps):
            raise StateValidationError("state coefficients must be finite")
        dec = spectral_decompose(element)
        if _check_spectra(dec.values):
            values = np.maximum(dec.values, 0.0)
            element = dec.function(values)
            element._spectral = SpectralDecomposition(dec.algebra, values,
                                                      dec.frame)
        return cls(element, layout)

    def spectrum(self) -> np.ndarray:
        """One eigenvalue per primitive idempotent, descending."""
        return spectral_decompose(self.element).fine_spectrum()


def _check_spectra(values: np.ndarray):
    """Check the fine spectra ``values`` (last axis; leading axes a stack)
    of candidate states as :meth:`State.make` checks one: the trace, the
    sum of the spectrum, must be one and no eigenvalue may lie below
    ``-CLIP_TOL``.  The first failing spectrum, in row-major order,
    raises.  Returns where a spectrum has jitter in ``[-CLIP_TOL, 0)``,
    which the caller clips to zero."""
    tr = values.sum(axis=-1)
    lo = values.min(axis=-1)
    if (~(abs(tr - 1.0) <= NORMALIZATION_TOL) | (lo < -CLIP_TOL)).any():
        for t, m in zip(np.ravel(tr), np.ravel(lo)):
            if not abs(t - 1.0) <= NORMALIZATION_TOL:
                raise StateValidationError(f"trace {float(t)!r} is not 1")
            if m < -CLIP_TOL:
                raise StateValidationError(
                    f"minimum eigenvalue {float(m)!r} below -{CLIP_TOL}"
                )
    return lo < 0.0


def _checked_state_stack(s: SimpleFactor, reps: np.ndarray):
    """States from a stack of reps of the simple summand ``s``, checked
    as :meth:`State.make` checks ``element_from_reps`` of each: their
    symmetric parts, which must be finite, with the spectra of one
    stacked decomposition checked by :func:`_check_spectra`.  Returns the
    reps, their fine eigenvalues and their frames as
    :func:`~statecone.algebras._spectral_frames` returns them
    (eigenvectors on the matrix kinds, idempotent stacks on the others),
    with eigenvalue jitter clipped and the clipped reps rebuilt from
    their spectra, as the states' elements and decompositions would hold
    them.  :func:`~statecone.algebras._frame_idempotents` of a frame
    gives the idempotent stack the state's decomposition holds; only the
    clipped rows are projected here."""
    reps = alg._SYMMETRIC_PART[s.kind](reps)
    if not np.isfinite(reps).all():
        raise StateValidationError("state coefficients must be finite")
    values, frames = alg._spectral_frames(s.kind, reps, s.size)
    clipped = _check_spectra(values)
    if clipped.any():
        values = np.maximum(values, 0.0)
        nd = alg._REP_NDIM[s.kind]
        picked = alg._frame_idempotents(s.kind, frames[clipped])
        flat = picked.reshape(picked.shape[:-nd] + (-1,))
        rebuilt = (values[clipped][..., None, :] @ flat)[..., 0, :]
        reps[clipped] = rebuilt.reshape(reps[clipped].shape)
    return reps, values, frames


def maximally_mixed(
    algebra: Algebra, layout: CompositeLayout | None = None
) -> State:
    u = unit(algebra)
    return State(u / trace(u), layout)


def trace_vector(algebra: Algebra) -> np.ndarray:
    """Read-only vector t with tr(x) = t . coeffs(x)."""
    return algebra.trace_vector


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Measurement:
    """Labelled effects that sum to the unit.

    ``frame`` holds one read-only stack of effect reps per summand, in
    the layout of :meth:`JordanElement.reps`, shaped ``(len(labels),)``
    plus the rep shape: outcome ``k`` is the element whose reps are
    ``frame[s][k]``.
    """

    algebra: Algebra
    labels: tuple
    frame: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("a measurement needs at least one outcome")
        shapes = [(len(self.labels),) + alg._rep_shape(s.kind, s.size)
                  for s in self.algebra.summands]
        if [stack.shape for stack in self.frame] != shapes:
            raise ValueError(
                f"effect stacks of shapes {[x.shape for x in self.frame]} "
                f"do not hold {len(self.labels)} effects on {self.algebra}"
            )
        squared = 0.0
        for s, stack in zip(self.algebra.summands, self.frame):
            stack.flags.writeable = False
            diff = stack.sum(axis=0) - alg._unit_rep(s.kind, s.size)
            squared += alg._pairings(s.kind, diff[None], diff)[0]
        gap = np.sqrt(squared)
        if gap > NORMALIZATION_TOL:
            raise ValueError(f"effects sum to unit only within {gap:.3e}")

    def effect(self, k: int) -> JordanElement:
        """The effect of outcome ``k``."""
        return element_from_reps(self.algebra,
                                 [stack[k] for stack in self.frame])


def measure(m: Measurement, sigma: State) -> np.ndarray:
    """Outcome probabilities of a measurement on a state."""
    if m.algebra != sigma.algebra:
        raise AlgebraMismatchError(
            f"measurement on {m.algebra}, state on {sigma.algebra}"
        )
    probs = sum(
        alg._pairings(s.kind, stack, rep)
        for s, stack, rep in zip(m.algebra.summands, m.frame,
                                 sigma.element.reps())
    )
    if (np.any(probs < -NORMALIZATION_TOL)
            or abs(probs.sum() - 1.0) > NORMALIZATION_TOL):
        raise ValueError(
            f"invalid outcome distribution {probs} (sum {probs.sum()!r})"
        )
    return np.clip(probs, 0.0, None)


def _effect_stacks(frame: Sequence[np.ndarray], rows) -> list[np.ndarray]:
    """The primitive idempotents ``rows`` of a Jordan frame, indices into
    all of its summands' stacks in turn, as one stack per summand: each
    idempotent is zero on the summands it is not in."""
    rows = np.asarray(rows, dtype=int)
    out, start = [], 0
    for stack in frame:
        block = np.zeros((len(rows),) + stack.shape[1:], dtype=stack.dtype)
        mine = (rows >= start) & (rows < start + len(stack))
        block[mine] = stack[rows[mine] - start]
        out.append(block)
        start += len(stack)
    return out


def spectral_measurement(sigma: State) -> Measurement:
    """Measurement whose effects are the primitive idempotents of the
    state's Jordan frame, by descending eigenvalue."""
    dec = spectral_decompose(sigma.element)
    order, _ = dec.groups
    return Measurement(sigma.algebra, tuple(range(len(order))),
                       tuple(_effect_stacks(dec.frame, order)))


# ---------------------------------------------------------------------------
# tensors and marginals
# ---------------------------------------------------------------------------


def _kron_stacks(layout: CompositeLayout,
                 stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker products of one rep from each factor's stack, for every
    choice, the first factor's stack index slowest.  Each stack is
    broadcast onto a stack axis of its own and its factor's axes of the
    factor-axis map, so one product of the broadcasts makes them all."""
    shape, axes = layout._axes
    out = 1
    for f, (stack, own) in enumerate(zip(stacks, axes)):
        dims = [1] * len(stacks) + [n if a in own else 1
                                    for a, n in enumerate(shape)]
        dims[f] = len(stack)
        out = out * stack.reshape(dims)
    d = int(np.prod(layout.sizes))
    return out.reshape((-1,) + (d,) * len(axes[0]))


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
    stacks = [el.reps()[0][np.newaxis] for el in elements]
    return element_from_reps(layout.ambient, [_kron_stacks(layout, stacks)[0]])


def _product_spectrum(
    factors: Sequence[JordanElement], layout: CompositeLayout
) -> SpectralDecomposition:
    """The product spectral decomposition from factor spectra: products of
    factor eigenvalues with Kronecker products of the factors' idempotent
    matrices as the frame."""
    decs = [spectral_decompose(f) for f in factors]
    values = reduce(np.multiply.outer, [d.values for d in decs], np.ones(1))
    return SpectralDecomposition(
        layout.ambient, values.ravel(),
        [_kron_stacks(layout, [d.frame[0] for d in decs])],
    )


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
    _require_partial_traces(layout)
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= len(layout.factors) for k in keep):
        raise ValueError(f"invalid keep set {keep}")
    algebra, kept = layout._marginal_of(keep)
    flat = _partial_traces(layout, sigma.element.reps()[0], keep)
    return State.make(element_from_reps(algebra, [flat]), kept)


def _require_partial_traces(layout: CompositeLayout) -> None:
    if layout.embedding == REAL_INTO_LARGER:
        raise UnsupportedAlgebraError(
            "partial traces are not defined for the real-into-larger layout"
        )


def _partial_traces(layout: CompositeLayout, reps: np.ndarray,
                    keep: Sequence[int]) -> np.ndarray:
    """The partial traces of ambient reps onto the sorted factor indices
    ``keep``, as reps of their algebra (see
    :meth:`CompositeLayout._marginal_of`).  Leading axes of
    ``reps`` are a batch, and each entry gets the bits it would get
    alone."""
    shape, axes = layout._axes
    nd = len(axes[0])
    lead = reps.shape[:reps.ndim - nd]
    # a dropped factor's axes share one subscript, so a classical axis is
    # summed and a (row, column) pair is traced; the batch axes take the
    # subscripts after the factor axes
    subs = list(range(len(shape)))
    for i, own in enumerate(axes):
        if i not in keep:
            for a in own:
                subs[a] = own[0]
    batch = list(range(len(shape), len(shape) + len(lead)))
    reduced = np.einsum(reps.reshape(lead + shape), batch + subs,
                        batch + layout._axes_of(keep))
    d = math.prod(reduced.shape[len(lead):len(lead) + len(keep)])
    return reduced.reshape(lead + (d,) * nd)


# ---------------------------------------------------------------------------
# affinities
# ---------------------------------------------------------------------------


class Affinity:
    """Linear map between coefficient spaces of two algebras.

    Instances are immutable.  An affinity keeps the view it was built
    from: a coefficient matrix from :class:`Affinity`, or a map of stacks
    of reps of a simple algebra from :func:`_affinity_from_rep_map`.  A
    rep map acts on an element's reps and builds the image from reps, so
    applying it converts no basis; its coefficient matrix is derived on
    the first read of :attr:`matrix`, by one batched push of the basis,
    and kept.  As for elements, the fill is a deterministic function of
    the stored map, so racing fills land the same bits.
    """

    __slots__ = ("source", "target", "name", "_matrix", "_rep_map")

    def __init__(self, matrix: np.ndarray, source: Algebra, target: Algebra,
                 name: str = ""):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (target.dim, source.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not map {source} to {target}"
            )
        self._set(source, target, name, m, None)

    def _set(self, *values):
        # one value per slot, in the order of __slots__
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError("Affinity is immutable")

    def __reduce__(self):
        # a rep map may be a closure, so pickling and copying go through
        # the matrix; the copy applies it as a matrix
        return Affinity, (self.matrix, self.source, self.target, self.name)

    def __repr__(self):
        return f"Affinity({self.name!r}, {self.source} -> {self.target})"

    @property
    def matrix(self) -> np.ndarray:
        """The coefficient matrix, derived once from a rep map."""
        if self._matrix is None:
            s = self.source.summands[0]
            basis = alg._COERCE_TO_REP[s.kind](np.eye(self.source.dim),
                                               s.size)
            images = alg._COERCE_TO_COEFFS[s.kind](self._rep_map(basis),
                                                   s.size)
            object.__setattr__(self, "_matrix", images.T)
        return self._matrix

    def apply_element(self, el: JordanElement) -> JordanElement:
        if el.algebra != self.source:
            raise AlgebraMismatchError(
                f"affinity expects {self.source}, got {el.algebra}"
            )
        if self._rep_map is None:
            return JordanElement(self.target, self._matrix @ el.coeffs)
        return element_from_reps(self.target,
                                 [self._rep_map(el.reps()[0][None])[0]])

    def __call__(self, x):
        if isinstance(x, State):
            return State.make(self.apply_element(x.element), None)
        return self.apply_element(x)


def identity_affinity(algebra: Algebra) -> Affinity:
    return Affinity(np.eye(algebra.dim), algebra, algebra, name="identity")


def _affinity_from_rep_map(
    fn: Callable[[np.ndarray], np.ndarray], algebra: Algebra, name: str
) -> Affinity:
    """Affinity of a linear map on a simple algebra, given as a map of
    stacks of reps (a leading axis indexes the stack).  On a complex
    algebra the map must be complex-linear: a factor lift pushes
    non-Hermitian matrix units through it."""
    phi = object.__new__(Affinity)
    phi._set(algebra, algebra, name, None, fn)
    return phi


def _push_rows(s: SimpleFactor, pushes, reps: np.ndarray, coeffs=None):
    """The images of rows of the stack ``reps`` on the simple summand
    ``s``, each the bits :meth:`Affinity.apply_element` gives it alone:
    ``pushes`` pairs each affinity with the rows it maps.  Rep maps push
    reps.  Matrices push the rows of ``coeffs``, the coefficients the
    reps were built from, or else of one conversion of all their rows,
    and their images convert back in one call.  Returns the image reps
    and coefficients; rows no affinity maps are left unset."""
    nd = alg._REP_NDIM[s.kind]
    rows = [i for phi, own in pushes if phi._rep_map is None for i in own]
    if coeffs is None:
        coeffs = np.empty(reps.shape[:-nd] + (s.dim,))
        if rows:
            coeffs[rows] = alg._COERCE_TO_COEFFS[s.kind](reps[rows], s.size)
    images, out = np.empty_like(reps), np.empty_like(coeffs)
    for phi, own in pushes:
        if phi._rep_map is None:
            out[own] = (phi._matrix @ coeffs[own][..., None])[..., 0]
        else:
            pushed = phi._rep_map(reps[own].reshape((-1,) + reps.shape[-nd:]))
            images[own] = alg._SYMMETRIC_PART[s.kind](pushed).reshape(
                images[own].shape)
    if rows:
        images[rows] = alg._COERCE_TO_REP[s.kind](out[rows], s.size)
    return images, out


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# the real component matrices of each entry of the Gaussian behind a
# random state or frame on a matrix kind
_GAUSSIAN_PARTS = {"real": (), "complex": (2,), "quaternion": (4,)}


def _as_complex(parts: np.ndarray) -> np.ndarray:
    """The complex matrices with real parts ``parts[..., 0, :, :]`` and
    imaginary parts ``parts[..., 1, :, :]``."""
    return parts[..., 0, :, :] + 1j * parts[..., 1, :, :]


def _draw_summand(s: SimpleFactor, rank_cap, rng, batch: tuple = ()):
    """The draws behind ``batch`` random states on ``s``, one after
    another: on matrix kinds the Gaussians of :func:`_build_summand`,
    shaped ``batch + parts + (n, rank)`` and read in one call; on spin
    and classical factors the reps themselves."""
    n = s.size
    r = s.rank if rank_cap is None else max(1, min(rank_cap, s.rank))
    if s.kind in _GAUSSIAN_PARTS:
        return rng.normal(size=batch + _GAUSSIAN_PARTS[s.kind] + (n, r))
    if batch:
        reps = [_draw_summand(s, rank_cap, rng)
                for _ in range(math.prod(batch))]
        return np.reshape(reps, batch + alg._rep_shape(s.kind, n))
    if s.kind == "classical":
        weights = rng.dirichlet(np.ones(r))
        rep = np.zeros(n)
        support = rng.choice(n, size=r, replace=False) if r < n else np.arange(n)
        rep[support] = weights
        return rep
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    radius = 0.5 if r == 1 else 0.5 * rng.uniform() ** (1.0 / n)
    return np.concatenate(([0.5], radius * v))


def _build_summand(s: SimpleFactor, draws: np.ndarray) -> np.ndarray:
    """The reps of the states :func:`_draw_summand` drew on ``s``, any
    leading axes a batch, each the bits it gets alone: ``g g* / tr(g g*)``
    of each Gaussian ``g``, as a complex or embedded quaternionic matrix
    on those kinds."""
    if s.kind not in _GAUSSIAN_PARTS:
        return draws
    g = (_as_complex(draws) if s.kind == "complex"
         else alg._quaternion_embedding(draws) if s.kind == "quaternion"
         else draws)
    gt = np.swapaxes(g, -1, -2)
    # a real g times its own transpose is the symmetric product
    m = g @ (gt if s.kind == "real" else np.conj(gt))
    # a quaternionic embedding carries every eigenvalue twice
    tr = np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    return m / tr * (m.shape[-1] // s.size)


def random_state(
    algebra: Algebra,
    rank_cap: int | None = None,
    seed=None,
    layout: CompositeLayout | None = None,
) -> State:
    """Seeded random state; Hilbert-Schmidt style GG* sampling on matrix
    factors, uniform ball sampling on spin factors."""
    rng = _as_rng(seed)
    draws = [_draw_summand(s, rank_cap, rng) for s in algebra.summands]
    reps = [_build_summand(s, d) for s, d in zip(algebra.summands, draws)]
    if len(reps) > 1:
        weights = rng.dirichlet(np.ones(len(reps)))
        reps = [w * rep for w, rep in zip(weights, reps)]
    return State.make(element_from_reps(algebra, reps), layout)


# the name of the random channel on each kind that has one
_RANDOM_CHANNEL_NAMES = {"classical": "random-stochastic",
                        "complex": "stinespring"}


def _random_channel_factor(algebra: Algebra) -> SimpleFactor:
    """The summand of an algebra that carries random channels."""
    if len(algebra.summands) != 1:
        raise UnsupportedAlgebraError("random channels need a simple algebra")
    s = algebra.summands[0]
    if s.kind not in _RANDOM_CHANNEL_NAMES:
        raise UnsupportedAlgebraError(
            f"random channels are defined for complex and classical "
            f"algebras, not {s.kind}"
        )
    return s


def _draw_channel(s: SimpleFactor, env: int | None, rng, states: int = 0):
    """The draws behind one random channel on ``s`` and then ``states``
    full-rank random states, stacked as :func:`_draw_summand` stacks
    them.  A channel's draw is a column-stochastic matrix on a classical
    factor; on a complex one it is the real and imaginary parts, shape
    ``(2, n * env, n)``, of the Gaussian whose orthonormalized columns
    are the Stinespring isometry (``env`` defaults to ``n``), read with
    the states' Gaussians in one call."""
    n = s.size
    if s.kind == "classical":
        channel = np.stack([rng.dirichlet(np.ones(n)) for _ in range(n)],
                           axis=1)
        return channel, _draw_summand(s, None, rng, (states,))
    env = n if env is None else int(env)
    if env < 1:
        raise ValueError("environment dimension must be at least 1")
    # the channel's 2 n env n numbers fill 2 env matrices of n x n
    g = rng.normal(size=(2 * env + 2 * states, n, n))
    return (g[:2 * env].reshape(2, n * env, n),
            g[2 * env:].reshape(states, 2, n, n))


def _stinespring_push(v: np.ndarray, m: np.ndarray, env: int) -> np.ndarray:
    """Push the reps ``m`` through the isometries ``v`` into system x
    environment and trace the environment out; leading axes of both
    broadcast."""
    n = v.shape[-1]
    big = v @ m @ np.conj(np.swapaxes(v, -1, -2))
    return np.einsum("...aebe->...ab",
                     big.reshape(big.shape[:-2] + (n, env, n, env)))


def random_channel(algebra: Algebra, env_dim: int | None = None,
                   seed=None) -> Affinity:
    """Seeded random positive trace-preserving map.

    Complex factors get a Stinespring construction (random isometry into
    system x environment, then environment trace-out); classical factors
    get a column-stochastic matrix.  Other kinds only carry the explicit
    catalog channels, so they are rejected here.
    """
    s = _random_channel_factor(algebra)
    draw, _ = _draw_channel(s, env_dim, _as_rng(seed))
    name = _RANDOM_CHANNEL_NAMES[s.kind]
    if s.kind == "classical":
        return Affinity(draw, algebra, algebra, name=name)
    env = draw.shape[1] // s.size
    v, _ = np.linalg.qr(_as_complex(draw))
    return _affinity_from_rep_map(lambda m: _stinespring_push(v, m, env),
                                  algebra, name)


def _random_channel_images(s: SimpleFactor, draws: Sequence[np.ndarray],
                           reps: np.ndarray) -> np.ndarray:
    """The images of the stack ``reps[k]`` under the channel of
    ``draws[k]``, as :func:`random_channel` builds and applies it: one
    stacked orthonormalization and one stacked push per environment size.
    Each image gets the bits it would get alone."""
    if s.kind == "classical":
        return (np.stack(draws)[:, None] @ reps[..., None])[..., 0]
    images = np.empty_like(reps)
    envs = [g.shape[1] // s.size for g in draws]
    for env in sorted(set(envs)):
        group = [k for k, e in enumerate(envs) if e == env]
        v, _ = np.linalg.qr(_as_complex(np.stack([draws[k] for k in group])))
        pushed = _stinespring_push(v[:, None], reps[group], env)
        images[group] = alg._SYMMETRIC_PART[s.kind](pushed)
    return images


# ---------------------------------------------------------------------------
# channel catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogChannel:
    """A named affinity, optionally with a recovery map.

    ``pair_sampler(rng)`` draws the diagonals of a state pair on the
    source that the recovery map restores, and ``stress_sampler(rng)``
    those of a pair that exercises the channel in monotonicity searches;
    :func:`_diag_reps` turns them into reps.  A
    recovery map has the form of its channel, a matrix or a rep map, so
    a stacked recovery reads the images in the form they were built in.
    """

    name: str
    affinity: Affinity
    recovery: Affinity | None = None
    pair_sampler: Callable | None = None
    stress_sampler: Callable | None = None


def _diag_reps(s: SimpleFactor, probs: np.ndarray) -> np.ndarray:
    """The reps on the simple summand ``s`` of the states with diagonals
    ``probs`` (last axis; leading axes a batch), each the bits it gets
    alone; the diagonal units come first in the basis of every matrix
    kind, and a classical rep is its diagonal."""
    coeffs = np.zeros(probs.shape[:-1] + (s.dim,))
    coeffs[..., :s.size] = probs
    return alg._COERCE_TO_REP[s.kind](coeffs, s.size)


def _diag_pair_sampler(algebra, support):
    def sampler(rng):
        n = algebra.summands[0].size
        pair = []
        for _ in range(2):
            probs = np.zeros(n)
            probs[list(support)] = rng.dirichlet(np.ones(len(support))) \
                * 0.98 + 0.01
            probs[list(support)] /= probs.sum()
            pair.append(probs)
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
        return p, q
    return sampler


def _automorphism_frames(algebra: Algebra, rng):
    """The frames of the catalog's two automorphisms of the simple
    ``algebra``: two permutations on a classical factor, else the two
    frames of one stacked draw, a rotation of the ball on a spin factor
    and the unitary on a matrix kind.  Each frame is the one its single
    draw gives, and ``rng`` ends where two single draws leave it."""
    s = algebra.summands[0]
    if s.kind == "classical":
        return [rng.permutation(s.size) for _ in range(2)]
    kind = "real" if s.kind == "spin" else s.kind
    return _random_frames(kind, _draw_basis(kind, s.size, rng, (2,)))


def _automorphism(algebra: Algebra, frame) -> tuple[Affinity, Affinity]:
    """The automorphism of the simple ``algebra`` that a frame of
    :func:`_automorphism_frames` defines, and its inverse."""
    s = algebra.summands[0]
    if s.kind == "classical":
        m = np.eye(s.size)[frame]
        fwd = Affinity(m, algebra, algebra, name="permutation")
        rev = Affinity(m.T, algebra, algebra, name="permutation-inv")
        return fwd, rev
    if s.kind == "spin":
        m = np.eye(s.size + 1)
        m[1:, 1:] = frame
        fwd = Affinity(m, algebra, algebra, name="ball-rotation")
        rev = Affinity(m.T, algebra, algebra, name="ball-rotation-inv")
        return fwd, rev
    q, qh = frame, frame.conj().T
    fwd = _affinity_from_rep_map(lambda m: q @ m @ qh, algebra, "automorphism")
    rev = _affinity_from_rep_map(lambda m: qh @ m @ q, algebra,
                                 "automorphism-inv")
    return fwd, rev


def _draw_basis(kind: str, size: int, rng, batch: tuple = ()):
    """The Gaussian draw behind one random frame of :func:`_random_frames`
    (``None`` on classical factors, whose basis is fixed): a vector on
    spin factors, a square matrix on real and complex ones, and the four
    real component matrices of a quaternionic one.

    A ``batch`` shape draws that many frames in one call, in row-major
    order; they equal as many single draws made one after another and
    leave ``rng`` where those leave it.  A complex matrix is its real
    part then its imaginary part."""
    if kind == "spin":
        return rng.normal(size=batch + (size,))
    if kind not in _GAUSSIAN_PARTS:
        return None
    g = rng.normal(size=batch + _GAUSSIAN_PARTS[kind] + (size, size))
    return _as_complex(g) if kind == "complex" else g


def _random_frames(kind: str, draws: np.ndarray) -> np.ndarray:
    """Orthonormalize draws of :func:`_draw_basis`, any leading axes a
    batch: the unit vector on spin factors, else the unitary, in the
    layout of the reps, whose columns (Kramers pairs of columns on
    quaternionic factors) are the frame.  Each frame is the one its draw
    alone gives."""
    if kind == "spin":
        # (1, d) @ (d, 1) products per row sum as the 1-D dots of one
        # vector do, so a stack normalizes as each vector on its own
        u = draws[..., None, :]
        return (u / np.sqrt(u @ np.swapaxes(u, -1, -2)))[..., 0, :]
    if kind == "quaternion":
        return alg._kramers_orthonormalize(alg._quaternion_embedding(draws))
    q, _ = np.linalg.qr(draws)
    return q


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

    # Diagonal coefficients come first in the basis, so e[k] is the k-th
    # diagonal pure state and, as a row of the map, reads off the k-th
    # diagonal entry.
    e = np.eye(algebra.dim)
    omega = 0.5 * (e[1] + e[2])
    split = np.outer(e[0], e[0])
    for k in range(1, n):
        split += np.outer(omega, e[k])
    merge = np.outer(e[0], e[0]) + np.outer(e[1], sum(e[1:n]))
    return (
        Affinity(split, algebra, algebra, name="split"),
        Affinity(merge, algebra, algebra, name="merge"),
    )


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
    def sampler(rng):
        a = rng.dirichlet(np.ones(r)) * 0.98 + 0.01 / r
        b = rng.dirichlet(np.ones(r)) * 0.98 + 0.01 / r
        return a / a.sum(), b / b.sum()

    return sampler


@lru_cache
def _fixed_entries(algebra: Algebra) -> tuple[CatalogChannel, ...]:
    """The catalog entries of the simple ``algebra`` that no seed
    changes, built once per algebra and shared by every catalog, in
    catalog order; their matrices are read-only."""
    ident = identity_affinity(algebra)
    entries = [CatalogChannel("identity", ident, recovery=ident)]

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
    for entry in entries:
        for phi in (entry.affinity, entry.recovery):
            if phi is not None:
                phi.matrix.flags.writeable = False
    return tuple(entries)


def channel_catalog(algebra: Algebra, seed: int = 0) -> list[CatalogChannel]:
    """Named affinities on a simple algebra, with recovery maps where the
    construction provides one.

    Each call returns a fresh list, in which only the two automorphisms
    are drawn from ``seed``; the other entries are shared by every
    catalog of the algebra."""
    if len(algebra.summands) != 1:
        raise UnsupportedAlgebraError("the catalog covers simple algebras")
    identity, *fixed = _fixed_entries(algebra)
    automorphisms = [
        CatalogChannel(f"automorphism-{k}", *_automorphism(algebra, frame))
        for k, frame in enumerate(
            _automorphism_frames(algebra, _as_rng(seed)))
    ]
    return [identity, *automorphisms, *fixed]


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


def _factor_kernel(phi: Affinity) -> np.ndarray:
    """A factor channel on the factor's rep axes, output axes first.

    On a classical factor this is ``phi.matrix``.  On a complex factor it
    is ``Phi(E_ij)`` for every matrix unit ``E_ij``.  A rep map is
    complex-linear, so it pushes the units in one batched call; a
    matrix-built affinity reads them as ``F(X) + i F(-iX)``, where ``F``
    (the basis maps around ``phi.matrix``) reads the Hermitian part of
    its argument.
    """
    s = phi.source.summands[0]
    if s.kind == "classical":
        return phi.matrix
    m = s.size
    units = np.eye(m * m).reshape(m * m, m, m)
    if phi._rep_map is not None:
        images = phi._rep_map(units)
    else:
        def f(x):
            coeffs = alg._COERCE_TO_COEFFS[s.kind](x, m)
            return alg._COERCE_TO_REP[s.kind](coeffs @ phi.matrix.T, m)

        images = f(units) + 1j * f(-1j * units)
    return np.moveaxis(images.reshape(m, m, m, m), (0, 1), (2, 3))


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
    shape, axes = layout._axes
    kernel = _factor_kernel(phi)
    # the factor's axes are contracted with the kernel's input axes and
    # replaced by its output axes; the leading axis is the stack of reps
    mine = list(axes[index])
    fresh = [len(shape) + t for t in range(len(mine))]
    subs = list(range(len(shape)))
    out = [fresh[mine.index(a)] if a in mine else a for a in subs]

    def push(reps):
        arr = reps.reshape((-1,) + shape)
        moved = np.einsum(kernel, fresh + mine, arr, [..., *subs], [..., *out])
        return moved.reshape(reps.shape)

    return _affinity_from_rep_map(push, layout.ambient,
                                  f"id*{phi.name}@{index}")
