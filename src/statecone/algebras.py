"""Finite-dimensional Euclidean Jordan algebras and their spectral calculus.

An algebra is a direct sum of simple factors of five kinds:

===========  =========================================  ==========  ====
kind         concrete picture                           dimension   rank
===========  =========================================  ==========  ====
real         real symmetric n x n matrices              n(n+1)/2    n
complex      complex Hermitian n x n matrices           n^2         n
quaternion   quaternionic Hermitian n x n matrices      n(2n-1)     n
spin         pairs (t, v) with v in R^d                 d + 1       2
classical    R^n with the pointwise product             n           n
===========  =========================================  ==========  ====

Elements have real coefficient vectors in a fixed basis that is
orthonormal for the trace inner product ``<a, b> = tr(a o b)``, so the
coefficient map is an isometry.  The basis layout per factor is:

* matrix kinds: the ``n`` diagonal matrix units first, then for each pair
  ``i < j`` (row-major) the symmetrized off-diagonal units scaled by
  ``1/sqrt(2)`` -- for ``complex`` the real part followed by the imaginary
  part, for ``quaternion`` the real part followed by the i, j, k parts;
* spin: ``unit/sqrt(2)`` first, then the ``d`` ball axes scaled by
  ``1/sqrt(2)``;
* classical: the canonical coordinates.

The concrete representation (``reps``) of a matrix factor is its matrix.
A quaternionic ``n x n`` matrix is represented by its ``2n x 2n`` complex
embedding, each entry a 2x2 complex block, so products, functions and
eigensolves of quaternionic factors run on the complex code path.  An
element keeps whichever of the two views it was built from and converts
to the other only when something reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "Algebra",
    "AlgebraMismatchError",
    "DomainError",
    "JordanElement",
    "SimpleFactor",
    "SpectralDecomposition",
    "basis_element",
    "classical",
    "complex_hermitian",
    "direct_sum",
    "inner_product",
    "jordan_product",
    "norm",
    "quaternion_hermitian",
    "real_hermitian",
    "spectral_decompose",
    "spin_factor",
    "trace",
    "unit",
    "zero",
]

DEFAULT_GROUP_TOL = 1e-8

_KINDS = ("real", "complex", "quaternion", "spin", "classical")
# the letter that names each kind in ``str`` and in algebra specs
_KIND_LETTERS = dict(zip(_KINDS, "RCHSP"))


class AlgebraMismatchError(ValueError):
    """Operands live in different algebras."""


class DomainError(ValueError):
    """A scalar function was applied outside its domain."""

    def __init__(self, message: str, value: float | None = None):
        super().__init__(message)
        self.value = value


@dataclass(frozen=True)
class SimpleFactor:
    """One simple summand of an algebra."""

    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        minimum = 2 if self.kind == "spin" else 1
        if self.size < minimum:
            raise ValueError(f"{self.kind} factor needs size >= {minimum}")

    @property
    def dim(self) -> int:
        n = self.size
        return {
            "real": n * (n + 1) // 2,
            "complex": n * n,
            "quaternion": n * (2 * n - 1),
            "spin": n + 1,
            "classical": n,
        }[self.kind]

    @property
    def rank(self) -> int:
        return 2 if self.kind == "spin" else self.size

    def __str__(self):
        return f"{_KIND_LETTERS[self.kind]}{self.size}"


@dataclass(frozen=True)
class Algebra:
    """A direct sum of simple factors."""

    summands: tuple[SimpleFactor, ...]

    def __post_init__(self):
        if not self.summands:
            raise ValueError("an algebra needs at least one summand")

    @cached_property
    def dim(self) -> int:
        return sum(s.dim for s in self.summands)

    @property
    def rank(self) -> int:
        return sum(s.rank for s in self.summands)

    @cached_property
    def _slices(self) -> tuple[slice, ...]:
        out, start = [], 0
        for s in self.summands:
            out.append(slice(start, start + s.dim))
            start += s.dim
        return tuple(out)

    def slices(self) -> list[slice]:
        """Coefficient slice of each summand."""
        return list(self._slices)

    @cached_property
    def trace_vector(self) -> np.ndarray:
        """Read-only vector t with ``tr(x) = t . coeffs(x)``.

        The basis is orthonormal for ``<a, b> = tr(a o b)``, so
        ``tr(x) = <unit, x>`` and t holds the coefficients of the unit.
        """
        t = np.concatenate([
            _COERCE_TO_COEFFS[s.kind](_unit_rep(s.kind, s.size), s.size)
            for s in self.summands
        ])
        t.flags.writeable = False
        return t

    def __reduce__(self):
        # rebuild from the summands, so the cached read-only trace vector
        # is computed afresh rather than restored writeable
        return Algebra, (self.summands,)

    def __str__(self):
        return "+".join(str(s) for s in self.summands)


# Algebras are immutable, so each factory hands out one shared instance per
# size, whose dimension, slices and trace vector are computed once.


@lru_cache(maxsize=None)
def real_hermitian(n: int) -> Algebra:
    return Algebra((SimpleFactor("real", n),))


@lru_cache(maxsize=None)
def complex_hermitian(n: int) -> Algebra:
    return Algebra((SimpleFactor("complex", n),))


@lru_cache(maxsize=None)
def quaternion_hermitian(n: int) -> Algebra:
    return Algebra((SimpleFactor("quaternion", n),))


@lru_cache(maxsize=None)
def spin_factor(d: int) -> Algebra:
    return Algebra((SimpleFactor("spin", d),))


@lru_cache(maxsize=None)
def classical(n: int) -> Algebra:
    return Algebra((SimpleFactor("classical", n),))


class JordanElement:
    """An algebra element, held as coefficients in the fixed basis or as
    per-summand concrete representations.

    Instances are immutable.  An element stores the view it was built
    from -- coefficients from :class:`JordanElement`, representations
    from :func:`element_from_reps` -- and fills the other on first
    access, as a read-only array converted once.  ``_spectral`` caches
    the spectral decomposition (for products and clipped states it is
    installed by exact means).  The lazy fills are safe to share between
    threads: each is a deterministic function of the stored view, which
    never changes, so two racing fills produce the same bits and either
    may land.
    """

    __slots__ = ("algebra", "_coeffs", "_reps", "_spectral")

    def __init__(self, algebra: Algebra, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (algebra.dim,):
            raise ValueError(
                f"coefficient vector of length {coeffs.shape} does not match "
                f"algebra {algebra} of dimension {algebra.dim}"
            )
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_reps", None)
        object.__setattr__(self, "_spectral", None)

    def __setattr__(self, name, value):
        if name != "_spectral":
            raise AttributeError("JordanElement is immutable")
        object.__setattr__(self, name, value)

    def __reduce__(self):
        # pickling and copying rebuild from the stored view; the other
        # view and the spectral decomposition refill on demand
        if self._coeffs is None:
            return _element_with_reps, (self.algebra, self._reps)
        return JordanElement, (self.algebra, self._coeffs)

    @property
    def coeffs(self) -> np.ndarray:
        """The read-only coefficient vector."""
        if self._coeffs is None:
            coeffs = np.empty(self.algebra.dim)
            for s, sl, rep in zip(self.algebra.summands,
                                  self.algebra.slices(), self._reps):
                coeffs[sl] = _COERCE_TO_COEFFS[s.kind](rep, s.size)
            coeffs.flags.writeable = False
            object.__setattr__(self, "_coeffs", coeffs)
        return self._coeffs

    # -- vector-space sugar ------------------------------------------------

    def _require_same(self, other: "JordanElement"):
        if self.algebra != other.algebra:
            raise AlgebraMismatchError(
                f"operands live in {self.algebra} and {other.algebra}"
            )

    def __add__(self, other):
        self._require_same(other)
        return JordanElement(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._require_same(other)
        return JordanElement(self.algebra, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return JordanElement(self.algebra, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return JordanElement(self.algebra, self.coeffs / float(scalar))

    def __neg__(self):
        return JordanElement(self.algebra, -self.coeffs)

    def __repr__(self):
        return f"JordanElement({self.algebra}, dim={self.algebra.dim})"

    # -- representations ---------------------------------------------------

    def reps(self) -> list:
        """Concrete representation of each summand (the matrix, the
        ``2n x 2n`` complex embedding of a quaternionic matrix, the spin
        pair or the classical vector), as read-only arrays converted at
        most once per element."""
        if self._reps is None:
            reps = tuple(
                _COERCE_TO_REP[s.kind](self.coeffs[sl], s.size)
                for s, sl in zip(self.algebra.summands, self.algebra.slices())
            )
            for rep in reps:
                rep.flags.writeable = False
            object.__setattr__(self, "_reps", reps)
        return list(self._reps)


def _element_with_reps(algebra: Algebra, reps: Sequence) -> JordanElement:
    """An element that stores ``reps`` as they are, marked read-only;
    the caller hands over arrays nothing else writes to."""
    el = object.__new__(JordanElement)
    for rep in reps:
        rep.flags.writeable = False
    object.__setattr__(el, "algebra", algebra)
    object.__setattr__(el, "_coeffs", None)
    object.__setattr__(el, "_reps", tuple(reps))
    object.__setattr__(el, "_spectral", None)
    return el


def element_from_reps(algebra: Algebra, reps: Sequence) -> JordanElement:
    """Assemble an element from per-summand concrete representations, in
    the layout of :meth:`JordanElement.reps`.

    The element stores a copy of each representation's symmetric part:
    a matrix contributes its Hermitian part, and a quaternionic embedding
    the part that also commutes with ``J``.  The coefficients are derived
    from it on first access.
    """
    if len(reps) != len(algebra.summands):
        raise ValueError(
            f"{len(reps)} representations for the {len(algebra.summands)} "
            f"summands of {algebra}"
        )
    parts = []
    for s, rep in zip(algebra.summands, reps):
        part = _SYMMETRIC_PART[s.kind](rep)
        if part.shape != _rep_shape(s.kind, s.size):
            raise ValueError(
                f"representation of shape {part.shape} does not match "
                f"summand {s}"
            )
        parts.append(part)
    return _element_with_reps(algebra, parts)


# ---------------------------------------------------------------------------
# basis maps per simple kind
# ---------------------------------------------------------------------------
#
# Every map takes leading batch axes: a stack of coefficient vectors of
# shape (..., dim) maps to a stack of representations and back.

_SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def _offdiag_indices(n):
    """Row and column indices of the pairs ``i < j`` in row-major order."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _real_to_rep(c, n):
    rows, cols = _offdiag_indices(n)
    diag = np.arange(n)
    m = np.zeros(c.shape[:-1] + (n, n))
    m[..., diag, diag] = c[..., :n]
    m[..., rows, cols] = m[..., cols, rows] = c[..., n:] / _SQRT2
    return m


def _real_to_coeffs(m, n):
    rows, cols = _offdiag_indices(n)
    c = np.empty(m.shape[:-2] + (n * (n + 1) // 2,))
    c[..., :n] = np.diagonal(m, axis1=-2, axis2=-1).real
    c[..., n:] = _SQRT2 * 0.5 * (m[..., rows, cols] + m[..., cols, rows]).real
    return c


def _complex_to_rep(c, n):
    rows, cols = _offdiag_indices(n)
    diag = np.arange(n)
    m = np.zeros(c.shape[:-1] + (n, n), dtype=complex)
    m[..., diag, diag] = c[..., :n]
    upper = (c[..., n::2] + 1j * c[..., n + 1::2]) / _SQRT2
    m[..., rows, cols] = upper
    m[..., cols, rows] = np.conj(upper)
    return m


def _complex_to_coeffs(m, n):
    rows, cols = _offdiag_indices(n)
    c = np.empty(m.shape[:-2] + (n * n,))
    c[..., :n] = np.diagonal(m, axis1=-2, axis2=-1).real
    upper = 0.5 * (m[..., rows, cols] + np.conj(m[..., cols, rows]))
    c[..., n::2] = _SQRT2 * upper.real
    c[..., n + 1::2] = _SQRT2 * upper.imag
    return c


def _quaternion_to_rep(c, n):
    """The ``2n x 2n`` complex embedding (see :func:`_quaternion_embedding`)."""
    rows, cols = _offdiag_indices(n)
    batch = c.shape[:-1]
    diag = np.arange(n)
    m = np.zeros(batch + (4, n, n))
    m[..., 0, diag, diag] = c[..., :n]
    parts = np.swapaxes(
        (c[..., n:] / _SQRT2).reshape(batch + (len(rows), 4)), -1, -2
    )
    m[..., rows, cols] = parts
    m[..., 0, cols, rows] = parts[..., 0, :]
    m[..., 1:, cols, rows] = -parts[..., 1:, :]
    return _quaternion_embedding(m)


def _kramers_blocks(m):
    """The blocks ``z`` and ``w`` of the part of the ``2n x 2n`` complex
    matrices ``m`` that commutes with ``J``, read off each 2x2 block (see
    :func:`_quaternion_embedding`)."""
    n = m.shape[-1] // 2
    b = m.reshape(m.shape[:-2] + (n, 2, n, 2))
    z = _halve(b[..., :, 0, :, 0] + np.conj(b[..., :, 1, :, 1]))
    w = _halve(b[..., :, 0, :, 1] - np.conj(b[..., :, 1, :, 0]))
    return z, w


def _halve(x):
    """Half the complex array ``x``, computed on its real and imaginary
    parts as floats: as a complex product an infinite entry would gain a
    NaN part.  Overwrites ``x`` when it is C-contiguous."""
    parts = np.ascontiguousarray(x).view(np.float64)
    np.multiply(parts, 0.5, out=parts)
    return parts.view(complex)


def _quaternion_to_coeffs(m, n):
    rows, cols = _offdiag_indices(n)
    batch = m.shape[:-2]
    # the four real component matrices of the part of m that commutes
    # with J
    z, w = _kramers_blocks(m)
    parts = np.stack([z.real, z.imag, w.real, w.imag], axis=-3)
    c = np.empty(batch + (n * (2 * n - 1),))
    c[..., :n] = np.diagonal(parts[..., 0, :, :], axis1=-2, axis2=-1)
    upper, lower = parts[..., rows, cols], parts[..., cols, rows]
    # the real part is symmetric, the others skew
    lower[..., 0, :] = -lower[..., 0, :]
    offdiag = np.swapaxes(_SQRT2 * 0.5 * (upper - lower), -1, -2)
    c[..., n:] = offdiag.reshape(c[..., n:].shape)
    return c


def _quaternion_embedding(parts):
    """Complex embedding of quaternionic matrices, or stacks of them,
    given by their four real component matrices ``(..., 4, n, m)``.

    The entry ``a0 + a1 i + a2 j + a3 k`` becomes the 2x2 block
    ``[[a0 + i a1, a2 + i a3], [-a2 + i a3, a0 - i a1]]``, so column
    ``2q + 1`` is the Kramers partner of column ``2q`` (see
    :func:`_kramers_partner`).
    """
    return _embed_blocks(parts[..., 0, :, :] + 1j * parts[..., 1, :, :],
                         parts[..., 2, :, :] + 1j * parts[..., 3, :, :])


def _embed_blocks(z, w):
    """The embedding with 2x2 blocks ``[[z, w], [-conj(w), conj(z)]]``."""
    batch, (n, m) = z.shape[:-2], z.shape[-2:]
    out = np.empty(batch + (n, 2, m, 2), dtype=complex)
    out[..., :, 0, :, 0] = z
    out[..., :, 0, :, 1] = w
    out[..., :, 1, :, 0] = -np.conj(w)
    out[..., :, 1, :, 1] = np.conj(z)
    return out.reshape(batch + (2 * n, 2 * m))


def _spin_to_rep(c, d):
    return c / _SQRT2


def _spin_to_coeffs(rep, d):
    return np.asarray(rep, dtype=float) * _SQRT2


def _classical_to_rep(c, n):
    return c.copy()


def _classical_to_coeffs(rep, n):
    return np.asarray(rep, dtype=float).copy()


def _real_symmetric_part(m):
    m = np.real(m)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _complex_hermitian_part(m):
    m = np.asarray(m, dtype=complex)
    return _halve(m + np.conj(np.swapaxes(m, -1, -2)))


def _quaternion_hermitian_part(m):
    return _embed_blocks(*_kramers_blocks(_complex_hermitian_part(m)))


def _vector_copy(rep):
    return np.array(rep, dtype=float)


# the projection of an arbitrary representation onto the algebra, as a
# new array: the map rep -> coeffs -> rep without the coefficients
_SYMMETRIC_PART = {
    "real": _real_symmetric_part,
    "complex": _complex_hermitian_part,
    "quaternion": _quaternion_hermitian_part,
    "spin": _vector_copy,
    "classical": _vector_copy,
}


def _rep_shape(kind, size):
    if kind == "spin":
        return (size + 1,)
    if kind == "classical":
        return (size,)
    if kind == "quaternion":
        return (2 * size, 2 * size)
    return (size, size)


_COERCE_TO_REP = {
    "real": _real_to_rep,
    "complex": _complex_to_rep,
    "quaternion": _quaternion_to_rep,
    "spin": _spin_to_rep,
    "classical": _classical_to_rep,
}
_COERCE_TO_COEFFS = {
    "real": _real_to_coeffs,
    "complex": _complex_to_coeffs,
    "quaternion": _quaternion_to_coeffs,
    "spin": _spin_to_coeffs,
    "classical": _classical_to_coeffs,
}


# ---------------------------------------------------------------------------
# products, traces, units
# ---------------------------------------------------------------------------


def _product_rep(kind, ra, rb):
    if kind in ("real", "complex", "quaternion"):
        return 0.5 * (ra @ rb + rb @ ra)
    if kind == "spin":
        s, u = ra[0], ra[1:]
        t, v = rb[0], rb[1:]
        return np.concatenate(([s * t + u @ v], s * v + t * u))
    return ra * rb


def _unit_rep(kind, size):
    if kind == "spin":
        rep = np.zeros(size + 1)
        rep[0] = 1.0
        return rep
    if kind == "classical":
        return np.ones(size)
    if kind == "quaternion":
        return np.eye(2 * size, dtype=complex)
    return np.eye(size, dtype=float if kind == "real" else complex)


def jordan_product(a: JordanElement, b: JordanElement) -> JordanElement:
    """The symmetrized product, evaluated blockwise per summand."""
    a._require_same(b)
    reps = [
        _product_rep(s.kind, ra, rb)
        for s, ra, rb in zip(a.algebra.summands, a.reps(), b.reps())
    ]
    return element_from_reps(a.algebra, reps)


def trace(a: JordanElement) -> float:
    return float(a.coeffs @ a.algebra.trace_vector)


def inner_product(a: JordanElement, b: JordanElement) -> float:
    """Trace inner product; a plain dot because the basis is orthonormal."""
    a._require_same(b)
    return float(a.coeffs @ b.coeffs)


def norm(a: JordanElement) -> float:
    return float(np.linalg.norm(a.coeffs))


def unit(algebra: Algebra) -> JordanElement:
    return JordanElement(algebra, algebra.trace_vector)


def zero(algebra: Algebra) -> JordanElement:
    return JordanElement(algebra, np.zeros(algebra.dim))


def basis_element(algebra: Algebra, index: int) -> JordanElement:
    coeffs = np.zeros(algebra.dim)
    coeffs[index] = 1.0
    return JordanElement(algebra, coeffs)


def direct_sum(a: JordanElement, b: JordanElement) -> JordanElement:
    """Block-diagonal join of two elements."""
    alg = Algebra(a.algebra.summands + b.algebra.summands)
    return JordanElement(alg, np.concatenate([a.coeffs, b.coeffs]))


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------


# Frobenius pairing of two reps times this constant is the trace inner
# product: the quaternionic embedding doubles traces, and a spin rep is
# its coefficient vector over sqrt(2)
_PAIRING_SCALE = {"real": 1.0, "complex": 1.0, "quaternion": 0.5,
                  "spin": 2.0, "classical": 1.0}
# the number of axes of one rep of each kind
_REP_NDIM = {"real": 2, "complex": 2, "quaternion": 2, "spin": 1,
             "classical": 1}


def _dots(a, b):
    """The dot products of the last axes of ``a`` and ``b``, any leading
    axes a batch, each the bits of ``a @ b`` on its two vectors."""
    if a.ndim == b.ndim == 1:
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _pairings(kind, stack, rep):
    """The trace inner products of each rep of ``stack`` with ``rep``, on
    one summand of kind ``kind``.  Leading axes of ``rep``, and the same
    ones before the stack axis of ``stack``, are a batch; each batch entry
    gets the bits it would get alone."""
    lead = rep.shape[:rep.ndim - _REP_NDIM[kind]]
    flat = stack.reshape(lead + (stack.shape[len(lead)], -1))
    if lead:
        column = rep.reshape(lead + (-1, 1)).conj()
        return _PAIRING_SCALE[kind] * (flat @ column)[..., 0].real
    return _PAIRING_SCALE[kind] * (flat @ rep.ravel().conj()).real


class SpectralDecomposition:
    """Fine eigenvalues with the Jordan frame of their primitive
    idempotents.

    ``frame`` holds one read-only stack per summand: the representations,
    in the layout of :meth:`JordanElement.reps`, of that summand's
    primitive idempotents, and ``values`` their eigenvalues in the same
    order, summand after summand.  A simple algebra is the one-summand
    case.  The frame is read through two methods: :meth:`function` builds
    ``sum values[k] E_k`` and :meth:`weights` pairs each ``E_k`` with an
    element, so the trace of ``f`` of the element is ``f(values).sum()``
    and its pairing with ``y`` is ``f(values) @ weights(y)``.

    ``eigenvalues`` (distinct, descending), ``multiplicities`` and
    ``idempotents`` view the same data grouped: eigenvalues within
    ``DEFAULT_GROUP_TOL`` merge at their mean, also across direct
    summands, and their idempotents sum to one whose trace is the
    multiplicity.
    """

    def __init__(self, algebra: Algebra, values: np.ndarray,
                 frame: Sequence[np.ndarray]):
        for stack in frame:
            stack.flags.writeable = False
        self.algebra = algebra
        self.values = values
        self.frame = tuple(frame)

    def __reduce__(self):
        # rebuild from the stored frame, so it is read-only again
        return SpectralDecomposition, (self.algebra, self.values, self.frame)

    def function(self, values) -> JordanElement:
        """The element ``sum values[k] E_k``, built in representations."""
        reps, start = [], 0
        for stack in self.frame:
            k = len(stack)
            flat = values[start:start + k] @ stack.reshape(k, -1)
            reps.append(flat.reshape(stack.shape[1:]))
            start += k
        return _element_with_reps(self.algebra, reps)

    def weights(self, x: JordanElement) -> np.ndarray:
        """The trace inner products ``<E_k, x>``."""
        return np.concatenate([
            _pairings(s.kind, stack, rep)
            for s, stack, rep in zip(self.algebra.summands, self.frame,
                                     x.reps())
        ])

    @cached_property
    def groups(self) -> tuple[np.ndarray, list[int]]:
        """The descending order of the values and the first index (in that
        order) of each group of near-equal ones.

        A group ends before the first value more than ``DEFAULT_GROUP_TOL``
        below the group's first value.
        """
        order = np.argsort(-self.values, kind="stable")
        values = self.values[order]
        starts = [0]
        for i in range(1, len(values)):
            if values[starts[-1]] - values[i] > DEFAULT_GROUP_TOL:
                starts.append(i)
        return order, starts

    @cached_property
    def multiplicities(self) -> np.ndarray:
        """The size of each group."""
        _, starts = self.groups
        return np.diff(starts + [len(self.values)])

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The mean of each group, descending."""
        order, starts = self.groups
        sums = np.add.reduceat(self.values[order], starts)
        return sums / self.multiplicities

    @cached_property
    def idempotents(self) -> tuple[JordanElement, ...]:
        """The sum of each group's primitive idempotents."""
        order, starts = self.groups
        out = []
        for lo, hi in zip(starts, starts[1:] + [len(order)]):
            mask = np.zeros(len(order))
            mask[order[lo:hi]] = 1.0
            out.append(self.function(mask))
        return tuple(out)

    def fine_spectrum(self) -> np.ndarray:
        """One eigenvalue per primitive idempotent, descending."""
        return np.sort(self.values)[::-1]


def _kramers_partner(x):
    """``J`` on the column vectors ``x`` of shape ``(..., 2n, m)``: each
    row pair ``(a, b)`` becomes ``(-conj(b), conj(a))``.

    ``J`` is antiunitary and commutes with every quaternionic embedding,
    and ``Jx`` is orthogonal to ``x``.
    """
    jx = np.empty_like(x)
    jx[..., 0::2, :] = -np.conj(x[..., 1::2, :])
    jx[..., 1::2, :] = np.conj(x[..., 0::2, :])
    return jx


def _kramers_pairs(x):
    """The columns ``x`` of shape ``(..., 2n, m)``, each followed by its
    Kramers partner, as in the quaternionic embedding."""
    out = np.empty(x.shape[:-1] + (2 * x.shape[-1],), dtype=complex)
    out[..., 0::2] = x
    out[..., 1::2] = _kramers_partner(x)
    return out


def _remove_kramers_pair(cols, v):
    """Project the unit column ``v`` and its partner ``Jv`` out of every
    column of ``cols``; with ``cols`` in a ``J``-invariant subspace the
    result stays in it."""
    for u in (v, _kramers_partner(v)):
        cols = cols - u @ (np.swapaxes(u.conj(), -1, -2) @ cols)
    return cols


def _kramers_frame(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pick ``n`` of the ``2n`` eigenvector columns of each quaternionic
    embedding of the stack ``vecs`` whose Kramers pairs ``(v, Jv)`` span
    the space.  Leading axes are a batch, and each entry gets the bits
    it would get alone.

    The embedding commutes with ``J``, so projecting a picked pair out of
    every column keeps each column in its own eigenspace.  Returns a mask
    of the picked columns and the normalised vectors, in column order, as
    the columns of ``2n x n`` matrices.
    """
    m = vecs.shape[-1]
    cols = vecs.reshape((-1, m, m)).copy()
    rows = np.arange(len(cols))
    picked = np.zeros((len(cols), m), dtype=bool)
    # the vector picked from column k, as row k
    frame = np.empty_like(cols)
    for _ in range(m // 2):
        residual = np.einsum("...ij,...ij->...j", cols.conj(), cols).real
        k = residual.argmax(axis=-1)
        v = cols[rows, :, k]
        # the norm as np.linalg.norm sums it on one column
        v = v / np.sqrt(_dots(v.real, v.real) + _dots(v.imag, v.imag))[:, None]
        cols = _remove_kramers_pair(cols, v[..., None])
        picked[rows, k] = True
        frame[rows, k] = v
    lead = vecs.shape[:-2]
    return (picked.reshape(lead + (m,)),
            np.swapaxes(frame[picked].reshape(lead + (m // 2, m)), -1, -2))


def _kramers_orthonormalize(g: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt of the quaternionic columns of embedded
    matrices ``g`` of shape ``(..., 2n, 2m)``, any leading axes a batch.

    Each column pair ``(x, Jx)`` becomes an orthonormal pair ``(u, Ju)``
    orthogonal to the pairs before it, in the layout of the embedding.
    Fed embedded Gaussian quaternionic draws, it gives random
    quaternionic unitaries.
    """
    x = np.array(g[..., ::2], dtype=complex)
    for j in range(x.shape[-1]):
        v = x[..., j:j + 1]
        v = v / np.linalg.norm(v, axis=(-2, -1), keepdims=True)
        x[..., j:j + 1] = v
        x[..., j + 1:] = _remove_kramers_pair(x[..., j + 1:], v)
    return _kramers_pairs(x)


def _frame_projections(kind, q):
    """The primitive idempotent reps of a frame: the projections onto the
    columns of ``q``, or onto its Kramers pairs of columns on quaternionic
    factors.  Leading axes of ``q`` are a batch."""
    if kind == "quaternion":
        pairs = q.reshape(q.shape[:-1] + (-1, 2))
        return np.einsum("...ikp,...jkp->...kij", pairs, pairs.conj())
    return np.einsum("...ik,...jk->...kij", q, q.conj())


def _frame_idempotents(kind, frame):
    """The idempotent stacks of frames as :func:`_spectral_frames` returns
    them: projected from the eigenvectors on the matrix kinds (real,
    complex and quaternionic), as they are on spin and classical
    factors.  Each frame of the stack gets the bits it would get alone,
    so a caller projects only the rows it reads."""
    if kind in ("real", "complex", "quaternion"):
        return _frame_projections(kind, frame)
    return frame


def _spectral_frames(kind, rep, size):
    """Per-summand fine eigenvalues and their Jordan frame.  Leading axes
    of ``rep`` are a batch, and each entry gets the bits it would get
    alone.  On the matrix kinds the frame is eigenvectors, one column per
    fine eigenvalue (on quaternionic factors the Kramers-paired columns
    of the embedding), which :func:`_frame_idempotents` projects; spin
    and classical factors return their idempotent stacks."""
    if kind == "classical":
        return rep, np.broadcast_to(np.eye(size), rep.shape + (size,))

    if kind == "spin":
        # eigenvalues t +- r with idempotents (1, +-axis) / 2
        t, v = rep[..., :1], rep[..., 1:]
        r = np.sqrt(_dots(v, v))[..., None]
        # at r == 0 both eigenvalues are t and any ball axis will do
        axis = np.zeros_like(v)
        axis[..., 0] = 1.0
        np.divide(v, r, out=axis, where=r > 0.0)
        sign = np.array([1.0, -1.0])
        frame = np.empty(rep.shape[:-1] + (2, size + 1))
        frame[..., 0] = 0.5
        frame[..., 1:] = 0.5 * sign[:, None] * axis[..., None, :]
        return t + sign * r, frame

    w, vecs = np.linalg.eigh(rep)
    if kind == "quaternion":
        # the eigenvalues of the embedding come in Kramers pairs; each
        # picked vector with its partner spans a primitive idempotent
        picked, frame = _kramers_frame(vecs)
        values = w[picked].reshape(frame.shape[:-2] + (-1,))
        return values, _kramers_pairs(frame)
    return w, vecs


def spectral_decompose(a: JordanElement) -> SpectralDecomposition:
    """Decompose into fine eigenvalues and a Jordan frame.

    The result is cached on the element.
    """
    if a._spectral is None:
        parts = [_spectral_frames(s.kind, rep, s.size)
                 for s, rep in zip(a.algebra.summands, a.reps())]
        a._spectral = SpectralDecomposition(
            a.algebra, np.concatenate([lam for lam, _ in parts]),
            [_frame_idempotents(s.kind, frame)
             for s, (_, frame) in zip(a.algebra.summands, parts)],
        )
    return a._spectral

