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

Elements are stored as real coefficient vectors in a fixed basis that is
orthonormal for the trace inner product ``<a, b> = tr(a o b)``, so the
coefficient map is an isometry.  The basis layout per factor is:

* matrix kinds: the ``n`` diagonal matrix units first, then for each pair
  ``i < j`` (row-major) the symmetrized off-diagonal units scaled by
  ``1/sqrt(2)`` -- for ``complex`` the real part followed by the imaginary
  part, for ``quaternion`` the real part followed by the i, j, k parts;
* spin: ``unit/sqrt(2)`` first, then the ``d`` ball axes scaled by
  ``1/sqrt(2)``;
* classical: the canonical coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Algebra",
    "AlgebraMismatchError",
    "DomainError",
    "JordanElement",
    "SimpleFactor",
    "SpectralDecomposition",
    "Spectrum",
    "apply_function",
    "basis_element",
    "classical",
    "complex_hermitian",
    "direct_sum",
    "embed_quaternion",
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
        letter = {"real": "R", "complex": "C", "quaternion": "H",
                  "spin": "S", "classical": "P"}[self.kind]
        return f"{letter}{self.size}"


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
    """An algebra element, stored as coefficients in the fixed basis.

    Instances are immutable; the coefficient array is marked read-only.
    Two slots cache what is derived from the coefficients, and both are
    safe to share between threads because they are only ever computed
    from the immutable coefficients:

    * ``_spectral`` holds the spectral decomposition (for products and
      clipped states it is installed with the coefficients by exact
      means);
    * ``_reps`` holds the per-summand representations, filled by the
      first :meth:`reps` call with read-only arrays, so every later call
      returns the same bits.  :func:`element_from_reps` never seeds it:
      the round trip through the coefficients is not bit-exact.
    """

    __slots__ = ("algebra", "coeffs", "_spectral", "_reps")

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
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_spectral", None)
        object.__setattr__(self, "_reps", None)

    def __setattr__(self, name, value):
        if name != "_spectral":
            raise AttributeError("JordanElement is immutable")
        object.__setattr__(self, name, value)

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
        """Concrete representation of each summand (matrix, 4-stack, ...),
        as read-only arrays converted once per element."""
        if self._reps is None:
            reps = []
            for s, sl in zip(self.algebra.summands, self.algebra.slices()):
                rep = _COERCE_TO_REP[s.kind](self.coeffs[sl], s.size)
                rep.flags.writeable = False
                reps.append(rep)
            object.__setattr__(self, "_reps", tuple(reps))
        return list(self._reps)


def element_from_reps(algebra: Algebra, reps: Sequence) -> JordanElement:
    """Assemble an element from per-summand concrete representations."""
    coeffs = np.empty(algebra.dim)
    for s, sl, rep in zip(algebra.summands, algebra.slices(), reps):
        coeffs[sl] = _COERCE_TO_COEFFS[s.kind](rep, s.size)
    return JordanElement(algebra, coeffs)


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
    """Stack of the four real component matrices (1, i, j, k parts)."""
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
    return m


def _quaternion_to_coeffs(m, n):
    rows, cols = _offdiag_indices(n)
    batch = m.shape[:-3]
    c = np.empty(batch + (n * (2 * n - 1),))
    c[..., :n] = np.diagonal(m[..., 0, :, :], axis1=-2, axis2=-1)
    upper, lower = m[..., rows, cols], m[..., cols, rows]
    # the real part is symmetric, the others skew
    lower[..., 0, :] = -lower[..., 0, :]
    offdiag = np.swapaxes(_SQRT2 * 0.5 * (upper - lower), -1, -2)
    c[..., n:] = offdiag.reshape(c[..., n:].shape)
    return c


def _spin_to_rep(c, d):
    return c / _SQRT2


def _spin_to_coeffs(rep, d):
    return np.asarray(rep, dtype=float) * _SQRT2


def _classical_to_rep(c, n):
    return c.copy()


def _classical_to_coeffs(rep, n):
    return np.asarray(rep, dtype=float).copy()


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


def _quaternion_matmul(a, b):
    """Product of quaternionic matrices in 4-component representation,
    or of stacks of them."""
    a0, a1, a2, a3 = (a[..., k, :, :] for k in range(4))
    b0, b1, b2, b3 = (b[..., k, :, :] for k in range(4))
    return np.stack([
        a0 @ b0 - a1 @ b1 - a2 @ b2 - a3 @ b3,
        a0 @ b1 + a1 @ b0 + a2 @ b3 - a3 @ b2,
        a0 @ b2 - a1 @ b3 + a2 @ b0 + a3 @ b1,
        a0 @ b3 + a1 @ b2 - a2 @ b1 + a3 @ b0,
    ], axis=-3)


def _product_rep(kind, ra, rb):
    if kind in ("real", "complex"):
        return 0.5 * (ra @ rb + rb @ ra)
    if kind == "quaternion":
        return 0.5 * (_quaternion_matmul(ra, rb) + _quaternion_matmul(rb, ra))
    if kind == "spin":
        s, u = ra[0], ra[1:]
        t, v = rb[0], rb[1:]
        return np.concatenate(([s * t + u @ v], s * v + t * u))
    return ra * rb


def _unit_rep(kind, size):
    if kind in ("real", "complex"):
        dtype = float if kind == "real" else complex
        return np.eye(size, dtype=dtype)
    if kind == "quaternion":
        m = np.zeros((4, size, size))
        m[0] = np.eye(size)
        return m
    if kind == "spin":
        rep = np.zeros(size + 1)
        rep[0] = 1.0
        return rep
    return np.ones(size)


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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Fine eigenvalues with their weights, the traces of their rows.

    ``f(values) @ weights`` is the trace of ``f`` of the element.  The
    grouped spectrum, with near-equal eigenvalues merged, is built on
    first access; it only shapes Jordan frames.
    """

    values: np.ndarray
    weights: np.ndarray

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
        order, starts = self.groups
        return np.add.reduceat(self.weights[order], starts)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The weighted mean of each group, descending."""
        order, starts = self.groups
        weighted = (self.values * self.weights)[order]
        return np.add.reduceat(weighted, starts) / self.multiplicities


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Fine eigenvalues with the stack of their rank-one projections.

    Row ``k`` of ``rows`` holds the coefficients of the projection that
    belongs to ``values[k]``, so a function of the element is
    ``f(values) @ rows`` and a pairing with ``y`` is
    ``f(values) @ (rows @ y.coeffs)``.  Rows are primitive idempotents,
    except on quaternionic factors: there each eigenpair of the ``2n``
    complex symplectic embedding gives half a primitive idempotent, of
    weight 1/2, and a Kramers pair gives the whole one.

    ``eigenvalues`` (distinct, descending), ``multiplicities`` and
    ``idempotents`` view the same data grouped for Jordan frames:
    eigenvalues within ``DEFAULT_GROUP_TOL`` merge at their weighted mean,
    also across direct summands, and their rows sum to one idempotent
    whose trace is the multiplicity.  The spectrum is its own object so
    that a factor permutation, which moves only the rows, shares it and
    its grouping with the decomposition it came from.
    """

    spectrum: Spectrum
    rows: np.ndarray
    algebra: Algebra

    @classmethod
    def from_rows(cls, values: np.ndarray, rows: np.ndarray,
                  algebra: Algebra) -> "SpectralDecomposition":
        return cls(Spectrum(values, rows @ algebra.trace_vector), rows, algebra)

    @property
    def values(self) -> np.ndarray:
        return self.spectrum.values

    @property
    def weights(self) -> np.ndarray:
        return self.spectrum.weights

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues

    @property
    def multiplicities(self) -> np.ndarray:
        return self.spectrum.multiplicities

    @cached_property
    def idempotents(self) -> tuple[JordanElement, ...]:
        order, starts = self.spectrum.groups
        sums = np.add.reduceat(self.rows[order], starts, axis=0)
        return tuple(JordanElement(self.algebra, e) for e in sums)

    def reconstruct(self) -> JordanElement:
        return JordanElement(self.algebra, self.values @ self.rows)

    def fine_spectrum(self) -> np.ndarray:
        """One eigenvalue per primitive idempotent, descending.

        Each value is listed ``2 * weight`` times and every second entry
        of the sorted list is kept, so a row of weight one counts once and
        so does a Kramers pair of half rows.
        """
        doubled = np.repeat(self.values, np.rint(2 * self.weights).astype(int))
        return np.sort(doubled)[::-1][::2]


def _quaternion_to_complex_embedding(m: np.ndarray) -> np.ndarray:
    a0, a1, a2, a3 = m
    return np.block([
        [a0 + 1j * a1, a2 + 1j * a3],
        [-a2 + 1j * a3, a0 - 1j * a1],
    ])


def _complex_projection_to_quaternion(p: np.ndarray, n: int) -> np.ndarray:
    b11, b12 = p[..., :n, :n], p[..., :n, n:]
    b21, b22 = p[..., n:, :n], p[..., n:, n:]
    return np.stack([
        0.5 * (b11.real + b22.real),
        0.5 * (b11.imag - b22.imag),
        0.5 * (b12.real - b21.real),
        0.5 * (b12.imag + b21.imag),
    ], axis=-3)


def _spectral_projections(kind, rep, size):
    """Per-summand fine eigenvalues and the stack of their rank-one
    projection reps."""
    if kind == "classical":
        return rep, np.eye(size)

    if kind == "spin":
        t, v = rep[0], rep[1:]
        r = float(np.linalg.norm(v))
        # at r == 0 both eigenvalues are t and any ball axis will do
        axis = v / r if r > 0.0 else np.eye(size)[0]
        top = np.concatenate(([0.5], 0.5 * axis))
        bottom = np.concatenate(([0.5], -0.5 * axis))
        return np.array([t + r, t - r]), np.stack([top, bottom])

    # LAPACK on the native matrix; quaternionic matrices go through their
    # complex symplectic embedding, whose eigenvalues come in equal pairs
    quaternion = kind == "quaternion"
    matrix = _quaternion_to_complex_embedding(rep) if quaternion else rep
    w, vecs = np.linalg.eigh(matrix)
    projs = np.einsum("ik,jk->kij", vecs, vecs.conj())
    if quaternion:
        projs = _complex_projection_to_quaternion(projs, size)
    return w, projs


def spectral_decompose(a: JordanElement) -> SpectralDecomposition:
    """Decompose into fine eigenvalues and rank-one projections.

    The result is cached on the element.
    """
    if a._spectral is not None:
        return a._spectral
    alg = a.algebra
    values, rows = [], []  # per summand: eigenvalues, projection coeffs
    for s, sl, rep in zip(alg.summands, alg.slices(), a.reps()):
        lam, projs = _spectral_projections(s.kind, rep, s.size)
        block = np.zeros((len(lam), alg.dim))
        block[:, sl] = _COERCE_TO_COEFFS[s.kind](projs, s.size)
        values.append(lam)
        rows.append(block)
    a._spectral = SpectralDecomposition.from_rows(
        np.concatenate(values), np.concatenate(rows), alg
    )
    return a._spectral


def apply_function(
    a: JordanElement,
    f: Callable[[float], float],
    domain: Callable[[float], bool] | None = None,
) -> JordanElement:
    """Evaluate a scalar function through the spectral decomposition.

    When ``domain`` is given, every eigenvalue must satisfy it; the first
    offender is reported in a :class:`DomainError`.
    """
    dec = spectral_decompose(a)
    if domain is not None:
        for lam in dec.values:
            if not domain(lam):
                raise DomainError(
                    f"eigenvalue {lam!r} outside the domain of {f!r}",
                    value=lam,
                )
    image = np.array([f(lam) for lam in dec.values], dtype=float)
    return JordanElement(a.algebra, image @ dec.rows)


def embed_quaternion(a: JordanElement) -> JordanElement:
    """Symplectic embedding of a quaternionic element into complex
    Hermitian matrices of twice the size.

    The embedding is a unital Jordan homomorphism that doubles traces and
    preserves eigenvalues with doubled multiplicity.
    """
    if len(a.algebra.summands) != 1 or a.algebra.summands[0].kind != "quaternion":
        raise AlgebraMismatchError(
            f"expected a single quaternion summand, got {a.algebra}"
        )
    n = a.algebra.summands[0].size
    cm = _quaternion_to_complex_embedding(a.reps()[0])
    return element_from_reps(complex_hermitian(2 * n), [cm])
