"""Entropy of states: spectral, decomposition and fine-grained forms.

The three expressions coincide on the algebras handled here; the module
computes the spectral value directly, reduces the decomposition form to
it through the fine spectral weights, and certifies the fine-grained
infimum by a two-sided squeeze: sampled fine-grained measurements may
never fall below the spectral value, and the spectral measurement must
attain it.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import algebras as alg
from .algebras import Algebra, JordanElement, spectral_decompose
from . import states as st
from .states import SUPPORT_CUTOFF, Measurement, State, Test, measure

__all__ = [
    "EntropyBoundError",
    "EntropyReport",
    "decomposition_entropy",
    "fine_grained_entropy_bound",
    "random_fine_grained_measurement",
    "sample_pure_decomposition",
    "shannon_entropy",
    "spectral_entropy",
]

SQUEEZE_TOL = 1e-9
# fine-grained samples scored per stacked step; bounds the memory that
# any sample count needs
SAMPLE_CHUNK = 1024


class EntropyBoundError(RuntimeError):
    """A sampled quantity violated a certified entropy inequality."""


@dataclass(frozen=True)
class EntropyReport:
    """Nats throughout; ``fine_grained_lower`` equals the spectral value."""

    spectral: float
    decomposition: float
    fine_grained_upper: float
    fine_grained_lower: float
    n_measurements_sampled: int

    def as_dict(self) -> dict:
        return asdict(self)


def shannon_entropy(p, tol: float = 1e-8) -> float:
    """Shannon entropy in nats, with 0 ln 0 = 0.

    The vector is renormalized if its sum is within ``tol`` of one;
    entries below ``-tol`` are rejected.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < -tol):
        raise ValueError(f"negative probability {p.min()!r}")
    total = p.sum()
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities sum to {total!r}")
    p = np.clip(p, 0.0, None) / total
    mask = p > SUPPORT_CUTOFF
    return float(-np.sum(p[mask] * np.log(p[mask])))


def spectral_entropy(sigma: State) -> float:
    """Entropy from the spectrum, eigenvalues below cutoff contributing 0."""
    dec = spectral_decompose(sigma.element)
    lam, weights = dec.values, dec.weights
    mask = lam > SUPPORT_CUTOFF
    return float(-np.sum(weights[mask] * lam[mask] * np.log(lam[mask])))


def decomposition_entropy(
    sigma: State, cross_check_samples: int = 0, seed=None
) -> float:
    """Minimal Shannon entropy over decompositions into pure states.

    The minimum is attained by the fine spectral weights; when
    ``cross_check_samples`` is positive, random pure decompositions are
    sampled and each must stay above the returned value.
    """
    if cross_check_samples < 0:
        raise ValueError(
            f"cross_check_samples must be at least 0, got {cross_check_samples}"
        )
    value = shannon_entropy(np.clip(sigma.spectrum(), 0.0, None))
    if cross_check_samples:
        rng = st._as_rng(seed)
        for k in range(cross_check_samples):
            weights, _ = sample_pure_decomposition(sigma, rng)
            h = shannon_entropy(weights)
            if h < value - SQUEEZE_TOL:
                raise EntropyBoundError(
                    f"sampled decomposition entropy {h} below spectral "
                    f"value {value} (sample {k})"
                )
    return value


# ---------------------------------------------------------------------------
# random pure decompositions
# ---------------------------------------------------------------------------


def _pure_vectors(sigma: State):
    """Fine weights with representing vectors, per summand kind."""
    dec = spectral_decompose(sigma.element)
    weights, vectors = [], []
    for lam, e in zip(dec.eigenvalues, dec.idempotents):
        if lam <= SUPPORT_CUTOFF:
            continue
        for p in st.primitive_split(e):
            weights.append(lam)
            vectors.append(p)
    return np.array(weights), vectors


def sample_pure_decomposition(sigma: State, rng):
    """A random decomposition sigma = sum_j q_j pi_j into pure states.

    Mixes the spectral pure decomposition by a random unitary (orthogonal,
    symplectic) matrix, which doubly-stochastically reshuffles the
    weights; on spin factors a random chord through the state is used.
    Returns ``(q, pure_elements)``.
    """
    algebra = sigma.algebra
    if len(algebra.summands) != 1:
        raise st.UnsupportedAlgebraError(
            "pure decompositions are sampled on simple algebras"
        )
    kind = algebra.summands[0].kind

    if kind == "classical":
        p = sigma.element.reps()[0]
        weights, elements = [], []
        for j, pj in enumerate(p):
            if pj <= SUPPORT_CUTOFF:
                continue
            t = rng.uniform(0.2, 0.8)
            for portion in (t * pj, (1 - t) * pj):
                e = np.zeros(len(p))
                e[j] = 1.0
                weights.append(portion)
                elements.append(alg.element_from_reps(algebra, [e]))
        return np.array(weights), elements

    if kind == "spin":
        d = algebra.summands[0].size
        rep = sigma.element.reps()[0]
        v = rep[1:]
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        # chord through 2v in direction pair (u, w): p*u + (1-p)*w = 2v
        p = (1.0 - 4.0 * v @ v) / (2.0 - 4.0 * (u @ v))
        p = float(np.clip(p, 0.0, 1.0))
        if p in (0.0, 1.0):
            u = v / np.linalg.norm(v) if np.linalg.norm(v) > 0 else u
            p = 0.5 + np.linalg.norm(v)
        w = (2.0 * v - p * u) / (1.0 - p) if p < 1.0 else -u
        top = np.concatenate(([0.5], 0.5 * u))
        bottom = np.concatenate(([0.5], 0.5 * w))
        return (
            np.array([p, 1.0 - p]),
            [
                alg.element_from_reps(algebra, [top]),
                alg.element_from_reps(algebra, [bottom]),
            ],
        )

    weights, projections = _pure_vectors(sigma)
    r = len(weights)
    size = algebra.summands[0].size
    out_weights, out_elements = [], []

    if kind == "quaternion":
        mix = st._random_quaternion_unitary(rng.normal(size=(4, r, r)))
        columns = [_projection_column(p, kind) for p in projections]
        for j in range(r):
            phi = np.zeros((4, size, 1))
            for i in range(r):
                scalar = np.sqrt(weights[i]) * mix[:, i, j].reshape(4, 1, 1)
                phi = phi + alg._quaternion_matmul(columns[i], scalar)
            qj = float(np.sum(phi ** 2))
            proj = alg._quaternion_matmul(
                phi, st._quaternion_conj_transpose(phi)
            ) / qj
            out_weights.append(qj)
            out_elements.append(alg.element_from_reps(algebra, [proj]))
        return np.array(out_weights), out_elements

    if kind == "real":
        mix, _ = np.linalg.qr(rng.normal(size=(r, r)))
    else:
        g = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        mix, _ = np.linalg.qr(g)
    columns = [_projection_column(p, kind) for p in projections]
    for j in range(r):
        phi = np.zeros(size, dtype=complex if kind == "complex" else float)
        for i in range(r):
            phi = phi + np.sqrt(weights[i]) * mix[i, j] * columns[i]
        qj = float(np.real(phi @ phi.conj()))
        proj = np.outer(phi, phi.conj()) / qj
        out_weights.append(qj)
        out_elements.append(alg.element_from_reps(algebra, [proj]))
    return np.array(out_weights), out_elements


def _projection_column(projection: JordanElement, kind: str):
    rep = projection.reps()[0]
    if kind == "quaternion":
        j = int(np.argmax(np.diag(rep[0])))
        return rep[:, :, j:j + 1] / np.sqrt(rep[0, j, j])
    j = int(np.argmax(np.real(np.diag(rep))))
    return rep[:, j] / np.sqrt(np.real(rep[j, j]))


# ---------------------------------------------------------------------------
# random fine-grained measurements
# ---------------------------------------------------------------------------


def _projective_from_basis(algebra: Algebra, columns) -> Measurement:
    outcomes = []
    for k, col in enumerate(columns):
        outcomes.append((k, Test(col)))
    return Measurement(tuple(outcomes))


def _draw_basis(kind: str, size: int, rng):
    """The Gaussian draw behind one random rank-one projective basis
    (``None`` on classical factors, whose basis is fixed)."""
    if kind == "spin":
        return rng.normal(size=size)
    if kind == "real":
        return rng.normal(size=(size, size))
    if kind == "complex":
        return rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    if kind == "quaternion":
        return rng.normal(size=(4, size, size))
    return None


def _random_projective(algebra: Algebra, rng) -> Measurement:
    s = algebra.summands[0]
    n = s.size
    if s.kind == "classical":
        outcomes = []
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            outcomes.append((j, Test(alg.element_from_reps(algebra, [e]))))
        return Measurement(tuple(outcomes))
    g = _draw_basis(s.kind, n, rng)
    if s.kind == "spin":
        u = g / np.linalg.norm(g)
        top = np.concatenate(([0.5], 0.5 * u))
        bottom = np.concatenate(([0.5], -0.5 * u))
        return _projective_from_basis(algebra, [
            alg.element_from_reps(algebra, [top]),
            alg.element_from_reps(algebra, [bottom]),
        ])
    if s.kind in ("real", "complex"):
        q, _ = np.linalg.qr(g)
        cols = [
            alg.element_from_reps(
                algebra, [np.outer(q[:, j], q[:, j].conj())]
            )
            for j in range(n)
        ]
        return _projective_from_basis(algebra, cols)
    # quaternion: primitive idempotents of a random symplectic basis
    q = st._random_quaternion_unitary(g)
    cols = []
    for j in range(n):
        col = q[:, :, j:j + 1]
        proj = alg._quaternion_matmul(col, st._quaternion_conj_transpose(col))
        cols.append(alg.element_from_reps(algebra, [proj]))
    return _projective_from_basis(algebra, cols)


def random_fine_grained_measurement(algebra: Algebra, rng) -> Measurement:
    """A random rank-one measurement: projective, or an overcomplete blend
    of two projective bases."""
    if len(algebra.summands) != 1:
        raise st.UnsupportedAlgebraError(
            "fine-grained sampling works on simple algebras"
        )
    first = _random_projective(algebra, rng)
    if algebra.summands[0].kind == "classical" or rng.uniform() < 0.5:
        return first
    second = _random_projective(algebra, rng)
    t = rng.uniform(0.2, 0.8)
    outcomes = []
    for k, (_, test) in enumerate(first.outcomes):
        outcomes.append((("a", k), Test(test.element * t)))
    for k, (_, test) in enumerate(second.outcomes):
        outcomes.append((("b", k), Test(test.element * (1.0 - t))))
    return Measurement(tuple(outcomes))


def _basis_probs(kind: str, m: np.ndarray, draws) -> np.ndarray:
    """Outcome probabilities of the state with matrix representation ``m``
    in the bases built from a sequence of draws, one row per basis."""
    if kind == "classical":
        return np.tile(m, (len(draws), 1))
    if kind == "spin":
        # (1, d) @ (d, 1) products per row sum as the 1-D dots of one
        # vector do; norm(axis=-1) or a matrix-vector product would not
        u = np.stack(draws)[:, None, :]
        u = u / np.sqrt(u @ np.swapaxes(u, -1, -2))
        overlap = (u @ m[1:, None])[:, 0, 0]
        return np.stack([0.5 + overlap, 0.5 - overlap], axis=-1)
    if kind == "real":
        q, _ = np.linalg.qr(np.stack(draws))
        return np.einsum("sji,jk,ski->si", q, m, q)
    if kind == "complex":
        q, _ = np.linalg.qr(np.stack(draws))
        return np.einsum("sji,jk,ski->si", q.conj(), m, q).real
    # quaternion: diagonal of Q^* M Q in quaternion arithmetic
    q = st._random_quaternion_unitary(np.stack(draws))
    mq = alg._quaternion_matmul(m, q)
    full = alg._quaternion_matmul(st._quaternion_conj_transpose(q), mq)
    return np.diagonal(full[:, 0], axis1=-2, axis2=-1)


def _row_entropies(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of ``p``, with 0 ln 0 = 0.

    Rows with equal support sizes are reduced together, each over its
    support alone, so every row gets the bits that summing its support
    as one vector gives (a zero-filled row of 8 or more entries would
    be summed in another order).
    """
    mask = p > SUPPORT_CUTOFF
    terms = p[mask] * np.log(p[mask])
    counts = mask.sum(axis=-1)
    starts = np.cumsum(counts) - counts
    h = np.empty(len(p))
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        h[rows] = -terms[starts[rows, None] + np.arange(k)].sum(axis=-1)
    return h


def _fine_entropies(sigma: State, n_samples: int, rng) -> np.ndarray:
    """Entropies of ``n_samples`` random fine-grained measurements.

    Half the samples are projective bases, the other half overcomplete
    blends ``t * first + (1 - t) * second`` of two bases (except on
    classical factors, where splitting each coordinate of the fixed
    basis plays that role).  The draws are taken per sample, in that
    order; the probabilities of all bases are then computed in one
    stacked step.
    """
    s = sigma.algebra.summands[0]
    m = sigma.element.reps()[0]
    draws, first, second, t = [], [], [], []
    for _ in range(n_samples):
        first.append(len(draws))
        draws.append(_draw_basis(s.kind, s.size, rng))
        if rng.uniform() < 0.5:
            t.append(1.0)  # projective: all weight on the first basis
        else:
            t.append(rng.uniform(0.2, 0.8))
            if s.kind != "classical":
                draws.append(_draw_basis(s.kind, s.size, rng))
        second.append(len(draws) - 1)
    probs = _basis_probs(s.kind, m, draws)
    t = np.array(t)[:, None]
    p = np.concatenate([t * probs[first], (1.0 - t) * probs[second]], axis=1)
    return _row_entropies(np.clip(p, 0.0, None))


def fine_grained_entropy_bound(
    sigma: State, n_samples: int = 200, seed=None
) -> EntropyReport:
    """Squeeze the fine-grained entropy between sampled measurements and
    the spectral value.

    Raises :class:`EntropyBoundError` if any sampled fine-grained
    measurement scores below the spectral entropy, or if the spectral
    measurement fails to attain it.
    """
    if len(sigma.algebra.summands) != 1:
        raise st.UnsupportedAlgebraError(
            "fine-grained sampling works on simple algebras"
        )
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rng = st._as_rng(seed)
    h_spec = spectral_entropy(sigma)
    h_dec = decomposition_entropy(sigma)

    spectral_m = st.spectral_measurement(sigma)
    best = shannon_entropy(measure(spectral_m, sigma))
    if best < h_spec - SQUEEZE_TOL or best > h_spec + SQUEEZE_TOL:
        raise EntropyBoundError(
            f"spectral measurement entropy {best} does not attain the "
            f"spectral value {h_spec}"
        )

    for start in range(0, n_samples, SAMPLE_CHUNK):
        sampled = _fine_entropies(
            sigma, min(SAMPLE_CHUNK, n_samples - start), rng
        )
        under = np.flatnonzero(sampled < h_spec - SQUEEZE_TOL)
        if under.size:
            raise EntropyBoundError(
                f"sampled fine-grained measurement at entropy "
                f"{float(sampled[under[0]])} undercuts the spectral value "
                f"{h_spec} (sample {start + under[0]})"
            )
        best = min(best, float(sampled.min()))

    return EntropyReport(
        spectral=h_spec,
        decomposition=h_dec,
        fine_grained_upper=best,
        fine_grained_lower=h_spec,
        n_measurements_sampled=n_samples,
    )
