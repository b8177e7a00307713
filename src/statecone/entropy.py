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


def _fine_weights(sigma: State) -> np.ndarray:
    dec = spectral_decompose(sigma.element)
    weights = []
    for lam, mult in zip(dec.eigenvalues, dec.multiplicities):
        weights.extend([lam] * int(round(mult)))
    return np.array(weights)


def spectral_entropy(sigma: State) -> float:
    """Entropy from the spectrum, eigenvalues below cutoff contributing 0."""
    dec = spectral_decompose(sigma.element)
    lam = dec.eigenvalues
    mult = dec.multiplicities
    mask = lam > SUPPORT_CUTOFF
    return float(-np.sum(mult[mask] * lam[mask] * np.log(lam[mask])))


def decomposition_entropy(
    sigma: State, cross_check_samples: int = 0, seed=None
) -> float:
    """Minimal Shannon entropy over decompositions into pure states.

    The minimum is attained by the fine spectral weights; when
    ``cross_check_samples`` is positive, random pure decompositions are
    sampled and each must stay above the returned value.
    """
    value = shannon_entropy(np.clip(_fine_weights(sigma), 0.0, None))
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
        mix = st._random_quaternion_unitary(r, rng)  # (4, r, r)
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
    if s.kind == "spin":
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        top = np.concatenate(([0.5], 0.5 * u))
        bottom = np.concatenate(([0.5], -0.5 * u))
        return _projective_from_basis(algebra, [
            alg.element_from_reps(algebra, [top]),
            alg.element_from_reps(algebra, [bottom]),
        ])
    if s.kind == "real":
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        cols = [
            alg.element_from_reps(algebra, [np.outer(q[:, j], q[:, j])])
            for j in range(n)
        ]
        return _projective_from_basis(algebra, cols)
    if s.kind == "complex":
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(g)
        cols = [
            alg.element_from_reps(
                algebra, [np.outer(q[:, j], q[:, j].conj())]
            )
            for j in range(n)
        ]
        return _projective_from_basis(algebra, cols)
    # quaternion: primitive idempotents of a random symplectic basis
    q = st._random_quaternion_unitary(n, rng)
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


def _entropy_of_probs(p: np.ndarray) -> float:
    mask = p > SUPPORT_CUTOFF
    return float(-np.sum(p[mask] * np.log(p[mask])))


def _projective_probs(kind: str, size: int, m, rng) -> np.ndarray:
    """Outcome probabilities of one random rank-one projective basis,
    computed directly from the matrix representation."""
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
    # quaternion: diagonal of Q^* M Q in quaternion arithmetic
    q = st._random_quaternion_unitary(size, rng)
    mq = alg._quaternion_matmul(m, q)
    qh = st._quaternion_conj_transpose(q)
    full = alg._quaternion_matmul(qh, mq)
    return np.diag(full[0]).copy()


def _sample_fine_probs(sigma: State, rng) -> np.ndarray:
    """Probabilities of a random fine-grained measurement on the state.

    Half the samples are projective bases, the other half overcomplete
    blends of two bases (except on classical factors, where splitting a
    coordinate plays that role).
    """
    s = sigma.algebra.summands[0]
    m = sigma.element.reps()[0]
    first = _projective_probs(s.kind, s.size, m, rng)
    if rng.uniform() < 0.5:
        return first
    t = rng.uniform(0.2, 0.8)
    if s.kind == "classical":
        return np.concatenate([t * first, (1.0 - t) * first])
    second = _projective_probs(s.kind, s.size, m, rng)
    return np.concatenate([t * first, (1.0 - t) * second])


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

    count = 0
    for _ in range(n_samples):
        probs = np.clip(_sample_fine_probs(sigma, rng), 0.0, None)
        h = _entropy_of_probs(probs)
        count += 1
        if h < h_spec - SQUEEZE_TOL:
            raise EntropyBoundError(
                f"sampled fine-grained measurement at entropy {h} "
                f"undercuts the spectral value {h_spec}"
            )
        best = min(best, h)

    return EntropyReport(
        spectral=h_spec,
        decomposition=h_dec,
        fine_grained_upper=best,
        fine_grained_lower=h_spec,
        n_measurements_sampled=count,
    )
