"""Entropy of states: spectral, decomposition and fine-grained forms.

The three expressions coincide on the algebras handled here; the module
computes the spectral value directly, reduces the decomposition form to
it through the fine eigenvalues, one per primitive idempotent of the
spectral Jordan frame, and certifies the fine-grained
infimum by a two-sided squeeze: sampled fine-grained measurements may
never fall below the spectral value, and the spectral measurement must
attain it.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .algebras import SimpleFactor, spectral_decompose
from . import states as st
from .states import (
    NORMALIZATION_TOL,
    SUPPORT_CUTOFF,
    State,
    measure,
)

__all__ = [
    "EntropyBoundError",
    "EntropyReport",
    "decomposition_entropy",
    "fine_grained_entropy_bound",
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


def shannon_entropy(p) -> float:
    """Shannon entropy in nats, with 0 ln 0 = 0.

    The vector is renormalized if its sum is within ``NORMALIZATION_TOL``
    of one; entries below ``-NORMALIZATION_TOL`` are rejected.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < -NORMALIZATION_TOL):
        raise ValueError(f"negative probability {p.min()!r}")
    total = p.sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"probabilities sum to {total!r}")
    p = np.clip(p, 0.0, None) / total
    mask = p > SUPPORT_CUTOFF
    return float(np.sum(-p[mask] * np.log(p[mask])))


def spectral_entropy(sigma: State) -> float:
    """Entropy from the spectrum, eigenvalues below cutoff contributing 0."""
    lam = spectral_decompose(sigma.element).values
    mask = lam > SUPPORT_CUTOFF
    return float(np.sum(-lam[mask] * np.log(lam[mask])))


def decomposition_entropy(sigma: State) -> float:
    """Minimal Shannon entropy over decompositions into pure states,
    attained by the fine spectral weights."""
    return shannon_entropy(np.clip(sigma.spectrum(), 0.0, None))


# ---------------------------------------------------------------------------
# random fine-grained measurements
# ---------------------------------------------------------------------------


def _fine_draws(s: SimpleFactor, n_samples: int, rng, bases):
    """The draws behind ``n_samples`` random fine-grained measurements on
    the simple factor ``s``.

    Half the samples are projective bases, the other half overcomplete
    blends ``t * first + (1 - t) * second`` of two bases (except on
    classical factors, where splitting each coordinate of the fixed
    basis plays that role).  Two streams feed them, each read in sample
    order: ``rng`` gives every sample a coin and a blend weight, and
    ``bases`` gives each sample's first basis, then its second if it
    blends.  Consecutive calls therefore draw what one call over all
    their samples draws.  Returns which samples blend, each one's weight
    ``t`` on its first basis (1 if it does not blend), and the frames of
    all bases in draw order, made in one call (``None`` on classical
    factors).
    """
    coin, u = rng.uniform(size=(n_samples, 2)).T
    blend = coin >= 0.5
    t = np.where(blend, 0.2 + 0.6 * u, 1.0)
    return blend, t, s.ops.random_frames(s.size, bases,
                                         (int(n_samples + blend.sum()),))


def _basis_probs(kind: str, m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Outcome probabilities of the state with representation ``m`` in a
    stack of frames of the kind's ``random_frames``, one row per
    basis."""
    if kind == "spin":
        # a matrix-vector product would not sum as the 1-D dots do
        overlap = (q[:, None, :] @ m[1:, None])[:, 0, 0]
        return np.stack([0.5 + overlap, 0.5 - overlap], axis=-1)
    if kind == "quaternion":
        q = q[..., ::2]  # both vectors of a Kramers pair score the same
    # every basis vector of the stack in one product with m; each basis
    # gets the bits its own product q^H m would give
    rows = np.swapaxes(q, -1, -2)
    mq = (rows.conj().reshape(-1, m.shape[0]) @ m).reshape(rows.shape)
    return np.einsum("sik,sik->si", mq, rows).real


def _row_entropies(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of ``p``, with 0 ln 0 = 0.

    Rows with equal support sizes are reduced together, each over its
    support alone, so every row gets the bits that summing its support
    as one vector gives (a zero-filled row of 8 or more entries would
    be summed in another order).
    """
    mask = p > SUPPORT_CUTOFF
    terms = -p[mask] * np.log(p[mask])
    counts = mask.sum(axis=-1)
    starts = np.cumsum(counts) - counts
    h = np.empty(len(p))
    # the distinct counts, sorted; np.unique would import numpy.ma
    for k in np.flatnonzero(np.bincount(counts)):
        rows = np.flatnonzero(counts == k)
        h[rows] = terms[starts[rows, None] + np.arange(k)].sum(axis=-1)
    return h


def _fine_entropies(sigma: State, n_samples: int, rng, bases) -> np.ndarray:
    """Entropies of ``n_samples`` random fine-grained measurements, drawn
    by :func:`_fine_draws` and scored as one stack."""
    s = sigma.algebra.summands[0]
    m = sigma.element.reps()[0]
    blend, t, frames = _fine_draws(s, n_samples, rng, bases)
    if frames is None:
        first = second = m[None, :]
    else:
        count = 1 + blend
        at = np.cumsum(count) - count
        probs = _basis_probs(s.kind, m, frames)
        first, second = probs[at], probs[at + blend]
    t = t[:, None]
    p = np.concatenate([t * first, (1.0 - t) * second], axis=1)
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
    bases = rng.spawn(1)[0]
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
            sigma, min(SAMPLE_CHUNK, n_samples - start), rng, bases
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
