"""Two-party binary no-signaling boxes and the CHSH landscape.

A box is the conditional table p(a,b|x,y) for binary inputs and outputs.
The module provides the extremal examples (deterministic, white noise,
the algebraically maximal box), boxes induced by measuring a two-qubit
state at X-Z plane angles, and a coordinate-ascent optimizer over the
four measurement angles on the maximally entangled state, which reaches
the quantum ceiling of 2*sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebras as alg
from . import states as st
from .states import State

__all__ = [
    "NoSignalingBox",
    "QuantumStrategy",
    "bell_state",
    "box_from_quantum",
    "chsh_value",
    "deterministic_box",
    "maximize_quantum_chsh",
    "mix_boxes",
    "pr_box",
    "white_noise_box",
]

BOX_TOL = 1e-12
# boxes read from files or handed to chsh_value are checked this loosely
INPUT_BOX_TOL = 1e-10
# a restart of the CHSH optimizer stops when a round gains less than
# CHSH_VALUE_TOL, or after CHSH_MAX_ROUNDS rounds
CHSH_VALUE_TOL = 1e-9
CHSH_MAX_ROUNDS = 60


@dataclass(frozen=True)
class NoSignalingBox:
    """Conditional probability table indexed ``table[x][y][a][b]``."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape != (2, 2, 2, 2):
            raise ValueError(f"expected a 2x2x2x2 table, got {t.shape}")
        object.__setattr__(self, "table", t)

    def validate(self, tol: float = BOX_TOL) -> None:
        t = self.table
        if not np.all(np.isfinite(t)):
            raise ValueError("probabilities must be finite numbers")
        if np.any(t < -tol):
            raise ValueError(f"negative probability {t.min()!r}")
        sums = t.sum(axis=(2, 3))
        if np.max(np.abs(sums - 1.0)) > tol:
            raise ValueError(f"settings do not normalize: {sums}")
        gap = self.no_signaling_residual()
        if gap > tol:
            raise ValueError(f"signaling residual {gap:.3e}")

    def no_signaling_residual(self) -> float:
        t = self.table
        alice = t.sum(axis=3)  # p(a|x, y)
        bob = t.sum(axis=2)    # p(b|x, y)
        return float(
            max(
                np.max(np.abs(alice[:, 0, :] - alice[:, 1, :])),
                np.max(np.abs(bob[0, :, :] - bob[1, :, :])),
            )
        )

    def correlator(self, x: int, y: int) -> float:
        signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
        return float(np.sum(self.table[x, y] * signs))


def chsh_value(box: NoSignalingBox) -> float:
    """E00 + E01 + E10 - E11 with parity correlators."""
    box.validate(tol=INPUT_BOX_TOL)
    return (
        box.correlator(0, 0)
        + box.correlator(0, 1)
        + box.correlator(1, 0)
        - box.correlator(1, 1)
    )


def pr_box() -> NoSignalingBox:
    """The box with a XOR b = x AND y and uniform marginals."""
    t = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a ^ b) == (x & y):
                        t[x, y, a, b] = 0.5
    return NoSignalingBox(t)


def white_noise_box() -> NoSignalingBox:
    return NoSignalingBox(np.full((2, 2, 2, 2), 0.25))


def deterministic_box(fa=(0, 0), fb=(0, 0)) -> NoSignalingBox:
    """Outputs fixed by local functions a = fa[x], b = fb[y]."""
    t = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            t[x, y, fa[x], fb[y]] = 1.0
    return NoSignalingBox(t)


def mix_boxes(boxes, weights) -> NoSignalingBox:
    weights = np.asarray(weights, dtype=float)
    table = sum(w * b.table for w, b in zip(weights, boxes))
    return NoSignalingBox(table)


# ---------------------------------------------------------------------------
# quantum strategies
# ---------------------------------------------------------------------------

_LAYOUT_22 = st.composite_layout(st.COMPLEX_TENSOR, (2, 2))


def bell_state() -> State:
    """The maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1.0 / math.sqrt(2.0)
    rep = np.outer(vec, vec.conj())
    return State.make(
        alg.element_from_reps(_LAYOUT_22.ambient, [rep]), _LAYOUT_22
    )


@dataclass(frozen=True)
class QuantumStrategy:
    """A two-qubit state with one X-Z measurement angle per setting."""

    state: State
    alice_angles: tuple[float, float]
    bob_angles: tuple[float, float]


def _angle_projectors(thetas) -> np.ndarray:
    """Eigenprojectors of cos(theta) Z + sin(theta) X for each of the
    angles ``thetas``, indexed ``[setting, outcome]``, outcome 0 first."""
    direction = np.array(
        [[[math.cos(theta), math.sin(theta)],
          [math.sin(theta), -math.cos(theta)]] for theta in thetas],
        dtype=complex,
    )
    eye = np.eye(2, dtype=complex)
    return 0.5 * np.stack((eye + direction, eye - direction), axis=1)


def box_from_quantum(strategy: QuantumStrategy) -> NoSignalingBox:
    """Outcome table of the strategy via the trace inner product: the 16
    products of the parties' projectors are built, converted to
    coefficients and paired with the state as one stack."""
    state = strategy.state
    if state.algebra != _LAYOUT_22.ambient:
        raise alg.AlgebraMismatchError(
            f"a strategy measures a state of {_LAYOUT_22.ambient}, got one "
            f"of {state.algebra}"
        )
    pa = _angle_projectors(strategy.alice_angles)
    pb = _angle_projectors(strategy.bob_angles)
    # effects[x, y, a, b] = kron(pa[x, a], pb[y, b])
    effects = (pa[:, None, :, None, :, None, :, None]
               * pb[None, :, None, :, None, :, None, :]).reshape(
                   2, 2, 2, 2, 4, 4)
    ops = state.algebra.summands[0].ops
    coeffs = ops.to_coeffs(ops.symmetric_part(effects), 4)
    return NoSignalingBox(np.clip(alg._dots(coeffs, state.element.coeffs),
                                  0.0, None))


_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# kron(s_i, s_j) for s in (Z, X), indexed [i, j]
_ZX_PAIRS = np.array([[np.kron(si, sj) for sj in (_Z, _X)]
                      for si in (_Z, _X)])


def _correlation_tensor(state: State) -> np.ndarray:
    """Expectations <s_i x s_j> for s in (Z, X); correlators at X-Z plane
    angles are bilinear in (cos, sin) against this tensor."""
    products = _ZX_PAIRS @ state.element.reps()[0]
    return np.trace(products, axis1=-2, axis2=-1).real


def _direction(theta: float) -> tuple[float, float]:
    return math.cos(theta), math.sin(theta)


def _chsh_of_directions(t, d) -> float:
    """CHSH objective ``a0.T(b0 + b1) + a1.T(b0 - b1)`` of the vectors
    ``d = (a0, a1, b0, b1)`` and the correlation tensor ``T``."""
    a0, a1, b0, b1 = d
    value = 0.0
    for a, sign in ((a0, 1.0), (a1, -1.0)):
        b = (b0[0] + sign * b1[0], b0[1] + sign * b1[1])
        value += a[0] * (t[0][0] * b[0] + t[0][1] * b[1]) \
            + a[1] * (t[1][0] * b[0] + t[1][1] * b[1])
    return value


def _best_angle(t, d, i: int, center: float) -> float:
    """The exact maximiser of the objective along angle ``i``.

    The objective is affine in each vector ``d[i] = (cos v, sin v)``,
    so along one angle it is ``A cos v + B sin v + C``, with ``C`` its
    value at ``d[i] = 0`` and ``A``, ``B`` the rises to ``(1, 0)`` and
    ``(0, 1)``.  The maximiser ``atan2(B, A)`` is moved by whole turns
    into ``[center - pi, center + pi]``.
    """
    q = list(d)
    f = []
    for x in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)):
        q[i] = x
        f.append(_chsh_of_directions(t, q))
    v = math.atan2(f[2] - f[0], f[1] - f[0])
    return v + 2.0 * math.pi * round((center - v) / (2.0 * math.pi))


def maximize_quantum_chsh(seed: int = 0, restarts: int = 10):
    """Multi-start coordinate ascent over the four measurement angles on
    the maximally entangled state.

    Along each angle the objective is a sinusoid, so every step moves
    that angle to its exact maximiser; a restart stops when a round
    gains less than ``CHSH_VALUE_TOL`` or after ``CHSH_MAX_ROUNDS``
    rounds.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    rng = np.random.default_rng(seed)
    state = bell_state()
    tensor = _correlation_tensor(state).tolist()
    best_value, best = -math.inf, None

    for _ in range(restarts):
        params = rng.uniform(0.0, 2.0 * math.pi, size=4).tolist()
        dirs = [_direction(v) for v in params]
        current = _chsh_of_directions(tensor, dirs)
        for _ in range(CHSH_MAX_ROUNDS):
            previous = current
            for i in range(4):
                params[i] = _best_angle(tensor, dirs, i, params[i])
                dirs[i] = _direction(params[i])
            current = _chsh_of_directions(tensor, dirs)
            if current - previous < CHSH_VALUE_TOL:
                break
        if current > best_value:
            best_value, best = current, params

    return best_value, QuantumStrategy(
        state, (best[0], best[1]), (best[2], best[3])
    )
