"""A cross-kind oracle from the Jordan isomorphisms.

The five kinds decompose through different code paths: ``eigh`` on real
and complex reps, Kramers frames on quaternionic ones, the radius
formula on spin factors and the diagonal on classical ones.  Jordan
theory ties them together exactly: ``S2 = R2``, ``S3 = C2`` and
``S5 = H2``, and ``P_n`` sits in ``R_n``, ``R_n`` in ``C_n`` and ``C_n``
in ``H_n`` by restricting the entries.  Each map below is a Jordan
isomorphism onto its image that keeps the trace, so spectra, entropies,
products and Bregman divergences must agree across it.  A change that
broke two kinds the same way would pass every same-kind reference, but
not these.

A spin rep ``(t, v1, ..., vd)`` maps to the 2x2 matrix
``[[t + v1, q], [conj(q), t - v1]]``, with ``q`` the real ``v2`` on
``R2``, the complex ``v2 - i v3`` on ``C2`` and the quaternion
``v2 + v3 i + v4 j + v5 k`` on ``H2``.
"""

import numpy as np
import pytest

from statecone import algebras as ja
from statecone import bregman as br
from statecone import entropy as en
from statecone import states as st

PAIRS = 300
SPECTRUM_TOL = 1e-13
PRODUCT_TOL = 1e-14
TRACE_POWER_TOL = 1e-13
# the two sides diagonalize with different eigensolvers; near a small
# eigenvalue of sigma (4e-6 at seed 0 on R4 -> C4) the log amplifies
# their rounding to about 1e-11, while each side matches its own
# information divergence within 2e-15
NEG_ENTROPY_TOL = 1e-10


def _spin_to_real(rep):
    t, v1, v2 = rep
    return np.array([[t + v1, v2], [v2, t - v1]])


def _spin_to_complex(rep):
    t, v1, v2, v3 = rep
    q = v2 - 1j * v3
    return np.array([[t + v1, q], [np.conj(q), t - v1]])


def _spin_to_quaternion(rep):
    t, v1, *q = rep
    parts = np.zeros((4, 2, 2))
    parts[0] = [[t + v1, q[0]], [q[0], t - v1]]
    # the imaginary parts of a Hermitian matrix are skew
    parts[1:, 0, 1] = q[1:]
    parts[1:, 1, 0] = np.negative(q[1:])
    return ja._quaternion_embedding(parts)


def _real_to_complex(rep):
    return rep.astype(complex)


def _complex_to_quaternion(rep):
    return ja._embed_blocks(rep, np.zeros_like(rep))


MAPS = [
    (ja.spin_factor(2), ja.real_hermitian(2), _spin_to_real),
    (ja.spin_factor(3), ja.complex_hermitian(2), _spin_to_complex),
    (ja.spin_factor(5), ja.quaternion_hermitian(2), _spin_to_quaternion),
] + [
    (source(n), target(n), fn)
    for source, target, fn in [
        (ja.classical, ja.real_hermitian, np.diag),
        (ja.real_hermitian, ja.complex_hermitian, _real_to_complex),
        (ja.complex_hermitian, ja.quaternion_hermitian,
         _complex_to_quaternion),
    ]
    for n in (2, 3, 4)
]


def _transport(target, fn, x):
    """The image of the element ``x`` of a simple algebra on ``target``."""
    return ja.element_from_reps(target, [fn(x.reps()[0])])


def _worst_gaps(source, target, fn):
    """The largest gap of each compared quantity over the state pairs
    drawn on ``source`` and their images on ``target``."""
    rng = np.random.default_rng(0)
    generators = [br.trace_power(2), br.trace_power(3), br.neg_entropy()]
    gaps = {"spectrum": 0.0, "entropy": 0.0, "product": 0.0,
            "trace-power-2": 0.0, "trace-power-3": 0.0, "neg-entropy": 0.0}

    def note(key, a, b):
        gaps[key] = max(gaps[key], float(np.max(np.abs(a - b))))

    for _ in range(PAIRS):
        pair = [st.random_state(source, seed=rng) for _ in range(2)]
        images = [st.State.make(_transport(target, fn, x.element))
                  for x in pair]
        for x, y in zip(pair, images):
            note("spectrum", x.spectrum(), y.spectrum())
            note("entropy", en.spectral_entropy(x), en.spectral_entropy(y))
        a, b = (x.element for x in pair)
        moved = _transport(target, fn, ja.jordan_product(a, b))
        product = ja.jordan_product(*(y.element for y in images))
        note("product", moved.coeffs, product.coeffs)
        for F in generators:
            note(F.name, br.bregman_divergence(F, *pair),
                 br.bregman_divergence(F, *images))
    return gaps


@pytest.mark.parametrize(
    "source,target,fn", MAPS,
    ids=[f"{source}-{target}" for source, target, _ in MAPS])
def test_isomorphism_keeps_spectra_products_and_divergences(source, target,
                                                            fn):
    gaps = _worst_gaps(source, target, fn)
    bounds = {"spectrum": SPECTRUM_TOL, "entropy": SPECTRUM_TOL,
              "product": PRODUCT_TOL, "trace-power-2": TRACE_POWER_TOL,
              "trace-power-3": TRACE_POWER_TOL,
              "neg-entropy": NEG_ENTROPY_TOL}
    assert {k: v for k, v in gaps.items() if not v <= bounds[k]} == {}, gaps

