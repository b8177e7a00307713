"""Bregman divergences over state cones and the condition suites.

A generator is a spectral function plus an affine part,
``F(x) = sum f(lam) + <a, x> + t tr x`` over the fine eigenvalues
``lam`` of ``x``.  The divergence of a pair is the first-order gap

    D(rho, sigma) = F(rho) - F(sigma) - <grad F(sigma), rho - sigma>,

in which the affine part cancels: with ``mu`` the fine eigenvalues of
sigma and ``p`` the weights rho puts on their idempotents it is
``sum f(lam) - sum f(mu) - f'(mu) . (p - mu)``.

Generators whose value contains an ``<x, ln x>`` part are support
sensitive: the divergence is ``+inf`` when the first argument has mass
outside the support of the second, and ``f'(mu)`` is read on the
support (the kernel never contributes because the support check has
already passed).

Each randomized suite here (identity, monotonicity, sufficiency,
statistical locality) is a generator
``_<suite>_results(F, algebra, seed, trials)`` of one result per trial,
each drawn from the stream of ``(seed, trial)`` alone.
:func:`statecone.multipartite.run_suite` runs it from the suite table
and judges it in one :func:`judge_trials` pass over
``range(n_trials)``.  A failing trial becomes a witness with its trial
and seed, which replays through the same generator.  Channels come from
the channel catalog and, in the monotonicity suite, also from the draws
behind :func:`statecone.states.random_channel`.  The monotonicity suite
reads each trial's draws from its stream, then builds, checks, pushes
and compares a chunk of trials as one stack, which gives each trial the
violation it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import algebras as alg
from .algebras import (
    Algebra,
    DomainError,
    JordanElement,
    inner_product,
    spectral_decompose,
    trace,
    unit,
)
from . import states as st
from .states import SUPPORT_CUTOFF, SUPPORT_TOL, State

__all__ = [
    "BregmanGenerator",
    "PropertyVerdict",
    "affine_plus_entropy",
    "bregman_divergence",
    "check_bregman_identity",
    "check_locality_theorem",
    "combine_generators",
    "explore_additivity_conjecture",
    "information_divergence",
    "judge_trials",
    "neg_entropy",
    "random_orthogonal_triple",
    "trace_power",
]


# the weights of an affine combination may miss summing to one by this
# much
WEIGHT_SUM_TOL = 1e-10
# a catalog channel's recovery map must return each sufficiency pair
# within this norm, or the suite raises
RECOVERY_TOL = 1e-9
# the conjecture explorer runs on two qubits and judges both of its
# checks at this tolerance
EXPLORER_SIZES = (2, 2)
EXPLORER_TOL = 1e-8


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BregmanGenerator:
    """Convex generator ``F(x) = sum f(lam) + <a, x> + tilt * tr x``.

    ``f`` and its derivative ``df`` act elementwise on arrays of fine
    eigenvalues, so ``sum f(lam)`` is a trace functional.  ``affine``
    pins generators that only make sense on one algebra; without it the
    formula works on any algebra.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    affine: JordanElement | None = None
    tilt: float = 0.0
    entropy_weight: float = 0.0

    @property
    def algebra(self) -> Algebra | None:
        return None if self.affine is None else self.affine.algebra

    @property
    def support_sensitive(self) -> bool:
        return self.entropy_weight != 0.0

    def _affine_part(self, algebra: Algebra) -> JordanElement:
        out = self.tilt * unit(algebra)
        return out if self.affine is None else out + self.affine

    def value(self, x: JordanElement) -> float:
        lam = spectral_decompose(x).values
        return float(self.f(lam).sum()) + inner_product(
            self._affine_part(x.algebra), x
        )


def _log_on_support(lam: np.ndarray) -> np.ndarray:
    return np.log(lam, out=np.zeros_like(lam), where=lam > SUPPORT_CUTOFF)


def _xlogx(lam: np.ndarray) -> np.ndarray:
    return lam * _log_on_support(lam)


def _entropy_f(lam: np.ndarray) -> np.ndarray:
    # fmin skips NaN, so this is true exactly when some value is below
    # the cutoff; the multiply in _xlogx keeps a NaN value NaN
    if np.fmin.reduce(lam, axis=None, initial=np.inf) < -SUPPORT_TOL:
        raise DomainError(
            "negative element outside the entropy domain",
            value=float(lam.min()),
        )
    return _xlogx(np.maximum(lam, 0.0))


def _entropy_df(lam: np.ndarray) -> np.ndarray:
    return _log_on_support(lam) + 1.0


def _power(lam: np.ndarray, p: int) -> np.ndarray:
    return lam ** p


def _power_df(lam: np.ndarray, p: int) -> np.ndarray:
    return p * lam ** (p - 1)


def _weighted_sum(terms, lam: np.ndarray) -> np.ndarray:
    """``sum c * fn(lam)`` over the ``(c, fn)`` pairs of ``terms``."""
    return sum((c * fn(lam) for c, fn in terms), np.zeros_like(lam))


def neg_entropy() -> BregmanGenerator:
    """Generator ``<x, ln x>`` whose divergence is the information
    divergence (relative entropy)."""
    return BregmanGenerator(
        name="neg-entropy",
        f=_entropy_f,
        df=_entropy_df,
        entropy_weight=1.0,
    )


def trace_power(p: int) -> BregmanGenerator:
    """Generator ``tr(x^p)`` for integer p >= 2."""
    if p < 2:
        raise ValueError("trace powers need p >= 2")
    return BregmanGenerator(
        name=f"trace-power-{p}",
        f=partial(_power, p=p),
        df=partial(_power_df, p=p),
    )


def affine_plus_entropy(scale: float, affine: JordanElement) -> BregmanGenerator:
    """Generator ``scale * <x, ln x> + <a, x>``."""
    if scale <= 0:
        raise ValueError("the entropy coefficient must be positive")
    return combine_generators([scale], [neg_entropy()], affine=affine,
                              name=f"entropy-affine-{scale}")


def combine_generators(
    coeffs,
    generators,
    affine: JordanElement | None = None,
    trace_tilt: float = 0.0,
    name: str = "",
) -> BregmanGenerator:
    """Nonnegative combination of generators plus an affine term.

    ``affine`` pins the result to one algebra; ``trace_tilt`` adds the
    algebra-independent affine part ``tilt * tr(x)`` instead.  The
    result is flat: its ``f``, ``df``, affine element and tilt are the
    weighted sums of the parts'.
    """
    terms = [(float(c), g) for c, g in zip(coeffs, generators) if c]
    for c, g in terms:
        if g.affine is not None:
            part = c * g.affine
            affine = part if affine is None else affine + part
    return BregmanGenerator(
        name=name or "+".join(f"{c:g}*{g.name}" for c, g in terms),
        f=partial(_weighted_sum, tuple((c, g.f) for c, g in terms)),
        df=partial(_weighted_sum, tuple((c, g.df) for c, g in terms)),
        affine=affine,
        tilt=trace_tilt + sum(c * g.tilt for c, g in terms),
        entropy_weight=sum(c * g.entropy_weight for c, g in terms),
    )


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------


def _divergence(F: BregmanGenerator, x, mu: np.ndarray, p: np.ndarray):
    """The Bregman gap of ``x`` from a reference with fine eigenvalues
    ``mu``, where ``p[k]`` is the weight ``x`` puts on the reference's
    idempotent ``k``: ``sum f(lam_x) - sum f(mu) - f'(mu) . (p - mu)``.

    The affine and tilt parts of the generator cancel in the gap.  For
    support-sensitive generators a reference outside the positive cone
    raises, and mass of ``x`` outside the reference's support gives
    ``inf``.  ``x`` holds the fine eigenvalues ``lam_x`` over any leading
    axes, which ``mu`` and ``p`` share; the gaps come back as an array of
    those axes, and each gets the bits it would get alone.
    """
    inside = np.True_
    if F.support_sensitive:
        if (mu < -SUPPORT_TOL).any():
            raise DomainError(
                "second argument is not in the positive cone",
                value=float(mu.min()),
            )
        inside = ~(abs(alg._dots(mu <= SUPPORT_CUTOFF, p)) > SUPPORT_TOL)
    # an element outside the support is never read
    lam = np.where(inside[..., None], x, 0.0)
    gap = (F.f(lam).sum(axis=-1) - F.f(mu).sum(axis=-1)
           - alg._dots(F.df(mu), p - mu))
    return np.where(inside, gap, math.inf)


def bregman_divergence(
    F: BregmanGenerator, rho: State | JordanElement, sigma: State | JordanElement
) -> float:
    """First-order gap of the generator; ``inf`` on support violations."""
    x = rho.element if isinstance(rho, State) else rho
    y = sigma.element if isinstance(sigma, State) else sigma
    x._require_same(y)
    _require_algebra(F, x.algebra)
    dec = spectral_decompose(y)
    return float(_divergence(F, spectral_decompose(x).values, dec.values,
                             dec.weights(x)))


def information_divergence(
    rho: State | JordanElement, sigma: State | JordanElement
) -> float:
    """Relative entropy ``<rho, ln rho - ln sigma> - tr(rho - sigma)``.

    Computed directly from the two spectral decompositions; reduces to
    the Kullback-Leibler divergence on classical factors and to quantum
    relative entropy on complex Hermitian factors.
    """
    x = rho.element if isinstance(rho, State) else rho
    y = sigma.element if isinstance(sigma, State) else sigma
    x._require_same(y)
    dy = spectral_decompose(y)
    p = dy.weights(x)
    if abs((dy.values <= SUPPORT_CUTOFF) @ p) > SUPPORT_TOL:
        return math.inf
    dx = spectral_decompose(x)
    value = float(_xlogx(np.clip(dx.values, 0, None)).sum())
    value -= float(_log_on_support(dy.values) @ p)
    value -= trace(x) - trace(y)
    return value


def check_bregman_identity(F, states, weights, sigma: State) -> float:
    """Residual of the affine decomposition identity of the divergence.

    ``weights`` may contain negative entries as long as the combination
    is a state.
    """
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {weights.sum()!r}")
    mean = alg.zero(states[0].element.algebra)
    for t, s in zip(weights, states):
        mean = mean + float(t) * s.element
    bar = State.make(mean)  # raises if the combination leaves the cone
    lhs = sum(
        float(t) * bregman_divergence(F, s, sigma)
        for t, s in zip(weights, states)
    )
    rhs = sum(
        float(t) * bregman_divergence(F, s, bar)
        for t, s in zip(weights, states)
    ) + bregman_divergence(F, bar, sigma)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# property verdicts and suites
# ---------------------------------------------------------------------------


@dataclass
class PropertyVerdict:
    """Outcome of a randomized condition suite."""

    property: str
    trials: int
    worst_violation: float
    tolerance: float
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.worst_violation < self.tolerance

    def as_dict(self) -> dict:
        def scrub(v):
            if isinstance(v, float) and not math.isfinite(v):
                return repr(v)
            return v

        return {
            "property": self.property,
            "trials": self.trials,
            "worst_violation": scrub(self.worst_violation),
            "tolerance": self.tolerance,
            "passed": self.passed,
            "witnesses": self.witnesses,
            "details": {k: scrub(v) for k, v in self.details.items()},
        }


def _violation(after, before):
    """The rise ``after - before``, elementwise; two infinite sides
    agree."""
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(after) & np.isinf(before), 0.0,
                        np.subtract(after, before))


def _gap(a: float, b: float) -> float:
    if math.isinf(a) and math.isinf(b):
        return 0.0
    return abs(a - b)


def _trial_rng(seed, trial: int, stream: int = 0) -> np.random.Generator:
    """The generator of ``default_rng([seed, trial, stream])``, seeded
    with the uint32 words numpy splits those integers into: each one low
    word first, zero as one word."""
    words = []
    for value in (int(seed), int(trial), int(stream)):
        if value < 0:
            raise ValueError(f"expected non-negative integer, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def _require_trials(n_trials: int) -> None:
    if n_trials < 1:
        raise ValueError(f"a suite needs at least one trial, got {n_trials}")


def judge_trials(results,
                 tols: dict[str, float]) -> dict[str, PropertyVerdict]:
    """Judge each check of a suite over its trial results, in order.

    ``results`` yields one dict per trial with its ``trial`` and ``seed``
    and the violation of every check named in ``tols``; its other keys
    are copied into the witnesses of that trial.  A check passes when its
    worst violation stays below its tolerance, and every trial at or over
    the tolerance is recorded as a witness.  A NaN violation is worse
    than any number: it becomes the worst violation and a witness, so the
    check fails.
    """
    worst = dict.fromkeys(tols, -math.inf)
    witnesses = {check: [] for check in tols}
    trials = 0
    for result in results:
        trials += 1
        extras = {k: v for k, v in result.items() if k not in tols}
        for check, tol in tols.items():
            violation = result[check]
            if math.isnan(violation) or violation > worst[check]:
                worst[check] = violation
            if not violation < tol:
                witnesses[check].append({**extras, "violation": violation})
    return {
        check: PropertyVerdict(
            property=check,
            trials=trials,
            worst_violation=worst[check],
            tolerance=tol,
            witnesses=witnesses[check],
        )
        for check, tol in tols.items()
    }


def _full_pair(algebra: Algebra, rng) -> tuple[State, State]:
    return (
        st.random_state(algebra, seed=rng),
        st.random_state(algebra, seed=rng),
    )


def _supports_random_channels(algebra: Algebra) -> bool:
    return algebra.summands[0].kind in st._RANDOM_CHANNEL_NAMES


def _monotonicity_catalog(algebra, seed):
    catalog = st.channel_catalog(algebra, seed=seed)
    catalog = [c for c in catalog if c.affinity.source == algebra]
    # adversarial entries first so even short runs reach them
    catalog.sort(
        key=lambda c: (c.stress_sampler is None, c.pair_sampler is None)
    )
    return catalog


def _require_algebra(F: BregmanGenerator, algebra: Algebra) -> None:
    """Raise unless ``F`` works on ``algebra``: an affine part pins it to
    one."""
    if F.affine is not None and F.affine.algebra != algebra:
        raise alg.AlgebraMismatchError(
            f"operands live in {F.affine.algebra} and {algebra}"
        )


def _stacked_divergences(F, s, reps, values, frames):
    """The divergences of a stack of pairs (axis 1: rho, sigma) on the
    simple summand ``s`` from their reps, fine eigenvalues and frames as
    ``s.ops.frames`` returns them, over the leading axes.  Only the sigma
    side's idempotents are built."""
    idempotents = s.ops.idempotents(frames[:, 1])
    p = s.ops.pairings(idempotents, reps[:, 0])
    return _divergence(F, values[:, 0], values[:, 1], p)


def _pair_draws(entry, rng):
    """The state pair a trial of the catalog ``entry`` draws from ``rng``
    and whether it is built: the diagonals of its stress sampler, else of
    its pair sampler, or else the draws of two states of
    :func:`~statecone.states.random_state` on its source."""
    sampler = entry.stress_sampler or entry.pair_sampler
    if sampler is not None:
        return sampler(rng), True
    s = entry.affinity.source.summands[0]
    return s.ops.draw_states(s.size, s.rank, rng, (2,)), False


def _monotonicity_trials(F, algebra, catalog, seed, trials) -> list:
    """The results of ``trials``, in order: each with its violation and
    channel name.

    Each trial draws from its own stream, in trial order.  On complex and
    classical algebras two trials in three are random-channel trials: the
    channel of :func:`~statecone.states.random_channel` with
    ``env = 1 + trial % n`` and then the two states of
    :func:`~statecone.states.random_state`.  Any other trial ``t`` runs
    ``catalog[(t // 3) % len(catalog)]`` on the pair :func:`_pair_draws`
    draws.  Every channel maps the algebra to itself, so the rest runs on
    the stack of all trials: one build of the drawn states, one
    conversion of the sampled diagonals, one check of the pairs, one
    push of the random-channel trials, one of the catalog trials through
    their maps and one through their recovery maps, one eigensolve of
    all the images and the divergences over the trial axis.  On the
    matrix kinds (real, complex and quaternionic) the eigensolves keep
    their eigenvectors, and idempotents are built only for the sigma
    side of each pair, the one a divergence pairs, and for clipped
    states.  A recovery map is itself a channel; applying it to the
    images turns any drop of the divergence into a rise, so sufficiency
    failures surface here as monotonicity failures too, named
    ``<entry>-recovery`` where the rise is larger.  Every trial gets the
    violation and name, bit for bit, that its channel's
    ``apply_element`` and :func:`bregman_divergence` give it alone.
    """
    _require_algebra(F, algebra)
    randoms = _supports_random_channels(algebra)
    s = st._random_channel_factor(algebra) if randoms else algebra.summands[0]
    # a random-channel trial picks no catalog entry; a trial's pair is
    # sampled as diagonals, or drawn, and either way made into reps with
    # the chunk's other pairs of its kind
    picks, channels, sampled, drawn = [], [], {}, {}
    for i, trial in enumerate(trials):
        rng = _trial_rng(seed, trial)
        if randoms and trial % 3 != 2:
            picks.append(None)
            channel, drawn[i] = st._draw_channel(s, 1 + trial % s.size, rng, 2)
            channels.append(channel)
            continue
        picks.append((trial // 3) % len(catalog))
        pair, built = _pair_draws(catalog[picks[-1]], rng)
        (sampled if built else drawn)[i] = pair
    rep = s.ops.unit(s.size)
    reps = np.empty((len(picks), 2) + rep.shape, rep.dtype)
    if drawn:
        reps[list(drawn)] = s.ops.build_states(np.stack([*drawn.values()]))
    if sampled:
        reps[list(sampled)] = st._diag_reps(s, np.stack([*sampled.values()]))
    # axes (trial, rho or sigma) lead every stack from here on
    reps, values, frames = st._checked_state_stack(s, reps)
    groups = {k: [i for i, pick in enumerate(picks) if pick == k]
              for k in dict.fromkeys(picks)}
    random_rows = groups.pop(None, [])
    entries = [(catalog[k], group) for k, group in groups.items()]
    images, coeffs = st._push_rows(
        s, [(entry.affinity, group) for entry, group in entries], reps)
    if random_rows:
        images[random_rows] = st._random_channel_images(s, channels,
                                                        reps[random_rows])
    recoverable = [(entry.recovery, group) for entry, group in entries
                   if entry.recovery is not None]
    recovered = [i for _, group in recoverable for i in group]
    backs, _ = st._push_rows(s, recoverable, images, coeffs)
    images = np.concatenate([images, backs[recovered]])
    spectra = s.ops.frames(images, s.size)
    before = _stacked_divergences(F, s, reps, values, frames)
    gaps = _stacked_divergences(F, s, images, *spectra)
    after = gaps[:len(picks)]
    violation = _violation(after, before)
    rise = np.full(len(picks), -math.inf)
    rise[recovered] = _violation(gaps[len(picks):], after[recovered])
    worse = rise > violation
    random_name = st._RANDOM_CHANNEL_NAMES.get(s.kind)
    return [
        {"trial": t, "seed": seed, "monotonicity": v,
         "channel": f"random-{random_name}-env{1 + t % s.size}" if k is None
         else f"{catalog[k].name}-recovery" if w else catalog[k].name}
        for v, w, k, t in zip(np.where(worse, rise, violation).tolist(),
                              worse.tolist(), picks, trials)
    ]


# a chunk of trials, whose draws are held and stacked at once, holds at
# most _TRIAL_CHUNK trials and _CHUNK_BYTES of their idempotent stacks
_TRIAL_CHUNK = 512
_CHUNK_BYTES = 32 * 2**20


def _frame_bytes(s) -> int:
    """The bytes of the idempotent stack of one state on the simple
    summand ``s``: one rep per primitive idempotent."""
    return s.rank * s.ops.unit(s.size).nbytes


def _in_chunks(run, trials, trial_bytes: int):
    """Yield the results ``run`` gives each chunk of ``trials``, in order,
    so a stacked suite holds one chunk at a time: up to ``_TRIAL_CHUNK``
    trials and ``_CHUNK_BYTES`` of ``trial_bytes`` each, but at least one
    trial.  Each chunk is a slice, so a range of trials is never listed."""
    size = max(1, min(_TRIAL_CHUNK, _CHUNK_BYTES // trial_bytes))
    for start in range(0, len(trials), size):
        yield from run(trials[start:start + size])


def _monotonicity_results(F, algebra, seed, trials):
    """Yield the result of each of ``trials``, in order, each chunk as one
    stack."""
    catalog = _monotonicity_catalog(algebra, seed)
    # a trial's pair, its images and their recoveries each count a stack
    # of idempotents, though trials on the matrix kinds build only the
    # sigma sides'
    yield from _in_chunks(
        partial(_monotonicity_trials, F, algebra, catalog, seed), trials,
        6 * _frame_bytes(algebra.summands[0]))


def _identity_results(F, algebra, seed, trials):
    """Yield the identity residual of each of ``trials``, in order.

    Every third trial uses an affine combination with a negative weight,
    rejection-sampled to stay inside the cone.
    """
    for trial in trials:
        rng = _trial_rng(seed, trial)
        sigma = st.random_state(algebra, seed=rng)
        k = 2 + int(rng.integers(0, 2))
        states = [st.random_state(algebra, seed=rng) for _ in range(k)]
        if trial % 3 == 2:
            for _ in range(50):
                head = 1.0 + float(rng.uniform(0.01, 0.4))
                weights = np.concatenate(
                    [[head], rng.dirichlet(np.ones(k - 1)) * (1.0 - head)]
                )
                mean = sum(
                    float(t) * s.element.coeffs
                    for t, s in zip(weights, states)
                )
                candidate = alg.JordanElement(algebra, mean)
                eigs = spectral_decompose(candidate).values
                if float(np.min(eigs)) >= 0.0:
                    break
            else:
                weights = rng.dirichlet(np.ones(k))
        else:
            weights = rng.dirichlet(np.ones(k))
        yield {"trial": trial, "seed": seed, "bregman-identity":
               check_bregman_identity(F, states, weights, sigma)}


def replay_monotonicity_trial(F, algebra, seed, trial):
    """Recompute the violation of a recorded witness."""
    result, = _monotonicity_results(F, algebra, seed, [trial])
    return result["monotonicity"]


def _sufficiency_results(F, algebra, seed, trials):
    """Yield the divergence gap and channel name of each of ``trials``.

    Trial ``t`` draws a pair for the ``t``-th catalog channel that carries
    a recovery map, verifies the recovery on that pair, then compares
    divergences before and after the channel.
    """
    catalog = [
        c for c in st.channel_catalog(algebra, seed=seed)
        if c.recovery is not None
        and (F.algebra is None or c.affinity.source == algebra)
    ]
    for trial in trials:
        entry = catalog[trial % len(catalog)]
        source = entry.affinity.source
        pair, built = _pair_draws(entry, _trial_rng(seed, trial))
        summand = source.summands[0]
        pair = (st._diag_reps(summand, np.stack(pair)) if built
                else summand.ops.build_states(np.stack(pair)))
        rho, sigma = (State.make(alg.element_from_reps(source, [rep]))
                      for rep in pair)
        for s in (rho, sigma):
            back = entry.recovery.apply_element(
                entry.affinity.apply_element(s.element)
            )
            gap = alg.norm(back - s.element)
            if gap > RECOVERY_TOL:
                raise RuntimeError(
                    f"catalog pair {entry.name} failed recovery by {gap:.2e}"
                )
        before = bregman_divergence(F, rho, sigma)
        after = bregman_divergence(
            F,
            entry.affinity.apply_element(rho.element),
            entry.affinity.apply_element(sigma.element),
        )
        yield {"trial": trial, "seed": seed,
               "sufficiency": _gap(after, before), "channel": entry.name}


def random_orthogonal_triple(algebra: Algebra, rng):
    """A state with two companions singular to it.

    The companions share the complement of the first state's support and
    may overlap each other.  Below rank 3, spin factors included, that
    complement is a single pure state, so the companions would coincide
    and comparisons would be vacuous: those algebras raise
    :class:`~statecone.states.UnsupportedAlgebraError`.
    """
    s = algebra.summands[0]
    n, rank = s.size, s.rank
    if rank < 3:
        raise st.UnsupportedAlgebraError(
            "singular companions with varying shape need rank at least 3"
        )
    cut = 1 + int(rng.integers(0, rank - 2))
    head = list(range(0, cut))
    tail = list(range(cut, rank))

    def weights(block):
        w = np.zeros(rank)
        w[block] = rng.dirichlet(np.ones(len(block)))
        return w

    q = s.ops.random_frames(n, rng)
    if q is None:
        # a classical state is its weights
        make = lambda w: alg.element_from_reps(algebra, [w[:n]])
    else:
        # a quaternionic weight sits on a Kramers pair of columns
        make = lambda w: alg.element_from_reps(
            algebra, [(q * np.repeat(w, len(q) // n)) @ q.conj().T]
        )
    return (
        State.make(make(weights(head))),
        State.make(make(weights(tail))),
        State.make(make(weights(tail))),
    )


def _pure_entropy(F: BregmanGenerator) -> bool:
    return F.entropy_weight == 1.0 and F.name == "neg-entropy"


def _locality_results(F, algebra, seed, trials):
    """Yield the locality gap and mixing weight ``t`` of each of
    ``trials``, and for the plain entropy generator the residual of the
    common value against ``-ln(1-t)``."""
    pure_entropy = _pure_entropy(F)
    for trial in trials:
        rng = _trial_rng(seed, trial)
        rho, sig1, sig2 = random_orthogonal_triple(algebra, rng)
        t = float(rng.uniform(0.05, 0.95))
        mix1 = State.make((1.0 - t) * rho.element + t * sig1.element)
        mix2 = State.make((1.0 - t) * rho.element + t * sig2.element)
        d1 = bregman_divergence(F, rho, mix1)
        d2 = bregman_divergence(F, rho, mix2)
        out = {"trial": trial, "seed": seed,
               "statistical-locality": _gap(d1, d2), "t": t}
        if pure_entropy:
            out["value_residual"] = max(
                abs(d1 + math.log1p(-t)), abs(d2 + math.log1p(-t))
            )
        yield out


def check_locality_theorem(
    F: BregmanGenerator,
    algebra: Algebra,
    n_states: int = 400,
    seed: int = 0,
):
    """Least-squares fit of the generator against entropy plus affine.

    Returns ``(c, residual)``: the fitted entropy coefficient and the
    worst absolute deviation of the fit over the sampled states.
    """
    if algebra.rank < 3:
        raise st.UnsupportedAlgebraError("the fit needs rank at least 3")
    rng = np.random.default_rng(seed)
    ent = neg_entropy()
    rows = []
    targets = []
    for _ in range(n_states):
        s = st.random_state(algebra, seed=rng)
        rows.append(
            np.concatenate(([ent.value(s.element)], s.element.coeffs))
        )
        targets.append(F.value(s.element))
    design = np.array(rows)
    y = np.array(targets)
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.max(np.abs(design @ beta - y)))
    return float(beta[0]), residual


# ---------------------------------------------------------------------------
# conjecture explorer
# ---------------------------------------------------------------------------


def _explorer_family(n_generators, rng):
    """Mixtures of entropy and trace powers plus trace-proportional
    tilts (the only affine parts defined across all the algebras an
    additivity check touches); the first entries are deterministic
    reference generators."""
    ent = neg_entropy()
    t2 = trace_power(2)
    t3 = trace_power(3)
    fixed = [
        ent,
        combine_generators([2.5], [ent], trace_tilt=0.3,
                           name="entropy-affine-2.5"),
        t2,
        t3,
    ]
    out = list(fixed[:n_generators])
    while len(out) < n_generators:
        if rng.uniform() < 0.25:
            coeffs = np.array([rng.uniform(0.5, 2.0), 0.0, 0.0])
        else:
            coeffs = rng.dirichlet(np.ones(3))
        tilt = float(rng.uniform(-0.2, 0.2)) if rng.uniform() < 0.5 else 0.0
        out.append(
            combine_generators(
                coeffs, [ent, t2, t3], trace_tilt=tilt,
                name=f"mix-{len(out)}-{coeffs.round(3).tolist()}",
            )
        )
    return out


def explore_additivity_conjecture(
    n_generators: int = 50,
    n_trials: int = 40,
    seed: int = 0,
) -> dict:
    """Search the generator family for monotone-but-not-additive members.

    Every sampled generator gets a sampled monotonicity verdict on the
    composite algebra and an additivity verdict over random product
    quadruples; any generator passing the first while failing the second
    is flagged with full witness data.
    """
    from . import multipartite as mp

    layout = st.composite_layout(st.COMPLEX_TENSOR, EXPLORER_SIZES)
    rng = np.random.default_rng([seed, 99])
    generators = _explorer_family(n_generators, rng)

    rows = []
    table = {(True, True): 0, (True, False): 0,
             (False, True): 0, (False, False): 0}
    flagged = []
    for idx, G in enumerate(generators):
        mono, = mp.run_suite(
            "mono", G, layout.ambient, n_trials, seed=seed + idx,
            tols={"monotonicity": EXPLORER_TOL}).values()
        residuals = []
        for trial in range(n_trials):
            trial_rng = _trial_rng(seed + idx, trial, stream=7)
            rho_a, sigma_a = _full_pair(layout.factors[0], trial_rng)
            rho_b, sigma_b = _full_pair(layout.factors[1], trial_rng)
            residuals.append(mp.check_additivity(
                G, rho_a, rho_b, sigma_a, sigma_b, layout
            ))
        add = judge_trials(
            ({"trial": t, "seed": seed + idx, "additivity": r}
             for t, r in enumerate(residuals)),
            {"additivity": EXPLORER_TOL})["additivity"]
        add_worst, additive = add.worst_violation, add.passed
        table[(mono.passed, additive)] += 1
        row = {
            "generator": G.name,
            "monotone": mono.passed,
            "worst_monotonicity_violation": mono.worst_violation,
            "additive": additive,
            "worst_additivity_residual": add_worst,
        }
        if mono.passed and not additive:
            # the first trial with the worst residual; a NaN is the worst
            trial = next(t for t, r in enumerate(residuals)
                         if r == add_worst or math.isnan(r))
            row["counterexample_witness"] = {
                "trial": trial, "seed": seed + idx,
                "residual": residuals[trial]}
            flagged.append(row)
        rows.append(row)

    return {
        "generators": rows,
        "contingency": {
            "monotone_and_additive": table[(True, True)],
            "monotone_not_additive": table[(True, False)],
            "not_monotone_additive": table[(False, True)],
            "not_monotone_not_additive": table[(False, False)],
        },
        "potential_counterexamples": flagged,
        "n_generators": len(generators),
        "trials_per_generator": n_trials,
        "seed": seed,
    }
