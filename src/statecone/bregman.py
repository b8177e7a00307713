"""Bregman divergences over state cones and the condition suites.

A generator is a differentiable convex function on the cone together
with its gradient.  The divergence of a pair is the first-order gap

    D(rho, sigma) = F(rho) - F(sigma) - <grad F(sigma), rho - sigma>.

Generators whose value contains an ``<x, ln x>`` part are support
sensitive: the divergence is ``+inf`` when the first argument has mass
outside the support of the second, and gradients are computed on the
support (the kernel never contributes because the support check has
already passed).

The randomized suites (monotonicity, sufficiency, statistical locality)
draw their channels from :func:`statecone.states.random_channel` and the
channel catalog; every trial is reproducible from ``(seed, trial)`` and
failing trials are recorded as replayable witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .states import SUPPORT_CUTOFF, State

__all__ = [
    "Action",
    "BregmanGenerator",
    "PropertyVerdict",
    "affine_plus_entropy",
    "bregman_divergence",
    "check_bregman_identity",
    "check_identity",
    "check_locality_theorem",
    "check_monotonicity",
    "check_statistical_locality",
    "check_sufficiency",
    "combine_generators",
    "explore_additivity_conjecture",
    "free_energy",
    "information_divergence",
    "neg_entropy",
    "random_orthogonal_triple",
    "regret",
    "run_trials",
    "tangent_action",
    "trace_power",
]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BregmanGenerator:
    """Convex generator on the state cone with an explicit gradient.

    ``algebra`` pins generators that only make sense on one algebra
    (affine tilts); ``None`` means the formula works on any algebra.
    """

    name: str
    value: Callable[[JordanElement], float]
    gradient: Callable[[JordanElement], JordanElement]
    domain_note: str = ""
    entropy_weight: float = 0.0
    algebra: Algebra | None = None

    @property
    def support_sensitive(self) -> bool:
        return self.entropy_weight != 0.0


def _xlogx(lam: np.ndarray) -> np.ndarray:
    out = np.zeros_like(lam)
    mask = lam > SUPPORT_CUTOFF
    out[mask] = lam[mask] * np.log(lam[mask])
    return out


def _entropy_value(x: JordanElement) -> float:
    dec = spectral_decompose(x)
    if np.any(dec.values < -1e-9):
        raise DomainError(
            "negative element outside the entropy domain",
            value=float(dec.values.min()),
        )
    return float(_xlogx(np.clip(dec.values, 0, None)) @ dec.weights)


def log_on_support(x: JordanElement) -> JordanElement:
    """Spectral logarithm with kernel directions mapped to zero."""
    dec = spectral_decompose(x)
    logs = np.log(dec.values, out=np.zeros_like(dec.values),
                  where=dec.values > SUPPORT_CUTOFF)
    return JordanElement(x.algebra, logs @ dec.rows)


def neg_entropy() -> BregmanGenerator:
    """Generator ``<x, ln x>`` whose divergence is the information
    divergence (relative entropy)."""

    def value(x: JordanElement) -> float:
        return _entropy_value(x)

    def gradient(x: JordanElement) -> JordanElement:
        return log_on_support(x) + unit(x.algebra)

    return BregmanGenerator(
        name="neg-entropy",
        value=value,
        gradient=gradient,
        domain_note="finite on the positive cone; gradient on the support",
        entropy_weight=1.0,
    )


def trace_power(p: int) -> BregmanGenerator:
    """Generator ``tr(x^p)`` for integer p >= 2."""
    if p < 2:
        raise ValueError("trace powers need p >= 2")

    def value(x: JordanElement) -> float:
        dec = spectral_decompose(x)
        return float(dec.values ** p @ dec.weights)

    def gradient(x: JordanElement) -> JordanElement:
        if p == 2:
            return 2.0 * x
        if p == 3:
            return 3.0 * alg.jordan_product(x, x)
        return float(p) * alg.apply_function(x, lambda lam: lam ** (p - 1))

    return BregmanGenerator(
        name=f"trace-power-{p}",
        value=value,
        gradient=gradient,
        domain_note="smooth everywhere; convex on the positive cone",
    )


def affine_plus_entropy(scale: float, affine: JordanElement) -> BregmanGenerator:
    """Generator ``scale * <x, ln x> + <a, x>``."""
    if scale <= 0:
        raise ValueError("the entropy coefficient must be positive")

    def value(x: JordanElement) -> float:
        return scale * _entropy_value(x) + inner_product(affine, x)

    def gradient(x: JordanElement) -> JordanElement:
        return scale * (log_on_support(x) + unit(x.algebra)) + affine

    return BregmanGenerator(
        name=f"entropy-affine-{scale}",
        value=value,
        gradient=gradient,
        entropy_weight=scale,
        algebra=affine.algebra,
    )


def combine_generators(
    coeffs,
    generators,
    affine: JordanElement | None = None,
    trace_tilt: float = 0.0,
    name: str = "",
) -> BregmanGenerator:
    """Nonnegative combination of generators plus an affine term.

    ``affine`` pins the result to one algebra; ``trace_tilt`` adds the
    algebra-independent affine part ``tilt * tr(x)`` instead.
    """
    coeffs = [float(c) for c in coeffs]

    def value(x: JordanElement) -> float:
        out = sum(c * g.value(x) for c, g in zip(coeffs, generators) if c)
        if affine is not None:
            out += inner_product(affine, x)
        if trace_tilt:
            out += trace_tilt * trace(x)
        return out

    def gradient(x: JordanElement) -> JordanElement:
        out = alg.zero(x.algebra) if affine is None else affine
        if trace_tilt:
            out = out + trace_tilt * unit(x.algebra)
        for c, g in zip(coeffs, generators):
            if c:
                out = out + c * g.gradient(x)
        return out

    weight = sum(
        c * g.entropy_weight for c, g in zip(coeffs, generators)
    )
    pinned = affine.algebra if affine is not None else None
    for g in generators:
        pinned = pinned or g.algebra
    return BregmanGenerator(
        name=name or "+".join(
            f"{c:g}*{g.name}" for c, g in zip(coeffs, generators) if c
        ),
        value=value,
        gradient=gradient,
        entropy_weight=weight,
        algebra=pinned,
    )


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------


def _supported_in(rho: JordanElement, sigma: JordanElement,
                  tol: float = 1e-9) -> bool:
    """Whether rho has (numerically) no mass outside the support of sigma."""
    dec = spectral_decompose(sigma)
    outside = (dec.values <= SUPPORT_CUTOFF) @ (dec.rows @ rho.coeffs)
    return abs(outside) <= tol


def bregman_divergence(
    F: BregmanGenerator, rho: State | JordanElement, sigma: State | JordanElement
) -> float:
    """First-order gap of the generator; ``inf`` on support violations."""
    x = rho.element if isinstance(rho, State) else rho
    y = sigma.element if isinstance(sigma, State) else sigma
    x._require_same(y)
    if F.support_sensitive:
        eigs = spectral_decompose(y).values
        if np.any(eigs < -1e-9):
            raise DomainError(
                "second argument is not in the positive cone",
                value=float(eigs.min()),
            )
        if not _supported_in(x, y):
            return math.inf
    value = F.value(x) - F.value(y) - inner_product(F.gradient(y), x - y)
    return value


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
    if not _supported_in(x, y):
        return math.inf
    dx = spectral_decompose(x)
    value = float(_xlogx(np.clip(dx.values, 0, None)) @ dx.weights)
    value -= inner_product(log_on_support(y), x)
    value -= trace(x) - trace(y)
    return value


# ---------------------------------------------------------------------------
# actions, free energy, regret
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Action:
    """A linear functional on states, acting through the inner product."""

    functional: JordanElement

    def __call__(self, rho: State | JordanElement) -> float:
        x = rho.element if isinstance(rho, State) else rho
        return inner_product(self.functional, x)


def tangent_action(F: BregmanGenerator, sigma: State) -> tuple[Action, float]:
    """Optimal action at sigma: the gradient functional plus the affine
    intercept that makes the tangent exact at sigma."""
    g = F.gradient(sigma.element)
    intercept = F.value(sigma.element) - inner_product(g, sigma.element)
    return Action(g), intercept


def fold_intercept(action: Action, intercept: float) -> Action:
    """Absorb an affine intercept into the functional; exact on trace-one
    states since the unit evaluates to the trace."""
    u = unit(action.functional.algebra)
    return Action(action.functional + intercept * u)


def free_energy(actions, rho: State) -> float:
    """Best payoff over a finite action list; convex in the state."""
    actions = list(actions)
    if not actions:
        raise ValueError("the action list is empty")
    return max(a(rho) for a in actions)


def regret(F: BregmanGenerator, rho: State, action: Action,
           intercept: float) -> float:
    """Payoff lost by acting on ``action`` when the state is ``rho``."""
    return F.value(rho.element) - (intercept + action(rho))


def check_bregman_identity(F, states, weights, sigma: State) -> float:
    """Residual of the affine decomposition identity of the divergence.

    ``weights`` may contain negative entries as long as the combination
    is a state.
    """
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-10:
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


def _violation(after: float, before: float) -> float:
    if math.isinf(after) and math.isinf(before):
        return 0.0
    return after - before


def _gap(a: float, b: float) -> float:
    if math.isinf(a) and math.isinf(b):
        return 0.0
    return abs(a - b)


def _trial_rng(seed, trial: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(trial), int(stream)])


def run_trials(
    trial_fn: Callable[[np.random.Generator, int], dict],
    n_trials: int,
    seed: int,
    tols: dict[str, float],
) -> dict[str, PropertyVerdict]:
    """Run a randomized suite and judge each of its checks.

    ``trial_fn(rng, trial)`` computes one trial from a generator derived
    from ``(seed, trial)`` alone, so any trial replays by itself.  It
    returns the violation of every check named in ``tols``; its other
    keys are copied into the witnesses of that trial.  A check passes
    when its worst violation stays below its tolerance, and every trial
    over the tolerance is recorded as a witness.
    """
    if n_trials < 1:
        raise ValueError(f"a suite needs at least one trial, got {n_trials}")
    worst = dict.fromkeys(tols, -math.inf)
    witnesses = {check: [] for check in tols}
    for trial in range(n_trials):
        result = trial_fn(_trial_rng(seed, trial), trial)
        extras = {k: v for k, v in result.items() if k not in tols}
        for check, tol in tols.items():
            violation = result[check]
            if violation > worst[check]:
                worst[check] = violation
            if violation > tol:
                witnesses[check].append(
                    {"trial": trial, "seed": seed, "violation": violation,
                     **extras}
                )
    return {
        check: PropertyVerdict(
            property=check,
            trials=n_trials,
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
    kind = algebra.summands[0].kind
    return kind in ("complex", "classical")


def _monotonicity_catalog(algebra, seed):
    catalog = st.channel_catalog(algebra, seed=seed)
    catalog = [c for c in catalog if c.affinity.source == algebra]
    # adversarial entries first so even short runs reach them
    catalog.sort(
        key=lambda c: (c.stress_sampler is None, c.pair_sampler is None)
    )
    return catalog


def _monotonicity_trial(F, algebra, catalog, rng, trial):
    use_random = _supports_random_channels(algebra) and trial % 3 != 2
    if use_random:
        env = 1 + trial % algebra.summands[0].size
        phi = st.random_channel(algebra, env_dim=env, seed=rng)
        rho, sigma = _full_pair(algebra, rng)
        before = bregman_divergence(F, rho, sigma)
        after = bregman_divergence(
            F, phi.apply_element(rho.element), phi.apply_element(sigma.element)
        )
        return _violation(after, before), f"random-{phi.name}-env{env}"

    entry = catalog[(trial // 3) % len(catalog)]
    phi = entry.affinity
    if entry.stress_sampler is not None:
        rho, sigma = entry.stress_sampler(rng)
    elif entry.pair_sampler is not None:
        rho, sigma = entry.pair_sampler(rng)
    else:
        rho, sigma = _full_pair(algebra, rng)
    before = bregman_divergence(F, rho, sigma)
    img_rho = phi.apply_element(rho.element)
    img_sigma = phi.apply_element(sigma.element)
    after = bregman_divergence(F, img_rho, img_sigma)
    violation = _violation(after, before)
    name = entry.name
    # A recovery map is itself a channel; applying it to the images turns
    # any drop of the divergence into a rise, so sufficiency failures
    # always surface here as monotonicity failures too.
    if entry.recovery is not None and entry.recovery.source == algebra:
        back = bregman_divergence(
            F,
            entry.recovery.apply_element(img_rho),
            entry.recovery.apply_element(img_sigma),
        )
        recovered = _violation(back, after)
        if recovered > violation:
            violation = recovered
            name = f"{entry.name}-recovery"
    return violation, name


def check_identity(
    F: BregmanGenerator,
    algebra: Algebra,
    n_trials: int = 500,
    seed: int = 0,
    tol: float = 1e-9,
) -> PropertyVerdict:
    """Randomized residuals of the affine decomposition identity.

    Every third trial uses an affine combination with a negative weight,
    rejection-sampled to stay inside the cone.
    """

    def one_trial(rng, trial):
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
        return {"bregman-identity":
                check_bregman_identity(F, states, weights, sigma)}

    return run_trials(one_trial, n_trials, seed,
                      {"bregman-identity": tol})["bregman-identity"]


def check_monotonicity(
    F: BregmanGenerator,
    algebra: Algebra,
    n_trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-8,
) -> PropertyVerdict:
    """Sample channels and state pairs; the divergence must not grow.

    On complex and classical algebras the pool mixes Stinespring-style
    random channels with the catalog; elsewhere only catalog channels
    exist, which the verdict records.
    """
    catalog = _monotonicity_catalog(algebra, seed)

    def one_trial(rng, trial):
        violation, name = _monotonicity_trial(F, algebra, catalog, rng, trial)
        return {"monotonicity": violation, "channel": name}

    verdict = run_trials(one_trial, n_trials, seed,
                         {"monotonicity": tol})["monotonicity"]
    if not _supports_random_channels(algebra):
        verdict.details["channel_pool"] = "catalog-only"
    return verdict


def replay_monotonicity_trial(F, algebra, seed, trial):
    """Recompute the violation of a recorded witness."""
    catalog = _monotonicity_catalog(algebra, seed)
    violation, _ = _monotonicity_trial(
        F, algebra, catalog, _trial_rng(seed, trial), trial
    )
    return violation


def check_sufficiency(
    F: BregmanGenerator,
    algebra: Algebra,
    n_trials: int = 200,
    seed: int = 0,
    tol: float = 1e-8,
    recovery_tol: float = 1e-9,
) -> PropertyVerdict:
    """On recoverable channel pairs the divergence must be preserved.

    Each trial draws a catalog channel that carries a recovery map and a
    compatible state pair, verifies the recovery on that pair, then
    compares divergences before and after the channel.
    """
    catalog = [
        c for c in st.channel_catalog(algebra, seed=seed)
        if c.recovery is not None
        and (F.algebra is None or c.affinity.source == algebra)
    ]

    def one_trial(rng, trial):
        entry = catalog[trial % len(catalog)]
        if entry.pair_sampler is not None:
            rho, sigma = entry.pair_sampler(rng)
        else:
            rho, sigma = _full_pair(algebra, rng)
        for s in (rho, sigma):
            back = entry.recovery.apply_element(
                entry.affinity.apply_element(s.element)
            )
            gap = alg.norm(back - s.element)
            if gap > recovery_tol:
                raise RuntimeError(
                    f"catalog pair {entry.name} failed recovery by {gap:.2e}"
                )
        before = bregman_divergence(F, rho, sigma)
        after = bregman_divergence(
            F,
            entry.affinity.apply_element(rho.element),
            entry.affinity.apply_element(sigma.element),
        )
        return {"sufficiency": _gap(after, before), "channel": entry.name}

    return run_trials(one_trial, n_trials, seed,
                      {"sufficiency": tol})["sufficiency"]


def random_orthogonal_triple(algebra: Algebra, rng):
    """A state with two companions singular to it.

    The companions share the complement of the first state's support and
    may overlap each other.  On rank-2 algebras the complement is a
    single pure state, so the companions coincide and comparisons there
    are vacuous.
    """
    s = algebra.summands[0]
    kind, n = s.kind, s.size

    if kind == "spin":
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        top = alg.element_from_reps(algebra, [np.concatenate(([0.5], 0.5 * u))])
        bottom = alg.element_from_reps(
            algebra, [np.concatenate(([0.5], -0.5 * u))]
        )
        return State(top), State(bottom), State(bottom)

    rank = s.rank
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

    if kind == "classical":
        out = [weights(head), weights(tail), weights(tail)]
        return tuple(
            State.make(alg.element_from_reps(algebra, [w[:n]]))
            for w in out
        )

    if kind == "real":
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        make = lambda w: alg.element_from_reps(
            algebra, [(q * w) @ q.T]
        )
    elif kind == "complex":
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(g)
        make = lambda w: alg.element_from_reps(
            algebra, [(q * w) @ q.conj().T]
        )
    else:
        raise st.UnsupportedAlgebraError(
            f"singular triples are not sampled on {kind} factors"
        )
    return (
        State.make(make(weights(head))),
        State.make(make(weights(tail))),
        State.make(make(weights(tail))),
    )


def check_statistical_locality(
    F: BregmanGenerator,
    algebra: Algebra,
    n_trials: int = 200,
    seed: int = 0,
    tol: float = 1e-8,
) -> PropertyVerdict:
    """The divergence to a mixture with a singular state must not depend
    on which singular state was mixed in.

    For the plain entropy generator the common value is also checked
    against ``-ln(1-t)``.
    """
    pure_entropy = F.entropy_weight == 1.0 and F.name == "neg-entropy"
    tols = {"statistical-locality": tol}
    if pure_entropy:
        # tracked but never judged: an infinite tolerance keeps no witness
        tols["value_residual"] = math.inf

    def one_trial(rng, trial):
        rho, sig1, sig2 = random_orthogonal_triple(algebra, rng)
        t = float(rng.uniform(0.05, 0.95))
        mix1 = State.make((1.0 - t) * rho.element + t * sig1.element)
        mix2 = State.make((1.0 - t) * rho.element + t * sig2.element)
        d1 = bregman_divergence(F, rho, mix1)
        d2 = bregman_divergence(F, rho, mix2)
        out = {"statistical-locality": _gap(d1, d2), "t": t}
        if pure_entropy:
            out["value_residual"] = max(
                abs(d1 + math.log1p(-t)), abs(d2 + math.log1p(-t))
            )
        return out

    verdicts = run_trials(one_trial, n_trials, seed, tols)
    verdict = verdicts["statistical-locality"]
    if pure_entropy:
        verdict.details["value_residual"] = (
            verdicts["value_residual"].worst_violation
        )
    return verdict


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


def _explorer_family(layout, n_generators, rng):
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
    sizes=(2, 2),
    tol: float = 1e-8,
) -> dict:
    """Search the generator family for monotone-but-not-additive members.

    Every sampled generator gets a sampled monotonicity verdict on the
    composite algebra and an additivity verdict over random product
    quadruples; any generator passing the first while failing the second
    is flagged with full witness data.
    """
    from . import multipartite as mp

    layout = st.composite_layout(st.COMPLEX_TENSOR, sizes)
    rng = np.random.default_rng([seed, 99])
    generators = _explorer_family(layout, n_generators, rng)

    rows = []
    table = {(True, True): 0, (True, False): 0,
             (False, True): 0, (False, False): 0}
    flagged = []
    for idx, G in enumerate(generators):
        mono = check_monotonicity(
            G, layout.ambient, n_trials=n_trials, seed=seed + idx, tol=tol
        )
        add_worst = -math.inf
        add_witness = None
        for trial in range(n_trials):
            trial_rng = _trial_rng(seed + idx, trial, stream=7)
            rho_a, sigma_a = _full_pair(layout.factors[0], trial_rng)
            rho_b, sigma_b = _full_pair(layout.factors[1], trial_rng)
            residual = mp.check_additivity(
                G, rho_a, rho_b, sigma_a, sigma_b, layout
            )
            if residual > add_worst:
                add_worst = residual
                add_witness = {"trial": trial, "seed": seed + idx,
                               "residual": residual}
        additive = add_worst < tol
        table[(mono.passed, additive)] += 1
        row = {
            "generator": G.name,
            "monotone": mono.passed,
            "worst_monotonicity_violation": mono.worst_violation,
            "additive": additive,
            "worst_additivity_residual": add_worst,
        }
        if mono.passed and not additive:
            row["counterexample_witness"] = add_witness
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
