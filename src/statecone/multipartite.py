"""Mutual information and conditional mutual information on composites.

Information quantities are differences of divergences against product
references.  A product reference is never built: its fine eigenvalues
are the products of the group marginals' ones, and the weight the joint
marginal puts on each of its primitive idempotents is read by
contracting the joint's matrix with one marginal's idempotents at a
time, following a plan derived once per layout and set of groupings.
Every information runs on a stack of states, one partial trace of each
marginal for all states and one eigensolve of all the marginals that
share an algebra: the separoid suite stacks the trials of a chunk, and
a single state's mutual and conditional mutual informations are a
stack of one.
All computations share one support convention: a divergence with mass
outside the reference support is infinite, and a conditional mutual
information with any infinite component is reported as undefined
instead of being assembled from infinities.

The module also holds the suite table, :data:`SUITES`: one entry per
property, each a results generator with the default tolerances of its
checks and the number of factors it needs, all run and judged by one
:func:`run_suite`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import zip_longest
from typing import Callable, Sequence

import numpy as np

from . import algebras as alg
from . import states as st
from .bregman import (
    BregmanGenerator,
    PropertyVerdict,
    _divergence,
    _frame_bytes,
    _gap,
    _identity_results,
    _in_chunks,
    _locality_results,
    _monotonicity_results,
    _pure_entropy,
    _require_algebra,
    _require_trials,
    _sufficiency_results,
    _supports_random_channels,
    _trial_rng,
    _violation,
    bregman_divergence,
    judge_trials,
)
from .states import CompositeLayout, State

__all__ = [
    "SUITES",
    "CmiReport",
    "OverlapError",
    "PartitionedState",
    "Suite",
    "UnknownLabelError",
    "check_additivity",
    "check_data_processing",
    "check_marginal_identity",
    "conditional_mutual_information",
    "maximally_entangled_state",
    "mutual_information",
    "run_suite",
]


class OverlapError(ValueError):
    """Label sets handed to an information quantity overlap."""


class UnknownLabelError(KeyError):
    """A label set names a factor the state does not have."""

    def __str__(self):
        # a KeyError's str is the repr of its message; keep the message
        return str(self.args[0])


@dataclass(frozen=True)
class PartitionedState:
    """A composite state with named factors."""

    state: State
    labels: tuple[str, ...]

    def __post_init__(self):
        layout = self.state.layout
        if layout is None:
            raise ValueError("a partitioned state needs a composite layout")
        if len(self.labels) != len(layout.factors):
            raise ValueError(
                f"{len(self.labels)} labels for {len(layout.factors)} factors"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")

    def indices(self, subset: Sequence[str]) -> tuple[int, ...]:
        """The factor indices of the labels in ``subset``, sorted, each
        once."""
        try:
            return tuple(sorted({self.labels.index(l) for l in subset}))
        except ValueError as exc:
            raise UnknownLabelError(f"unknown label in {subset!r}") from exc


def _disjoint_indices(pstate: PartitionedState,
                      *label_sets: Sequence[str]
                      ) -> tuple[tuple[int, ...], ...]:
    """The factor indices of each label set, once the sets are checked to
    be disjoint and free of repeats; an unknown label is reported with
    every label of the call."""
    every = [l for labels in label_sets for l in labels]
    seen = set()
    for labels in label_sets:
        own = set()
        for l in labels:
            if l in own:
                raise OverlapError(
                    f"label {l!r} is repeated in the set {list(labels)!r}"
                )
            if l in seen:
                raise OverlapError(f"label {l!r} appears in two subsets")
            own.add(l)
        seen |= own
    try:
        return tuple(pstate.indices(labels) for labels in label_sets)
    except UnknownLabelError as exc:
        raise UnknownLabelError(f"unknown label in {every!r}") from exc


def _joined(groups) -> tuple[int, ...]:
    """The sorted factor indices of all the factor index ``groups``."""
    return tuple(sorted(i for g in groups for i in g))


def _contraction_plan(layout: CompositeLayout,
                      groups: tuple[tuple[int, ...], ...]) -> tuple:
    """How :func:`_product_terms` contracts a stack of joint
    marginals on the factor index ``groups`` with the groups' stacks of
    idempotents.

    Returns the joint's factor indices, its reps' shape on the
    factor-axis map and the axis labels they carry, and per group the
    factor-axis shape its idempotents reshape to, the labels of its
    stack and the labels left after that step.  Labels are factor axes;
    the stack of group ``g`` is labelled ``len(shape) + g`` and the state
    axis, which leads every operand, ``len(shape) + len(groups)``.  The
    trace pairs the joint's rows with the idempotents' columns, so the
    joint carries each factor's row and column labels swapped; a
    classical axis pairs with itself.  A plan holds only labels and
    shapes.
    """
    shape, axes = layout._axes
    flip = {a: b for own in axes for a, b in zip(own, own[::-1])}
    batch = (len(shape) + len(groups),)
    joined = _joined(groups)
    joint_axes = layout._axes_of(joined)
    labels = batch + tuple(flip[a] for a in joint_axes)
    left, steps = labels, []
    for g, indices in enumerate(groups):
        own = layout._axes_of(indices)
        left = tuple(a for a in left if a not in own) + (len(shape) + g,)
        steps.append((tuple(shape[a] for a in own),
                      batch + (len(shape) + g,) + tuple(own), left))
    return (joined, tuple(shape[a] for a in joint_axes), labels,
            tuple(steps))


@lru_cache
def _grouping_plan(layout: CompositeLayout, groupings: tuple) -> tuple:
    """What :func:`_grouping_divergences` derives from the layout and the
    groupings alone, once per pair: the algebras of the groupings'
    joints, the proper marginals the groupings read, grouped by their
    simple algebra, and the :func:`_contraction_plan` of each grouping.
    On each algebra the marginals that some grouping reads as a group,
    whose idempotents the product terms pair, come first and are
    counted; the rest are read only as joints.  Each part keeps the
    order of first use.

    Partial traces are not defined on the real-into-larger layout, so
    no plan is made for it.
    """
    st._require_partial_traces(layout)
    everything = tuple(range(len(layout.factors)))
    joints = tuple(dict.fromkeys(
        layout._marginal_of(_joined(groups))[0] for groups in groupings))
    grouped = {indices for groups in groupings for indices in groups}
    by_algebra = {}
    for indices in dict.fromkeys(
            indices for groups in groupings
            for indices in (_joined(groups), *groups)):
        if indices != everything:
            summand = layout._marginal_of(indices)[0].summands[0]
            by_algebra.setdefault(summand, []).append(indices)
    return (joints,
            tuple((s, tuple(sorted(m, key=lambda x: x not in grouped)),
                   sum(x in grouped for x in m))
                  for s, m in by_algebra.items()),
            tuple(_contraction_plan(layout, groups) for groups in groupings))


def _product_terms(marginals: dict, groups: tuple[tuple[int, ...], ...],
                   plan: tuple):
    """The terms of the divergences of a stack of joint marginals on the
    factor index ``groups`` from the products of their group marginals,
    as :func:`~statecone.bregman._divergence` reads them: the joints'
    fine eigenvalues, the products' ones and the weight each joint puts
    on each product idempotent, each behind one state axis.

    ``marginals`` maps sorted factor indices to the stack's marginals on
    them: reps, fine eigenvalues and idempotent stacks behind one state
    axis.  Only the groups' idempotents are read.
    A product's fine eigenvalues are the outer product of its groups'
    ones.  The joint's weight on each product idempotent is read group
    by group: each step is one two-operand ``einsum`` that sums a
    group's factor axes of the joint's reps against the stack of that
    group's idempotent reps and appends the stack axis, so groups may
    interleave in factor order.  The shapes and labels come from the
    grouping's :func:`_contraction_plan`.  Each state gets the bits it
    gets in a stack of one.
    """
    joined, joint_shape, labels, steps = plan
    reps, values, _ = marginals[joined]
    n = len(reps)
    p = reps.reshape((n,) + joint_shape)
    mu = np.ones((n, 1))
    for indices, (dims, own, left) in zip(groups, steps):
        _, group_values, frames = marginals[indices]
        p = np.einsum(p, labels, frames.reshape(frames.shape[:2] + dims),
                      own, left)
        labels = left
        mu = (mu[:, :, None] * group_values[:, None, :]).reshape(n, -1)
    return values, mu, p.real.reshape(n, -1)


def _grouping_divergences(F: BregmanGenerator, layout: CompositeLayout,
                          joint, groupings: tuple) -> dict:
    """The divergence of each state of a stack from each product
    reference of ``groupings``: per grouping of factor index groups, the
    divergences of the states' marginals on the joined groups from the
    products of their group marginals, one per state.

    ``joint`` is the stack of checked states on the whole ``layout``:
    reps and fine eigenvalues as
    :func:`statecone.states._checked_state_stack` returns them, and
    idempotent stacks, read only where a grouping reads the whole
    layout as a group, which needs an empty group (``None`` where no
    grouping does).  The rest runs on the stack: one partial trace of
    each proper marginal the groupings read, one check and eigensolve
    of all the marginals on one algebra, idempotents built only for the
    marginals some grouping reads as a group, the terms of each
    grouping's product divergence and one divergence pass over all the
    terms of one product size.  Every state gets the divergences, bit
    for bit, that it gets in a stack of one.
    """
    joints, by_algebra, plans = _grouping_plan(layout, groupings)
    if F.affine is not None:
        for algebra in joints:
            _require_algebra(F, algebra)
    n = len(joint[0])
    marginals = {tuple(range(len(layout.factors))): joint}
    for summand, group, read in by_algebra:
        traced = [st._partial_traces(layout, joint[0], m) for m in group]
        checked = st._checked_state_stack(summand, np.concatenate(traced))
        reps, values, frames = (x.reshape((len(group), n) + x.shape[1:])
                                for x in checked)
        # the groups come first; a marginal read only as a joint gets none
        idempotents = (alg._frame_idempotents(summand.kind, frames[:read])
                       if read else ())
        marginals.update(zip(group, zip_longest(reps, values, idempotents)))
    by_size = {}
    for groups, plan in zip(groupings, plans):
        terms = _product_terms(marginals, groups, plan)
        by_size.setdefault(terms[0].shape[1], {})[groups] = terms
    gaps = {}
    for same in by_size.values():
        stacked = _divergence(F, *map(np.concatenate, zip(*same.values())))
        gaps.update(zip(same, stacked.reshape(len(same), n)))
    return gaps


def _state_divergences(F: BregmanGenerator, state: State,
                       groupings: tuple) -> dict:
    """:func:`_grouping_divergences` of one state, as a stack of one
    read from its element and its cached spectral decomposition."""
    element = state.element
    dec = alg.spectral_decompose(element)
    joint = element.reps()[0][None], dec.values[None], dec.frame[0][None]
    gaps = _grouping_divergences(F, state.layout, joint, groupings)
    return {groups: float(gap[0]) for groups, gap in gaps.items()}


def check_additivity(
    F: BregmanGenerator,
    rho_a: State,
    rho_b: State,
    sigma_a: State,
    sigma_b: State,
    layout: CompositeLayout,
) -> float:
    """Residual of divergence additivity over a product quadruple.

    Two infinite sides count as a zero residual.
    """
    joint_rho = st.tensor(rho_a, rho_b, layout)
    joint_sigma = st.tensor(sigma_a, sigma_b, layout)
    joint = bregman_divergence(F, joint_rho, joint_sigma)
    split = bregman_divergence(F, rho_a, sigma_a) + bregman_divergence(
        F, rho_b, sigma_b
    )
    return _gap(joint, split)


def check_marginal_identity(
    F: BregmanGenerator,
    sigma_ab: State,
    rho_a: State,
    rho_b: State,
) -> float:
    """Residual of the two-step comparison against a product reference."""
    layout = sigma_ab.layout
    if layout is None or len(layout.factors) != 2:
        raise ValueError("expected a bipartite state")
    sigma_a = st.marginal(sigma_ab, [0])
    lhs = bregman_divergence(F, sigma_ab, st.tensor(rho_a, rho_b, layout))
    rhs = bregman_divergence(
        F, sigma_ab, st.tensor(sigma_a, rho_b, layout)
    ) + bregman_divergence(F, sigma_a, rho_a)
    return _gap(lhs, rhs)


def mutual_information(
    F: BregmanGenerator,
    pstate: PartitionedState,
    a_labels: Sequence[str],
    b_labels: Sequence[str],
) -> float:
    """Divergence of the joint marginal from the product of marginals."""
    groups = _disjoint_indices(pstate, a_labels, b_labels)
    return _state_divergences(F, pstate.state, (groups,))[groups]


@dataclass(frozen=True)
class CmiReport:
    """Conditional mutual information with its three divergence terms."""

    value: float
    components: tuple[float, float, float]
    defined: bool = True

    def as_dict(self) -> dict:
        def scrub(v):
            return v if math.isfinite(v) else repr(v)

        return {
            "value": scrub(self.value),
            "components": [scrub(c) for c in self.components],
            "defined": self.defined,
        }


def conditional_mutual_information(
    F: BregmanGenerator,
    pstate: PartitionedState,
    a_labels: Sequence[str],
    b_labels: Sequence[str],
    c_labels: Sequence[str],
) -> CmiReport:
    """Three-term conditional mutual information over disjoint subsets.

    If any component is infinite the report is marked undefined rather
    than subtracting infinities.
    """
    groupings = _cmi_groupings(*_disjoint_indices(pstate, a_labels,
                                                  b_labels, c_labels))
    gaps = _state_divergences(F, pstate.state, groupings)
    components = tuple(gaps[groups] for groups in groupings)
    if not all(map(math.isfinite, components)):
        return CmiReport(math.nan, components, defined=False)
    term0, term1, term2 = components
    return CmiReport(term0 - term1 - term2, components)


def _cmi_groupings(a, b, c) -> tuple:
    """The factor index groupings of the three divergence terms of the
    conditional mutual information of the groups ``a`` and ``b`` given
    ``c``, each a product reference's groups."""
    return (a, b, c), (a, c), (b, c)


# the (a, b, c) factor index groups of the conditional mutual
# informations of a separoid trial: I(A:B|C) and I(B:A|C) for positivity
# and symmetry, I(A:BC|D), I(A:B|D) and I(A:C|BD) for the chain rule
_SEPAROID_CMIS = (
    ((0,), (1,), (2,)), ((1,), (0,), (2,)),
    ((0,), (1, 2), (3,)), ((0,), (1,), (3,)), ((0,), (2,), (1, 3)),
)
# the 12 distinct groupings among the informations' 15 terms; they read
# 11 proper marginals
_SEPAROID_GROUPINGS = tuple(dict.fromkeys(
    groups for cmi in _SEPAROID_CMIS for groups in _cmi_groupings(*cmi)))


def _separoid_trials(F, layout, seed, trials) -> list:
    """The positivity, symmetry and chain-rule violations of ``trials``,
    in order, each on a random state of the 4-factor ``layout``.

    Each trial draws its state from its own stream, in trial order; a
    quarter of the trials use globally pure states, whose marginals
    stress the support handling.  The rest runs on the stack of all
    trials: one check of the states, then the 12 distinct product
    divergences of :func:`_grouping_divergences`, which read 11 proper
    marginals and pair the idempotents of 6 of them.  No grouping pairs
    the joints' idempotents, so only clipped joints build them.  Every
    trial gets the violations, bit for bit, that it gets alone.
    """
    s = layout.ambient.summands[0]
    reps = [st._build_summand(s, st._draw_summand(
        s, 1 if t % 4 == 3 else None, _trial_rng(seed, t))) for t in trials]
    # no separoid grouping reads the whole layout as a group, so the
    # joints' frames are never projected
    joint = st._checked_state_stack(s, np.array(reps))[:2] + (None,)
    gaps = _grouping_divergences(F, layout, joint, _SEPAROID_GROUPINGS)
    # an undefined information, one with an infinite term, is NaN here
    # and makes every check it enters infinite
    values = []
    for cmi in _SEPAROID_CMIS:
        terms = [gaps[groups] for groups in _cmi_groupings(*cmi)]
        with np.errstate(invalid="ignore"):
            values.append(np.where(np.isfinite(terms).all(axis=0),
                                   terms[0] - terms[1] - terms[2], math.nan))
    ab_c, ba_c, chain_left, chain_ab, chain_ac = values
    checks = {
        "positivity": -ab_c,
        "symmetry": abs(ab_c - ba_c),
        "chain": abs(chain_left - chain_ab - chain_ac),
    }
    checks = {k: np.where(np.isnan(v), math.inf, v).tolist()
              for k, v in checks.items()}
    return [{"trial": t, "seed": seed,
             **{check: v[i] for check, v in checks.items()}}
            for i, t in enumerate(trials)]


def _separoid_results(F, layout, seed, trials):
    """Yield the results of ``trials``, in order, each chunk as one
    stack, its size bounded by the idempotent stacks of the joints.
    On complex layouts, as on every matrix kind, only clipped joints
    build theirs, and a chunk holds the other joints' eigenvectors; the
    budget still counts every joint's stack."""
    yield from _in_chunks(partial(_separoid_trials, F, layout, seed), trials,
                          _frame_bytes(layout.ambient.summands[0]))


def _additivity_results(F, layout, seed, trials):
    """Yield the additivity residual of each of ``trials`` over a random
    product quadruple."""
    for trial in trials:
        rng = _trial_rng(seed, trial)
        rho_a = st.random_state(layout.factors[0], seed=rng)
        rho_b = st.random_state(layout.factors[1], seed=rng)
        sigma_a = st.random_state(layout.factors[0], seed=rng)
        sigma_b = st.random_state(layout.factors[1], seed=rng)
        yield {"trial": trial, "seed": seed, "additivity": check_additivity(
            F, rho_a, rho_b, sigma_a, sigma_b, layout
        )}


def _marginal_results(F, layout, seed, trials):
    """Yield the marginal-identity residual of each of ``trials`` over a
    random joint state and a full-rank product reference."""
    for trial in trials:
        rng = _trial_rng(seed, trial)
        sigma_ab = st.random_state(layout.ambient, seed=rng, layout=layout)
        rho_a = st.random_state(layout.factors[0], seed=rng)
        rho_b = st.random_state(layout.factors[1], seed=rng)
        yield {"trial": trial, "seed": seed,
               "marginal-identity": check_marginal_identity(
                   F, sigma_ab, rho_a, rho_b)}


def _pairs_equal_complex_factors(layout: CompositeLayout) -> bool:
    return (layout.embedding == st.COMPLEX_TENSOR
            and len(layout.sizes) == 2 and layout.sizes[0] == layout.sizes[1])


def maximally_entangled_state(layout: CompositeLayout) -> State:
    """Uniform superposition pairing two complex factors of equal size."""
    if not _pairs_equal_complex_factors(layout):
        raise ValueError("needs two complex factors of equal size")
    n = layout.sizes[0]
    vec = np.eye(n).ravel() / math.sqrt(n)
    rep = np.outer(vec, vec)
    return State.make(
        alg.element_from_reps(layout.ambient, [rep]), layout
    )


def _dpi_states(layout: CompositeLayout, seed: int) -> list:
    """The states the data-processing suite runs on: the maximally
    entangled state where the factors pair up, then a random state."""
    states = [st.random_state(layout.ambient, layout=layout,
                              seed=np.random.default_rng([seed, 1234]))]
    if _pairs_equal_complex_factors(layout):
        states.insert(0, maximally_entangled_state(layout))
    return [PartitionedState(s, ("A", "B")) for s in states]


def _dpi_results(F, layout, seed, trials):
    """Yield the data-processing results of as many trials as ``trials``
    holds, over both maximally entangled and random states.

    The trials are split evenly across the states, the first states
    taking one more each when the count does not divide, and every
    state runs at least one; state ``k`` runs its trials under the seed
    ``seed + k``, numbered from 0, so its witnesses replay through
    :func:`_data_processing_results`.
    """
    states = _dpi_states(layout, seed)
    share, extra = divmod(len(trials), len(states))
    for k, pstate in enumerate(states):
        yield from _data_processing_results(
            F, pstate, seed + k, range(max(1, share + (k < extra))))


def _data_processing_results(F, pstate, seed, trials):
    """Yield, for each of ``trials``, the rise of the mutual information
    of ``pstate`` under a random channel on its second factor."""
    layout = pstate.state.layout
    if len(layout.factors) != 2:
        raise ValueError("data processing runs on bipartite states")
    a_label, b_label = pstate.labels
    before = mutual_information(F, pstate, [a_label], [b_label])
    for trial in trials:
        phi = st.random_channel(layout.factors[1],
                                seed=_trial_rng(seed, trial))
        lifted = st.extend_to_factor(phi, layout, 1)
        moved = State(lifted.apply_element(pstate.state.element), layout)
        after_state = PartitionedState(moved, pstate.labels)
        after = mutual_information(F, after_state, [a_label], [b_label])
        yield {"trial": trial, "seed": seed,
               "data-processing": float(_violation(after, before))}


def check_data_processing(
    F: BregmanGenerator,
    pstate: PartitionedState,
    n_trials: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
) -> PropertyVerdict:
    """Local channels on the second factor must not raise the mutual
    information between the two factors."""
    _require_trials(n_trials)
    results = _data_processing_results(F, pstate, seed, range(n_trials))
    return judge_trials(results, {"data-processing": tol})["data-processing"]


# ---------------------------------------------------------------------------
# the suite table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """A property suite: its results generator ``(F, target, seed,
    trials)``, the default tolerance of each check it judges, and the
    number of factors of its layout (``None`` for an algebra).  Each
    verdict carries ``details(target)`` and, as details rather than
    witness extras, the worst values of the result keys ``tracked(F)``
    names; its property is ``prefix`` and its check's name."""

    results: Callable
    tols: dict[str, float]
    factors: int | None = None
    tracked: Callable = lambda F: ()
    details: Callable = lambda target: {}
    prefix: str = ""


# property -> its suite, one entry per ``statecone suite --property``
SUITES = {
    # only complex and classical algebras mix random channels into the
    # catalog's pool
    "mono": Suite(_monotonicity_results, {"monotonicity": 1e-8},
                  details=lambda algebra: (
                      {} if _supports_random_channels(algebra)
                      else {"channel_pool": "catalog-only"})),
    "suff": Suite(_sufficiency_results, {"sufficiency": 1e-8}),
    # the plain entropy's common value is also compared with -ln(1-t)
    "local": Suite(_locality_results, {"statistical-locality": 1e-8},
                   tracked=lambda F: (
                       ("value_residual",) if _pure_entropy(F) else ())),
    "identity": Suite(_identity_results, {"bregman-identity": 1e-9}),
    "additivity": Suite(_additivity_results, {"additivity": 1e-8}, 2),
    "marginal": Suite(_marginal_results, {"marginal-identity": 1e-8}, 2),
    "separoid": Suite(_separoid_results, {"positivity": 1e-8,
                                          "symmetry": 1e-10, "chain": 1e-8},
                      4, prefix="separoid-"),
    "dpi": Suite(_dpi_results, {"data-processing": 1e-8}, 2),
}


def run_suite(prop: str, F: BregmanGenerator, target, n_trials: int,
              seed: int = 0, tols: dict[str, float] | None = None
              ) -> dict[str, PropertyVerdict]:
    """Judge trials ``0 .. n_trials-1`` of ``seed`` of the suite of
    ``prop`` on ``target``, an algebra or a layout of the suite's number
    of factors, each check at its default tolerance or the one ``tols``
    gives it.  Returns the verdicts keyed by check."""
    suite = SUITES[prop]
    _require_trials(n_trials)
    factors = (len(target.factors) if isinstance(target, CompositeLayout)
               else None)
    if factors != suite.factors:
        raise ValueError(f"property {prop!r} runs on " + (
            f"a layout of {suite.factors} factors" if suite.factors
            else "an algebra"))
    tols = {**suite.tols, **(tols or {})}
    if tols.keys() != suite.tols.keys():
        raise ValueError(f"property {prop!r} judges no check "
                         f"{sorted(tols.keys() - suite.tols.keys())}")
    # tracked but never judged: only an infinite value reaches the
    # infinite tolerance, and its witnesses are never reported
    tracked = suite.tracked(F)
    verdicts = judge_trials(suite.results(F, target, seed, range(n_trials)),
                            {**tols, **dict.fromkeys(tracked, math.inf)})
    details = {**suite.details(target),
               **{key: verdicts.pop(key).worst_violation for key in tracked}}
    for check, verdict in verdicts.items():
        verdict.property = suite.prefix + check
        verdict.details.update(details)
    return verdicts
