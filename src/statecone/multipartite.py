"""Mutual information and conditional mutual information on composites.

Information quantities are differences of divergences against product
references.  All computations share one support convention: a divergence
with mass outside the reference support is infinite, and a conditional
mutual information with any infinite component is reported as undefined
instead of being assembled from infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import algebras as alg
from . import states as st
from .bregman import (
    BregmanGenerator,
    PropertyVerdict,
    _gap,
    bregman_divergence,
    run_trials,
)
from .states import CompositeLayout, State

__all__ = [
    "CmiReport",
    "OverlapError",
    "PartitionedState",
    "UnknownLabelError",
    "check_additivity",
    "check_data_processing",
    "check_marginal_identity",
    "check_separoid",
    "conditional_mutual_information",
    "maximally_entangled_state",
    "mutual_information",
    "random_partitioned_state",
    "run_additivity_suite",
    "run_dpi_suite",
    "run_marginal_identity_suite",
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
    """A composite state with named factors and cached marginals.

    Marginals and product references are cached by label names, so a
    sub-state made by :meth:`restrict` shares them with its parent and
    each is computed once per state, whichever quantity asks first.
    """

    state: State
    labels: tuple[str, ...]
    _marginals: dict = field(default_factory=dict, compare=False, repr=False)
    _products: dict = field(default_factory=dict, compare=False, repr=False)

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
        self._marginals.setdefault(self.labels, self.state)

    def indices(self, subset: Sequence[str]) -> tuple[int, ...]:
        try:
            return tuple(sorted(self.labels.index(l) for l in subset))
        except ValueError as exc:
            raise UnknownLabelError(f"unknown label in {subset!r}") from exc

    def _key(self, subset: Sequence[str]) -> tuple[str, ...]:
        """The labels of ``subset`` in factor order, without repeats."""
        idx = set(self.indices(subset))
        return tuple(l for i, l in enumerate(self.labels) if i in idx)

    def marginal(self, subset: Sequence[str]) -> State:
        key = self._key(subset)
        cached = self._marginals.get(key)
        if cached is None:
            cached = st.marginal(self.state, self.indices(key))
            self._marginals[key] = cached
        return cached

    def restrict(self, subset: Sequence[str]) -> "PartitionedState":
        """The marginal on ``subset`` as a partitioned state that shares
        this state's caches."""
        key = self._key(subset)
        return PartitionedState(
            self.marginal(key), key, self._marginals, self._products
        )


def random_partitioned_state(
    embedding: str,
    sizes: Sequence[int],
    labels: Sequence[str],
    seed=None,
    rank_cap: int | None = None,
) -> PartitionedState:
    layout = st.composite_layout(embedding, sizes)
    state = st.random_state(
        layout.ambient, rank_cap=rank_cap, seed=seed, layout=layout
    )
    return PartitionedState(state, tuple(labels))


def _group_product(pstate: PartitionedState,
                   groups: Sequence[Sequence[str]]) -> State:
    """Tensor the group marginals, permuted to ascending factor order.

    Products are cached on the partitioned state by the ordered groups.
    """
    key = tuple(pstate._key(g) for g in groups)
    cached = pstate._products.get(key)
    if cached is not None:
        return cached
    layout = pstate.state.layout
    group_idx = [pstate.indices(g) for g in key]
    concat = [i for idx in group_idx for i in idx]
    target = sorted(concat)
    marginals = [pstate.marginal(g) for g in key]
    # tensor at group granularity (each group marginal is one factor of
    # the coarse layout), then reinterpret at single-factor granularity
    coarse = CompositeLayout(
        tuple(m.algebra for m in marginals), layout.embedding
    )
    product = st.tensor_state(marginals, coarse)
    fine = CompositeLayout(
        tuple(layout.factors[i] for i in concat), layout.embedding
    )
    product = State(product.element, fine)
    if concat != target:
        order = [concat.index(i) for i in target]
        product = st.permute_factors(product, order)
    pstate._products[key] = product
    return product


def _check_disjoint(*label_sets):
    seen = set()
    for labels in label_sets:
        for l in labels:
            if l in seen:
                raise OverlapError(f"label {l!r} appears in two subsets")
            seen.add(l)


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
    _check_disjoint(a_labels, b_labels)
    joint = pstate.marginal(list(a_labels) + list(b_labels))
    reference = _group_product(pstate, [a_labels, b_labels])
    return bregman_divergence(F, joint, reference)


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
    _check_disjoint(a_labels, b_labels, c_labels)
    a, b, c = list(a_labels), list(b_labels), list(c_labels)

    sub = pstate.restrict(a + b + c)
    term0 = bregman_divergence(
        F, sub.marginal(a + b + c), _group_product(sub, [a, b, c])
    )
    term1 = bregman_divergence(
        F, sub.marginal(a + c), _group_product(sub, [a, c])
    )
    term2 = bregman_divergence(
        F, sub.marginal(b + c), _group_product(sub, [b, c])
    )
    components = (term0, term1, term2)
    if not all(map(math.isfinite, components)):
        return CmiReport(math.nan, components, defined=False)
    return CmiReport(term0 - term1 - term2, components)


def check_separoid(
    F: BregmanGenerator,
    embedding: str,
    sizes: Sequence[int],
    n_trials: int = 200,
    seed: int = 0,
    positivity_tol: float = 1e-8,
    symmetry_tol: float = 1e-10,
    chain_tol: float = 1e-8,
) -> dict[str, PropertyVerdict]:
    """Positivity, symmetry and the chain rule on random 4-factor states.

    A quarter of the trials use globally pure states, whose marginals
    stress the support handling.
    """
    if len(sizes) != 4:
        raise ValueError("the separoid suite runs on four factors")
    labels = ("A", "B", "C", "D")
    tols = {"positivity": positivity_tol, "symmetry": symmetry_tol,
            "chain": chain_tol}

    def one_trial(rng, trial):
        rank_cap = 1 if trial % 4 == 3 else None
        p = random_partitioned_state(
            embedding, sizes, labels, seed=rng, rank_cap=rank_cap,
        )
        ab_c = conditional_mutual_information(F, p, ["A"], ["B"], ["C"])
        ba_c = conditional_mutual_information(F, p, ["B"], ["A"], ["C"])
        chain_left = conditional_mutual_information(
            F, p, ["A"], ["B", "C"], ["D"]
        )
        chain_ab = conditional_mutual_information(F, p, ["A"], ["B"], ["D"])
        chain_ac = conditional_mutual_information(
            F, p, ["A"], ["C"], ["B", "D"]
        )

        checks = {}
        checks["positivity"] = -ab_c.value if ab_c.defined else math.inf
        checks["symmetry"] = (
            abs(ab_c.value - ba_c.value)
            if ab_c.defined and ba_c.defined else math.inf
        )
        if chain_left.defined and chain_ab.defined and chain_ac.defined:
            checks["chain"] = abs(
                chain_left.value - chain_ab.value - chain_ac.value
            )
        else:
            checks["chain"] = math.inf
        return checks

    verdicts = run_trials(one_trial, n_trials, seed, tols)
    for check, verdict in verdicts.items():
        verdict.property = f"separoid-{check}"
    return verdicts


def run_additivity_suite(
    F: BregmanGenerator,
    layout: CompositeLayout,
    n_trials: int = 500,
    seed: int = 0,
    tol: float = 1e-8,
) -> PropertyVerdict:
    """Additivity residuals over random product quadruples."""

    def one_trial(rng, trial):
        rho_a = st.random_state(layout.factors[0], seed=rng)
        rho_b = st.random_state(layout.factors[1], seed=rng)
        sigma_a = st.random_state(layout.factors[0], seed=rng)
        sigma_b = st.random_state(layout.factors[1], seed=rng)
        return {"additivity": check_additivity(
            F, rho_a, rho_b, sigma_a, sigma_b, layout
        )}

    return run_trials(one_trial, n_trials, seed,
                      {"additivity": tol})["additivity"]


def run_marginal_identity_suite(
    F: BregmanGenerator,
    layout: CompositeLayout,
    n_trials: int = 500,
    seed: int = 0,
    tol: float = 1e-8,
) -> PropertyVerdict:
    """Marginal-identity residuals over random joint states and full-rank
    product references."""

    def one_trial(rng, trial):
        sigma_ab = st.random_state(layout.ambient, seed=rng, layout=layout)
        rho_a = st.random_state(layout.factors[0], seed=rng)
        rho_b = st.random_state(layout.factors[1], seed=rng)
        return {"marginal-identity": check_marginal_identity(
            F, sigma_ab, rho_a, rho_b
        )}

    return run_trials(one_trial, n_trials, seed,
                      {"marginal-identity": tol})["marginal-identity"]


def maximally_entangled_state(layout: CompositeLayout) -> State:
    """Uniform superposition pairing two complex factors of equal size."""
    if (
        layout.embedding != st.COMPLEX_TENSOR
        or len(layout.factors) != 2
        or layout.sizes[0] != layout.sizes[1]
    ):
        raise ValueError("needs two complex factors of equal size")
    n = layout.sizes[0]
    vec = np.zeros(n * n, dtype=complex)
    for i in range(n):
        vec[i * n + i] = 1.0 / math.sqrt(n)
    rep = np.outer(vec, vec.conj())
    return State.make(
        alg.element_from_reps(layout.ambient, [rep]), layout
    )


def run_dpi_suite(
    F: BregmanGenerator,
    layout: CompositeLayout,
    n_trials: int = 500,
    seed: int = 0,
    tol: float = 1e-8,
) -> PropertyVerdict:
    """Data processing over both maximally entangled and random states."""
    states = []
    if (
        layout.embedding == st.COMPLEX_TENSOR
        and len(layout.factors) == 2
        and layout.sizes[0] == layout.sizes[1]
    ):
        states.append(
            PartitionedState(maximally_entangled_state(layout), ("A", "B"))
        )
    states.append(
        PartitionedState(
            st.random_state(
                layout.ambient, seed=np.random.default_rng([seed, 1234]),
                layout=layout,
            ),
            ("A", "B"),
        )
    )
    # one trial per state at least, unless the run asks for none
    per_state = max(min(n_trials, 1), n_trials // len(states))
    verdicts = [
        check_data_processing(
            F, pstate, n_trials=per_state, seed=seed + idx, tol=tol
        )
        for idx, pstate in enumerate(states)
    ]
    return PropertyVerdict(
        property="data-processing",
        trials=per_state * len(states),
        worst_violation=max(v.worst_violation for v in verdicts),
        tolerance=tol,
        witnesses=[w for v in verdicts for w in v.witnesses],
    )


def check_data_processing(
    F: BregmanGenerator,
    pstate: PartitionedState,
    n_trials: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
) -> PropertyVerdict:
    """Local channels on the second factor must not raise the mutual
    information between the two factors."""
    layout = pstate.state.layout
    if len(layout.factors) != 2:
        raise ValueError("data processing runs on bipartite states")
    a_label, b_label = pstate.labels
    before = mutual_information(F, pstate, [a_label], [b_label])

    def one_trial(rng, trial):
        phi = st.random_channel(layout.factors[1], seed=rng)
        lifted = st.extend_to_factor(phi, layout, 1)
        moved = State(lifted.apply_element(pstate.state.element), layout)
        after_state = PartitionedState(moved, pstate.labels)
        after = mutual_information(F, after_state, [a_label], [b_label])
        violation = after - before if math.isfinite(after) else (
            0.0 if math.isinf(before) else math.inf
        )
        return {"data-processing": violation}

    return run_trials(one_trial, n_trials, seed,
                      {"data-processing": tol})["data-processing"]
