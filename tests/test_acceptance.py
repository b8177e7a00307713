"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and
scale and prints a single pass/fail line (visible with ``pytest -s``).
"""

import itertools
import math
import time

import numpy as np
import pytest

from statecone import algebras as ja
from statecone import boxes as bx
from statecone import bregman as br
from statecone import entropy as en
from statecone import multipartite as mp
from statecone import states as st

NE = br.neg_entropy()
T2 = br.trace_power(2)
T3 = br.trace_power(3)

C2 = ja.complex_hermitian(2)
C3 = ja.complex_hermitian(3)
LAYOUT_22 = st.composite_layout(st.COMPLEX_TENSOR, (2, 2))
LAYOUT_23 = st.composite_layout(st.COMPLEX_TENSOR, (2, 3))

SIX_ALGEBRAS = {
    "C2": ja.complex_hermitian(2),
    "C3": ja.complex_hermitian(3),
    "C4": ja.complex_hermitian(4),
    "R3": ja.real_hermitian(3),
    "H2": ja.quaternion_hermitian(2),
    "S3": ja.spin_factor(3),
}


def report(number, name, passed, detail=""):
    flag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{flag}] {name}" +
          (f" -- {detail}" if detail else ""))
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_01_entropy_equality():
    """Spectral, decomposition and fine-grained entropies agree, and
    sampled fine-grained measurements never undercut the spectral value,
    on 100 states over each of six algebras, within 30 seconds."""
    start = time.perf_counter()
    worst_gap = 0.0
    for index, algebra in enumerate(SIX_ALGEBRAS.values()):
        for k in range(100):
            sigma = st.random_state(algebra, seed=[1, k, index])
            rep = en.fine_grained_entropy_bound(
                sigma, n_samples=200, seed=[2, k]
            )
            worst_gap = max(
                worst_gap,
                abs(rep.decomposition - rep.spectral),
                rep.spectral - rep.fine_grained_upper,
            )
    elapsed = time.perf_counter() - start
    report(
        1, "entropy equality (600 states x 200 measurements)",
        worst_gap < 1e-9 and elapsed < 30.0,
        f"worst gap {worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_statistical_locality_value():
    """Divergence to a mixture with a singular state equals -ln(1-t)
    within 1e-8 over 50 triples and the t grid 0.1..0.9."""
    worst = 0.0
    count = 0
    for k in range(50):
        algebra = C3 if k % 2 == 0 else ja.complex_hermitian(4)
        rng = np.random.default_rng([3, k])
        rho, sig1, sig2 = br.random_orthogonal_triple(algebra, rng)
        for t in np.arange(0.1, 0.95, 0.1):
            for sig in (sig1, sig2):
                mix = st.State.make(
                    (1.0 - t) * rho.element + t * sig.element
                )
                value = br.bregman_divergence(NE, rho, mix)
                worst = max(worst, abs(value + math.log1p(-t)))
                count += 1
    report(
        2, f"statistical locality value ({count} mixtures)",
        worst < 1e-8, f"worst residual {worst:.2e}",
    )


def test_criterion_03_bregman_identity():
    """Identity residual below 1e-9 over 500 affine combinations per
    generator, negative weights included."""
    tilt = 0.2
    generators = [
        NE, T2, T3,
        br.combine_generators([1.5], [NE], trace_tilt=tilt,
                              name="entropy-affine"),
    ]
    worst = 0.0
    for F in generators:
        for algebra, trials in ((C2, 250), (C3, 250)):
            verdict = br.check_identity(
                F, algebra, n_trials=trials, seed=4, tol=1e-9
            )
            worst = max(worst, verdict.worst_violation)
    report(
        3, "affine decomposition identity (500 combos x 4 generators)",
        worst < 1e-9, f"worst residual {worst:.2e}",
    )


def test_criterion_04_monotonicity():
    """Entropy divergence never grows under 1000 sampled channels on C2
    and C3; the squared-norm generator is caught with a witness."""
    ne_c2 = br.check_monotonicity(NE, C2, n_trials=1000, seed=5)
    ne_c3 = br.check_monotonicity(NE, C3, n_trials=1000, seed=5)
    t2_c3 = br.check_monotonicity(T2, C3, n_trials=1000, seed=5)
    t2_c2 = br.check_monotonicity(T2, C2, n_trials=1000, seed=5)
    replayed = (
        br.replay_monotonicity_trial(
            T2, C3, t2_c3.witnesses[0]["seed"], t2_c3.witnesses[0]["trial"]
        )
        if t2_c3.witnesses else math.nan
    )
    passed = (
        ne_c2.passed and ne_c3.passed
        and bool(t2_c3.witnesses)
        and abs(replayed - t2_c3.witnesses[0]["violation"]) < 1e-12
        and t2_c2.passed  # qubit maps contract the squared norm
    )
    report(
        4, "monotonicity (1000 channels each on C2/C3)",
        passed,
        f"entropy worst {max(ne_c2.worst_violation, ne_c3.worst_violation):.2e}, "
        f"trace-power witnesses {len(t2_c3.witnesses)}",
    )


def test_criterion_05_additivity_and_marginal_identity():
    """Additivity and marginal-identity residuals below 1e-8 over 500
    instances each on 2x2 and 2x3, plus the real-embedding additivity."""
    add_22 = mp.run_additivity_suite(NE, LAYOUT_22, n_trials=250, seed=6)
    add_23 = mp.run_additivity_suite(NE, LAYOUT_23, n_trials=250, seed=6)
    marg_22 = mp.run_marginal_identity_suite(
        NE, LAYOUT_22, n_trials=250, seed=6
    )
    marg_23 = mp.run_marginal_identity_suite(
        NE, LAYOUT_23, n_trials=250, seed=6
    )
    real_layout = st.composite_layout(st.REAL_INTO_LARGER, (2, 2))
    real_worst = 0.0
    for k in range(25):
        rng = np.random.default_rng([7, k])
        quad = [
            st.random_state(real_layout.factors[i % 2], seed=rng)
            for i in range(4)
        ]
        real_worst = max(
            real_worst,
            mp.check_additivity(NE, quad[0], quad[1], quad[2], quad[3],
                                real_layout),
        )
    worst = max(
        add_22.worst_violation, add_23.worst_violation,
        marg_22.worst_violation, marg_23.worst_violation, real_worst,
    )
    report(
        5, "additivity and marginal identity (500 + 500 + real embedding)",
        worst < 1e-8, f"worst residual {worst:.2e}",
    )


def test_criterion_06_separoid():
    """Positivity, symmetry and chain rule over 200 random 4-qubit
    states within stated tolerances and 2 minutes; classical tables at
    chain residual below 1e-10."""
    start = time.perf_counter()
    quantum = mp.check_separoid(
        NE, st.COMPLEX_TENSOR, (2, 2, 2, 2), n_trials=200, seed=8,
        positivity_tol=1e-8, symmetry_tol=1e-10, chain_tol=1e-8,
    )
    elapsed = time.perf_counter() - start
    classical = mp.check_separoid(
        NE, st.CLASSICAL_TENSOR, (2, 2, 2, 2), n_trials=100, seed=8,
        chain_tol=1e-10,
    )
    passed = (
        all(v.passed for v in quantum.values())
        and all(v.passed for v in classical.values())
        and elapsed < 120.0
    )
    report(
        6, "separoid axioms (200 4-qubit + 100 classical states)",
        passed,
        f"chain worst {quantum['chain'].worst_violation:.2e} quantum / "
        f"{classical['chain'].worst_violation:.2e} classical, {elapsed:.0f}s",
    )


def test_criterion_07_data_processing():
    """Local channels on one factor never raise mutual information, over
    1000 channels split between the maximally entangled and a random
    two-qubit state."""
    bell = mp.PartitionedState(
        mp.maximally_entangled_state(LAYOUT_22), ("A", "B")
    )
    random_state = mp.PartitionedState(
        st.random_state(LAYOUT_22.ambient, seed=9, layout=LAYOUT_22),
        ("A", "B"),
    )
    v_bell = mp.check_data_processing(NE, bell, n_trials=500, seed=10)
    v_rand = mp.check_data_processing(NE, random_state, n_trials=500,
                                      seed=11)
    worst = max(v_bell.worst_violation, v_rand.worst_violation)
    report(
        7, "data processing (1000 local channels)",
        v_bell.passed and v_rand.passed,
        f"worst violation {worst:.2e}",
    )


def test_criterion_08_hierarchy_ordering():
    """On shared seeds no generator passes monotonicity while failing
    sufficiency, or passes sufficiency while failing locality."""
    generators = [
        NE, T2, T3,
        br.combine_generators([2.0], [NE], trace_tilt=0.1,
                              name="entropy-affine"),
        br.combine_generators([0.5, 0.5, 0.0], [NE, T2, T3], name="blend"),
    ]
    ordering_ok = True
    rows = []
    for algebra_name, algebra in (("C2", C2), ("C3", C3)):
        for F in generators:
            mono = br.check_monotonicity(F, algebra, n_trials=150, seed=12)
            suff = br.check_sufficiency(F, algebra, n_trials=75, seed=12)
            if algebra.rank >= 3:
                local = br.check_statistical_locality(
                    F, algebra, n_trials=75, seed=12
                ).passed
            else:
                local = True  # no distinct singular companions at rank 2
            rows.append(
                f"{algebra_name}/{F.name}: "
                f"{int(mono.passed)}{int(suff.passed)}{int(local)}"
            )
            if mono.passed and not suff.passed:
                ordering_ok = False
            if suff.passed and not local:
                ordering_ok = False
    report(8, "condition hierarchy on shared seeds", ordering_ok,
           "; ".join(rows))


def test_criterion_09_chsh_landmarks():
    """Deterministic maximum 2 (exact), quantum optimum at 2*sqrt(2)
    within 1e-6 and never beyond 1e-7 above, algebraic maximum 4
    (exact); all inside 5 seconds."""
    start = time.perf_counter()
    deterministic = max(
        bx.chsh_value(bx.deterministic_box(fa, fb))
        for fa in itertools.product((0, 1), repeat=2)
        for fb in itertools.product((0, 1), repeat=2)
    )
    quantum, strategy = bx.maximize_quantum_chsh(seed=13, restarts=10)
    ceiling = 2.0 * math.sqrt(2.0)
    pr_value = bx.chsh_value(bx.pr_box())
    elapsed = time.perf_counter() - start
    passed = (
        deterministic == 2.0
        and abs(quantum - ceiling) < 1e-6
        and quantum <= ceiling + 1e-7
        and pr_value == 4.0
        and elapsed < 5.0
    )
    report(
        9, "CHSH landmarks 2 / 2*sqrt(2) / 4",
        passed,
        f"got {deterministic} / {quantum:.9f} / {pr_value}, {elapsed:.1f}s",
    )


def test_criterion_10_real_embedding_audit():
    """The 4x4 real trace-one body spans 9 affine dimensions; its slice
    of product tensors spans 8."""
    audit = st.real_embedding_dimension_audit(n_samples=80, seed=14)
    report(
        10, "real embedding dimension audit",
        audit == {"ambient_state_dim": 9, "product_slice_dim": 8},
        str(audit),
    )


def test_criterion_11_conjecture_explorer():
    """Fifty sampled generators on 2x2 produce a full report; the
    entropy family is classified monotone and additive; generators with
    infinite divergences do not crash the scan."""
    result = br.explore_additivity_conjecture(
        n_generators=50, n_trials=30, seed=15
    )
    rows = result["generators"]
    entropy_rows = [
        r for r in rows
        if r["generator"] == "neg-entropy"
        or r["generator"].startswith("entropy-affine")
    ]
    passed = (
        result["n_generators"] == 50
        and len(rows) == 50
        and entropy_rows
        and all(r["monotone"] and r["additive"] for r in entropy_rows)
        and sum(result["contingency"].values()) == 50
    )
    flagged = len(result["potential_counterexamples"])
    report(
        11, "conjecture explorer smoke run (50 generators)",
        passed,
        f"contingency {result['contingency']}, flagged {flagged}",
    )
