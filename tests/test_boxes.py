import itertools
import math

import numpy as np
import pytest

from statecone import algebras as alg
from statecone import boxes as bx
from statecone import states as st


class TestBoxInvariants:
    def test_pr_box(self):
        box = bx.pr_box()
        box.validate()
        assert box.no_signaling_residual() == 0.0
        marginals = box.table.sum(axis=3)
        np.testing.assert_allclose(marginals, 0.5)

    def test_white_noise(self):
        box = bx.white_noise_box()
        box.validate()
        assert bx.chsh_value(box) == pytest.approx(0.0, abs=1e-14)

    def test_bad_tables_rejected(self):
        bad = np.full((2, 2, 2, 2), 0.3)
        with pytest.raises(ValueError):
            bx.NoSignalingBox(bad).validate()
        signaling = np.zeros((2, 2, 2, 2))
        signaling[0, 0, 0, 0] = 1.0
        signaling[0, 1, 0, 0] = 1.0
        signaling[1, 0, 1, 0] = 1.0
        signaling[1, 1, 0, 0] = 1.0
        with pytest.raises(ValueError):
            bx.NoSignalingBox(signaling).validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_tables_rejected(self, bad):
        # every comparison with NaN is false, so a NaN table would pass
        # the sign, sum and signaling checks
        table = bx.pr_box().table.copy()
        table[1, 0, 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            bx.NoSignalingBox(table).validate()
        with pytest.raises(ValueError, match="finite"):
            bx.NoSignalingBox(np.full((2, 2, 2, 2), math.nan)).validate()

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            bx.NoSignalingBox(np.zeros((2, 2, 2)))


class TestChshValues:
    def test_pr_box_reaches_four(self):
        assert bx.chsh_value(bx.pr_box()) == pytest.approx(4.0, abs=1e-14)

    def test_constant_outputs_give_two(self):
        box = bx.deterministic_box((0, 0), (0, 0))
        assert bx.chsh_value(box) == pytest.approx(2.0, abs=1e-14)

    def test_deterministic_extremes(self):
        values = [
            bx.chsh_value(bx.deterministic_box(fa, fb))
            for fa in itertools.product((0, 1), repeat=2)
            for fb in itertools.product((0, 1), repeat=2)
        ]
        assert max(values) == 2.0
        assert min(values) == -2.0

    def test_mixture_linearity(self):
        boxes = [bx.pr_box(), bx.white_noise_box(),
                 bx.deterministic_box((0, 1), (1, 0))]
        weights = np.array([0.2, 0.5, 0.3])
        mixed = bx.mix_boxes(boxes, weights)
        expected = sum(
            w * bx.chsh_value(b) for w, b in zip(weights, boxes)
        )
        assert bx.chsh_value(mixed) == pytest.approx(expected, abs=1e-12)


class TestQuantumBoxes:
    def test_standard_angles_reach_tsirelson(self):
        strategy = bx.QuantumStrategy(
            bx.bell_state(),
            (0.0, math.pi / 2),
            (math.pi / 4, -math.pi / 4),
        )
        box = bx.box_from_quantum(strategy)
        box.validate(tol=1e-10)
        assert bx.chsh_value(box) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-9
        )

    def test_quantum_boxes_never_signal(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            strategy = bx.QuantumStrategy(
                bx.bell_state(),
                tuple(rng.uniform(0, 2 * math.pi, 2)),
                tuple(rng.uniform(0, 2 * math.pi, 2)),
            )
            box = bx.box_from_quantum(strategy)
            assert box.no_signaling_residual() < 1e-10

    def test_product_states_stay_classical(self):
        for strategy in _product_strategies(1, 10):
            assert bx.chsh_value(bx.box_from_quantum(strategy)) <= 2.0 + 1e-9

    def test_correlation_tensor_matches_box(self):
        rng = np.random.default_rng(2)
        t = bx._correlation_tensor(bx.bell_state())
        for _ in range(10):
            angles = rng.uniform(0, 2 * math.pi, 4)
            directions = [bx._direction(v) for v in angles]
            assert bx._chsh_of_directions(t, directions) == pytest.approx(
                bx.chsh_value(bx.box_from_quantum(bx.QuantumStrategy(
                    bx.bell_state(), tuple(angles[:2]), tuple(angles[2:])))),
                abs=1e-10
            )


def _reference_projectors(theta):
    direction = np.array(
        [[math.cos(theta), math.sin(theta)],
         [math.sin(theta), -math.cos(theta)]],
        dtype=complex,
    )
    eye = np.eye(2, dtype=complex)
    return 0.5 * (eye + direction), 0.5 * (eye - direction)


def _reference_table(strategy):
    """The outcome table built one entry at a time: one Kronecker
    product, one element and one inner product per entry."""
    layout = strategy.state.layout
    t = np.zeros((2, 2, 2, 2))
    for x, theta in enumerate(strategy.alice_angles):
        pa = _reference_projectors(theta)
        for y, phi in enumerate(strategy.bob_angles):
            pb = _reference_projectors(phi)
            for a in range(2):
                for b in range(2):
                    effect = alg.element_from_reps(
                        layout.ambient, [np.kron(pa[a], pb[b])]
                    )
                    t[x, y, a, b] = alg.inner_product(
                        effect, strategy.state.element
                    )
    return np.clip(t, 0.0, None)


def _reference_tensor(state):
    rep = state.element.reps()[0]
    paulis = (np.diag([1.0, -1.0]).astype(complex),
              np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    t = np.empty((2, 2))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            t[i, j] = float(np.trace(np.kron(si, sj) @ rep).real)
    return t


def _product_strategies(seed, count):
    """Strategies on product states of two pure qubits, as in
    ``test_product_states_stay_classical``."""
    qubit = alg.complex_hermitian(2)
    layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 2))

    def pure(theta):
        v = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)],
                     dtype=complex)
        return st.State.make(
            alg.element_from_reps(qubit, [np.outer(v, v.conj())])
        )

    rng = np.random.default_rng(seed)
    for _ in range(count):
        alpha, beta = rng.uniform(0, 2 * math.pi, 2)
        yield bx.QuantumStrategy(
            st.tensor(pure(alpha), pure(beta), layout),
            tuple(rng.uniform(0, 2 * math.pi, 2)),
            tuple(rng.uniform(0, 2 * math.pi, 2)),
        )


class TestStackedTable:
    """The table and the correlation tensor are each built in a few
    stacked calls, with the bits of the per-entry loop."""

    def test_optimizer_strategies(self):
        for seed in range(100):
            _, strategy = bx.maximize_quantum_chsh(seed=seed, restarts=2)
            got = bx.box_from_quantum(strategy).table
            assert got.tobytes() == _reference_table(strategy).tobytes()

    def test_product_strategies(self):
        for strategy in _product_strategies(1, 20):
            got = bx.box_from_quantum(strategy).table
            assert got.tobytes() == _reference_table(strategy).tobytes()
            got = bx._correlation_tensor(strategy.state)
            assert got.tobytes() == _reference_tensor(strategy.state).tobytes()

    def test_bell_state_tensor(self):
        state = bx.bell_state()
        got = bx._correlation_tensor(state)
        assert got.tobytes() == _reference_tensor(state).tobytes()

    def test_state_must_be_two_qubits(self):
        qubit = st.random_state(alg.complex_hermitian(2), seed=3)
        strategy = bx.QuantumStrategy(qubit, (0.0, 1.0), (0.5, 2.0))
        with pytest.raises(alg.AlgebraMismatchError):
            bx.box_from_quantum(strategy)


class TestOptimizer:
    def test_reaches_tsirelson(self):
        value, strategy = bx.maximize_quantum_chsh(seed=3, restarts=10)
        ceiling = 2.0 * math.sqrt(2.0)
        assert value <= ceiling + 1e-7
        assert value >= ceiling - 1e-6
        box_value = bx.chsh_value(bx.box_from_quantum(strategy))
        assert box_value == pytest.approx(value, abs=1e-9)

    def test_never_exceeds_ceiling_across_seeds(self):
        ceiling = 2.0 * math.sqrt(2.0)
        for seed in range(5):
            value, _ = bx.maximize_quantum_chsh(seed=seed, restarts=3)
            assert value <= ceiling + 1e-7

    def test_hierarchy_of_correlations(self):
        deterministic = max(
            bx.chsh_value(bx.deterministic_box(fa, fb))
            for fa in itertools.product((0, 1), repeat=2)
            for fb in itertools.product((0, 1), repeat=2)
        )
        quantum, _ = bx.maximize_quantum_chsh(seed=5, restarts=10)
        assert deterministic == 2.0
        assert deterministic < quantum < bx.chsh_value(bx.pr_box())


def _reference_objective(p, tensor):
    """CHSH at the angles p against the tensor, with each angle a numpy
    array."""
    a = [(np.cos(p[x]), np.sin(p[x])) for x in (0, 1)]
    b = [(np.cos(p[2 + y]), np.sin(p[2 + y])) for y in (0, 1)]

    def corr(u, v):
        return sum(u[i] * tensor[i, j] * v[j]
                   for i in (0, 1) for j in (0, 1))

    return (corr(a[0], b[0]) + corr(a[0], b[1]) + corr(a[1], b[0])
            - corr(a[1], b[1]))


class TestExactCoordinateSteps:
    def test_closed_form_angle_beats_the_grid(self):
        tensor = bx._correlation_tensor(bx.bell_state())
        t = tensor.tolist()
        rng = np.random.default_rng(30)
        for _ in range(25):
            p = rng.uniform(-10.0, 10.0, size=4)
            dirs = [(math.cos(v), math.sin(v)) for v in p]
            for i in range(4):
                v = bx._best_angle(t, dirs, i, p[i])
                assert p[i] - math.pi <= v <= p[i] + math.pi
                at_v = p.copy()
                at_v[i] = v
                grid = np.linspace(p[i] - math.pi, p[i] + math.pi, 4096)
                on_grid = [np.full_like(grid, x) for x in p]
                on_grid[i] = grid
                best_on_grid = np.max(_reference_objective(on_grid, tensor))
                assert _reference_objective(at_v, tensor) \
                    >= best_on_grid - 1e-12

    def test_objective_matches_reference(self):
        tensor = bx._correlation_tensor(bx.bell_state())
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = rng.uniform(0, 2 * math.pi, 4)
            d = [bx._direction(v) for v in p]
            assert bx._chsh_of_directions(tensor.tolist(), d) == \
                pytest.approx(_reference_objective(p, tensor), abs=1e-14)


class TestOptimizerInputs:
    @pytest.mark.parametrize("restarts", [0, -4])
    def test_needs_a_restart(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            bx.maximize_quantum_chsh(restarts=restarts)

    def test_state_built_once(self, monkeypatch):
        calls = []
        original = bx.bell_state

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(bx, "bell_state", counted)
        value, strategy = bx.maximize_quantum_chsh(seed=6, restarts=5)
        assert len(calls) == 1
        box_value = bx.chsh_value(bx.box_from_quantum(strategy))
        assert box_value == pytest.approx(value, abs=1e-9)
