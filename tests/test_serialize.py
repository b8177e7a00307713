import json

import numpy as np
import pytest

from statecone import algebras as ja
from statecone import boxes as bx
from statecone import serialize as sz
from statecone import states as st


class TestAlgebraDescriptors:
    def test_round_trip(self):
        algebra = ja.Algebra(
            ja.complex_hermitian(2).summands + ja.spin_factor(3).summands
        )
        doc = sz.algebra_to_json(algebra)
        assert doc == [{"type": "complex", "n": 2}, {"type": "spin", "n": 3}]
        assert sz.algebra_from_json(doc) == algebra

    def test_bad_documents(self):
        with pytest.raises(sz.FormatError):
            sz.algebra_from_json([])
        with pytest.raises(sz.FormatError):
            sz.algebra_from_json([{"type": "octonion", "n": 3}])

    @pytest.mark.parametrize("n", [1.5, 2.0, "2", True, None])
    def test_size_must_be_an_integer(self, n):
        with pytest.raises(sz.FormatError, match="not an integer"):
            sz.algebra_from_json([{"type": "complex", "n": n}])


class TestAlgebraSpecGrammar:
    @pytest.mark.parametrize("spec,kind,size", [
        ("C2", "complex", 2),
        ("R4", "real", 4),
        ("H2", "quaternion", 2),
        ("S3", "spin", 3),
        ("P4", "classical", 4),
    ])
    def test_simple_specs(self, spec, kind, size):
        algebra, layout = sz.parse_algebra_spec(spec)
        assert layout is None
        assert algebra.summands == (ja.SimpleFactor(kind, size),)

    def test_complex_tensor_spec(self):
        algebra, layout = sz.parse_algebra_spec("C2x4")
        assert algebra == ja.complex_hermitian(8)
        assert layout.sizes == (2, 4)
        assert layout.embedding == st.COMPLEX_TENSOR

    def test_classical_tensor_spec(self):
        _, layout = sz.parse_algebra_spec("P2x2x2x2")
        assert layout.sizes == (2, 2, 2, 2)
        assert layout.embedding == st.CLASSICAL_TENSOR

    def test_invalid_specs(self):
        for spec in ("X2", "C", "R2x2", "C2y3"):
            with pytest.raises(sz.FormatError):
                sz.parse_algebra_spec(spec)


class TestElementsAndStates:
    def test_element_round_trip(self):
        rng = np.random.default_rng(0)
        algebra = ja.quaternion_hermitian(2)
        el = ja.JordanElement(algebra, rng.normal(size=algebra.dim))
        back = sz.element_from_json(
            json.loads(json.dumps(sz.element_to_json(el)))
        )
        assert back.algebra == algebra
        np.testing.assert_allclose(back.coeffs, el.coeffs)

    def test_state_round_trip_with_layout(self):
        layout = st.composite_layout(st.COMPLEX_TENSOR, (2, 3))
        state = st.random_state(layout.ambient, seed=1, layout=layout)
        back = sz.state_from_json(sz.state_to_json(state))
        np.testing.assert_allclose(
            back.element.coeffs, state.element.coeffs, atol=1e-14
        )
        assert back.layout == layout

    def test_state_requires_kind(self):
        state = st.random_state(ja.complex_hermitian(2), seed=2)
        doc = sz.element_to_json(state.element)
        with pytest.raises(sz.FormatError):
            sz.state_from_json(doc)

    @pytest.mark.parametrize("load", [
        sz.state_from_json, sz.measurement_from_json,
        sz.channel_from_json, sz.box_from_json,
    ])
    @pytest.mark.parametrize("doc", [[1, 2], "x", None, 3.5, {"kind": 7}])
    def test_documents_must_be_objects_of_their_kind(self, load, doc):
        with pytest.raises(sz.FormatError, match="JSON objects"):
            load(doc)

    def test_layout_sizes_must_be_integers(self):
        doc = sz.state_to_json(st.maximally_mixed(ja.complex_hermitian(2)))
        doc["layout"] = {"embedding": st.COMPLEX_TENSOR, "sizes": [2, 1.0]}
        with pytest.raises(sz.FormatError, match="not an integer"):
            sz.state_from_json(doc)

    def test_coefficient_length_checked(self):
        with pytest.raises(sz.FormatError):
            sz.element_from_json(
                {"algebra": [{"type": "complex", "n": 2}], "coeffs": [1, 0]}
            )

    def test_invalid_state_rejected(self):
        doc = {
            "kind": "state",
            "algebra": [{"type": "classical", "n": 2}],
            "coeffs": [1.5, -0.5],
        }
        with pytest.raises(st.StateValidationError):
            sz.state_from_json(doc)


class TestMeasurementsAndChannels:
    def test_measurement_round_trip(self):
        sigma = st.random_state(ja.complex_hermitian(3), seed=3)
        m = st.spectral_measurement(sigma)
        back = sz.measurement_from_json(
            json.loads(json.dumps(sz.measurement_to_json(m)))
        )
        probs = st.measure(back, sigma)
        np.testing.assert_allclose(
            np.sort(probs), np.sort(st.measure(m, sigma)), atol=1e-12
        )
        for bad in (np.nan, np.inf):
            doc = sz.measurement_to_json(m)
            doc["outcomes"][0]["coeffs"][1] = bad
            with pytest.raises(sz.FormatError, match="finite"):
                sz.measurement_from_json(doc)

    def test_channel_round_trip(self):
        phi = st.random_channel(ja.complex_hermitian(2), seed=4)
        back = sz.channel_from_json(
            json.loads(json.dumps(sz.channel_to_json(phi)))
        )
        rho = st.random_state(ja.complex_hermitian(2), seed=5)
        assert ja.norm(
            back.apply_element(rho.element) - phi.apply_element(rho.element)
        ) < 1e-12
        for bad in (np.nan, -np.inf):
            doc = sz.channel_to_json(phi)
            doc["matrix"][1][2] = bad
            with pytest.raises(sz.FormatError, match="finite"):
                sz.channel_from_json(doc)


class TestBoxes:
    def test_box_round_trip(self):
        box = bx.pr_box()
        back = sz.box_from_json(json.loads(json.dumps(sz.box_to_json(box))))
        np.testing.assert_allclose(back.table, box.table)

    def test_signaling_box_rejected(self):
        doc = sz.box_to_json(bx.pr_box())
        doc["table"][0][0][0][0] = 0.9
        with pytest.raises(ValueError):
            sz.box_from_json(doc)
