import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from statecone import algebras as ja
from statecone import boxes as bx
from statecone import serialize as sz
from statecone import states as st
from test_cli import _JSON


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

    @pytest.mark.parametrize("spec", [
        "C1_0", "C+3", "C-3", "C\uff13", "C\u0663", "C3x 2", "C3 x2", "C 3",
        "P2x2_0", "C3x", "Cx3", "C3xx2", "C3\tx2", "C3.0", "C0x3 2",
    ])
    def test_sizes_are_ascii_digit_runs(self, spec):
        # int() reads the sizes of most of these, which would run "C1_0"
        # as C10 and "C3x 2" as C3x2 under the raw spec's name
        with pytest.raises(sz.FormatError, match="unknown algebra spec"):
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
        sz.state_from_json, sz.channel_from_json, sz.box_from_json,
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

    @pytest.mark.parametrize("coeffs", [[1.0, [0.0], 0.0, 0.0],
                                        ["one", 0.0, 0.0, 0.0]])
    def test_unreadable_coefficients(self, coeffs):
        doc = {"algebra": [{"type": "complex", "n": 2}], "coeffs": coeffs}
        with pytest.raises(sz.FormatError, match="bad coefficients"):
            sz.element_from_json(doc)

    def test_invalid_state_rejected(self):
        doc = {
            "kind": "state",
            "algebra": [{"type": "classical", "n": 2}],
            "coeffs": [1.5, -0.5],
        }
        with pytest.raises(st.StateValidationError):
            sz.state_from_json(doc)


class TestChannels:
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

    @pytest.mark.parametrize("case", [
        "no-source", "no-target", "no-matrix", "ragged-matrix",
        "text-matrix", "wrong-shape",
    ])
    def test_bad_channel_documents(self, case):
        doc = sz.channel_to_json(st.identity_affinity(ja.complex_hermitian(2)))
        if case in ("no-source", "no-target", "no-matrix"):
            del doc[case[3:]]
        elif case == "ragged-matrix":
            doc["matrix"][1] = doc["matrix"][1][:2]
        elif case == "text-matrix":
            doc["matrix"][0][0] = "one"
        else:
            doc["matrix"] = doc["matrix"][:3]
        with pytest.raises(sz.FormatError):
            sz.channel_from_json(doc)

    def test_trace_preserving_flag_is_ignored(self):
        # older writers added a "trace_preserving" key; the matrix alone
        # defines the map
        matrix = np.diag([1.0, 1.0, 0.0, 0.0])
        doc = {"kind": "channel", "source": [{"type": "complex", "n": 2}],
               "target": [{"type": "complex", "n": 2}],
               "matrix": matrix.tolist(), "trace_preserving": False,
               "name": "dephase"}
        phi = sz.channel_from_json(doc)
        assert phi.name == "dephase"
        np.testing.assert_array_equal(phi.matrix, matrix)
        rho = st.random_state(ja.complex_hermitian(2), seed=6)
        np.testing.assert_array_equal(phi.apply_element(rho.element).coeffs,
                                      matrix @ rho.element.coeffs)
        assert "trace_preserving" not in sz.channel_to_json(phi)

    @pytest.mark.parametrize("name", [5, [1], None, {"a": "b"}])
    def test_channel_name_must_be_a_string(self, name):
        doc = sz.channel_to_json(st.identity_affinity(ja.complex_hermitian(2)))
        doc["name"] = name
        with pytest.raises(sz.FormatError, match="not a string"):
            sz.channel_from_json(doc)

    def test_channel_document_without_target(self):
        doc = {"kind": "channel", "source": [{"type": "complex", "n": 2}]}
        with pytest.raises(sz.FormatError, match="target"):
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

    def test_box_needs_a_table(self):
        with pytest.raises(sz.FormatError, match="table"):
            sz.box_from_json({"kind": "box"})

    def test_null_table_rejected(self):
        # json.load reads null as None, which numpy turns into NaN
        table = np.full((2, 2, 2, 2), None).tolist()
        with pytest.raises(sz.FormatError, match="finite"):
            sz.box_from_json({"kind": "box", "table": table})

    @pytest.mark.parametrize("table", [
        [[[[0.5, {}], [0, 0.5]]] * 2] * 2, [[1] * 3, [1] * 2], [10 ** 400],
    ], ids=["object", "ragged", "overflow"])
    def test_unreadable_tables(self, table):
        with pytest.raises(sz.FormatError, match="bad box table"):
            sz.box_from_json({"kind": "box", "table": table})


# ---------------------------------------------------------------------------
# fuzzed channel and box documents
# ---------------------------------------------------------------------------

_CHANNELS = [
    sz.channel_to_json(st.random_channel(ja.complex_hermitian(2), seed=8)),
    sz.channel_to_json(st.random_channel(ja.classical(3), seed=9)),
    sz.channel_to_json(st.identity_affinity(ja.real_hermitian(2))),
]
_BOXES = [sz.box_to_json(box) for box in (
    bx.pr_box(), bx.white_noise_box(), bx.deterministic_box((0, 1), (1, 0)))]


@hst.composite
def _mutated(draw, docs):
    """One of ``docs`` with the value at a random path, one to five keys
    or indices deep, replaced by arbitrary JSON."""
    doc = json.loads(json.dumps(draw(hst.sampled_from(docs))))
    holder, key = None, None
    node = doc
    for _ in range(draw(hst.integers(1, 5))):
        keys = (list(node) if isinstance(node, dict)
                else list(range(len(node))) if isinstance(node, list)
                else [])
        if not keys:
            break
        holder, key = node, draw(hst.sampled_from(keys))
        node = holder[key]
    holder[key] = draw(_JSON)
    return doc


def _loads_or_rejects(load, doc):
    """Load ``doc``; a rejection must be a ``ValueError``, and any other
    exception fails the test."""
    try:
        return load(doc)
    except ValueError:
        return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_mutated(_CHANNELS) | _JSON)
def test_channel_loader_accepts_or_rejects_any_document(doc):
    phi = _loads_or_rejects(sz.channel_from_json, doc)
    if phi is not None:
        assert isinstance(phi.name, str)
        assert np.isfinite(phi.matrix).all()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_mutated(_BOXES) | _JSON)
def test_box_loader_accepts_or_rejects_any_document(doc):
    box = _loads_or_rejects(sz.box_from_json, doc)
    if box is not None:
        assert np.isfinite(box.table).all()
