"""JSON formats for elements, states, channels and boxes.

An element is stored as its algebra descriptor plus the coefficient
vector in the documented basis:

    {"algebra": [{"type": "complex", "n": 2}], "coeffs": [...]}

States add ``"kind": "state"`` and, for composites, a ``"layout"`` with
the embedding name and factor sizes.  Channels carry the raw matrix
with source and target descriptors and a string name; the reader
ignores any other key, such as the ``"trace_preserving"`` flag older
writers added.  Boxes are a 4x4 nesting indexed ``[x][y][a][b]``.
Every number a reader takes must be finite: numpy reads a JSON ``null``
as NaN, which no later comparison would catch.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .algebras import _KINDS, Algebra, JordanElement, SimpleFactor
from . import states as st
from .states import Affinity, CompositeLayout, State
from .boxes import INPUT_BOX_TOL, NoSignalingBox

__all__ = [
    "FormatError",
    "algebra_from_json",
    "algebra_to_json",
    "box_from_json",
    "box_to_json",
    "channel_from_json",
    "channel_to_json",
    "element_from_json",
    "element_to_json",
    "load_json",
    "parse_algebra_spec",
    "state_from_json",
    "state_to_json",
]


class FormatError(ValueError):
    """The JSON document does not match the expected schema."""


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# algebra descriptors
# ---------------------------------------------------------------------------


def algebra_to_json(algebra: Algebra) -> list:
    return [{"type": s.kind, "n": s.size} for s in algebra.summands]


def _size(value) -> int:
    """A factor size, which JSON must give as an integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"size {value!r} is not an integer")
    return value


def algebra_from_json(doc) -> Algebra:
    if not isinstance(doc, list) or not doc:
        raise FormatError("algebra must be a non-empty list of summands")
    summands = []
    for entry in doc:
        try:
            summands.append(SimpleFactor(entry["type"], _size(entry["n"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad summand {entry!r}: {exc}") from exc
    return Algebra(tuple(summands))


_SPEC_KINDS = {ops.letter: kind for kind, ops in _KINDS.items()}
_TENSOR_KINDS = {"C": st.COMPLEX_TENSOR, "P": st.CLASSICAL_TENSOR}


def parse_algebra_spec(spec: str):
    """Parse the compact grammar: ``C2`` is one complex summand of size 2,
    ``C2x4`` the complex tensor of sizes 2 and 4, ``P2x2x2x2`` a classical
    tensor.  Returns ``(algebra, layout)`` with layout ``None`` for simple
    algebras."""
    spec = spec.strip()
    # sizes are ASCII digit runs: int() alone would also read "1_0", "+3",
    # other scripts' digits and inner spaces
    if (not spec or spec[0].upper() not in _SPEC_KINDS
            or not re.fullmatch(r"[0-9]+(x[0-9]+)*", spec[1:])):
        raise FormatError(f"unknown algebra spec {spec!r}")
    letter = spec[0].upper()
    sizes = [int(part) for part in spec[1:].split("x")]
    kind = _SPEC_KINDS[letter]
    if len(sizes) == 1:
        return Algebra((SimpleFactor(kind, sizes[0]),)), None
    if letter not in _TENSOR_KINDS:
        raise FormatError(
            f"tensor composites only exist for C and P specs, got {spec!r}"
        )
    layout = st.composite_layout(_TENSOR_KINDS[letter], sizes)
    return layout.ambient, layout


# ---------------------------------------------------------------------------
# elements and states
# ---------------------------------------------------------------------------


def element_to_json(el: JordanElement) -> dict:
    return {
        "algebra": algebra_to_json(el.algebra),
        "coeffs": el.coeffs.tolist(),
    }


def element_from_json(doc) -> JordanElement:
    try:
        algebra = algebra_from_json(doc["algebra"])
        values = doc["coeffs"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad element document: {exc}") from exc
    try:
        coeffs = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad coefficients: {exc}") from exc
    if coeffs.shape != (algebra.dim,):
        raise FormatError(
            f"coefficients of shape {coeffs.shape} do not match "
            f"algebra dimension {algebra.dim}"
        )
    _require_finite(coeffs, "coefficients")
    return JordanElement(algebra, coeffs)


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{what} must be finite numbers")


def _layout_to_json(layout: CompositeLayout) -> dict:
    return {
        "embedding": layout.embedding,
        "sizes": list(layout.sizes),
    }


def _layout_from_json(doc) -> CompositeLayout:
    try:
        sizes = [_size(n) for n in doc["sizes"]]
        return st.composite_layout(doc["embedding"], sizes)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad layout document: {exc}") from exc


def state_to_json(state: State) -> dict:
    doc = element_to_json(state.element)
    doc["kind"] = "state"
    if state.layout is not None:
        doc["layout"] = _layout_to_json(state.layout)
    return doc


def _require_kind(doc, kind: str) -> None:
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise FormatError(
            f'{kind} documents are JSON objects with "kind": "{kind}"'
        )


def state_from_json(doc) -> State:
    _require_kind(doc, "state")
    element = element_from_json(doc)
    layout = _layout_from_json(doc["layout"]) if "layout" in doc else None
    if layout is not None and layout.ambient != element.algebra:
        raise FormatError("layout does not match the element algebra")
    return State.make(element, layout)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def channel_to_json(phi: Affinity) -> dict:
    return {
        "kind": "channel",
        "source": algebra_to_json(phi.source),
        "target": algebra_to_json(phi.target),
        "matrix": np.asarray(phi.matrix).tolist(),
        "name": phi.name,
    }


def channel_from_json(doc) -> Affinity:
    _require_kind(doc, "channel")
    try:
        source = algebra_from_json(doc["source"])
        target = algebra_from_json(doc["target"])
        values = doc["matrix"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad channel document: missing {exc}") from exc
    try:
        matrix = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad channel matrix: {exc}") from exc
    if matrix.shape != (target.dim, source.dim):
        raise FormatError(
            f"channel matrix of shape {matrix.shape} does not map "
            f"{source} to {target}"
        )
    _require_finite(matrix, "channel matrix entries")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise FormatError(f"channel name {name!r} is not a string")
    return Affinity(matrix, source, target, name=name)


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------


def box_to_json(box: NoSignalingBox) -> dict:
    return {"kind": "box", "table": box.table.tolist()}


def box_from_json(doc) -> NoSignalingBox:
    _require_kind(doc, "box")
    if "table" not in doc:
        raise FormatError('box documents need a "table"')
    try:
        table = np.asarray(doc["table"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad box table: {exc}") from exc
    _require_finite(table, "box table entries")
    box = NoSignalingBox(table)
    box.validate(tol=INPUT_BOX_TOL)
    return box
