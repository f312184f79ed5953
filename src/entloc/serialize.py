"""JSON file formats shared by the CLI: states, protocol trees, optimizer
configs. Complex numbers are encoded as [re, im] pairs; density matrices are
flattened row-major.
"""

from __future__ import annotations

import json

import numpy as np

from .measures import Instrument
from .protocols import ProtocolNode
from .states import DensityOperator, DimensionError, DimSpec, PureState


class ParseError(ValueError):
    """Malformed input document."""


def _encode_complex_array(arr: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(arr).ravel()]


def _decode_complex_array(data, size: int) -> np.ndarray:
    try:
        arr = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad complex array: {exc}") from exc
    if arr.size != size:
        raise ParseError(f"expected {size} complex entries, got {arr.size}")
    return arr


def state_to_dict(state) -> dict:
    doc = {
        "dims": [
            {"label": lab, "dim": d, "role": state.dims.roles[lab]}
            for lab, d in state.dims.parties
        ]
    }
    if isinstance(state, PureState):
        doc["kind"] = "pure"
        doc["data"] = _encode_complex_array(state.amplitudes)
    elif isinstance(state, DensityOperator):
        doc["kind"] = "density"
        doc["data"] = _encode_complex_array(state.matrix)
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    return doc


def state_from_dict(doc: dict):
    try:
        spec = DimSpec.make(*[(p["label"], int(p["dim"]), p["role"]) for p in doc["dims"]])
        d = spec.total_dim  # overflows on dimensions past the int64 range
        kind = doc["kind"]
        data = doc["data"]
    except DimensionError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"missing or malformed state field: {exc}") from exc
    if kind not in ("pure", "density"):
        raise ParseError(f"unknown state kind {kind!r}")
    arr = _decode_complex_array(data, d if kind == "pure" else d * d)
    try:
        if kind == "pure":
            return PureState(arr, spec)
        rho = DensityOperator(arr.reshape(d, d), spec)
        rho.eigensystem()  # raises on a negative eigenvalue
        return rho
    except DimensionError:
        raise
    except ValueError as exc:  # not normalized, not Hermitian, not positive, non-finite
        raise ParseError(f"invalid {kind} state: {exc}") from exc


def save_state(state, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh)


def load_state(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read state file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("state file must hold a JSON object")
    return state_from_dict(doc)


def protocol_to_dict(node: ProtocolNode | None) -> dict | None:
    if node is None:
        return None
    d = node.instrument.dim
    return {
        "party": node.party,
        "instrument": [
            [_encode_complex_array(m) for m in kraus] for kraus in node.instrument.outcomes
        ],
        "dim": d,
        "children": [protocol_to_dict(child) for child in node.children],
    }


def protocol_from_dict(doc: dict | None) -> ProtocolNode | None:
    if doc is None:
        return None
    try:
        party = doc["party"]
        d = int(doc["dim"])
        outcomes = tuple(
            tuple(_decode_complex_array(m, d * d).reshape(d, d) for m in kraus)
            for kraus in doc["instrument"]
        )
        children = tuple(protocol_from_dict(c) for c in doc["children"])
    except (ParseError, DimensionError):  # already classified: a bad array or child node
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed protocol node: {exc}") from exc
    try:
        return ProtocolNode(party, Instrument(party, outcomes), children)
    except DimensionError:
        raise
    except ValueError as exc:  # non-finite, not trace preserving, no Kraus operators, child count
        raise ParseError(f"invalid protocol node: {exc}") from exc


def load_protocol(path) -> ProtocolNode | None:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read protocol file {path}: {exc}") from exc
    return protocol_from_dict(doc)


def save_protocol(node: ProtocolNode | None, path) -> None:
    with open(path, "w") as fh:
        json.dump(protocol_to_dict(node), fh)
