"""JSON encodings for hypergraphs, multiplexes and weighted hypergraphs.

Every object carries a "kind" tag so files are self-describing. A structure
object holds its edges in exactly one of two fields: "edges", a list of
vertex lists, or "edge_data", the base64 (standard alphabet, no line
breaks) of the edge array as little-endian int32, row-major, "uniformity"
vertices per row. The writers give "edge_data"; the readers take either.
Files and reports are written as json.dumps(obj, indent=2, sort_keys=True).
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Any

import numpy as np

from monoplex.core import (
    Multiplex,
    UniformHypergraph,
    ValidationError,
    WeightedUniformHypergraph,
    _check_sizes,
    _is_int,
    _prefixed,
    new_hypergraph,
    new_multiplex,
    new_weighted_hypergraph,
)


def _require(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValidationError(f"{where}: missing field {key!r}")
    return obj[key]


def _edge_data(H: UniformHypergraph) -> str:
    return base64.b64encode(H.edge_array.astype("<i4", copy=False).tobytes()).decode("ascii")


def _layer_fields(obj: dict, where: str) -> tuple[Any, Any, list | np.ndarray]:
    """uniformity, num_vertices and the edges of a structure object: its
    "edges" list, or its "edge_data" decoded to an (E, r) int32 array."""
    r, n = _require(obj, "uniformity", where), _require(obj, "num_vertices", where)
    if ("edges" in obj) == ("edge_data" in obj):
        fault = "holds both 'edges' and" if "edges" in obj else "missing field 'edges' or"
        raise ValidationError(f"{where}: {fault} 'edge_data' (exactly one is required)")
    if "edges" in obj:
        return r, n, obj["edges"]
    _prefixed(where, _check_sizes, r, n)  # as for an edge list; the row length is read from r
    data, where = obj["edge_data"], f"{where}.edge_data"
    if not isinstance(data, str):
        raise ValidationError(f"{where}: expected a base64 string, got {type(data).__name__}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a character past ASCII
        raise ValidationError(f"{where}: invalid base64 ({exc})") from None
    if len(raw) % (4 * r):
        raise ValidationError(f"{where}: {len(raw)} bytes is not a whole number of {r}-vertex int32 rows")
    return r, n, np.frombuffer(raw, dtype="<i4").reshape(-1, r)


def hypergraph_to_obj(H: UniformHypergraph) -> dict:
    return {
        "kind": "uniform_hypergraph",
        "uniformity": H.uniformity,
        "num_vertices": H.num_vertices,
        "edge_data": _edge_data(H),
    }


def hypergraph_from_obj(obj: dict, where: str = "hypergraph") -> UniformHypergraph:
    return _prefixed(where, new_hypergraph, *_layer_fields(obj, where))


def multiplex_to_obj(M: Multiplex) -> dict:
    return {
        "kind": "multiplex",
        "num_vertices": M.num_vertices,
        "layers": [hypergraph_to_obj(layer) for layer in M.layers],
    }


def multiplex_from_obj(obj: dict, where: str = "multiplex") -> Multiplex:
    layers = _require(obj, "layers", where)
    if not isinstance(layers, list):
        raise ValidationError(f"{where}.layers: expected a list")
    layers = [hypergraph_from_obj(layer, f"{where}.layers[{i}]") for i, layer in enumerate(layers)]
    M = _prefixed(where, new_multiplex, layers)
    n = obj.get("num_vertices", M.num_vertices)
    if not _is_int(n) or n != M.num_vertices:
        raise ValidationError(f"{where}.num_vertices: {n!r} differs from the layers' {M.num_vertices}")
    return M


def weighted_to_obj(WH: WeightedUniformHypergraph) -> dict:
    return {
        "kind": "weighted_hypergraph",
        "uniformity": WH.base.uniformity,
        "num_vertices": WH.base.num_vertices,
        "edge_data": _edge_data(WH.base),
        "weights": list(WH.weights),
        "weight_bound": WH.weight_bound,
    }


def weighted_from_obj(obj: dict, where: str = "weighted_hypergraph") -> WeightedUniformHypergraph:
    args = (*_layer_fields(obj, where), _require(obj, "weights", where), obj.get("weight_bound"))
    return _prefixed(where, new_weighted_hypergraph, *args)


_READERS = {
    "uniform_hypergraph": hypergraph_from_obj,
    "multiplex": multiplex_from_obj,
    "weighted_hypergraph": weighted_from_obj,
}


def structure_from_obj(obj: Any, where: str = "input"):
    kind = _require(obj, "kind", where)
    reader = _READERS.get(kind)
    if reader is None:
        known = ", ".join(sorted(_READERS))
        raise ValidationError(f"{where}.kind: unknown kind {kind!r} (expected one of {known})")
    return reader(obj, where)


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def write_json(path: str | Path, obj: Any) -> None:
    """Write dumps(obj) and a newline to path; a path that cannot be written
    (say, in a missing directory) raises ValidationError naming it."""
    text = dumps(obj) + "\n"
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write ({exc.strerror})") from exc


def read_json(path: str | Path) -> Any:
    """The JSON value in the file at path; json.loads detects UTF-8, -16 or -32."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise ValidationError(f"{path}: no such file") from None
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read ({exc.strerror})") from exc
    try:
        return json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


def load_structure(path: str | Path):
    """Read any of the structure formats, dispatching on the "kind" tag."""
    return structure_from_obj(read_json(path), str(path))
