"""JSON encodings for hypergraphs, multiplexes and weighted hypergraphs.

Every object carries a "kind" tag so files are self-describing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from monoplex.core import (
    Multiplex,
    UniformHypergraph,
    ValidationError,
    WeightedUniformHypergraph,
    _is_int,
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


def hypergraph_to_obj(H: UniformHypergraph) -> dict:
    return {
        "kind": "uniform_hypergraph",
        "uniformity": H.uniformity,
        "num_vertices": H.num_vertices,
        "edges": H.edge_array.tolist(),
    }


def hypergraph_from_obj(obj: dict, where: str = "hypergraph") -> UniformHypergraph:
    return new_hypergraph(
        _require(obj, "uniformity", where),
        _require(obj, "num_vertices", where),
        _require(obj, "edges", where),
    )


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
    M = new_multiplex(
        hypergraph_from_obj(layer, f"{where}.layers[{i}]") for i, layer in enumerate(layers)
    )
    n = obj.get("num_vertices", M.num_vertices)
    if not _is_int(n) or n != M.num_vertices:
        raise ValidationError(f"{where}.num_vertices: {n!r} differs from the layers' {M.num_vertices}")
    return M


def weighted_to_obj(WH: WeightedUniformHypergraph) -> dict:
    return {
        "kind": "weighted_hypergraph",
        "uniformity": WH.base.uniformity,
        "num_vertices": WH.base.num_vertices,
        "edges": WH.base.edge_array.tolist(),
        "weights": list(WH.weights),
        "weight_bound": WH.weight_bound,
    }


def weighted_from_obj(obj: dict, where: str = "weighted_hypergraph") -> WeightedUniformHypergraph:
    return new_weighted_hypergraph(
        _require(obj, "uniformity", where),
        _require(obj, "num_vertices", where),
        _require(obj, "edges", where),
        _require(obj, "weights", where),
        obj.get("weight_bound"),
    )


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


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> Any:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"{path}: no such file")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


def load_structure(path: str | Path):
    """Read any of the structure formats, dispatching on the "kind" tag."""
    return structure_from_obj(read_json(path), str(path))
