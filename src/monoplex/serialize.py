"""JSON encodings for hypergraphs, multiplexes and weighted hypergraphs.

Every object carries a "kind" tag so files are self-describing. Files and
reports are written by dumps, which gives the bytes of
json.dumps(obj, indent=2, sort_keys=True): json writes them all except the
int lists and edge lists, which one %-template writes.
"""

from __future__ import annotations

import itertools
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


def dumps(obj: Any) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte.

    json writes every byte but those of the lists that _int_rows accepts
    (ints, or equal-length rows of ints such as edge lists), which json's
    indenting encoder is slow on: each is hidden behind a placeholder
    string, formatted by one %-template and spliced back in.
    """
    blocks: list[str] = []

    def hide(x: Any, nl: str) -> Any:
        """A copy of x with each accepted list replaced by a placeholder
        string; nl is x's line break and indent."""
        if isinstance(x, dict):
            return {key: hide(value, nl + "  ") for key, value in x.items()}
        if not isinstance(x, (list, tuple)):
            return x
        rows = _int_rows(x, nl)
        if rows is None:
            return [hide(value, nl + "  ") for value in x]
        blocks.append(rows)
        return f"\0rows{len(blocks) - 1}\0"

    try:  # json writes each placeholder as "\u0000rows<i>\u0000"
        parts = json.dumps(hide(obj, "\n"), indent=2, sort_keys=True).split('"\\u0000rows')
    except RecursionError:  # a circular or deeply nested value: json's own result or error
        return json.dumps(obj, indent=2, sort_keys=True)
    if len(parts) != len(blocks) + 1:  # a string in obj looks like a placeholder
        return json.dumps(obj, indent=2, sort_keys=True)
    pieces = [parts[0]]
    for part in parts[1:]:  # sort_keys reorders the blocks: read each index
        index, _, rest = part.partition('\\u0000"')
        pieces += (blocks[int(index)], rest)
    return "".join(pieces)


def _int_rows(items: list | tuple, nl: str) -> str | None:
    """items encoded by one %-template when they are exact ints (bool is
    not one: json writes it as true/false) or equal-length, non-empty rows
    of them; None for any other list."""
    inner = nl + "  "
    kinds = set(map(type, items))
    if kinds == {int}:
        cell, values = "%d", tuple(items)
    else:
        lengths = set(map(len, items)) if kinds <= {list, tuple} else set()
        if len(lengths) != 1:
            return None
        values = tuple(itertools.chain.from_iterable(items))
        if set(map(type, values)) != {int}:
            return None
        pad = inner + "  "
        cell = "[" + pad + ("," + pad).join(["%d"] * lengths.pop()) + inner + "]"
    return f"[{inner}{(',' + inner).join([cell] * len(items))}{nl}]" % values


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
