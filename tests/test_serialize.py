"""serialize.dumps writes the bytes of json.dumps(obj, indent=2, sort_keys=True)."""

import json

import numpy as np
import pytest

from monoplex.serialize import dumps


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj",
    [
        {"0": [0, 0], "": [0]},
        {"b": [[1, 2]], "a": [[3, 4, 5]]},
        {"edges": [[0, 1]], "note": "\x00rows0\x00"},
        {"edges": [[0, 1]], "\x00rows0\x00": "note"},
        [3, -1, 2**70],
    ],
    ids=["sorted-blocks", "sorted-rows", "placeholder-value", "placeholder-key", "top-level-ints"],
)
def test_templated_lists_spliced_in_key_order(obj):
    assert dumps(obj) == reference(obj)


def test_non_str_keys_handed_to_json():
    obj = {"layers": [{"edges": [[0, 1]], "keys": {1: "x", 2.5: None, True: [[1, 2]]}}]}
    assert dumps(obj) == reference(obj)


def _circular():
    x = [1]
    x.append({"x": x})
    return x


@pytest.mark.parametrize(
    "obj",
    [np.int64(3), {1, 2}, [[0, 1], [np.int64(2), 3]], {"a": {"b": {1, 2}}}, {"a": 1, 2: "b"}, _circular()],
    ids=["np-int64", "set", "np-int64-in-row", "nested-set", "mixed-keys", "circular"],
)
def test_refused_like_json(obj):
    with pytest.raises(Exception) as expected:
        reference(obj)
    with pytest.raises(expected.type):
        dumps(obj)
