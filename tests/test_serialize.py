"""serialize.dumps writes the bytes of json.dumps(obj, indent=2, sort_keys=True)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoplex.serialize import dumps


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


INTS = st.integers(-(2**70), 2**70)  # past int64 either way


def equal_rows(items):
    """Lists of equal-length rows, each a list or a tuple; the length may be 0."""
    row = lambda k: st.lists(items, min_size=k, max_size=k)  # noqa: E731
    return st.integers(0, 4).flatmap(lambda k: st.lists(row(k) | row(k).map(tuple), max_size=6))


LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    INTS,
    st.floats(),  # nan, +-inf and -0.0 included
    st.floats().map(np.float64),
    st.text(),  # non-ASCII included
)
EDGE_LISTS = st.one_of(
    st.lists(INTS, max_size=6),
    equal_rows(INTS),
    equal_rows(INTS | st.booleans()),  # bools inside int rows
    st.lists(st.lists(INTS, max_size=4), max_size=6),  # ragged and empty rows
)
VALUES = st.recursive(
    LEAVES | EDGE_LISTS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=30,
)


@given(VALUES)
@settings(max_examples=600, deadline=None)
def test_matches_json(obj):
    assert dumps(obj) == reference(obj)


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
