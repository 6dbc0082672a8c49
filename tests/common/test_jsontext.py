"""``indented_json`` against ``json.dumps(indent=2, sort_keys=True)``."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.jsontext import indented_json

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]),
    st.text(max_size=12),
    st.sampled_from(["", "é", "日本語", " ", "a\"b\\c\n", "\x00\x1f", "😀"]),
)
keys = st.one_of(st.text(max_size=8), st.sampled_from(["", "é", "日本", "a\nb"]))
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=40,
)


@given(trees)
@settings(max_examples=400, deadline=None)
def test_equals_json_dumps_byte_for_byte(tree):
    assert indented_json(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}], [[[]]],
    {"b": 1, "a": [1, {"c": None}], "": True},
    {1: "int key", 2.5: "float key", False: "f", -math.inf: []},
    {None: "null"}, {None: [{}]}, {True: [1]},
    {"k": {3: [1.5, -math.inf], 1: {"x": math.nan}}},
])
def test_edge_documents(doc):
    assert indented_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_float_subclass_renders_like_json():
    class F(float):
        def __repr__(self):
            return "F!"

    doc = {"a": [F(1.5)], "b": {"c": F(2.0), "d": [F(3.0), []]}}
    assert indented_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [{"a": object()}, {"a": [object(), []]}, [{1j: 1, "b": []}]])
def test_unserializable_raises_type_error_like_json(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        indented_json(doc)


def test_mixed_key_types_raise_like_json():
    doc = {"a": 1, 2: [1]}
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        indented_json(doc)
