"""Canonical JSON with verbatim fragments."""

import json

import pytest

from groupvna import jsonutil
from groupvna.jsonutil import Fragment, canonical_dumps


def _stock(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def test_fragments_in_dicts_and_lists_write_their_parsed_values():
    parts = {"a": [[1.0, -0.5], [0.0, 2.5]], "b": {"x": 1}, "c": "text", "d": []}
    doc = {"z": [Fragment(json.dumps(v, separators=(",", ":"))) for v in parts.values()],
           "y": {"k": Fragment(_stock(parts["b"])), "j": 3},
           "x": [[Fragment("0.5")], Fragment("null")],
           "w": Fragment.of_list(_stock(x) for x in parts["a"])}
    want = {"z": list(parts.values()), "y": {"k": parts["b"], "j": 3}, "x": [[0.5], None],
            "w": parts["a"]}
    assert canonical_dumps(doc) == _stock(want)


def test_a_call_without_fragments_is_plain_json():
    doc = {"b": [1, 2.5, None, True], "a": {"num": 1, "den": 3}, "c": "é\"]"}
    assert canonical_dumps(doc) == _stock(doc)


def test_strings_that_look_like_markers_or_fragments_stay_strings():
    looks_like_text = "[[1.0,0.0]]"
    doc = {"s": looks_like_text, "f": Fragment("[[1.0,0.0]]")}
    assert canonical_dumps(doc) == '{"f":[[1.0,0.0]],"s":"[[1.0,0.0]]"}'
    hexlike = "0" * 32  # the shape of a marker: 32 hex digits
    doc = {"s": hexlike, "t": f'"{hexlike}"', "f": Fragment("1")}
    assert json.loads(canonical_dumps(doc)) == {"s": hexlike, "t": f'"{hexlike}"', "f": 1}


def test_a_non_serializable_object_still_raises():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        canonical_dumps({"a": Fragment("1"), "b": {1, 2}})
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        canonical_dumps([object()])


def test_a_nan_still_raises():
    with pytest.raises(ValueError, match="not JSON compliant"):
        canonical_dumps([Fragment("1"), float("nan")])


def test_an_input_string_equal_to_the_marker_is_refused(monkeypatch):
    monkeypatch.setattr(jsonutil.os, "urandom", lambda n: bytes(n))
    with pytest.raises(ValueError, match="marker"):
        canonical_dumps(["0" * 32, Fragment("1")])
